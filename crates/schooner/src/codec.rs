//! The table form of this crate's tagged binary formats: the control
//! plane's [`Msg`](crate::message::Msg) and journaled obs events.
//!
//! A format is one [`tagged!`] table of `tag Variant { fields in wire
//! order }`, and the table writes both the encoder and the decoder, so
//! the two directions cannot disagree on a layout. A field's wire form is
//! its type's [`Field`] impl: integers big-endian, floats as their
//! IEEE-754 bits, strings and byte strings behind a `u32` length, an
//! `Option` as a presence byte and the value. Writers take any
//! [`BufMut`] (the journal's `Vec<u8>`, a message's `BytesMut`); readers
//! are [`ledger::codec::Reader`]s.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::Arc;

use bytes::{BufMut, Bytes};
use ledger::codec::Reader;

/// How one field type travels. `In` is the input a decoder reads from:
/// `[u8]` for obs events, or the received [`Bytes`] of a message, whose
/// byte-string fields decode as zero-copy slices of it.
pub(crate) trait Field<In: ?Sized>: Sized {
    /// Append the wire form of `self`.
    fn put(&self, out: &mut impl BufMut);
    /// Read one value from `r`, a reader over `input`.
    fn get(r: &mut Reader, input: &In) -> Result<Self, String>;
}

/// Decode exactly one `T` from `input`: a byte left over is an error.
#[inline]
pub(crate) fn decode<In: AsRef<[u8]> + ?Sized, T: Field<In>>(input: &In) -> Result<T, String> {
    let mut r = Reader::new(input.as_ref());
    let v = T::get(&mut r, input)?;
    r.finish()?;
    Ok(v)
}

/// Implements [`Field`] for an enum from one table of `tag Variant {
/// fields in wire order }`: the tag byte, then each field. Listing every
/// field (the pattern has no `..`) makes a field added to a variant fail
/// to compile until it is placed. `[Marker] field` writes the unit
/// `Marker`'s bytes just before `field` and checks them on decode, for a
/// constant that travels in a layout without living in the variant.
macro_rules! tagged {
    ($ty:ident from $in:ty, $what:literal;
     $($tag:literal $variant:ident { $($([$pre:ident])? $field:ident),* })*) => {
        impl $crate::codec::Field<$in> for $ty {
            fn put(&self, out: &mut impl ::bytes::BufMut) {
                match self {
                    $($ty::$variant { $($field),* } => {
                        out.put_u8($tag);
                        $(
                            $($crate::codec::Field::<$in>::put(&$pre, out);)?
                            $crate::codec::Field::<$in>::put($field, out);
                        )*
                    })*
                }
            }

            // Its one caller is `decode`; a call between the two costs a
            // short message's decode about a fifth (measured).
            #[inline(always)]
            fn get(r: &mut ::ledger::codec::Reader, input: &$in) -> Result<Self, String> {
                Ok(match r.u8()? {
                    $($tag => $ty::$variant { $($field: {
                        $(<$pre as $crate::codec::Field<$in>>::get(r, input)?;)?
                        $crate::codec::Field::get(r, input)?
                    }),* },)*
                    other => return Err(format!(concat!("unknown ", $what, " tag {}"), other)),
                })
            }
        }
    };
}
pub(crate) use tagged;

// The reads below are `#[inline(always)]`: inside a table's many-armed
// decoder the compiler otherwise leaves each one a call, and a row must
// cost what the hand-written reads it replaced did.

impl<In: ?Sized> Field<In> for () {
    fn put(&self, _: &mut impl BufMut) {}
    #[inline(always)]
    fn get(_: &mut Reader, _: &In) -> Result<Self, String> {
        Ok(())
    }
}

/// Any nonzero byte decodes as `true`.
impl<In: ?Sized> Field<In> for bool {
    fn put(&self, out: &mut impl BufMut) {
        out.put_u8(u8::from(*self));
    }
    #[inline(always)]
    fn get(r: &mut Reader, _: &In) -> Result<Self, String> {
        Ok(r.u8()? != 0)
    }
}

impl<In: ?Sized> Field<In> for u32 {
    fn put(&self, out: &mut impl BufMut) {
        out.put_u32(*self);
    }
    #[inline(always)]
    fn get(r: &mut Reader, _: &In) -> Result<Self, String> {
        Ok(r.u32()?)
    }
}

impl<In: ?Sized> Field<In> for u64 {
    fn put(&self, out: &mut impl BufMut) {
        out.put_u64(*self);
    }
    #[inline(always)]
    fn get(r: &mut Reader, _: &In) -> Result<Self, String> {
        Ok(r.u64()?)
    }
}

/// A `usize` travels as a `u64`.
impl<In: ?Sized> Field<In> for usize {
    fn put(&self, out: &mut impl BufMut) {
        out.put_u64(*self as u64);
    }
    #[inline(always)]
    fn get(r: &mut Reader, _: &In) -> Result<Self, String> {
        Ok(r.u64()? as usize)
    }
}

impl<In: ?Sized> Field<In> for f64 {
    fn put(&self, out: &mut impl BufMut) {
        out.put_f64(*self);
    }
    #[inline(always)]
    fn get(r: &mut Reader, _: &In) -> Result<Self, String> {
        Ok(r.f64()?)
    }
}

fn put_len_prefixed(out: &mut impl BufMut, b: &[u8]) {
    out.put_u32(b.len() as u32);
    out.put_slice(b);
}

impl<In: ?Sized> Field<In> for String {
    fn put(&self, out: &mut impl BufMut) {
        put_len_prefixed(out, self.as_bytes());
    }
    #[inline(always)]
    fn get(r: &mut Reader, _: &In) -> Result<Self, String> {
        Ok(r.str()?.into())
    }
}

impl<In: ?Sized> Field<In> for Arc<str> {
    fn put(&self, out: &mut impl BufMut) {
        put_len_prefixed(out, self.as_bytes());
    }
    #[inline(always)]
    fn get(r: &mut Reader, _: &In) -> Result<Self, String> {
        Ok(r.str()?.into())
    }
}

/// A byte string decodes as a slice of the received buffer, not a copy.
impl Field<Bytes> for Bytes {
    fn put(&self, out: &mut impl BufMut) {
        put_len_prefixed(out, self);
    }
    #[inline(always)]
    fn get(r: &mut Reader, input: &Bytes) -> Result<Self, String> {
        Ok(input.slice(r.bytes()?.1))
    }
}

impl<In: ?Sized, T: Field<In>> Field<In> for Option<T> {
    fn put(&self, out: &mut impl BufMut) {
        out.put_u8(u8::from(self.is_some()));
        if let Some(v) = self {
            v.put(out);
        }
    }
    #[inline(always)]
    fn get(r: &mut Reader, input: &In) -> Result<Self, String> {
        r.opt(|_| Ok(()))?.map(|()| T::get(r, input)).transpose()
    }
}
