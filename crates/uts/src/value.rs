//! Runtime values carried through the UTS conversion pipeline.

use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use bytes::Bytes;

use crate::error::{Error, Result};
use crate::types::Type;

/// Bytes of elements a [`Packed`] array holds inside the [`Value`]
/// itself: 4 floats, 2 doubles or 2 integers.
pub(crate) const INLINE_BYTES: usize = 16;

mod sealed {
    pub trait Sealed {}
    impl Sealed for i64 {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// An element type of a packed array: `i64`, `f32` or `f64`.
pub trait Elem:
    Copy + Default + PartialEq + fmt::Debug + Send + Sync + 'static + sealed::Sealed
{
    /// The inline buffer: as many elements as fit in `INLINE_BYTES`.
    type Inline: Copy + Default + AsRef<[Self]> + AsMut<[Self]> + Send + Sync;
    /// Elements the inline buffer holds.
    const INLINE: usize = INLINE_BYTES / std::mem::size_of::<Self>();
}

impl Elem for i64 {
    type Inline = [i64; INLINE_BYTES / 8];
}

impl Elem for f32 {
    type Inline = [f32; INLINE_BYTES / 4];
}

impl Elem for f64 {
    type Inline = [f64; INLINE_BYTES / 8];
}

/// The elements of a packed scalar array ([`Value::Integers`],
/// [`Value::Floats`], [`Value::Doubles`]); derefs to `[T]`.
///
/// An array of at most `INLINE_BYTES` of elements is held inline, so
/// building, decoding, cloning and dropping it allocate nothing; a longer
/// one is a single shared allocation that clones by reference count. The
/// form is chosen when the array is built and is invisible to equality,
/// `Debug` and `Display`.
#[derive(Clone)]
pub struct Packed<T: Elem>(Repr<T>);

#[derive(Clone)]
enum Repr<T: Elem> {
    Inline { len: u8, buf: T::Inline },
    Shared(Arc<[T]>),
}

impl<T: Elem> Packed<T> {
    /// `len` default (zero) elements.
    fn zeroed(len: usize) -> Self {
        (0..len).map(|_| T::default()).collect()
    }
}

impl<T: Elem> Deref for Packed<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf.as_ref()[..usize::from(*len)],
            Repr::Shared(xs) => xs,
        }
    }
}

impl<T: Elem> From<&[T]> for Packed<T> {
    fn from(xs: &[T]) -> Self {
        xs.iter().copied().collect()
    }
}

/// One pass, and at most one allocation for an iterator whose length is
/// known up front: one whose upper bound fits `INLINE_BYTES` fills the
/// inline buffer, any other is collected into the shared form.
impl<T: Elem> FromIterator<T> for Packed<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        if iter.size_hint().1.is_some_and(|n| n <= T::INLINE) {
            let mut buf = T::Inline::default();
            let mut len = 0u8;
            for (slot, x) in buf.as_mut().iter_mut().zip(&mut iter) {
                *slot = x;
                len += 1;
            }
            Packed(Repr::Inline { len, buf })
        } else {
            Packed(Repr::Shared(iter.collect()))
        }
    }
}

impl<T: Elem> PartialEq for Packed<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Elem> fmt::Debug for Packed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A dynamically-typed value, the in-memory endpoint of every conversion.
///
/// `Value` is what user code hands to a client stub and what a server stub
/// hands to the procedure implementation. Between the two ends the value
/// exists only as native-format bytes and wire-format bytes.
///
/// Scalar arrays have two interchangeable representations: the boxed
/// [`Value::Array`] form (one `Value` per element) and the packed forms
/// ([`Value::Floats`], [`Value::Doubles`], [`Value::Integers`],
/// [`Value::Bytes`]) that hold the elements contiguously. The packed forms
/// are what the marshal-plan fast path encodes and decodes in a single
/// pass; equality treats a packed array and its boxed equivalent as the
/// same value.
///
/// A packed integer, float or double array of at most `INLINE_BYTES`
/// (16) bytes of elements — 2 integers, 4 floats or 2 doubles, such as the
/// `array[4] of float` flow every engine module passes — lives inside the
/// `Value`, which stays 32 bytes: making, decoding, cloning and dropping it
/// allocates nothing. A longer array is one shared allocation.
#[derive(Debug, Clone)]
pub enum Value {
    /// A wire `integer`. Stored as `i64` so that architectures with wider
    /// native integers (the Cray) can represent values that will later fail
    /// the wire range check — exactly the failure the paper discusses.
    Integer(i64),
    /// Single-precision float.
    Float(f32),
    /// Double-precision float.
    Double(f64),
    /// A single octet.
    Byte(u8),
    /// A truth value.
    Boolean(bool),
    /// A character string.
    String(String),
    /// A fixed-length array, boxed element-wise.
    Array(Vec<Value>),
    /// A record: named fields in declaration order.
    Record(Vec<(String, Value)>),
    /// Packed `array of integer`. Elements keep the full `i64` width so
    /// Cray-originated values hit the same wire range check as the boxed
    /// form.
    Integers(Packed<i64>),
    /// Packed `array of float`.
    Floats(Packed<f32>),
    /// Packed `array of double`.
    Doubles(Packed<f64>),
    /// Packed `array of byte`; a shared view, so decoding can alias the
    /// incoming message buffer instead of copying element-by-element.
    Bytes(Bytes),
}

impl Value {
    /// Check that this value conforms to `ty`, recursively.
    pub fn conforms_to(&self, ty: &Type) -> bool {
        match (self, ty) {
            (Value::Integer(_), Type::Integer) => true,
            (Value::Float(_), Type::Float) => true,
            (Value::Double(_), Type::Double) => true,
            (Value::Byte(_), Type::Byte) => true,
            (Value::Boolean(_), Type::Boolean) => true,
            (Value::String(_), Type::String) => true,
            (Value::Array(items), Type::Array { len, elem }) => {
                items.len() == *len && items.iter().all(|v| v.conforms_to(elem))
            }
            (Value::Integers(xs), Type::Array { len, elem }) => {
                xs.len() == *len && **elem == Type::Integer
            }
            (Value::Floats(xs), Type::Array { len, elem }) => {
                xs.len() == *len && **elem == Type::Float
            }
            (Value::Doubles(xs), Type::Array { len, elem }) => {
                xs.len() == *len && **elem == Type::Double
            }
            (Value::Bytes(bs), Type::Array { len, elem }) => {
                bs.len() == *len && **elem == Type::Byte
            }
            (Value::Record(vals), Type::Record { fields }) => {
                vals.len() == fields.len()
                    && vals
                        .iter()
                        .zip(fields)
                        .all(|((vn, v), (fn_, ft))| vn == fn_ && v.conforms_to(ft))
            }
            _ => false,
        }
    }

    /// Require conformance, producing a descriptive error otherwise.
    pub fn expect_type(&self, ty: &Type) -> Result<()> {
        if self.conforms_to(ty) {
            Ok(())
        } else {
            Err(Error::TypeMismatch { expected: ty.describe(), found: self.describe() })
        }
    }

    /// A short description of the value's shape for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            Value::Integer(_) => "integer".into(),
            Value::Float(_) => "float".into(),
            Value::Double(_) => "double".into(),
            Value::Byte(_) => "byte".into(),
            Value::Boolean(_) => "boolean".into(),
            Value::String(_) => "string".into(),
            Value::Array(items) => match items.first() {
                Some(v) => format!("array[{}] of {}", items.len(), v.describe()),
                None => "array[0]".into(),
            },
            Value::Integers(xs) => format!("array[{}] of integer", xs.len()),
            Value::Floats(xs) => format!("array[{}] of float", xs.len()),
            Value::Doubles(xs) => format!("array[{}] of double", xs.len()),
            Value::Bytes(bs) => format!("array[{}] of byte", bs.len()),
            Value::Record(fields) => format!("record with {} fields", fields.len()),
        }
    }

    /// A neutral "zero" value of the given type, used to pre-populate `res`
    /// parameters before a call completes. Scalar arrays come back packed.
    pub fn zero_of(ty: &Type) -> Value {
        match ty {
            Type::Integer => Value::Integer(0),
            Type::Float => Value::Float(0.0),
            Type::Double => Value::Double(0.0),
            Type::Byte => Value::Byte(0),
            Type::Boolean => Value::Boolean(false),
            Type::String => Value::String(String::new()),
            Type::Array { len, elem } => match **elem {
                Type::Integer => Value::Integers(Packed::zeroed(*len)),
                Type::Float => Value::Floats(Packed::zeroed(*len)),
                Type::Double => Value::Doubles(Packed::zeroed(*len)),
                Type::Byte => Value::Bytes(Bytes::from(vec![0u8; *len])),
                _ => Value::Array((0..*len).map(|_| Value::zero_of(elem)).collect()),
            },
            Type::Record { fields } => {
                Value::Record(fields.iter().map(|(n, t)| (n.clone(), Value::zero_of(t))).collect())
            }
        }
    }

    /// Convenience accessor: the value as `f64` if it is any numeric type.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Float(x) => Some(*x as f64),
            Value::Double(x) => Some(*x),
            Value::Byte(b) => Some(*b as f64),
            _ => None,
        }
    }

    /// Convenience accessor: the value as `i64` if it is an integer or byte.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            Value::Byte(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Borrowing accessor for a float array (`array[N] of float`), the
    /// workhorse type of the TESS interfaces. A packed [`Value::Floats`]
    /// is returned as a borrowed slice with no copy; the boxed form still
    /// has to gather its elements into an owned buffer.
    pub fn as_floats(&self) -> Option<Cow<'_, [f32]>> {
        match self {
            Value::Floats(xs) => Some(Cow::Borrowed(xs)),
            Value::Array(items) => items
                .iter()
                .map(|v| match v {
                    Value::Float(x) => Some(*x),
                    _ => None,
                })
                .collect::<Option<Vec<f32>>>()
                .map(Cow::Owned),
            _ => None,
        }
    }

    /// Borrowing accessor for a double array (`array[N] of double`).
    pub fn as_doubles(&self) -> Option<Cow<'_, [f64]>> {
        match self {
            Value::Doubles(xs) => Some(Cow::Borrowed(xs)),
            Value::Array(items) => items
                .iter()
                .map(|v| match v {
                    Value::Double(x) => Some(*x),
                    _ => None,
                })
                .collect::<Option<Vec<f64>>>()
                .map(Cow::Owned),
            _ => None,
        }
    }

    /// Borrowing accessor for a byte array (`array[N] of byte`).
    pub fn as_bytes(&self) -> Option<Cow<'_, [u8]>> {
        match self {
            Value::Bytes(bs) => Some(Cow::Borrowed(bs)),
            Value::Array(items) => items
                .iter()
                .map(|v| match v {
                    Value::Byte(b) => Some(*b),
                    _ => None,
                })
                .collect::<Option<Vec<u8>>>()
                .map(Cow::Owned),
            _ => None,
        }
    }

    /// Build a packed `array of double` from a slice.
    pub fn doubles(xs: &[f64]) -> Value {
        Value::Doubles(xs.into())
    }

    /// Build a packed `array of float` from a slice.
    pub fn floats(xs: &[f32]) -> Value {
        Value::Floats(xs.into())
    }

    /// Build a packed `array of integer` from a slice.
    pub fn integers(xs: &[i64]) -> Value {
        Value::Integers(xs.into())
    }

    /// Number of elements, if this value is any array representation.
    pub(crate) fn array_len(&self) -> Option<usize> {
        match self {
            Value::Array(items) => Some(items.len()),
            Value::Integers(xs) => Some(xs.len()),
            Value::Floats(xs) => Some(xs.len()),
            Value::Doubles(xs) => Some(xs.len()),
            Value::Bytes(bs) => Some(bs.len()),
            _ => None,
        }
    }

    /// Element `i` of any array representation: borrowed from a boxed
    /// array, or a scalar made (without allocating) from a packed one.
    /// What equality and `Display` read elements through, so neither
    /// allocates per element. Panics on out-of-range like slice indexing
    /// does.
    fn array_item(&self, i: usize) -> Cow<'_, Value> {
        match self {
            Value::Array(items) => Cow::Borrowed(&items[i]),
            Value::Integers(xs) => Cow::Owned(Value::Integer(xs[i])),
            Value::Floats(xs) => Cow::Owned(Value::Float(xs[i])),
            Value::Doubles(xs) => Cow::Owned(Value::Double(xs[i])),
            Value::Bytes(bs) => Cow::Owned(Value::Byte(bs[i])),
            _ => panic!("array_item on non-array value"),
        }
    }
}

/// Equality is *representation-blind* for arrays: a packed
/// [`Value::Doubles`] equals the boxed `Value::Array` holding the same
/// doubles. This keeps the v1 (boxed) and v2 (packed) decode paths
/// interchangeable for callers and tests.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Integer(a), Value::Integer(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a == b,
            (Value::Byte(a), Value::Byte(b)) => a == b,
            (Value::Boolean(a), Value::Boolean(b)) => a == b,
            (Value::String(a), Value::String(b)) => a == b,
            (Value::Record(a), Value::Record(b)) => a == b,
            (Value::Array(x), Value::Array(y)) => x == y,
            (Value::Integers(x), Value::Integers(y)) => x == y,
            (Value::Floats(x), Value::Floats(y)) => x == y,
            (Value::Doubles(x), Value::Doubles(y)) => x == y,
            (Value::Bytes(x), Value::Bytes(y)) => x == y,
            // Mixed representations, element by element.
            (a, b) => match (a.array_len(), b.array_len()) {
                (Some(n), Some(m)) => n == m && (0..n).all(|i| a.array_item(i) == b.array_item(i)),
                _ => false,
            },
        }
    }
}

/// `Display` renders values in a compact literal-ish syntax used by traces.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Integer(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}f"),
            Value::Double(x) => write!(f, "{x}"),
            Value::Byte(b) => write!(f, "0x{b:02x}"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::String(s) => write!(f, "{s:?}"),
            Value::Array(_)
            | Value::Integers(_)
            | Value::Floats(_)
            | Value::Doubles(_)
            | Value::Bytes(_) => {
                let n = self.array_len().expect("array representation");
                write!(f, "[")?;
                for i in 0..n {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", self.array_item(i))?;
                }
                write!(f, "]")
            }
            Value::Record(fields) => {
                write!(f, "{{")?;
                for (i, (n, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn farr(xs: &[f32]) -> Value {
        Value::floats(xs)
    }

    fn boxed_floats(xs: &[f32]) -> Value {
        Value::Array(xs.iter().map(|&x| Value::Float(x)).collect())
    }

    #[test]
    fn conformance_scalars() {
        assert!(Value::Integer(7).conforms_to(&Type::Integer));
        assert!(!Value::Integer(7).conforms_to(&Type::Float));
        assert!(Value::Float(1.5).conforms_to(&Type::Float));
        assert!(!Value::Float(1.5).conforms_to(&Type::Double));
        assert!(Value::String("hi".into()).conforms_to(&Type::String));
    }

    #[test]
    fn conformance_array_checks_length_and_elements() {
        let t = Type::Array { len: 3, elem: Box::new(Type::Float) };
        assert!(farr(&[1.0, 2.0, 3.0]).conforms_to(&t));
        assert!(boxed_floats(&[1.0, 2.0, 3.0]).conforms_to(&t));
        assert!(!farr(&[1.0, 2.0]).conforms_to(&t));
        let mixed = Value::Array(vec![Value::Float(1.0), Value::Double(2.0), Value::Float(3.0)]);
        assert!(!mixed.conforms_to(&t));
    }

    #[test]
    fn conformance_packed_checks_element_type() {
        let t = Type::Array { len: 2, elem: Box::new(Type::Double) };
        assert!(Value::doubles(&[1.0, 2.0]).conforms_to(&t));
        assert!(!Value::floats(&[1.0, 2.0]).conforms_to(&t));
        assert!(!Value::integers(&[1, 2]).conforms_to(&t));
        let tb = Type::Array { len: 3, elem: Box::new(Type::Byte) };
        assert!(Value::Bytes(Bytes::from(vec![1, 2, 3])).conforms_to(&tb));
    }

    #[test]
    fn conformance_record_checks_names_and_order() {
        let t =
            Type::Record { fields: vec![("a".into(), Type::Integer), ("b".into(), Type::Double)] };
        let good =
            Value::Record(vec![("a".into(), Value::Integer(1)), ("b".into(), Value::Double(2.0))]);
        assert!(good.conforms_to(&t));
        let reordered =
            Value::Record(vec![("b".into(), Value::Double(2.0)), ("a".into(), Value::Integer(1))]);
        assert!(!reordered.conforms_to(&t));
    }

    #[test]
    fn zero_of_conforms() {
        let t = Type::Record {
            fields: vec![
                ("xs".into(), Type::Array { len: 4, elem: Box::new(Type::Float) }),
                ("n".into(), Type::Integer),
                ("name".into(), Type::String),
            ],
        };
        assert!(Value::zero_of(&t).conforms_to(&t));
    }

    #[test]
    fn zero_of_scalar_arrays_is_packed() {
        let t = Type::Array { len: 3, elem: Box::new(Type::Double) };
        assert!(matches!(Value::zero_of(&t), Value::Doubles(_)));
        let t = Type::Array { len: 3, elem: Box::new(Type::Byte) };
        assert!(matches!(Value::zero_of(&t), Value::Bytes(_)));
        let t = Type::Array { len: 2, elem: Box::new(Type::String) };
        assert!(matches!(Value::zero_of(&t), Value::Array(_)));
    }

    #[test]
    fn expect_type_reports_mismatch() {
        let err = Value::Integer(1).expect_type(&Type::Double).unwrap_err();
        match err {
            Error::TypeMismatch { expected, found } => {
                assert_eq!(expected, "double");
                assert_eq!(found, "integer");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn numeric_accessors() {
        assert_eq!(Value::Integer(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::String("x".into()).as_f64(), None);
        assert_eq!(Value::Integer(3).as_i64(), Some(3));
        assert_eq!(Value::Double(3.0).as_i64(), None);
    }

    #[test]
    fn slice_accessors_borrow_packed_forms() {
        match farr(&[1.0, 2.0]).as_floats() {
            Some(Cow::Borrowed(xs)) => assert_eq!(xs, &[1.0, 2.0]),
            other => panic!("expected borrowed floats, got {other:?}"),
        }
        match boxed_floats(&[1.0, 2.0]).as_floats() {
            Some(Cow::Owned(xs)) => assert_eq!(xs, vec![1.0, 2.0]),
            other => panic!("expected owned floats, got {other:?}"),
        }
        assert_eq!(Value::doubles(&[1.0]).as_doubles().as_deref(), Some(&[1.0][..]));
        assert_eq!(Value::doubles(&[1.0]).as_floats(), None);
        assert_eq!(
            Value::Bytes(Bytes::from(vec![7, 8])).as_bytes().as_deref(),
            Some(&[7u8, 8][..])
        );
    }

    #[test]
    fn packed_and_boxed_arrays_compare_equal() {
        assert_eq!(farr(&[1.0, 2.5]), boxed_floats(&[1.0, 2.5]));
        assert_ne!(farr(&[1.0, 2.5]), boxed_floats(&[1.0, 2.0]));
        assert_ne!(farr(&[1.0]), boxed_floats(&[1.0, 2.0]));
        assert_eq!(
            Value::Bytes(Bytes::from(vec![1, 2])),
            Value::Array(vec![Value::Byte(1), Value::Byte(2)])
        );
        assert_ne!(Value::integers(&[1]), Value::floats(&[1.0]));
        assert_ne!(farr(&[1.0]), Value::Record(vec![]));
    }

    /// Arrays up to 16 bytes of elements are held inline and longer ones
    /// shared; the form never shows in equality or printing.
    #[test]
    fn packed_arrays_are_inline_up_to_16_bytes() {
        let inline = |v: &Value| match v {
            Value::Integers(Packed(r)) => matches!(r, Repr::Inline { .. }),
            Value::Floats(Packed(r)) => matches!(r, Repr::Inline { .. }),
            Value::Doubles(Packed(r)) => matches!(r, Repr::Inline { .. }),
            _ => unreachable!(),
        };
        for n in 0..=5 {
            let xs = [1.5f32; 5];
            assert_eq!(inline(&Value::floats(&xs[..n])), n <= 4, "{n} floats");
            assert_eq!(
                inline(&Value::zero_of(&Type::Array { len: n, elem: Box::new(Type::Float) })),
                n <= 4
            );
            assert_eq!(inline(&Value::doubles(&[1.5; 5][..n])), n <= 2, "{n} doubles");
            assert_eq!(inline(&Value::integers(&[3; 5][..n])), n <= 2, "{n} integers");
        }
        assert!(std::mem::size_of::<Value>() <= 32);

        // A shared array of inline length (one collected from an
        // iterator of unknown length) is the same value as the inline one.
        let shared = Value::Floats((0..10).map(|i| i as f32).filter(|&x| x < 2.0).collect());
        assert!(!inline(&shared));
        let inline_twin = Value::floats(&[0.0, 1.0]);
        assert!(inline(&inline_twin));
        assert_eq!(shared, inline_twin);
        assert_eq!(shared, boxed_floats(&[0.0, 1.0]));
        assert_eq!(format!("{shared:?}"), format!("{inline_twin:?}"));
        assert_eq!(shared.to_string(), inline_twin.to_string());
    }

    #[test]
    fn display_forms() {
        assert_eq!(farr(&[1.0, 2.5]).to_string(), "[1f, 2.5f]");
        assert_eq!(boxed_floats(&[1.0, 2.5]).to_string(), "[1f, 2.5f]");
        assert_eq!(Value::Byte(255).to_string(), "0xff");
        assert_eq!(Value::Bytes(Bytes::from(vec![255])).to_string(), "[0xff]");
        let rec = Value::Record(vec![("a".into(), Value::Integer(1))]);
        assert_eq!(rec.to_string(), "{a: 1}");
    }
}
