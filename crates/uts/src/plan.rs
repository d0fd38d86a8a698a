//! Compiled marshal plans and the v2 untagged wire format.
//!
//! The tagged codec these plans replaced (wire v1, now the test oracle
//! `tests/support/oracle.rs`) interprets the `Type` tree for every value
//! of every call: each array element is boxed as a [`Value`], recursively
//! type-checked, converted through the sender's native format via an
//! intermediate byte buffer, and emitted with its own tag byte. This
//! module compiles a procedure signature **once** into a flat opcode
//! sequence — a [`MarshalPlan`] — that the stubs then execute per call:
//!
//! * scalar arrays (`array[N] of float/double/integer/byte`) become a
//!   single bulk opcode whose payload is packed contiguously, so endian
//!   conversion is one vectorizable pass and IEEE architectures bypass
//!   the native round-trip entirely (the paper's "perform only the
//!   conversions necessary");
//! * the plan carries an exact wire-size hint for string-free signatures,
//!   so encode buffers are allocated once at the right size;
//! * byte arrays decode as zero-copy [`Value::Bytes`] views into the
//!   incoming message buffer.
//!
//! # The v2 wire format
//!
//! A v2 payload starts with the marker byte [`V2_MAGIC`] (`0xF2`), a value
//! no v1 stream can begin with (v1 tags are `0x01..=0x08`), so
//! [`MarshalPlan::decode`] refuses a tagged payload with a typed
//! [`Error::Wire`] instead of misreading it. After the marker the values
//! follow **untagged**, in signature order:
//!
//! ```text
//! integer   4 bytes two's complement BE
//! float     4 bytes IEEE-754 BE
//! double    8 bytes IEEE-754 BE
//! byte      1 byte
//! boolean   1 byte (0 or 1)
//! string    u32 BE length, then UTF-8 bytes
//! arrays    elements back to back, no per-element framing
//! records   fields back to back (names live in the plan, not the wire)
//! ```
//!
//! Native-format semantics are preserved exactly: the encoder applies the
//! sender architecture's conversion per scalar (identity for IEEE,
//! [`crate::native::cray`]/[`crate::native::vax`] round-trips otherwise) and the decoder
//! applies the receiver's, so every range and precision hazard of the v1
//! pipeline occurs at the same place with the same error.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::arch::{Architecture, FloatRepr, IntRepr};
use crate::error::{Error, Result};
use crate::native::{cray, vax};
use crate::types::{Type, WIRE_INTEGER_MAX, WIRE_INTEGER_MIN};
use crate::value::{Elem, Packed, Value};

/// The UTS version of the plan-driven untagged format introduced by this
/// module — the one codec the runtime speaks. Schooner's bind messages
/// carry it as a fixed byte.
pub const WIRE_V2: u8 = 2;
/// First byte of every v2 payload; disjoint from the v1 tag space.
pub const V2_MAGIC: u8 = 0xF2;

/// One instruction of a compiled plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// One 32-bit wire integer (range-checked against the sender's
    /// native width).
    Integer,
    /// One IEEE-754 single.
    Float,
    /// One IEEE-754 double.
    Double,
    /// One octet.
    Byte,
    /// One truth value.
    Boolean,
    /// One length-prefixed UTF-8 string.
    String,
    /// Bulk `array[n] of integer`: `4*n` packed payload bytes.
    IntegerArray(usize),
    /// Bulk `array[n] of float`: `4*n` packed payload bytes.
    FloatArray(usize),
    /// Bulk `array[n] of double`: `8*n` packed payload bytes.
    DoubleArray(usize),
    /// Bulk `array[n] of byte`: `n` payload bytes, decoded zero-copy.
    ByteArray(usize),
    /// Bulk `array[n] of boolean`: `n` payload bytes, each 0 or 1.
    BooleanArray(usize),
    /// Structured array: the next `body` ops encode one element, run
    /// `count` times.
    Repeat {
        /// Declared element count.
        count: usize,
        /// Number of ops in the element subtree.
        body: usize,
    },
    /// Record of `nfields` fields; the field subtrees follow in order and
    /// their names sit at `first_name..` in the plan's name table.
    Record {
        /// Index of the first field name in [`MarshalPlan`]'s name table.
        first_name: usize,
        /// Number of fields.
        nfields: usize,
    },
}

/// A compiled encoder/decoder for one ordered list of types (a procedure's
/// input or output parameters, or its `state(...)` clause), built once per
/// stub and executed per call.
#[derive(Debug, Clone, PartialEq)]
pub struct MarshalPlan {
    ops: Vec<Op>,
    /// Record field names referenced by [`Op::Record`].
    names: Vec<String>,
    /// The compiled top-level types, kept for canonical mismatch errors.
    types: Vec<Type>,
    /// Op index one past each top-level value's subtree.
    param_ends: Vec<usize>,
    /// Encoded payload size in bytes including the marker; exact when
    /// `exact`, otherwise a lower bound (signatures containing strings).
    size_hint: usize,
    exact: bool,
    scalars: usize,
}

impl MarshalPlan {
    /// Compile a plan for an ordered list of types.
    pub fn compile<'a, I>(types: I) -> Self
    where
        I: IntoIterator<Item = &'a Type>,
    {
        let mut plan = MarshalPlan {
            ops: Vec::new(),
            names: Vec::new(),
            types: Vec::new(),
            param_ends: Vec::new(),
            size_hint: 1, // the V2_MAGIC marker
            exact: true,
            scalars: 0,
        };
        for ty in types {
            compile_type(ty, &mut plan);
            plan.param_ends.push(plan.ops.len());
            plan.scalars += ty.scalar_count();
            match ty.fixed_wire_size() {
                Some(n) => plan.size_hint += n,
                None => {
                    // Lower bound: count the length prefixes of the
                    // strings and the fixed remainder.
                    plan.size_hint += lower_bound_size(ty);
                    plan.exact = false;
                }
            }
            plan.types.push(ty.clone());
        }
        plan
    }

    /// Total scalar leaves across all parameters.
    pub fn scalar_count(&self) -> usize {
        self.scalars
    }

    /// Encoded v2 payload size in bytes (including the marker byte);
    /// exact unless the signature contains strings, in which case it is a
    /// lower bound.
    pub fn size_hint(&self) -> usize {
        self.size_hint
    }

    /// Whether [`MarshalPlan::size_hint`] is exact.
    pub fn size_is_exact(&self) -> bool {
        self.exact
    }

    /// The compiled opcode sequence (exposed for diagnostics and tests).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Encode `values` as a v2 payload, applying `arch`'s native-format
    /// conversion per scalar exactly as the v1 pipeline's sender-native
    /// pass + tagged encode would.
    pub fn encode(&self, values: &[Value], arch: Architecture) -> Result<Bytes> {
        let mut buf = BytesMut::with_capacity(self.size_hint);
        self.encode_into(&mut buf, values, arch)?;
        Ok(buf.freeze())
    }

    /// Encode into a caller-owned buffer (cleared first), so a long-lived
    /// handle can reuse one allocation across calls.
    pub fn encode_into(
        &self,
        buf: &mut BytesMut,
        values: &[Value],
        arch: Architecture,
    ) -> Result<()> {
        buf.clear();
        self.encode_after(buf, values, arch)
    }

    /// Encode after whatever `buf` already holds, so a payload can be
    /// written straight into the message that carries it. On error `buf`
    /// holds a partial payload.
    pub fn encode_after(
        &self,
        buf: &mut BytesMut,
        values: &[Value],
        arch: Architecture,
    ) -> Result<()> {
        if values.len() != self.param_ends.len() {
            return Err(Error::Wire(format!(
                "plan encodes {} values, got {}",
                self.param_ends.len(),
                values.len()
            )));
        }
        buf.reserve(self.size_hint);
        buf.put_u8(V2_MAGIC);
        let fp = float_pass(arch);
        let mut pos = 0usize;
        for (i, v) in values.iter().enumerate() {
            if let Err(e) = encode_node(self, &mut pos, v, arch, fp, buf) {
                // Regenerate the canonical mismatch message from the full
                // type when the fast walk tripped on a shape error.
                if matches!(e, Error::TypeMismatch { .. }) {
                    v.expect_type(&self.types[i])?;
                }
                return Err(e);
            }
            debug_assert_eq!(pos, self.param_ends[i]);
        }
        Ok(())
    }

    /// Decode a v2 payload produced by [`MarshalPlan::encode`] for the
    /// same signature, applying the **receiver** architecture's native
    /// conversion per scalar. The marker byte must still be present.
    pub fn decode(&self, buf: Bytes, arch: Architecture) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(self.param_ends.len());
        self.decode_into(buf, arch, &mut out)?;
        Ok(out)
    }

    /// [`MarshalPlan::decode`] into a caller-owned vector (cleared
    /// first), so a long-lived process reuses one allocation across
    /// calls. On error `out` is left empty.
    pub fn decode_into(&self, buf: Bytes, arch: Architecture, out: &mut Vec<Value>) -> Result<()> {
        out.clear();
        let result = self.decode_values(buf, arch, out);
        if result.is_err() {
            out.clear();
        }
        result
    }

    fn decode_values(&self, buf: Bytes, arch: Architecture, out: &mut Vec<Value>) -> Result<()> {
        let mut cur = buf;
        if cur.first() != Some(&V2_MAGIC) {
            return Err(Error::Wire("payload is not wire v2 (missing marker)".into()));
        }
        cur.advance(1);
        let fp = float_pass(arch);
        out.reserve(self.param_ends.len());
        let mut pos = 0usize;
        for _ in 0..self.param_ends.len() {
            out.push(decode_node(self, &mut pos, fp, &mut cur)?);
        }
        if cur.remaining() != 0 {
            return Err(Error::Wire(format!("{} trailing bytes after v2 decode", cur.remaining())));
        }
        Ok(())
    }
}

/// Collect `N`-byte wire chunks into one [`Packed`] array in a single
/// pass, passing each through `conv`: a short array fills the value's
/// inline buffer and a long one takes a single allocation (the chunk
/// iterator has an exact length). The first conversion error is kept and
/// returned once the pass ends; the elements after it are converted but
/// unused.
fn collect_array<T: Elem, const N: usize>(
    raw: &[u8],
    from_wire: impl Fn([u8; N]) -> T,
    conv: impl Fn(T) -> Result<T>,
) -> Result<Packed<T>> {
    let mut first_err = None;
    let xs: Packed<T> = raw
        .chunks_exact(N)
        .map(|c| {
            let mut word = [0u8; N];
            word.copy_from_slice(c);
            conv(from_wire(word)).unwrap_or_else(|e| {
                first_err.get_or_insert(e);
                T::default()
            })
        })
        .collect();
    first_err.map_or(Ok(xs), Err)
}

/// Lower bound on the v2 wire size of `ty` (strings counted as their
/// 4-byte length prefix only).
fn lower_bound_size(ty: &Type) -> usize {
    match ty {
        Type::String => 4,
        Type::Array { len, elem } => len * lower_bound_size(elem),
        Type::Record { fields } => fields.iter().map(|(_, t)| lower_bound_size(t)).sum(),
        _ => ty.fixed_wire_size().unwrap_or(0),
    }
}

fn compile_type(ty: &Type, plan: &mut MarshalPlan) {
    match ty {
        Type::Integer => plan.ops.push(Op::Integer),
        Type::Float => plan.ops.push(Op::Float),
        Type::Double => plan.ops.push(Op::Double),
        Type::Byte => plan.ops.push(Op::Byte),
        Type::Boolean => plan.ops.push(Op::Boolean),
        Type::String => plan.ops.push(Op::String),
        Type::Array { len, elem } => match **elem {
            Type::Integer => plan.ops.push(Op::IntegerArray(*len)),
            Type::Float => plan.ops.push(Op::FloatArray(*len)),
            Type::Double => plan.ops.push(Op::DoubleArray(*len)),
            Type::Byte => plan.ops.push(Op::ByteArray(*len)),
            Type::Boolean => plan.ops.push(Op::BooleanArray(*len)),
            _ => {
                let at = plan.ops.len();
                plan.ops.push(Op::Repeat { count: *len, body: 0 });
                compile_type(elem, plan);
                let body = plan.ops.len() - at - 1;
                plan.ops[at] = Op::Repeat { count: *len, body };
            }
        },
        Type::Record { fields } => {
            let first_name = plan.names.len();
            for (name, _) in fields {
                plan.names.push(name.clone());
            }
            plan.ops.push(Op::Record { first_name, nfields: fields.len() });
            for (_, fty) in fields {
                compile_type(fty, plan);
            }
        }
    }
}

/// How floats convert through a given architecture's native format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FloatPass {
    /// IEEE either endianness: bit-identity (byte order is handled by the
    /// canonical big-endian wire layer).
    Identity,
    /// Cray-1 single format: 48-bit mantissa rounding, wide exponent.
    Cray,
    /// VAX F/D floating: narrow exponent, overflow errors.
    Vax,
}

fn float_pass(arch: Architecture) -> FloatPass {
    match arch.float_repr() {
        FloatRepr::IeeeBig | FloatRepr::IeeeLittle => FloatPass::Identity,
        FloatRepr::Cray => FloatPass::Cray,
        FloatRepr::Vax => FloatPass::Vax,
    }
}

/// A single float through the architecture's native format, mirroring
/// `put_native_f32` + `get_native_f32` without the byte buffer.
fn conv_f32(x: f32, fp: FloatPass) -> Result<f32> {
    match fp {
        FloatPass::Identity => Ok(x),
        FloatPass::Cray => {
            let y = cray::decode(cray::encode(x as f64)?)?;
            if y.is_finite() && y.abs() > f32::MAX as f64 {
                return Err(Error::OutOfRange {
                    what: "float",
                    value: y.to_string(),
                    target: "IEEE 754 single".into(),
                });
            }
            Ok(y as f32)
        }
        FloatPass::Vax => vax::decode_f(vax::encode_f(x)?),
    }
}

/// A single double through the architecture's native format.
fn conv_f64(x: f64, fp: FloatPass) -> Result<f64> {
    match fp {
        FloatPass::Identity => Ok(x),
        FloatPass::Cray => cray::decode(cray::encode(x)?),
        FloatPass::Vax => vax::decode_d(vax::encode_d(x)?),
    }
}

/// Range-check one integer against the sender's native width and the
/// 32-bit wire format, with the same error text as the v1 pipeline.
fn check_int(i: i64, arch: Architecture) -> Result<()> {
    if (WIRE_INTEGER_MIN..=WIRE_INTEGER_MAX).contains(&i) {
        return Ok(());
    }
    let target = match arch.int_repr() {
        // The Cray's native word holds the value; the wire doesn't.
        IntRepr::I64Cray => "32-bit wire integer".into(),
        _ => format!("{arch} 32-bit integer"),
    };
    Err(Error::OutOfRange { what: "integer", value: i.to_string(), target })
}

/// A placeholder mismatch; the caller regenerates the canonical message
/// via `expect_type` on the full parameter type.
fn mismatch(op: &Op, v: &Value) -> Error {
    Error::TypeMismatch { expected: format!("{op:?}"), found: v.describe() }
}

fn encode_node(
    plan: &MarshalPlan,
    pos: &mut usize,
    v: &Value,
    arch: Architecture,
    fp: FloatPass,
    out: &mut BytesMut,
) -> Result<()> {
    let op = &plan.ops[*pos];
    *pos += 1;
    match (op, v) {
        (Op::Integer, Value::Integer(i)) => {
            check_int(*i, arch)?;
            out.put_i32(*i as i32);
        }
        (Op::Float, Value::Float(x)) => out.put_f32(conv_f32(*x, fp)?),
        (Op::Double, Value::Double(x)) => out.put_f64(conv_f64(*x, fp)?),
        (Op::Byte, Value::Byte(b)) => out.put_u8(*b),
        (Op::Boolean, Value::Boolean(b)) => out.put_u8(u8::from(*b)),
        (Op::String, Value::String(s)) => {
            out.put_u32(s.len() as u32);
            out.put_slice(s.as_bytes());
        }
        (Op::IntegerArray(n), Value::Integers(xs)) if xs.len() == *n => {
            for &i in xs.iter() {
                check_int(i, arch)?;
                out.put_i32(i as i32);
            }
        }
        (Op::FloatArray(n), Value::Floats(xs)) if xs.len() == *n => match fp {
            // Same-byte-order bypass: one pass, no conversion calls.
            FloatPass::Identity => {
                for &x in xs.iter() {
                    out.put_f32(x);
                }
            }
            _ => {
                for &x in xs.iter() {
                    out.put_f32(conv_f32(x, fp)?);
                }
            }
        },
        (Op::DoubleArray(n), Value::Doubles(xs)) if xs.len() == *n => match fp {
            FloatPass::Identity => {
                for &x in xs.iter() {
                    out.put_f64(x);
                }
            }
            _ => {
                for &x in xs.iter() {
                    out.put_f64(conv_f64(x, fp)?);
                }
            }
        },
        (Op::ByteArray(n), Value::Bytes(bs)) if bs.len() == *n => out.put_slice(bs),
        // Boxed arrays still ride the bulk opcode, one pass per element.
        (
            Op::IntegerArray(n)
            | Op::FloatArray(n)
            | Op::DoubleArray(n)
            | Op::ByteArray(n)
            | Op::BooleanArray(n),
            Value::Array(items),
        ) if items.len() == *n => {
            for item in items {
                match (op, item) {
                    (Op::IntegerArray(_), Value::Integer(i)) => {
                        check_int(*i, arch)?;
                        out.put_i32(*i as i32);
                    }
                    (Op::FloatArray(_), Value::Float(x)) => out.put_f32(conv_f32(*x, fp)?),
                    (Op::DoubleArray(_), Value::Double(x)) => out.put_f64(conv_f64(*x, fp)?),
                    (Op::ByteArray(_), Value::Byte(b)) => out.put_u8(*b),
                    (Op::BooleanArray(_), Value::Boolean(b)) => out.put_u8(u8::from(*b)),
                    _ => return Err(mismatch(op, item)),
                }
            }
        }
        (Op::Repeat { count, body }, Value::Array(items)) if items.len() == *count => {
            let start = *pos;
            for item in items {
                *pos = start;
                encode_node(plan, pos, item, arch, fp, out)?;
            }
            *pos = start + body;
        }
        (Op::Record { nfields, .. }, Value::Record(fields)) if fields.len() == *nfields => {
            for (_, fv) in fields {
                encode_node(plan, pos, fv, arch, fp, out)?;
            }
        }
        _ => return Err(mismatch(op, v)),
    }
    Ok(())
}

fn need(cur: &Bytes, n: usize, what: &str) -> Result<()> {
    if cur.remaining() < n {
        Err(Error::Wire(format!(
            "truncated v2 stream: need {n} bytes for {what}, have {}",
            cur.remaining()
        )))
    } else {
        Ok(())
    }
}

fn decode_node(
    plan: &MarshalPlan,
    pos: &mut usize,
    fp: FloatPass,
    cur: &mut Bytes,
) -> Result<Value> {
    let op = plan.ops[*pos].clone();
    *pos += 1;
    match op {
        Op::Integer => {
            need(cur, 4, "integer")?;
            // A 32-bit wire integer fits every native integer format.
            Ok(Value::Integer(i64::from(cur.get_i32())))
        }
        Op::Float => {
            need(cur, 4, "float")?;
            Ok(Value::Float(conv_f32(cur.get_f32(), fp)?))
        }
        Op::Double => {
            need(cur, 8, "double")?;
            Ok(Value::Double(conv_f64(cur.get_f64(), fp)?))
        }
        Op::Byte => {
            need(cur, 1, "byte")?;
            Ok(Value::Byte(cur.get_u8()))
        }
        Op::Boolean => {
            need(cur, 1, "boolean")?;
            match cur.get_u8() {
                0 => Ok(Value::Boolean(false)),
                1 => Ok(Value::Boolean(true)),
                other => Err(Error::Wire(format!("invalid boolean byte 0x{other:02x}"))),
            }
        }
        Op::String => {
            need(cur, 4, "string length")?;
            let len = cur.get_u32() as usize;
            need(cur, len, "string bytes")?;
            let raw = cur.split_to(len);
            let s = std::str::from_utf8(&raw)
                .map_err(|e| Error::Wire(format!("invalid UTF-8 in string: {e}")))?;
            Ok(Value::String(s.to_owned()))
        }
        // Bulk scalar arrays take one view of their bytes and walk it as
        // a slice: the payload is found once per array, not once per
        // element through the cursor.
        Op::IntegerArray(n) => {
            need(cur, 4 * n, "integer array")?;
            let raw = cur.split_to(4 * n);
            let from_wire = |c| i64::from(i32::from_be_bytes(c));
            Ok(Value::Integers(collect_array(&raw, from_wire, Ok)?))
        }
        Op::FloatArray(n) => {
            need(cur, 4 * n, "float array")?;
            let raw = cur.split_to(4 * n);
            let xs = match fp {
                FloatPass::Identity => collect_array(&raw, f32::from_be_bytes, Ok)?,
                _ => collect_array(&raw, f32::from_be_bytes, |x| conv_f32(x, fp))?,
            };
            Ok(Value::Floats(xs))
        }
        Op::DoubleArray(n) => {
            need(cur, 8 * n, "double array")?;
            let raw = cur.split_to(8 * n);
            let xs = match fp {
                FloatPass::Identity => collect_array(&raw, f64::from_be_bytes, Ok)?,
                _ => collect_array(&raw, f64::from_be_bytes, |x| conv_f64(x, fp))?,
            };
            Ok(Value::Doubles(xs))
        }
        Op::ByteArray(n) => {
            need(cur, n, "byte array")?;
            // Zero-copy: the value aliases the message buffer.
            Ok(Value::Bytes(cur.split_to(n)))
        }
        Op::BooleanArray(n) => {
            need(cur, n, "boolean array")?;
            let raw = cur.split_to(n);
            let mut items = Vec::with_capacity(n);
            for &b in raw.iter() {
                match b {
                    0 => items.push(Value::Boolean(false)),
                    1 => items.push(Value::Boolean(true)),
                    other => {
                        return Err(Error::Wire(format!("invalid boolean byte 0x{other:02x}")))
                    }
                }
            }
            Ok(Value::Array(items))
        }
        Op::Repeat { count, body } => {
            let start = *pos;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                *pos = start;
                items.push(decode_node(plan, pos, fp, cur)?);
            }
            *pos = start + body;
            Ok(Value::Array(items))
        }
        Op::Record { first_name, nfields } => {
            let mut fields = Vec::with_capacity(nfields);
            for i in 0..nfields {
                let v = decode_node(plan, pos, fp, cur)?;
                fields.push((plan.names[first_name + i].clone(), v));
            }
            Ok(Value::Record(fields))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(len: usize, elem: Type) -> Type {
        Type::Array { len, elem: Box::new(elem) }
    }

    #[test]
    fn compile_flattens_signature() {
        let types = vec![
            arr(4, Type::Float),
            Type::Integer,
            Type::Record {
                fields: vec![("xs".into(), arr(2, Type::Double)), ("s".into(), Type::String)],
            },
            arr(2, arr(3, Type::Byte)),
        ];
        let plan = MarshalPlan::compile(&types);
        assert_eq!(
            plan.ops(),
            &[
                Op::FloatArray(4),
                Op::Integer,
                Op::Record { first_name: 0, nfields: 2 },
                Op::DoubleArray(2),
                Op::String,
                Op::Repeat { count: 2, body: 1 },
                Op::ByteArray(3),
            ]
        );
        assert_eq!(plan.scalar_count(), 4 + 1 + 3 + 6);
        assert!(!plan.size_is_exact());
        // marker + 16 + 4 + (16 + 4-byte string prefix) + 6
        assert_eq!(plan.size_hint(), 1 + 16 + 4 + 16 + 4 + 6);
    }

    #[test]
    fn exact_size_hint_matches_encoding() {
        let types = vec![arr(16, Type::Double), Type::Integer, Type::Boolean];
        let plan = MarshalPlan::compile(&types);
        assert!(plan.size_is_exact());
        let values = vec![Value::doubles(&[0.5; 16]), Value::Integer(-3), Value::Boolean(true)];
        let bytes = plan.encode(&values, Architecture::SunSparc10).unwrap();
        assert_eq!(bytes.len(), plan.size_hint());
    }

    #[test]
    fn packed_and_boxed_encodings_are_identical() {
        let types = vec![arr(3, Type::Float)];
        let plan = MarshalPlan::compile(&types);
        let packed =
            plan.encode(&[Value::floats(&[1.0, -2.5, 3.25])], Architecture::Sgi4D).unwrap();
        let boxed = plan
            .encode(
                &[Value::Array(vec![Value::Float(1.0), Value::Float(-2.5), Value::Float(3.25)])],
                Architecture::Sgi4D,
            )
            .unwrap();
        assert_eq!(packed, boxed);
    }

    #[test]
    fn cray_integer_fails_with_wire_range_error() {
        let types = vec![Type::Integer];
        let plan = MarshalPlan::compile(&types);
        let err = plan.encode(&[Value::Integer(1 << 40)], Architecture::CrayYmp).unwrap_err();
        match err {
            Error::OutOfRange { target, .. } => assert_eq!(target, "32-bit wire integer"),
            other => panic!("unexpected {other:?}"),
        }
        let err = plan.encode(&[Value::Integer(1 << 40)], Architecture::SunSparc10).unwrap_err();
        match err {
            Error::OutOfRange { target, .. } => assert!(target.contains("32-bit integer")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn byte_arrays_decode_zero_copy() {
        let types = vec![arr(4, Type::Byte)];
        let plan = MarshalPlan::compile(&types);
        let bytes = plan
            .encode(&[Value::Bytes(Bytes::from(vec![9, 8, 7, 6]))], Architecture::Sgi4D)
            .unwrap();
        let out = plan.decode(bytes, Architecture::Sgi4D).unwrap();
        match &out[0] {
            Value::Bytes(bs) => assert_eq!(&bs[..], &[9, 8, 7, 6]),
            other => panic!("expected zero-copy bytes, got {other:?}"),
        }
    }

    #[test]
    fn truncation_detected_at_every_prefix() {
        let types = vec![arr(3, Type::Double), Type::String, Type::Integer];
        let plan = MarshalPlan::compile(&types);
        let values = vec![
            Value::doubles(&[1.0, 2.0, 3.0]),
            Value::String("hello".into()),
            Value::Integer(5),
        ];
        let bytes = plan.encode(&values, Architecture::SunSparc10).unwrap();
        for cut in 0..bytes.len() {
            let err = plan.decode(bytes.slice(0..cut), Architecture::SunSparc10);
            assert!(err.is_err(), "prefix of {cut} bytes must not decode");
        }
        // Trailing garbage is rejected too.
        let mut extended = bytes.to_vec();
        extended.push(0);
        assert!(plan.decode(Bytes::from(extended), Architecture::SunSparc10).is_err());
    }

    #[test]
    fn corrupt_boolean_and_utf8_rejected() {
        let types = vec![Type::Boolean, Type::String];
        let plan = MarshalPlan::compile(&types);
        let values = vec![Value::Boolean(true), Value::String("aé".into())];
        let bytes = plan.encode(&values, Architecture::SunSparc10).unwrap();
        // Byte 1 is the boolean payload: 2 is invalid.
        let mut corrupt = bytes.to_vec();
        corrupt[1] = 2;
        assert!(plan.decode(Bytes::from(corrupt), Architecture::SunSparc10).is_err());
        // Clobber the continuation byte of the two-byte UTF-8 sequence.
        let mut corrupt = bytes.to_vec();
        let n = corrupt.len();
        corrupt[n - 1] = 0xFF;
        assert!(plan.decode(Bytes::from(corrupt), Architecture::SunSparc10).is_err());
    }

    #[test]
    fn shape_mismatch_reports_canonical_error() {
        let types = vec![arr(2, Type::Double)];
        let plan = MarshalPlan::compile(&types);
        let err = plan.encode(&[Value::floats(&[1.0, 2.0])], Architecture::Sgi4D).unwrap_err();
        match err {
            Error::TypeMismatch { expected, found } => {
                assert_eq!(expected, "array[2] of double");
                assert_eq!(found, "array[2] of float");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Wrong arity is rejected before any encoding.
        assert!(plan.encode(&[], Architecture::Sgi4D).is_err());
    }

    #[test]
    fn nested_structured_arrays_round_trip() {
        let inner = Type::Record {
            fields: vec![("a".into(), Type::Integer), ("b".into(), arr(2, Type::Float))],
        };
        let types = vec![arr(3, inner)];
        let mk = |k: i64| {
            Value::Record(vec![
                ("a".into(), Value::Integer(k)),
                ("b".into(), Value::floats(&[k as f32, -k as f32])),
            ])
        };
        let values = vec![Value::Array(vec![mk(1), mk(2), mk(3)])];
        let plan = MarshalPlan::compile(&types);
        let bytes = plan.encode(&values, Architecture::IntelI860).unwrap();
        let out = plan.decode(bytes, Architecture::IntelI860).unwrap();
        assert_eq!(out, values);
    }

    /// A bulk array is decoded in one pass, but a conversion failure at
    /// element `k` is still the error the element-by-element decode
    /// returned — the first one, not a later one — and no value comes
    /// back, not even into a caller's vector.
    #[test]
    fn array_conversion_failure_is_the_first_elements_error_and_no_value() {
        let k = 5;
        let mut ds = [0.5f64; 8];
        (ds[k], ds[7]) = (1.0e300, -2.0e300);
        let mut fs = [0.5f32; 8];
        (fs[k], fs[7]) = (f32::MAX, f32::INFINITY);
        let cases = [
            (
                arr(8, Type::Double),
                Value::doubles(&ds),
                Error::OutOfRange {
                    what: "double",
                    value: 1.0e300f64.to_string(),
                    target: "VAX D_floating exponent".into(),
                },
            ),
            (
                arr(8, Type::Float),
                Value::floats(&fs),
                Error::OutOfRange {
                    what: "float",
                    value: f32::MAX.to_string(),
                    target: "VAX F_floating exponent".into(),
                },
            ),
        ];
        for (ty, value, want) in cases {
            let plan = MarshalPlan::compile([&ty]);
            let wire = plan.encode(&[value], Architecture::SunSparc10).unwrap();
            let err = plan.decode(wire.clone(), Architecture::ConvexC220).unwrap_err();
            assert_eq!(err, want, "{ty}");
            assert_eq!(err.to_string(), want.to_string());
            let mut out = vec![Value::Integer(1)];
            assert_eq!(plan.decode_into(wire, Architecture::ConvexC220, &mut out), Err(want));
            assert!(out.is_empty(), "{ty}: partial values {out:?}");
        }
    }

    /// Arrays decoded in one pass hold exactly what decoding each element
    /// alone gives: the same bits through an IEEE identity (NaN payloads,
    /// signed zeros and subnormals included) and through the Cray and VAX
    /// conversions.
    #[test]
    fn one_pass_arrays_match_element_wise_decode_bit_for_bit() {
        let ds = [0.1, -0.0, f64::MIN_POSITIVE / 4.0, f64::from_bits(0x7FF8_0000_0000_0001), 1e30];
        let fs = [0.1f32, -0.0, f32::MIN_POSITIVE / 4.0, f32::from_bits(0x7FC0_0001), 1e30];
        let (vax_ds, vax_fs) = ([0.1, -0.0, 1e-30, 3.5, 1e30], [0.1f32, -0.0, 1e-30, 3.5, 1e30]);
        for (to, ds, fs) in [
            (Architecture::Sgi4D, ds, fs),
            (Architecture::CrayYmp, vax_ds, vax_fs),
            (Architecture::ConvexC220, vax_ds, vax_fs),
        ] {
            let plan = MarshalPlan::compile([&arr(5, Type::Double), &arr(5, Type::Float)]);
            let wire =
                plan.encode(&[Value::doubles(&ds), Value::floats(&fs)], Architecture::SunSparc10);
            let got = plan.decode(wire.unwrap(), to).unwrap();
            let (Value::Doubles(got_ds), Value::Floats(got_fs)) = (&got[0], &got[1]) else {
                panic!("{got:?}")
            };
            let one = |ty: Type, v: Value| {
                let plan = MarshalPlan::compile([&ty]);
                plan.decode(plan.encode(&[v], Architecture::SunSparc10).unwrap(), to).unwrap()
            };
            for (i, (&d, &f)) in ds.iter().zip(&fs).enumerate() {
                let [Value::Double(d1)] = one(Type::Double, Value::Double(d))[..] else { panic!() };
                let [Value::Float(f1)] = one(Type::Float, Value::Float(f))[..] else { panic!() };
                assert_eq!(got_ds[i].to_bits(), d1.to_bits(), "double {i} on {to}");
                assert_eq!(got_fs[i].to_bits(), f1.to_bits(), "float {i} on {to}");
            }
            if to == Architecture::Sgi4D {
                assert!(got_ds.iter().zip(&ds).all(|(a, b)| a.to_bits() == b.to_bits()));
                assert!(got_fs.iter().zip(&fs).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    /// The four engine-module signatures of the paper's Table 2, plus a
    /// nested record-with-arrays signature with every scalar kind.
    const SWEEP_SPECS: &str = r#"
export shaft prog("ecom" val array[4] of float, "incom" val integer,
    "etur" val array[4] of float, "intur" val integer, "ecorr" val float,
    "xspool" val float, "xmyi" val float, "dxspl" res float)
export duct prog("flow" val array[4] of float, "dpfrac" val float, "q" val float,
    "out" res array[4] of float)
export comb prog("flow" val array[4] of float, "wf" val float, "eta" val float,
    "dp" val float, "out" res array[4] of float)
export nozl prog("flow" val array[4] of float, "pamb" val float, "area" val float,
    "cd" val float, "cv" val float, "out" res array[4] of float)
export stage prog(
    "geom" val record ("stations" array[2] of record ("r" double,
        "areas" array[2] of double, "id" integer) end, "name" string,
        "flags" array[2] of boolean, "raw" array[3] of byte) end,
    "grid" var array[2] of array[2] of integer,
    "out" res array[2] of record ("x" double, "ys" array[3] of float) end)
"#;

    /// A value of `ty` whose scalars differ from each other, so flipped
    /// bits land on real payload.
    fn sample(ty: &Type, k: &mut u32) -> Value {
        *k += 1;
        let x = *k as f32 * 1.375;
        match ty {
            Type::Integer => Value::Integer(i64::from(*k) * 37 - 100),
            Type::Float => Value::Float(x),
            Type::Double => Value::Double(f64::from(x) / 3.0),
            Type::Byte => Value::Byte(*k as u8),
            Type::Boolean => Value::Boolean(k.is_multiple_of(2)),
            Type::String => Value::String(format!("stage-{k}-é")),
            Type::Array { len, elem } => Value::Array((0..*len).map(|_| sample(elem, k)).collect()),
            Type::Record { fields } => {
                Value::Record(fields.iter().map(|(n, t)| (n.clone(), sample(t, k))).collect())
            }
        }
    }

    /// Every truncation and every single-bit flip of every signature's
    /// encoding, decoded on an IEEE machine, the Cray and the VAX-format
    /// Convex, is a typed error or values that conform to the signature.
    #[test]
    fn every_truncation_and_bit_flip_decodes_conforming_or_fails_typed() {
        let file = crate::spec::parse_spec_file(SWEEP_SPECS).unwrap();
        assert_eq!(file.decls.len(), 5);
        for decl in &file.decls {
            let inputs: Vec<Type> = decl.input_params().map(|p| p.ty.clone()).collect();
            let outputs: Vec<Type> = decl.output_params().map(|p| p.ty.clone()).collect();
            for types in [inputs, outputs] {
                let plan = MarshalPlan::compile(&types);
                for arch in
                    [Architecture::SunSparc10, Architecture::CrayYmp, Architecture::ConvexC220]
                {
                    let mut k = 0;
                    let values: Vec<Value> = types.iter().map(|t| sample(t, &mut k)).collect();
                    let enc = plan.encode(&values, arch).unwrap();
                    assert_eq!(plan.decode(enc.clone(), arch).unwrap().len(), types.len());
                    let mut damaged: Vec<Vec<u8>> =
                        (0..enc.len()).map(|n| enc[..n].to_vec()).collect();
                    for i in 0..enc.len() {
                        for bit in 0..8 {
                            let mut raw = enc.to_vec();
                            raw[i] ^= 1 << bit;
                            damaged.push(raw);
                        }
                    }
                    for raw in damaged {
                        if let Ok(out) = plan.decode(Bytes::from(raw.clone()), arch) {
                            assert_eq!(out.len(), types.len(), "{} on {arch}: {raw:?}", decl.name);
                            for (v, t) in out.iter().zip(&types) {
                                assert!(
                                    v.conforms_to(t),
                                    "{} on {arch}: {v:?} from {raw:?}",
                                    decl.name
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
