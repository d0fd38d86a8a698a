//! The reference tagged codec (wire v1) — the oracle for
//! `tests/wire_v2_differential.rs` and `BENCH_marshal.json`, not used by
//! the runtime, which marshals through [`crate::plan`] only.
//!
//! This is the intermediate representation as first built: a
//! self-describing, canonical big-endian format. Being self-describing (each
//! value carries a type tag) lets the receiving side detect corrupt or
//! mis-typed streams instead of silently misinterpreting bytes — the
//! Manager's runtime type checking catches signature-level errors, and the
//! tags catch transport-level ones.
//!
//! Layout, per value:
//!
//! ```text
//! tag:u8  payload
//! 0x01    integer  — 4 bytes two's complement BE
//! 0x02    float    — 4 bytes IEEE-754 BE
//! 0x03    double   — 8 bytes IEEE-754 BE
//! 0x04    byte     — 1 byte
//! 0x05    boolean  — 1 byte (0 or 1)
//! 0x06    string   — u32 BE length, then UTF-8 bytes
//! 0x07    array    — u32 BE count, then elements (each tagged)
//! 0x08    record   — u32 BE field count, then per field:
//!                    u16 BE name length, name bytes, tagged value
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{Error, Result};
use crate::types::{Type, WIRE_INTEGER_MAX, WIRE_INTEGER_MIN};
use crate::value::Value;

const TAG_INTEGER: u8 = 0x01;
const TAG_FLOAT: u8 = 0x02;
const TAG_DOUBLE: u8 = 0x03;
const TAG_BYTE: u8 = 0x04;
const TAG_BOOLEAN: u8 = 0x05;
const TAG_STRING: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_RECORD: u8 = 0x08;

/// Serializes a sequence of values into the intermediate representation.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self { buf: BytesMut::with_capacity(128) }
    }

    /// Create an empty writer with exact reserved capacity, typically from
    /// a marshal plan's size hint, so large payloads encode without any
    /// intermediate reallocation.
    pub fn with_capacity(n: usize) -> Self {
        Self { buf: BytesMut::with_capacity(n) }
    }

    /// Append one value, checking it against its declared type.
    pub fn put(&mut self, value: &Value, ty: &Type) -> Result<()> {
        value.expect_type(ty)?;
        self.put_unchecked(value)
    }

    /// Append one value without re-validating its type. Range checks on the
    /// 32-bit wire integer still apply.
    pub fn put_unchecked(&mut self, value: &Value) -> Result<()> {
        match value {
            Value::Integer(i) => {
                if *i < WIRE_INTEGER_MIN || *i > WIRE_INTEGER_MAX {
                    return Err(Error::OutOfRange {
                        what: "integer",
                        value: i.to_string(),
                        target: "32-bit wire integer".into(),
                    });
                }
                self.buf.put_u8(TAG_INTEGER);
                self.buf.put_i32(*i as i32);
            }
            Value::Float(x) => {
                self.buf.put_u8(TAG_FLOAT);
                self.buf.put_f32(*x);
            }
            Value::Double(x) => {
                self.buf.put_u8(TAG_DOUBLE);
                self.buf.put_f64(*x);
            }
            Value::Byte(b) => {
                self.buf.put_u8(TAG_BYTE);
                self.buf.put_u8(*b);
            }
            Value::Boolean(b) => {
                self.buf.put_u8(TAG_BOOLEAN);
                self.buf.put_u8(u8::from(*b));
            }
            Value::String(s) => {
                self.buf.put_u8(TAG_STRING);
                self.buf.put_u32(s.len() as u32);
                self.buf.put_slice(s.as_bytes());
            }
            Value::Array(items) => {
                self.buf.put_u8(TAG_ARRAY);
                self.buf.put_u32(items.len() as u32);
                for item in items {
                    self.put_unchecked(item)?;
                }
            }
            Value::Record(fields) => {
                self.buf.put_u8(TAG_RECORD);
                self.buf.put_u32(fields.len() as u32);
                for (name, v) in fields {
                    self.buf.put_u16(name.len() as u16);
                    self.buf.put_slice(name.as_bytes());
                    self.put_unchecked(v)?;
                }
            }
            // Packed arrays emit byte-identical v1 streams to their boxed
            // equivalents: the legacy format stays canonical regardless of
            // the in-memory representation.
            Value::Integers(xs) => {
                self.buf.put_u8(TAG_ARRAY);
                self.buf.put_u32(xs.len() as u32);
                for &i in xs.iter() {
                    if !(WIRE_INTEGER_MIN..=WIRE_INTEGER_MAX).contains(&i) {
                        return Err(Error::OutOfRange {
                            what: "integer",
                            value: i.to_string(),
                            target: "32-bit wire integer".into(),
                        });
                    }
                    self.buf.put_u8(TAG_INTEGER);
                    self.buf.put_i32(i as i32);
                }
            }
            Value::Floats(xs) => {
                self.buf.put_u8(TAG_ARRAY);
                self.buf.put_u32(xs.len() as u32);
                for &x in xs.iter() {
                    self.buf.put_u8(TAG_FLOAT);
                    self.buf.put_f32(x);
                }
            }
            Value::Doubles(xs) => {
                self.buf.put_u8(TAG_ARRAY);
                self.buf.put_u32(xs.len() as u32);
                for &x in xs.iter() {
                    self.buf.put_u8(TAG_DOUBLE);
                    self.buf.put_f64(x);
                }
            }
            Value::Bytes(bs) => {
                self.buf.put_u8(TAG_ARRAY);
                self.buf.put_u32(bs.len() as u32);
                for &b in bs.iter() {
                    self.buf.put_u8(TAG_BYTE);
                    self.buf.put_u8(b);
                }
            }
        }
        Ok(())
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish, yielding the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Deserializes values from the intermediate representation.
#[derive(Debug)]
pub struct WireReader {
    buf: Bytes,
}

impl WireReader {
    /// Wrap an encoded byte string.
    pub fn new(buf: Bytes) -> Self {
        Self { buf }
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    fn need(&self, n: usize, what: &str) -> Result<()> {
        if self.buf.remaining() < n {
            Err(Error::Wire(format!(
                "truncated stream: need {n} bytes for {what}, have {}",
                self.buf.remaining()
            )))
        } else {
            Ok(())
        }
    }

    /// Read the next value and check it against the expected type.
    pub fn get(&mut self, ty: &Type) -> Result<Value> {
        let v = self.get_any()?;
        v.expect_type(ty)?;
        Ok(v)
    }

    /// Read the next value based purely on its tags.
    pub fn get_any(&mut self) -> Result<Value> {
        self.need(1, "tag")?;
        let tag = self.buf.get_u8();
        match tag {
            TAG_INTEGER => {
                self.need(4, "integer")?;
                Ok(Value::Integer(self.buf.get_i32() as i64))
            }
            TAG_FLOAT => {
                self.need(4, "float")?;
                Ok(Value::Float(self.buf.get_f32()))
            }
            TAG_DOUBLE => {
                self.need(8, "double")?;
                Ok(Value::Double(self.buf.get_f64()))
            }
            TAG_BYTE => {
                self.need(1, "byte")?;
                Ok(Value::Byte(self.buf.get_u8()))
            }
            TAG_BOOLEAN => {
                self.need(1, "boolean")?;
                match self.buf.get_u8() {
                    0 => Ok(Value::Boolean(false)),
                    1 => Ok(Value::Boolean(true)),
                    other => Err(Error::Wire(format!("invalid boolean byte 0x{other:02x}"))),
                }
            }
            TAG_STRING => {
                self.need(4, "string length")?;
                let len = self.buf.get_u32() as usize;
                self.need(len, "string bytes")?;
                let raw = self.buf.split_to(len);
                let s = std::str::from_utf8(&raw)
                    .map_err(|e| Error::Wire(format!("invalid UTF-8 in string: {e}")))?;
                Ok(Value::String(s.to_owned()))
            }
            TAG_ARRAY => {
                self.need(4, "array count")?;
                let n = self.buf.get_u32() as usize;
                let mut items = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    items.push(self.get_any()?);
                }
                Ok(Value::Array(items))
            }
            TAG_RECORD => {
                self.need(4, "record count")?;
                let n = self.buf.get_u32() as usize;
                let mut fields = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    self.need(2, "field name length")?;
                    let name_len = self.buf.get_u16() as usize;
                    self.need(name_len, "field name")?;
                    let raw = self.buf.split_to(name_len);
                    let name = std::str::from_utf8(&raw)
                        .map_err(|e| Error::Wire(format!("invalid UTF-8 in field name: {e}")))?
                        .to_owned();
                    let v = self.get_any()?;
                    fields.push((name, v));
                }
                Ok(Value::Record(fields))
            }
            other => Err(Error::Wire(format!("unknown tag 0x{other:02x}"))),
        }
    }
}

/// Encode a parameter list (already type-checked) into one byte string.
pub fn encode_values(values: &[Value]) -> Result<Bytes> {
    let mut w = WireWriter::new();
    for v in values {
        w.put_unchecked(v)?;
    }
    Ok(w.finish())
}

/// Decode exactly `types.len()` values, checking each against its type.
pub fn decode_values(buf: Bytes, types: &[&Type]) -> Result<Vec<Value>> {
    let mut r = WireReader::new(buf);
    let mut out = Vec::with_capacity(types.len());
    for ty in types {
        out.push(r.get(ty)?);
    }
    if r.remaining() != 0 {
        return Err(Error::Wire(format!("{} trailing bytes after decode", r.remaining())));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let mut w = WireWriter::new();
        w.put_unchecked(v).unwrap();
        let mut r = WireReader::new(w.finish());
        let out = r.get_any().unwrap();
        assert_eq!(r.remaining(), 0);
        out
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Integer(-12345),
            Value::Float(3.25),
            Value::Double(-1.0e-300),
            Value::Byte(0xAB),
            Value::Boolean(true),
            Value::String("hello, wire".into()),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn structured_round_trip() {
        let v = Value::Record(vec![
            ("xs".into(), Value::floats(&[1.0, 2.0, 3.0, 4.0])),
            ("n".into(), Value::Integer(7)),
            (
                "nested".into(),
                Value::Array(vec![Value::Record(vec![("b".into(), Value::Byte(1))])]),
            ),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn integer_range_enforced() {
        let mut w = WireWriter::new();
        let err = w.put_unchecked(&Value::Integer(1 << 40)).unwrap_err();
        assert!(matches!(err, Error::OutOfRange { what: "integer", .. }));
        // Boundary values are fine.
        let mut w = WireWriter::new();
        w.put_unchecked(&Value::Integer(WIRE_INTEGER_MAX)).unwrap();
        w.put_unchecked(&Value::Integer(WIRE_INTEGER_MIN)).unwrap();
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_any().unwrap(), Value::Integer(WIRE_INTEGER_MAX));
        assert_eq!(r.get_any().unwrap(), Value::Integer(WIRE_INTEGER_MIN));
    }

    #[test]
    fn typed_get_rejects_wrong_tag() {
        let mut w = WireWriter::new();
        w.put_unchecked(&Value::Float(1.0)).unwrap();
        let mut r = WireReader::new(w.finish());
        assert!(r.get(&Type::Double).is_err());
    }

    #[test]
    fn truncated_stream_detected() {
        let mut w = WireWriter::new();
        w.put_unchecked(&Value::Double(1.0)).unwrap();
        let bytes = w.finish();
        let truncated = bytes.slice(0..bytes.len() - 1);
        let mut r = WireReader::new(truncated);
        assert!(matches!(r.get_any(), Err(Error::Wire(_))));
    }

    #[test]
    fn unknown_tag_detected() {
        let mut r = WireReader::new(Bytes::from_static(&[0x7F]));
        assert!(matches!(r.get_any(), Err(Error::Wire(_))));
    }

    #[test]
    fn invalid_boolean_detected() {
        let mut r = WireReader::new(Bytes::from_static(&[TAG_BOOLEAN, 2]));
        assert!(matches!(r.get_any(), Err(Error::Wire(_))));
    }

    #[test]
    fn decode_values_checks_types_and_trailing() {
        let vals = vec![Value::Integer(1), Value::Double(2.0)];
        let buf = encode_values(&vals).unwrap();
        let types = [&Type::Integer, &Type::Double];
        assert_eq!(decode_values(buf.clone(), &types).unwrap(), vals);

        // Wrong type order fails.
        let types_bad = [&Type::Double, &Type::Integer];
        assert!(decode_values(buf.clone(), &types_bad).is_err());

        // Extra trailing value fails.
        let types_short = [&Type::Integer];
        assert!(decode_values(buf, &types_short).is_err());
    }

    #[test]
    fn packed_arrays_encode_byte_identically_to_boxed() {
        let pairs = [
            (
                Value::floats(&[1.0, -2.5]),
                Value::Array(vec![Value::Float(1.0), Value::Float(-2.5)]),
            ),
            (Value::doubles(&[3.25]), Value::Array(vec![Value::Double(3.25)])),
            (Value::integers(&[7, -9]), Value::Array(vec![Value::Integer(7), Value::Integer(-9)])),
            (
                Value::Bytes(Bytes::from(vec![1, 255])),
                Value::Array(vec![Value::Byte(1), Value::Byte(255)]),
            ),
        ];
        for (packed, boxed) in pairs {
            let mut wp = WireWriter::new();
            wp.put_unchecked(&packed).unwrap();
            let mut wb = WireWriter::new();
            wb.put_unchecked(&boxed).unwrap();
            assert_eq!(wp.finish(), wb.finish(), "{packed}");
        }
        // Packed integers hit the same wire range check as boxed ones.
        let mut w = WireWriter::new();
        let err = w.put_unchecked(&Value::integers(&[1 << 40])).unwrap_err();
        assert!(matches!(err, Error::OutOfRange { what: "integer", .. }));
    }

    #[test]
    fn canonical_encoding_is_big_endian() {
        let mut w = WireWriter::new();
        w.put_unchecked(&Value::Integer(1)).unwrap();
        let bytes = w.finish();
        assert_eq!(&bytes[..], &[TAG_INTEGER, 0, 0, 0, 1]);
    }
}
