//! The reference UTS pipeline, kept as a test oracle: the tagged codec
//! (wire v1) and the Value-level native round trip (`through_native`)
//! that the runtime's compiled plans (`uts::plan`, wire v2) replaced.
//!
//! No library crate compiles this file. The `uts` integration tests and
//! the A4 bench (`benches/ablation_uts_convert.rs`) include it with
//! `#[path]`, as the reference v2 is compared against: marshal =
//! sender-native pass + tagged encode; unmarshal = tagged decode +
//! receiver-native pass. It reads only bytes it wrote itself.
//!
//! The tagged codec is self-describing, canonical and big-endian.
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

use uts::arch::{FloatRepr, IntRepr};
use uts::native::{cray, vax};
use uts::types::{WIRE_INTEGER_MAX, WIRE_INTEGER_MIN};
use uts::{Architecture, Error, Result, Type, Value};

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

/// Append the native encoding of `value` (which must conform to `ty`) for
/// the given architecture to `out`.
pub fn encode_native(
    value: &Value,
    ty: &Type,
    arch: Architecture,
    out: &mut Vec<u8>,
) -> Result<()> {
    value.expect_type(ty)?;
    encode_native_unchecked(value, arch, out)
}

fn put_native_int(i: i64, arch: Architecture, out: &mut Vec<u8>) -> Result<()> {
    match arch.int_repr() {
        IntRepr::I32Big | IntRepr::I32Little => {
            if !(WIRE_INTEGER_MIN..=WIRE_INTEGER_MAX).contains(&i) {
                return Err(Error::OutOfRange {
                    what: "integer",
                    value: i.to_string(),
                    target: format!("{arch} 32-bit integer"),
                });
            }
            let v = i as i32;
            match arch.int_repr() {
                IntRepr::I32Big => out.extend_from_slice(&v.to_be_bytes()),
                _ => out.extend_from_slice(&v.to_le_bytes()),
            }
        }
        IntRepr::I64Cray => out.extend_from_slice(&i.to_be_bytes()),
    }
    Ok(())
}

fn get_native_int(buf: &mut &[u8], arch: Architecture) -> Result<i64> {
    let width = arch.int_repr().width();
    if buf.len() < width {
        return Err(Error::Wire(format!("truncated native integer on {arch}")));
    }
    let (head, rest) = buf.split_at(width);
    *buf = rest;
    let v = match arch.int_repr() {
        IntRepr::I32Big => i64::from(i32::from_be_bytes(head.try_into().unwrap())),
        IntRepr::I32Little => i64::from(i32::from_le_bytes(head.try_into().unwrap())),
        IntRepr::I64Cray => i64::from_be_bytes(head.try_into().unwrap()),
    };
    Ok(v)
}

fn put_native_f32(x: f32, arch: Architecture, out: &mut Vec<u8>) -> Result<()> {
    match arch.float_repr() {
        FloatRepr::IeeeBig => out.extend_from_slice(&x.to_be_bytes()),
        FloatRepr::IeeeLittle => out.extend_from_slice(&x.to_le_bytes()),
        FloatRepr::Cray => out.extend_from_slice(&cray::encode(x as f64)?.to_be_bytes()),
        FloatRepr::Vax => out.extend_from_slice(&vax::encode_f(x)?),
    }
    Ok(())
}

fn get_native_f32(buf: &mut &[u8], arch: Architecture) -> Result<f32> {
    let width = match arch.float_repr() {
        FloatRepr::Cray => 8,
        _ => 4,
    };
    if buf.len() < width {
        return Err(Error::Wire(format!("truncated native float on {arch}")));
    }
    let (head, rest) = buf.split_at(width);
    *buf = rest;
    match arch.float_repr() {
        FloatRepr::IeeeBig => Ok(f32::from_be_bytes(head.try_into().unwrap())),
        FloatRepr::IeeeLittle => Ok(f32::from_le_bytes(head.try_into().unwrap())),
        FloatRepr::Cray => {
            let x = cray::decode(u64::from_be_bytes(head.try_into().unwrap()))?;
            if x.is_finite() && x.abs() > f32::MAX as f64 {
                return Err(Error::OutOfRange {
                    what: "float",
                    value: x.to_string(),
                    target: "IEEE 754 single".into(),
                });
            }
            Ok(x as f32)
        }
        FloatRepr::Vax => vax::decode_f(head.try_into().unwrap()),
    }
}

fn put_native_f64(x: f64, arch: Architecture, out: &mut Vec<u8>) -> Result<()> {
    match arch.float_repr() {
        FloatRepr::IeeeBig => out.extend_from_slice(&x.to_be_bytes()),
        FloatRepr::IeeeLittle => out.extend_from_slice(&x.to_le_bytes()),
        FloatRepr::Cray => out.extend_from_slice(&cray::encode(x)?.to_be_bytes()),
        FloatRepr::Vax => out.extend_from_slice(&vax::encode_d(x)?),
    }
    Ok(())
}

fn get_native_f64(buf: &mut &[u8], arch: Architecture) -> Result<f64> {
    if buf.len() < 8 {
        return Err(Error::Wire(format!("truncated native double on {arch}")));
    }
    let (head, rest) = buf.split_at(8);
    *buf = rest;
    match arch.float_repr() {
        FloatRepr::IeeeBig => Ok(f64::from_be_bytes(head.try_into().unwrap())),
        FloatRepr::IeeeLittle => Ok(f64::from_le_bytes(head.try_into().unwrap())),
        FloatRepr::Cray => cray::decode(u64::from_be_bytes(head.try_into().unwrap())),
        FloatRepr::Vax => vax::decode_d(head.try_into().unwrap()),
    }
}

fn encode_native_unchecked(value: &Value, arch: Architecture, out: &mut Vec<u8>) -> Result<()> {
    match value {
        Value::Integer(i) => put_native_int(*i, arch, out),
        Value::Float(x) => put_native_f32(*x, arch, out),
        Value::Double(x) => put_native_f64(*x, arch, out),
        Value::Byte(b) => {
            out.push(*b);
            Ok(())
        }
        Value::Boolean(b) => {
            out.push(u8::from(*b));
            Ok(())
        }
        Value::String(s) => {
            put_native_int(s.len() as i64, arch, out)?;
            out.extend_from_slice(s.as_bytes());
            Ok(())
        }
        Value::Array(items) => {
            for item in items {
                encode_native_unchecked(item, arch, out)?;
            }
            Ok(())
        }
        Value::Record(fields) => {
            for (_, v) in fields {
                encode_native_unchecked(v, arch, out)?;
            }
            Ok(())
        }
        Value::Integers(xs) => {
            for &i in xs.iter() {
                put_native_int(i, arch, out)?;
            }
            Ok(())
        }
        Value::Floats(xs) => {
            for &x in xs.iter() {
                put_native_f32(x, arch, out)?;
            }
            Ok(())
        }
        Value::Doubles(xs) => {
            for &x in xs.iter() {
                put_native_f64(x, arch, out)?;
            }
            Ok(())
        }
        Value::Bytes(bs) => {
            out.extend_from_slice(bs);
            Ok(())
        }
    }
}

/// Decode a native byte buffer (produced by `encode_native` on the same
/// architecture) back into a value of type `ty`.
pub fn decode_native(buf: &[u8], ty: &Type, arch: Architecture) -> Result<Value> {
    let mut cursor = buf;
    let v = decode_native_inner(&mut cursor, ty, arch)?;
    if !cursor.is_empty() {
        return Err(Error::Wire(format!("{} trailing native bytes on {arch}", cursor.len())));
    }
    Ok(v)
}

fn decode_native_inner(buf: &mut &[u8], ty: &Type, arch: Architecture) -> Result<Value> {
    match ty {
        Type::Integer => Ok(Value::Integer(get_native_int(buf, arch)?)),
        Type::Float => Ok(Value::Float(get_native_f32(buf, arch)?)),
        Type::Double => Ok(Value::Double(get_native_f64(buf, arch)?)),
        Type::Byte => {
            if buf.is_empty() {
                return Err(Error::Wire("truncated native byte".into()));
            }
            let b = buf[0];
            *buf = &buf[1..];
            Ok(Value::Byte(b))
        }
        Type::Boolean => {
            if buf.is_empty() {
                return Err(Error::Wire("truncated native boolean".into()));
            }
            let b = buf[0];
            *buf = &buf[1..];
            Ok(Value::Boolean(b != 0))
        }
        Type::String => {
            let len = get_native_int(buf, arch)?;
            if len < 0 {
                return Err(Error::Wire("negative native string length".into()));
            }
            let len = len as usize;
            if buf.len() < len {
                return Err(Error::Wire("truncated native string".into()));
            }
            let (head, rest) = buf.split_at(len);
            *buf = rest;
            let s = std::str::from_utf8(head)
                .map_err(|e| Error::Wire(format!("invalid UTF-8 in native string: {e}")))?;
            Ok(Value::String(s.to_owned()))
        }
        Type::Array { len, elem } => {
            let mut items = Vec::with_capacity(*len);
            for _ in 0..*len {
                items.push(decode_native_inner(buf, elem, arch)?);
            }
            Ok(Value::Array(items))
        }
        Type::Record { fields } => {
            let mut out = Vec::with_capacity(fields.len());
            for (name, fty) in fields {
                out.push((name.clone(), decode_native_inner(buf, fty, arch)?));
            }
            Ok(Value::Record(out))
        }
    }
}

/// Run a value through the sender-side half of the marshaling pipeline:
/// encode into `arch`'s native bytes, decode back (applying that
/// architecture's precision/range semantics), and return the value as the
/// wire layer will see it.
pub fn through_native(value: &Value, ty: &Type, arch: Architecture) -> Result<Value> {
    let mut buf = Vec::new();
    encode_native(value, ty, arch, &mut buf)?;
    decode_native(&buf, ty, arch)
}
