//! Differential fuzzing of the compiled-plan codec (wire v2) against the
//! reference pipeline (the tagged wire v1 codec and the native round
//! trip), which lives in `support/oracle.rs`.
//!
//! Every randomly generated signature and value list is pushed through
//! both pipelines across **every** architecture pair; the restored values
//! must be identical — including the precision loss the native formats
//! impose, which must happen at exactly the same points in both codecs.
//! Cases are drawn from a seeded SplitMix64 generator, so the sweep
//! replays identically on every run. The oracle's own checks close the
//! file.

#[allow(dead_code)]
#[path = "support/oracle.rs"]
mod oracle;

use bytes::Bytes;
use oracle::{
    decode_native, decode_values, encode_native, encode_values, through_native, WireReader,
    WireWriter,
};
use testkit::SplitMix64 as Gen;
use uts::plan::V2_MAGIC;
use uts::types::{WIRE_INTEGER_MAX, WIRE_INTEGER_MIN};
use uts::{Architecture, Error, MarshalPlan, Result, Type, Value};

/// A random type tree. Scalar arrays are over-represented so the plan's
/// bulk opcodes get the bulk of the coverage; nested arrays and records
/// exercise the structural `Repeat`/`Record` paths.
fn gen_type(g: &mut Gen, depth: usize) -> Type {
    let choices = if depth == 0 { 6 } else { 9 };
    match g.index(choices) {
        0 => Type::Integer,
        1 => Type::Float,
        2 => Type::Double,
        3 => Type::Byte,
        4 => Type::Boolean,
        5 => Type::String,
        6 | 7 => {
            // Scalar array, occasionally large (bulk fast path).
            let elem = match g.index(5) {
                0 => Type::Integer,
                1 => Type::Float,
                2 => Type::Double,
                3 => Type::Byte,
                _ => Type::Boolean,
            };
            let len = if g.flag() { 1 + g.index(8) } else { 16 + g.index(80) };
            Type::Array { len, elem: Box::new(elem) }
        }
        _ => {
            if g.flag() {
                Type::Array { len: 1 + g.index(4), elem: Box::new(gen_type(g, depth - 1)) }
            } else {
                Type::Record {
                    fields: (0..1 + g.index(3))
                        .map(|i| (format!("f{i}"), gen_type(g, depth - 1)))
                        .collect(),
                }
            }
        }
    }
}

/// A value conforming to `ty`, magnitudes within every architecture's
/// range. Scalar arrays flip a coin between the packed and the boxed
/// representation, so both encode entry points are fuzzed.
fn gen_value(g: &mut Gen, ty: &Type) -> Value {
    match ty {
        Type::Integer => Value::Integer(g.next_u64() as u32 as i32 as i64),
        Type::Float => Value::Float(g.range(-1.0e30, 1.0e30) as f32),
        Type::Double => Value::Double(g.range(-1.0e30, 1.0e30)),
        Type::Byte => Value::Byte(g.index(256) as u8),
        Type::Boolean => Value::Boolean(g.flag()),
        Type::String => {
            let len = g.index(21);
            Value::String((0..len).map(|_| (0x20 + g.index(95) as u8) as char).collect())
        }
        Type::Array { len, elem } => {
            let packed = g.flag();
            match (&**elem, packed) {
                (Type::Double, true) => {
                    Value::doubles(&(0..*len).map(|_| g.range(-1.0e30, 1.0e30)).collect::<Vec<_>>())
                }
                (Type::Float, true) => Value::floats(
                    &(0..*len).map(|_| g.range(-1.0e30, 1.0e30) as f32).collect::<Vec<_>>(),
                ),
                (Type::Integer, true) => Value::integers(
                    &(0..*len).map(|_| g.next_u64() as u32 as i32 as i64).collect::<Vec<_>>(),
                ),
                (Type::Byte, true) => Value::Bytes(bytes::Bytes::from(
                    (0..*len).map(|_| g.index(256) as u8).collect::<Vec<_>>(),
                )),
                _ => Value::Array((0..*len).map(|_| gen_value(g, elem)).collect()),
            }
        }
        Type::Record { fields } => {
            Value::Record(fields.iter().map(|(n, t)| (n.clone(), gen_value(g, t))).collect())
        }
    }
}

/// The v1 reference pipeline: marshal = sender-native pass + tagged wire
/// encode; unmarshal = tagged wire decode + receiver-native pass — what
/// the runtime's stubs did before they ran compiled plans only.
fn v1_round_trip(
    types: &[Type],
    values: &[Value],
    from: Architecture,
    to: Architecture,
) -> (Vec<u8>, Vec<Value>) {
    let mut w = WireWriter::new();
    for (v, ty) in values.iter().zip(types) {
        let native = through_native(v, ty, from).unwrap();
        w.put(&native, ty).unwrap();
    }
    let bytes = w.finish();
    let raw = bytes.to_vec();
    let mut r = WireReader::new(bytes);
    let mut out = Vec::with_capacity(types.len());
    for ty in types {
        let v = r.get(ty).unwrap();
        out.push(through_native(&v, ty, to).unwrap());
    }
    assert_eq!(r.remaining(), 0);
    (raw, out)
}

fn gen_case(g: &mut Gen) -> (Vec<Type>, Vec<Value>) {
    let types: Vec<Type> = (0..1 + g.index(4)).map(|_| gen_type(g, 2)).collect();
    let values: Vec<Value> = types.iter().map(|t| gen_value(g, t)).collect();
    (types, values)
}

/// The heart of the satellite: v2 must restore value-identical results to
/// v1 on every architecture pair, for every generated signature.
#[test]
fn v2_matches_v1_on_every_architecture_pair() {
    let mut g = Gen::new(0xD1FF);
    for case in 0..40 {
        let (types, values) = gen_case(&mut g);
        let plan = MarshalPlan::compile(&types);
        for from in Architecture::ALL {
            for to in Architecture::ALL {
                let (v1_bytes, expected) = v1_round_trip(&types, &values, from, to);
                assert_ne!(v1_bytes[0], V2_MAGIC, "case {case}");
                let enc = plan.encode(&values, from).unwrap();
                assert_eq!(enc[0], V2_MAGIC);
                let got = plan.decode(enc, to).unwrap();
                assert_eq!(got, expected, "case {case}: {from} -> {to}");
            }
        }
    }
}

/// Every truncation of a v2 payload is rejected, never misread.
#[test]
fn truncated_v2_payloads_are_rejected() {
    let mut g = Gen::new(0x7A11);
    for _ in 0..12 {
        let (types, values) = gen_case(&mut g);
        let plan = MarshalPlan::compile(&types);
        let enc = plan.encode(&values, Architecture::SunSparc10).unwrap();
        for cut in 0..enc.len() {
            let prefix = enc.slice(0..cut);
            assert!(
                plan.decode(prefix, Architecture::Sgi4D).is_err(),
                "prefix of {cut}/{} bytes must not decode",
                enc.len()
            );
        }
    }
}

/// Byte corruption never panics: the decoder either rejects the payload
/// or produces a value list that still conforms to the signature (bit
/// flips inside numeric payloads are not detectable by construction).
#[test]
fn corrupted_v2_payloads_fail_closed() {
    let mut g = Gen::new(0xBAD5EED);
    for _ in 0..60 {
        let (types, values) = gen_case(&mut g);
        let plan = MarshalPlan::compile(&types);
        let enc = plan.encode(&values, Architecture::SunSparc10).unwrap();
        let mut raw = enc.to_vec();
        if raw.len() <= 1 {
            continue;
        }
        for _ in 0..4 {
            let pos = 1 + g.index(raw.len() - 1); // keep the version marker
            raw[pos] ^= (1 + g.index(255)) as u8;
        }
        if let Ok(vals) = plan.decode(bytes::Bytes::from(raw), Architecture::Sgi4D) {
            assert_eq!(vals.len(), types.len());
            for (v, ty) in vals.iter().zip(&types) {
                assert!(v.conforms_to(ty), "decoded {v} does not conform to {ty}");
            }
        }
    }
}

/// Appending trailing garbage to a valid payload is rejected by both
/// codecs' framing.
#[test]
fn trailing_bytes_rejected() {
    let mut g = Gen::new(0x0DDB17);
    for _ in 0..12 {
        let (types, values) = gen_case(&mut g);
        let plan = MarshalPlan::compile(&types);
        let enc = plan.encode(&values, Architecture::IbmRs6000).unwrap();
        let mut longer = enc.to_vec();
        longer.push(0);
        assert!(plan.decode(bytes::Bytes::from(longer), Architecture::IbmRs6000).is_err());
    }
}

/// A v2 decode of the *wrong* plan (shape mismatch) errors rather than
/// producing misaligned values, whenever the byte lengths disagree.
#[test]
fn wrong_plan_with_different_size_is_rejected() {
    let types_a = vec![Type::Array { len: 8, elem: Box::new(Type::Double) }];
    let types_b = vec![Type::Array { len: 7, elem: Box::new(Type::Double) }];
    let plan_a = MarshalPlan::compile(&types_a);
    let plan_b = MarshalPlan::compile(&types_b);
    let values = vec![Value::doubles(&[1.0; 8])];
    let enc = plan_a.encode(&values, Architecture::SunSparc10).unwrap();
    assert!(plan_b.decode(enc, Architecture::SunSparc10).is_err());
}

/// Sanity: the version byte keeps its value, and plans advertise useful
/// size hints.
#[test]
fn version_constants_and_size_hints() {
    assert_eq!(uts::WIRE_V2, 2);
    let types = vec![Type::Double, Type::Array { len: 4, elem: Box::new(Type::Float) }];
    let plan = MarshalPlan::compile(&types);
    let enc = plan
        .encode(
            &[Value::Double(1.0), Value::floats(&[1.0, 2.0, 3.0, 4.0])],
            Architecture::SunSparc10,
        )
        .unwrap();
    assert!(plan.size_is_exact());
    assert_eq!(plan.size_hint(), enc.len());
}

fn arr(len: usize, elem: Type) -> Type {
    Type::Array { len, elem: Box::new(elem) }
}

fn v2_round_trip(
    values: &[Value],
    types: &[Type],
    from: Architecture,
    to: Architecture,
) -> Result<Vec<Value>> {
    let plan = MarshalPlan::compile(types);
    let bytes = plan.encode(values, from)?;
    assert_eq!(bytes[0], V2_MAGIC);
    plan.decode(bytes, to)
}

#[test]
fn round_trip_matches_v1_on_every_arch_pair() {
    let types = vec![
        arr(8, Type::Double),
        arr(5, Type::Float),
        Type::Integer,
        Type::Record {
            fields: vec![("name".into(), Type::String), ("flags".into(), arr(3, Type::Boolean))],
        },
        arr(4, Type::Byte),
    ];
    let values = vec![
        Value::doubles(&[0.0, 1.5, -2.25, 1.0e-8, 98.6, -1.0, 3.0, 0.125]),
        Value::floats(&[1.0, -2.5, 3.25, 0.0, 42.0]),
        Value::Integer(-7),
        Value::Record(vec![
            ("name".into(), Value::String("f100".into())),
            (
                "flags".into(),
                Value::Array(vec![
                    Value::Boolean(true),
                    Value::Boolean(false),
                    Value::Boolean(true),
                ]),
            ),
        ]),
        Value::Bytes(Bytes::from(vec![1, 2, 3, 255])),
    ];
    for from in Architecture::ALL {
        for to in Architecture::ALL {
            let (_, v1) = v1_round_trip(&types, &values, from, to);
            let v2 = v2_round_trip(&values, &types, from, to).unwrap();
            assert_eq!(v1, v2, "{from} -> {to}");
        }
    }
}

#[test]
fn vax_overflow_and_cray_rounding_match_v1() {
    let types = vec![Type::Double];
    // VAX overflow: error on encode, same as v1.
    assert!(v2_round_trip(
        &[Value::Double(1.0e300)],
        &types,
        Architecture::ConvexC220,
        Architecture::SunSparc10
    )
    .is_err());
    assert!(
        through_native(&Value::Double(1.0e300), &Type::Double, Architecture::ConvexC220).is_err()
    );
    // Cray rounding to 48 bits matches the v1 result bit-for-bit.
    let x = std::f64::consts::PI;
    let (from, to) = (Architecture::CrayYmp, Architecture::SunSparc10);
    let (_, v1) = v1_round_trip(&types, &[Value::Double(x)], from, to);
    let v2 = v2_round_trip(&[Value::Double(x)], &types, from, to).unwrap();
    assert_eq!(v1, v2);
}

#[test]
fn v1_payloads_are_never_mistaken_for_v2() {
    let vals = vec![Value::Integer(1), Value::doubles(&[2.0])];
    let bytes = encode_values(&vals).unwrap();
    assert_ne!(bytes[0], V2_MAGIC);
    let plan = MarshalPlan::compile(&[Type::Integer, arr(1, Type::Double)]);
    assert!(matches!(plan.decode(bytes, Architecture::Sgi4D), Err(Error::Wire(_))));
    // An empty payload (v1's encoding of zero values) has no marker either.
    assert!(matches!(plan.decode(Bytes::new(), Architecture::Sgi4D), Err(Error::Wire(_))));
}

// The oracle's own checks: the tagged codec round-trips what it writes,
// and the native pass applies each architecture's formats.

fn tagged_round_trip(v: &Value) -> Value {
    let mut w = WireWriter::new();
    w.put_unchecked(v).unwrap();
    let mut r = WireReader::new(w.finish());
    let out = r.get_any().unwrap();
    assert_eq!(r.remaining(), 0);
    out
}

#[test]
fn oracle_scalars_round_trip() {
    for v in [
        Value::Integer(-12345),
        Value::Float(3.25),
        Value::Double(-1.0e-300),
        Value::Byte(0xAB),
        Value::Boolean(true),
        Value::String("hello, wire".into()),
    ] {
        assert_eq!(tagged_round_trip(&v), v);
    }
}

#[test]
fn oracle_structured_round_trip() {
    let v = Value::Record(vec![
        ("xs".into(), Value::floats(&[1.0, 2.0, 3.0, 4.0])),
        ("n".into(), Value::Integer(7)),
        ("nested".into(), Value::Array(vec![Value::Record(vec![("b".into(), Value::Byte(1))])])),
    ]);
    assert_eq!(tagged_round_trip(&v), v);
}

#[test]
fn oracle_integer_range_enforced() {
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
fn oracle_decode_values_checks_types_and_trailing() {
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
fn oracle_packed_arrays_encode_byte_identically_to_boxed() {
    let pairs = [
        (Value::floats(&[1.0, -2.5]), Value::Array(vec![Value::Float(1.0), Value::Float(-2.5)])),
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
fn oracle_canonical_encoding_is_big_endian() {
    let mut w = WireWriter::new();
    w.put_unchecked(&Value::Integer(1)).unwrap();
    let bytes = w.finish();
    assert_eq!(&bytes[..], &[0x01, 0, 0, 0, 1]);
}

/// One integer through `arch`'s native format: its bytes and its value
/// read back.
fn native_int(i: i64, arch: Architecture) -> Result<(Vec<u8>, Value)> {
    let mut buf = Vec::new();
    encode_native(&Value::Integer(i), &Type::Integer, arch, &mut buf)?;
    let back = decode_native(&buf, &Type::Integer, arch)?;
    Ok((buf, back))
}

#[test]
fn oracle_native_int_round_trip_all_archs() {
    for arch in Architecture::ALL {
        for i in [0i64, 1, -1, i32::MAX as i64, i32::MIN as i64] {
            let (buf, back) = native_int(i, arch).unwrap();
            assert_eq!(back, Value::Integer(i), "{arch} {i}");
            assert_eq!(buf.len(), arch.int_repr().width());
        }
    }
}

#[test]
fn oracle_big_integer_fits_only_on_cray() {
    let big = 1i64 << 40;
    assert_eq!(native_int(big, Architecture::CrayYmp).unwrap().1, Value::Integer(big));
    assert!(native_int(big, Architecture::SunSparc10).is_err());
}

#[test]
fn oracle_endianness_differs_between_sparc_and_i860() {
    assert_eq!(native_int(0x0102_0304, Architecture::SunSparc10).unwrap().0, vec![1, 2, 3, 4]);
    assert_eq!(native_int(0x0102_0304, Architecture::IntelI860).unwrap().0, vec![4, 3, 2, 1]);
}

#[test]
fn oracle_through_native_identity_on_ieee_archs() {
    let ty = Type::Record {
        fields: vec![
            ("xs".into(), arr(4, Type::Float)),
            ("n".into(), Type::Integer),
            ("d".into(), Type::Double),
            ("s".into(), Type::String),
        ],
    };
    let v = Value::Record(vec![
        ("xs".into(), Value::floats(&[1.0, -2.5, 3.25, 0.0])),
        ("n".into(), Value::Integer(42)),
        ("d".into(), Value::Double(-1.25e-8)),
        ("s".into(), Value::String("f100".into())),
    ]);
    for arch in [
        Architecture::SunSparc10,
        Architecture::Sgi4D,
        Architecture::IbmRs6000,
        Architecture::IntelI860,
        Architecture::Cm5Node,
    ] {
        assert_eq!(through_native(&v, &ty, arch).unwrap(), v, "{arch}");
    }
}

#[test]
fn oracle_through_native_cray_exact_for_floats() {
    let ty = arr(4, Type::Float);
    let v = Value::floats(&[1.0, -2.5, 3.25e10, 1.0e-12]);
    assert_eq!(through_native(&v, &ty, Architecture::CrayYmp).unwrap(), v);
}

#[test]
fn oracle_through_native_cray_rounds_full_precision_double() {
    let x = std::f64::consts::PI;
    let out = through_native(&Value::Double(x), &Type::Double, Architecture::CrayYmp).unwrap();
    match out {
        Value::Double(y) => {
            assert_ne!(y, x);
            assert!((y - x).abs() / x < 2f64.powi(-47));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn oracle_through_native_convex_exact_in_range() {
    let ty = Type::Record { fields: vec![("f".into(), Type::Float), ("d".into(), Type::Double)] };
    let v =
        Value::Record(vec![("f".into(), Value::Float(0.125)), ("d".into(), Value::Double(98.6))]);
    assert_eq!(through_native(&v, &ty, Architecture::ConvexC220).unwrap(), v);
}

#[test]
fn oracle_decode_native_detects_trailing_bytes() {
    let mut buf = Vec::new();
    encode_native(&Value::Integer(5), &Type::Integer, Architecture::SunSparc10, &mut buf).unwrap();
    buf.push(0);
    assert!(decode_native(&buf, &Type::Integer, Architecture::SunSparc10).is_err());
}

#[test]
fn oracle_decode_native_detects_truncation() {
    let mut buf = Vec::new();
    encode_native(&Value::Double(1.0), &Type::Double, Architecture::SunSparc10, &mut buf).unwrap();
    assert!(decode_native(&buf[..7], &Type::Double, Architecture::SunSparc10).is_err());
}
