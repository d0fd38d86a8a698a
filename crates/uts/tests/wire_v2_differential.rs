//! Differential fuzzing of the compiled-plan codec (wire v2) against the
//! legacy tagged codec (wire v1).
//!
//! Every randomly generated signature and value list is pushed through
//! both pipelines across **every** architecture pair; the restored values
//! must be identical — including the precision loss the native formats
//! impose, which must happen at exactly the same points in both codecs.
//! Cases are drawn from a seeded SplitMix64 generator, so the sweep
//! replays identically on every run.

use testkit::SplitMix64 as Gen;
use uts::native::through_native;
use uts::plan::V2_MAGIC;
use uts::wire::{WireReader, WireWriter};
use uts::{Architecture, MarshalPlan, Type, Value};

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
