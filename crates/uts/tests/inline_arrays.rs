//! Short packed arrays are held inside the `Value`; nothing else about
//! them may differ from a long one.
//!
//! Every packed length on both sides of the 16-byte inline limit (0–5
//! floats, 0–3 doubles and integers) is encoded on each of the seven
//! architectures and decoded on each, and the elements must carry the
//! same bits as the tagged reference pipeline (`support/oracle.rs`)
//! gives. A digest of every decoded bit pins the sweep to the figures the
//! shared-array representation produced.
//! Conversion errors, equality across representations, and the `Debug`
//! and `Display` strings are pinned the same way.

#[allow(dead_code)]
#[path = "support/oracle.rs"]
mod oracle;

use oracle::{decode_values, encode_values, through_native};
use testkit::SplitMix64;
use uts::{Architecture, Error, MarshalPlan, Type, Value};

fn arr(len: usize, elem: Type) -> Type {
    Type::Array { len, elem: Box::new(elem) }
}

/// Element values the VAX, Cray and IEEE formats all represent, with
/// enough mantissa to show rounding: signed zero, small and large
/// magnitudes, and seeded values in between.
fn doubles(len: usize, g: &mut SplitMix64) -> Vec<f64> {
    let fixed = [-0.0, 0.1, 1.0e30, -1.0e-30];
    (0..len).map(|i| fixed.get(i).copied().unwrap_or_else(|| g.range(-1.0e3, 1.0e3))).collect()
}

fn integers(len: usize, g: &mut SplitMix64) -> Vec<i64> {
    let fixed = [i64::from(i32::MIN), i64::from(i32::MAX), -1];
    (0..len).map(|i| fixed.get(i).copied().unwrap_or_else(|| g.next_u64() as i32 as i64)).collect()
}

/// The cases: one signature per kind and length, with its value.
fn cases() -> Vec<(Type, Value)> {
    let mut g = SplitMix64::new(0x1A11E);
    let mut cases = Vec::new();
    for len in 0..=5 {
        let fs: Vec<f32> = doubles(len, &mut g).iter().map(|&x| x as f32).collect();
        cases.push((arr(len, Type::Float), Value::floats(&fs)));
    }
    for len in 0..=3 {
        cases.push((arr(len, Type::Double), Value::doubles(&doubles(len, &mut g))));
        cases.push((arr(len, Type::Integer), Value::integers(&integers(len, &mut g))));
    }
    cases
}

/// The value through the tagged reference pipeline: the sender's native
/// format, the v1 wire, the receiver's native format.
fn reference(v: &Value, ty: &Type, from: Architecture, to: Architecture) -> Result<Value, Error> {
    let sent = through_native(v, ty, from)?;
    let wire = encode_values(&[sent])?;
    let got = decode_values(wire, &[ty])?.remove(0);
    through_native(&got, ty, to)
}

/// The elements' bit patterns, whatever the array's representation.
fn bits(v: &Value) -> Vec<u64> {
    let scalar = |v: &Value| match v {
        Value::Float(x) => u64::from(x.to_bits()),
        Value::Double(x) => x.to_bits(),
        Value::Integer(i) => *i as u64,
        other => panic!("not a scalar: {other:?}"),
    };
    match v {
        Value::Floats(xs) => xs.iter().map(|x| u64::from(x.to_bits())).collect(),
        Value::Doubles(xs) => xs.iter().map(|x| x.to_bits()).collect(),
        Value::Integers(xs) => xs.iter().map(|&i| i as u64).collect(),
        Value::Array(items) => items.iter().map(scalar).collect(),
        other => panic!("not a scalar array: {other:?}"),
    }
}

/// FNV-1a over 64-bit words.
fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
}

#[test]
fn every_inline_length_decodes_to_the_reference_bits_on_all_49_pairs() {
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut decoded = 0;
    for (ty, value) in cases() {
        let plan = MarshalPlan::compile([&ty]);
        for from in Architecture::ALL {
            for to in Architecture::ALL {
                let want = reference(&value, &ty, from, to).expect("reference decodes");
                let wire = plan.encode(std::slice::from_ref(&value), from).expect("encodes");
                let got = plan.decode(wire, to).expect("decodes");
                assert_eq!(bits(&got[0]), bits(&want), "{ty} {from} -> {to}");
                assert_eq!(got[0], want, "{ty} {from} -> {to}");
                for word in bits(&got[0]) {
                    fnv(&mut digest, word);
                }
                decoded += 1;
            }
        }
    }
    assert_eq!(decoded, 14 * 49);
    assert_eq!(digest, DIGEST, "decoded bits moved: {digest:#018x}");
}

/// The digest the shared-array representation gives for the sweep.
const DIGEST: u64 = 0x2ef8_0a1d_a855_ffd0;

/// A conversion failure inside an inline array is the first failing
/// element's — what decoding that element alone gives, with the message
/// the shared-array representation gave — and leaves no value.
#[test]
fn an_inline_arrays_first_conversion_error_is_its_first_failing_elements() {
    // An IEEE infinity has no IEEE image once through the Cray's wider
    // exponent; the NaN after it has no Cray image at all.
    let ty = arr(3, Type::Float);
    let value = Value::floats(&[0.5, f32::INFINITY, f32::NAN]);
    let plan = MarshalPlan::compile([&ty]);
    let wire = plan.encode(std::slice::from_ref(&value), Architecture::SunSparc10).unwrap();
    let err = plan.decode(wire.clone(), Architecture::CrayYmp).unwrap_err();
    let alone = MarshalPlan::compile([&Type::Float]);
    let one = alone.encode(&[Value::Float(f32::INFINITY)], Architecture::SunSparc10).unwrap();
    assert_eq!(err, alone.decode(one, Architecture::CrayYmp).unwrap_err());
    assert_eq!(err.to_string(), FLOAT_ERROR);
    let mut out = vec![Value::Integer(1)];
    assert!(plan.decode_into(wire, Architecture::CrayYmp, &mut out).is_err());
    assert!(out.is_empty(), "partial values {out:?}");

    // A Cray integer the 32-bit wire cannot hold fails at the sender, as
    // in the reference pipeline.
    let ty = arr(2, Type::Integer);
    let value = Value::integers(&[1, 1 << 40]);
    let plan = MarshalPlan::compile([&ty]);
    let err = plan.encode(std::slice::from_ref(&value), Architecture::CrayYmp).unwrap_err();
    let want = reference(&value, &ty, Architecture::CrayYmp, Architecture::SunSparc10).unwrap_err();
    assert_eq!(err, want);
    assert_eq!(err.to_string(), INTEGER_ERROR);
}

const FLOAT_ERROR: &str =
    "float value Cray word 0x47d0800000000000 (2^1999 magnitude) out of range for IEEE 754 double";
const INTEGER_ERROR: &str = "integer value 1099511627776 out of range for 32-bit wire integer";

/// Short (inline), long (shared) and boxed arrays compare equal to their
/// twins, and print as they always have.
#[test]
fn every_representation_compares_and_prints_as_before() {
    let boxed = |xs: &[f32]| Value::Array(xs.iter().map(|&x| Value::Float(x)).collect());
    let short = [1.0, 2.5];
    let long = [1.0, 2.0, 3.0, 4.0, 5.0];
    assert_eq!(Value::floats(&short), boxed(&short));
    assert_eq!(boxed(&short), Value::floats(&short));
    assert_eq!(Value::floats(&long), boxed(&long));
    assert_eq!(Value::floats(&short).clone(), Value::floats(&short));
    assert_ne!(Value::floats(&short), Value::floats(&long));
    assert_ne!(Value::floats(&long[..4]), Value::floats(&long));

    let printed = [
        (Value::floats(&short), "Floats([1.0, 2.5])", "[1f, 2.5f]"),
        (Value::floats(&long), "Floats([1.0, 2.0, 3.0, 4.0, 5.0])", "[1f, 2f, 3f, 4f, 5f]"),
        (Value::floats(&[]), "Floats([])", "[]"),
        (Value::doubles(&[0.5, -0.0]), "Doubles([0.5, -0.0])", "[0.5, -0]"),
        (Value::doubles(&[0.5, -0.0, 8.0]), "Doubles([0.5, -0.0, 8.0])", "[0.5, -0, 8]"),
        (Value::integers(&[7, -3]), "Integers([7, -3])", "[7, -3]"),
        (
            Value::integers(&[7, -3, 1 << 40]),
            "Integers([7, -3, 1099511627776])",
            "[7, -3, 1099511627776]",
        ),
        (Value::zero_of(&arr(2, Type::Double)), "Doubles([0.0, 0.0])", "[0, 0]"),
        (boxed(&short), "Array([Float(1.0), Float(2.5)])", "[1f, 2.5f]"),
    ];
    for (v, debug, display) in printed {
        assert_eq!(format!("{v:?}"), debug);
        assert_eq!(v.to_string(), display);
    }
}

#[test]
fn a_value_is_at_most_32_bytes() {
    assert!(std::mem::size_of::<Value>() <= 32, "{} bytes", std::mem::size_of::<Value>());
}
