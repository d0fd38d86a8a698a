//! Randomized tests of the UTS conversion pipeline: the native float
//! codecs, and the reference pipeline in `support/oracle.rs`.
//!
//! These were property-based tests; they now draw their cases from a
//! deterministic SplitMix64 generator so the sweep needs no external
//! crates and replays identically on every run.

#[allow(dead_code)]
#[path = "support/oracle.rs"]
mod oracle;

use oracle::{decode_native, encode_native, through_native, WireReader, WireWriter};
use testkit::SplitMix64 as Gen;
use uts::native::{cray, vax};
use uts::{Architecture, Type, Value};

/// Log-uniform magnitude with a random sign: `±10^[lo_exp, hi_exp)`.
fn signed_mag(g: &mut Gen, lo_exp: f64, hi_exp: f64) -> f64 {
    let mag = 10f64.powf(g.range(lo_exp, hi_exp));
    if g.flag() {
        mag
    } else {
        -mag
    }
}

/// A random type tree of bounded depth, optionally including strings
/// (excluded where a fixed wire size matters).
fn gen_type(g: &mut Gen, depth: usize, allow_string: bool) -> Type {
    let scalars = if allow_string { 6 } else { 5 };
    let choices = if depth == 0 { scalars } else { scalars + 2 };
    match g.index(choices) {
        0 => Type::Integer,
        1 => Type::Float,
        2 => Type::Double,
        3 => Type::Byte,
        4 => Type::Boolean,
        5 if allow_string => Type::String,
        n if n == scalars => Type::Array {
            len: 1 + g.index(4),
            elem: Box::new(gen_type(g, depth - 1, allow_string)),
        },
        _ => Type::Record {
            fields: (0..1 + g.index(3))
                .map(|i| (format!("f{i}"), gen_type(g, depth - 1, allow_string)))
                .collect(),
        },
    }
}

/// A value conforming to `ty`, with numeric magnitudes kept within the
/// VAX range so every architecture can represent them.
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
        Type::Array { len, elem } => Value::Array((0..*len).map(|_| gen_value(g, elem)).collect()),
        Type::Record { fields } => {
            Value::Record(fields.iter().map(|(n, t)| (n.clone(), gen_value(g, t))).collect())
        }
    }
}

fn gen_typed_value(g: &mut Gen, allow_string: bool) -> (Type, Value) {
    let ty = gen_type(g, 3, allow_string);
    let v = gen_value(g, &ty);
    (ty, v)
}

/// Any well-typed value survives the wire format unchanged.
#[test]
fn wire_round_trip() {
    let mut g = Gen::new(1);
    for _ in 0..200 {
        let (ty, v) = gen_typed_value(&mut g, true);
        let mut w = WireWriter::new();
        w.put(&v, &ty).unwrap();
        let mut r = WireReader::new(w.finish());
        let back = r.get(&ty).unwrap();
        assert_eq!(back, v);
        assert_eq!(r.remaining(), 0);
    }
}

/// On architectures whose formats are IEEE, passing through the native
/// representation is the identity.
#[test]
fn native_identity_on_ieee() {
    let mut g = Gen::new(2);
    for _ in 0..200 {
        let (ty, v) = gen_typed_value(&mut g, true);
        for arch in [
            Architecture::SunSparc10,
            Architecture::Sgi4D,
            Architecture::IbmRs6000,
            Architecture::IntelI860,
            Architecture::Cm5Node,
        ] {
            assert_eq!(through_native(&v, &ty, arch).unwrap(), v);
        }
    }
}

/// Native encode/decode round-trips byte-exactly on every architecture
/// for values every architecture can hold (range-limited generator).
#[test]
fn native_decode_inverts_encode() {
    let mut g = Gen::new(3);
    for _ in 0..200 {
        let (ty, v) = gen_typed_value(&mut g, true);
        for arch in Architecture::ALL {
            let first = through_native(&v, &ty, arch).unwrap();
            // A second pass must be a fixed point: precision loss happens
            // at most once.
            let mut buf = Vec::new();
            encode_native(&first, &ty, arch, &mut buf).unwrap();
            let second = decode_native(&buf, &ty, arch).unwrap();
            assert_eq!(second, first, "arch={arch}");
        }
    }
}

/// The Cray codec is exact for every f32 (24-bit significands fit the
/// 48-bit Cray mantissa).
#[test]
fn cray_exact_for_f32() {
    let mut g = Gen::new(4);
    let mut tested = 0;
    while tested < 400 {
        let x = f32::from_bits(g.next_u64() as u32);
        if !x.is_finite() {
            continue;
        }
        tested += 1;
        let w = cray::encode(x as f64).unwrap();
        let back = cray::decode(w).unwrap();
        assert_eq!(back as f32, x);
    }
}

/// Cray round-trip of f64 is within one unit of the 48th mantissa bit.
#[test]
fn cray_f64_error_bounded() {
    let mut g = Gen::new(5);
    assert_eq!(cray::decode(cray::encode(0.0).unwrap()).unwrap(), 0.0);
    for _ in 0..400 {
        let x = signed_mag(&mut g, -250.0, 250.0);
        let w = cray::encode(x).unwrap();
        let back = cray::decode(w).unwrap();
        assert!(((back - x) / x).abs() <= 2f64.powi(-47), "{back} vs {x}");
    }
}

/// The Cray encoding preserves ordering (it is sign-magnitude with a
/// biased exponent, so the word ordering matches numeric ordering for
/// positive values).
#[test]
fn cray_order_preserving() {
    let mut g = Gen::new(6);
    for _ in 0..400 {
        let a = 10f64.powf(g.range(-30.0, 30.0));
        let b = 10f64.powf(g.range(-30.0, 30.0));
        let wa = cray::encode(a).unwrap();
        let wb = cray::encode(b).unwrap();
        let (da, db) = (cray::decode(wa).unwrap(), cray::decode(wb).unwrap());
        if da < db {
            assert!(wa < wb);
        } else if da > db {
            assert!(wa > wb);
        }
    }
}

/// VAX F is exact for all f32 within its exponent range.
#[test]
fn vax_f_exact_in_range() {
    let mut g = Gen::new(7);
    assert_eq!(vax::decode_f(vax::encode_f(0.0).unwrap()).unwrap(), 0.0);
    for _ in 0..400 {
        let x = signed_mag(&mut g, -36.0, 37.5) as f32;
        let b = vax::encode_f(x).unwrap();
        assert_eq!(vax::decode_f(b).unwrap(), x);
    }
}

/// VAX D is exact for all f64 within its exponent range.
#[test]
fn vax_d_exact_in_range() {
    let mut g = Gen::new(8);
    assert_eq!(vax::decode_d(vax::encode_d(0.0).unwrap()).unwrap(), 0.0);
    for _ in 0..400 {
        let x = signed_mag(&mut g, -36.0, 38.0);
        let b = vax::encode_d(x).unwrap();
        assert_eq!(vax::decode_d(b).unwrap(), x);
    }
}

/// Spec parser: pretty-printing a parsed signature and re-parsing it yields
/// the same parameters.
#[test]
fn spec_signature_reparse_round_trip() {
    let src = r#"
export everything prog(
    "a" val integer,
    "b" res float,
    "c" var double,
    "d" val array[3] of array[2] of byte,
    "e" val record ("x" double, "flags" array[4] of boolean) end,
    "f" res string)
"#;
    let file = uts::parse_spec_file(src).unwrap();
    let spec = &file.decls[0];
    let rendered = format!("export everything {}", spec.signature());
    let reparsed = uts::parse_spec_file(&rendered).unwrap();
    assert_eq!(reparsed.decls[0].params, spec.params);
}
