//! Per-architecture native data formats and conversion routines.
//!
//! These are the "UTS library functions that handle conversions between a
//! machine's native format and the common interchange format". The codecs
//! are genuine byte-level implementations:
//!
//! * **IEEE-754** big- and little-endian (workstations);
//! * **Cray-1 single** format (64-bit word, 15-bit exponent biased 16384,
//!   48-bit mantissa, no hidden bit) — wider exponent range *and* less
//!   mantissa precision than IEEE double, so converting through a Cray can
//!   both overflow the wire format (an error, per the paper's chosen
//!   policy) and round the low bits of a double;
//! * **VAX-heritage F/D floating** (Convex native mode) — 8-bit exponent
//!   biased 128 with a hidden bit and PDP-11 word order; *narrower* range
//!   than IEEE, so IEEE values near 3.4e38 overflow it.
//!
//! IEEE machines need no codec: their formats are the wire's, up to byte
//! order. The compiled marshal plans ([`crate::plan`]) apply these codecs
//! per scalar — the sender's on encode, the receiver's on decode — so
//! every range and precision hazard of the real system occurs for the
//! same reason.

use crate::error::{Error, Result};

/// `ldexp(x, e) = x * 2^e` computed safely for the exponent ranges the Cray
/// codec produces (|e| ≤ ~1200 after range pre-checks).
fn ldexp(x: f64, e: i32) -> f64 {
    let first = e.clamp(-1000, 1000);
    let rest = (e - first).clamp(-1000, 1000);
    x * 2f64.powi(first) * 2f64.powi(rest)
}

/// The Cray-1 floating point codec.
pub mod cray {
    use super::*;

    /// Exponent bias of the Cray format (0o40000).
    pub(crate) const BIAS: i64 = 16384;
    const MANT_BITS: u32 = 48;
    const EXP_MASK: u64 = 0x7FFF;
    const MANT_MASK: u64 = (1u64 << MANT_BITS) - 1;

    /// Assemble a raw Cray word from parts (used by tests to build values
    /// that exceed IEEE range, as a real Cray computation could).
    pub fn word(sign: bool, exp: u16, mant: u64) -> u64 {
        ((sign as u64) << 63) | (((exp as u64) & EXP_MASK) << MANT_BITS) | (mant & MANT_MASK)
    }

    /// Encode an `f64` into a Cray word.
    ///
    /// Rounds the 53-bit IEEE significand to the Cray's 48 bits (round to
    /// nearest). Infinities are mapped to a finite Cray value whose
    /// exponent lies beyond IEEE range — on a real Cray the computation
    /// that produced "infinity" would simply have produced such a value.
    /// NaN has no Cray representation and is an error.
    pub fn encode(x: f64) -> Result<u64> {
        if x.is_nan() {
            return Err(Error::OutOfRange {
                what: "float",
                value: "NaN".into(),
                target: "Cray floating point".into(),
            });
        }
        let sign = x.is_sign_negative();
        if x == 0.0 {
            return Ok(0); // Cray zero is the all-zero word.
        }
        if x.is_infinite() {
            // Beyond-IEEE magnitude: 0.5 * 2^2000.
            return Ok(word(sign, (BIAS + 2000) as u16, 1u64 << (MANT_BITS - 1)));
        }
        let bits = x.abs().to_bits();
        let biased = ((bits >> 52) & 0x7FF) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        // x = mant * 2^pow with mant an integer.
        let (mut mant, mut pow): (u64, i64) = if biased == 0 {
            (frac, -1074) // subnormal
        } else {
            ((1u64 << 52) | frac, biased - 1023 - 52)
        };
        // Normalize so the mantissa's MSB sits at bit 47.
        let msb = 63 - mant.leading_zeros() as i64;
        if msb > (MANT_BITS as i64 - 1) {
            let shift = msb - (MANT_BITS as i64 - 1);
            let round = (mant >> (shift - 1)) & 1;
            mant >>= shift;
            pow += shift;
            mant += round;
            if mant == 1u64 << MANT_BITS {
                mant >>= 1;
                pow += 1;
            }
        } else {
            let shift = (MANT_BITS as i64 - 1) - msb;
            mant <<= shift;
            pow -= shift;
        }
        // value = mant * 2^pow = 0.mant(48) * 2^(pow + 48).
        let exp = pow + MANT_BITS as i64 + BIAS;
        if !(0..=EXP_MASK as i64).contains(&exp) {
            return Err(Error::OutOfRange {
                what: "float",
                value: x.to_string(),
                target: "Cray exponent field".into(),
            });
        }
        Ok(word(sign, exp as u16, mant))
    }

    /// Decode a Cray word into an `f64`.
    ///
    /// A magnitude beyond IEEE double range is treated as an **error**
    /// rather than converted to infinity — the policy the NPSS developers
    /// chose after consultation (Section 4.1 of the paper). Values below
    /// the smallest IEEE subnormal flush to signed zero.
    pub fn decode(w: u64) -> Result<f64> {
        let sign = (w >> 63) & 1 == 1;
        let exp = ((w >> MANT_BITS) & EXP_MASK) as i64;
        let mant = w & MANT_MASK;
        if mant == 0 {
            // "Dirty zero": zero mantissa regardless of exponent is zero.
            return Ok(if sign { -0.0 } else { 0.0 });
        }
        let pow = exp - BIAS - MANT_BITS as i64;
        let msb = 63 - mant.leading_zeros() as i64;
        let mag_exp = msb + pow; // floor(log2(|value|))
        if mag_exp > 1023 {
            return Err(Error::OutOfRange {
                what: "float",
                value: format!("Cray word 0x{w:016x} (2^{mag_exp} magnitude)"),
                target: "IEEE 754 double".into(),
            });
        }
        if mag_exp < -1074 {
            return Ok(if sign { -0.0 } else { 0.0 });
        }
        let x = ldexp(mant as f64, pow as i32);
        Ok(if sign { -x } else { x })
    }
}

/// The VAX-heritage floating point codec (Convex native mode).
pub mod vax {
    use super::*;

    /// Exponent bias of F and D floating.
    pub(crate) const BIAS: i32 = 128;

    /// Encode an `f32` as VAX F_floating (4 bytes, PDP-11 word order).
    ///
    /// F_floating stores `0.1f × 2^(E-128)` with 23 stored fraction bits —
    /// the same stored width as IEEE single, so in-range conversions are
    /// exact. IEEE's exponent range is one octave wider on both ends:
    /// values above ~1.7e38 overflow (an error) and subnormals flush to
    /// zero.
    pub fn encode_f(x: f32) -> Result<[u8; 4]> {
        if x.is_nan() || x.is_infinite() {
            return Err(Error::OutOfRange {
                what: "float",
                value: x.to_string(),
                target: "VAX F_floating".into(),
            });
        }
        if x == 0.0 {
            return Ok([0; 4]);
        }
        let bits = x.abs().to_bits();
        let biased = (bits >> 23) & 0xFF;
        if biased == 0 {
            return Ok([0; 4]); // IEEE subnormal underflows VAX F: flush.
        }
        let frac = bits & 0x7F_FFFF;
        // IEEE: 1.f × 2^(biased-127)  ==  VAX: 0.1f × 2^(biased-127+1).
        let e = biased as i32 - 127 + 1 + BIAS;
        if e <= 0 {
            return Ok([0; 4]);
        }
        if e > 255 {
            return Err(Error::OutOfRange {
                what: "float",
                value: x.to_string(),
                target: "VAX F_floating exponent".into(),
            });
        }
        let sign = u16::from(x.is_sign_negative());
        let word0: u16 = (sign << 15) | ((e as u16) << 7) | ((frac >> 16) as u16);
        let word1: u16 = (frac & 0xFFFF) as u16;
        Ok([(word0 & 0xFF) as u8, (word0 >> 8) as u8, (word1 & 0xFF) as u8, (word1 >> 8) as u8])
    }

    /// Decode VAX F_floating bytes into an `f32`.
    pub fn decode_f(b: [u8; 4]) -> Result<f32> {
        let word0 = u16::from(b[0]) | (u16::from(b[1]) << 8);
        let word1 = u16::from(b[2]) | (u16::from(b[3]) << 8);
        let sign = word0 >> 15 == 1;
        let e = ((word0 >> 7) & 0xFF) as i32;
        let frac = (u32::from(word0 & 0x7F) << 16) | u32::from(word1);
        if e == 0 {
            if sign {
                // Sign=1, exponent=0 is the VAX "reserved operand" trap.
                return Err(Error::Wire("VAX reserved operand".into()));
            }
            return Ok(0.0);
        }
        // 0.1f × 2^(e-128) == 1.f × 2^(e-129); always within IEEE f32 range.
        let ieee_biased = (e - 1 - BIAS + 127) as u32;
        let bits = (u32::from(sign) << 31) | (ieee_biased << 23) | frac;
        Ok(f32::from_bits(bits))
    }

    /// Encode an `f64` as VAX D_floating (8 bytes, PDP-11 word order).
    ///
    /// D_floating has a 55-bit stored fraction (more precision than IEEE
    /// double) but only the F_floating 8-bit exponent, so any double with
    /// magnitude above ~1.7e38 is an overflow error.
    pub fn encode_d(x: f64) -> Result<[u8; 8]> {
        if x.is_nan() || x.is_infinite() {
            return Err(Error::OutOfRange {
                what: "double",
                value: x.to_string(),
                target: "VAX D_floating".into(),
            });
        }
        if x == 0.0 {
            return Ok([0; 8]);
        }
        let bits = x.abs().to_bits();
        let biased = ((bits >> 52) & 0x7FF) as i32;
        if biased == 0 {
            return Ok([0; 8]); // far below VAX range: flush
        }
        let frac52 = bits & ((1u64 << 52) - 1);
        let e = biased - 1023 + 1 + BIAS;
        if e <= 0 {
            return Ok([0; 8]);
        }
        if e > 255 {
            return Err(Error::OutOfRange {
                what: "double",
                value: x.to_string(),
                target: "VAX D_floating exponent".into(),
            });
        }
        let frac55 = frac52 << 3; // pad to D_floating's 55 stored bits
        let sign = u16::from(x.is_sign_negative());
        let word0: u16 = (sign << 15) | ((e as u16) << 7) | ((frac55 >> 48) as u16);
        let word1: u16 = ((frac55 >> 32) & 0xFFFF) as u16;
        let word2: u16 = ((frac55 >> 16) & 0xFFFF) as u16;
        let word3: u16 = (frac55 & 0xFFFF) as u16;
        let mut out = [0u8; 8];
        for (i, w) in [word0, word1, word2, word3].into_iter().enumerate() {
            out[2 * i] = (w & 0xFF) as u8;
            out[2 * i + 1] = (w >> 8) as u8;
        }
        Ok(out)
    }

    /// Decode VAX D_floating bytes into an `f64`.
    ///
    /// The low 3 fraction bits (beyond IEEE's 52) are rounded to nearest.
    pub fn decode_d(b: [u8; 8]) -> Result<f64> {
        let mut words = [0u16; 4];
        for i in 0..4 {
            words[i] = u16::from(b[2 * i]) | (u16::from(b[2 * i + 1]) << 8);
        }
        let sign = words[0] >> 15 == 1;
        let e = ((words[0] >> 7) & 0xFF) as i32;
        let frac55 = (u64::from(words[0] & 0x7F) << 48)
            | (u64::from(words[1]) << 32)
            | (u64::from(words[2]) << 16)
            | u64::from(words[3]);
        if e == 0 {
            if sign {
                return Err(Error::Wire("VAX reserved operand".into()));
            }
            return Ok(0.0);
        }
        // Round the 55-bit fraction to IEEE's 52 stored bits.
        let mut frac52 = frac55 >> 3;
        let round = (frac55 >> 2) & 1;
        frac52 += round;
        let mut ieee_biased = (e - 1 - BIAS + 1023) as u64;
        if frac52 == 1u64 << 52 {
            frac52 = 0;
            ieee_biased += 1;
        }
        let bits = ((sign as u64) << 63) | (ieee_biased << 52) | frac52;
        Ok(f64::from_bits(bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cray_float_round_trip_exact_for_f32() {
        for x in [0.0f32, 1.0, -1.5, 1.234_568, 1e-20, -6.8e30] {
            let w = cray::encode(x as f64).unwrap();
            let back = cray::decode(w).unwrap();
            assert_eq!(back as f32, x, "x={x}");
        }
    }

    #[test]
    fn cray_double_round_trip_rounds_to_48_bits() {
        let x = 1.0 + 2f64.powi(-50); // needs 51 significand bits
        let w = cray::encode(x).unwrap();
        let back = cray::decode(w).unwrap();
        assert_ne!(back, x, "48-bit mantissa cannot hold 51 bits");
        assert!((back - x).abs() < 2f64.powi(-47));
        // Anything with <=48 significand bits is exact.
        let y = 1.0 + 2f64.powi(-40);
        assert_eq!(cray::decode(cray::encode(y).unwrap()).unwrap(), y);
    }

    #[test]
    fn cray_subnormal_encodes_and_round_trips() {
        let x = f64::from_bits(1); // smallest IEEE subnormal
        let w = cray::encode(x).unwrap();
        assert_eq!(cray::decode(w).unwrap(), x);
    }

    #[test]
    fn cray_out_of_ieee_range_is_error_not_infinity() {
        // Build a Cray value of magnitude 2^1999: representable on the
        // Cray, far beyond IEEE double.
        let w = cray::word(false, (cray::BIAS + 2000) as u16, 1u64 << 47);
        let err = cray::decode(w).unwrap_err();
        assert!(matches!(err, Error::OutOfRange { .. }), "{err}");
    }

    #[test]
    fn cray_infinity_becomes_out_of_range_value() {
        let w = cray::encode(f64::INFINITY).unwrap();
        assert!(cray::decode(w).is_err());
        let w = cray::encode(f64::NEG_INFINITY).unwrap();
        assert!(cray::decode(w).is_err());
    }

    #[test]
    fn cray_nan_rejected() {
        assert!(cray::encode(f64::NAN).is_err());
    }

    #[test]
    fn cray_dirty_zero_decodes_to_zero() {
        let w = cray::word(false, 12345, 0);
        assert_eq!(cray::decode(w).unwrap(), 0.0);
    }

    #[test]
    fn cray_tiny_flushes_to_zero() {
        // 0.5 * 2^-8000: valid Cray value far below IEEE subnormal range.
        let w = cray::word(true, (cray::BIAS - 8000) as u16, 1u64 << 47);
        let x = cray::decode(w).unwrap();
        assert_eq!(x, 0.0);
        assert!(x.is_sign_negative());
    }

    #[test]
    fn vax_f_round_trip_exact() {
        for x in [0.0f32, 1.0, -1.0, 0.1, 3.4e37, -2.9e-38, 12345.678] {
            let b = vax::encode_f(x).unwrap();
            assert_eq!(vax::decode_f(b).unwrap(), x, "x={x}");
        }
    }

    #[test]
    fn vax_f_overflow_is_error() {
        // IEEE f32 max (~3.4e38) exceeds VAX F max (~1.7e38).
        assert!(vax::encode_f(f32::MAX).is_err());
        assert!(vax::encode_f(2.0e38).is_err());
        assert!(vax::encode_f(f32::INFINITY).is_err());
        assert!(vax::encode_f(f32::NAN).is_err());
    }

    #[test]
    fn vax_f_underflow_flushes() {
        assert_eq!(vax::decode_f(vax::encode_f(1.0e-39).unwrap()).unwrap(), 0.0);
    }

    #[test]
    fn vax_reserved_operand_detected() {
        // sign=1, exponent=0 pattern.
        let b = [0x00, 0x80, 0x00, 0x00];
        assert!(matches!(vax::decode_f(b), Err(Error::Wire(_))));
    }

    #[test]
    fn vax_d_round_trip_exact_for_doubles_in_range() {
        for x in [0.0f64, 1.0, -1.0, 0.1, 1.0e38, 2.9e-38, 9.87654321e10] {
            let b = vax::encode_d(x).unwrap();
            assert_eq!(vax::decode_d(b).unwrap(), x, "x={x}");
        }
    }

    #[test]
    fn vax_d_overflow_is_error() {
        assert!(vax::encode_d(1.0e300).is_err());
        assert!(vax::encode_d(f64::MAX).is_err());
    }
}
