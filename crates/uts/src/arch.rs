//! Machine architectures and their native data representations.
//!
//! Each architecture the NPSS prototype ran on is described by its integer
//! representation, floating-point format family, and the case convention its
//! Fortran compiler applies to procedure names. The last item matters more
//! than it sounds: the Cray's Fortran compiler upper-cases names while every
//! other supported compiler lower-cases them, which is why the Schooner
//! Manager stores both-case synonyms in its mapping tables.

use std::fmt;

/// Integer representation of an architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntRepr {
    /// 32-bit two's complement, big-endian byte order.
    I32Big,
    /// 32-bit two's complement, little-endian byte order.
    I32Little,
    /// The Cray's 64-bit word integer (big-endian). Values that fit the
    /// word but not the 32-bit wire integer are a marshaling error.
    I64Cray,
}

impl IntRepr {
    /// Width of the native integer in bytes.
    pub fn width(self) -> usize {
        match self {
            IntRepr::I32Big | IntRepr::I32Little => 4,
            IntRepr::I64Cray => 8,
        }
    }
}

/// Floating-point format family of an architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FloatRepr {
    /// IEEE-754, big-endian byte order (SPARC, MIPS, POWER).
    IeeeBig,
    /// IEEE-754, little-endian byte order (Intel).
    IeeeLittle,
    /// Cray-1 single format: 64-bit word, sign, 15-bit exponent biased by
    /// 16384 (0o40000), 48-bit mantissa with no hidden bit. Both UTS
    /// `float` and `double` occupy one 64-bit word on the Cray. Exponent
    /// range vastly exceeds IEEE; out-of-range conversions are errors.
    Cray,
    /// VAX-heritage F/D floating (Convex native mode): 8-bit exponent
    /// biased by 128, hidden-bit fraction, PDP-11 word order. Narrower
    /// exponent range than IEEE, so IEEE values can overflow it.
    Vax,
}

/// The case a machine's Fortran compiler forces on external names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FortranCase {
    /// Names are folded to lower case (most compilers).
    Lower,
    /// Names are folded to upper case (Cray Fortran).
    Upper,
}

impl FortranCase {
    /// Apply this convention to a procedure name.
    pub fn apply(self, name: &str) -> String {
        match self {
            FortranCase::Lower => name.to_ascii_lowercase(),
            FortranCase::Upper => name.to_ascii_uppercase(),
        }
    }
}

/// A machine architecture from the NPSS test environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Sun SPARCstation 10 — big-endian IEEE workstation.
    SunSparc10,
    /// SGI 4D series (340/420/480) — big-endian MIPS IEEE.
    Sgi4D,
    /// Cray Y-MP — 64-bit words, Cray floating point, upper-case Fortran.
    CrayYmp,
    /// IBM RS/6000 — big-endian POWER IEEE.
    IbmRs6000,
    /// Convex C220 running in native (VAX-heritage) floating-point mode.
    ConvexC220,
    /// Intel i860 node — little-endian IEEE.
    IntelI860,
    /// Thinking Machines CM-5 node (SPARC-based) — big-endian IEEE.
    Cm5Node,
}

impl Architecture {
    /// All architectures, handy for exhaustive conversion tests.
    pub const ALL: [Architecture; 7] = [
        Architecture::SunSparc10,
        Architecture::Sgi4D,
        Architecture::CrayYmp,
        Architecture::IbmRs6000,
        Architecture::ConvexC220,
        Architecture::IntelI860,
        Architecture::Cm5Node,
    ];

    /// Native integer representation.
    pub fn int_repr(self) -> IntRepr {
        match self {
            Architecture::CrayYmp => IntRepr::I64Cray,
            Architecture::IntelI860 => IntRepr::I32Little,
            _ => IntRepr::I32Big,
        }
    }

    /// Native floating-point format.
    pub fn float_repr(self) -> FloatRepr {
        match self {
            Architecture::CrayYmp => FloatRepr::Cray,
            Architecture::ConvexC220 => FloatRepr::Vax,
            Architecture::IntelI860 => FloatRepr::IeeeLittle,
            _ => FloatRepr::IeeeBig,
        }
    }

    /// Fortran external-name case convention.
    pub fn fortran_case(self) -> FortranCase {
        match self {
            Architecture::CrayYmp => FortranCase::Upper,
            _ => FortranCase::Lower,
        }
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Architecture::SunSparc10 => "Sun Sparc 10",
            Architecture::Sgi4D => "SGI 4D",
            Architecture::CrayYmp => "Cray YMP",
            Architecture::IbmRs6000 => "IBM RS6000",
            Architecture::ConvexC220 => "Convex C220",
            Architecture::IntelI860 => "Intel i860",
            Architecture::Cm5Node => "CM-5 node",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cray_is_the_odd_one_out() {
        assert_eq!(Architecture::CrayYmp.int_repr(), IntRepr::I64Cray);
        assert_eq!(Architecture::CrayYmp.float_repr(), FloatRepr::Cray);
        assert_eq!(Architecture::CrayYmp.fortran_case(), FortranCase::Upper);
    }

    #[test]
    fn intel_is_little_endian() {
        assert_eq!(Architecture::IntelI860.int_repr(), IntRepr::I32Little);
        assert_eq!(Architecture::IntelI860.float_repr(), FloatRepr::IeeeLittle);
    }

    #[test]
    fn convex_uses_vax_floats() {
        assert_eq!(Architecture::ConvexC220.float_repr(), FloatRepr::Vax);
        assert_eq!(Architecture::ConvexC220.int_repr(), IntRepr::I32Big);
    }

    #[test]
    fn fortran_case_application() {
        assert_eq!(FortranCase::Lower.apply("SetShaft"), "setshaft");
        assert_eq!(FortranCase::Upper.apply("setshaft"), "SETSHAFT");
    }

    #[test]
    fn int_widths() {
        assert_eq!(IntRepr::I32Big.width(), 4);
        assert_eq!(IntRepr::I32Little.width(), 4);
        assert_eq!(IntRepr::I64Cray.width(), 8);
    }

    #[test]
    fn all_lists_every_variant_once() {
        let mut seen = std::collections::HashSet::new();
        for a in Architecture::ALL {
            assert!(seen.insert(a));
        }
        assert_eq!(seen.len(), 7);
    }
}
