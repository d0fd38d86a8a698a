//! The UTS type model.
//!
//! UTS provides the common simple types — integer, float, double, byte,
//! boolean, string — and two structured types, fixed-length arrays and
//! records. The `float`/`double` split is itself part of the paper's story:
//! the original system carried only double precision (following K&R C's
//! argument-promotion rule) and grew a separate single-precision type when
//! Fortran joined the supported languages.

use std::fmt;

/// The wire `integer` is 32 bits; this is the range check applied when a
/// wider native integer (e.g. the Cray's 64-bit word) is marshaled.
pub const WIRE_INTEGER_MIN: i64 = i32::MIN as i64;
/// Upper bound of the 32-bit wire integer.
pub const WIRE_INTEGER_MAX: i64 = i32::MAX as i64;

/// A UTS type as written in a specification file.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// 32-bit signed integer on the wire. Architectures whose native
    /// integer is wider (the Cray's 64-bit word) must range-check on encode.
    Integer,
    /// Single-precision IEEE-754 on the wire.
    Float,
    /// Double-precision IEEE-754 on the wire.
    Double,
    /// A single octet.
    Byte,
    /// A truth value; one octet on the wire.
    Boolean,
    /// A length-prefixed character string.
    String,
    /// `array[N] of T`: exactly `N` elements of the element type.
    Array {
        /// Declared element count.
        len: usize,
        /// Element type.
        elem: Box<Type>,
    },
    /// `record ("name" T, ...) end`: a sequence of named, typed fields.
    Record {
        /// Field (name, type) pairs in declaration order.
        fields: Vec<(String, Type)>,
    },
}

impl Type {
    /// A short name for diagnostics.
    pub fn describe(&self) -> String {
        self.to_string()
    }

    /// Number of scalar leaves in this type (arrays and records counted
    /// element-wise). Used for cost accounting in the simulator.
    pub fn scalar_count(&self) -> usize {
        match self {
            Type::Array { len, elem } => len * elem.scalar_count(),
            Type::Record { fields } => fields.iter().map(|(_, t)| t.scalar_count()).sum(),
            _ => 1,
        }
    }

    /// Size in bytes of this type in the intermediate wire representation,
    /// excluding per-message framing. Strings are variable-length, so this
    /// returns `None` for any type that contains a string.
    pub fn fixed_wire_size(&self) -> Option<usize> {
        match self {
            Type::Integer | Type::Float => Some(4),
            Type::Double => Some(8),
            Type::Byte | Type::Boolean => Some(1),
            Type::String => None,
            Type::Array { len, elem } => elem.fixed_wire_size().map(|s| s * len),
            Type::Record { fields } => {
                let mut total = 0;
                for (_, t) in fields {
                    total += t.fixed_wire_size()?;
                }
                Some(total)
            }
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Integer => write!(f, "integer"),
            Type::Float => write!(f, "float"),
            Type::Double => write!(f, "double"),
            Type::Byte => write!(f, "byte"),
            Type::Boolean => write!(f, "boolean"),
            Type::String => write!(f, "string"),
            Type::Array { len, elem } => write!(f, "array[{len}] of {elem}"),
            Type::Record { fields } => {
                write!(f, "record (")?;
                for (i, (name, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "\"{name}\" {t}")?;
                }
                write!(f, ") end")
            }
        }
    }
}

/// Parameter passing mode.
///
/// `val` parameters travel caller→callee, `res` parameters callee→caller,
/// and `var` (value/result) parameters travel both ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamMode {
    /// Input only.
    Val,
    /// Output only.
    Res,
    /// Input and output (value/result).
    Var,
}

impl ParamMode {
    /// Does this parameter travel with the request message?
    pub fn is_input(self) -> bool {
        matches!(self, ParamMode::Val | ParamMode::Var)
    }

    /// Does this parameter travel with the reply message?
    pub fn is_output(self) -> bool {
        matches!(self, ParamMode::Res | ParamMode::Var)
    }
}

impl fmt::Display for ParamMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamMode::Val => write!(f, "val"),
            ParamMode::Res => write!(f, "res"),
            ParamMode::Var => write!(f, "var"),
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
    fn display_round_trips_simple_names() {
        assert_eq!(Type::Integer.to_string(), "integer");
        assert_eq!(Type::Float.to_string(), "float");
        assert_eq!(Type::Double.to_string(), "double");
        assert_eq!(Type::Byte.to_string(), "byte");
        assert_eq!(Type::Boolean.to_string(), "boolean");
        assert_eq!(Type::String.to_string(), "string");
    }

    #[test]
    fn display_nested_array() {
        let t = arr(4, arr(2, Type::Float));
        assert_eq!(t.to_string(), "array[4] of array[2] of float");
    }

    #[test]
    fn display_record() {
        let t =
            Type::Record { fields: vec![("x".into(), Type::Double), ("n".into(), Type::Integer)] };
        assert_eq!(t.to_string(), "record (\"x\" double, \"n\" integer) end");
    }

    #[test]
    fn scalar_count_counts_leaves() {
        assert_eq!(Type::Integer.scalar_count(), 1);
        assert_eq!(arr(4, Type::Float).scalar_count(), 4);
        let rec = Type::Record {
            fields: vec![("a".into(), arr(3, Type::Double)), ("b".into(), Type::Byte)],
        };
        assert_eq!(rec.scalar_count(), 4);
        assert_eq!(arr(2, rec).scalar_count(), 8);
    }

    #[test]
    fn fixed_wire_size_scalars() {
        assert_eq!(Type::Integer.fixed_wire_size(), Some(4));
        assert_eq!(Type::Float.fixed_wire_size(), Some(4));
        assert_eq!(Type::Double.fixed_wire_size(), Some(8));
        assert_eq!(Type::Byte.fixed_wire_size(), Some(1));
        assert_eq!(Type::Boolean.fixed_wire_size(), Some(1));
        assert_eq!(Type::String.fixed_wire_size(), None);
    }

    #[test]
    fn fixed_wire_size_structured() {
        assert_eq!(arr(4, Type::Float).fixed_wire_size(), Some(16));
        let rec =
            Type::Record { fields: vec![("a".into(), Type::Double), ("b".into(), Type::Integer)] };
        assert_eq!(rec.fixed_wire_size(), Some(12));
        let with_string = Type::Record { fields: vec![("a".into(), Type::String)] };
        assert_eq!(with_string.fixed_wire_size(), None);
        assert_eq!(arr(3, Type::String).fixed_wire_size(), None);
    }

    #[test]
    fn param_mode_directions() {
        assert!(ParamMode::Val.is_input());
        assert!(!ParamMode::Val.is_output());
        assert!(!ParamMode::Res.is_input());
        assert!(ParamMode::Res.is_output());
        assert!(ParamMode::Var.is_input());
        assert!(ParamMode::Var.is_output());
    }
}
