//! # UTS — the Universal Type System
//!
//! UTS is the data-description half of the Schooner heterogeneous RPC
//! facility. It provides:
//!
//! * a **type model** ([`Type`], [`Value`]) covering the simple and
//!   structured types the specification language can express;
//! * a **specification language** ([`spec`]) with a Pascal-like syntax in
//!   which `export` and `import` specifications describe the parameters of
//!   remotely callable procedures;
//! * an **intermediate wire representation** through which all data
//!   passes when crossing machine boundaries: **compiled marshal plans**
//!   ([`plan`]) compile a signature once into a flat opcode sequence,
//!   pack scalar arrays contiguously, and bypass the native conversion on
//!   IEEE architectures;
//! * **per-architecture native formats** ([`native`]) and conversion
//!   routines between a machine's native representation and the wire
//!   format — including a faithful Cray-1 floating-point codec whose wider
//!   exponent range forces the out-of-range policy described in the paper;
//! * **signature checking** ([`check`]) used by the Schooner Manager to
//!   type-check calls at runtime, including the subset rule that allows an
//!   import specification to name a subset of an export's parameters.
//!
//! The plans are the crate's one codec. The tagged codec they replaced
//! (wire v1) and its Value-level native round trip are a test oracle in
//! `tests/support/oracle.rs`, compiled only into this crate's tests and
//! the A4 bench, whose conversion semantics the plans preserve exactly.
//!
//! The flow of an argument value in a remote call is:
//!
//! ```text
//! caller Value ──MarshalPlan::encode(caller arch)──▶ wire bytes
//!      wire bytes ──MarshalPlan::decode(callee arch)──▶ callee Value
//! ```
//!
//! Each side applies its own architecture's native-format conversion per
//! scalar — real byte-level conversions for the Cray and VAX formats,
//! identity for IEEE machines — so heterogeneity errors (e.g. a Cray
//! integer too large for the 32-bit wire integer) occur for the same
//! reason they did in the original system.
//!
//! # Example
//!
//! Parse the paper's shaft export specification and marshal a call's
//! arguments from a SPARC workstation toward a Cray:
//!
//! ```
//! use uts::{parse_spec_file, Architecture, MarshalPlan, Type, Value};
//!
//! let spec = parse_spec_file(r#"
//!     export setshaft prog(
//!         "ecom"  val array[4] of float,
//!         "incom" val integer,
//!         "etur"  val array[4] of float,
//!         "intur" val integer,
//!         "ecorr" res float)
//! "#).unwrap();
//! let setshaft = spec.find("setshaft").unwrap();
//! assert_eq!(setshaft.input_params().count(), 4);
//!
//! // Single-precision values convert exactly through the Cray's
//! // 48-bit-mantissa native format...
//! let v = Value::floats(&[1.0, 2.5, -3.25, 0.0]);
//! let plan = MarshalPlan::compile(&[setshaft.params[0].ty.clone()]);
//! let wire = plan.encode(&[v.clone()], Architecture::SunSparc10).unwrap();
//! assert_eq!(plan.decode(wire, Architecture::CrayYmp).unwrap(), [v]);
//!
//! // ...but an integer only the Cray's 64-bit word can hold is an error
//! // at the 32-bit wire boundary, per the paper's chosen policy.
//! let plan = MarshalPlan::compile(&[Type::Integer]);
//! assert!(plan.encode(&[Value::Integer(1 << 40)], Architecture::CrayYmp).is_err());
//! ```

pub mod arch;
pub mod check;
pub mod error;
pub mod native;
pub mod plan;
pub mod spec;
pub mod types;
pub mod value;

pub use arch::Architecture;
pub use check::{check_call_args, check_import_against_export, CheckedCall};
pub use error::{Error, Result};
pub use plan::{MarshalPlan, WIRE_V2};
pub use spec::{parse_spec_file, Direction, Parameter, ProcSpec, SpecFile};
pub use types::{ParamMode, Type};
pub use value::Value;
