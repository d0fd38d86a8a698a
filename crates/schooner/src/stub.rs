//! Stub generation: the marshaling layer between user values and the wire.
//!
//! The original system ran a *stub compiler* over each specification file
//! to produce per-procedure stubs that (a) marshal and unmarshal arguments
//! through the UTS library and (b) use the Schooner library to locate and
//! talk to the remote procedure. [`CompiledStub`] is the output of that
//! compilation step here: the precomputed input/output type lists, scalar
//! counts and one compiled [`MarshalPlan`] each for the inputs, outputs
//! and `state(...)` variables of one procedure. Every value crosses its
//! machine's **native format** on the way to and from the wire, so
//! architecture range/precision semantics apply at exactly the points
//! they did in the real system.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bytes::{Bytes, BytesMut};
use uts::check::{check_call_args, check_call_results};
use uts::spec::ProcSpec;
use uts::{Architecture, MarshalPlan, Type, Value};

use crate::error::{SchError, SchResult};

/// A compiled stub for one procedure: the marshal plan.
#[derive(Debug, Clone)]
pub struct CompiledStub {
    /// The procedure specification this stub was compiled from.
    pub spec: ProcSpec,
    /// Types of input parameters (`val`/`var`), in order.
    pub input_types: Vec<Type>,
    /// Types of output parameters (`res`/`var`), in order.
    pub output_types: Vec<Type>,
    /// Scalar leaves across all inputs (drives conversion cost).
    pub input_scalars: usize,
    /// Scalar leaves across all outputs.
    pub output_scalars: usize,
    /// Compiled plan for the input parameter list.
    pub input_plan: MarshalPlan,
    /// Compiled plan for the output parameter list.
    pub output_plan: MarshalPlan,
    /// Compiled plan for the `state(...)` variable list.
    pub state_plan: MarshalPlan,
}

impl CompiledStub {
    /// "Compile" a specification into a stub.
    pub fn compile(spec: &ProcSpec) -> Self {
        let input_types: Vec<Type> = spec.input_params().map(|p| p.ty.clone()).collect();
        let output_types: Vec<Type> = spec.output_params().map(|p| p.ty.clone()).collect();
        let input_scalars = input_types.iter().map(Type::scalar_count).sum();
        let output_scalars = output_types.iter().map(Type::scalar_count).sum();
        let input_plan = MarshalPlan::compile(&input_types);
        let output_plan = MarshalPlan::compile(&output_types);
        let state_plan = MarshalPlan::compile(spec.state.iter().map(|(_, ty)| ty));
        Self {
            spec: spec.clone(),
            input_types,
            output_types,
            input_scalars,
            output_scalars,
            input_plan,
            output_plan,
            state_plan,
        }
    }

    /// Marshal input arguments on the **sending** side: validate against
    /// the spec, pass each through the sender's native format, encode to
    /// wire bytes.
    pub fn marshal_inputs(&self, args: &[Value], arch: Architecture) -> SchResult<Bytes> {
        check_call_args(&self.spec, args)?;
        Ok(self.input_plan.encode(args, arch)?)
    }

    /// Like [`CompiledStub::marshal_inputs`] but encoding into a
    /// caller-owned scratch buffer, so a long-lived line reuses one
    /// allocation across calls. The buffer is cleared first and holds the
    /// full payload on return.
    pub fn marshal_inputs_into(
        &self,
        buf: &mut BytesMut,
        args: &[Value],
        arch: Architecture,
    ) -> SchResult<()> {
        check_call_args(&self.spec, args)?;
        Ok(self.input_plan.encode_into(buf, args, arch)?)
    }

    /// Unmarshal input arguments on the **receiving** side: decode wire
    /// bytes, pass each through the receiver's native format.
    pub fn unmarshal_inputs(&self, bytes: Bytes, arch: Architecture) -> SchResult<Vec<Value>> {
        Ok(self.input_plan.decode(bytes, arch)?)
    }

    /// Like [`CompiledStub::unmarshal_inputs`] but into a caller-owned
    /// vector (cleared first; empty on error).
    pub fn unmarshal_inputs_into(
        &self,
        bytes: Bytes,
        arch: Architecture,
        out: &mut Vec<Value>,
    ) -> SchResult<()> {
        Ok(self.input_plan.decode_into(bytes, arch, out)?)
    }

    /// Marshal result values on the callee side.
    pub fn marshal_outputs(&self, results: &[Value], arch: Architecture) -> SchResult<Bytes> {
        check_call_results(&self.spec, results)?;
        Ok(self.output_plan.encode(results, arch)?)
    }

    /// Like [`CompiledStub::marshal_outputs`] but appending to `buf`
    /// after what it already holds (the reply message's header).
    pub fn marshal_outputs_after(
        &self,
        buf: &mut BytesMut,
        results: &[Value],
        arch: Architecture,
    ) -> SchResult<()> {
        check_call_results(&self.spec, results)?;
        Ok(self.output_plan.encode_after(buf, results, arch)?)
    }

    /// Unmarshal result values on the caller side, into a caller-owned
    /// vector (cleared first; empty on error).
    pub fn unmarshal_outputs_into(
        &self,
        bytes: Bytes,
        arch: Architecture,
        out: &mut Vec<Value>,
    ) -> SchResult<()> {
        Ok(self.output_plan.decode_into(bytes, arch, out)?)
    }

    /// Marshal this procedure's `state(...)` variables through the source
    /// architecture (checkpoints and migration state transfer).
    pub fn marshal_state(&self, values: &[Value], arch: Architecture) -> SchResult<Bytes> {
        if self.spec.state.len() != values.len() {
            return Err(SchError::StateTransfer(format!(
                "spec declares {} state variables, procedure produced {}",
                self.spec.state.len(),
                values.len()
            )));
        }
        Ok(self.state_plan.encode(values, arch)?)
    }

    /// Unmarshal `state(...)` variables on the destination architecture.
    pub fn unmarshal_state(&self, bytes: Bytes, arch: Architecture) -> SchResult<Vec<Value>> {
        Ok(self.state_plan.decode(bytes, arch)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAFT: &str = r#"
export shaft prog(
    "ecom"   val array[4] of float,
    "incom"  val integer,
    "etur"   val array[4] of float,
    "intur"  val integer,
    "ecorr"  val float,
    "xspool" val float,
    "xmyi"   val float,
    "dxspl"  res float)
"#;

    fn shaft_stub() -> CompiledStub {
        let file = uts::parse_spec_file(SHAFT).unwrap();
        CompiledStub::compile(&file.decls[0])
    }

    fn shaft_args() -> Vec<Value> {
        vec![
            Value::floats(&[0.82, 0.84, 0.86, 0.88]),
            Value::Integer(2),
            Value::floats(&[0.90, 0.91, 0.92, 0.93]),
            Value::Integer(3),
            Value::Float(0.97),
            Value::Float(10_500.0),
            Value::Float(1.25),
        ]
    }

    #[test]
    fn compile_counts_scalars() {
        let stub = shaft_stub();
        assert_eq!(stub.input_types.len(), 7);
        assert_eq!(stub.output_types.len(), 1);
        assert_eq!(stub.input_scalars, 4 + 1 + 4 + 1 + 1 + 1 + 1);
        assert_eq!(stub.output_scalars, 1);
    }

    #[test]
    fn sparc_to_cray_round_trip_is_exact_for_floats() {
        let stub = shaft_stub();
        let args = shaft_args();
        let wire = stub.marshal_inputs(&args, Architecture::SunSparc10).unwrap();
        let on_cray = stub.unmarshal_inputs(wire, Architecture::CrayYmp).unwrap();
        assert_eq!(on_cray, args, "single-precision floats convert exactly");
    }

    #[test]
    fn all_architecture_pairs_convert_shaft_args() {
        let stub = shaft_stub();
        let args = shaft_args();
        for from in Architecture::ALL {
            for to in Architecture::ALL {
                let wire = stub.marshal_inputs(&args, from).unwrap();
                assert_eq!(wire[0], uts::plan::V2_MAGIC);
                let got = stub.unmarshal_inputs(wire, to).unwrap();
                assert_eq!(got, args, "{from} -> {to}");
            }
        }
    }

    #[test]
    fn wrong_arity_rejected_at_marshal() {
        let stub = shaft_stub();
        let mut args = shaft_args();
        args.pop();
        assert!(stub.marshal_inputs(&args, Architecture::SunSparc10).is_err());
    }

    #[test]
    fn outputs_round_trip() {
        let stub = shaft_stub();
        let results = vec![Value::Float(-123.5)];
        let wire = stub.marshal_outputs(&results, Architecture::CrayYmp).unwrap();
        let mut got = vec![Value::Integer(7)];
        stub.unmarshal_outputs_into(wire, Architecture::SunSparc10, &mut got).unwrap();
        assert_eq!(got, results);
    }

    #[test]
    fn big_cray_integer_fails_at_the_wire() {
        // An integer produced on the Cray that exceeds the 32-bit wire
        // integer cannot be marshaled: the paper's chosen policy is error.
        let file =
            uts::parse_spec_file(r#"export f prog("n" val integer, "m" res integer)"#).unwrap();
        let stub = CompiledStub::compile(&file.decls[0]);
        let err =
            stub.marshal_inputs(&[Value::Integer(1 << 40)], Architecture::CrayYmp).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    fn state_stub(state: &str) -> CompiledStub {
        let src = format!(r#"export h prog("x" val double, "y" res double) state({state})"#);
        CompiledStub::compile(&uts::parse_spec_file(&src).unwrap().decls[0])
    }

    #[test]
    fn state_round_trip() {
        let stub = state_stub(r#""t" double, "hist" array[3] of double"#);
        let values = vec![Value::Double(1.5), Value::doubles(&[0.125, 0.25, 0.375])];
        let wire = stub.marshal_state(&values, Architecture::CrayYmp).unwrap();
        let got = stub.unmarshal_state(wire, Architecture::ConvexC220).unwrap();
        assert_eq!(got, values);
    }

    #[test]
    fn state_count_mismatch_rejected() {
        let stub = state_stub(r#""t" double"#);
        let err = stub.marshal_state(&[], Architecture::SunSparc10).unwrap_err();
        assert!(matches!(err, SchError::StateTransfer(_)), "{err}");
    }

    /// A checkpoint captured on any architecture restores bit-exactly on
    /// any other — the property crash recovery of distributed transients
    /// rests on. The values sit at the edges of the cross-architecture
    /// range: the Cray word caps the mantissa at 48 bits, the VAX F/D
    /// formats cap the exponent near ±2^127.
    #[test]
    fn checkpoint_state_survives_every_architecture_pair() {
        let mant48 = (1u64 << 48) - 1; // widest mantissa every format holds
        let big = mant48 as f64 * 2f64.powi(78); // ~3.0e37, near the VAX ceiling
        let tiny = 2f64.powi(-120); // near the VAX floor
        let stub = state_stub(
            r#""t" double, "edges" array[4] of double, "gains" array[3] of float, "steps" integer"#,
        );
        let values = vec![
            Value::Double(0.125),
            Value::doubles(&[big, -big, tiny, -tiny]),
            Value::floats(&[8.5e37, -8.5e37, 1.2e-38]),
            Value::Integer(i32::MAX as i64),
        ];
        for from in Architecture::ALL {
            for to in Architecture::ALL {
                let wire = stub.marshal_state(&values, from).unwrap();
                let got = stub.unmarshal_state(wire.clone(), to).unwrap();
                assert_eq!(got, values, "{from} -> {to}");
                // Re-checkpointing a restored instance produces the same
                // wire bytes, so relays through third hosts stay exact.
                let rewire = stub.marshal_state(&got, to).unwrap();
                assert_eq!(rewire, wire, "{from} -> {to} re-marshal");
            }
        }
    }

    /// Doubles with more than 48 significant bits cannot survive a Cray
    /// restore exactly: the low bits round away, silently, exactly as a
    /// real Cray computation would have produced them.
    #[test]
    fn cray_restore_rounds_to_its_48_bit_mantissa() {
        let stub = state_stub(r#""x" double"#);
        let fine = f64::from_bits(0x3FF0_0000_0000_000F); // 1 + 15 * 2^-52
        let wire = stub.marshal_state(&[Value::Double(fine)], Architecture::SunSparc10).unwrap();
        let got = stub.unmarshal_state(wire, Architecture::CrayYmp).unwrap();
        let Value::Double(x) = got[0] else { panic!("{got:?}") };
        assert_ne!(x, fine, "the low mantissa bits do not fit the Cray word");
        assert!((x - fine).abs() < 1e-12, "rounding is to nearest: {x}");
    }

    #[test]
    fn marshal_into_reuses_the_scratch_buffer() {
        let stub = shaft_stub();
        let args = shaft_args();
        let mut buf = BytesMut::new();
        stub.marshal_inputs_into(&mut buf, &args, Architecture::SunSparc10).unwrap();
        let first = Bytes::copy_from_slice(&buf);
        stub.marshal_inputs_into(&mut buf, &args, Architecture::SunSparc10).unwrap();
        assert_eq!(&buf[..], &first[..], "re-encode is reproducible");
        let direct = stub.marshal_inputs(&args, Architecture::SunSparc10).unwrap();
        assert_eq!(&buf[..], &direct[..]);
    }

    #[test]
    fn trailing_bytes_rejected_in_unmarshal() {
        let stub = shaft_stub();
        let wire = stub.marshal_inputs(&shaft_args(), Architecture::SunSparc10).unwrap();
        let mut longer = wire.to_vec();
        longer.extend_from_slice(&[0, 0]);
        assert!(stub.unmarshal_inputs(Bytes::from(longer), Architecture::Sgi4D).is_err());
    }

    /// The runtime speaks one codec: a payload of the reference tagged
    /// codec (wire v1: array tag, count 1, float tag, 1.0f32 big-endian)
    /// is a typed wire error here, never a fallback.
    #[test]
    fn reference_codec_payload_is_a_typed_error() {
        let stub = shaft_stub();
        let tagged = Bytes::from_static(b"\x07\x00\x00\x00\x01\x02\x3f\x80\x00\x00");
        let err = stub.unmarshal_inputs(tagged, Architecture::SunSparc10).unwrap_err();
        assert!(matches!(err, SchError::Uts(uts::Error::Wire(_))), "{err}");
    }
}
