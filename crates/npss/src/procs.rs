//! The adapted remote procedures.
//!
//! Four TESS engine modules were modified so their computations execute
//! remotely through Schooner: **shaft**, **duct**, **combustor**, and
//! **nozzle**. Each executable image contains two procedures: one called
//! once at the start of a steady-state computation (`set…`) and one called
//! repeatedly during steady-state and transient computations.
//!
//! The shaft export specification is verbatim from the paper:
//!
//! ```text
//! export setshaft prog(
//!     "ecom" val array[4] of float, "incom" val integer,
//!     "etur" val array[4] of float, "intur" val integer,
//!     "ecorr" res float)
//! export shaft prog(
//!     "ecom" val array[4] of float, "incom" val integer,
//!     "etur" val array[4] of float, "intur" val integer,
//!     "ecorr" val float, "xspool" val float, "xmyi" val float,
//!     "dxspl" res float)
//! ```
//!
//! `ecom`/`etur` carry the power demands/deliveries of up to four
//! compressors/turbines on the spool; `setshaft` computes the balance
//! correction factor `ecorr` (at an initially balanced point this is
//! exactly the mechanical efficiency); `shaft` converts the corrected
//! power imbalance into spool acceleration `dxspl` (RPM/s) given the
//! spool speed and moment of inertia.
//!
//! All gas-path values travel as single-precision `float`, as in the
//! original Fortran codes — which is why the executive's solvers run at
//! single-precision-appropriate tolerances.

use schooner::{FnProcedure, ProgramImage};
use std::sync::OnceLock;
use tess::components::{Combustor, Duct, Nozzle, Shaft};
use tess::gas::GasState;
use uts::Value;

use crate::exec::flow_to_value;

/// Standard installation path of the shaft image (the component type's
/// declared `remote_path`).
pub const SHAFT_PATH: &str = Shaft::REMOTE_PATH;
/// Standard installation path of the duct image.
pub const DUCT_PATH: &str = Duct::REMOTE_PATH;
/// Standard installation path of the combustor image.
pub const COMBUSTOR_PATH: &str = Combustor::REMOTE_PATH;
/// Standard installation path of the nozzle image.
pub const NOZZLE_PATH: &str = Nozzle::REMOTE_PATH;

/// The shaft export specification, verbatim from the paper.
pub const SHAFT_SPEC: &str = r#"
export setshaft prog(
    "ecom"   val array[4] of float,
    "incom"  val integer,
    "etur"   val array[4] of float,
    "intur"  val integer,
    "ecorr"  res float)

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

/// Duct export specification: `flow` is `[w, tt, pt, far]`.
pub const DUCT_SPEC: &str = r#"
export setduct prog(
    "dpfrac" val float,
    "ok"     res integer)

export duct prog(
    "flow"   val array[4] of float,
    "dpfrac" val float,
    "q"      val float,
    "out"    res array[4] of float)
"#;

/// Combustor export specification.
pub(crate) const COMBUSTOR_SPEC: &str = r#"
export setcomb prog(
    "eta" val float,
    "dp"  val float,
    "ok"  res integer)

export comb prog(
    "flow" val array[4] of float,
    "wf"   val float,
    "eta"  val float,
    "dp"   val float,
    "out"  res array[4] of float)
"#;

/// Nozzle export specification. `out` is
/// `[w_capacity, gross_thrust, exit_velocity, p_exit]`.
pub(crate) const NOZZLE_SPEC: &str = r#"
export setnozl prog(
    "area" val float,
    "cd"   val float,
    "cv"   val float,
    "ok"   res integer)

export nozl prog(
    "flow" val array[4] of float,
    "pamb" val float,
    "area" val float,
    "cd"   val float,
    "cv"   val float,
    "out"  res array[4] of float)
"#;

fn get_f32(v: &Value, what: &str) -> Result<f32, String> {
    match v {
        Value::Float(x) => Ok(*x),
        other => Err(format!("{what}: expected float, got {other:?}")),
    }
}

fn get_i64(v: &Value, what: &str) -> Result<i64, String> {
    v.as_i64().ok_or_else(|| format!("{what}: expected integer"))
}

fn get_f32x4(v: &Value, what: &str) -> Result<[f32; 4], String> {
    let xs = v.as_floats().ok_or_else(|| format!("{what}: expected array[4] of float"))?;
    xs.as_ref().try_into().map_err(|_| format!("{what}: wrong length"))
}

/// Sum the first `n` entries of an energy array.
fn energy_sum(e: &[f32; 4], n: i64) -> Result<f64, String> {
    if !(0..=4).contains(&n) {
        return Err(format!("energy term count {n} out of range"));
    }
    Ok(e[..n as usize].iter().map(|&x| x as f64).sum())
}

/// The paper's spool-acceleration physics shared by `setshaft`/`shaft`.
pub mod shaft_math {
    /// Balance correction factor: the ratio of compressor demand to
    /// turbine delivery at the (balanced) initial point.
    pub fn correction(ecom_sum: f64, etur_sum: f64) -> Result<f64, String> {
        if etur_sum <= 0.0 {
            return Err("setshaft: turbine energy must be positive".into());
        }
        Ok(ecom_sum / etur_sum)
    }

    /// Spool acceleration in RPM/s.
    pub fn accel(
        ecom_sum: f64,
        etur_sum: f64,
        ecorr: f64,
        xspool: f64,
        xmyi: f64,
    ) -> Result<f64, String> {
        if xspool <= 0.0 {
            return Err(format!("shaft: spool speed {xspool} must be positive"));
        }
        if xmyi <= 0.0 {
            return Err(format!("shaft: moment of inertia {xmyi} must be positive"));
        }
        let omega = xspool * std::f64::consts::PI / 30.0;
        let net = ecorr * etur_sum - ecom_sum;
        Ok(net / (xmyi * omega) * 30.0 / std::f64::consts::PI)
    }
}

/// Convert a `[w, tt, pt, far]` quadruple into a gas state.
fn flow_in(f: [f32; 4]) -> GasState {
    GasState::new(f[0] as f64, f[1] as f64, f[2] as f64, f[3] as f64)
}

/// The `npss-shaft` executable image.
pub fn shaft_image() -> ProgramImage {
    static IMAGE: OnceLock<ProgramImage> = OnceLock::new();
    IMAGE.get_or_init(build_shaft_image).clone()
}

fn build_shaft_image() -> ProgramImage {
    ProgramImage::new("npss-shaft", SHAFT_SPEC)
        .expect("spec parses")
        .with_procedure("setshaft", || {
            Box::new(FnProcedure::with_flops(
                |args: &[Value]| {
                    let ecom = get_f32x4(&args[0], "ecom")?;
                    let incom = get_i64(&args[1], "incom")?;
                    let etur = get_f32x4(&args[2], "etur")?;
                    let intur = get_i64(&args[3], "intur")?;
                    let ecorr = shaft_math::correction(
                        energy_sum(&ecom, incom)?,
                        energy_sum(&etur, intur)?,
                    )?;
                    Ok([Value::Float(ecorr as f32)])
                },
                5_000.0,
            ))
        })
        .expect("setshaft declared")
        .with_procedure("shaft", || {
            Box::new(FnProcedure::with_flops(
                |args: &[Value]| {
                    let ecom = get_f32x4(&args[0], "ecom")?;
                    let incom = get_i64(&args[1], "incom")?;
                    let etur = get_f32x4(&args[2], "etur")?;
                    let intur = get_i64(&args[3], "intur")?;
                    let ecorr = get_f32(&args[4], "ecorr")? as f64;
                    let xspool = get_f32(&args[5], "xspool")? as f64;
                    let xmyi = get_f32(&args[6], "xmyi")? as f64;
                    let dxspl = shaft_math::accel(
                        energy_sum(&ecom, incom)?,
                        energy_sum(&etur, intur)?,
                        ecorr,
                        xspool,
                        xmyi,
                    )?;
                    Ok([Value::Float(dxspl as f32)])
                },
                20_000.0,
            ))
        })
        .expect("shaft declared")
}

/// The `npss-duct` executable image.
pub fn duct_image() -> ProgramImage {
    static IMAGE: OnceLock<ProgramImage> = OnceLock::new();
    IMAGE.get_or_init(build_duct_image).clone()
}

fn build_duct_image() -> ProgramImage {
    ProgramImage::new("npss-duct", DUCT_SPEC)
        .expect("spec parses")
        .with_procedure("setduct", || {
            Box::new(FnProcedure::with_flops(
                |args: &[Value]| {
                    let dp = get_f32(&args[0], "dpfrac")?;
                    if !(0.0..1.0).contains(&dp) {
                        return Err(format!("setduct: dpfrac {dp} out of range").into());
                    }
                    Ok([Value::Integer(1)])
                },
                2_000.0,
            ))
        })
        .expect("setduct declared")
        .with_procedure("duct", || {
            Box::new(FnProcedure::with_flops(
                |args: &[Value]| {
                    let flow = flow_in(get_f32x4(&args[0], "flow")?);
                    let dp = get_f32(&args[1], "dpfrac")? as f64;
                    let q = get_f32(&args[2], "q")? as f64;
                    let out = Duct::new(dp).flow(&flow, q);
                    Ok([flow_to_value(&out)])
                },
                60_000.0,
            ))
        })
        .expect("duct declared")
}

/// The `npss-comb` executable image.
pub fn combustor_image() -> ProgramImage {
    static IMAGE: OnceLock<ProgramImage> = OnceLock::new();
    IMAGE.get_or_init(build_combustor_image).clone()
}

fn build_combustor_image() -> ProgramImage {
    ProgramImage::new("npss-comb", COMBUSTOR_SPEC)
        .expect("spec parses")
        .with_procedure("setcomb", || {
            Box::new(FnProcedure::with_flops(
                |args: &[Value]| {
                    let eta = get_f32(&args[0], "eta")?;
                    let dp = get_f32(&args[1], "dp")?;
                    if !(0.0..=1.0).contains(&eta) || !(0.0..1.0).contains(&dp) {
                        return Err("setcomb: parameters out of range".into());
                    }
                    Ok([Value::Integer(1)])
                },
                2_000.0,
            ))
        })
        .expect("setcomb declared")
        .with_procedure("comb", || {
            Box::new(FnProcedure::with_flops(
                |args: &[Value]| {
                    let flow = flow_in(get_f32x4(&args[0], "flow")?);
                    let wf = get_f32(&args[1], "wf")? as f64;
                    let eta = get_f32(&args[2], "eta")? as f64;
                    let dp = get_f32(&args[3], "dp")? as f64;
                    let out = Combustor::new(eta, dp).burn(&flow, wf)?;
                    Ok([flow_to_value(&out)])
                },
                150_000.0,
            ))
        })
        .expect("comb declared")
}

/// The `npss-nozl` executable image.
pub fn nozzle_image() -> ProgramImage {
    static IMAGE: OnceLock<ProgramImage> = OnceLock::new();
    IMAGE.get_or_init(build_nozzle_image).clone()
}

fn build_nozzle_image() -> ProgramImage {
    ProgramImage::new("npss-nozl", NOZZLE_SPEC)
        .expect("spec parses")
        .with_procedure("setnozl", || {
            Box::new(FnProcedure::with_flops(
                |args: &[Value]| {
                    let area = get_f32(&args[0], "area")?;
                    let cd = get_f32(&args[1], "cd")?;
                    let cv = get_f32(&args[2], "cv")?;
                    if area <= 0.0 || !(0.0..=1.0).contains(&cd) || !(0.0..=1.0).contains(&cv) {
                        return Err("setnozl: parameters out of range".into());
                    }
                    Ok([Value::Integer(1)])
                },
                2_000.0,
            ))
        })
        .expect("setnozl declared")
        .with_procedure("nozl", || {
            Box::new(FnProcedure::with_flops(
                |args: &[Value]| {
                    let flow = flow_in(get_f32x4(&args[0], "flow")?);
                    let pamb = get_f32(&args[1], "pamb")? as f64;
                    let area = get_f32(&args[2], "area")? as f64;
                    let cd = get_f32(&args[3], "cd")? as f64;
                    let cv = get_f32(&args[4], "cv")? as f64;
                    let nz = Nozzle::new(area, cd, cv).operate(&flow, pamb, None)?;
                    Ok([Value::floats(&[
                        nz.w_capacity as f32,
                        nz.gross_thrust as f32,
                        nz.exit_velocity as f32,
                        nz.p_exit as f32,
                    ])])
                },
                120_000.0,
            ))
        })
        .expect("nozl declared")
}

#[cfg(test)]
mod tests {
    use super::*;
    use schooner::{ProcResult, Procedure};

    /// One call of a procedure, its outputs in a fresh vector.
    pub(super) trait Outputs {
        fn outputs(&mut self, args: &[Value]) -> ProcResult<Vec<Value>>;
    }

    impl Outputs for Box<dyn Procedure> {
        fn outputs(&mut self, args: &[Value]) -> ProcResult<Vec<Value>> {
            let mut out = Vec::new();
            self.call(args, &mut out)?;
            Ok(out)
        }
    }

    #[test]
    fn shaft_spec_is_the_papers() {
        let file = uts::parse_spec_file(SHAFT_SPEC).unwrap();
        let shaft = file.find("shaft").unwrap();
        let names: Vec<&str> = shaft.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["ecom", "incom", "etur", "intur", "ecorr", "xspool", "xmyi", "dxspl"]);
        assert_eq!(shaft.output_params().count(), 1);
        let setshaft = file.find("setshaft").unwrap();
        assert_eq!(setshaft.params.len(), 5);
    }

    #[test]
    fn all_images_validate() {
        for img in [shaft_image(), duct_image(), duct2_image(), combustor_image(), nozzle_image()] {
            img.validate().unwrap();
        }
    }

    #[test]
    fn setshaft_computes_balance_correction() {
        let mut procs = shaft_image().instantiate().unwrap();
        let out = procs
            .get_mut("setshaft")
            .unwrap()
            .outputs(&[
                Value::floats(&[1.25e7, 0.0, 0.0, 0.0]),
                Value::Integer(1),
                Value::floats(&[1.2626e7, 0.0, 0.0, 0.0]),
                Value::Integer(1),
            ])
            .unwrap();
        let ecorr = match out[0] {
            Value::Float(x) => x,
            _ => panic!("{out:?}"),
        };
        assert!((ecorr - 0.99).abs() < 1e-3, "ecorr {ecorr}");
    }

    #[test]
    fn shaft_acceleration_sign_and_magnitude() {
        let mut procs = shaft_image().instantiate().unwrap();
        let shaft = procs.get_mut("shaft").unwrap();
        // Surplus turbine power accelerates the spool.
        let out = shaft
            .outputs(&[
                Value::floats(&[1.0e7, 0.0, 0.0, 0.0]),
                Value::Integer(1),
                Value::floats(&[1.1e7, 0.0, 0.0, 0.0]),
                Value::Integer(1),
                Value::Float(1.0),
                Value::Float(10_000.0),
                Value::Float(9.0),
            ])
            .unwrap();
        let dxspl = match out[0] {
            Value::Float(x) => x as f64,
            _ => panic!(),
        };
        let expect = tess::components::Shaft::new(9.0, 10_000.0, 1.0)
            .accel_rpm_per_s(10_000.0, 1.1e7, 1.0e7);
        assert!((dxspl - expect).abs() / expect.abs() < 1e-5, "{dxspl} vs {expect}");
    }

    #[test]
    fn shaft_rejects_bad_inputs() {
        let mut procs = shaft_image().instantiate().unwrap();
        let shaft = procs.get_mut("shaft").unwrap();
        let mk = |xspool: f32, xmyi: f32, intur: i64| {
            vec![
                Value::floats(&[1.0, 0.0, 0.0, 0.0]),
                Value::Integer(1),
                Value::floats(&[1.0, 0.0, 0.0, 0.0]),
                Value::Integer(intur),
                Value::Float(1.0),
                Value::Float(xspool),
                Value::Float(xmyi),
            ]
        };
        assert!(shaft.outputs(&mk(-5.0, 9.0, 1)).is_err());
        assert!(shaft.outputs(&mk(10_000.0, 0.0, 1)).is_err());
        assert!(shaft.outputs(&mk(10_000.0, 9.0, 7)).is_err());
    }

    #[test]
    fn duct_matches_tess_component() {
        let mut procs = duct_image().instantiate().unwrap();
        let out = procs
            .get_mut("duct")
            .unwrap()
            .outputs(&[
                Value::floats(&[42.0, 390.0, 2.9e5, 0.0]),
                Value::Float(0.02),
                Value::Float(0.0),
            ])
            .unwrap();
        let got = out[0].as_floats().unwrap();
        let expect = Duct::new(0.02).flow(&GasState::new(42.0, 390.0, 2.9e5, 0.0), 0.0);
        assert!((got[2] as f64 - expect.pt).abs() / expect.pt < 1e-6);
        assert_eq!(got[0], 42.0);
        assert_eq!(got[1], 390.0);
    }

    #[test]
    fn combustor_and_nozzle_round_trip_physics() {
        let mut comb = combustor_image().instantiate().unwrap();
        let out = comb
            .get_mut("comb")
            .unwrap()
            .outputs(&[
                Value::floats(&[57.0, 790.0, 2.3e6, 0.0]),
                Value::Float(1.3),
                Value::Float(0.995),
                Value::Float(0.05),
            ])
            .unwrap();
        let flow = out[0].as_floats().unwrap();
        assert!(flow[1] > 1400.0, "hot exit {}", flow[1]);
        assert!((flow[0] - 58.3).abs() < 0.01);

        let mut nozl = nozzle_image().instantiate().unwrap();
        let out = nozl
            .get_mut("nozl")
            .unwrap()
            .outputs(&[
                Value::floats(&[100.0, 800.0, 2.3e5, 0.02]),
                Value::Float(101_325.0),
                Value::Float(0.25),
                Value::Float(0.98),
                Value::Float(0.98),
            ])
            .unwrap();
        let nz = out[0].as_floats().unwrap();
        assert!(nz[0] > 0.0, "capacity");
        assert!(nz[1] > 0.0, "thrust");
        assert!(nz[2] > 300.0, "velocity {}", nz[2]);
    }

    #[test]
    fn set_procedures_validate_parameters() {
        let mut duct = duct_image().instantiate().unwrap();
        assert!(duct.get_mut("setduct").unwrap().outputs(&[Value::Float(0.02)]).is_ok());
        assert!(duct.get_mut("setduct").unwrap().outputs(&[Value::Float(1.5)]).is_err());

        let mut comb = combustor_image().instantiate().unwrap();
        assert!(comb
            .get_mut("setcomb")
            .unwrap()
            .outputs(&[Value::Float(0.995), Value::Float(0.05)])
            .is_ok());
        assert!(comb
            .get_mut("setcomb")
            .unwrap()
            .outputs(&[Value::Float(1.5), Value::Float(0.05)])
            .is_err());

        let mut nozl = nozzle_image().instantiate().unwrap();
        assert!(nozl
            .get_mut("setnozl")
            .unwrap()
            .outputs(&[Value::Float(0.25), Value::Float(0.98), Value::Float(0.98)])
            .is_ok());
        assert!(nozl
            .get_mut("setnozl")
            .unwrap()
            .outputs(&[Value::Float(-1.0), Value::Float(0.98), Value::Float(0.98)])
            .is_err());
    }
}

/// Standard installation path of the alternative (flow-dependent loss)
/// duct image — the "substitute a different code for an engine
/// component" case: same interface, different physics.
pub const DUCT2_PATH: &str = "/npss/npss-duct2";

/// The `npss-duct2` executable image: plug-compatible with `npss-duct`
/// (identical export specification) but modeling the pressure loss as
/// proportional to dynamic head — `ΔPt/Pt = dpfrac · (w/100)²` — instead
/// of a fixed fraction. Selecting it is purely a pathname-widget change.
pub fn duct2_image() -> ProgramImage {
    ProgramImage::new("npss-duct2", DUCT_SPEC)
        .expect("spec parses")
        .with_procedure("setduct", || {
            Box::new(FnProcedure::with_flops(
                |args: &[Value]| {
                    let dp = get_f32(&args[0], "dpfrac")?;
                    if !(0.0..1.0).contains(&dp) {
                        return Err(format!("setduct: dpfrac {dp} out of range").into());
                    }
                    Ok([Value::Integer(2)]) // version marker
                },
                2_000.0,
            ))
        })
        .expect("setduct declared")
        .with_procedure("duct", || {
            Box::new(FnProcedure::with_flops(
                |args: &[Value]| {
                    let flow = flow_in(get_f32x4(&args[0], "flow")?);
                    let dp_ref = get_f32(&args[1], "dpfrac")? as f64;
                    let q = get_f32(&args[2], "q")? as f64;
                    // Loss scales with dynamic head at a 100 kg/s
                    // reference flow.
                    let scale = (flow.w / 100.0).powi(2);
                    let dp = (dp_ref * scale).clamp(0.0, 0.5);
                    let out = Duct::new(dp).flow(&flow, q);
                    Ok([flow_to_value(&out)])
                },
                90_000.0,
            ))
        })
        .expect("duct declared")
}

#[cfg(test)]
mod duct2_tests {
    use super::tests::Outputs;
    use super::*;

    #[test]
    fn duct2_loss_scales_with_flow() {
        let mut procs = duct2_image().instantiate().unwrap();
        let duct = procs.get_mut("duct").unwrap();
        let mut call = |w: f32| {
            let out = duct
                .outputs(&[
                    Value::floats(&[w, 390.0, 2.9e5, 0.0]),
                    Value::Float(0.02),
                    Value::Float(0.0),
                ])
                .unwrap();
            let f = out[0].as_floats().unwrap();
            f[2] / 2.9e5 // Pt ratio
        };
        let at_ref = call(100.0);
        let at_half = call(50.0);
        assert!((at_ref as f64 - 0.98).abs() < 1e-6, "full loss at reference flow");
        assert!(at_half > at_ref, "less loss at lower flow");
        assert!((at_half as f64 - (1.0 - 0.02 * 0.25)).abs() < 1e-6);
    }

    #[test]
    fn duct2_is_plug_compatible_with_duct() {
        // Identical export specification: the system module can swap one
        // for the other without any interface change.
        assert_eq!(duct_image().spec_src(), duct2_image().spec_src());
        duct2_image().validate().unwrap();
    }
}
