//! The assembled engine and its steady-state balance — the computational
//! heart of the TESS *system* module.
//!
//! [`Turbofan::from_design`] builds a twin-spool mixed-flow turbofan whose
//! component maps are synthesized around the forward design calculation,
//! so the design point is an exact solution of the balance equations.
//!
//! The match problem: the engine's free variables are the two spool
//! speeds, the fan and HPC map beta parameters, and the two turbine
//! expansion ratios; the matching conditions are flow continuity at the
//! HPC, HPT, LPT, and nozzle, plus power balance on both spools. TESS
//! "first attempts to balance the engine at the initial operating point
//! through a steady-state calculation" — that is [`Turbofan::balance`],
//! solved by Newton–Raphson or by fourth-order Runge–Kutta pseudo-
//! transient relaxation, the two steady-state choices in the system
//! module's control panel.
//!
//! The gas path is written once, in [`Turbofan::evaluate_with`]. Four of
//! its modules — the two ducts, the combustor and the nozzle — are reached
//! through [`AdaptedModules`], the seam the paper's executive adapts so
//! their computations can execute remotely; [`Turbofan::evaluate`] passes
//! the engine's own components through it.

use crate::components::{
    Bleed, Combustor, Compressor, Duct, Inlet, MixingVolume, Nozzle, Shaft, Splitter, Turbine,
};
use crate::design::{CycleDesign, DesignPoint};
use crate::gas::{GasState, P_STD, T_STD};
use crate::maps::{CompressorMap, TurbineMap};
use crate::solver::newton::{newton_solve, NewtonOptions};
use crate::solver::ode::{Integrator, RungeKutta4};

/// Ambient/flight condition for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightCondition {
    /// Ambient static temperature, K.
    pub t_amb: f64,
    /// Ambient static pressure, Pa.
    pub p_amb: f64,
    /// Flight Mach number.
    pub mach: f64,
}

impl FlightCondition {
    /// Sea-level static, standard day.
    pub(crate) fn sea_level_static() -> Self {
        Self { t_amb: T_STD, p_amb: P_STD, mach: 0.0 }
    }
}

/// Stator-vane settings driven by the transient control schedules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatorSettings {
    /// Fan inlet guide vane angle, degrees from nominal.
    pub fan_deg: f64,
    /// HPC stator angle, degrees from nominal.
    pub hpc_deg: f64,
}

/// A fully evaluated engine operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// Low spool speed, RPM.
    pub n1: f64,
    /// High spool speed, RPM.
    pub n2: f64,
    /// Fuel flow, kg/s.
    pub wf: f64,
    /// Engine-face state.
    pub st2: GasState,
    /// Fan exit.
    pub st21: GasState,
    /// HPC face (core stream).
    pub st25: GasState,
    /// Bypass stream at mixer face.
    pub st16: GasState,
    /// HPC exit.
    pub st3: GasState,
    /// Combustor exit.
    pub st4: GasState,
    /// HPT exit.
    pub st45: GasState,
    /// LPT exit.
    pub st5: GasState,
    /// Mixer exit.
    pub st6: GasState,
    /// Nozzle face.
    pub st7: GasState,
    /// Fan shaft power, W.
    pub p_fan: f64,
    /// HPC shaft power, W.
    pub p_hpc: f64,
    /// HPT shaft power, W.
    pub p_hpt: f64,
    /// LPT shaft power, W.
    pub p_lpt: f64,
    /// Net thrust, N.
    pub thrust: f64,
    /// Thrust-specific fuel consumption, kg/(N·s).
    pub sfc: f64,
    /// Actual bypass ratio at this point (floats off-design to satisfy
    /// the mixer pressure balance).
    pub bpr: f64,
    /// Match residuals [HPC flow, HPT flow, LPT flow, nozzle flow, mixer
    /// pressure balance], design-normalized.
    pub flow_residuals: [f64; 5],
}

/// Steady-state solution method (the system module's widget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteadyMethod {
    /// Newton–Raphson on the full six-unknown match problem.
    NewtonRaphson,
    /// Fourth-order Runge–Kutta pseudo-transient relaxation of the spool
    /// dynamics to equilibrium.
    RungeKutta4,
}

/// Result of balancing the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceReport {
    /// The balanced operating point.
    pub point: OperatingPoint,
    /// Iterations the method used (Newton iterations, or RK4 steps).
    pub iterations: usize,
    /// Final residual norm (all six residuals).
    pub residual_norm: f64,
}

/// A twin-spool mixed-flow turbofan.
#[derive(Debug, Clone)]
pub struct Turbofan {
    /// Inlet.
    pub inlet: Inlet,
    /// Fan (whole-flow low-pressure compressor).
    pub fan: Compressor,
    /// Bypass duct.
    pub bypass_duct: Duct,
    /// High-pressure compressor.
    pub hpc: Compressor,
    /// HPC exit bleed.
    pub bleed: Bleed,
    /// Combustor.
    pub combustor: Combustor,
    /// High-pressure turbine.
    pub hpt: Turbine,
    /// Low-pressure turbine.
    pub lpt: Turbine,
    /// Bypass/core mixer.
    pub mixer: MixingVolume,
    /// Tailpipe.
    pub tailpipe: Duct,
    /// Exhaust nozzle.
    pub nozzle: Nozzle,
    /// Low spool.
    pub lp_shaft: Shaft,
    /// High spool.
    pub hp_shaft: Shaft,
    /// The design point the model was anchored to.
    pub design: DesignPoint,
    /// The design requirements.
    pub cycle: CycleDesign,
    /// Current stator settings.
    pub stators: StatorSettings,
    /// Current flight condition.
    pub flight: FlightCondition,
}

/// The four modules of the gas path that the executive adapts to run
/// remotely (the shafts act on an evaluated point, outside the gas path),
/// in the order [`Turbofan::evaluate_with`] reaches them.
pub trait AdaptedModules {
    /// The bypass duct and the combustor together — the gas path reaches
    /// both with both inlet states known: the bypass stream and the HPC
    /// exit after bleed, burning `wf` kg/s of fuel. Returns (bypass duct
    /// exit, combustor exit).
    fn duct_and_burn(
        &mut self,
        bypass: &GasState,
        core: &GasState,
        wf: f64,
    ) -> Result<(GasState, GasState), String>;

    /// The tailpipe duct: mixer exit in, nozzle face out.
    fn tailpipe(&mut self, mixed: &GasState) -> Result<GasState, String>;

    /// The nozzle flowing `face` against ambient `p_amb`: (flow capacity,
    /// gross thrust).
    fn nozzle(&mut self, face: &GasState, p_amb: f64) -> Result<(f64, f64), String>;
}

/// The engine's own components behind the seam.
struct OwnModules<'a>(&'a Turbofan);

impl AdaptedModules for OwnModules<'_> {
    fn duct_and_burn(
        &mut self,
        bypass: &GasState,
        core: &GasState,
        wf: f64,
    ) -> Result<(GasState, GasState), String> {
        Ok((self.0.bypass_duct.flow(bypass, 0.0), self.0.combustor.burn(core, wf)?))
    }

    fn tailpipe(&mut self, mixed: &GasState) -> Result<GasState, String> {
        Ok(self.0.tailpipe.flow(mixed, 0.0))
    }

    fn nozzle(&mut self, face: &GasState, p_amb: f64) -> Result<(f64, f64), String> {
        let nz = self.0.nozzle.operate(face, p_amb, None)?;
        Ok((nz.w_capacity, nz.gross_thrust))
    }
}

impl Turbofan {
    /// Build an engine from a cycle design, synthesizing maps anchored at
    /// the design point.
    pub fn from_design(cycle: CycleDesign) -> Result<Self, String> {
        let design = cycle.design_point()?;
        let fan_map =
            CompressorMap::synthetic("fan", design.st2.corrected_flow(), cycle.fpr, cycle.fan_eff);
        let hpc_map = CompressorMap::synthetic(
            "hpc",
            design.st25.corrected_flow(),
            cycle.hpc_pr,
            cycle.hpc_eff,
        );
        // Turbine map speeds are referred to their design *inlet*
        // temperatures so that nc = 1 at design.
        let hpt_map =
            TurbineMap::synthetic("hpt", design.st4.corrected_flow(), design.er_hpt, cycle.hpt_eff);
        let lpt_map = TurbineMap::synthetic(
            "lpt",
            design.st45.corrected_flow(),
            design.er_lpt,
            cycle.lpt_eff,
        );
        Ok(Self {
            inlet: Inlet::new(cycle.ram_recovery),
            // Compressor map speeds are referred to their design *inlet*
            // temperatures so nc = 1 at the design point (the fan sees
            // T_STD at the sea-level-static design, the HPC sees the fan
            // exit temperature).
            fan: Compressor::new("fan", fan_map, cycle.n1_design / (design.st2.tt / T_STD).sqrt()),
            bypass_duct: Duct::new(cycle.bypass_dp),
            hpc: Compressor::new("hpc", hpc_map, cycle.n2_design / (design.st25.tt / T_STD).sqrt()),
            bleed: Bleed::new(cycle.bleed_frac),
            combustor: Combustor::new(cycle.comb_eta, cycle.comb_dp),
            hpt: Turbine::new("hpt", hpt_map, cycle.n2_design / (design.st4.tt / T_STD).sqrt()),
            lpt: Turbine::new("lpt", lpt_map, cycle.n1_design / (design.st45.tt / T_STD).sqrt()),
            mixer: MixingVolume::new(0.6, cycle.mixer_dp),
            tailpipe: Duct::new(cycle.tailpipe_dp),
            nozzle: Nozzle::new(design.nozzle_area, cycle.nozzle_cd, cycle.nozzle_cv),
            lp_shaft: Shaft::new(cycle.i1, cycle.n1_design, cycle.mech_eff),
            hp_shaft: Shaft::new(cycle.i2, cycle.n2_design, cycle.mech_eff),
            design,
            cycle,
            stators: StatorSettings::default(),
            flight: FlightCondition::sea_level_static(),
        })
    }

    /// The F100-class engine.
    pub fn f100() -> Result<Self, String> {
        Self::from_design(CycleDesign::f100_class())
    }

    /// The design-point inner unknowns `[beta_fan, beta_hpc, er_hpt,
    /// er_lpt, bpr_fraction]`, the standard warm start.
    pub fn design_inner_guess(&self) -> [f64; 5] {
        [0.5, 0.5, self.design.er_hpt, self.design.er_lpt, 1.0]
    }

    /// Evaluate the gas path at spool speeds (`n1`, `n2`), fuel flow
    /// `wf`, and inner unknowns `x = [beta_fan, beta_hpc, er_hpt,
    /// er_lpt, bpr_fraction]` (bypass ratio relative to design — the
    /// split floats off-design so the mixer pressure balance can hold).
    /// Every flow/pressure/work relation is applied; the five match
    /// residuals report how inconsistent `x` still is.
    pub fn evaluate(
        &self,
        n1: f64,
        n2: f64,
        wf: f64,
        x: &[f64; 5],
    ) -> Result<OperatingPoint, String> {
        self.evaluate_with(&mut OwnModules(self), n1, n2, wf, x)
    }

    /// [`Turbofan::evaluate`] with the bypass duct, combustor, tailpipe
    /// and nozzle supplied by `adapted`. The engine's own physics (inlet,
    /// fan, split, HPC and bleed) runs before the first seam call, so a
    /// fault found there is reported before any adapted module is asked;
    /// an error from the seam is returned unchanged.
    pub fn evaluate_with(
        &self,
        adapted: &mut impl AdaptedModules,
        n1: f64,
        n2: f64,
        wf: f64,
        x: &[f64; 5],
    ) -> Result<OperatingPoint, String> {
        let [beta_fan, beta_hpc, er_hpt, er_lpt, bpr_frac] = *x;
        if !(0.1..=8.0).contains(&bpr_frac) {
            return Err(format!("bypass-ratio fraction {bpr_frac} outside model range"));
        }
        let bpr = self.cycle.bpr * bpr_frac;

        // Engine face: temperatures and pressures don't depend on flow,
        // so capture with a placeholder and set the flow the fan map
        // demands.
        let probe = self.inlet.capture(self.flight.t_amb, self.flight.p_amb, self.flight.mach, 1.0);
        let nc_fan = self.fan.corrected_speed(n1, probe.tt);
        let fan_pt = self.fan.map.lookup(nc_fan, beta_fan).map_err(|e| format!("fan: {e}"))?;
        let wc_fan = fan_pt.wc * (1.0 + 0.008 * self.stators.fan_deg);
        let w2 = wc_fan * (probe.pt / P_STD) / (probe.tt / T_STD).sqrt();
        let st2 = GasState::new(w2, probe.tt, probe.pt, 0.0);

        let fan_res = self.fan.operate(&st2, n1, beta_fan, self.stators.fan_deg)?;
        let st21 = fan_res.exit;
        let (st25, bypass) = Splitter::new(bpr).split(&st21);

        let hpc_res = self.hpc.operate(&st25, n2, beta_hpc, self.stators.hpc_deg)?;
        let st3 = hpc_res.exit;
        let r_hpc = (hpc_res.wc_map - st25.corrected_flow()) / self.design.st25.corrected_flow();

        let (st3m, _bleed_out) = self.bleed.extract(&st3);
        let (st16, st4) = adapted.duct_and_burn(&bypass, &st3m, wf)?;

        let hpt_res = self.hpt.operate(&st4, n2, er_hpt)?;
        let st45 = hpt_res.exit;
        let r_hpt = (hpt_res.wc_map - st4.corrected_flow()) / self.design.st4.corrected_flow();

        let lpt_res = self.lpt.operate(&st45, n1, er_lpt)?;
        let st5 = lpt_res.exit;
        let r_lpt = (lpt_res.wc_map - st45.corrected_flow()) / self.design.st45.corrected_flow();

        // Mixer pressure balance: the core and bypass streams meet at
        // the mixing plane with the same total-pressure ratio they had at
        // design; the floating bypass ratio is the degree of freedom that
        // enforces it.
        let design_mix_ratio = self.design.st5.pt / self.design.st16.pt;
        let r_mix = (st5.pt / st16.pt) / design_mix_ratio - 1.0;

        let st6 = self.mixer.mix(&st5, &st16);
        let st7 = adapted.tailpipe(&st6)?;
        let (w_capacity, gross_thrust) = adapted.nozzle(&st7, self.flight.p_amb)?;
        let r_noz = (w_capacity - st7.w) / self.design.st7.w;

        let ram_drag = st2.w * Inlet::flight_velocity(self.flight.t_amb, self.flight.mach);
        let thrust = gross_thrust - ram_drag;

        Ok(OperatingPoint {
            n1,
            n2,
            wf,
            st2,
            st21,
            st25,
            st16,
            st3,
            st4,
            st45,
            st5,
            st6,
            st7,
            p_fan: fan_res.power,
            p_hpc: hpc_res.power,
            p_hpt: hpt_res.power,
            p_lpt: lpt_res.power,
            thrust,
            sfc: if thrust > 0.0 { wf / thrust } else { f64::NAN },
            bpr,
            flow_residuals: [r_hpc, r_hpt, r_lpt, r_noz, r_mix],
        })
    }

    /// Solve the four inner unknowns at fixed spool speeds and fuel flow
    /// (the quasi-steady flow match inside every transient derivative
    /// evaluation). `guess` is warm-started and updated in place.
    pub fn solve_inner(
        &self,
        n1: f64,
        n2: f64,
        wf: f64,
        guess: &mut [f64; 5],
    ) -> Result<OperatingPoint, String> {
        let f = |x: &[f64], r: &mut [f64]| -> Result<(), String> {
            let op = self.evaluate(n1, n2, wf, &[x[0], x[1], x[2], x[3], x[4]])?;
            r.copy_from_slice(&op.flow_residuals);
            Ok(())
        };
        let opts = NewtonOptions { tol: 1e-9, max_iters: 50, ..Default::default() };
        let report = newton_solve(f, guess.as_slice(), &opts).map_err(|e| e.to_string())?;
        guess.copy_from_slice(&report.x);
        self.evaluate(n1, n2, wf, guess)
    }

    /// Spool accelerations (RPM/s) at an operating point.
    pub fn spool_accels(&self, op: &OperatingPoint) -> (f64, f64) {
        let a1 = self.lp_shaft.accel_rpm_per_s(op.n1, op.p_lpt, op.p_fan);
        let a2 = self.hp_shaft.accel_rpm_per_s(op.n2, op.p_hpt, op.p_hpc);
        (a1, a2)
    }

    /// Balance the engine at fuel flow `wf`: find spool speeds and inner
    /// unknowns making all six residuals vanish.
    pub fn balance(&self, wf: f64, method: SteadyMethod) -> Result<BalanceReport, String> {
        match method {
            SteadyMethod::NewtonRaphson => self.balance_newton(wf),
            SteadyMethod::RungeKutta4 => self.balance_rk4(wf),
        }
    }

    fn balance_newton(&self, wf: f64) -> Result<BalanceReport, String> {
        let n1d = self.cycle.n1_design;
        let n2d = self.cycle.n2_design;
        let x0 = [1.0, 1.0, 0.5, 0.5, self.design.er_hpt, self.design.er_lpt, 1.0];
        let f = |x: &[f64], r: &mut [f64]| -> Result<(), String> {
            let op = self.evaluate(x[0] * n1d, x[1] * n2d, wf, &[x[2], x[3], x[4], x[5], x[6]])?;
            r[..5].copy_from_slice(&op.flow_residuals);
            r[5] = self.lp_shaft.balance_residual(op.p_lpt, op.p_fan);
            r[6] = self.hp_shaft.balance_residual(op.p_hpt, op.p_hpc);
            Ok(())
        };
        let opts = NewtonOptions { tol: 1e-8, max_iters: 80, ..Default::default() };
        let rep = newton_solve(f, &x0, &opts).map_err(|e| format!("engine balance: {e}"))?;
        let point = self.evaluate(
            rep.x[0] * n1d,
            rep.x[1] * n2d,
            wf,
            &[rep.x[2], rep.x[3], rep.x[4], rep.x[5], rep.x[6]],
        )?;
        Ok(BalanceReport { point, iterations: rep.iterations, residual_norm: rep.residual_norm })
    }

    /// Pseudo-transient relaxation: integrate the spool dynamics with RK4
    /// (inner flow match solved each evaluation) until the accelerations
    /// die out.
    fn balance_rk4(&self, wf: f64) -> Result<BalanceReport, String> {
        let mut y = [self.cycle.n1_design, self.cycle.n2_design];
        let mut inner = self.design_inner_guess();
        let mut rk = RungeKutta4;
        let dt = 0.05;
        let mut steps = 0;
        #[allow(clippy::explicit_counter_loop)] // `steps` outlives the loop for the report
        for _ in 0..4000 {
            let mut f = |_t: f64, y: &[f64], d: &mut [f64]| -> Result<(), String> {
                let op = self.solve_inner(y[0], y[1], wf, &mut inner)?;
                (d[0], d[1]) = self.spool_accels(&op);
                Ok(())
            };
            rk.step(&mut f, 0.0, &mut y, dt)?;
            steps += 1;
            let op = self.solve_inner(y[0], y[1], wf, &mut inner)?;
            let (a1, a2) = self.spool_accels(&op);
            // Converged when both spools would drift less than 0.1 RPM/s.
            if a1.abs() < 0.1 && a2.abs() < 0.1 {
                let r_lp = self.lp_shaft.balance_residual(op.p_lpt, op.p_fan);
                let r_hp = self.hp_shaft.balance_residual(op.p_hpt, op.p_hpc);
                let mut rn = op.flow_residuals.iter().map(|r| r * r).sum::<f64>();
                rn += r_lp * r_lp + r_hp * r_hp;
                return Ok(BalanceReport {
                    point: op,
                    iterations: steps,
                    residual_norm: rn.sqrt(),
                });
            }
        }
        Err("RK4 relaxation did not reach equilibrium".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Turbofan {
        Turbofan::f100().unwrap()
    }

    #[test]
    fn design_point_is_an_exact_solution() {
        let e = engine();
        let op = e
            .evaluate(e.cycle.n1_design, e.cycle.n2_design, e.design.wf, &e.design_inner_guess())
            .unwrap();
        for (i, r) in op.flow_residuals.iter().enumerate() {
            assert!(r.abs() < 1e-6, "residual {i} = {r}");
        }
        let (a1, a2) = e.spool_accels(&op);
        assert!(a1.abs() < 1.0, "LP accel {a1} RPM/s");
        assert!(a2.abs() < 1.0, "HP accel {a2} RPM/s");
        assert!((op.thrust - e.design.thrust).abs() / e.design.thrust < 1e-3);
    }

    #[test]
    fn newton_balance_recovers_design_at_design_fuel() {
        let e = engine();
        let rep = e.balance(e.design.wf, SteadyMethod::NewtonRaphson).unwrap();
        assert!(rep.residual_norm < 1e-8);
        assert!((rep.point.n1 - e.cycle.n1_design).abs() / e.cycle.n1_design < 1e-3);
        assert!((rep.point.n2 - e.cycle.n2_design).abs() / e.cycle.n2_design < 1e-3);
        assert!((rep.point.thrust - e.design.thrust).abs() / e.design.thrust < 1e-3);
    }

    #[test]
    fn reduced_fuel_gives_lower_speeds_and_thrust() {
        let e = engine();
        let rep = e.balance(0.9 * e.design.wf, SteadyMethod::NewtonRaphson).unwrap();
        assert!(rep.point.n1 < e.cycle.n1_design);
        assert!(rep.point.n2 < e.cycle.n2_design);
        assert!(rep.point.thrust < e.design.thrust);
        assert!(rep.point.st4.tt < e.design.st4.tt, "TIT falls at part power");
    }

    #[test]
    fn rk4_relaxation_agrees_with_newton() {
        let e = engine();
        let wf = 0.95 * e.design.wf;
        let newton = e.balance(wf, SteadyMethod::NewtonRaphson).unwrap();
        let rk4 = e.balance(wf, SteadyMethod::RungeKutta4).unwrap();
        let dn1 = (newton.point.n1 - rk4.point.n1).abs() / newton.point.n1;
        let dthrust = (newton.point.thrust - rk4.point.thrust).abs() / newton.point.thrust;
        assert!(dn1 < 5e-3, "N1 mismatch {dn1}");
        assert!(dthrust < 2e-2, "thrust mismatch {dthrust}");
    }

    #[test]
    fn solve_inner_drives_flow_residuals_to_zero_off_design() {
        let e = engine();
        let mut guess = e.design_inner_guess();
        let op = e
            .solve_inner(
                0.97 * e.cycle.n1_design,
                0.99 * e.cycle.n2_design,
                0.92 * e.design.wf,
                &mut guess,
            )
            .unwrap();
        for r in op.flow_residuals {
            assert!(r.abs() < 1e-7, "{:?}", op.flow_residuals);
        }
        // Off-design: the inner unknowns moved away from design.
        assert!((guess[0] - 0.5).abs() > 1e-4 || (guess[1] - 0.5).abs() > 1e-4);
    }

    #[test]
    fn closing_hpc_stators_reduces_flow() {
        let mut e = engine();
        let base = e.balance(e.design.wf, SteadyMethod::NewtonRaphson).unwrap();
        e.stators.hpc_deg = -8.0;
        let closed = e.balance(e.design.wf, SteadyMethod::NewtonRaphson).unwrap();
        assert!(
            closed.point.st25.w < base.point.st25.w * 1.0,
            "core flow should not grow with closed stators: {} vs {}",
            closed.point.st25.w,
            base.point.st25.w
        );
    }

    #[test]
    fn altitude_reduces_thrust() {
        let mut e = engine();
        // ~6 km ISA.
        e.flight = FlightCondition { t_amb: 249.0, p_amb: 47_200.0, mach: 0.0 };
        let rep = e.balance(0.55 * e.design.wf, SteadyMethod::NewtonRaphson).unwrap();
        assert!(rep.point.thrust < e.design.thrust * 0.7);
    }

    #[test]
    fn evaluate_rejects_unphysical_inner_point() {
        let e = engine();
        let err = e
            .evaluate(e.cycle.n1_design, e.cycle.n2_design, e.design.wf, &[0.5, 0.5, 0.5, 2.0, 1.0])
            .unwrap_err();
        assert!(err.contains("expansion ratio"), "{err}");
    }

    /// A seam over the engine's own components that logs every state it
    /// is handed; `duct_and_burn` fails with the second field when set.
    struct Recorder<'a>(OwnModules<'a>, Option<&'static str>, Vec<GasState>);

    impl AdaptedModules for Recorder<'_> {
        fn duct_and_burn(
            &mut self,
            bypass: &GasState,
            core: &GasState,
            wf: f64,
        ) -> Result<(GasState, GasState), String> {
            self.2.extend([*bypass, *core]);
            match self.1 {
                Some(e) => Err(e.to_owned()),
                None => self.0.duct_and_burn(bypass, core, wf),
            }
        }
        fn tailpipe(&mut self, mixed: &GasState) -> Result<GasState, String> {
            self.2.push(*mixed);
            self.0.tailpipe(mixed)
        }
        fn nozzle(&mut self, face: &GasState, p_amb: f64) -> Result<(f64, f64), String> {
            self.2.push(*face);
            self.0.nozzle(face, p_amb)
        }
    }

    #[test]
    fn a_forwarding_seam_reproduces_evaluate_bit_for_bit() {
        let e = engine();
        let (n1, n2, wf) = (0.97 * e.cycle.n1_design, 0.99 * e.cycle.n2_design, 0.92 * e.design.wf);
        let x = [0.45, 0.55, e.design.er_hpt, e.design.er_lpt, 1.05];
        let own = e.evaluate(n1, n2, wf, &x).unwrap();
        let mut seam = Recorder(OwnModules(&e), None, Vec::new());
        let via = e.evaluate_with(&mut seam, n1, n2, wf, &x).unwrap();
        // `Debug` prints each f64 in its shortest round-trip form: equal
        // text is equal bits.
        assert_eq!(format!("{via:?}"), format!("{own:?}"));
        let [bypass, core, mixed, face] = seam.2[..] else { panic!("{:?}", seam.2) };
        assert_eq!((bypass.w + own.st25.w, bypass.pt), (own.st21.w, own.st21.pt));
        assert_eq!((core.tt, core.pt), (own.st3.tt, own.st3.pt));
        assert!(core.w < own.st3.w, "the combustor sees the flow left after bleed");
        assert_eq!((mixed, face), (own.st6, own.st7));
    }

    #[test]
    fn a_seam_error_returns_unchanged_and_stops_the_gas_path() {
        let e = engine();
        let mut seam = Recorder(OwnModules(&e), Some("combustor (comb): host down"), Vec::new());
        let (n1, n2, x) = (e.cycle.n1_design, e.cycle.n2_design, e.design_inner_guess());
        let err = e.evaluate_with(&mut seam, n1, n2, e.design.wf, &x).unwrap_err();
        assert_eq!(err, "combustor (comb): host down");
        assert_eq!(seam.2.len(), 2, "neither tailpipe nor nozzle was called");
    }

    /// The order contract the executive relies on: a fault in the
    /// engine's own physics is reported before any adapted module runs.
    #[test]
    fn an_hpc_map_excursion_fails_before_the_seam_is_called() {
        let e = engine();
        let mut seam = Recorder(OwnModules(&e), None, Vec::new());
        let off_map = [0.5, 7.0, e.design.er_hpt, e.design.er_lpt, 1.0];
        let (n1, n2) = (e.cycle.n1_design, e.cycle.n2_design);
        let err = e.evaluate_with(&mut seam, n1, n2, e.design.wf, &off_map).unwrap_err();
        assert!(err.contains("coordinate 7 outside table range"), "{err}");
        assert!(seam.2.is_empty(), "seam called: {:?}", seam.2);
    }
}

#[cfg(test)]
mod engine_choice_tests {
    use super::*;

    #[test]
    fn high_bypass_engine_balances_at_design() {
        let e = Turbofan::from_design(CycleDesign::high_bypass_class()).unwrap();
        let rep = e.balance(e.design.wf, SteadyMethod::NewtonRaphson).unwrap();
        assert!(rep.residual_norm < 1e-8);
        assert!((rep.point.n1 - e.cycle.n1_design).abs() / e.cycle.n1_design < 1e-3);
    }

    #[test]
    fn high_bypass_trades_specific_thrust_for_sfc() {
        // The classic cycle result: at comparable technology, the
        // high-bypass engine burns less fuel per newton but produces less
        // thrust per unit of inlet flow.
        let military = Turbofan::f100().unwrap();
        let commercial = Turbofan::from_design(CycleDesign::high_bypass_class()).unwrap();
        let m = military.balance(military.design.wf, SteadyMethod::NewtonRaphson).unwrap();
        let c = commercial.balance(commercial.design.wf, SteadyMethod::NewtonRaphson).unwrap();
        let sfc_m = m.point.sfc;
        let sfc_c = c.point.sfc;
        assert!(
            sfc_c < 0.8 * sfc_m,
            "high bypass must be markedly more efficient: {sfc_c:.3e} vs {sfc_m:.3e}"
        );
        let specific_thrust_m = m.point.thrust / m.point.st2.w;
        let specific_thrust_c = c.point.thrust / c.point.st2.w;
        assert!(specific_thrust_c < specific_thrust_m, "and produce less thrust per kg/s of air");
    }

    #[test]
    fn high_bypass_transient_spools_up() {
        use crate::schedules::Schedule;
        use crate::transient::{TransientMethod, TransientRun};
        let engine = Turbofan::from_design(CycleDesign::high_bypass_class()).unwrap();
        let wf = engine.design.wf;
        let fuel = Schedule::new(vec![(0.0, 0.93 * wf), (0.05, 0.93 * wf), (0.3, wf)]).unwrap();
        let mut run = TransientRun::new(engine, fuel, TransientMethod::ImprovedEuler, 0.02);
        let r = run.run(0.6).unwrap();
        assert!(r.last().n1 > r.samples[0].n1);
        assert!(r.last().thrust > r.samples[0].thrust);
    }
}
