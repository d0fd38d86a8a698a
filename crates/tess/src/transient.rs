//! Engine transients.
//!
//! After the engine is balanced at the initial operating point, the
//! transient begins and proceeds up to the number of seconds specified by
//! the user. States are the two spool speeds; each derivative evaluation
//! solves the quasi-steady flow match and converts the spool power
//! imbalances into accelerations. Fuel flow and stator angles follow
//! their transient control schedules.

use crate::engine::{OperatingPoint, SteadyMethod, Turbofan};
use crate::schedules::Schedule;
use crate::solver::ode::{AdamsBashforthMoulton, GearBdf2, ImprovedEuler, Integrator, RungeKutta4};

/// Transient integrator choice (the system module's widget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientMethod {
    /// Modified (Improved) Euler.
    ImprovedEuler,
    /// Fourth-order Runge–Kutta.
    RungeKutta4,
    /// Adams predictor-corrector.
    Adams,
    /// Gear (BDF).
    Gear,
}

impl TransientMethod {
    /// Instantiate the integrator.
    pub fn integrator(self) -> Box<dyn Integrator> {
        match self {
            TransientMethod::ImprovedEuler => Box::new(ImprovedEuler),
            TransientMethod::RungeKutta4 => Box::new(RungeKutta4),
            TransientMethod::Adams => Box::new(AdamsBashforthMoulton::default()),
            TransientMethod::Gear => Box::new(GearBdf2::default()),
        }
    }

    /// Display name as it appears in the widget.
    pub fn display_name(self) -> &'static str {
        match self {
            TransientMethod::ImprovedEuler => "Improved Euler",
            TransientMethod::RungeKutta4 => "Fourth-order Runge-Kutta",
            TransientMethod::Adams => "Adams",
            TransientMethod::Gear => "Gear",
        }
    }
}

/// One recorded sample of a transient.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSample {
    /// Time since transient start, s.
    pub t: f64,
    /// Low spool speed, RPM.
    pub n1: f64,
    /// High spool speed, RPM.
    pub n2: f64,
    /// Fuel flow, kg/s.
    pub wf: f64,
    /// Net thrust, N.
    pub thrust: f64,
    /// Turbine inlet temperature, K.
    pub t4: f64,
    /// Inlet mass flow, kg/s.
    pub w2: f64,
}

impl TransientSample {
    /// The sample of operating point `op` at transient time `t`.
    pub fn at(t: f64, op: &OperatingPoint) -> Self {
        Self { t, n1: op.n1, n2: op.n2, wf: op.wf, thrust: op.thrust, t4: op.st4.tt, w2: op.st2.w }
    }
}

/// A complete transient trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    /// Samples at every accepted step (including t = 0).
    pub samples: Vec<TransientSample>,
    /// Method used.
    pub method: String,
    /// Fixed step size, s.
    pub dt: f64,
}

impl TransientResult {
    /// Final sample.
    pub fn last(&self) -> &TransientSample {
        self.samples.last().expect("at least the initial sample")
    }
}

/// A failure injected at a point in transient time — the executive's
/// "test operation of the engine in the presence of failures".
#[derive(Debug, Clone, PartialEq)]
pub enum FailureEvent {
    /// Combustor degradation: efficiency multiplied by the factor.
    CombustorDegradation(f64),
    /// A bleed valve stuck open: bleed fraction forced to this value.
    BleedStuckOpen(f64),
    /// Nozzle actuator failure: throat area multiplied by the factor
    /// (e.g. 0.9 = stuck 10% closed).
    NozzleAreaStuck(f64),
    /// Foreign-object damage to the fan: efficiency map derated by the
    /// factor via a permanent stator-angle offset, degrees.
    FanDamage(f64),
}

/// A configured transient run.
pub struct TransientRun {
    /// The engine being simulated.
    pub engine: Turbofan,
    /// Fuel-flow schedule (kg/s over time).
    pub fuel: Schedule,
    /// Fan stator schedule, degrees.
    pub fan_stators: Schedule,
    /// HPC stator schedule, degrees.
    pub hpc_stators: Schedule,
    /// Flight profile: altitude schedule, meters ISA.
    pub altitude: Schedule,
    /// Flight profile: Mach number schedule.
    pub mach: Schedule,
    /// Failures to inject: (time, event), applied once when the transient
    /// clock passes the time.
    pub failures: Vec<(f64, FailureEvent)>,
    /// Integrator.
    pub method: TransientMethod,
    /// Fixed time step, s.
    pub dt: f64,
    /// Permanent stator offset accumulated from fan-damage failures.
    fan_damage_deg: f64,
}

impl TransientRun {
    /// A run with constant (nominal) stators at sea-level static.
    pub fn new(engine: Turbofan, fuel: Schedule, method: TransientMethod, dt: f64) -> Self {
        Self {
            engine,
            fuel,
            fan_stators: Schedule::constant(0.0),
            hpc_stators: Schedule::constant(0.0),
            altitude: Schedule::constant(0.0),
            mach: Schedule::constant(0.0),
            failures: Vec::new(),
            method,
            dt,
            fan_damage_deg: 0.0,
        }
    }

    /// Attach a flight profile ("fly it through a flight profile"):
    /// altitude in meters and Mach number over transient time.
    pub fn with_flight_profile(mut self, altitude: Schedule, mach: Schedule) -> Self {
        self.altitude = altitude;
        self.mach = mach;
        self
    }

    /// Inject a failure at transient time `t`.
    pub fn with_failure(mut self, t: f64, event: FailureEvent) -> Self {
        self.failures.push((t, event));
        self.failures.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        self
    }

    fn apply_flight(engine: &mut Turbofan, altitude: &Schedule, mach: &Schedule, t: f64) {
        let amb = crate::atmosphere::isa(altitude.at(t));
        engine.flight =
            crate::engine::FlightCondition { t_amb: amb.t, p_amb: amb.p, mach: mach.at(t) };
    }

    /// Apply any failures whose time has come; returns how many fired.
    fn apply_failures(&mut self, t: f64) -> usize {
        let mut fired = 0;
        while let Some((ft, _)) = self.failures.first() {
            if *ft > t {
                break;
            }
            let (_, event) = self.failures.remove(0);
            match event {
                FailureEvent::CombustorDegradation(factor) => {
                    self.engine.combustor.eta =
                        (self.engine.combustor.eta * factor).clamp(0.05, 1.0);
                }
                FailureEvent::BleedStuckOpen(fraction) => {
                    self.engine.bleed = crate::components::Bleed::new(fraction.clamp(0.0, 0.9));
                }
                FailureEvent::NozzleAreaStuck(factor) => {
                    self.engine.nozzle.area *= factor.max(0.1);
                }
                FailureEvent::FanDamage(deg) => {
                    self.fan_damage_deg += deg;
                }
            }
            fired += 1;
        }
        fired
    }

    /// Balance at the t = 0 operating point, then run the transient to
    /// `t_end` seconds.
    pub fn run(&mut self, t_end: f64) -> Result<TransientResult, String> {
        let steps = transient_steps(t_end, self.dt)?;
        // "TESS first attempts to balance the engine at the initial
        // operating point through a steady-state calculation."
        self.engine.stators.fan_deg = self.fan_stators.at(0.0);
        self.engine.stators.hpc_deg = self.hpc_stators.at(0.0);
        Self::apply_flight(&mut self.engine, &self.altitude, &self.mach, 0.0);
        let initial = self
            .engine
            .balance(self.fuel.at(0.0), SteadyMethod::NewtonRaphson)
            .map_err(|e| format!("initial balance failed: {e}"))?;

        let mut y = [initial.point.n1, initial.point.n2];
        let mut inner = self.engine.design_inner_guess();
        // Re-anchor the warm start at the balanced point.
        self.engine.solve_inner(y[0], y[1], self.fuel.at(0.0), &mut inner)?;

        let mut integrator = self.method.integrator();
        let mut samples = vec![TransientSample::at(0.0, &initial.point)];
        let mut t = 0.0;
        for _ in 0..steps {
            // Injected failures fire at the start of the step in which
            // their time falls; multi-step integrators then see the
            // failed engine consistently across the whole step.
            if self.apply_failures(t) > 0 {
                integrator.reset();
            }
            let mut f = |tau: f64, y: &[f64], d: &mut [f64]| -> Result<(), String> {
                self.engine.stators.fan_deg = self.fan_stators.at(tau) + self.fan_damage_deg;
                self.engine.stators.hpc_deg = self.hpc_stators.at(tau);
                Self::apply_flight(&mut self.engine, &self.altitude, &self.mach, tau);
                let op = self.engine.solve_inner(y[0], y[1], self.fuel.at(tau), &mut inner)?;
                (d[0], d[1]) = self.engine.spool_accels(&op);
                Ok(())
            };
            integrator.step(&mut f, t, &mut y, self.dt)?;
            t += self.dt;
            self.engine.stators.fan_deg = self.fan_stators.at(t) + self.fan_damage_deg;
            self.engine.stators.hpc_deg = self.hpc_stators.at(t);
            Self::apply_flight(&mut self.engine, &self.altitude, &self.mach, t);
            let op = self.engine.solve_inner(y[0], y[1], self.fuel.at(t), &mut inner)?;
            samples.push(TransientSample::at(t, &op));
        }
        Ok(TransientResult { samples, method: self.method.display_name().to_owned(), dt: self.dt })
    }
}

/// The number of fixed `dt` steps in a transient of `t_end` seconds.
/// Refuses what no loop could finish or would silently skip: a step that
/// is not positive and finite, and a length that is negative or not
/// finite.
pub fn transient_steps(t_end: f64, dt: f64) -> Result<usize, String> {
    if !dt.is_finite() || dt <= 0.0 {
        return Err(format!("time step must be positive and finite, got {dt}"));
    }
    if !t_end.is_finite() || t_end < 0.0 {
        return Err(format!("transient length must be finite and not negative, got {t_end}"));
    }
    Ok((t_end / dt).round() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Turbofan;

    fn throttle_step() -> (Turbofan, Schedule) {
        let engine = Turbofan::f100().unwrap();
        // Start at 92% fuel, snap toward design fuel at t = 0.1 s.
        let wf_d = engine.design.wf;
        let fuel =
            Schedule::new(vec![(0.0, 0.92 * wf_d), (0.1, 0.92 * wf_d), (0.3, wf_d)]).unwrap();
        (engine, fuel)
    }

    #[test]
    fn transient_spools_up_toward_new_equilibrium() {
        let (engine, fuel) = throttle_step();
        let n1_design = engine.cycle.n1_design;
        let mut run = TransientRun::new(engine, fuel, TransientMethod::ImprovedEuler, 0.01);
        let result = run.run(1.0).unwrap();
        let first = &result.samples[0];
        let last = result.last();
        assert!(last.n1 > first.n1, "spool accelerates: {} -> {}", first.n1, last.n1);
        assert!(last.thrust > first.thrust);
        assert!(last.n1 <= n1_design * 1.01, "no overshoot beyond design");
        assert_eq!(result.samples.len(), 101);
    }

    #[test]
    fn all_four_methods_agree_on_the_transient() {
        let methods = [
            TransientMethod::ImprovedEuler,
            TransientMethod::RungeKutta4,
            TransientMethod::Adams,
            TransientMethod::Gear,
        ];
        let mut finals = Vec::new();
        for m in methods {
            let (engine, fuel) = throttle_step();
            let mut run = TransientRun::new(engine, fuel, m, 0.02);
            let r = run.run(0.6).unwrap();
            finals.push((m.display_name(), r.last().n1, r.last().thrust));
        }
        let (_, n1_ref, thrust_ref) = finals[1]; // RK4 as reference
        for (name, n1, thrust) in &finals {
            assert!((n1 - n1_ref).abs() / n1_ref < 2e-3, "{name}: N1 {n1} vs {n1_ref}");
            assert!(
                (thrust - thrust_ref).abs() / thrust_ref < 1e-2,
                "{name}: thrust {thrust} vs {thrust_ref}"
            );
        }
    }

    #[test]
    fn constant_fuel_stays_at_equilibrium() {
        let engine = Turbofan::f100().unwrap();
        let wf = engine.design.wf;
        let n1d = engine.cycle.n1_design;
        let mut run =
            TransientRun::new(engine, Schedule::constant(wf), TransientMethod::RungeKutta4, 0.02);
        let r = run.run(0.5).unwrap();
        for s in &r.samples {
            assert!((s.n1 - n1d).abs() / n1d < 2e-3, "drifted to {} at t={}", s.n1, s.t);
        }
    }

    #[test]
    fn step_count_refuses_steps_and_lengths_no_loop_could_run() {
        assert_eq!(transient_steps(1.0, 0.02), Ok(50));
        assert_eq!(transient_steps(0.0, 0.02), Ok(0));
        for dt in [0.0, -0.0, -0.02, f64::NAN, f64::INFINITY] {
            let err = transient_steps(1.0, dt).unwrap_err();
            assert!(err.contains("time step"), "dt {dt}: {err}");
        }
        for t_end in [-0.2, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = transient_steps(t_end, 0.02).unwrap_err();
            assert!(err.contains("transient length"), "t_end {t_end}: {err}");
        }
        // Refused before the initial balance, so nothing runs.
        let (engine, fuel) = throttle_step();
        let err = TransientRun::new(engine, fuel, TransientMethod::ImprovedEuler, 0.0).run(1.0);
        assert!(err.unwrap_err().contains("time step"));
    }

    #[test]
    fn stator_schedule_participates() {
        let engine = Turbofan::f100().unwrap();
        let wf = engine.design.wf;
        let mut run =
            TransientRun::new(engine, Schedule::constant(wf), TransientMethod::ImprovedEuler, 0.02);
        // Close the HPC stators over the transient.
        run.hpc_stators = Schedule::ramp(0.0, 0.0, 0.4, -6.0);
        let r = run.run(0.5).unwrap();
        // Closing stators cuts core flow capacity; equilibrium shifts.
        assert!(r.last().w2 != r.samples[0].w2);
    }
}

#[cfg(test)]
mod flight_tests {
    use super::*;
    use crate::engine::Turbofan;

    #[test]
    fn climbing_flight_profile_reduces_thrust() {
        let engine = Turbofan::f100().unwrap();
        let wf = 0.9 * engine.design.wf;
        let mut run =
            TransientRun::new(engine, Schedule::constant(wf), TransientMethod::ImprovedEuler, 0.02)
                .with_flight_profile(
                    // A compressed "climb": sea level to 3 km over the transient,
                    // accelerating to Mach 0.4.
                    Schedule::ramp(0.0, 0.0, 0.6, 3000.0),
                    Schedule::ramp(0.0, 0.0, 0.6, 0.4),
                );
        let r = run.run(0.6).unwrap();
        let first = &r.samples[0];
        let last = r.last();
        assert!(
            last.thrust < first.thrust,
            "thrust should lapse with altitude + ram drag: {} -> {}",
            first.thrust,
            last.thrust
        );
        assert!(last.w2 < first.w2, "inlet flow falls with density");
    }

    #[test]
    fn flight_profile_starts_balanced_at_initial_condition() {
        let engine = Turbofan::f100().unwrap();
        let wf = 0.6 * engine.design.wf;
        let mut run =
            TransientRun::new(engine, Schedule::constant(wf), TransientMethod::ImprovedEuler, 0.02)
                .with_flight_profile(Schedule::constant(5000.0), Schedule::constant(0.6));
        let r = run.run(0.2).unwrap();
        // Constant condition + constant fuel: the spool stays put.
        let drift = (r.last().n1 - r.samples[0].n1).abs() / r.samples[0].n1;
        assert!(drift < 5e-3, "drifted {drift}");
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::engine::Turbofan;

    fn steady_run() -> TransientRun {
        let engine = Turbofan::f100().unwrap();
        let wf = 0.95 * engine.design.wf;
        TransientRun::new(engine, Schedule::constant(wf), TransientMethod::ImprovedEuler, 0.02)
    }

    #[test]
    fn combustor_degradation_cuts_thrust_and_t4() {
        let mut run = steady_run().with_failure(0.2, FailureEvent::CombustorDegradation(0.85));
        let r = run.run(0.8).unwrap();
        let before = r.samples[9].thrust; // t = 0.18 s
        let after = r.last().thrust;
        assert!(after < before * 0.98, "thrust {before} -> {after}");
        assert!(r.last().t4 < r.samples[9].t4, "less heat release");
    }

    #[test]
    fn stuck_bleed_starves_the_core() {
        let mut run = steady_run().with_failure(0.2, FailureEvent::BleedStuckOpen(0.10));
        let r = run.run(0.8).unwrap();
        assert!(
            r.last().thrust < r.samples[9].thrust,
            "dumping 10% core flow overboard must cost thrust"
        );
    }

    #[test]
    fn nozzle_stuck_closed_backs_the_engine_up() {
        let mut run = steady_run().with_failure(0.2, FailureEvent::NozzleAreaStuck(0.93));
        let r = run.run(0.8).unwrap();
        // A smaller throat raises back pressure; the match moves and the
        // engine settles at a different point (flow falls).
        assert!(r.last().w2 < r.samples[9].w2, "inlet flow should fall");
    }

    #[test]
    fn fan_damage_reduces_flow() {
        let mut run = steady_run().with_failure(0.2, FailureEvent::FanDamage(-6.0));
        let r = run.run(0.8).unwrap();
        assert!(
            r.last().w2 < r.samples[9].w2 * 0.995,
            "damaged fan swallows less: {} -> {}",
            r.samples[9].w2,
            r.last().w2
        );
    }

    #[test]
    fn failures_fire_once_in_time_order() {
        let mut run = steady_run()
            .with_failure(0.4, FailureEvent::CombustorDegradation(0.9))
            .with_failure(0.2, FailureEvent::FanDamage(-2.0));
        assert_eq!(run.failures.len(), 2);
        assert!(run.failures[0].0 < run.failures[1].0, "sorted by time");
        let r = run.run(0.6).unwrap();
        assert!(run.failures.is_empty(), "all fired");
        assert!(r.last().thrust < r.samples[0].thrust);
    }
}
