//! Crash recovery of distributed transients: the Table-2 configuration
//! interrupted mid-run by a Cray Y-MP host crash must finish with samples
//! **bit-identical** to an uninterrupted run.
//!
//! Two recovery layers are exercised. When the call policy's backoff
//! outlives the crash window, the Manager's supervision (probe → declare
//! dead → respawn under a fresh incarnation) repairs the binding inside a
//! single solver step. When the policy is exhausted first, the step fails
//! and [`ExecutiveEngine::run_transient`] rolls the transient back to its
//! latest checkpoint barrier and re-runs from there. Either way the
//! Improved Euler integrator is single-step, the adapted procedures are
//! stateless, and the arithmetic is exact f32 — so recovery leaves no
//! numeric fingerprint at all.

use netsim::FaultPlan;
use npss::engine_exec::{Exec, ExecutiveEngine, Scheduling};
use npss::service::{table2_engine, world};
use schooner::CallPolicy;
use tess::engine::Turbofan;
use tess::schedules::Schedule;
use tess::transient::{TransientMethod, TransientResult};

const T_END: f64 = 0.4;
const DT: f64 = 0.02;

fn fuel_schedule(engine: &Turbofan) -> Schedule {
    let wf_ref = engine.design.wf;
    Schedule::new(vec![(0.0, 0.92 * wf_ref), (0.1 * T_END, 0.92 * wf_ref), (0.4 * T_END, wf_ref)])
        .unwrap()
}

/// Current virtual time, read from the bypass duct's line.
fn vnow(exec: &mut ExecutiveEngine) -> f64 {
    match exec.exec_mut("bypass duct").expect("known slot") {
        Exec::Remote(r) => r.line_mut().now(),
        Exec::Local(_) => unreachable!("table2 places the bypass duct remotely"),
    }
}

fn run(exec: &mut ExecutiveEngine) -> TransientResult {
    let fuel = fuel_schedule(&exec.engine);
    exec.run_transient(&fuel, TransientMethod::ImprovedEuler, DT, T_END).unwrap()
}

fn assert_bit_identical(recovered: &TransientResult, baseline: &TransientResult) {
    assert_eq!(recovered.samples.len(), baseline.samples.len());
    for (i, (a, b)) in recovered.samples.iter().zip(&baseline.samples).enumerate() {
        for (x, y, field) in [
            (a.t, b.t, "t"),
            (a.n1, b.n1, "n1"),
            (a.n2, b.n2, "n2"),
            (a.wf, b.wf, "wf"),
            (a.thrust, b.thrust, "thrust"),
            (a.t4, b.t4, "t4"),
            (a.w2, b.w2, "w2"),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "sample {i} field {field} differs: {x:?} vs {y:?}"
            );
        }
    }
}

/// Baseline run in a pristine world: used both as the bit-identity
/// reference and to learn the run's virtual-time span, so the crash in
/// the faulted worlds can be scheduled mid-transient. Identical worlds
/// evolve identically in virtual time, so the measured span transfers.
fn baseline(policy: &CallPolicy, interval: usize) -> (TransientResult, f64, f64) {
    let sch = world(false).unwrap();
    let mut exec = table2_engine(&sch, policy, Scheduling::Sequential, interval).unwrap();
    let t_start = vnow(&mut exec);
    let result = run(&mut exec);
    let t_stop = vnow(&mut exec);
    exec.shutdown();
    sch.shutdown();
    (result, t_start, t_stop)
}

/// The call policy's backoff outlives the crash window: the Manager
/// respawns both duct instances and the transient never even notices a
/// failed step — yet the samples are bit-identical to the clean run.
#[test]
fn cray_crash_absorbed_by_call_policy_is_bit_identical() {
    let policy = CallPolicy::new().idempotent(true).retries(12).backoff(0.25, 2.0, 4.0);
    let (reference, t_start, t_stop) = baseline(&policy, 5);

    let sch = world(false).unwrap();
    sch.ctx().obs.set_enabled(true);
    let mut exec = table2_engine(&sch, &policy, Scheduling::Sequential, 5).unwrap();
    // Crash the Cray a little past mid-run; it reboots two virtual
    // seconds later, well within the policy's backoff budget.
    let t_crash = t_start + 0.55 * (t_stop - t_start);
    sch.ctx().net.set_fault_plan(Some(
        FaultPlan::new(0xF100)
            .host_crash("lerc-cray-ymp", t_crash)
            .host_restart("lerc-cray-ymp", t_crash + 2.0),
    ));

    let result = run(&mut exec);
    assert_eq!(exec.recoveries, 0, "the RPC layer must have absorbed the crash");
    assert_bit_identical(&result, &reference);

    let rendered = sch.ctx().obs.render();
    assert!(rendered.contains("declared"), "{rendered}");
    assert!(rendered.contains("respawned '/npss/npss-duct' on lerc-cray-ymp"), "{rendered}");

    exec.shutdown();
    sch.ctx().net.set_fault_plan(None);
    sch.shutdown();
}

/// The call policy is exhausted inside the crash window: the failed step
/// rolls the transient back to its latest checkpoint barrier, and the
/// re-run (after supervision repairs the bindings) is bit-identical.
#[test]
fn cray_crash_rolls_back_to_checkpoint_and_recovers_bit_identically() {
    let policy = CallPolicy::new().idempotent(true).retries(1).backoff(0.1, 2.0, 0.1);
    let (reference, t_start, t_stop) = baseline(&policy, 4);

    let sch = world(false).unwrap();
    sch.ctx().obs.set_enabled(true);
    let mut exec = table2_engine(&sch, &policy, Scheduling::Sequential, 4).unwrap();
    exec.max_recoveries = 20;
    // A window the two-attempt policy cannot ride through: steps failing
    // inside it roll back to the barrier until the Cray returns. Each
    // failed step still advances the clock by one backoff pause (0.1 s),
    // so the rollback loop crosses the window well inside its budget.
    let t_crash = t_start + 0.55 * (t_stop - t_start);
    sch.ctx().net.set_fault_plan(Some(
        FaultPlan::new(0xF101)
            .host_crash("lerc-cray-ymp", t_crash)
            .host_restart("lerc-cray-ymp", t_crash + 0.35),
    ));

    let result = run(&mut exec);
    assert!(exec.recoveries >= 1, "the crash must have forced a checkpoint rollback");
    assert_bit_identical(&result, &reference);

    let rendered = sch.ctx().obs.render();
    assert!(rendered.contains("resuming from checkpoint"), "{rendered}");
    assert!(rendered.contains("respawned '/npss/npss-duct' on lerc-cray-ymp"), "{rendered}");

    exec.shutdown();
    sch.ctx().net.set_fault_plan(None);
    sch.shutdown();
}
