//! The metrics registry is part of the deterministic surface: two
//! identical seeded runs — including fault injection and the recovery
//! machinery it triggers — must export **byte-identical** JSON
//! snapshots. The determinism CI relies on this the same way it relies
//! on the event transcripts, and the `costs --metrics` output would be
//! useless for regression diffing otherwise.
//!
//! Metric keys are aggregated per *host pair* (never per process
//! address), so respawned incarnations with fresh proc ids land in the
//! same counters on every run.

use netsim::FaultPlan;
use npss::engine_exec::{Exec, ExecutiveEngine, Scheduling};
use npss::service::{table2_engine, world};
use npss::{run_session, SessionKnobs, SessionRequest, Workload};
use schooner::CallPolicy;
use tess::engine::Turbofan;
use tess::schedules::Schedule;
use tess::transient::TransientMethod;

const T_END: f64 = 0.4;
const DT: f64 = 0.02;

fn fuel_schedule(engine: &Turbofan) -> Schedule {
    let wf_ref = engine.design.wf;
    Schedule::new(vec![(0.0, 0.92 * wf_ref), (0.1 * T_END, 0.92 * wf_ref), (0.4 * T_END, wf_ref)])
        .unwrap()
}

fn vnow(exec: &mut ExecutiveEngine) -> f64 {
    match exec.exec_mut("bypass duct").expect("known slot") {
        Exec::Remote(r) => r.line_mut().now(),
        Exec::Local(_) => unreachable!("table2 places the bypass duct remotely"),
    }
}

/// One complete seeded faulty run in a fresh world, returning the
/// metrics snapshot taken after shutdown. The Cray crashes mid-run and
/// reboots inside the call policy's backoff budget, so the snapshot
/// covers retries, supervision probes, a respawn, and the resumed
/// transient — the full recovery surface.
fn faulty_run_snapshot(crash_window: Option<(f64, f64)>) -> (String, f64, f64) {
    let policy = CallPolicy::new().idempotent(true).retries(12).backoff(0.25, 2.0, 4.0);
    let sch = world(false).unwrap();
    let mut exec = table2_engine(&sch, &policy, Scheduling::Sequential, 4).unwrap();
    let t_start = vnow(&mut exec);
    if let Some((t_crash, t_restart)) = crash_window {
        sch.ctx().net.set_fault_plan(Some(
            FaultPlan::new(0xF1D0)
                .host_crash("lerc-cray-ymp", t_crash)
                .host_restart("lerc-cray-ymp", t_restart),
        ));
    }
    let fuel = fuel_schedule(&exec.engine);
    exec.run_transient(&fuel, TransientMethod::ImprovedEuler, DT, T_END).unwrap();
    let t_stop = vnow(&mut exec);
    exec.shutdown();
    sch.ctx().net.set_fault_plan(None);
    let snapshot = sch.ctx().obs.metrics().snapshot_json();
    sch.shutdown();
    (snapshot, t_start, t_stop)
}

/// Two independent worlds running the same seeded faulty transient must
/// export byte-identical metrics snapshots.
#[test]
fn faulty_table2_metrics_snapshots_are_byte_identical() {
    // Learn the run's virtual-time span from a clean run, then schedule
    // the crash a little past mid-run in both faulted worlds.
    let (clean, t_start, t_stop) = faulty_run_snapshot(None);
    let t_crash = t_start + 0.55 * (t_stop - t_start);
    let window = Some((t_crash, t_crash + 2.0));

    let (a, _, _) = faulty_run_snapshot(window);
    let (b, _, _) = faulty_run_snapshot(window);
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        assert_eq!(la, lb, "snapshots diverge at line {i}");
    }
    assert_eq!(a, b, "seeded faulty runs must export identical metrics snapshots");

    // The faulted snapshot must actually record the fault machinery —
    // otherwise this test could pass vacuously on two empty registries.
    assert_ne!(a, clean, "the crash window must leave a mark on the metrics");
    assert!(a.contains("\"net.fault.hostdown\""), "expected host-down drops in:\n{a}");
    assert!(a.contains("\"rpc.retries.policy\""), "expected policy retries in:\n{a}");
    assert!(a.contains("\"rpc.calls\""), "expected call counters in:\n{a}");
    assert!(a.contains("\"rpc.call_s.ua-sparc10->lerc-cray-ymp\""), "expected histograms in:\n{a}");
}

/// The snapshot is also stable *across commits*: a seeded session's
/// metrics JSON must equal the committed golden byte for byte, so a
/// change to how metric keys are built (they are pre-built per link, not
/// formatted per message) cannot silently rename or drop a counter. The
/// wave-scheduled, link-batched twin covers the `net.batch.*` family.
/// Regenerate the goldens only for a change that *means* to alter the
/// metrics surface: write `run_session(..).metrics_json` of the two
/// requests below to `tests/golden/`.
#[test]
fn seeded_session_snapshots_match_the_committed_goldens() {
    let mut req =
        SessionRequest::new("golden", 0x601D, Workload::Transient { t_end: 0.2, dt: 0.02 });
    let plain = run_session(&req).unwrap();
    req.knobs =
        SessionKnobs { link_batching: true, scheduling: Scheduling::WaveParallel, crash: None };
    let wave_batched = run_session(&req).unwrap();
    for (name, got, want) in [
        ("table2_session", &plain.metrics_json, include_str!("golden/table2_session.metrics.json")),
        (
            "table2_session_wave_batched",
            &wave_batched.metrics_json,
            include_str!("golden/table2_session_wave_batched.metrics.json"),
        ),
    ] {
        for (i, (lg, lw)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(lg, lw, "{name}: snapshot diverges from the golden at line {i}");
        }
        assert_eq!(got, want, "{name}: snapshot is not byte-identical to the golden");
    }
}
