//! The wave scheduler: level-parallel execution of the engine graph must
//! be observably identical to the sequential sweep — bit-identical
//! `TransientResult` samples and byte-identical metrics snapshots for the
//! same seed — while failures inside a wave surface deterministically
//! (first by slot order) and recover through the existing
//! checkpoint/rollback path.

use netsim::FaultPlan;
use npss::engine_exec::{Exec, ExecutiveEngine, Scheduling};
use npss::service::{f100_wave_plan, table2_engine, world};
use npss::{F100Network, RemotePlacement};
use schooner::{CallPolicy, Schooner};
use std::sync::Arc;
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

fn run(exec: &mut ExecutiveEngine) -> TransientResult {
    let fuel = fuel_schedule(&exec.engine);
    exec.run_transient(&fuel, TransientMethod::ImprovedEuler, DT, T_END).unwrap()
}

fn vnow(exec: &mut ExecutiveEngine) -> f64 {
    match exec.exec_mut("bypass duct").expect("known slot") {
        Exec::Remote(r) => r.line_mut().now(),
        Exec::Local(_) => unreachable!("table2 places the bypass duct remotely"),
    }
}

fn assert_bit_identical(a: &TransientResult, b: &TransientResult) {
    assert_eq!(a.samples.len(), b.samples.len());
    for (i, (s, r)) in a.samples.iter().zip(&b.samples).enumerate() {
        for (x, y, field) in [
            (s.t, r.t, "t"),
            (s.n1, r.n1, "n1"),
            (s.n2, r.n2, "n2"),
            (s.wf, r.wf, "wf"),
            (s.thrust, r.thrust, "thrust"),
            (s.t4, r.t4, "t4"),
            (s.w2, r.w2, "w2"),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "sample {i} field {field}: {x:?} vs {y:?}");
        }
    }
}

/// The AVS leveling pass groups exactly the independent slots: the
/// bypass duct and combustor share a wave, the two shafts share a wave,
/// and everything on the gas path's spine stays ordered.
#[test]
fn wave_plan_derives_antichains_from_f100_graph() {
    let sch = Arc::new(Schooner::standard().unwrap());
    let net = F100Network::build(sch.clone(), "ua-sparc10").unwrap();
    let plan = net.wave_plan().unwrap();
    assert!(plan.same_wave("bypass duct", "combustor"), "{plan:?}");
    assert!(plan.same_wave("low speed shaft", "high speed shaft"), "{plan:?}");
    assert!(!plan.same_wave("bypass duct", "tailpipe duct"), "{plan:?}");
    assert!(!plan.same_wave("combustor", "nozzle"), "{plan:?}");
    assert!(!plan.same_wave("tailpipe duct", "nozzle"), "{plan:?}");
}

/// Wave-parallel and sequential scheduling agree to the bit on every
/// transient sample and to the byte on the whole metrics snapshot — and
/// the parallel run finishes earlier in virtual time.
#[test]
fn parallel_equals_sequential_bit_and_byte() {
    let policy = CallPolicy::default();
    let mode_run = |scheduling: Scheduling| -> (TransientResult, String, f64) {
        let sch = world(false).unwrap();
        let mut exec = table2_engine(&sch, &policy, scheduling, 5).unwrap();
        let t0 = vnow(&mut exec);
        let result = run(&mut exec);
        let elapsed = vnow(&mut exec) - t0;
        let snapshot = sch.ctx().obs.metrics().snapshot_json();
        exec.shutdown();
        sch.shutdown();
        (result, snapshot, elapsed)
    };
    let (seq, seq_metrics, _) = mode_run(Scheduling::Sequential);
    let (par, par_metrics, _) = mode_run(Scheduling::WaveParallel);
    assert_bit_identical(&par, &seq);
    assert_eq!(par_metrics, seq_metrics, "metrics snapshots must be byte-identical");
}

/// Link batching under the wave scheduler: a Table-2 wave-parallel
/// transient with coalescing (and flow control) installed is
/// bit-identical in its samples — and byte-identical in every metrics
/// counter outside the batching layer's own — to the unbatched
/// sequential run. The Table-2 placement puts both shafts on the LeRC
/// RS6000, so each shaft wave's two requests genuinely share frames on
/// the `ua-sparc10 -> lerc-rs6000` link.
///
/// Excluded from the byte comparison, besides the batching layer's own
/// counters: the `rpc.call_s` latency histograms. A coalesced request
/// leaves with its *frame* — at the latest member's send instant — so a
/// call can run sub-millisecond longer than its unbatched twin. That is
/// the one observable batching is allowed to move; every logical
/// counter (messages, bytes, calls, UTS traffic) must still match to
/// the byte.
#[test]
fn batched_wave_parallel_matches_unbatched_sequential() {
    let policy = CallPolicy::default();
    let mode_run = |link_batching: bool, scheduling: Scheduling| {
        let sch = world(link_batching).unwrap();
        let mut exec = table2_engine(&sch, &policy, scheduling, 5).unwrap();
        let result = run(&mut exec);
        let snapshot = sch.ctx().obs.metrics().snapshot_json_excluding(&[
            "net.batch.",
            "net.credit.",
            "rpc.call_s.",
        ]);
        let flushes: u64 = {
            let m = sch.ctx().obs.metrics();
            m.counter_names("net.batch.flushes.").iter().map(|n| m.counter(n)).sum()
        };
        exec.shutdown();
        sch.shutdown();
        (result, snapshot, flushes)
    };
    let (seq, seq_metrics, seq_flushes) = mode_run(false, Scheduling::Sequential);
    assert_eq!(seq_flushes, 0, "unbatched run must not touch the frame layer");
    let (par, par_metrics, par_flushes) = mode_run(true, Scheduling::WaveParallel);
    assert!(par_flushes > 0, "batched run never coalesced — test is vacuous");
    assert_bit_identical(&par, &seq);
    assert_eq!(par_metrics, seq_metrics, "logical counters diverged under batching");
}

/// The full widget path: an F100 network run with the system module's
/// scheduling radio on "wave-parallel" reproduces the sequential run's
/// samples exactly.
#[test]
fn f100_network_parallel_run_matches_sequential() {
    let mode_run = |mode: &str| -> TransientResult {
        let sch = Arc::new(Schooner::standard().unwrap());
        let mut net = F100Network::build(sch.clone(), "ua-sparc10").unwrap();
        net.apply_placement(&RemotePlacement::table2()).unwrap();
        net.set_scheduling(mode).unwrap();
        let result = net.run("Modified Euler", T_END, DT).unwrap();
        // Every adapted slot computed remotely, on its own line.
        for row in net.report() {
            assert_ne!(row.location, "local", "{}", row.module);
            assert!(row.calls > 0, "{}", row.module);
        }
        result
    };
    let seq = mode_run("sequential");
    let par = mode_run("wave-parallel");
    assert_bit_identical(&par, &seq);
}

/// When two calls in the same wave both fail, the reported error names
/// the slot lowest in slot order, regardless of which host died "first":
/// the full-width configuration wave loses the Cray (bypass duct,
/// tailpipe duct) and the UA SGI (combustor) at once, and the error is
/// always the bypass duct's.
/// A fault the executive finds in its own physics — here a β outside the
/// HPC map — is reported before any component of that evaluation has been
/// called, under either scheduler: the local HPC runs ahead of the bypass
/// duct / combustor group in the one sweep both modes share. (A sequential
/// sweep of its own used to have called the bypass duct by then.)
#[test]
fn hpc_map_excursion_fails_before_any_component_call() {
    for scheduling in [Scheduling::Sequential, Scheduling::WaveParallel] {
        let mut exec = ExecutiveEngine::all_local(Turbofan::f100().unwrap()).unwrap();
        exec.scheduling = scheduling;
        exec.wave_plan = f100_wave_plan();
        exec.setup().unwrap();
        let calls =
            |e: &ExecutiveEngine| -> Vec<u64> { e.report_rows().iter().map(|r| r.calls).collect() };
        let before = calls(&exec);
        assert_eq!(before, [1; 6], "setup configures every slot once");

        let (cy, d) = (exec.engine.cycle.clone(), exec.engine.design.clone());
        let on_map = [0.5, 0.5, d.er_hpt, d.er_lpt, 1.0];
        let off_map = [0.5, 7.0, d.er_hpt, d.er_lpt, 1.0];
        let err = exec.evaluate(cy.n1_design, cy.n2_design, d.wf, &off_map).unwrap_err();
        assert!(err.contains("coordinate 7 outside table range"), "{scheduling:?}: {err}");
        assert_eq!(calls(&exec), before, "{scheduling:?}: no slot was called");

        // The same point on the map reaches all four gas-path slots.
        exec.evaluate(cy.n1_design, cy.n2_design, d.wf, &on_map).unwrap();
        assert_eq!(calls(&exec), [2, 2, 2, 2, 1, 1], "{scheduling:?}");
    }
}

#[test]
fn two_failures_in_one_wave_report_first_by_slot_order() {
    let sch = world(false).unwrap();
    let policy = CallPolicy::new().idempotent(true).retries(1).backoff(0.05, 2.0, 0.05);
    let mut exec = table2_engine(&sch, &policy, Scheduling::WaveParallel, 0).unwrap();
    sch.ctx().net.set_host_up("lerc-cray-ymp", false);
    sch.ctx().net.set_host_up("ua-sgi-4d340", false);
    let err = exec.setup().unwrap_err();
    assert!(err.starts_with("bypass duct"), "expected the lowest slot's error, got: {err}");

    // With only the combustor's host down, the error is the combustor's.
    sch.ctx().net.set_host_up("lerc-cray-ymp", true);
    let err = exec.setup().unwrap_err();
    assert!(err.starts_with("combustor"), "expected the combustor's error, got: {err}");

    sch.ctx().net.set_host_up("ua-sgi-4d340", true);
    exec.setup().unwrap();
    exec.shutdown();
    sch.shutdown();
}

/// A seeded fault plan kills both hosts of the widest evaluation wave
/// (bypass duct on the Cray, combustor on the UA SGI) in the same crash
/// window mid-transient. The failed step rolls back to the latest
/// checkpoint barrier and the recovered wave-parallel run is
/// bit-identical to an uninterrupted wave-parallel run.
#[test]
fn two_host_crash_in_one_wave_rolls_back_bit_identically() {
    let policy = CallPolicy::new().idempotent(true).retries(1).backoff(0.1, 2.0, 0.1);
    let (reference, t_start, t_stop) = {
        let sch = world(false).unwrap();
        let mut exec = table2_engine(&sch, &policy, Scheduling::WaveParallel, 4).unwrap();
        let t0 = vnow(&mut exec);
        let result = run(&mut exec);
        let t1 = vnow(&mut exec);
        exec.shutdown();
        sch.shutdown();
        (result, t0, t1)
    };

    let sch = world(false).unwrap();
    let mut exec = table2_engine(&sch, &policy, Scheduling::WaveParallel, 4).unwrap();
    exec.max_recoveries = 20;
    let t_crash = t_start + 0.55 * (t_stop - t_start);
    sch.ctx().net.set_fault_plan(Some(
        FaultPlan::new(0xF102)
            .host_crash("lerc-cray-ymp", t_crash)
            .host_restart("lerc-cray-ymp", t_crash + 0.35)
            .host_crash("ua-sgi-4d340", t_crash)
            .host_restart("ua-sgi-4d340", t_crash + 0.35),
    ));

    let result = run(&mut exec);
    assert!(exec.recoveries >= 1, "the double crash must have forced a rollback");
    assert_bit_identical(&result, &reference);

    exec.shutdown();
    sch.ctx().net.set_fault_plan(None);
    sch.shutdown();
}

/// Checkpoint, restore, and configuration traffic ride the owning
/// component's line: after a wave-parallel run with barriers, every
/// slot's line has non-zero call and reply-byte counts of its own, and
/// the per-line tallies sum exactly to the world's `rpc.*` counters —
/// nothing is charged to an arbitrary "first" line.
#[test]
fn reply_bytes_are_attributed_per_line() {
    let sch = world(false).unwrap();
    let mut exec =
        table2_engine(&sch, &CallPolicy::default(), Scheduling::WaveParallel, 5).unwrap();
    let _ = run(&mut exec);
    exec.checkpoint_remotes();

    let slots = [
        "bypass duct",
        "tailpipe duct",
        "combustor",
        "nozzle",
        "low speed shaft",
        "high speed shaft",
    ];
    let mut calls = 0;
    let mut request_bytes = 0;
    let mut reply_bytes = 0;
    for slot in slots {
        let Some(Exec::Remote(r)) = exec.exec_mut(slot) else { panic!("{slot} should be remote") };
        let stats = r.stats();
        assert!(stats.calls > 0, "{slot} made no calls of its own");
        assert!(stats.reply_bytes > 0, "{slot} earned no reply bytes of its own");
        calls += stats.calls;
        request_bytes += stats.request_bytes;
        reply_bytes += stats.reply_bytes;
    }
    let m = sch.ctx().obs.metrics();
    assert_eq!(m.counter("rpc.calls"), calls, "calls must sum to the world counter");
    assert_eq!(m.counter("rpc.request_bytes"), request_bytes);
    assert_eq!(m.counter("rpc.reply_bytes"), reply_bytes);

    exec.shutdown();
    sch.shutdown();
}
