//! Crash-consistent recovery of the Table-2 transient from the durable
//! journal alone: the simulating process "dies" mid-run (its world is
//! abandoned un-shutdown), a second world sharing no memory with it
//! replays the journal file, reseeds the checkpoint store and incarnation
//! floor, resumes the transient at the latest barrier — and produces
//! samples bit-identical to a run that was never interrupted. The
//! journaled metrics snapshots stay byte-identical to the live registry
//! at the same sequence point even after the world is gone.

use npss_sim::ledger::{RecordKind, RecordTag, Repository};
use npss_sim::netsim::FaultPlan;
use npss_sim::npss::engine_exec::{Exec, Scheduling};
use npss_sim::npss::{service, ExecutiveEngine};
use npss_sim::schooner::{CallPolicy, Schooner};
use npss_sim::tess::schedules::Schedule;
use npss_sim::tess::transient::{TransientMethod, TransientResult};

const T_END: f64 = 0.3;
const DT: f64 = 0.02;

fn world() -> Schooner {
    service::world(false).unwrap()
}

fn table2_engine(sch: &Schooner) -> ExecutiveEngine {
    let policy = CallPolicy::new().idempotent(true).retries(1).backoff(0.1, 2.0, 0.1);
    service::table2_engine(sch, &policy, Scheduling::Sequential, 3).unwrap()
}

fn fuel(exec: &ExecutiveEngine) -> Schedule {
    let wf_ref = exec.engine.design.wf;
    Schedule::new(vec![(0.0, 0.92 * wf_ref), (0.1 * T_END, 0.92 * wf_ref), (0.4 * T_END, wf_ref)])
        .unwrap()
}

fn run(exec: &mut ExecutiveEngine) -> Result<TransientResult, String> {
    let schedule = fuel(exec);
    exec.run_transient(&schedule, TransientMethod::ImprovedEuler, DT, T_END)
}

fn vnow(exec: &mut ExecutiveEngine) -> f64 {
    match exec.exec_mut("bypass duct").unwrap() {
        Exec::Remote(r) => r.line_mut().now(),
        Exec::Local(_) => unreachable!("table2 places the bypass duct remotely"),
    }
}

#[test]
fn interrupted_table2_recovers_bit_identical_from_journal() {
    let path = std::env::temp_dir().join(format!("npss-ledger-recovery-{}", std::process::id()));

    // Uninterrupted reference (also measures the virtual window).
    let sch = world();
    let mut engine = table2_engine(&sch);
    let t_start = vnow(&mut engine);
    let reference = run(&mut engine).unwrap();
    let t_stop = vnow(&mut engine);
    engine.shutdown();
    sch.shutdown();

    // Doomed run: journal attached, the Cray goes down for good past
    // mid-run, the first failed step is fatal, and the world is
    // abandoned with no teardown — as a killed process leaves it.
    let sch = world();
    sch.attach_journal(&path).unwrap();
    let mut engine = table2_engine(&sch);
    engine.max_recoveries = 0;
    let t_crash = t_start + 0.55 * (t_stop - t_start);
    sch.ctx().net.set_fault_plan(Some(FaultPlan::new(0xF100).host_crash("lerc-cray-ymp", t_crash)));
    run(&mut engine).expect_err("the crash must abort the transient");

    // Cold start: only the journal file crosses the divide.
    let repo = Repository::open(&path).unwrap();
    assert_eq!(repo.torn_bytes(), 0, "single-threaded appends leave no torn tail");
    let counts = repo.counts_by_tag();
    assert!(counts.get(&RecordTag::Barrier).copied().unwrap_or(0) >= 2, "{counts:?}");
    assert!(counts.get(&RecordTag::Sample).copied().unwrap_or(0) >= 5, "{counts:?}");
    assert!(counts.get(&RecordTag::MetricsSnapshot).copied().unwrap_or(0) >= 2, "{counts:?}");
    assert!(counts.get(&RecordTag::Event).copied().unwrap_or(0) > 100, "{counts:?}");

    let sch2 = world();
    let replay = sch2.resume_journal(&path).unwrap();
    assert_eq!(replay.records.len(), repo.len(), "resume replays the same history");
    sch2.seed_recovery(&repo);
    let mut engine2 = table2_engine(&sch2);
    let schedule = fuel(&engine2);
    let recovered = engine2
        .recover_from_journal(&repo, &schedule, TransientMethod::ImprovedEuler, DT, T_END)
        .unwrap();

    // Bit-identical transcript: the acceptance criterion.
    assert_eq!(recovered.samples.len(), reference.samples.len());
    for (a, b) in recovered.samples.iter().zip(&reference.samples) {
        assert_eq!(a.t.to_bits(), b.t.to_bits());
        assert_eq!(a.n1.to_bits(), b.n1.to_bits());
        assert_eq!(a.n2.to_bits(), b.n2.to_bits());
        assert_eq!(a.wf.to_bits(), b.wf.to_bits());
        assert_eq!(a.thrust.to_bits(), b.thrust.to_bits());
        assert_eq!(a.t4.to_bits(), b.t4.to_bits());
        assert_eq!(a.w2.to_bits(), b.w2.to_bits());
    }

    // `costs --metrics` durability: the live snapshot journaled now is
    // answerable byte-identically from the file after shutdown.
    let live = sch2.ctx().obs.metrics().snapshot_json();
    let seq = sch2.journal_metrics_snapshot().unwrap();
    engine2.shutdown();
    sch2.shutdown();
    let cold = Repository::open(&path).unwrap();
    let (at, json) = cold.metrics_as_of(seq).unwrap();
    assert_eq!(at, seq);
    assert_eq!(json, live);
    assert!(cold.last_seq() > repo.last_seq(), "the recovered run kept journaling");

    // The recovered run's own records continue the sequence unbroken
    // and replay the engine's resume path: its first new barrier is at
    // the step the dead run's latest barrier reached.
    let old_barrier = repo
        .records()
        .iter()
        .rev()
        .find_map(|r| match &r.kind {
            RecordKind::Barrier { step, .. } => Some(*step),
            _ => None,
        })
        .unwrap();
    let resumed_barrier = cold
        .records()
        .iter()
        .find_map(|r| match &r.kind {
            RecordKind::Barrier { step, .. } if r.seq > repo.last_seq() => Some(*step),
            _ => None,
        })
        .unwrap();
    assert_eq!(resumed_barrier, old_barrier, "recovery re-enters at the latest barrier");

    std::fs::remove_file(&path).ok();
}
