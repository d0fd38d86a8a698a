//! The replay contract as one table. Rows are seeded workloads (Table-2
//! transient, Table-2 session, balance, flood sweep, F100 AVS network);
//! modes are how a row runs (solo, pooled, wave, batched, crashed and
//! recovered); columns are sample bits, metrics JSON, metrics less
//! [`LINK_LAYER`] (`logical`), obs transcript, journal bytes and executor
//! report; each cell is a `(length, CRC-32)` line of the golden [`GOLDEN`].
//! The cells in [`AGREE`] must be equal, and [`MARKS`] keeps each mode from
//! passing vacuously. To move a cell on purpose, rewrite the goldens with
//! `cargo test --test replay_matrix -- --ignored rewrite_replay_goldens`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use npss_sim::ledger::frame::crc32;
use npss_sim::ledger::{Record, RecordKind, RecordTag, Repository};
use npss_sim::netsim::FaultPlan;
use npss_sim::npss::engine_exec::{ExecutiveEngine, Scheduling};
use npss_sim::npss::f100::{F100Network, RemotePlacement};
use npss_sim::npss::service::Workload::{FloodSweep, SteadyState, Transient};
use npss_sim::npss::service::{self, run_session, CrashPlan, SessionKnobs, SessionRequest};
use npss_sim::schooner::pool::{PoolConfig, SessionPool};
use npss_sim::schooner::{CallPolicy, Schooner};
use npss_sim::tess::schedules::Schedule;
use npss_sim::tess::transient::{TransientMethod::ImprovedEuler, TransientResult, TransientSample};
use Scheduling::{Sequential, WaveParallel};

const T_END: f64 = 0.4;
const DT: f64 = 0.02;
/// Solver steps between checkpoint barriers in every `table2` mode.
const BARRIER_EVERY: usize = 4;
const CRAY: &str = "lerc-cray-ymp";
/// What batching may move: its own families and the call latencies (a
/// coalesced request leaves with its frame, at the latest member's send).
const LINK_LAYER: [&str; 2] = ["net.batch.", "rpc.call_s."];
const GOLDEN: &str = "tests/golden/replay_matrix.txt";
const SESSION_GOLDENS: [(&str, &str); 2] = [
    ("session/solo", "tests/golden/table2_session.metrics.json"),
    ("session/wave+batched", "tests/golden/table2_session_wave_batched.metrics.json"),
];

/// Cells that must agree: `(columns, rows, modes)`, where no modes means
/// every mode of each row.
const AGREE: &[(&[&str], &[&str], &[&str])] = &[
    (&["samples"], &["table2", "session"], &[]),
    (&["samples", "metrics"], &["balance", "flood", "avs"], &[]),
    (&["metrics"], &["table2"], &["solo", "pooled", "beside-crash", "wave"]),
    (&["logical"], &["table2"], &["solo", "wave+batched"]),
    (&["transcript"], &["table2"], &["solo", "pooled", "beside-crash"]),
    (&["journal", "report"], &["avs"], &["journaled-a", "journaled-b"]),
];

const RESPAWNED: &str = "respawned '/npss/npss-duct' on lerc-cray-ymp";
const FLUSHES: &str = "\"net.batch.flushes.";
const ROLLBACKS: &str = "\"engine.rollbacks\"";
const FAULTS: &[&str] = &[
    "\"net.fault.hostdown\"",
    "\"rpc.retries.policy\"",
    "\"rpc.calls\"",
    "\"rpc.call_s.ua-sparc10->lerc-cray-ymp\"",
];
/// Text a cell must (`true`) or must not contain: `(row/mode, column, present, texts)`.
const MARKS: &[(&str, &str, bool, &[&str])] = &[
    ("table2/solo", "metrics", false, &[FLUSHES]),
    ("table2/wave+batched", "metrics", true, &[FLUSHES]),
    ("table2/beside-crash", "metrics", false, &["\"net.fault.hostdown\""]),
    ("table2/cray-absorbed", "transcript", true, &["declared", RESPAWNED]),
    ("table2/cray-absorbed", "metrics", true, FAULTS),
    ("table2/cray-absorbed", "metrics", false, &[ROLLBACKS]),
    ("table2/rollback", "transcript", true, &["resuming from checkpoint", RESPAWNED]),
    ("table2/rollback", "metrics", true, &[ROLLBACKS]),
    ("table2/wave-2-hosts", "metrics", true, &[ROLLBACKS]),
    ("session/crash", "metrics", true, FAULTS),
];

/// One mode's columns.
type Artifacts = BTreeMap<&'static str, Vec<u8>>;
/// Every `row/mode`'s artifacts.
type Matrix = BTreeMap<&'static str, Artifacts>;
/// Some `row/mode` cells.
type Cells = Vec<(&'static str, Artifacts)>;
type Job<'a> = Box<dyn FnOnce() -> Cells + Send + 'a>;

/// A job computing the one cell `key`.
fn one<'a>(key: &'static str, run: impl FnOnce() -> Artifacts + Send + 'a) -> Job<'a> {
    Box::new(move || vec![(key, run())])
}

fn from_session(report: service::SessionReport) -> Artifacts {
    let samples = report.transcript.join("\n").into_bytes();
    [("samples", samples), ("metrics", report.metrics_json.into_bytes())].into()
}

/// Each sample's fields as `to_bits` hex, the session transcript's format.
fn sample_bits(result: &TransientResult) -> Vec<u8> {
    let line = |s: &TransientSample| {
        let fields = [s.t, s.n1, s.n2, s.wf, s.thrust, s.t4, s.w2];
        fields.map(|v| format!("{:016x}", v.to_bits())).join(" ")
    };
    result.samples.iter().map(line).collect::<Vec<_>>().join("\n").into_bytes()
}

fn fuel_schedule(exec: &ExecutiveEngine) -> Schedule {
    let wf_ref = exec.engine.design.wf;
    Schedule::new(vec![(0.0, 0.92 * wf_ref), (0.1 * T_END, 0.92 * wf_ref), (0.4 * T_END, wf_ref)])
        .unwrap()
}

/// A backoff that outlives a two-second reboot.
fn ride_through() -> CallPolicy {
    CallPolicy::new().idempotent(true).retries(12).backoff(0.25, 2.0, 4.0)
}

/// Two attempts: a crash fails the step, and the transient rolls back.
fn fail_fast() -> CallPolicy {
    CallPolicy::new().idempotent(true).retries(1).backoff(0.1, 2.0, 0.1)
}

/// A journal file of this thread's own.
fn scratch_journal() -> PathBuf {
    let name = format!("replay-matrix-{}-{:?}", std::process::id(), std::thread::current().id());
    std::env::temp_dir().join(name)
}

/// A `table2` run: its artifacts and its virtual window.
struct Run(Artifacts, (f64, f64));

fn table2(batch: bool, sched: Scheduling, policy: CallPolicy, fault: Option<FaultPlan>) -> Run {
    let sch = service::world(batch).unwrap();
    sch.ctx().obs.set_enabled(true);
    let mut exec = service::table2_engine(&sch, &policy, sched, BARRIER_EVERY).unwrap();
    exec.max_recoveries = 20;
    sch.ctx().net.set_fault_plan(fault);
    let t_start = exec.line_now("bypass duct").unwrap();
    let fuel = fuel_schedule(&exec);
    let result = exec.run_transient(&fuel, ImprovedEuler, DT, T_END).unwrap();
    let window = (t_start, exec.line_now("bypass duct").unwrap());
    exec.shutdown();
    sch.ctx().net.set_fault_plan(None);
    let m = sch.ctx().obs.metrics();
    let art = [
        ("samples", sample_bits(&result)),
        ("metrics", m.snapshot_json().into_bytes()),
        ("logical", m.snapshot_json_excluding(&LINK_LAYER).into_bytes()),
        ("transcript", sch.ctx().obs.render().into_bytes()),
    ];
    sch.shutdown();
    Run(art.into(), window)
}

fn clean(sched: Scheduling) -> Run {
    table2(false, sched, ride_through(), None)
}

/// A `table2` run whose `hosts` crash at `t` and reboot `down` seconds later.
fn crashed(sched: Scheduling, policy: CallPolicy, hosts: &[&str], t: f64, down: f64) -> Artifacts {
    let plan = hosts.iter().fold(FaultPlan::new(0xF100), |p, h| p.host_crash(h, t));
    let plan = hosts.iter().fold(plan, |p, h| p.host_restart(h, t + down));
    table2(false, sched, policy, Some(plan)).0
}

/// The journaled run dies at `t_crash`: the Cray never returns, the first
/// failed step is fatal, and the world is abandoned without teardown, as a
/// killed process leaves it. A second world resumes from the file alone.
fn journal_cold(t_crash: f64) -> Artifacts {
    let path = scratch_journal();
    let dying = service::world(false).unwrap();
    dying.attach_journal(&path).unwrap();
    let mut dead = service::table2_engine(&dying, &fail_fast(), Sequential, BARRIER_EVERY).unwrap();
    dead.max_recoveries = 0;
    dying.ctx().net.set_fault_plan(Some(FaultPlan::new(0xF100).host_crash(CRAY, t_crash)));
    let fuel = fuel_schedule(&dead);
    let outcome = dead.run_transient(&fuel, ImprovedEuler, DT, T_END);
    outcome.expect_err("the crash must abort the transient");

    let repo = Repository::open(&path).unwrap();
    assert_eq!(repo.torn_bytes(), 0, "single-threaded appends leave no torn tail");
    let counts = repo.counts_by_tag();
    let least = [(RecordTag::Barrier, 2), (RecordTag::Sample, 5), (RecordTag::MetricsSnapshot, 2)];
    for (tag, least) in least.into_iter().chain([(RecordTag::Event, 101)]) {
        assert!(counts.get(&tag).copied().unwrap_or(0) >= least, "{counts:?}");
    }

    let sch = service::world(false).unwrap();
    sch.ctx().obs.set_enabled(true);
    let replayed = sch.resume_journal(&path).unwrap().records.len();
    assert_eq!(replayed, repo.len(), "resume replays the same history");
    sch.seed_recovery(&repo);
    let mut exec = service::table2_engine(&sch, &fail_fast(), Sequential, BARRIER_EVERY).unwrap();
    let result = exec.recover_from_journal(&repo, &fuel, ImprovedEuler, DT, T_END).unwrap();
    let metrics = sch.ctx().obs.metrics().snapshot_json();
    let seq = sch.journal_metrics_snapshot().unwrap();
    exec.shutdown();
    let transcript = sch.ctx().obs.render().into_bytes();
    sch.shutdown();

    // The live snapshot answers byte-identically from the file, and the
    // recovered run re-entered at the dead run's latest barrier.
    let cold = Repository::open(&path).unwrap();
    assert_eq!(cold.metrics_as_of(seq), Some((seq, metrics.as_str())));
    assert!(cold.last_seq() > repo.last_seq(), "the recovered run kept journaling");
    let barrier = |after: u64| {
        move |r: &Record| match r.kind {
            RecordKind::Barrier { step, .. } if r.seq > after => Some(step),
            _ => None,
        }
    };
    let last = repo.records().iter().rev().find_map(barrier(0));
    let resumed = cold.records().iter().find_map(barrier(repo.last_seq()));
    assert_eq!(resumed, last, "recovery re-enters at the latest barrier");
    let journal = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let art = [("samples", sample_bits(&result)), ("metrics", metrics.into_bytes())];
    Artifacts::from_iter(art.into_iter().chain([("transcript", transcript), ("journal", journal)]))
}

fn golden_session(knobs: SessionKnobs) -> SessionRequest {
    let workload = Transient { t_end: 0.2, dt: 0.02 };
    SessionRequest { knobs, ..SessionRequest::new("golden", 0x601D, workload) }
}

/// Cheap steady solves with varied knobs, to keep every worker busy.
fn filler_session(i: u64) -> SessionRequest {
    let scheduling = if i.is_multiple_of(3) { WaveParallel } else { Sequential };
    let knobs = SessionKnobs { link_batching: i.is_multiple_of(2), scheduling, crash: None };
    let workload = SteadyState { wf_frac: 0.93 + 0.01 * (i % 3) as f64 };
    let tenant = format!("tenant-f{}", i % 5);
    SessionRequest { knobs, ..SessionRequest::new(&tenant, 0xF111_0000 + i, workload) }
}

fn session(req: &SessionRequest) -> Artifacts {
    from_session(run_session(req).unwrap())
}

/// `probes` in a pool of `workers`, between two bursts of `fillers`
/// filler sessions each (whose artifacts are dropped).
fn pooled(workers: usize, fillers: u64, probes: Vec<Job<'static>>) -> Cells {
    let config = PoolConfig { workers, queue_capacity: 64, ..PoolConfig::default() };
    let pool = SessionPool::start(config).unwrap();
    let filler = |i| {
        let req = filler_session(i);
        pool.submit(&req.tenant.clone(), move || vec![("filler", session(&req))]).unwrap()
    };
    let mut tickets: Vec<_> = (0..fillers).map(filler).collect();
    tickets.extend(probes.into_iter().map(|job| pool.submit("tenant-p", job).unwrap()));
    tickets.extend((fillers..2 * fillers).map(filler));
    let cells = tickets.into_iter().flat_map(|ticket| ticket.wait().unwrap());
    cells.filter(|(key, _)| *key != "filler").collect()
}

/// A session whose Cray crashes at `t_crash` and reboots inside the
/// session's call-policy budget.
fn crashed_session(t_crash: f64) -> Artifacts {
    let crash = CrashPlan { host: CRAY.into(), t_crash_s: t_crash, t_restart_s: t_crash + 2.0 };
    session(&golden_session(SessionKnobs { crash: Some(crash), ..SessionKnobs::default() }))
}

/// The F100 network under the Table-2 placement, journaled and run through
/// its widgets; `report` is the executor report, virtual seconds as bits.
fn avs(scheduling: &str) -> Artifacts {
    let path = scratch_journal();
    let sch = Arc::new(Schooner::standard().unwrap());
    sch.attach_journal(&path).unwrap();
    let mut net = F100Network::build(sch.clone(), "ua-sparc10").unwrap();
    net.apply_placement(&RemotePlacement::table2()).unwrap();
    net.set_scheduling(scheduling).unwrap();
    let result = net.run("Modified Euler", 0.2, 0.02).unwrap();
    let report = net.report().into_iter().map(|r| {
        assert!(r.location != "local" && r.calls > 0, "{r:?}");
        format!("{} {} {} {:016x}\n", r.module, r.location, r.calls, r.virtual_seconds.to_bits())
    });
    let report = report.collect::<String>().into_bytes();
    let mut art: Artifacts = [("samples", sample_bits(&result)), ("report", report)].into();
    art.insert("metrics", sch.ctx().obs.metrics().snapshot_json().into_bytes());
    sch.journal_metrics_snapshot();
    drop(net);
    Arc::try_unwrap(sch).ok().expect("the network kept its world alive").shutdown();
    art.insert("journal", std::fs::read(&path).unwrap());
    std::fs::remove_file(&path).ok();
    art
}

/// Every row × mode, each mode's own guards asserted. The clean runs that
/// time the crash modes go first.
fn compute() -> Matrix {
    let (solo, wave) = (clean(Sequential), clean(WaveParallel));
    let session_solo = run_session(&golden_session(SessionKnobs::default())).unwrap();
    // Crashes strike a little past the middle of the clean run's window.
    let mid_run = |(t_start, t_stop): (f64, f64)| t_start + 0.55 * (t_stop - t_start);
    let (t, t_wave) = (mid_run(solo.1), mid_run(wave.1));
    let t_session = mid_run((session_solo.virtual_start_s, session_solo.virtual_end_s));
    let balance = || SessionRequest::new("b", 0xBA1A_0CE5, SteadyState { wf_frac: 0.95 });
    let flood = || SessionRequest::new("s", 0x5EED_F100, FloodSweep { lines: 4, variants: 64 });
    let wave_batched = SessionKnobs { link_batching: true, scheduling: WaveParallel, crash: None };

    let saturated = vec![
        one("table2/pooled", || clean(Sequential).0),
        one("balance/pooled", move || session(&balance())),
        one("flood/pooled", move || session(&flood())),
    ];
    let beside_crash = vec![
        one("session/crash", move || crashed_session(t_session)),
        one("table2/beside-crash", || clean(Sequential).0),
    ];
    let sgi = [CRAY, "ua-sgi-4d340"];
    let jobs = vec![
        one("table2/wave+batched", || table2(true, WaveParallel, ride_through(), None).0),
        one("table2/cray-absorbed", move || crashed(Sequential, ride_through(), &[CRAY], t, 2.0)),
        one("table2/rollback", move || crashed(Sequential, fail_fast(), &[CRAY], t, 0.35)),
        one("table2/wave-2-hosts", move || crashed(WaveParallel, fail_fast(), &sgi, t_wave, 0.35)),
        one("table2/journal-cold", move || journal_cold(t)),
        one("session/wave+batched", move || session(&golden_session(wave_batched))),
        Box::new(|| pooled(8, 6, saturated)),
        Box::new(|| pooled(2, 0, beside_crash)),
        one("balance/solo", || session(&balance())),
        one("flood/solo", || session(&flood())),
        one("avs/journaled-a", || avs("sequential")),
        one("avs/journaled-b", || avs("sequential")),
        one("avs/wave", || avs("wave-parallel")),
    ];
    let mut matrix: Matrix = std::thread::scope(|s| {
        let handles: Vec<_> = jobs.into_iter().map(|job| s.spawn(job)).collect();
        handles.into_iter().flat_map(|h| h.join().expect("a mode failed its guards")).collect()
    });
    matrix.extend([("table2/solo", solo.0), ("table2/wave", wave.0)]);
    matrix.insert("session/solo", from_session(session_solo));
    matrix
}

/// Where two artifacts first differ, by line.
fn first_difference(a: &[u8], b: &[u8]) -> String {
    let (a, b) = (String::from_utf8_lossy(a), String::from_utf8_lossy(b));
    match a.lines().zip(b.lines()).enumerate().find(|(_, (x, y))| x != y) {
        Some((i, (x, y))) => format!("line {i}: {x:?} vs {y:?}"),
        None => format!("{} vs {} lines", a.lines().count(), b.lines().count()),
    }
}

/// The cross-mode equalities and the marks that keep them from being vacuous.
fn check_contract(matrix: &Matrix) {
    for &(columns, rows, modes) in AGREE {
        for &row in rows {
            let hit = |(r, m): (&str, &str)| r == row && (modes.is_empty() || modes.contains(&m));
            let keys: Vec<_> = matrix.keys().filter(|k| hit(k.split_once('/').unwrap())).collect();
            assert!(keys.len() >= modes.len().max(2), "{row}: only {keys:?} of {modes:?}");
            for column in columns {
                let first = &matrix[keys[0]][column];
                for key in &keys[1..] {
                    let other = &matrix[**key][column];
                    let at = first_difference(first, other);
                    assert!(first == other, "{column}: {} and {key} differ at {at}", keys[0]);
                }
            }
        }
    }
    for &(key, column, present, texts) in MARKS {
        let text = String::from_utf8_lossy(&matrix[key][column]);
        for mark in texts {
            assert_eq!(text.contains(mark), present, "{key} {column} and {mark:?}:\n{text}");
        }
    }
    for (a, b) in [("table2/cray-absorbed", "table2/solo"), ("session/crash", "session/solo")] {
        assert!(matrix[a]["metrics"] != matrix[b]["metrics"], "the crash left no mark on {a}");
    }
}

/// The golden text: one `row/mode column length crc32` line per cell.
fn render(matrix: &Matrix) -> String {
    let cells = matrix.iter().flat_map(|(key, art)| art.iter().map(move |(c, b)| (key, c, b)));
    cells
        .map(|(key, c, b)| format!("{key:<22} {c:<10} {:>7} {:08x}\n", b.len(), crc32(b)))
        .collect()
}

fn repo_path(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)
}

#[test]
fn replay_matrix_holds_its_contract_and_golden() {
    let matrix = compute();
    check_contract(&matrix);
    for (key, path) in SESSION_GOLDENS {
        let want = std::fs::read(repo_path(path)).unwrap();
        let at = first_difference(&matrix[key]["metrics"], &want);
        assert!(matrix[key]["metrics"] == want, "{key} metrics vs {path} at {at}");
    }
    let (got, want) = (render(&matrix), std::fs::read_to_string(repo_path(GOLDEN)).unwrap());
    let moved: Vec<_> = got.lines().filter(|l| !want.contains(l)).collect();
    assert!(got == want, "cells moved from {GOLDEN}:\n{}", moved.join("\n"));
}

#[test]
#[ignore = "rewrites the goldens"]
fn rewrite_replay_goldens() {
    let matrix = compute();
    check_contract(&matrix);
    std::fs::write(repo_path(GOLDEN), render(&matrix)).unwrap();
    for (key, path) in SESSION_GOLDENS {
        std::fs::write(repo_path(path), &matrix[key]["metrics"]).unwrap();
    }
}
