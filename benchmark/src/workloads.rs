//! The five workloads: fixture, reference pass, timed op, and the same op
//! unrolled into its public calls with a span around each.
//!
//! Every workload is a closed loop driven by one thread over a *seed
//! cycle*: a fixed list of inputs drawn from `--seed`, whose reference
//! digests the set-up pass computes. The timed section runs whole cycles,
//! so per-op counts are averages over the same inputs on every commit.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use avs::WidgetInput;
use netsim::LinkConfig;
use npss::engine_exec::{ExecutiveEngine, Scheduling};
use npss::f100::{F100Network, RemotePlacement};
use npss::service::f100_wave_plan;
use npss::sweep::{SweepConfig, SweepDriver};
use npss::{procs, run_session, RemoteExec, SessionKnobs, SessionRequest, Workload as Shape};
use schooner::{
    CallPolicy, FnProcedure, LineHandle, PoolConfig, ProgramImage, Schooner, SchoonerConfig,
    SessionPool,
};
use tess::engine::Turbofan;
use tess::schedules::Schedule;
use tess::transient::{TransientMethod, TransientResult};
use testkit::SplitMix64;
use uts::Value;

use crate::spans::{Span, Tracer};

pub const NAMES: [&str; 5] = [
    "table2_transient",
    "table2_wave_batched",
    "bulk_payload",
    "session_pool_mix",
    "f100_avs_journaled",
];

/// Floats per `blast` array: 64 KiB on the wire.
pub const BULK_LEN: usize = 16_384;
const BULK_PATH: &str = "/bench/blast";
const BULK_FROM: &str = "lerc-sparc10";
/// Cray conversion, then the same-byte-order Identity bypass.
pub const BULK_TARGETS: [&str; 2] = ["lerc-cray-ymp", "lerc-sgi-4d480"];
const BULK_WARMUP_ROUNDS: usize = 500;
const BULK_ROUNDS_PER_CYCLE: usize = 64;
const BULK_ARRAYS: usize = 8;

pub const POOL_WORKERS: usize = 2;
const POOL_OUTSTANDING: usize = 4;
const POOL_TENANTS: usize = 3;
const POOL_CYCLE: usize = 128;

const JOURNAL_RING: usize = 4;

// ---------------------------------------------------------------------------
// What an op reports
// ---------------------------------------------------------------------------

/// The outcome of one op: whether its output matched the reference, and
/// the simulated-testbed seconds it spent.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub ok: bool,
    pub virtual_s: f64,
}

const FAILED: Outcome = Outcome { ok: false, virtual_s: 0.0 };

/// Judge a session by its (digest, metrics snapshot) against the
/// reference digest.
fn judged(session: &Result<(u64, String), String>, want: u64) -> Outcome {
    match session {
        Ok((digest, json)) => Outcome { ok: *digest == want, virtual_s: virtual_seconds(json) },
        Err(_) => FAILED,
    }
}

/// Per-op latencies and outcomes of one measured section.
pub struct Recorder {
    start: Instant,
    /// Wall seconds per op.
    pub lat_s: Vec<f64>,
    pub failed: u64,
    pub virtual_s: f64,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            lat_s: Vec::with_capacity(1 << 16),
            failed: 0,
            virtual_s: 0.0,
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    pub fn ops(&self) -> usize {
        self.lat_s.len()
    }

    fn record(&mut self, started: Instant, outcome: Outcome) {
        self.lat_s.push(started.elapsed().as_secs_f64());
        self.failed += u64::from(!outcome.ok);
        self.virtual_s += outcome.virtual_s;
    }
}

/// One exact work count of the traced ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    Ops,
    Msgs,
    Bytes,
    Calls,
    Retries,
    UtsBytes,
    FastHits,
    LegacyHits,
    Flushes,
    BatchedMsgs,
    Events,
    Spans,
    LedgerRecords,
    LedgerBytes,
    Threads,
}

/// The counts a world's metrics snapshot holds, by counter-name prefix.
const SNAPSHOT_COUNTS: [(Count, &str); 9] = [
    (Count::Msgs, "net.msg."),
    (Count::Bytes, "net.bytes."),
    (Count::Calls, "rpc.calls"),
    (Count::Retries, "rpc.retries."),
    (Count::UtsBytes, "uts.encode_bytes"),
    (Count::FastHits, "uts.fast_path_hits"),
    (Count::LegacyHits, "uts.legacy_path_hits"),
    (Count::Flushes, "net.batch.flushes."),
    (Count::BatchedMsgs, "net.batch.fill."),
];

/// Exact work counts summed over the traced ops, read from each op's
/// world `MetricsRegistry` snapshot (and its journal, where it has one).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts([u64; 15]);

impl std::ops::Index<Count> for Counts {
    type Output = u64;
    fn index(&self, c: Count) -> &u64 {
        &self.0[c as usize]
    }
}

impl std::ops::IndexMut<Count> for Counts {
    fn index_mut(&mut self, c: Count) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl Counts {
    /// The mean of one count per traced op.
    pub fn per_op(&self, c: Count) -> f64 {
        self[c] as f64 / self[Count::Ops].max(1) as f64
    }

    fn merge(&mut self, other: &Counts) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }

    fn add_snapshot(&mut self, json: &str) {
        for (count, prefix) in SNAPSHOT_COUNTS {
            self[count] += counter_sum(json, prefix);
        }
    }

    /// Take a persistent world's earlier snapshot back out.
    fn sub_snapshot(&mut self, json: &str) {
        for (count, prefix) in SNAPSHOT_COUNTS {
            self[count] -= counter_sum(json, prefix);
        }
    }
}

/// Each entry of the `"name": value` lines of a metrics snapshot whose
/// name starts with `prefix`. The export is line-oriented and sorted.
fn snapshot_entries<'a>(json: &'a str, prefix: &'a str) -> impl Iterator<Item = &'a str> + 'a {
    json.lines().filter_map(move |line| {
        let (name, value) = line.trim_start().strip_prefix('"')?.split_once("\": ")?;
        name.starts_with(prefix).then_some(value)
    })
}

/// Sum of the counters whose name starts with `prefix`.
pub fn counter_sum(json: &str, prefix: &str) -> u64 {
    snapshot_entries(json, prefix).filter_map(|v| v.trim_end_matches(',').parse::<u64>().ok()).sum()
}

/// Simulated-testbed seconds of a world: the sum of the `rpc.call_s.*`
/// histogram sums of its snapshot.
pub fn virtual_seconds(json: &str) -> f64 {
    snapshot_entries(json, "rpc.call_s.")
        .filter_map(|v| {
            let sum = v.split_once("\"sum\": ")?.1;
            sum.split_once(',')?.0.parse::<f64>().ok()
        })
        .sum()
}

/// OS threads of this process (`Threads:` in `/proc/self/status`).
fn os_threads() -> u64 {
    crate::os::proc_status("Threads").and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// FNV-1a over transcript lines with a separator per line — the fold
/// `npss::service` uses for `SessionReport::digest`, so an unrolled op's
/// digest is comparable with `run_session`'s.
fn digest_lines<'a>(lines: impl Iterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(0x0a)) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn hex_line(values: &[f64]) -> String {
    let words: Vec<String> = values.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
    words.join(" ")
}

fn transient_transcript(result: &TransientResult) -> Vec<String> {
    result
        .samples
        .iter()
        .map(|s| hex_line(&[s.t, s.n1, s.n2, s.wf, s.thrust, s.t4, s.w2]))
        .collect()
}

// ---------------------------------------------------------------------------
// The workload interface
// ---------------------------------------------------------------------------

/// Which workload a fixture is: what the per-layer unit-cost
/// measurements look at to use the workload's own shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Table2 { wave_batched: bool },
    Bulk,
    PoolMix,
    AvsJournaled,
}

impl Kind {
    /// The engine arithmetic of a mean op, for the `tess` floor: the
    /// share of ops that are a steady-state balance, the share that are a
    /// transient, and the transient's length in virtual seconds.
    pub fn tess_mix(self) -> (f64, f64, f64) {
        match self {
            Kind::Bulk => (0.0, 0.0, 0.0),
            // Two balances, a flood and a 0.1 s transient in every four.
            Kind::PoolMix => (0.5, 0.25, 0.1),
            Kind::Table2 { .. } | Kind::AvsJournaled => (0.0, 1.0, 1.0),
        }
    }
}

pub trait Workload {
    fn kind(&self) -> Kind;
    /// Run one seed cycle of plain ops.
    fn run_cycle(&mut self, rec: &mut Recorder);
    /// Run one seed cycle of unrolled ops under the tracer.
    fn run_cycle_traced(&mut self, rec: &mut Recorder, tracer: &mut Tracer, counts: &mut Counts);
    /// Pool telemetry gathered by plain cycles (pooled workload only).
    fn pool_stats(&self) -> Option<PoolStats> {
        None
    }
    fn tear_down(self: Box<Self>);
}

/// Build the named workload's fixture and run its reference pass.
pub fn set_up(name: &str, seed: u64, out_dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "table2_transient" => Box::new(Table2::set_up(seed, false)?),
        "table2_wave_batched" => Box::new(Table2::set_up(seed, true)?),
        "bulk_payload" => Box::new(Bulk::set_up(seed)?),
        "session_pool_mix" => Box::new(PoolMix::set_up(seed)?),
        "f100_avs_journaled" => Box::new(AvsJournaled::set_up(seed, out_dir)?),
        other => return Err(format!("unknown workload '{other}' (known: {})", NAMES.join(", "))),
    })
}

fn seed_cycle(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

// ---------------------------------------------------------------------------
// The unrolled session: npss::run_session, call by public call
// ---------------------------------------------------------------------------

fn sch_err(e: schooner::SchError) -> String {
    e.to_string()
}

/// The Table-2 placement bound to a fresh executive, as `npss::service`
/// binds it for every engine session.
fn traced_table2_engine(
    sch: &Schooner,
    scheduling: Scheduling,
    t: &mut Tracer,
) -> Result<ExecutiveEngine, String> {
    t.enter("tess.engine_new");
    let mut exec = ExecutiveEngine::all_local(Turbofan::f100()?)?;
    exec.scheduling = scheduling;
    exec.wave_plan = f100_wave_plan();
    t.exit();
    let policy = CallPolicy::new().idempotent(true).retries(12).backoff(0.25, 2.0, 4.0);
    for (slot, path, machine) in [
        ("combustor", procs::COMBUSTOR_PATH, "ua-sgi-4d340"),
        ("bypass duct", procs::DUCT_PATH, "lerc-cray-ymp"),
        ("tailpipe duct", procs::DUCT_PATH, "lerc-cray-ymp"),
        ("nozzle", procs::NOZZLE_PATH, "lerc-sgi-4d420"),
        ("low speed shaft", procs::SHAFT_PATH, "lerc-rs6000"),
        ("high speed shaft", procs::SHAFT_PATH, "lerc-rs6000"),
    ] {
        t.enter("system.line_start");
        let line = sch.open_line(slot, "ua-sparc10").map_err(sch_err)?;
        let remote = RemoteExec::start(line, path, machine)?.with_policy(policy.clone());
        exec.set_remote(slot, remote)?;
        t.exit();
    }
    exec.checkpoint_interval = 4;
    Ok(exec)
}

/// `run_session` unrolled into the public calls it makes, a span around
/// each. Returns the transcript digest and the world's metrics snapshot.
fn unrolled_session(
    req: &SessionRequest,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<(u64, String), String> {
    let mut rng = SplitMix64::new(req.seed);
    let threads_before = os_threads();

    t.enter("system.world_build");
    let config = if req.knobs.link_batching {
        SchoonerConfig::builder().link_batching(LinkConfig::default()).build()
    } else {
        SchoonerConfig::default()
    };
    let sch = Schooner::standard_with(config).map_err(sch_err)?;
    let hosts: Vec<String> = sch.ctx().park.hosts().iter().map(|s| s.to_string()).collect();
    let host_refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
    for (path, image) in [
        (procs::SHAFT_PATH, procs::shaft_image()),
        (procs::DUCT_PATH, procs::duct_image()),
        (procs::COMBUSTOR_PATH, procs::combustor_image()),
        (procs::NOZZLE_PATH, procs::nozzle_image()),
    ] {
        sch.install_program(path, image, &host_refs).map_err(sch_err)?;
    }
    t.exit();
    // Event recording on, so the op's emits can be counted afterwards.
    let obs = sch.ctx().obs.clone();
    obs.set_enabled(true);

    let transcript: Vec<String> = match &req.workload {
        Shape::Transient { t_end, dt } => {
            let mut exec = traced_table2_engine(&sch, req.knobs.scheduling, t)?;
            counts[Count::Threads] += os_threads() - threads_before;
            let wf_ref = exec.engine.design.wf;
            let idle = rng.range(0.90, 0.94);
            let push = rng.range(0.98, 1.0);
            let knee = rng.range(0.2, 0.5);
            let fuel = Schedule::new(vec![
                (0.0, idle * wf_ref),
                (knee * t_end, idle * wf_ref),
                (0.8 * t_end, push * wf_ref),
            ])?;
            t.enter("engine_exec.run_transient");
            let result = exec.run_transient(&fuel, TransientMethod::ImprovedEuler, *dt, *t_end)?;
            t.exit();
            t.span("system.quit", || exec.shutdown());
            transient_transcript(&result)
        }
        Shape::SteadyState { wf_frac } => {
            let mut exec = traced_table2_engine(&sch, req.knobs.scheduling, t)?;
            counts[Count::Threads] += os_threads() - threads_before;
            let jitter = rng.range(0.98, 1.02);
            let wf = (wf_frac * jitter).clamp(0.85, 1.05) * exec.engine.design.wf;
            t.enter("engine_exec.balance");
            let op = exec.balance(wf)?;
            t.exit();
            t.span("system.quit", || exec.shutdown());
            vec![hex_line(&[op.n1, op.n2, op.wf, op.thrust, op.sfc, op.bpr])]
        }
        Shape::FloodSweep { lines, variants } => {
            let cfg = SweepConfig {
                lines: *lines,
                variants: *variants,
                seed: req.seed,
                ..SweepConfig::default()
            };
            t.enter("system.line_start");
            let mut driver = SweepDriver::start(&sch, cfg)?;
            t.exit();
            counts[Count::Threads] += os_threads() - threads_before;
            t.enter("engine_exec.sweep");
            let report = driver.run()?;
            t.exit();
            t.span("system.quit", || driver.shutdown());
            vec![format!("{:016x} {:016x}", report.checksum, report.makespan_s.to_bits())]
        }
    };

    let json = t.span("obs.snapshot", || sch.ctx().obs.metrics().snapshot_json());
    t.span("system.shutdown", || sch.shutdown());
    counts[Count::Ops] += 1;
    counts.add_snapshot(&json);
    counts[Count::Events] += obs.events().len() as u64;
    counts[Count::Spans] += obs.completed_spans().len() as u64;
    Ok((digest_lines(transcript.iter().map(String::as_str)), json))
}

// ---------------------------------------------------------------------------
// table2_transient / table2_wave_batched
// ---------------------------------------------------------------------------

struct Table2 {
    requests: Vec<SessionRequest>,
    reference: Vec<u64>,
    wave_batched: bool,
}

impl Table2 {
    fn set_up(seed: u64, wave_batched: bool) -> Result<Self, String> {
        let shape = Shape::Transient { t_end: 1.0, dt: 0.02 };
        // The reference is always the sequential, unbatched session: the
        // wave-scheduled, batched op must reproduce it bit for bit.
        let plain: Vec<SessionRequest> = seed_cycle(seed, 16)
            .into_iter()
            .map(|s| SessionRequest::new("bench", s, shape.clone()))
            .collect();
        let reference = plain
            .iter()
            .map(|req| run_session(req).map(|r| r.digest))
            .collect::<Result<Vec<u64>, String>>()?;
        let requests = plain
            .into_iter()
            .map(|mut req| {
                if wave_batched {
                    req.knobs = SessionKnobs {
                        link_batching: true,
                        scheduling: Scheduling::WaveParallel,
                        crash: None,
                    };
                }
                req
            })
            .collect();
        Ok(Self { requests, reference, wave_batched })
    }
}

impl Workload for Table2 {
    fn kind(&self) -> Kind {
        Kind::Table2 { wave_batched: self.wave_batched }
    }

    fn run_cycle(&mut self, rec: &mut Recorder) {
        for (req, &want) in self.requests.iter().zip(&self.reference) {
            let started = Instant::now();
            let session = run_session(req).map(|r| (r.digest, r.metrics_json));
            rec.record(started, judged(&session, want));
        }
    }

    fn run_cycle_traced(&mut self, rec: &mut Recorder, t: &mut Tracer, counts: &mut Counts) {
        for (req, &want) in self.requests.iter().zip(&self.reference) {
            let started = Instant::now();
            t.enter("op.session");
            let session = unrolled_session(req, t, counts);
            t.close_op();
            rec.record(started, judged(&session, want));
        }
    }

    fn tear_down(self: Box<Self>) {}
}

// ---------------------------------------------------------------------------
// bulk_payload
// ---------------------------------------------------------------------------

struct Bulk {
    sch: Schooner,
    /// OS threads the world and its two remote processes added.
    world_threads: u64,
    lines: Vec<LineHandle>,
    arrays: Vec<Value>,
    next_array: usize,
}

fn blast_image() -> ProgramImage {
    let spec = format!(
        r#"export blast prog("xs" val array[{BULK_LEN}] of float, "ys" res array[{BULK_LEN}] of float)"#
    );
    ProgramImage::new("blast", &spec)
        .expect("spec parses")
        .with_procedure("blast", || {
            Box::new(FnProcedure::with_flops(|args: &[Value]| Ok(vec![args[0].clone()]), 10_000.0))
        })
        .expect("blast declared")
}

/// Seed-drawn arrays of ordinary magnitudes, which every float format of
/// the testbed carries exactly.
pub fn bulk_arrays(seed: u64) -> Vec<Value> {
    let mut rng = SplitMix64::new(seed);
    (0..BULK_ARRAYS)
        .map(|_| {
            let xs: Vec<f32> = (0..BULK_LEN).map(|_| rng.range(-1000.0, 1000.0) as f32).collect();
            Value::floats(&xs)
        })
        .collect()
}

impl Bulk {
    fn set_up(seed: u64) -> Result<Self, String> {
        let threads_before = os_threads();
        let sch = Schooner::standard().map_err(sch_err)?;
        sch.install_program(BULK_PATH, blast_image(), &BULK_TARGETS).map_err(sch_err)?;
        let mut lines = Vec::new();
        for (i, target) in BULK_TARGETS.iter().enumerate() {
            let mut line = sch.open_line(&format!("bulk-{i}"), BULK_FROM).map_err(sch_err)?;
            line.start_remote(BULK_PATH, target).map_err(sch_err)?;
            lines.push(line);
        }
        let world_threads = os_threads() - threads_before;
        let mut bulk = Self { sch, world_threads, lines, arrays: bulk_arrays(seed), next_array: 0 };
        for _ in 0..BULK_WARMUP_ROUNDS {
            if !bulk.round() {
                return Err("bulk_payload: a warm-up echo differed from what was sent".into());
            }
        }
        Ok(bulk)
    }

    /// One round: the next array echoed through the Cray, then the SGI.
    /// True when both echoes are bitwise what was sent.
    fn round(&mut self) -> bool {
        let xs = &self.arrays[self.next_array];
        self.next_array = (self.next_array + 1) % self.arrays.len();
        self.lines.iter_mut().all(|line| {
            line.call("blast", std::slice::from_ref(xs)).is_ok_and(|out| same_bits(&out, xs))
        })
    }

    fn snapshot(&self) -> String {
        self.sch.ctx().obs.metrics().snapshot_json()
    }

    /// Completed call spans accumulate in a world's sink for as long as
    /// it lives; a long-lived caller drops them, and so does the fixture,
    /// or peak memory would grow with the number of rounds a run fits in.
    fn drop_spans(&self) -> u64 {
        let n = self.sch.ctx().obs.completed_spans().len() as u64;
        self.sch.ctx().obs.clear_spans();
        n
    }
}

fn same_bits(out: &[Value], sent: &Value) -> bool {
    let (Some(got), Some(want)) = (out.first().and_then(Value::as_floats), sent.as_floats()) else {
        return false;
    };
    out.len() == 1
        && got.len() == want.len()
        && got.iter().zip(want.iter()).all(|(a, b)| a.to_bits() == b.to_bits())
}

impl Workload for Bulk {
    fn kind(&self) -> Kind {
        Kind::Bulk
    }

    fn run_cycle(&mut self, rec: &mut Recorder) {
        let before = virtual_seconds(&self.snapshot());
        for _ in 0..BULK_ROUNDS_PER_CYCLE {
            let started = Instant::now();
            let ok = self.round();
            rec.record(started, Outcome { ok, virtual_s: 0.0 });
        }
        // The persistent world's clock is read per cycle, not per round.
        rec.virtual_s += virtual_seconds(&self.snapshot()) - before;
        self.drop_spans();
    }

    fn run_cycle_traced(&mut self, rec: &mut Recorder, t: &mut Tracer, counts: &mut Counts) {
        let before = self.snapshot();
        let obs = self.sch.ctx().obs.clone();
        obs.set_enabled(true);
        for _ in 0..BULK_ROUNDS_PER_CYCLE {
            let started = Instant::now();
            t.enter("op.round");
            let xs = self.arrays[self.next_array].clone();
            self.next_array = (self.next_array + 1) % self.arrays.len();
            let mut ok = true;
            for (line, name) in self.lines.iter_mut().zip(["line.call_cray", "line.call_sgi"]) {
                t.enter(name);
                let out = line.call("blast", std::slice::from_ref(&xs));
                t.exit();
                ok &= t.span("harness.compare", || out.is_ok_and(|out| same_bits(&out, &xs)));
            }
            t.close_op();
            rec.record(started, Outcome { ok, virtual_s: 0.0 });
        }
        let after = self.snapshot();
        rec.virtual_s += virtual_seconds(&after) - virtual_seconds(&before);
        counts[Count::Ops] += BULK_ROUNDS_PER_CYCLE as u64;
        counts[Count::Threads] += self.world_threads * BULK_ROUNDS_PER_CYCLE as u64;
        counts.add_snapshot(&after);
        counts.sub_snapshot(&before);
        counts[Count::Spans] += self.drop_spans();
        counts[Count::Events] += obs.events().len() as u64;
        obs.set_enabled(false);
        obs.clear_events();
    }

    fn tear_down(mut self: Box<Self>) {
        for line in &mut self.lines {
            let _ = line.quit();
        }
        self.sch.shutdown();
    }
}

// ---------------------------------------------------------------------------
// session_pool_mix
// ---------------------------------------------------------------------------

/// What a pooled job hands back: the session's digest and snapshot, when
/// a worker picked it up and finished it, and (traced jobs) the spans and
/// counts it recorded on the worker thread.
struct Pooled {
    result: Result<(u64, String), String>,
    started: Instant,
    finished: Instant,
    spans: Vec<Span>,
    counts: Counts,
}

/// Pool telemetry measured from outside, around each job.
#[derive(Debug, Default, Clone)]
pub struct PoolStats {
    pub wait_s: Vec<f64>,
    pub session_s: Vec<f64>,
    pub admitted: u64,
    pub rejected: u64,
}

type InFlight = VecDeque<(usize, Instant, schooner::SessionTicket<Pooled>)>;

struct PoolMix {
    pool: SessionPool<Pooled>,
    requests: Vec<SessionRequest>,
    reference: Vec<u64>,
    stats: PoolStats,
}

impl PoolMix {
    fn set_up(seed: u64) -> Result<Self, String> {
        let pool = SessionPool::start(PoolConfig {
            workers: POOL_WORKERS,
            queue_capacity: 8,
            // Finite, so the limiter's arithmetic runs, and far above
            // what one CPU can offer, so it never binds.
            tenant_rate: 10_000.0,
            tenant_burst: 64.0,
        })
        .map_err(sch_err)?;
        let requests: Vec<SessionRequest> = seed_cycle(seed, POOL_CYCLE)
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let shape = match i % 4 {
                    0 => Shape::SteadyState { wf_frac: 0.95 },
                    1 => Shape::FloodSweep { lines: 4, variants: 256 },
                    2 => Shape::SteadyState { wf_frac: 0.90 },
                    _ => Shape::Transient { t_end: 0.1, dt: 0.02 },
                };
                SessionRequest::new(&format!("tenant-{}", i % POOL_TENANTS), s, shape)
            })
            .collect();
        // The reference is the solo session: pooling must not change it.
        let reference = requests
            .iter()
            .map(|req| run_session(req).map(|r| r.digest))
            .collect::<Result<Vec<u64>, String>>()?;
        let stats = PoolStats {
            wait_s: Vec::with_capacity(1 << 16),
            session_s: Vec::with_capacity(1 << 16),
            ..PoolStats::default()
        };
        Ok(Self { pool, requests, reference, stats })
    }

    fn outcome(&self, i: usize, pooled: &Result<Pooled, schooner::SchError>) -> Outcome {
        pooled.as_ref().map_or(FAILED, |p| judged(&p.result, self.reference[i]))
    }

    /// Wait for the oldest session in flight; its latency is submit to
    /// report.
    fn finish_oldest(&mut self, in_flight: &mut InFlight, rec: &mut Recorder) {
        let Some((i, submitted, ticket)) = in_flight.pop_front() else { return };
        let pooled = ticket.wait();
        if let Ok(p) = &pooled {
            self.stats.wait_s.push((p.started - submitted).as_secs_f64());
            self.stats.session_s.push((p.finished - p.started).as_secs_f64());
        }
        rec.record(submitted, self.outcome(i, &pooled));
    }
}

impl Workload for PoolMix {
    fn kind(&self) -> Kind {
        Kind::PoolMix
    }

    /// The generator keeps `POOL_OUTSTANDING` sessions in the pool and
    /// drains them at the end of the cycle.
    fn run_cycle(&mut self, rec: &mut Recorder) {
        let mut in_flight = InFlight::with_capacity(POOL_OUTSTANDING);
        for i in 0..self.requests.len() {
            if in_flight.len() == POOL_OUTSTANDING {
                self.finish_oldest(&mut in_flight, rec);
            }
            let req = self.requests[i].clone();
            let submitted = Instant::now();
            let job = move || {
                let started = Instant::now();
                let result = run_session(&req).map(|r| (r.digest, r.metrics_json));
                let finished = Instant::now();
                Pooled { result, started, finished, spans: Vec::new(), counts: Counts::default() }
            };
            match self.pool.submit(&self.requests[i].tenant, job) {
                Ok(ticket) => in_flight.push_back((i, submitted, ticket)),
                Err(_) => rec.record(submitted, FAILED),
            }
        }
        while !in_flight.is_empty() {
            self.finish_oldest(&mut in_flight, rec);
        }
        let m = self.pool.metrics();
        self.stats.admitted = m.counter("pool.admitted");
        self.stats.rejected =
            m.counter("pool.rejected.rate_limited") + m.counter("pool.rejected.queue_full");
    }

    /// One session at a time, so an op is one root span: submit, then
    /// wait; the worker's unrolled session is adopted under the wait.
    fn run_cycle_traced(&mut self, rec: &mut Recorder, t: &mut Tracer, counts: &mut Counts) {
        for i in 0..self.requests.len() {
            let req = self.requests[i].clone();
            let origin = t.origin();
            let submitted = Instant::now();
            t.enter("op.session");
            t.enter("pool.submit");
            let job = move || {
                let started = Instant::now();
                let mut tracer = Tracer::with_origin(origin);
                let mut counts = Counts::default();
                let result = unrolled_session(&req, &mut tracer, &mut counts);
                let spans = tracer.into_spans();
                Pooled { result, started, finished: Instant::now(), spans, counts }
            };
            let ticket = self.pool.submit(&self.requests[i].tenant, job);
            t.exit();
            let pooled = match ticket {
                Ok(ticket) => {
                    t.enter("pool.wait");
                    let pooled = ticket.wait();
                    t.exit_adopting(pooled.as_ref().map_or(&[][..], |p| &p.spans));
                    pooled
                }
                Err(rejected) => Err(schooner::SchError::Other(rejected.to_string())),
            };
            t.close_op();
            if let Ok(p) = &pooled {
                counts.merge(&p.counts);
            }
            rec.record(submitted, self.outcome(i, &pooled));
        }
    }

    fn pool_stats(&self) -> Option<PoolStats> {
        Some(self.stats.clone())
    }

    fn tear_down(mut self: Box<Self>) {
        self.pool.shutdown();
    }
}

// ---------------------------------------------------------------------------
// f100_avs_journaled
// ---------------------------------------------------------------------------

struct AvsJournaled {
    seeds: Vec<u64>,
    /// Per seed: transcript digest and journal record count.
    reference: Vec<(u64, usize)>,
    journal_dir: PathBuf,
    next_journal: usize,
}

/// What one journaled AVS op produced.
pub struct AvsOp {
    pub digest: u64,
    pub records: usize,
    pub torn_bytes: u64,
    pub journal_bytes: u64,
    /// Obs events the journal holds.
    pub events: u64,
    pub snapshot: String,
    /// OS threads the world added, counted once the network is built;
    /// the six remote processes live only inside `run`.
    pub world_threads: u64,
}

/// The seed-drawn "initial fuel fraction" widget setting.
fn fuel_fraction(seed: u64) -> f64 {
    SplitMix64::new(seed).range(0.90, 0.94)
}

/// Run `f` inside a span when tracing, bare when not.
fn spanned<R>(t: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    if let Some(t) = t {
        t.enter(name);
    }
    let out = f();
    if let Some(t) = t {
        t.exit();
    }
    out
}

/// One op of the AVS workload: fresh world, journal (when `journal` is
/// given), F100 network under the Table-2 placement, a 1 s transient,
/// teardown, and a replay of the file. Spans go to `tracer` when tracing.
pub fn avs_op(
    seed: u64,
    journal: Option<&Path>,
    mut tracer: Option<&mut Tracer>,
) -> Result<AvsOp, String> {
    let t = &mut tracer;
    let threads_before = os_threads();
    let sch = Arc::new(spanned(t, "system.world_build", Schooner::standard).map_err(sch_err)?);
    if let Some(path) = journal {
        spanned(t, "ledger.attach", || sch.attach_journal(path)).map_err(sch_err)?;
    }
    let mut net = spanned(t, "avs.build", || F100Network::build(sch.clone(), "ua-sparc10"))?;
    let world_threads = os_threads() - threads_before;
    spanned(t, "avs.place", || {
        net.apply_placement(&RemotePlacement::table2())?;
        let system = net.id("system");
        let fraction = WidgetInput::Number(fuel_fraction(seed));
        net.editor.set_widget(system, "initial fuel fraction", fraction)
    })?;
    let result = spanned(t, "avs.run", || net.run("Modified Euler", 1.0, 0.02))?;
    spanned(t, "ledger.snapshot", || sch.journal_metrics_snapshot());
    let snapshot = spanned(t, "obs.snapshot", || sch.ctx().obs.metrics().snapshot_json());
    spanned(t, "system.shutdown", || {
        drop(net);
        let sch = Arc::try_unwrap(sch).map_err(|_| "the F100 network kept its world alive")?;
        sch.shutdown();
        Ok::<(), String>(())
    })?;
    let transcript = transient_transcript(&result);
    let mut op = AvsOp {
        digest: digest_lines(transcript.iter().map(String::as_str)),
        records: 0,
        torn_bytes: 0,
        journal_bytes: 0,
        events: 0,
        snapshot,
        world_threads,
    };
    if let Some(path) = journal {
        let replay =
            spanned(t, "ledger.replay", || ledger::replay(path)).map_err(|e| e.to_string())?;
        op.records = replay.records.len();
        op.torn_bytes = replay.torn_bytes;
        op.journal_bytes = replay.bytes_valid;
        op.events = replay
            .records
            .iter()
            .filter(|r| matches!(r.kind, ledger::RecordKind::Event { .. }))
            .count() as u64;
    }
    Ok(op)
}

/// The journal directory: a ring of `JOURNAL_RING` files, emptied when a
/// fixture is built and removed when it is torn down.
pub fn journal_dir(out_dir: &Path) -> Result<PathBuf, String> {
    let dir = out_dir.join("journals");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

impl AvsJournaled {
    fn set_up(seed: u64, out_dir: &Path) -> Result<Self, String> {
        let mut w = Self {
            seeds: seed_cycle(seed, 16),
            reference: Vec::new(),
            journal_dir: journal_dir(out_dir)?,
            next_journal: 0,
        };
        for i in 0..w.seeds.len() {
            let path = w.next_journal_path();
            let op = avs_op(w.seeds[i], Some(&path), None)?;
            if op.torn_bytes != 0 || op.records == 0 {
                return Err(format!("reference journal of seed {i} is torn or empty"));
            }
            w.reference.push((op.digest, op.records));
        }
        Ok(w)
    }

    fn next_journal_path(&mut self) -> PathBuf {
        let path = self.journal_dir.join(format!("ring-{}.journal", self.next_journal));
        self.next_journal = (self.next_journal + 1) % JOURNAL_RING;
        path
    }

    fn check(&self, i: usize, op: &Result<AvsOp, String>) -> Outcome {
        match op {
            Ok(op) => Outcome {
                ok: (op.digest, op.records) == self.reference[i] && op.torn_bytes == 0,
                virtual_s: virtual_seconds(&op.snapshot),
            },
            Err(_) => FAILED,
        }
    }
}

impl Workload for AvsJournaled {
    fn kind(&self) -> Kind {
        Kind::AvsJournaled
    }

    fn run_cycle(&mut self, rec: &mut Recorder) {
        for i in 0..self.seeds.len() {
            let path = self.next_journal_path();
            let started = Instant::now();
            let op = avs_op(self.seeds[i], Some(&path), None);
            rec.record(started, self.check(i, &op));
        }
    }

    fn run_cycle_traced(&mut self, rec: &mut Recorder, t: &mut Tracer, counts: &mut Counts) {
        for i in 0..self.seeds.len() {
            let path = self.next_journal_path();
            let started = Instant::now();
            t.enter("op.avs_run");
            let op = avs_op(self.seeds[i], Some(&path), Some(t));
            t.close_op();
            if let Ok(op) = &op {
                counts[Count::Ops] += 1;
                counts.add_snapshot(&op.snapshot);
                counts[Count::LedgerRecords] += op.records as u64;
                counts[Count::LedgerBytes] += op.journal_bytes;
                counts[Count::Threads] += op.world_threads;
                counts[Count::Events] += op.events;
                counts[Count::Spans] += counter_sum(&op.snapshot, "rpc.calls");
            }
            rec.record(started, self.check(i, &op));
        }
    }

    fn tear_down(self: Box<Self>) {
        let _ = std::fs::remove_dir_all(&self.journal_dir);
    }
}

/// The seeds of the AVS workload's cycle, for the ledger layer's own
/// on/off and byte-stability measurements.
pub fn avs_seed(seed: u64) -> u64 {
    seed_cycle(seed, 16)[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_parser_sums_counters_and_histogram_sums_by_prefix() {
        let m = netsim::MetricsRegistry::new();
        m.counter_add("net.msg.a->b", 3);
        m.counter_add("net.msg.b->a", 4);
        m.counter_add("net.bytes.a->b", 100);
        m.counter_add("rpc.calls", 7);
        m.gauge_set("pool.queue_depth", 2);
        m.observe("rpc.call_s.a->b", 0.25);
        m.observe("rpc.call_s.a->b", 0.5);
        m.observe("rpc.call_s.b->a", 1.0);
        m.observe("pool.wait_s", 9.0);
        let json = m.snapshot_json();
        assert_eq!(counter_sum(&json, "net.msg."), 7);
        assert_eq!(counter_sum(&json, "net.bytes."), 100);
        assert_eq!(counter_sum(&json, "rpc.calls"), 7);
        assert_eq!(counter_sum(&json, "net.batch."), 0);
        assert_eq!(virtual_seconds(&json), 1.75);
        let mut counts = Counts::default();
        counts.add_snapshot(&json);
        counts.add_snapshot(&json);
        counts.sub_snapshot(&json);
        assert_eq!((counts[Count::Msgs], counts[Count::Calls]), (7, 7));
    }

    /// The unrolled op is the op: same digest and same metrics snapshot
    /// as `run_session`, for every shape the workloads submit.
    #[test]
    fn unrolled_session_reproduces_run_session() {
        let wave =
            SessionKnobs { link_batching: true, scheduling: Scheduling::WaveParallel, crash: None };
        for (shape, knobs) in [
            (Shape::Transient { t_end: 0.06, dt: 0.02 }, SessionKnobs::default()),
            (Shape::Transient { t_end: 0.06, dt: 0.02 }, wave),
            (Shape::SteadyState { wf_frac: 0.95 }, SessionKnobs::default()),
            (Shape::FloodSweep { lines: 4, variants: 16 }, SessionKnobs::default()),
        ] {
            let mut req = SessionRequest::new("tenant-0", 0xBEEF, shape);
            req.knobs = knobs;
            let report = run_session(&req).unwrap();
            let mut tracer = Tracer::new();
            let mut counts = Counts::default();
            tracer.enter("op.session");
            let (digest, json) = unrolled_session(&req, &mut tracer, &mut counts).unwrap();
            tracer.close_op();
            assert_eq!(digest, report.digest, "{req:?}");
            assert_eq!(json, report.metrics_json, "{req:?}");
            assert_eq!(counts[Count::Ops], 1);
            assert_eq!(counts[Count::Calls], counts[Count::Spans]);
            assert!(tracer.spans().iter().all(|s| s.op == 1));
        }
    }

    #[test]
    fn bulk_arrays_come_from_the_seed() {
        assert_eq!(bulk_arrays(7), bulk_arrays(7));
        assert_ne!(bulk_arrays(7), bulk_arrays(8));
        assert_eq!(seed_cycle(3, 16), seed_cycle(3, 16));
        assert_ne!(seed_cycle(3, 16), seed_cycle(4, 16));
    }
}
