//! Two-clock end-to-end benchmark of the NPSS executive.
//!
//! `npss-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! One process per run, one load-generator thread, the whole process on
//! one CPU. `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that yields the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `benchmark/README.md` for every metric and workload.

mod layers;
mod os;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use layers::UnitCosts;
use spans::Tracer;
use workloads::{Count, Counts, Kind, Recorder, Workload};

#[global_allocator]
static GLOBAL: os::CountingAlloc = os::CountingAlloc;

/// Set-ups per timed run; `setup_s` is their lower quartile.
const SETUPS: usize = 5;
const MIB: f64 = (1u64 << 20) as f64;
/// Share of `--seconds` a traced run gives to plain and unrolled ops;
/// the unit-cost measurements take about the rest.
const TRACED_OPS_SHARE: f64 = 0.65;

/// The end-to-end metrics, in the order of `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("cpu_s_per_op", "s"),
    ("allocs_per_op", "count"),
    ("retained_heap_mb", "MiB"),
    ("virtual_s_per_op", "sim_s"),
];

/// The per-layer metrics, in the order of `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 66] = [
    ("uts.encode_ns_per_byte", "ns/B"),
    ("uts.decode_ns_per_byte", "ns/B"),
    ("uts.encode_bytes_per_op", "B"),
    ("uts.fast_path_hit_ratio", "ratio"),
    ("uts.self_s_per_op", "s"),
    ("message.encode_ns_per_msg", "ns"),
    ("message.decode_ns_per_msg", "ns"),
    ("message.self_s_per_op", "s"),
    ("link.frame_build_ns_per_msg", "ns"),
    ("link.frame_decode_ns_per_msg", "ns"),
    ("link.flushes_per_op", "count"),
    ("link.batch_fill_mean", "count"),
    ("link.self_s_per_op", "s"),
    ("transport.msgs_per_op", "count"),
    ("transport.bytes_per_op", "B"),
    ("transport.enqueue_ns_per_msg", "ns"),
    ("transport.handoff_ns", "ns"),
    ("transport.self_s_per_op", "s"),
    ("line.calls_per_op", "count"),
    ("line.call_ns_echo", "ns"),
    ("line.issue_collect_ns_echo", "ns"),
    ("line.retries_per_op", "count"),
    ("line.self_s_per_op", "s"),
    ("system.world_build_s", "s"),
    ("system.line_start_s", "s"),
    ("system.shutdown_s", "s"),
    ("system.threads_per_world", "count"),
    ("system.self_s_per_op", "s"),
    ("pool.submit_wait_ns_noop", "ns"),
    ("pool.wait_s_p50", "s"),
    ("pool.wait_s_p99", "s"),
    ("pool.session_s_p50", "s"),
    ("pool.session_s_p99", "s"),
    ("pool.busy_frac", "ratio"),
    ("pool.rejected_share", "ratio"),
    ("pool.self_s_per_op", "s"),
    ("obs.emit_ns", "ns"),
    ("obs.span_ns", "ns"),
    ("obs.events_per_op", "count"),
    ("obs.spans_per_op", "count"),
    ("obs.self_s_per_op", "s"),
    ("ledger.append_ns_per_record", "ns"),
    ("ledger.records_per_op", "count"),
    ("ledger.bytes_per_op", "B"),
    ("ledger.sync_s", "s"),
    ("ledger.replay_s_per_op", "s"),
    ("ledger.journal_overhead_frac", "ratio"),
    ("ledger.journal_bytes_stable", "bool"),
    ("ledger.self_s_per_op", "s"),
    ("avs.settle_s_local", "s"),
    ("avs.self_s_per_op", "s"),
    ("tess.transient_s_local", "s"),
    ("tess.balance_s_local", "s"),
    ("tess.self_s_per_op", "s"),
    ("engine_exec.run_s_per_op", "s"),
    ("harness.op_s_p95", "s"),
    ("harness.op_s_p99", "s"),
    ("harness.op_s_max", "s"),
    ("harness.cpu_util", "ratio"),
    ("harness.ctx_switches_per_op", "count"),
    ("harness.alloc_bytes_per_op", "B"),
    ("harness.peak_rss_mb", "MiB"),
    ("harness.unattributed_s_per_op", "s"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.traced_ops", "count"),
    ("harness.failed_ops", "count"),
];

// ---------------------------------------------------------------------------
// Small statistics
// ---------------------------------------------------------------------------

/// Median; sorts `values` in place. 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// The `p`-th percentile of sorted values, linearly interpolated.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// One seed cycle of the timed section: where its ops end in the
/// recorder, and what it cost.
struct Cycle {
    ops_end: usize,
    wall_s: f64,
    cpu_s: f64,
}

/// The time metrics of a timed section, taken over its quiet quarter.
///
/// The reference host is a shared virtual machine: neighbours slow its
/// CPU by up to 40 % for seconds to minutes at a time, and never speed it
/// up. Every cycle runs the same inputs, so the cycles that took least
/// wall time are the ones the neighbours disturbed least. The fastest
/// quarter of them (at least one) stands for the run; over ten identical
/// runs that repeats two to four times better than the median cycle.
struct Quiet {
    ops_per_s: f64,
    op_s_p50: f64,
    cpu_s_per_op: f64,
}

fn quiet_quarter(cycles: &[Cycle], lat_s: &[f64]) -> Quiet {
    let mut fastest: Vec<usize> = (0..cycles.len()).collect();
    fastest.sort_by(|&a, &b| cycles[a].wall_s.total_cmp(&cycles[b].wall_s));
    fastest.truncate(cycles.len().div_ceil(4));
    let (mut ops, mut wall_s, mut cpu_s, mut lat) = (0, 0.0, 0.0, Vec::new());
    for &c in &fastest {
        let ops_start = if c == 0 { 0 } else { cycles[c - 1].ops_end };
        ops += cycles[c].ops_end - ops_start;
        wall_s += cycles[c].wall_s;
        cpu_s += cycles[c].cpu_s;
        lat.extend_from_slice(&lat_s[ops_start..cycles[c].ops_end]);
    }
    Quiet {
        ops_per_s: ops as f64 / wall_s,
        op_s_p50: median(&mut lat),
        cpu_s_per_op: cpu_s / ops as f64,
    }
}

// ---------------------------------------------------------------------------
// A measured section
// ---------------------------------------------------------------------------

/// What the ops of one kind cost the process, summed over the stretches
/// in which they ran.
struct Section {
    rec: Recorder,
    wall_s: f64,
    cpu_s: f64,
    ctx_switches: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Section {
    fn new() -> Self {
        Self {
            rec: Recorder::new(),
            wall_s: 0.0,
            cpu_s: 0.0,
            ctx_switches: 0,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    /// Run `ops` and charge what the process spent meanwhile.
    fn measure(&mut self, ops: impl FnOnce(&mut Recorder)) {
        let (allocs0, bytes0) = os::alloc_counts();
        let usage0 = os::usage();
        let start = Instant::now();
        ops(&mut self.rec);
        self.wall_s += start.elapsed().as_secs_f64();
        let usage1 = os::usage();
        let (allocs1, bytes1) = os::alloc_counts();
        self.cpu_s += usage1.cpu_s - usage0.cpu_s;
        self.ctx_switches += usage1.ctx_switches - usage0.ctx_switches;
        self.allocs += allocs1 - allocs0;
        self.alloc_bytes += bytes1 - bytes0;
    }
}

struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

// ---------------------------------------------------------------------------
// The timed run: end-to-end metrics, tracing off
// ---------------------------------------------------------------------------

fn timed_run(args: &Args, process_start: Instant) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for k in 0..SETUPS {
        if let Some(previous) = workload.take() {
            Workload::tear_down(previous);
        }
        // The first set-up is charged from process start, as a user pays it.
        let start = if k == 0 { process_start } else { Instant::now() };
        workload = Some(workloads::set_up(&args.workload, args.seed, &args.out_dir)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUPS is at least one");
    println!("set-ups (s): {setups:?}");

    // Whole seed cycles until `--seconds` have passed.
    let mut section = Section::new();
    let mut cycles = Vec::with_capacity(1024);
    let mut heap_mb = Vec::with_capacity(1024);
    section.measure(|rec| {
        while rec.elapsed_s() < args.seconds {
            let (wall0, cpu0) = (rec.elapsed_s(), os::usage().cpu_s);
            workload.run_cycle(rec);
            cycles.push(Cycle {
                ops_end: rec.ops(),
                wall_s: rec.elapsed_s() - wall0,
                cpu_s: os::usage().cpu_s - cpu0,
            });
            heap_mb.push(os::heap_in_use_bytes() as f64 / MIB);
        }
    });
    workload.tear_down();

    let ops = section.rec.ops() as f64;
    let quiet = quiet_quarter(&cycles, &section.rec.lat_s);
    setups.sort_by(f64::total_cmp);
    let values = [
        // The lower quartile, for the reason `Quiet` gives.
        percentile(&setups, 25.0),
        quiet.ops_per_s,
        quiet.op_s_p50,
        quiet.cpu_s_per_op,
        section.allocs as f64 / ops,
        // What the heap still holds between cycles: fixture and caches.
        median(&mut heap_mb),
        section.rec.virtual_s / ops,
    ];
    println!(
        "timed section: {} ops in {} cycles and {:.3} s ({:.3} ops/s), cpu util {:.3}",
        section.rec.ops(),
        cycles.len(),
        section.wall_s,
        ops / section.wall_s,
        section.cpu_s / section.wall_s
    );
    Ok(RunResult {
        attempted: section.rec.ops() as u64,
        failed: section.rec.failed,
        metrics: END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect(),
    })
}

// ---------------------------------------------------------------------------
// The traced run: per-layer metrics
// ---------------------------------------------------------------------------

/// Median seconds of the spans called `name`.
fn span_median_s(spans: &[spans::Span], name: &str) -> f64 {
    let mut durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .collect();
    median(&mut durations)
}

/// Inclusive seconds of the spans whose name starts with `prefix`.
fn span_inclusive_s(spans: &[spans::Span], prefix: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum()
}

fn traced_run(args: &Args) -> Result<RunResult, String> {
    let mut workload = workloads::set_up(&args.workload, args.seed, &args.out_dir)?;
    let kind = workload.kind();

    // A cycle of plain ops (the harness's own numbers, the pool's
    // telemetry), then the same cycle unrolled with a span around each
    // public call, and so on in turn: both kinds see the same host
    // conditions, so their difference is the tracing overhead.
    let (mut plain, mut traced) = (Section::new(), Section::new());
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    while plain.wall_s + traced.wall_s < args.seconds * TRACED_OPS_SHARE {
        plain.measure(|rec| workload.run_cycle(rec));
        traced.measure(|rec| workload.run_cycle_traced(rec, &mut tracer, &mut counts));
    }
    let pool = workload.pool_stats();
    workload.tear_down();

    let u = layers::measure(kind, args.seed, &args.out_dir)?;

    let spans = tracer.spans();
    let trace_path = args.out_dir.join(format!("trace-{}.json", args.workload));
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&trace_path, spans::to_json(spans)))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    println!(
        "trace: {} spans of {} ops in {}",
        spans.len(),
        traced.rec.ops(),
        trace_path.display()
    );

    let values = layer_values(kind, &plain, &traced, spans, &counts, &u, pool.as_ref());
    Ok(RunResult {
        attempted: (plain.rec.ops() + traced.rec.ops()) as u64,
        failed: plain.rec.failed + traced.rec.failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
                // Adding zero turns the -0 an empty sum yields into 0.
                (name, unit, value + 0.0)
            })
            .collect(),
    })
}

/// Every per-layer metric of a traced run. A layer's `self_s_per_op` is
/// its unit costs times the exact per-op counts, or, for the layers the
/// benchmark calls directly, the self time of its spans.
fn layer_values(
    kind: Kind,
    plain: &Section,
    traced: &Section,
    spans: &[spans::Span],
    counts: &Counts,
    u: &UnitCosts,
    pool: Option<&workloads::PoolStats>,
) -> Vec<(&'static str, f64)> {
    let ops = counts[Count::Ops].max(1) as f64;
    let n = |c: Count| counts.per_op(c);
    let span_self = spans::layer_self_s(spans);
    let span_self_per_op = |layer: &str| span_self.get(layer).copied().unwrap_or(0.0) / ops;
    let wave = matches!(kind, Kind::Table2 { wave_batched: true });

    let uts_self = n(Count::Calls) * u.uts_call_s;
    let message_self = n(Count::Msgs) * (u.msg_encode_s + u.msg_decode_s);
    let link_self = n(Count::BatchedMsgs) * (u.frame_build_s + u.frame_decode_s);
    let transport_self = n(Count::Msgs) * (u.enqueue_s + u.handoff_s);
    let echo_s = if wave { u.issue_collect_echo_s } else { u.call_echo_s };
    let line_self = n(Count::Calls) * (echo_s - u.echo_below_line_s).max(0.0);
    let system_self = span_self_per_op("system");
    let pool_self = span_self_per_op("pool");
    let obs_self =
        n(Count::Events) * u.emit_s + n(Count::Spans) * u.span_s + span_self_per_op("obs");
    let ledger_self = n(Count::LedgerRecords) * u.append_s + span_self_per_op("ledger");
    let (balance_share, transient_share, _) = kind.tess_mix();
    let tess_self = balance_share * u.balance_local_s + transient_share * u.transient_local_s;
    // What the network editor and its scheduler add to the bare engine
    // (no all-local network run is timed off the AVS workload: 0 there).
    let avs_self = (u.avs_settle_local_s - u.transient_local_s).max(0.0);
    let attributed = uts_self
        + message_self
        + link_self
        + transport_self
        + line_self
        + system_self
        + pool_self
        + obs_self
        + ledger_self
        + avs_self
        + tess_self;

    let mut plain_lat = plain.rec.lat_s.clone();
    plain_lat.sort_by(f64::total_cmp);
    // Wall seconds per op, not latency: a pooled plain op overlaps three
    // others, its unrolled twin runs alone, and both keep the CPU busy.
    let plain_ops = plain.rec.ops().max(1) as f64;
    let plain_op_s = plain.wall_s / plain_ops;
    let traced_op_s = traced.wall_s / traced.rec.ops().max(1) as f64;

    let mut values = vec![
        ("uts.encode_ns_per_byte", u.uts_encode_ns_per_byte),
        ("uts.decode_ns_per_byte", u.uts_decode_ns_per_byte),
        ("uts.encode_bytes_per_op", n(Count::UtsBytes)),
        (
            "uts.fast_path_hit_ratio",
            counts[Count::FastHits] as f64
                / (counts[Count::FastHits] + counts[Count::LegacyHits]).max(1) as f64,
        ),
        ("uts.self_s_per_op", uts_self),
        ("message.encode_ns_per_msg", u.msg_encode_s * 1e9),
        ("message.decode_ns_per_msg", u.msg_decode_s * 1e9),
        ("message.self_s_per_op", message_self),
        ("link.frame_build_ns_per_msg", u.frame_build_s * 1e9),
        ("link.frame_decode_ns_per_msg", u.frame_decode_s * 1e9),
        ("link.flushes_per_op", n(Count::Flushes)),
        (
            "link.batch_fill_mean",
            counts[Count::BatchedMsgs] as f64 / counts[Count::Flushes].max(1) as f64,
        ),
        ("link.self_s_per_op", link_self),
        ("transport.msgs_per_op", n(Count::Msgs)),
        ("transport.bytes_per_op", n(Count::Bytes)),
        ("transport.enqueue_ns_per_msg", u.enqueue_s * 1e9),
        ("transport.handoff_ns", u.handoff_s * 1e9),
        ("transport.self_s_per_op", transport_self),
        ("line.calls_per_op", n(Count::Calls)),
        ("line.call_ns_echo", u.call_echo_s * 1e9),
        ("line.issue_collect_ns_echo", u.issue_collect_echo_s * 1e9),
        ("line.retries_per_op", n(Count::Retries)),
        ("line.self_s_per_op", line_self),
        ("system.world_build_s", span_median_s(spans, "system.world_build")),
        ("system.line_start_s", span_median_s(spans, "system.line_start")),
        ("system.shutdown_s", span_median_s(spans, "system.shutdown")),
        ("system.threads_per_world", n(Count::Threads)),
        ("system.self_s_per_op", system_self),
        ("pool.submit_wait_ns_noop", u.pool_noop_s * 1e9),
        ("pool.self_s_per_op", pool_self),
        ("obs.emit_ns", u.emit_s * 1e9),
        ("obs.span_ns", u.span_s * 1e9),
        ("obs.events_per_op", n(Count::Events)),
        ("obs.spans_per_op", n(Count::Spans)),
        ("obs.self_s_per_op", obs_self),
        ("ledger.append_ns_per_record", u.append_s * 1e9),
        ("ledger.records_per_op", n(Count::LedgerRecords)),
        ("ledger.bytes_per_op", n(Count::LedgerBytes)),
        ("ledger.sync_s", u.sync_s),
        ("ledger.replay_s_per_op", span_inclusive_s(spans, "ledger.replay") / ops),
        ("ledger.journal_overhead_frac", u.journal_overhead_frac),
        ("ledger.journal_bytes_stable", u.journal_bytes_stable),
        ("ledger.self_s_per_op", ledger_self),
        ("avs.settle_s_local", u.avs_settle_local_s),
        ("avs.self_s_per_op", avs_self),
        ("tess.transient_s_local", u.transient_local_s),
        ("tess.balance_s_local", u.balance_local_s),
        ("tess.self_s_per_op", tess_self),
        (
            "engine_exec.run_s_per_op",
            (span_inclusive_s(spans, "engine_exec.") + span_inclusive_s(spans, "avs.run")) / ops,
        ),
        ("harness.op_s_p95", percentile(&plain_lat, 95.0)),
        ("harness.op_s_p99", percentile(&plain_lat, 99.0)),
        ("harness.op_s_max", plain_lat.last().copied().unwrap_or(0.0)),
        ("harness.cpu_util", plain.cpu_s / plain.wall_s),
        ("harness.ctx_switches_per_op", plain.ctx_switches as f64 / plain_ops),
        ("harness.alloc_bytes_per_op", plain.alloc_bytes as f64 / plain_ops),
        ("harness.peak_rss_mb", os::peak_rss_mb().unwrap_or(0.0)),
        ("harness.unattributed_s_per_op", plain_op_s - attributed),
        ("harness.trace_overhead_frac", (traced_op_s - plain_op_s) / plain_op_s),
        ("harness.traced_ops", traced.rec.ops() as f64),
        ("harness.failed_ops", (plain.rec.failed + traced.rec.failed) as f64),
    ];
    if let Some(pool) = pool {
        let mut wait = pool.wait_s.clone();
        let mut session = pool.session_s.clone();
        wait.sort_by(f64::total_cmp);
        session.sort_by(f64::total_cmp);
        let offered = (pool.admitted + pool.rejected).max(1) as f64;
        values.extend([
            ("pool.wait_s_p50", percentile(&wait, 50.0)),
            ("pool.wait_s_p99", percentile(&wait, 99.0)),
            ("pool.session_s_p50", percentile(&session, 50.0)),
            ("pool.session_s_p99", percentile(&session, 99.0)),
            (
                "pool.busy_frac",
                session.iter().sum::<f64>() / (workloads::POOL_WORKERS as f64 * plain.wall_s),
            ),
            ("pool.rejected_share", pool.rejected as f64 / offered),
        ]);
    }
    values
}

// ---------------------------------------------------------------------------
// Command line and output
// ---------------------------------------------------------------------------

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

const USAGE: &str = "usage: npss-benchmark --workload <name> --seed <u64> --seconds <s> \
                     --trace <0|1> [--out-dir <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        // Relative to the checkout root the driver runs from; `target/`
        // directories are ignored by git.
        out_dir: Path::new("benchmark").join("target"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600 seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of: {}\n{USAGE}", workloads::NAMES.join(", ")));
    }
    Ok(args)
}

fn result_json(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

fn run(process_start: Instant) -> Result<RunResult, String> {
    let args = parse_args()?;
    let allowed = os::allowed_cpus().map_err(|e| format!("sched_getaffinity: {e}"))?;
    let cpu = os::pin_to_first_cpu().map_err(|e| format!("sched_setaffinity: {e}"))?;
    println!(
        "workload {} seed {} seconds {} trace {}; cpus allowed {allowed:?}, pinned to {cpu}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let result = if args.trace { traced_run(&args) } else { timed_run(&args, process_start) }?;
    println!(
        "cpus used: Cpus_allowed_list {} (every thread inherits it), generator last ran on {:?}",
        os::proc_status("Cpus_allowed_list").unwrap_or_default(),
        os::last_cpu()
    );
    Ok(result)
}

fn main() {
    let process_start = Instant::now();
    match run(process_start) {
        Ok(result) => {
            for (name, unit, value) in &result.metrics {
                println!("{name:<34} {value:>18.9} {unit}");
            }
            println!("{}", result_json(&result));
            if result.failed > 0 {
                eprintln!("{} of {} ops failed", result.failed, result.attempted);
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("npss-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_median_sorts() {
        let mut v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quiet_quarter_is_the_fastest_quarter_of_the_cycles() {
        // Eight cycles of two ops; cycles 2 and 5 are quiet (1 s, ops of
        // 0.4 s and 0.6 s, 0.5 s of CPU), the others take 2 s.
        let mut cycles = Vec::new();
        let mut lat = Vec::new();
        for c in 0..8 {
            let quiet = c == 2 || c == 5;
            cycles.push(Cycle {
                ops_end: 2 * (c + 1),
                wall_s: if quiet { 1.0 } else { 2.0 },
                cpu_s: if quiet { 0.5 } else { 1.9 },
            });
            lat.extend(if quiet { [0.4, 0.6] } else { [0.9, 1.1] });
        }
        let q = quiet_quarter(&cycles, &lat);
        assert_eq!((q.ops_per_s, q.op_s_p50, q.cpu_s_per_op), (2.0, 0.5, 0.25));
        // One cycle is its own quiet quarter.
        let q = quiet_quarter(&cycles[..1], &lat);
        assert_eq!((q.ops_per_s, q.op_s_p50), (1.0, 1.0));
    }

    /// Every `"name": "..."` of one array of `BENCHMARK.json`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let array = json.split_once(&format!("\"{key}\": [")).expect("key present").1;
        let array = array.split_once(']').expect("array closes").0;
        array
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split_once('"').expect("name closes").0.to_owned())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_prints() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layers);
        assert_eq!(names_in(&json, "workloads"), workloads::NAMES);
    }
}
