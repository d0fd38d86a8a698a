//! The virtual-time bench records, recomputed and compared byte for byte.
//!
//! `BENCH_dataflow.json` (ablation A9), `BENCH_transport.json` (A10) and
//! `BENCH_sessions.json` (A11) are deterministic virtual-time
//! arithmetic: the same tree yields the same bytes on every host. Each
//! test below computes one record in full, asserts that ablation's
//! floors, and compares the result with the committed file. A change
//! that moves a record on purpose rewrites all three with
//!
//! ```text
//! cargo test -p npss --test bench_records -- --ignored
//! ```
//!
//! and commits the diff.

use std::collections::{BTreeMap, VecDeque};

use netsim::LinkConfig;
use npss::engine_exec::{Exec, Scheduling};
use npss::service::{self, run_session, SessionKnobs, SessionReport, SessionRequest, Workload};
use npss::sweep::{SweepConfig, SweepDriver, SweepReport};
use schooner::pool::{PoolConfig, Rejected, SessionPool, TokenBucket};
use schooner::{CallPolicy, FnProcedure, ProgramImage, Schooner, SchoonerConfig};
use testkit::SplitMix64;
use uts::Value;

fn record_path(file: &str) -> String {
    format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))
}

fn check_committed(file: &str, computed: &str) {
    let path = record_path(file);
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert!(
        computed == committed,
        "{file} no longer matches the computed record; if the change is intended, run \
         `cargo test -p npss --test bench_records -- --ignored` and commit the result\n\
         --- committed\n{committed}--- computed\n{computed}"
    );
}

#[test]
fn dataflow_record_matches_committed() {
    check_committed("BENCH_dataflow.json", &dataflow_record());
}

#[test]
fn transport_record_matches_committed() {
    check_committed("BENCH_transport.json", &transport_record());
}

#[test]
fn sessions_record_matches_committed() {
    check_committed("BENCH_sessions.json", &sessions_record());
}

#[test]
#[ignore = "rewrites the committed records"]
fn rewrite_committed_records() {
    for (file, record) in [
        ("BENCH_dataflow.json", dataflow_record()),
        ("BENCH_transport.json", transport_record()),
        ("BENCH_sessions.json", sessions_record()),
    ] {
        std::fs::write(record_path(file), record).unwrap();
    }
}

// ---------------------------------------------------------------------------
// A9: level-parallel dataflow waves vs the sequential sweep
// ---------------------------------------------------------------------------

const FANOUT: usize = 8;

const SLOTS: [&str; 6] =
    ["combustor", "bypass duct", "tailpipe duct", "nozzle", "low speed shaft", "high speed shaft"];

/// Virtual seconds the F100's widest level — the full-width six-call
/// configuration wave driven by `setup()` — takes swept one call at a
/// time versus overlapped, both read off the same steady-state wave's
/// call spans: the serial cost is the sum of the six call durations, the
/// parallel cost is the wave's makespan.
fn f100_level_seconds() -> (f64, f64) {
    let sch = service::world(false).unwrap();
    let mut exec =
        service::table2_engine(&sch, &CallPolicy::default(), Scheduling::WaveParallel, 0).unwrap();
    exec.setup().unwrap(); // warm: process spawn, binding lookups
    sch.ctx().obs.clear_spans();
    exec.setup().unwrap();
    let mut spans = Vec::new();
    for slot in SLOTS {
        let Some(Exec::Remote(r)) = exec.exec_mut(slot) else { panic!("{slot} is remote") };
        let line = r.line_mut();
        spans.extend(line.obs().spans_for_line(line.id()));
    }
    assert_eq!(spans.len(), SLOTS.len(), "one steady-state config call per slot");
    let cp = schooner::critical_path(&spans);
    exec.shutdown();
    (cp.serial_s, cp.critical_s)
}

fn echo_image() -> ProgramImage {
    ProgramImage::new("echo", r#"export echo prog("x" val double, "y" res double)"#)
        .unwrap()
        .with_procedure("echo", || {
            Box::new(FnProcedure::with_flops(|args: &[Value]| Ok(vec![args[0].clone()]), 1_000.0))
        })
        .unwrap()
}

/// Virtual seconds of one width-`FANOUT` wave of identical remote calls,
/// sequential (each call starts where the previous ended) vs issued
/// before any collect.
fn fanout_seconds(sch: &Schooner, overlapped: bool) -> f64 {
    let mut lines = Vec::new();
    for i in 0..FANOUT {
        let mode = if overlapped { "par" } else { "seq" };
        let mut line = sch.open_line(&format!("fan-{mode}-{i}"), "lerc-sparc10").unwrap();
        line.start_remote("/bench/fanout", "ua-sparc10").unwrap();
        line.call("echo", &[Value::Double(0.0)]).unwrap(); // warm
        lines.push(line);
    }
    let t0 = lines.iter().map(|l| l.now()).fold(0.0, f64::max);
    let elapsed = if overlapped {
        let mut tickets = Vec::new();
        for line in &mut lines {
            line.sync_to(t0);
            tickets.push(line.issue("echo", &[Value::Double(1.0)]).unwrap());
        }
        let mut t_done = t0;
        for (line, ticket) in lines.iter_mut().zip(tickets) {
            line.collect(ticket).unwrap();
            t_done = t_done.max(line.now());
        }
        t_done - t0
    } else {
        let mut t = t0;
        for line in &mut lines {
            line.sync_to(t);
            line.call("echo", &[Value::Double(1.0)]).unwrap();
            t = line.now();
        }
        t - t0
    };
    for mut line in lines {
        line.quit().unwrap();
    }
    elapsed
}

fn dataflow_record() -> String {
    let (f100_seq, f100_par) = f100_level_seconds();
    let f100_speedup = f100_seq / f100_par;

    let sch = Schooner::standard().unwrap();
    sch.install_program("/bench/fanout", echo_image(), &["ua-sparc10"]).unwrap();
    let fan_seq = fanout_seconds(&sch, false);
    let fan_par = fanout_seconds(&sch, true);
    let fan_speedup = fan_seq / fan_par;

    assert!(f100_speedup >= 2.0, "F100 widest-level speedup {f100_speedup:.2}x is below 2x");
    assert!(fan_speedup >= 3.0, "width-{FANOUT} fan-out speedup {fan_speedup:.2}x is below 3x");

    format!(
        "{{\n  \"bench\": \"dataflow_waves\",\n  \"rows\": [\n    \
         {{\"wave\": \"f100_widest_level\", \"width\": 6, \"sequential_ms\": {:.3}, \
         \"parallel_ms\": {:.3}, \"speedup\": {:.2}, \"floor\": 2.0}},\n    \
         {{\"wave\": \"synthetic_fanout\", \"width\": {FANOUT}, \"sequential_ms\": {:.3}, \
         \"parallel_ms\": {:.3}, \"speedup\": {:.2}, \"floor\": 3.0}}\n  ]\n}}\n",
        f100_seq * 1e3,
        f100_par * 1e3,
        f100_speedup,
        fan_seq * 1e3,
        fan_par * 1e3,
        fan_speedup,
    )
}

// ---------------------------------------------------------------------------
// A10: batched, coalesced link transport under a flood
// ---------------------------------------------------------------------------

const FROM: &str = "ua-sparc10";
const TO: &str = "lerc-rs6000";

struct FloodRow {
    report: SweepReport,
    msgs: u64,
    bytes: u64,
    /// Latency-paying wire units: frames when batched, messages when not.
    frames: u64,
    /// How long the route is busy: the cost model's latency term once
    /// per wire unit plus its per-byte term.
    occupancy_s: f64,
}

impl FloodRow {
    /// Logical messages per link-second.
    fn throughput(&self) -> f64 {
        self.msgs as f64 / self.occupancy_s
    }
}

/// Flood `variants` seeded `duct` requests from `FROM` to `TO` and read
/// the link's counters back.
fn flood(config: SchoonerConfig, variants: usize) -> FloodRow {
    let sch = Schooner::standard_with(config).unwrap();
    let mut driver =
        SweepDriver::start(&sch, SweepConfig { variants, ..SweepConfig::default() }).unwrap();
    let report = driver.run().unwrap();
    driver.shutdown();
    let (latency_s, per_byte_s) = sch.ctx().net.link_cost(FROM, TO).unwrap();
    let m = sch.ctx().obs.metrics();
    let link = format!("{FROM}->{TO}");
    let msgs = m.counter(&format!("net.msg.{link}"));
    let bytes = m.counter(&format!("net.bytes.{link}"));
    let flushes = m.counter(&format!("net.batch.flushes.{link}"));
    let frames = if flushes > 0 { flushes } else { msgs };
    let occupancy_s = frames as f64 * latency_s + bytes as f64 * per_byte_s;
    sch.shutdown();
    FloodRow { report, msgs, bytes, frames, occupancy_s }
}

fn transport_record() -> String {
    let variants = 2048;
    let plain = flood(SchoonerConfig::default(), variants);
    let batched = flood(SchoonerConfig::builder().link_batching(LinkConfig).build(), variants);
    assert_eq!(plain.report.checksum, batched.report.checksum, "coalescing changed a sweep result");
    assert_eq!(plain.msgs, batched.msgs, "logical message counts diverged");
    assert_eq!(plain.bytes, batched.bytes, "logical byte counts diverged");
    let speedup = batched.throughput() / plain.throughput();
    assert!(speedup >= 5.0, "batched flood speedup {speedup:.2}x is below the 5x floor");

    format!(
        "{{\n  \"bench\": \"transport_flood\",\n  \
         \"link\": \"{FROM}->{TO}\",\n  \"variants\": {variants},\n  \"rows\": [\n    \
         {{\"transport\": \"unbatched\", \"msgs\": {}, \"frames\": {}, \
         \"occupancy_s\": {:.6}, \"msgs_per_link_s\": {:.3}}},\n    \
         {{\"transport\": \"batched\", \"msgs\": {}, \"frames\": {}, \
         \"occupancy_s\": {:.6}, \"msgs_per_link_s\": {:.3}, \"mean_fill\": {:.2}}}\n  ],\n  \
         \"speedup\": {:.3},\n  \"floor\": 5.0\n}}\n",
        plain.msgs,
        plain.frames,
        plain.occupancy_s,
        plain.throughput(),
        batched.msgs,
        batched.frames,
        batched.occupancy_s,
        batched.throughput(),
        batched.msgs as f64 / batched.frames as f64,
        speedup,
    )
}

// ---------------------------------------------------------------------------
// A11: multi-tenant session pool scaling and admission control
// ---------------------------------------------------------------------------
//
// Two layers, mirroring the pool itself. A small set of distinct seeded
// sessions runs through a live `SessionPool`, and each returns its
// deterministic virtual-time cost. Then a seeded arrival plan of
// thousands of sessions drawing on those costs replays through a
// virtual-time model of the pool's admission semantics at each pool
// size, so throughput and latency are pure arithmetic with no
// wall-clock noise. The overload row drives the same model past
// capacity against a bounded queue and per-tenant token buckets.

/// Pool sizes the scaling rows sweep.
const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

/// pool=8 must deliver at least this multiple of pool=1 throughput at
/// the same offered load.
const SCALING_FLOOR: f64 = 3.0;

/// Admitted-session p99 under overload must stay within this multiple
/// of the unsaturated (pool=8) p99.
const OVERLOAD_P99_FACTOR: f64 = 2.0;

/// One offered session in the service model.
struct Offered {
    /// Virtual arrival instant.
    arrival_s: f64,
    /// Submitting tenant (keys the token bucket).
    tenant: String,
    /// Virtual service cost: a measured session world's own cost.
    service_s: f64,
}

/// The outcome of replaying an offered plan through the service model.
#[derive(Default)]
struct ServiceOutcome {
    /// Queue wait plus service of each admitted session, in admission
    /// order.
    latencies_s: Vec<f64>,
    /// Refused offers.
    rejected: Vec<Rejected>,
    /// Virtual time from 0 to the last finish.
    makespan_s: f64,
}

impl ServiceOutcome {
    /// Completed sessions per virtual second.
    fn sessions_per_s(&self) -> f64 {
        self.latencies_s.len() as f64 / self.makespan_s
    }

    /// The `p`-th percentile (0–100) of admitted-session latency,
    /// nearest-rank on the sorted latencies.
    fn latency_percentile(&self, p: f64) -> f64 {
        let mut lat = self.latencies_s.clone();
        lat.sort_by(f64::total_cmp);
        let idx = ((p / 100.0) * (lat.len() - 1) as f64).ceil() as usize;
        lat[idx.min(lat.len() - 1)]
    }

    fn rejected_rate_limited(&self) -> usize {
        self.rejected.iter().filter(|r| matches!(r, Rejected::RateLimited { .. })).count()
    }

    fn rejected_queue_full(&self) -> usize {
        self.rejected.iter().filter(|r| matches!(r, Rejected::QueueFull { .. })).count()
    }
}

/// Replay an offered plan through the pool's admission semantics in
/// virtual time: the library's per-tenant token buckets refilled at
/// arrival instants, a bounded FIFO queue, and earliest-free-worker
/// assignment. Arrivals must be in non-decreasing order.
fn simulate_service(config: &PoolConfig, offered: &[Offered]) -> ServiceOutcome {
    let mut free_at = vec![0.0_f64; config.workers];
    let mut buckets: BTreeMap<&str, TokenBucket> = BTreeMap::new();
    // Start instants of admitted sessions, in non-decreasing order (the
    // arrivals are sorted and the earliest free time never moves back);
    // the prefix with `start <= now` has left the queue.
    let mut pending_starts: VecDeque<f64> = VecDeque::new();
    let mut out = ServiceOutcome::default();

    for session in offered {
        let now = session.arrival_s;
        while pending_starts.front().is_some_and(|&s| s <= now) {
            pending_starts.pop_front();
        }
        let bucket = buckets
            .entry(session.tenant.as_str())
            .or_insert_with(|| TokenBucket::new(config.tenant_rate, config.tenant_burst));
        if let Err(retry_after_s) = bucket.try_take(now) {
            out.rejected
                .push(Rejected::RateLimited { tenant: session.tenant.clone(), retry_after_s });
            continue;
        }
        let depth = pending_starts.len();
        if depth >= config.queue_capacity {
            let retry_after_s = (pending_starts.front().copied().unwrap_or(now) - now).max(0.0);
            out.rejected.push(Rejected::QueueFull {
                depth,
                capacity: config.queue_capacity,
                retry_after_s,
            });
            continue;
        }
        let (worker, &free) =
            free_at.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).expect("a worker");
        let start = now.max(free);
        let finish = start + session.service_s;
        free_at[worker] = finish;
        pending_starts.push_back(start);
        out.latencies_s.push(finish - now);
        out.makespan_s = out.makespan_s.max(finish);
    }
    out
}

/// The distinct seeded sessions whose virtual costs seed the model:
/// steady solves and short transients, sequential and wave-parallel,
/// batched and unbatched links — the config surface tenants would use.
fn measured_requests() -> Vec<SessionRequest> {
    (0..8)
        .map(|i| {
            let seed = 0x5E55_0000_u64 + i as u64 * 0x9E37;
            let workload = if i % 2 == 0 {
                Workload::SteadyState { wf_frac: 0.94 + 0.01 * (i % 4) as f64 }
            } else {
                Workload::Transient { t_end: 0.2, dt: 0.02 }
            };
            let knobs = SessionKnobs {
                link_batching: i % 2 == 1,
                scheduling: if i % 4 >= 2 {
                    Scheduling::WaveParallel
                } else {
                    Scheduling::Sequential
                },
                crash: None,
            };
            SessionRequest { tenant: format!("tenant-{}", i % 4), seed, workload, knobs }
        })
        .collect()
}

/// Run the measured requests through a live pool and return each one's
/// deterministic virtual cost.
fn measure_session_costs(requests: &[SessionRequest]) -> Vec<f64> {
    let pool: SessionPool<Result<SessionReport, String>> = SessionPool::start(PoolConfig {
        workers: requests.len(),
        queue_capacity: requests.len(),
        ..PoolConfig::default()
    })
    .unwrap();
    let tickets: Vec<_> = requests
        .iter()
        .map(|req| {
            let req = req.clone();
            pool.submit(&req.tenant.clone(), move || run_session(&req)).unwrap()
        })
        .collect();
    tickets.into_iter().map(|t| t.wait().unwrap().unwrap().virtual_cost_s()).collect()
}

/// A seeded arrival plan: `n` sessions at `offered_per_s` mean rate
/// (uniformly jittered interarrivals), tenants drawn from a fleet of 8,
/// service costs drawn from the measured set.
fn offered_plan(seed: u64, n: usize, offered_per_s: f64, costs: &[f64]) -> Vec<Offered> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0_f64;
    (0..n)
        .map(|_| {
            t += rng.range(0.5, 1.5) / offered_per_s;
            Offered {
                arrival_s: t,
                tenant: format!("tenant-{}", rng.below(8)),
                service_s: costs[rng.below(costs.len() as u64) as usize],
            }
        })
        .collect()
}

fn sessions_record() -> String {
    use std::fmt::Write as _;

    let costs = measure_session_costs(&measured_requests());
    assert!(costs.iter().all(|&c| c > 0.0), "every session must cost virtual time: {costs:?}");
    let mean_cost_s = costs.iter().sum::<f64>() / costs.len() as f64;

    // Offered load fixed across pool sizes at 90% of the full pool's
    // capacity: the 8-worker pool keeps up while every smaller pool
    // saturates, so throughput tracks worker count.
    let capacity8 = 8.0 / mean_cost_s;
    let offered_per_s = 0.9 * capacity8;
    let plan_sessions = 2000;
    let plan = offered_plan(0xA11A_5E55, plan_sessions, offered_per_s, &costs);

    let mut out = format!(
        "{{\n  \"bench\": \"session_pool\",\n  \"measured_sessions\": {},\n  \
         \"mean_session_cost_s\": {mean_cost_s:.6},\n  \"plan_sessions\": {plan_sessions},\n  \
         \"rows\": [\n",
        costs.len(),
    );
    let mut throughput = Vec::new();
    let mut unsaturated_p99_s = 0.0;
    for (i, pool) in POOL_SIZES.into_iter().enumerate() {
        let cfg =
            PoolConfig { workers: pool, queue_capacity: plan_sessions, ..PoolConfig::default() };
        let run = simulate_service(&cfg, &plan);
        assert!(run.rejected.is_empty(), "scaling rows admit everything");
        let p99_s = run.latency_percentile(99.0);
        let _ = writeln!(
            out,
            "    {{\"pool\": {pool}, \"offered_per_s\": {offered_per_s:.4}, \"completed\": {}, \
             \"sessions_per_s\": {:.4}, \"p50_s\": {:.4}, \"p99_s\": {p99_s:.4}}}{}",
            run.latencies_s.len(),
            run.sessions_per_s(),
            run.latency_percentile(50.0),
            if i + 1 < POOL_SIZES.len() { "," } else { "" },
        );
        throughput.push(run.sessions_per_s());
        unsaturated_p99_s = p99_s;
    }
    let speedup = throughput[throughput.len() - 1] / throughput[0];
    assert!(speedup >= SCALING_FLOOR, "pool=8 is {speedup:.2}x pool=1, below {SCALING_FLOOR}x");

    // Overload: 3x capacity offered by the same tenant fleet against a
    // bounded queue and a per-tenant limiter at capacity/4. The limiter
    // sheds per-tenant excess (RateLimited), the queue sheds the
    // admitted surplus (QueueFull), and what gets in finishes with
    // latency bounded by the queue depth.
    let overload_offered = 3.0 * capacity8;
    let overload_plan = offered_plan(0x0DD_10AD, 2000, overload_offered, &costs);
    let cfg = PoolConfig {
        workers: 8,
        queue_capacity: 8,
        tenant_rate: capacity8 / 4.0,
        tenant_burst: 4.0,
    };
    let run = simulate_service(&cfg, &overload_plan);
    let min_retry_after_s =
        run.rejected.iter().map(Rejected::retry_after_s).fold(f64::INFINITY, f64::min);
    let p99_s = run.latency_percentile(99.0);
    assert!(run.rejected_rate_limited() > 0, "overload row never tripped the tenant limiter");
    assert!(run.rejected_queue_full() > 0, "overload row never filled the bounded queue");
    assert!(min_retry_after_s > 0.0, "rejections must carry positive retry-after hints");
    assert!(
        p99_s <= OVERLOAD_P99_FACTOR * unsaturated_p99_s,
        "admitted p99 {p99_s:.3} s exceeds {OVERLOAD_P99_FACTOR}x the unsaturated p99 \
         {unsaturated_p99_s:.3} s"
    );
    let _ = write!(
        out,
        "  ],\n  \"speedup\": {speedup:.3},\n  \"floor\": {SCALING_FLOOR:.1},\n  \
         \"overload\": {{\"pool\": {}, \"queue_capacity\": {}, \"tenant_rate\": {:.4}, \
         \"offered_per_s\": {overload_offered:.4}, \"admitted\": {}, \
         \"rejected_rate_limited\": {}, \"rejected_queue_full\": {}, \
         \"min_retry_after_s\": {min_retry_after_s:.4}, \"p99_s\": {p99_s:.4}, \
         \"unsaturated_p99_s\": {unsaturated_p99_s:.4}, \
         \"p99_factor_bound\": {OVERLOAD_P99_FACTOR:.1}}}\n}}\n",
        cfg.workers,
        cfg.queue_capacity,
        cfg.tenant_rate,
        run.latencies_s.len(),
        run.rejected_rate_limited(),
        run.rejected_queue_full(),
    );
    out
}

#[test]
fn service_model_is_deterministic_and_work_conserving() {
    let cfg = PoolConfig { workers: 2, queue_capacity: 100, ..PoolConfig::default() };
    let plan: Vec<Offered> = (0..10)
        .map(|i| Offered { arrival_s: i as f64 * 0.1, tenant: "t".into(), service_s: 1.0 })
        .collect();
    let a = simulate_service(&cfg, &plan);
    let b = simulate_service(&cfg, &plan);
    let bits = |o: &ServiceOutcome| o.latencies_s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a), bits(&b));
    // 10 jobs of 1 s on 2 workers, arrivals staggered 0.1 s apart:
    // worker B starts 0.1 s behind A and finishes its fifth at 5.1 s.
    assert!((a.makespan_s - 5.1).abs() < 1e-9, "makespan {}", a.makespan_s);
    assert_eq!(a.rejected.len(), 0);
}

#[test]
fn service_model_scales_with_workers() {
    let plan: Vec<Offered> = (0..64)
        .map(|i| Offered { arrival_s: i as f64 * 0.001, tenant: "t".into(), service_s: 0.5 })
        .collect();
    let thr = |workers: usize| {
        let cfg = PoolConfig { workers, queue_capacity: usize::MAX >> 1, ..PoolConfig::default() };
        simulate_service(&cfg, &plan).sessions_per_s()
    };
    let t1 = thr(1);
    let t8 = thr(8);
    assert!(t8 / t1 > 6.0, "8 workers should be ~8x one: {t1} vs {t8}");
}

#[test]
fn service_model_bounds_queue_and_types_rejections() {
    // One worker at 1 session/s capacity; the flood tenant offers 100/s.
    // Its 2/s bucket sheds most offers (RateLimited), and the ~2/s that
    // pass the limiter still exceed capacity, so the 4-deep queue
    // overflows too (QueueFull).
    let plan: Vec<Offered> = (0..1000)
        .map(|i| Offered { arrival_s: i as f64 * 0.01, tenant: "flood".into(), service_s: 1.0 })
        .collect();
    let cfg = PoolConfig { workers: 1, queue_capacity: 4, tenant_rate: 2.0, tenant_burst: 4.0 };
    let out = simulate_service(&cfg, &plan);
    assert!(out.rejected_queue_full() > 0, "admitted overload must overflow the queue");
    assert!(out.rejected_rate_limited() > 0, "2/s bucket must throttle a 100/s flood");
    for r in &out.rejected {
        assert!(r.retry_after_s() > 0.0, "rejections must carry a positive retry hint: {r}");
    }
    // The bounded queue caps admitted latency: at most the running
    // session plus `capacity` queued sessions ahead of an admission.
    let worst = out.latency_percentile(100.0);
    assert!(worst <= 6.0 + 1e-9, "queue bound must cap latency, got {worst}");
}
