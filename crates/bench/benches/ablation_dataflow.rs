//! Ablation A9 — level-parallel dataflow waves vs the sequential sweep.
//!
//! The engine graph's leveling admits waves of calls with no mutual data
//! dependence; the split-phase line API lets the executive issue every
//! call in a wave before collecting any. This bench measures what that
//! buys in virtual time: the F100 engine's widest level (the full-width
//! configuration wave) and a synthetic width-8 fan-out, each against the
//! one-call-at-a-time baseline.
//!
//! Regenerates `BENCH_dataflow.json` (set `BENCH_OUT` to redirect it;
//! `BENCH_QUICK=1` trims the Criterion sampling for the CI smoke job).
//! Acceptance floors: >= 2x on the F100 configuration wave, >= 3x on the
//! synthetic fan-out.

use criterion::{criterion_group, criterion_main, Criterion};

use npss::engine_exec::{ExecutiveEngine, Scheduling};
use npss::service;
use schooner::{CallPolicy, Schooner};
use std::sync::Arc;
use uts::Value;

const FANOUT: usize = 8;

/// The Table 2 engine with the derived wave plan and a chosen mode.
fn table2_engine(sch: &Schooner, scheduling: Scheduling) -> ExecutiveEngine {
    service::table2_engine(sch, &CallPolicy::default(), scheduling, 0).unwrap()
}

const SLOTS: [&str; 6] =
    ["combustor", "bypass duct", "tailpipe duct", "nozzle", "low speed shaft", "high speed shaft"];

/// Virtual seconds the F100's widest level — the full-width six-call
/// configuration wave driven by `setup()` — takes swept one call at a
/// time versus overlapped, both read off the same steady-state wave's
/// call spans: the serial cost is the sum of the six call durations, the
/// parallel cost is the wave's makespan.
fn f100_level_seconds() -> (f64, f64) {
    use npss::engine_exec::Exec;
    let sch = service::world(false).unwrap();
    let mut exec = table2_engine(&sch, Scheduling::WaveParallel);
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

/// Virtual seconds of one width-`FANOUT` wave of identical remote calls,
/// sequential (each call starts where the previous ended) vs issued
/// before any collect.
fn fanout_seconds(sch: &Arc<Schooner>, overlapped: bool) -> f64 {
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

fn bench_dataflow(c: &mut Criterion) {
    println!("\n=== Ablation A9: dataflow waves vs sequential sweep (virtual time) ===\n");

    let (f100_seq, f100_par) = f100_level_seconds();
    let f100_speedup = f100_seq / f100_par;

    let sch = bench::world();
    sch.install_program("/bench/fanout", bench::echo_image(), &["ua-sparc10"]).unwrap();
    let fan_seq = fanout_seconds(&sch, false);
    let fan_par = fanout_seconds(&sch, true);
    let fan_speedup = fan_seq / fan_par;

    println!(
        "{:<34} {:>6} {:>14} {:>14} {:>9}",
        "wave", "width", "sequential ms", "parallel ms", "speedup"
    );
    println!(
        "{:<34} {:>6} {:>14.3} {:>14.3} {:>8.2}x",
        "f100 configuration (widest level)",
        6,
        f100_seq * 1e3,
        f100_par * 1e3,
        f100_speedup
    );
    println!(
        "{:<34} {:>6} {:>14.3} {:>14.3} {:>8.2}x",
        "synthetic WAN fan-out",
        FANOUT,
        fan_seq * 1e3,
        fan_par * 1e3,
        fan_speedup
    );

    assert!(
        f100_speedup >= 2.0,
        "F100 widest-level speedup {f100_speedup:.2}x is below the 2x floor"
    );
    assert!(
        fan_speedup >= 3.0,
        "width-{FANOUT} fan-out speedup {fan_speedup:.2}x is below the 3x floor"
    );

    // Machine-readable record for the CI artifact.
    let quick = std::env::var("BENCH_QUICK").is_ok();
    let json = format!(
        "{{\n  \"bench\": \"dataflow_waves\",\n  \"quick\": {quick},\n  \"rows\": [\n    \
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
    );
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dataflow.json").into()
    });
    std::fs::write(&out, json).unwrap();
    println!("\nwrote {out}");

    // Wall-clock cost of the scheduling machinery itself: one full-width
    // configuration wave, sequential vs wave-parallel.
    let sch2 = service::world(false).unwrap();
    let mut group = c.benchmark_group("dataflow");
    group.sample_size(if quick { 10 } else { 30 });
    for (label, scheduling) in [
        ("setup_sequential", Scheduling::Sequential),
        ("setup_wave_parallel", Scheduling::WaveParallel),
    ] {
        let mut exec = table2_engine(&sch2, scheduling);
        group.bench_function(label, |b| b.iter(|| exec.setup().unwrap()));
        exec.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_dataflow);
criterion_main!(benches);
