//! Figure 1: a Schooner program.
//!
//! The paper's Figure 1 shows a Schooner program as a sequential flow of
//! control passing between procedures on different machines — a
//! workstation main program calling a procedure on a vector machine, a
//! procedure on a workstation, and a procedure that encapsulates a
//! parallel algorithm on a parallel machine. This module reproduces that
//! program over the simulated testbed and records the control-transfer
//! trace; it also measures per-call virtual cost for every machine pair,
//! which is the quantitative content behind the figure (where the time
//! goes when control crosses machines).

use std::sync::Arc;

use schooner::{critical_path, CallSpan, FnProcedure, Phase, ProgramImage, Schooner};
use uts::Value;

/// A procedure image used by the Figure 1 program: `work(x) -> y` doing a
/// fixed amount of simulated floating-point work.
pub(crate) fn work_image(name: &str, flops: f64) -> ProgramImage {
    ProgramImage::new(name, r#"export work prog("x" val double, "y" res double)"#)
        .expect("spec parses")
        .with_procedure("work", move || {
            Box::new(FnProcedure::with_flops(
                |args: &[Value]| {
                    let x = args[0].as_f64().ok_or("x not numeric")?;
                    // A deterministic stand-in computation.
                    Ok(vec![Value::Double(x * 1.0000001 + 1.0)])
                },
                flops,
            ))
        })
        .expect("work declared")
}

/// The sequential program of Figure 1: main on a workstation, procedure
/// P1 on the Cray (a big vectorizable chunk), P2 on another workstation,
/// P3 encapsulating a parallel computation on the i860-class node.
/// Returns the rendered control-transfer trace.
pub fn run_fig1_program(sch: &Arc<Schooner>) -> Result<String, String> {
    let ctx = sch.ctx();
    ctx.obs.set_enabled(true);
    ctx.obs.clear_events();

    sch.install_program("/fig1/p1", work_image("p1-vector", 5.0e7), &["lerc-cray-ymp"])
        .map_err(|e| e.to_string())?;
    sch.install_program("/fig1/p2", work_image("p2-seq", 2.0e6), &["lerc-rs6000"])
        .map_err(|e| e.to_string())?;
    sch.install_program("/fig1/p3", work_image("p3-parallel", 2.0e7), &["lerc-convex"])
        .map_err(|e| e.to_string())?;

    // Each image exports a procedure named `work`; duplicate names are
    // not permitted within a line, so each remote procedure gets its own
    // line — the multiple-instances situation the extended model solves.
    let mut line = sch.open_line("fig1-main", "lerc-sparc10").map_err(|e| e.to_string())?;
    line.start_remote("/fig1/p1", "lerc-cray-ymp").map_err(|e| e.to_string())?;

    // Sequential control flow: main -> P1 -> main -> P2 -> main -> P3.
    let mut x = Value::Double(1.0);
    // P1 on the Cray (its exported name is upper-cased by the Cray's
    // Fortran compiler; the synonym tables make "work" resolve anyway).
    let out = line.call("work", &[x.clone()]).map_err(|e| e.to_string())?;
    x = out[0].clone();
    // The single name "work" is per-line unique, so P2 and P3 live in
    // their own lines in a real program; here we demonstrate the
    // control transfer by calling through dedicated lines.
    let mut line2 = sch.open_line("fig1-p2", "lerc-sparc10").map_err(|e| e.to_string())?;
    line2.start_remote("/fig1/p2", "lerc-rs6000").map_err(|e| e.to_string())?;
    let out = line2.call("work", &[x.clone()]).map_err(|e| e.to_string())?;
    x = out[0].clone();
    let mut line3 = sch.open_line("fig1-p3", "lerc-sparc10").map_err(|e| e.to_string())?;
    line3.start_remote("/fig1/p3", "lerc-convex").map_err(|e| e.to_string())?;
    let _ = line3.call("work", &[x]).map_err(|e| e.to_string())?;

    let line_ids = [line.id(), line2.id(), line3.id()];
    line.quit().map_err(|e| e.to_string())?;
    line2.quit().map_err(|e| e.to_string())?;
    line3.quit().map_err(|e| e.to_string())?;

    let mut rendered = ctx.obs.render();
    ctx.obs.set_enabled(false);

    // Where the time goes when control crosses machines — straight from
    // the call spans, not from parsing the trace text.
    rendered.push_str("\nper-call phase breakdown (virtual ms, from call spans):\n");
    rendered.push_str(&format!(
        "{:<6} {:<30} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "proc", "machines", "marshal", "transmit", "compute", "reply", "unmarsh", "total"
    ));
    for id in line_ids {
        for s in ctx.obs.spans_for_line(id) {
            rendered.push_str(&format!(
                "{:<6} {:<30} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
                s.proc,
                format!("{} -> {}", s.from_host, s.to_host),
                s.phase(Phase::Marshal) * 1e3,
                s.phase(Phase::Transmit) * 1e3,
                s.phase(Phase::Compute) * 1e3,
                s.phase(Phase::Reply) * 1e3,
                s.phase(Phase::Unmarshal) * 1e3,
                s.total() * 1e3,
            ));
        }
    }
    Ok(rendered)
}

/// The sequential-vs-parallel comparison of the Figure 1 program: the
/// three work procedures executed one after another versus overlapped
/// with split-phase issue/collect, with the parallel cost cross-checked
/// against the span-derived critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowCost {
    /// Virtual milliseconds for the sequential chain P1 -> P2 -> P3.
    pub sequential_ms: f64,
    /// Virtual milliseconds with all three issued before any collect.
    pub parallel_ms: f64,
    /// The same quantity derived from the overlapped call spans: the
    /// makespan of the wave the three calls form.
    pub critical_path_ms: f64,
    /// `sequential_ms / parallel_ms`.
    pub speedup: f64,
}

/// Run the Figure 1 procedures both ways. P1, P2, and P3 have no data
/// dependence on one another here, so the paper's sequential control
/// transfer is a scheduling choice, not a dataflow necessity — this is
/// the measurement behind the figure's sequential-vs-parallel column.
pub fn measure_dataflow_overlap(sch: &Arc<Schooner>) -> Result<DataflowCost, String> {
    sch.install_program("/fig1/p1", work_image("p1-vector", 5.0e7), &["lerc-cray-ymp"])
        .map_err(|e| e.to_string())?;
    sch.install_program("/fig1/p2", work_image("p2-seq", 2.0e6), &["lerc-rs6000"])
        .map_err(|e| e.to_string())?;
    sch.install_program("/fig1/p3", work_image("p3-parallel", 2.0e7), &["lerc-convex"])
        .map_err(|e| e.to_string())?;

    let mut lines = Vec::new();
    for (name, path, host) in [
        ("overlap-p1", "/fig1/p1", "lerc-cray-ymp"),
        ("overlap-p2", "/fig1/p2", "lerc-rs6000"),
        ("overlap-p3", "/fig1/p3", "lerc-convex"),
    ] {
        let mut line = sch.open_line(name, "lerc-sparc10").map_err(|e| e.to_string())?;
        line.start_remote(path, host).map_err(|e| e.to_string())?;
        // Warm the binding cache so both measurements are steady-state.
        line.call("work", &[Value::Double(0.0)]).map_err(|e| e.to_string())?;
        lines.push(line);
    }

    // Sequential: control returns to main between calls, so each call
    // starts where the previous one ended.
    let t0 = lines.iter().map(|l| l.now()).fold(0.0, f64::max);
    let mut t = t0;
    for line in &mut lines {
        line.sync_to(t);
        line.call("work", &[Value::Double(1.0)]).map_err(|e| e.to_string())?;
        t = line.now();
    }
    let sequential_s = t - t0;

    // Parallel: every call issued before any reply is collected.
    let t1 = lines.iter().map(|l| l.now()).fold(0.0, f64::max);
    let mut tickets = Vec::new();
    for line in &mut lines {
        line.sync_to(t1);
        tickets.push(line.issue("work", &[Value::Double(1.0)]).map_err(|e| e.to_string())?);
    }
    let mut t_done = t1;
    let mut parallel_spans = Vec::new();
    for (line, ticket) in lines.iter_mut().zip(tickets) {
        line.collect(ticket).map_err(|e| e.to_string())?;
        t_done = t_done.max(line.now());
        let spans = line.obs().spans_for_line(line.id());
        parallel_spans.extend(spans.last().cloned());
    }
    let parallel_s = t_done - t1;
    let cp = critical_path(&parallel_spans);

    for mut line in lines {
        line.quit().map_err(|e| e.to_string())?;
    }
    Ok(DataflowCost {
        sequential_ms: sequential_s * 1e3,
        parallel_ms: parallel_s * 1e3,
        critical_path_ms: cp.critical_s * 1e3,
        speedup: sequential_s / parallel_s,
    })
}

/// Per-machine-pair call cost measurement, with the per-phase breakdown
/// aggregated from the call spans of the measured line.
#[derive(Debug, Clone, PartialEq)]
pub struct PairCost {
    /// Caller host.
    pub from: String,
    /// Callee host.
    pub to: String,
    /// Network class.
    pub network: String,
    /// Mean virtual milliseconds per call (small payload).
    pub per_call_ms: f64,
    /// Mean milliseconds marshaling arguments at the caller.
    pub marshal_ms: f64,
    /// Mean milliseconds the request spent on the wire.
    pub transmit_ms: f64,
    /// Mean milliseconds of server-side unmarshal + execute + marshal.
    pub compute_ms: f64,
    /// Mean milliseconds the reply spent on the wire.
    pub reply_ms: f64,
    /// Mean milliseconds unmarshaling results at the caller.
    pub unmarshal_ms: f64,
}

/// Mean milliseconds of one phase over a set of spans.
fn mean_phase_ms(spans: &[CallSpan], phase: Phase) -> f64 {
    if spans.is_empty() {
        return 0.0;
    }
    spans.iter().map(|s| s.phase(phase)).sum::<f64>() * 1e3 / spans.len() as f64
}

/// Measure the virtual round-trip cost of a small RPC for each (caller,
/// callee) pair drawn from `hosts`. Both the per-call mean and its phase
/// breakdown come from the line's completed call spans — the first
/// (cache-warming) call is excluded so the numbers are steady-state.
pub fn measure_pair_costs(
    sch: &Arc<Schooner>,
    hosts: &[&str],
    calls_per_pair: usize,
) -> Result<Vec<PairCost>, String> {
    let image_path = "/fig1/pingpong";
    let host_vec: Vec<&str> = hosts.to_vec();
    sch.install_program(image_path, work_image("pingpong", 1.0e4), &host_vec)
        .map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for &from in hosts {
        for &to in hosts {
            if from == to {
                continue;
            }
            let mut line =
                sch.open_line(&format!("cost-{from}-{to}"), from).map_err(|e| e.to_string())?;
            line.start_remote(image_path, to).map_err(|e| e.to_string())?;
            // Warm the binding cache so we measure steady-state calls.
            line.call("work", &[Value::Double(0.0)]).map_err(|e| e.to_string())?;
            for i in 0..calls_per_pair {
                line.call("work", &[Value::Double(i as f64)]).map_err(|e| e.to_string())?;
            }
            let spans = line.obs().spans_for_line(line.id());
            line.quit().map_err(|e| e.to_string())?;
            // Spans sort by call id; index 0 is the warm-up call.
            let steady = spans.get(1..).unwrap_or_default();
            if steady.len() != calls_per_pair {
                return Err(format!(
                    "expected {calls_per_pair} steady-state spans for {from}->{to}, got {}",
                    steady.len()
                ));
            }
            let mean_total_ms =
                steady.iter().map(CallSpan::total).sum::<f64>() * 1e3 / steady.len() as f64;
            out.push(PairCost {
                from: from.to_owned(),
                to: to.to_owned(),
                network: super::network_class(sch, from, to),
                per_call_ms: mean_total_ms,
                marshal_ms: mean_phase_ms(steady, Phase::Marshal),
                transmit_ms: mean_phase_ms(steady, Phase::Transmit),
                compute_ms: mean_phase_ms(steady, Phase::Compute),
                reply_ms: mean_phase_ms(steady, Phase::Reply),
                unmarshal_ms: mean_phase_ms(steady, Phase::Unmarshal),
            });
        }
    }
    Ok(out)
}
