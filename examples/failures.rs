//! Testing operation of the engine in the presence of failures.
//!
//! The simulation-executive goal list includes testing "operation of the
//! engine in the presence of failures". This example exercises failures
//! at all three layers of the reproduction:
//!
//! 1. **Physics** — the balanced F100 at a steady throttle with injected
//!    component failures (combustor degradation, stuck bleed, fan damage);
//! 2. **Network** — a remote call surviving a timed partition through an
//!    idempotent [`CallPolicy`] with exponential backoff in virtual time;
//! 3. **Distribution** — an engine transient whose remote combustor host
//!    dies mid-run: the call policy exhausts, the executor degrades to the
//!    original local-compute-only version, and the transient completes —
//!    with the switch recorded in the trace.
//!
//! Run with: `cargo run --release --example failures`

use std::io::Write;

use npss_sim::netsim::FaultPlan;
use npss_sim::npss::procs::combustor_image;
use npss_sim::npss::{ExecutiveEngine, LocalExec, RemoteExec};
use npss_sim::schooner::{CallPolicy, FnProcedure, ProgramImage, Schooner};
use npss_sim::tess::engine::Turbofan;
use npss_sim::tess::schedules::Schedule;
use npss_sim::tess::transient::{FailureEvent, TransientMethod, TransientRun};
use npss_sim::uts::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    all_three(&mut std::io::stdout().lock())
}

fn all_three(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    physics_failures(out)?;
    partition_survival(out)?;
    degraded_transient(out)
}

/// Part 1: component failures inside the engine model itself.
fn physics_failures(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    let engine = Turbofan::f100()?;
    let wf = 0.95 * engine.design.wf;

    let mut run =
        TransientRun::new(engine, Schedule::constant(wf), TransientMethod::RungeKutta4, 0.02)
            .with_failure(0.5, FailureEvent::CombustorDegradation(0.90))
            .with_failure(1.2, FailureEvent::BleedStuckOpen(0.08))
            .with_failure(1.9, FailureEvent::FanDamage(-5.0));

    let result = run.run(2.6).map_err(to_err)?;

    writeln!(out, "== part 1: engine-physics failures ==\n")?;
    writeln!(out, "F100 at constant fuel {wf:.3} kg/s with injected failures:\n")?;
    writeln!(out, "  t = 0.5 s  combustor efficiency x0.90")?;
    writeln!(out, "  t = 1.2 s  bleed valve stuck open at 8%")?;
    writeln!(out, "  t = 1.9 s  fan damage (-5 deg effective stator)\n")?;
    writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>11} {:>9} {:>10}",
        "t (s)", "N1 (RPM)", "N2 (RPM)", "thrust kN", "T4 (K)", "W2 (kg/s)"
    )?;
    for s in result.samples.iter().step_by(5) {
        let marker = match s.t {
            t if (0.48..0.56).contains(&t) => "  <- combustor degrades",
            t if (1.18..1.26).contains(&t) => "  <- bleed sticks open",
            t if (1.88..1.96).contains(&t) => "  <- fan damaged",
            _ => "",
        };
        writeln!(
            out,
            "{:>6.2} {:>10.1} {:>10.1} {:>11.2} {:>9.1} {:>10.1}{marker}",
            s.t,
            s.n1,
            s.n2,
            s.thrust / 1e3,
            s.t4,
            s.w2
        )?;
    }
    writeln!(
        out,
        "\nnet effect: thrust {:.1} kN -> {:.1} kN\n",
        result.samples[0].thrust / 1e3,
        result.last().thrust / 1e3
    )?;
    Ok(())
}

/// Part 2: a remote call rides out a timed network partition.
fn partition_survival(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    writeln!(out, "== part 2: surviving a timed partition ==\n")?;

    let sch = Schooner::standard().map_err(to_err2)?;
    sch.ctx().obs.set_enabled(true);
    let image = ProgramImage::new("cal", r#"export cal prog("x" val float, "y" res float)"#)
        .map_err(to_err2)?
        .with_procedure("cal", || {
            Box::new(FnProcedure::new(|args: &[Value]| {
                let x = match args[0] {
                    Value::Float(x) => x,
                    _ => return Err("bad arg".into()),
                };
                Ok(vec![Value::Float(x * 1.8 + 32.0)])
            }))
        })
        .map_err(to_err2)?;
    sch.install_program("/x/cal", image, &["lerc-sgi-4d480"]).map_err(to_err2)?;
    let mut line = sch.open_line("demo", "ua-sparc10").map_err(to_err2)?;
    line.start_remote("/x/cal", "lerc-sgi-4d480").map_err(to_err2)?;

    // Sever the Arizona site from the serving host for the next 2.5
    // virtual seconds.
    let t0 = line.now();
    sch.ctx().net.set_fault_plan(Some(FaultPlan::new(0xF001).partition(
        &["ua-sparc10"],
        &["lerc-sgi-4d480"],
        0.0,
        t0 + 2.5,
    )));
    writeln!(out, "partition: ua-sparc10 <-/-> lerc-sgi-4d480 until t = {:.2}s", t0 + 2.5)?;

    let policy = CallPolicy::new().idempotent(true).retries(5).backoff(1.0, 2.0, 8.0);
    let reply = line.call_with("cal", &[Value::Float(100.0)], &policy).map_err(to_err2)?;
    writeln!(
        out,
        "cal(100) = {:?} after the partition healed at t = {:.2}s",
        reply[0],
        line.now()
    )?;

    for event in sch.ctx().obs.render().lines().filter(|l| l.contains("retry")) {
        writeln!(out, "  trace: {event}")?;
    }
    sch.ctx().net.set_fault_plan(None);
    sch.shutdown();
    writeln!(out)?;
    Ok(())
}

/// Part 3: the combustor host dies mid-transient; the executive degrades
/// that one module to its local baseline and finishes the run.
fn degraded_transient(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    writeln!(out, "== part 3: transient completing through local-fallback degradation ==\n")?;

    let sch = Schooner::standard().map_err(to_err2)?;
    sch.ctx().obs.set_enabled(true);
    sch.install_program("/npss/comb", combustor_image(), &["ua-sgi-4d340"]).map_err(to_err2)?;

    let line = sch.open_line("combustor", "ua-sparc10").map_err(to_err2)?;
    let policy = CallPolicy::new()
        .idempotent(true)
        .retries(2)
        .backoff(0.2, 2.0, 2.0)
        .degrade_on_exhaustion();
    let exec = RemoteExec::start(line, "/npss/comb", "ua-sgi-4d340")?
        .with_policy(policy)
        .with_fallback(LocalExec::new(&combustor_image())?);

    let mut engine = ExecutiveEngine::all_local(Turbofan::f100()?)?;
    engine.set_remote("combustor", exec)?;
    engine.setup()?;
    let wf = engine.engine.design.wf;

    // The remote host dies before the run starts; every combustor call
    // would fail forever, so the policy exhausts once and the executor
    // switches permanently to the local baseline.
    sch.ctx().net.set_host_up("ua-sgi-4d340", false);
    writeln!(out, "ua-sgi-4d340 (remote combustor host) goes down; starting transient...")?;

    let result = engine.run_transient(
        &Schedule::constant(0.95 * wf),
        TransientMethod::RungeKutta4,
        0.02,
        0.4,
    )?;
    writeln!(
        out,
        "transient completed: {} samples, thrust {:.1} kN -> {:.1} kN",
        result.samples.len(),
        result.samples[0].thrust / 1e3,
        result.last().thrust / 1e3
    )?;

    writeln!(out, "\nexecutor report:")?;
    for row in engine.report_rows() {
        writeln!(out, "  {:<18} {:<34} {:>6} calls", row.module, row.location, row.calls)?;
    }
    for event in sch.ctx().obs.render().lines().filter(|l| l.contains("degraded")) {
        writeln!(out, "\ntrace: {event}")?;
    }
    engine.shutdown();
    sch.shutdown();
    Ok(())
}

fn to_err(e: String) -> Box<dyn std::error::Error> {
    e.into()
}

fn to_err2(e: npss_sim::schooner::SchError) -> Box<dyn std::error::Error> {
    e.to_string().into()
}

#[cfg(test)]
#[path = "../tests/support/golden.rs"]
mod golden;

#[cfg(test)]
fn transcript() -> Vec<u8> {
    let mut out = Vec::new();
    all_three(&mut out).unwrap();
    out
}

#[test]
fn transcript_matches_its_golden() {
    golden::check("paper/failures.txt", &transcript());
}

#[test]
#[ignore = "rewrites the golden"]
fn rewrite_paper_goldens() {
    golden::rewrite("paper/failures.txt", &transcript());
}
