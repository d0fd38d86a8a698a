//! Procedure migration: moving a running computation between machines.
//!
//! The extended Schooner model lets a remote procedure be moved from one
//! machine to another during execution — useful when a machine approaches
//! a scheduled down time or its load grows too large. This example runs a
//! *stateful* integrator remotely, raises the load on its host mid-run,
//! moves it (the `state(...)` clause carries its accumulated state through
//! UTS), and shows that a second user's stale name cache recovers through
//! the Manager automatically.
//!
//! Run with: `cargo run --example migration`

use std::io::Write;
use std::sync::Arc;

use npss_sim::schooner::{ProgramImage, Schooner, StatefulProcedure};
use npss_sim::uts::Value;

fn integrator_image() -> ProgramImage {
    ProgramImage::new(
        "trapezoid-integrator",
        r#"export accumulate prog("dt" val double, "f" val double, "total" res double)
           state("total" double, "last" double)"#,
    )
    .unwrap()
    .with_procedure("accumulate", || {
        Box::new(StatefulProcedure::new(
            (0.0f64, f64::NAN), // (running integral, previous sample)
            |state: &mut (f64, f64), args: &[Value]| {
                let dt = args[0].as_f64().ok_or("dt")?;
                let f = args[1].as_f64().ok_or("f")?;
                if state.1.is_finite() {
                    state.0 += dt * 0.5 * (state.1 + f);
                }
                state.1 = f;
                Ok(vec![Value::Double(state.0)])
            },
            |state: &(f64, f64)| vec![Value::Double(state.0), Value::Double(state.1)],
            |vals: Vec<Value>| {
                let total = vals.first().and_then(Value::as_f64).ok_or("total")?;
                let last = vals.get(1).and_then(Value::as_f64).ok_or("last")?;
                Ok((total, last))
            },
        ))
    })
    .unwrap()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    migrate(&mut std::io::stdout().lock())
}

fn migrate(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    let sch = Arc::new(Schooner::standard()?);
    sch.install_program("/demo/integrator", integrator_image(), &["lerc-rs6000", "lerc-convex"])?;

    // The owner starts the integrator as a *shared* procedure so a second
    // line can use it too.
    let mut owner = sch.open_line("owner", "lerc-sparc10")?;
    owner.start_shared("/demo/integrator", "lerc-rs6000")?;
    let mut user = sch.open_line("monitor", "ua-sparc10")?;

    writeln!(out, "integrating f(t) = t on the RS6000 ...")?;
    let mut t = 0.0;
    for _ in 0..10 {
        owner.call("accumulate", &[Value::Double(0.1), Value::Double(t)])?;
        t += 0.1;
    }
    let mid = user.call("accumulate", &[Value::Double(0.0), Value::Double(t)])?;
    writeln!(out, "  integral so far (read by the second user): {}", mid[0])?;

    // Load spikes on the RS6000 — time to move.
    sch.ctx().park.load().set("lerc-rs6000", 8.0);
    let busy = sch.ctx().park.load().get("lerc-rs6000");
    let target =
        sch.ctx().park.load().least_loaded(["lerc-rs6000", "lerc-convex"]).unwrap().to_owned();
    writeln!(out, "RS6000 load is now {busy}; least-loaded candidate: {target}")?;

    writeln!(out, "moving the integrator (state travels through UTS) ...")?;
    owner.move_procedure("accumulate", &target)?;

    // Continue integrating on the Convex; the running total must be
    // intact.
    for _ in 0..10 {
        owner.call("accumulate", &[Value::Double(0.1), Value::Double(t)])?;
        t += 0.1;
    }
    // The second user's cached binding is stale; its next call fails
    // against the old address and recovers through the Manager.
    let after = user.call("accumulate", &[Value::Double(0.0), Value::Double(t)])?;
    writeln!(out, "  integral after the move: {}", after[0])?;
    writeln!(
        out,
        "  exact value of ∫t dt over [0,2]: {}; stale-cache retries by second user: {}",
        0.5 * t * t,
        user.stats().stale_retries
    )?;

    owner.quit()?;
    user.quit()?;
    Ok(())
}

#[cfg(test)]
#[path = "../tests/support/golden.rs"]
mod golden;

#[cfg(test)]
fn transcript() -> Vec<u8> {
    let mut out = Vec::new();
    migrate(&mut out).unwrap();
    out
}

#[test]
fn transcript_matches_its_golden() {
    golden::check("paper/migration.txt", &transcript());
}

#[test]
#[ignore = "rewrites the golden"]
fn rewrite_paper_goldens() {
    golden::rewrite("paper/migration.txt", &transcript());
}
