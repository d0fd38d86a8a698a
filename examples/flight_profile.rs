//! Flying the engine through a flight profile.
//!
//! The simulation-executive goal list includes being able to "start" the
//! engine and "fly" it through a flight profile. This example climbs the
//! F100 from a sea-level standstill to 6 km / Mach 0.8 (time-compressed
//! into the transient window) while the fuel schedule holds throttle,
//! printing the thrust lapse and spool behaviour along the way.
//!
//! Run with: `cargo run --release --example flight_profile`

use std::io::Write;

use npss_sim::tess::engine::Turbofan;
use npss_sim::tess::schedules::Schedule;
use npss_sim::tess::transient::{TransientMethod, TransientRun};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    climb(&mut std::io::stdout().lock())
}

fn climb(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    let engine = Turbofan::f100()?;
    let wf = 0.95 * engine.design.wf;

    let mut run =
        TransientRun::new(engine, Schedule::constant(wf), TransientMethod::RungeKutta4, 0.02)
            .with_flight_profile(
                // Climb profile, compressed into 2 s of engine time.
                Schedule::new(vec![(0.0, 0.0), (0.4, 0.0), (2.0, 6000.0)])?,
                Schedule::new(vec![(0.0, 0.0), (0.4, 0.2), (2.0, 0.8)])?,
            );

    let result = run.run(2.0).map_err(to_err)?;
    writeln!(out, "F100 climb: sea-level static -> 6 km / M 0.8 (constant fuel {wf:.3} kg/s)\n")?;
    writeln!(
        out,
        "{:>6} {:>9} {:>7} {:>10} {:>10} {:>11} {:>9}",
        "t (s)", "alt (m)", "Mach", "N1 (RPM)", "W2 (kg/s)", "thrust kN", "T4 (K)"
    )?;
    for s in result.samples.iter().step_by(10) {
        let alt = run.altitude.at(s.t);
        let mach = run.mach.at(s.t);
        writeln!(
            out,
            "{:>6.2} {:>9.0} {:>7.2} {:>10.1} {:>10.1} {:>11.2} {:>9.1}",
            s.t,
            alt,
            mach,
            s.n1,
            s.w2,
            s.thrust / 1e3,
            s.t4
        )?;
    }
    let first = &result.samples[0];
    let last = result.last();
    writeln!(
        out,
        "\nthrust lapse over the climb: {:.1} kN -> {:.1} kN ({:.0}%)",
        first.thrust / 1e3,
        last.thrust / 1e3,
        last.thrust / first.thrust * 100.0
    )?;
    Ok(())
}

fn to_err(e: String) -> Box<dyn std::error::Error> {
    e.into()
}

#[cfg(test)]
#[path = "../tests/support/golden.rs"]
mod golden;

#[cfg(test)]
fn transcript() -> Vec<u8> {
    let mut out = Vec::new();
    climb(&mut out).unwrap();
    out
}

#[test]
fn transcript_matches_its_golden() {
    golden::check("paper/flight_profile.txt", &transcript());
}

#[test]
#[ignore = "rewrites the golden"]
fn rewrite_paper_goldens() {
    golden::rewrite("paper/flight_profile.txt", &transcript());
}
