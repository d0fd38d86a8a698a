//! Zooming: integrating fidelity levels in one simulation.
//!
//! NPSS models engines at five levels of fidelity and aims to *zoom* —
//! run most components at a cheap level while one component of interest
//! gets a higher-fidelity analysis. This example shows both directions:
//!
//! 1. the **level-1** steady thermodynamic deck versus the map-based
//!    system model over a throttle sweep (cheap vs. mid fidelity);
//! 2. **zooming into** the high-pressure compressor: the engine balance
//!    supplies boundary conditions to a stage-by-stage mean-line analysis,
//!    whose aggregate is checked against the map point it refines.
//!
//! Run with: `cargo run --release --example zooming`

use std::io::Write;

use npss_sim::tess::engine::{SteadyMethod, Turbofan};
use npss_sim::tess::fidelity::{zoom_hpc, Level1Cycle};
use npss_sim::tess::CycleDesign;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run(&mut std::io::stdout().lock())
}

fn run(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    writeln!(out, "== Level 1 (thermo deck) vs map-based system model ==\n")?;
    let engine = Turbofan::f100()?;
    let level1 = Level1Cycle::new(CycleDesign::f100_class());

    writeln!(
        out,
        "{:>8} {:>12} {:>14} {:>14} {:>8}",
        "fuel %", "N1 (RPM)", "L2 thrust kN", "L1 thrust kN", "diff %"
    )?;
    for frac in [0.90, 0.95, 1.0] {
        let rep = engine.balance(frac * engine.design.wf, SteadyMethod::NewtonRaphson)?;
        let n_frac = rep.point.n1 / engine.cycle.n1_design;
        let l1 = level1.at_speed(n_frac)?;
        let diff = (l1.cycle.thrust - rep.point.thrust) / rep.point.thrust * 100.0;
        writeln!(
            out,
            "{:>8.0} {:>12.1} {:>14.2} {:>14.2} {:>8.2}",
            frac * 100.0,
            rep.point.n1,
            rep.point.thrust / 1e3,
            l1.cycle.thrust / 1e3,
            diff
        )?;
    }

    writeln!(out, "\n== Zooming into the high-pressure compressor ==\n")?;
    let rep = engine.balance(engine.design.wf, SteadyMethod::NewtonRaphson)?;
    let zoom = zoom_hpc(&engine, &rep.point, 9)?;
    writeln!(
        out,
        "engine balance gives the HPC: PR = {:.3}, inlet {:.1} K / {:.0} kPa\n",
        zoom.map_pr,
        rep.point.st25.tt,
        rep.point.st25.pt / 1e3
    )?;
    writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>9} {:>8} {:>10}",
        "stage", "Tt in K", "Tt out K", "PR", "eff", "dh kJ/kg"
    )?;
    for s in &zoom.stages {
        writeln!(
            out,
            "{:>6} {:>10.1} {:>10.1} {:>9.4} {:>8.4} {:>10.2}",
            s.stage,
            s.tt_in,
            s.tt_out,
            s.pr,
            s.eff,
            s.dh / 1e3
        )?;
    }
    writeln!(
        out,
        "\nstage aggregate: PR = {:.3}, eff = {:.4}  (map point: PR = {:.3}, eff = {:.4})",
        zoom.overall_pr, zoom.overall_eff, zoom.map_pr, engine.cycle.hpc_eff
    )?;
    writeln!(
        out,
        "consistency: ΔPR = {:+.2}%  — the zoomed model refines, not contradicts, the map",
        (zoom.overall_pr - zoom.map_pr) / zoom.map_pr * 100.0
    )?;
    Ok(())
}

#[cfg(test)]
#[path = "../tests/support/golden.rs"]
mod golden;

#[cfg(test)]
fn transcript() -> Vec<u8> {
    let mut out = Vec::new();
    run(&mut out).unwrap();
    out
}

#[test]
fn transcript_matches_its_golden() {
    golden::check("paper/zooming.txt", &transcript());
}

#[test]
#[ignore = "rewrites the golden"]
fn rewrite_paper_goldens() {
    golden::rewrite("paper/zooming.txt", &transcript());
}
