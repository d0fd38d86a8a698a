//! The F100 engine in the prototype executive — the paper's Figure 2.
//!
//! Builds the F100 engine as an AVS dataflow network, shows the network
//! structure and the low-speed-shaft control panel, distributes the
//! adapted modules across the testbed (the Table 2 placement), balances
//! the engine, and flies a throttle transient.
//!
//! Run with: `cargo run --example f100_engine`

use std::io::Write;
use std::sync::Arc;

use npss_sim::avs::Widget;
use npss_sim::npss::f100::{F100Network, RemotePlacement};
use npss_sim::schooner::Schooner;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run(&mut std::io::stdout().lock())
}

fn run(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    let sch = Arc::new(Schooner::standard()?);
    let mut net = F100Network::build(sch.clone(), "ua-sparc10").map_err(to_err)?;

    writeln!(out, "== The F100 network (Figure 2, headless) ==\n")?;
    writeln!(out, "{}", net.render())?;

    writeln!(out, "== Control panel: low speed shaft ==\n")?;
    let shaft = net.id("low speed shaft");
    for w in net.editor.control_panel(shaft).unwrap() {
        match w {
            Widget::Dial { name, min, max, value } => {
                writeln!(out, "  dial   {name:<16} [{min} .. {max}] = {value}")?
            }
            Widget::RadioButtons { name, choices, selected } => writeln!(
                out,
                "  radio  {name:<16} {:?} (selected: {})",
                choices, choices[*selected]
            )?,
            Widget::TypeIn { name, text } => writeln!(out, "  typein {name:<16} \"{text}\"")?,
            other => writeln!(out, "  {other:?}")?,
        }
    }

    writeln!(out, "\n== Placing the adapted modules (Table 2 configuration) ==\n")?;
    let placement = RemotePlacement::table2();
    for (slot, machine) in &placement.entries {
        writeln!(out, "  {slot:<18} -> {machine}")?;
    }
    net.apply_placement(&placement).map_err(to_err)?;

    writeln!(out, "\n== Balance + 1 s transient (Improved Euler) ==\n")?;
    let result = net.run("Modified Euler", 1.0, 0.02).map_err(to_err)?;
    writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>8} {:>10} {:>9}",
        "t (s)", "N1 (RPM)", "N2 (RPM)", "wf", "thrust kN", "T4 (K)"
    )?;
    for s in result.samples.iter().step_by(5) {
        writeln!(
            out,
            "{:>6.2} {:>10.1} {:>10.1} {:>8.3} {:>10.2} {:>9.1}",
            s.t,
            s.n1,
            s.n2,
            s.wf,
            s.thrust / 1000.0,
            s.t4
        )?;
    }

    writeln!(out, "\n== Where the remote computations ran ==\n")?;
    writeln!(out, "{:<18} {:<16} {:>8} {:>14}", "module", "location", "calls", "sim seconds")?;
    for row in net.report() {
        writeln!(
            out,
            "{:<18} {:<16} {:>8} {:>14.3}",
            row.module, row.location, row.calls, row.virtual_seconds
        )?;
    }
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
    run(&mut out).unwrap();
    out
}

#[test]
fn transcript_matches_its_golden() {
    golden::check("paper/f100_engine.txt", &transcript());
}

#[test]
#[ignore = "rewrites the golden"]
fn rewrite_paper_goldens() {
    golden::rewrite("paper/f100_engine.txt", &transcript());
}
