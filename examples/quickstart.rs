//! Quickstart: a heterogeneous distributed program in a few lines.
//!
//! Reproduces the paper's Figure 1 — a Schooner program whose control
//! passes sequentially between procedures on different machines — over
//! the simulated NPSS testbed, and prints the control-transfer trace.
//!
//! Run with: `cargo run --example quickstart`

use std::io::Write;
use std::sync::Arc;

use npss_sim::npss::experiments::fig1;
use npss_sim::schooner::{FnProcedure, ProgramImage, Schooner};
use npss_sim::uts::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run(&mut std::io::stdout().lock())
}

fn run(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    // One call: the whole simulated world — the two-site topology, the
    // machine park (Sparc/SGI/Cray/Convex/RS6000), per-machine Servers,
    // and the persistent Manager.
    let sch = Arc::new(Schooner::standard()?);

    writeln!(out, "== A first remote procedure ==\n")?;
    // Define an executable image: an export spec plus its implementation.
    let image = ProgramImage::new(
        "greeter",
        r#"export scale prog("xs" val array[4] of float, "factor" val float, "ys" res array[4] of float)"#,
    )?
    .with_procedure("scale", || {
        Box::new(FnProcedure::new(|args: &[Value]| {
            let xs = args[0].as_floats().ok_or("xs")?;
            let f = match args[1] {
                Value::Float(f) => f,
                _ => return Err("factor".into()),
            };
            Ok(vec![Value::floats(&xs.iter().map(|x| x * f).collect::<Vec<_>>())])
        }))
    })?;

    // Install it on the Cray — a machine with 64-bit words, Cray floating
    // point, and an upper-casing Fortran compiler. Schooner masks all of
    // that.
    sch.install_program("/demo/scale", image, &["lerc-cray-ymp"])?;

    // A module on the UA workstation opens a line, starts the remote
    // procedure (the dynamic startup protocol), and calls it.
    let mut line = sch.open_line("quickstart", "ua-sparc10")?;
    let names = line.start_remote("/demo/scale", "lerc-cray-ymp")?;
    writeln!(out, "started /demo/scale on the Cray; exported names: {names:?}")?;
    let scaled = line.call("scale", &[Value::floats(&[1.0, 2.0, 3.0, 4.0]), Value::Float(2.5)])?;
    writeln!(out, "scale([1,2,3,4], 2.5) from ua-sparc10 via the Internet = {}", scaled[0])?;
    writeln!(
        out,
        "line virtual time: {:.3} s across {} call(s), {} request bytes\n",
        line.now(),
        line.stats().calls,
        line.stats().request_bytes
    )?;
    line.quit()?;

    writeln!(out, "== Figure 1: sequential control flow across machines ==\n")?;
    let trace = fig1::run_fig1_program(&sch).map_err(|e| e.to_string())?;
    writeln!(out, "{trace}")?;

    writeln!(out, "== Per-machine-pair RPC cost (virtual ms/call) ==\n")?;
    let costs = fig1::measure_pair_costs(
        &sch,
        &["lerc-sparc10", "lerc-sgi-4d480", "lerc-cray-ymp", "ua-sparc10"],
        20,
    )
    .map_err(|e| e.to_string())?;
    writeln!(out, "{:<16} {:<16} {:<34} {:>10}", "caller", "callee", "network", "ms/call")?;
    for c in costs {
        writeln!(out, "{:<16} {:<16} {:<34} {:>10.3}", c.from, c.to, c.network, c.per_call_ms)?;
    }
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
    golden::check("paper/quickstart.txt", &transcript());
}

#[test]
#[ignore = "rewrites the golden"]
fn rewrite_paper_goldens() {
    golden::rewrite("paper/quickstart.txt", &transcript());
}
