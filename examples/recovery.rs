//! Checkpoint/restart of a distributed transient.
//!
//! The Table-2 configuration — TESS on the UA Sparc 10 with six remote
//! module instances, both ducts on the LeRC Cray Y-MP — runs a one-second
//! F100 transient while the Cray **crashes mid-run**, destroying both
//! duct processes. The call policy exhausts inside the crash window, the
//! failed solver step rolls the transient back to its latest checkpoint
//! barrier, and once the Cray reboots the Manager's supervision declares
//! the old processes dead and respawns them under fresh incarnations.
//! The recovered run is verified **bit-identical** to an uninterrupted
//! one: with single-step integration, stateless adapted procedures, and
//! exact f32 marshaling, recovery leaves no numeric fingerprint.
//!
//! Every timing decision is made in virtual time from a seeded fault
//! plan, so this example prints the same transcript on every run.
//!
//! Run with: `cargo run --release --example recovery`

use std::io::Write;

use npss_sim::ledger::{RecordKind, Repository};
use npss_sim::netsim::FaultPlan;
use table2_run::{run, table2_engine, world, T_END};
use temp_journal::TempJournal;

#[path = "support/table2_run.rs"]
mod table2_run;
#[path = "support/temp_journal.rs"]
mod temp_journal;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    checkpoint_restart(&mut std::io::stdout().lock())
}

fn checkpoint_restart(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    writeln!(out, "== checkpoint/restart of the Table-2 transient ==\n")?;

    // Reference: the same placement, never interrupted.
    let sch = world()?;
    let mut engine = table2_engine(&sch)?;
    let t_start = engine.line_now("bypass duct").ok_or("the bypass duct is local")?;
    let reference = run(&mut engine)?;
    let t_stop = engine.line_now("bypass duct").ok_or("the bypass duct is local")?;
    engine.shutdown();
    sch.shutdown();
    writeln!(
        out,
        "reference run: {} samples over {:.1}s of engine time \
         ({:.1} virtual seconds of distributed execution)",
        reference.samples.len(),
        T_END,
        t_stop - t_start
    )?;

    // Faulted run: the Cray crashes a little past mid-run and reboots
    // 0.35 virtual seconds later. The two-attempt call policy cannot
    // ride that out, so the transient must fall back to its barriers.
    let t_crash = t_start + 0.55 * (t_stop - t_start);
    let sch = world()?;
    sch.ctx().obs.set_enabled(true);
    // Every event, checkpoint write, and supervision verdict of the
    // faulted run lands in a durable journal as well.
    let journal = TempJournal::new("npss-recovery");
    sch.attach_journal(&journal.0)?;
    let mut engine = table2_engine(&sch)?;
    sch.ctx().net.set_fault_plan(Some(
        FaultPlan::new(0xF100)
            .host_crash("lerc-cray-ymp", t_crash)
            .host_restart("lerc-cray-ymp", t_crash + 0.35),
    ));
    writeln!(
        out,
        "\ncrash scheduled: lerc-cray-ymp (both duct instances) down at \
         t = {t_crash:.2}s, rebooting at t = {:.2}s\n",
        t_crash + 0.35
    )?;

    let recovered = run(&mut engine)?;
    writeln!(
        out,
        "faulted run completed: {} samples, {} checkpoint rollback(s)\n",
        recovered.samples.len(),
        engine.recoveries
    )?;

    writeln!(out, "supervision trace:")?;
    let rendered = sch.ctx().obs.render();
    for line in rendered.lines().filter(|l| {
        ["resuming from checkpoint", "declared", "respawned", "heartbeat", "escalating"]
            .iter()
            .any(|k| l.contains(k))
    }) {
        writeln!(out, "  {line}")?;
    }

    // The verification criterion, bit for bit.
    let mut worst: u64 = 0;
    for (a, b) in recovered.samples.iter().zip(&reference.samples) {
        for (x, y) in [
            (a.t, b.t),
            (a.n1, b.n1),
            (a.n2, b.n2),
            (a.wf, b.wf),
            (a.thrust, b.thrust),
            (a.t4, b.t4),
            (a.w2, b.w2),
        ] {
            worst = worst.max(x.to_bits().abs_diff(y.to_bits()));
        }
    }
    let identical = recovered.samples.len() == reference.samples.len() && worst == 0;
    writeln!(
        out,
        "\nrecovered vs uninterrupted: {} samples each, max ULP distance {worst} -> {}",
        recovered.samples.len(),
        if identical { "BIT-IDENTICAL" } else { "MISMATCH" }
    )?;
    if !identical {
        return Err("recovered transient deviates from the uninterrupted run".into());
    }

    engine.shutdown();
    sch.ctx().net.set_fault_plan(None);
    sch.shutdown();

    // The journal outlives the world: report what a cold restart would
    // recover from.
    let repo = Repository::open(&journal.0)?;
    let barrier = repo
        .records()
        .iter()
        .rev()
        .find_map(|r| match &r.kind {
            RecordKind::Barrier { step, t_engine, .. } => Some((r.seq, *step, *t_engine)),
            _ => None,
        })
        .ok_or("journal holds no checkpoint barrier")?;
    writeln!(
        out,
        "\ndurable journal: {} records, sequence range 1..={}, {} torn byte(s)",
        repo.len(),
        repo.last_seq(),
        repo.torn_bytes()
    )?;
    writeln!(out, "journal path: {}", journal.0.display())?;
    writeln!(
        out,
        "cold restart would resume from barrier seq {} (solver step {}, t = {:.2}s)",
        barrier.0, barrier.1, barrier.2
    )?;
    Ok(())
}

#[cfg(test)]
#[path = "../tests/support/golden.rs"]
mod golden;

/// The transcript with its temporary journal path masked.
#[cfg(test)]
fn transcript() -> Vec<u8> {
    let mut out = Vec::new();
    checkpoint_restart(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let masked = text.lines().map(|l| {
        if l.starts_with("journal path: ") {
            "journal path: <masked>"
        } else {
            l
        }
    });
    masked.flat_map(|l| [l, "\n"]).collect::<String>().into_bytes()
}

#[test]
fn transcript_matches_its_golden() {
    golden::check("paper/recovery.txt", &transcript());
}

#[test]
#[ignore = "rewrites the golden"]
fn rewrite_paper_goldens() {
    golden::rewrite("paper/recovery.txt", &transcript());
}
