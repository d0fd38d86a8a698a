//! Cold-start recovery of a distributed transient from the journal alone.
//!
//! The Table-2 configuration runs a one-second F100 transient while a
//! durable journal records every sample, checkpoint barrier, checkpoint
//! blob, supervision verdict, and metrics snapshot. Mid-run the Cray
//! hosting both ducts crashes **and stays down**, so the transient cannot
//! ride it out — and then the whole simulation process dies without any
//! teardown, exactly like a Manager host losing power. A later process,
//! sharing **no memory** with the dead one, rebuilds everything from the
//! journal file: the retained checkpoints, the incarnation floor, the
//! accepted samples, and the solver's resume state at the latest barrier —
//! then finishes the transient. The result is bit-identical to a run that
//! was never interrupted.
//!
//! Modes (for CI the three run as separate processes):
//!
//! * `reference` — the uninterrupted run; prints the sample transcript.
//! * `crash`     — journal + mid-run host crash; **exits without teardown**.
//! * `recover`   — cold start from the journal; prints the same transcript.
//! * (no mode)   — all three phases in-process, with verification.
//!
//! `crash` and `recover` hand the journal over at `$NPSS_JOURNAL` (default:
//! a file in the system temp directory); the in-process run journals to a
//! file of its own, removed when it is done. Transcripts go to stdout and
//! everything else to stderr, so `reference` and `recover` stdout can be
//! diffed directly.
//!
//! Run with: `cargo run --release --example ledger_replay`

use std::io::Write;
use std::path::PathBuf;

use npss_sim::ledger::Repository;
use npss_sim::netsim::FaultPlan;
use npss_sim::tess::transient::{TransientMethod, TransientSample};
use table2_run::{fuel_schedule, run, table2_engine, world, DT, T_END};
use temp_journal::TempJournal;

#[path = "support/table2_run.rs"]
mod table2_run;
#[path = "support/temp_journal.rs"]
mod temp_journal;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = &mut std::io::stdout().lock();
    match args.first().map(String::as_str) {
        Some("reference") => reference(out),
        Some("crash") => crash(),
        Some("recover") => recover(out),
        None => all_in_one(out),
        Some(other) => Err(format!("unknown mode '{other}' (want reference|crash|recover)").into()),
    }
}

fn journal_path() -> PathBuf {
    std::env::var_os("NPSS_JOURNAL")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("npss-ledger-replay.journal"))
}

/// The uninterrupted run: the transcript every other mode is held to.
fn reference(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    let sch = world()?;
    let mut engine = table2_engine(&sch)?;
    let result = run(&mut engine)?;
    write_transcript(out, &result.samples)?;
    engine.shutdown();
    sch.shutdown();
    Ok(())
}

/// The doomed run: journal attached, Cray down for good mid-run, then
/// process death with no teardown (std::process::exit runs no
/// destructors — the journal file is all that survives).
fn crash() -> Result<(), Box<dyn std::error::Error>> {
    let t_crash = measure_crash_time()?;
    let path = journal_path();
    let sch = world()?;
    sch.attach_journal(&path)?;
    let mut engine = table2_engine(&sch)?;
    engine.max_recoveries = 0; // first failed step is fatal, like a kill -9
    sch.ctx().net.set_fault_plan(Some(FaultPlan::new(0xF100).host_crash("lerc-cray-ymp", t_crash)));
    eprintln!("crash scheduled: lerc-cray-ymp down for good at t = {t_crash:.2} virtual s");
    match run(&mut engine) {
        Ok(_) => Err("crash run unexpectedly completed — raise T_CRASH?".into()),
        Err(e) => {
            eprintln!("transient aborted as planned: {e}");
            eprintln!("dying without teardown; journal survives at {}", path.display());
            std::process::exit(0);
        }
    }
}

/// Cold start: no shared memory with the dead run — only the journal.
fn recover(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    let path = journal_path();
    let repo = Repository::open(&path)?;
    eprintln!(
        "replaying {}: {} records, sequence 1..={}, {} torn byte(s) discarded",
        path.display(),
        repo.len(),
        repo.last_seq(),
        repo.torn_bytes()
    );

    // A fresh world with the same deterministic configuration (the
    // crashed host comes back up with the infrastructure). The journal
    // is re-attached (sequence numbers continue), the checkpoint store
    // and incarnation floor are seeded from the replayed records, and
    // the engine resumes at the latest barrier.
    let sch = world()?;
    let replay = sch.resume_journal(&path)?;
    sch.seed_recovery(&repo);
    eprintln!(
        "world reseeded: {} retained checkpoint(s), resuming journal after seq {}",
        repo.retained_checkpoints().len(),
        replay.records.last().map(|r| r.seq).unwrap_or(0)
    );
    let mut engine = table2_engine(&sch)?;
    let fuel = fuel_schedule(&engine)?;
    let result =
        engine.recover_from_journal(&repo, &fuel, TransientMethod::ImprovedEuler, DT, T_END)?;
    write_transcript(out, &result.samples)?;

    // The acceptance check for `costs --metrics` durability: append the
    // live snapshot to the journal, then answer it back from the file
    // alone and demand byte equality at the same sequence point.
    let live = sch.ctx().obs.metrics().snapshot_json();
    let seq = sch.journal_metrics_snapshot().ok_or("journal not attached")?;
    let cold = Repository::open(&path)?;
    let (at, json) = cold.metrics_as_of(seq).ok_or("snapshot not found in journal")?;
    if at != seq || json != live {
        return Err("journaled metrics deviate from the live snapshot".into());
    }
    eprintln!("metrics from journal at seq {seq}: byte-identical to live snapshot");
    engine.shutdown();
    sch.shutdown();
    Ok(())
}

/// All three phases in one process (the crash simulated by abandoning
/// the doomed world un-shutdown), plus bit-exact verification.
fn all_in_one(out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("== cold-start recovery from the durable journal ==\n");
    let journal = TempJournal::new("npss-ledger-replay");
    let path = &journal.0;

    // Reference — also measures the virtual window the crash lands in.
    let sch = world()?;
    let mut engine = table2_engine(&sch)?;
    let t_start = engine.line_now("bypass duct").ok_or("the bypass duct is local")?;
    let reference = run(&mut engine)?;
    let t_stop = engine.line_now("bypass duct").ok_or("the bypass duct is local")?;
    engine.shutdown();
    sch.shutdown();
    eprintln!("reference run: {} samples", reference.samples.len());

    // Doomed run: Cray down for good a little past mid-run; the world is
    // dropped without shutdown, as a crashed process would leave it.
    let t_crash = t_start + 0.55 * (t_stop - t_start);
    let sch = world()?;
    sch.attach_journal(path)?;
    let mut engine = table2_engine(&sch)?;
    engine.max_recoveries = 0;
    sch.ctx().net.set_fault_plan(Some(FaultPlan::new(0xF100).host_crash("lerc-cray-ymp", t_crash)));
    let err = run(&mut engine).expect_err("the crash must abort the transient");
    eprintln!("doomed run aborted mid-transient: {err}");

    // Cold start from the journal alone.
    let repo = Repository::open(path)?;
    eprintln!(
        "journal: {} records, sequence 1..={}, {} torn byte(s)",
        repo.len(),
        repo.last_seq(),
        repo.torn_bytes()
    );
    let sch = world()?;
    sch.resume_journal(path)?;
    sch.seed_recovery(&repo);
    let mut engine = table2_engine(&sch)?;
    let fuel = fuel_schedule(&engine)?;
    let recovered =
        engine.recover_from_journal(&repo, &fuel, TransientMethod::ImprovedEuler, DT, T_END)?;
    eprintln!("recovered run: {} samples", recovered.samples.len());

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
        "cold-start recovery vs uninterrupted: {} samples each, max ULP distance {worst} -> {}",
        recovered.samples.len(),
        if identical { "BIT-IDENTICAL" } else { "MISMATCH" }
    )?;
    engine.shutdown();
    sch.shutdown();
    if !identical {
        return Err("recovered transient deviates from the uninterrupted run".into());
    }
    Ok(())
}

/// Write one line per sample with full f64 bit patterns — the transcript
/// two runs must agree on, bit for bit.
fn write_transcript(out: &mut impl Write, samples: &[TransientSample]) -> std::io::Result<()> {
    for s in samples {
        writeln!(
            out,
            "{:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x}  t={:.2} n1={:.1} n2={:.1}",
            s.t.to_bits(),
            s.n1.to_bits(),
            s.n2.to_bits(),
            s.wf.to_bits(),
            s.thrust.to_bits(),
            s.t4.to_bits(),
            s.w2.to_bits(),
            s.t,
            s.n1,
            s.n2,
        )?;
    }
    Ok(())
}

/// Run a throwaway uninterrupted world to find the virtual-time window of
/// the transient, and place the crash a little past its midpoint. Virtual
/// clocks are per-world, so this does not perturb the doomed run — and it
/// is fully deterministic, so `crash` and `recover` agree across
/// processes.
fn measure_crash_time() -> Result<f64, Box<dyn std::error::Error>> {
    let sch = world()?;
    let mut engine = table2_engine(&sch)?;
    let t_start = engine.line_now("bypass duct").ok_or("the bypass duct is local")?;
    run(&mut engine)?;
    let t_stop = engine.line_now("bypass duct").ok_or("the bypass duct is local")?;
    engine.shutdown();
    sch.shutdown();
    Ok(t_start + 0.55 * (t_stop - t_start))
}

#[cfg(test)]
#[path = "../tests/support/golden.rs"]
mod golden;

#[cfg(test)]
fn transcript() -> Vec<u8> {
    let mut out = Vec::new();
    all_in_one(&mut out).unwrap();
    out
}

#[test]
fn transcript_matches_its_golden() {
    golden::check("paper/ledger_replay.txt", &transcript());
}

#[test]
#[ignore = "rewrites the golden"]
fn rewrite_paper_goldens() {
    golden::rewrite("paper/ledger_replay.txt", &transcript());
}
