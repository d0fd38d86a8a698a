//! Durable-journal integration: the Manager journals every checkpoint
//! write (and the retention evictions it causes) and every supervision
//! verdict, so a Repository replayed from the file alone agrees with the
//! live world — including across worlds, where a fresh Manager restores
//! a dead world's snapshot into a brand-new process.

use ledger::{RecordKind, RecordTag, Repository};
use netsim::FaultPlan;
use schooner::prelude::*;
use uts::Value;

fn accumulator_image() -> ProgramImage {
    ProgramImage::new(
        "accumulator",
        r#"export accum prog("x" val double, "total" res double) state("total" double)"#,
    )
    .unwrap()
    .with_procedure("accum", || {
        Box::new(StatefulProcedure::new(
            0.0f64,
            |total: &mut f64, args: &[Value]| {
                *total += args[0].as_f64().ok_or("not numeric")?;
                Ok(vec![Value::Double(*total)])
            },
            |total: &f64| vec![Value::Double(*total)],
            |vals: Vec<Value>| vals.first().and_then(Value::as_f64).ok_or("bad state".into()),
        ))
    })
    .unwrap()
}

fn journal_file(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("schooner-journal-{name}-{}", std::process::id()))
}

/// Every `CheckpointStore` write lands in the journal, retention evicts
/// the oldest, the evictions are journaled too, and a cold replay of the
/// file reconstructs exactly the retained set.
#[test]
fn checkpoint_writes_and_evictions_replay_exactly() {
    let path = journal_file("retention");
    let sch = Schooner::standard().unwrap();
    sch.attach_journal(&path).unwrap();
    sch.install_program("/npss/accum", accumulator_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/accum", "lerc-sgi-4d480").unwrap();

    // Six checkpoints at totals 1..=6 against a retention of 4: the
    // first two must be evicted (and journaled as evictions).
    for _ in 0..6 {
        line.call("accum", &[Value::Double(1.0)]).unwrap();
        assert!(line.checkpoint("accum").unwrap() > 0);
    }
    let live: Vec<_> = sch
        .ctx()
        .checkpoints
        .history(line.id(), "/npss/accum")
        .iter()
        .map(|s| (s.taken_at, s.state.clone()))
        .collect();
    assert_eq!(live.len(), 4, "retention must bound the live store");
    sch.shutdown();

    let repo = Repository::open(&path).unwrap();
    assert_eq!(repo.torn_bytes(), 0);
    let counts = repo.counts_by_tag();
    assert_eq!(counts.get(&RecordTag::Checkpoint), Some(&6));
    assert_eq!(counts.get(&RecordTag::CheckpointEvicted), Some(&2));

    let retained = repo.retained_checkpoints();
    assert_eq!(retained.len(), 4, "replay must agree with the live store");
    for (rec, (taken_at, state)) in retained.iter().zip(&live) {
        assert_eq!(rec.taken_at.to_bits(), taken_at.to_bits());
        assert_eq!(rec.state, state.as_ref());
        assert_eq!(rec.path, "/npss/accum");
    }
    std::fs::remove_file(&path).ok();
}

/// A crash-driven respawn journals the death verdict; a fresh world
/// seeded from the replayed journal starts its incarnations *above*
/// everything the dead world ever issued.
#[test]
fn verdicts_journal_and_seed_fences_incarnations() {
    let path = journal_file("verdicts");
    let sch = Schooner::standard().unwrap();
    sch.attach_journal(&path).unwrap();
    sch.install_program("/npss/accum", accumulator_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/accum", "lerc-sgi-4d480").unwrap();
    line.call("accum", &[Value::Double(4.0)]).unwrap();
    line.checkpoint("accum").unwrap();

    let t0 = line.now();
    sch.ctx().net.set_fault_plan(Some(
        FaultPlan::new(0xC0DE)
            .host_crash("lerc-sgi-4d480", t0)
            .host_restart("lerc-sgi-4d480", t0 + 1.0),
    ));
    let policy = CallPolicy::new().idempotent(true).retries(8).backoff(0.25, 2.0, 4.0);
    let out = line.call_with("accum", &[Value::Double(6.0)], &policy).unwrap();
    assert_eq!(out, vec![Value::Double(10.0)]);
    sch.ctx().net.set_fault_plan(None);
    sch.shutdown();

    let repo = Repository::open(&path).unwrap();
    let verdicts: Vec<_> = repo
        .records()
        .iter()
        .filter_map(|r| match &r.kind {
            RecordKind::Verdict { addr, incarnation, verdict } => {
                Some((addr.clone(), *incarnation, verdict.clone()))
            }
            _ => None,
        })
        .collect();
    let deaths: Vec<_> = verdicts.iter().filter(|(_, _, v)| v == "dead").collect();
    assert_eq!(deaths.len(), 1, "{verdicts:?}");
    assert_eq!(deaths[0].1, 1, "the first instance died");
    assert!(
        verdicts.iter().any(|(_, inc, v)| v == "started" && *inc == 2),
        "the respawn's issued incarnation must be journaled: {verdicts:?}"
    );
    let max = repo.max_incarnation();
    assert!(max >= 2, "the respawned incarnation must raise the journal's floor");

    // A fresh world seeded from the journal can never reissue a dead
    // incarnation.
    let sch2 = Schooner::standard().unwrap();
    sch2.seed_recovery(&repo);
    sch2.install_program("/npss/accum", accumulator_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line2 = sch2.open_line("m", "lerc-sparc10").unwrap();
    line2.start_remote("/npss/accum", "lerc-sgi-4d480").unwrap();

    // The brand-new instance starts from zero, but the journal-seeded
    // store restores the dead world's snapshot into it.
    assert_eq!(line2.call("accum", &[Value::Double(0.0)]).unwrap(), vec![Value::Double(0.0)]);
    let restored = line2.restore("accum").unwrap();
    assert!(restored > 0, "seeded checkpoint must restore into the new instance");
    assert_eq!(
        line2.call("accum", &[Value::Double(1.0)]).unwrap(),
        vec![Value::Double(5.0)],
        "state must continue from the dead world's latest retained snapshot \
         (4.0 — the post-respawn 10.0 was never checkpointed)"
    );
    sch2.shutdown();
    std::fs::remove_file(&path).ok();
}

/// `restore` pushes the latest retained checkpoint back into the current
/// instance; with nothing retained it is a 0-byte no-op.
#[test]
fn restore_rewinds_to_latest_checkpoint() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/accum", accumulator_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/accum", "lerc-sgi-4d480").unwrap();

    assert_eq!(line.restore("accum").unwrap(), 0, "no checkpoint yet");

    line.call("accum", &[Value::Double(3.0)]).unwrap();
    let bytes = line.checkpoint("accum").unwrap();
    line.call("accum", &[Value::Double(100.0)]).unwrap();

    assert_eq!(line.restore("accum").unwrap(), bytes);
    assert_eq!(
        line.call("accum", &[Value::Double(1.0)]).unwrap(),
        vec![Value::Double(4.0)],
        "the post-checkpoint increment must be rewound"
    );
    sch.shutdown();
}

/// The metrics registry is answerable from the journal after the world is
/// gone, byte-identical to the live snapshot at the same sequence point.
#[test]
fn metrics_snapshot_survives_the_world() {
    let path = journal_file("metrics");
    let sch = Schooner::standard().unwrap();
    sch.attach_journal(&path).unwrap();
    sch.install_program("/npss/accum", accumulator_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/accum", "lerc-sgi-4d480").unwrap();
    line.call("accum", &[Value::Double(1.0)]).unwrap();

    let live = sch.ctx().obs.metrics().snapshot_json();
    let seq = sch.journal_metrics_snapshot().expect("journal attached");
    line.call("accum", &[Value::Double(1.0)]).unwrap(); // the registry moves on
    sch.shutdown();

    let repo = Repository::open(&path).unwrap();
    let (at, json) = repo.metrics_as_of(seq).expect("snapshot recorded");
    assert_eq!(at, seq);
    assert_eq!(json, live, "journal must answer exactly the live snapshot at seq {seq}");
    assert!(repo.metrics_as_of(seq - 1).is_none_or(|(s, _)| s < seq));
    std::fs::remove_file(&path).ok();
}

/// `shutdown` commits the journal even while an `Obs` clone — an
/// executive's, say — keeps the journal's writer alive: every record
/// appended so far, the buffered events included, is on disk.
#[test]
fn shutdown_commits_while_an_obs_clone_outlives_the_world() {
    let path = journal_file("shutdown-commit");
    let sch = Schooner::standard().unwrap();
    sch.attach_journal(&path).unwrap();
    sch.install_program("/npss/accum", accumulator_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/accum", "lerc-sgi-4d480").unwrap();
    for _ in 0..3 {
        line.call("accum", &[Value::Double(1.0)]).unwrap();
    }
    line.quit().unwrap();
    drop(line);
    let obs = sch.ctx().obs.clone();
    sch.shutdown();

    let journal = obs.ledger().journal().expect("journal attached");
    let replayed = ledger::replay(&path).unwrap();
    assert_eq!(replayed.torn_bytes, 0);
    assert_eq!(
        replayed.records.last().map(|r| r.seq),
        Some(journal.last_seq()),
        "every appended record is on disk"
    );
    let tags = Repository::open(&path).unwrap().counts_by_tag();
    assert!(tags.get(&RecordTag::Event).is_some_and(|&n| n > 6), "{tags:?}");
    drop(obs);
    assert_eq!(ledger::replay(&path).unwrap().records, replayed.records, "nothing was held back");
    std::fs::remove_file(&path).ok();
}
