//! Supervised-execution tests: heartbeat probing, incarnation fencing,
//! and checkpoint/restart, driven end to end by deterministic crash
//! faults from a [`netsim::FaultPlan`].
//!
//! The scenarios mirror the failure modes of the paper's testbed: a host
//! crash destroys process state (its Server survives), delayed replies
//! from the pre-crash instance must never satisfy calls bound to its
//! successor, and a Manager-held checkpoint of the `state(...)` variables
//! brings a stateful procedure back to its last barrier.

use netsim::FaultPlan;
use schooner::message::Msg;
use schooner::prelude::*;
use schooner::stub::CompiledStub;
use uts::Architecture;

/// `cal(x) = 1.8x + 32` in f32 — stateless, so respawn alone restores it.
fn converter_image() -> ProgramImage {
    ProgramImage::new("cal", r#"export cal prog("x" val float, "y" res float)"#)
        .unwrap()
        .with_procedure("cal", || {
            Box::new(FnProcedure::new(|args: &[Value]| {
                let x = match args[0] {
                    Value::Float(x) => x,
                    _ => return Err("bad arg".into()),
                };
                Ok(vec![Value::Float(x * 1.8 + 32.0)])
            }))
        })
        .unwrap()
}

/// A running sum with a `state("total" double)` clause — the only part of
/// it a crash can destroy, and the only part a checkpoint must save.
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

/// A host crash mid-run destroys the accumulator's state; the Manager
/// respawns it under a fresh incarnation and restores the checkpoint, so
/// the post-recovery total continues from the snapshot — not from zero,
/// and not from the never-checkpointed value the crash wiped out.
#[test]
fn crash_respawns_and_restores_checkpointed_state() {
    let sch = Schooner::standard().unwrap();
    sch.ctx().obs.set_enabled(true);
    sch.install_program("/npss/accum", accumulator_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/accum", "lerc-sgi-4d480").unwrap();

    assert_eq!(line.call("accum", &[Value::Double(1.5)]).unwrap(), vec![Value::Double(1.5)]);
    assert_eq!(line.call("accum", &[Value::Double(2.5)]).unwrap(), vec![Value::Double(4.0)]);

    // Snapshot at total = 4.0 (a UTS-marshaled, architecture-neutral
    // capture held by the Manager).
    let bytes = line.checkpoint("accum").unwrap();
    assert!(bytes > 0, "a stateful procedure must yield a non-empty snapshot");

    // Advance past the barrier; this increment exists only in process
    // memory and must be lost to the crash.
    assert_eq!(line.call("accum", &[Value::Double(1.0)]).unwrap(), vec![Value::Double(5.0)]);

    let t0 = line.now();
    sch.ctx().net.set_fault_plan(Some(
        FaultPlan::new(0xC0DE)
            .host_crash("lerc-sgi-4d480", t0)
            .host_restart("lerc-sgi-4d480", t0 + 1.0),
    ));

    let policy = CallPolicy::new().idempotent(true).retries(8).backoff(0.25, 2.0, 4.0);
    let out = line.call_with("accum", &[Value::Double(6.0)], &policy).unwrap();
    assert_eq!(
        out,
        vec![Value::Double(10.0)],
        "recovery must resume from the checkpointed 4.0, not the lost 5.0 or a fresh 0.0"
    );

    let stats = line.stats();
    assert!(stats.stale_retries >= 1, "{stats:?}");
    assert!(stats.policy_retries >= 1, "{stats:?}");
    assert_eq!(stats.failovers, 0, "{stats:?}");

    let rendered = sch.ctx().obs.render();
    assert!(rendered.contains("checkpointed 'accum'"), "{rendered}");
    assert!(rendered.contains("dead (incarnation 1)"), "{rendered}");
    assert!(rendered.contains("restored '/npss/accum' from checkpoint"), "{rendered}");
    assert!(
        rendered.contains("respawned '/npss/accum' on lerc-sgi-4d480 as incarnation 2"),
        "{rendered}"
    );

    sch.ctx().net.set_fault_plan(None);
    sch.shutdown();
}

/// A delayed reply from the pre-crash instance — same call id the caller
/// is waiting on, wrong (older) incarnation — is provably fenced: without
/// the fence its forged payload would be accepted as the answer.
#[test]
fn delayed_pre_crash_reply_is_fenced_by_incarnation() {
    let sch = Schooner::standard().unwrap();
    sch.ctx().obs.set_enabled(true);
    sch.install_program("/x/cal", converter_image(), &["lerc-sgi-4d480", "lerc-rs6000"]).unwrap();
    // Deterministic request ids on this line: open=1, start=2, first call
    // maps (3) then calls (4), move=5 — so the next call id is 6.
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/x/cal", "lerc-sgi-4d480").unwrap();
    assert_eq!(line.call("cal", &[Value::Float(0.0)]).unwrap(), vec![Value::Float(32.0)]);

    // Rebind to a fresh instance (incarnation 2) on another host, exactly
    // what recovery does after a crash.
    line.move_procedure("cal", "lerc-rs6000").unwrap();

    // Forge the old instance's delayed answer to the *next* call: correct
    // call id, stale incarnation, poisoned payload.
    let spec = uts::parse_spec_file(r#"export cal prog("x" val float, "y" res float)"#).unwrap();
    let stub = CompiledStub::compile(&spec.decls[0]);
    let poison = stub.marshal_outputs(&[Value::Float(-999.0)], Architecture::SunSparc10).unwrap();
    let forged = Msg::CallReply { call: 6, incarnation: 1, result: Ok(poison) };
    sch.ctx()
        .net
        .send("lerc-sgi-4d480:ghost", line.reply_addr(), forged.encode(), line.now())
        .unwrap();

    // The forged reply is already queued when the real call goes out; the
    // fence must discard it and let the genuine reply through.
    let out = line.call("cal", &[Value::Float(100.0)]).unwrap();
    assert_eq!(out, vec![Value::Float(212.0)], "the poisoned payload must never be accepted");
    assert_eq!(line.stats().fenced_replies, 1);

    let rendered = sch.ctx().obs.render();
    assert!(rendered.contains("fenced reply from incarnation 1 (binding is 2)"), "{rendered}");
    sch.shutdown();
}

/// Heartbeat misses accumulate to the declare-dead threshold: while the
/// Manager is partitioned from the suspect's host it refuses to recover
/// (callers back off), and only the threshold-crossing miss triggers the
/// respawn. Below the threshold a slandered process is never restarted.
#[test]
fn suspect_counts_misses_to_threshold_before_recovery() {
    let sch = Schooner::standard().unwrap();
    sch.ctx().obs.set_enabled(true);
    sch.install_program("/x/cal", converter_image(), &["lerc-sgi-4d480"]).unwrap();
    // Module at U. of Arizona: its routes to both the Manager and the
    // serving host stay clear of the Manager-side partition below.
    let mut line = sch.open_line("m", "ua-sparc10").unwrap();
    line.start_remote("/x/cal", "lerc-sgi-4d480").unwrap();
    line.call("cal", &[Value::Float(0.0)]).unwrap();

    // The host crashes and is back almost immediately — but a partition
    // cuts the Manager off from it, so every heartbeat probe the caller's
    // suspicion triggers is a miss until the partition heals.
    let t0 = line.now();
    sch.ctx().net.set_fault_plan(Some(
        FaultPlan::new(7)
            .host_crash("lerc-sgi-4d480", t0)
            .host_restart("lerc-sgi-4d480", t0 + 0.1)
            .partition(&["lerc-sparc10"], &["lerc-sgi-4d480"], t0, t0 + 4.0),
    ));

    let policy = CallPolicy::new().idempotent(true).retries(10).backoff(0.5, 2.0, 2.0);
    let out = line.call_with("cal", &[Value::Float(100.0)], &policy).unwrap();
    assert_eq!(out, vec![Value::Float(212.0)]);

    let rendered = sch.ctx().obs.render();
    assert!(rendered.contains("heartbeat miss 1/2"), "{rendered}");
    assert!(rendered.contains("heartbeat miss 2/2"), "{rendered}");
    assert!(rendered.contains("declared lerc-sgi-4d480"), "{rendered}");
    assert!(rendered.contains("respawned '/x/cal'"), "{rendered}");
    // The first miss must NOT have started recovery: the declare-dead
    // trace entry comes after the threshold-crossing second miss.
    let miss1 = rendered.find("heartbeat miss 1/2").unwrap();
    let miss2 = rendered.find("heartbeat miss 2/2").unwrap();
    let dead = rendered.find("declared lerc-sgi-4d480").unwrap();
    assert!(miss1 < miss2 && miss2 < dead, "{rendered}");

    sch.ctx().net.set_fault_plan(None);
    sch.shutdown();
}

/// Under `SupervisionPolicy::Escalate` the Manager refuses to recover: the
/// caller receives the typed, non-retryable [`SchError::Escalated`] and
/// the decision is trace-visible.
#[test]
fn escalate_policy_surfaces_typed_error_instead_of_recovering() {
    let sch = Schooner::standard().unwrap();
    sch.ctx().obs.set_enabled(true);
    sch.install_program("/x/cal", converter_image(), &["lerc-sgi-4d480"]).unwrap();
    sch.set_supervision_policy("/x/cal", SupervisionPolicy::Escalate);
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/x/cal", "lerc-sgi-4d480").unwrap();
    line.call("cal", &[Value::Float(0.0)]).unwrap();

    let t0 = line.now();
    sch.ctx().net.set_fault_plan(Some(
        FaultPlan::new(11)
            .host_crash("lerc-sgi-4d480", t0)
            .host_restart("lerc-sgi-4d480", t0 + 0.5),
    ));

    let policy = CallPolicy::new().idempotent(true).retries(8).backoff(0.25, 2.0, 2.0);
    let err = line.call_with("cal", &[Value::Float(1.0)], &policy).unwrap_err();
    assert!(matches!(&err, SchError::Escalated(name) if name == "cal"), "{err}");
    assert!(!err.is_retryable(), "escalation must stop the retry loop");

    let rendered = sch.ctx().obs.render();
    assert!(rendered.contains("escalating failure of 'cal' to the caller"), "{rendered}");

    sch.ctx().net.set_fault_plan(None);
    sch.shutdown();
}

/// The migrate-to-replica policy respawns on the configured replica, not
/// on the crashed host, and the trace shows the whole decision chain.
#[test]
fn migrate_policy_respawns_on_replica_host() {
    let sch = Schooner::standard().unwrap();
    sch.ctx().obs.set_enabled(true);
    sch.install_program("/npss/accum", accumulator_image(), &["lerc-cray-ymp", "lerc-convex"])
        .unwrap();
    sch.set_supervision_policy(
        "/npss/accum",
        SupervisionPolicy::MigrateTo(vec![netsim::replica_of("lerc-cray-ymp").unwrap().to_owned()]),
    );
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/accum", "lerc-cray-ymp").unwrap();
    line.call("accum", &[Value::Double(3.0)]).unwrap();
    line.checkpoint("accum").unwrap();

    // The Cray crashes and reboots — but the policy must still prefer the
    // configured replica over restarting in place on the flaky host.
    let t0 = line.now();
    sch.ctx().net.set_fault_plan(Some(
        FaultPlan::new(3).host_crash("lerc-cray-ymp", t0).host_restart("lerc-cray-ymp", t0 + 0.5),
    ));

    let policy = CallPolicy::new().idempotent(true).retries(6).backoff(0.25, 2.0, 2.0);
    let out = line.call_with("accum", &[Value::Double(4.0)], &policy).unwrap();
    assert_eq!(out, vec![Value::Double(7.0)], "state carried Cray -> Convex via the checkpoint");

    let rendered = sch.ctx().obs.render();
    assert!(rendered.contains("respawned '/npss/accum' on lerc-convex"), "{rendered}");
    assert!(rendered.contains("restored '/npss/accum' from checkpoint"), "{rendered}");

    sch.ctx().net.set_fault_plan(None);
    sch.shutdown();
}

/// Migration and crash recovery are one replacement: moving the
/// accumulator Cray -> Convex and losing the Cray under
/// `MigrateTo(["lerc-convex"])` install the same state, so the first
/// call on the replacement answers the same bits and a checkpoint taken
/// right after it holds the same bytes.
#[test]
fn migration_and_crash_recovery_install_the_same_bytes() {
    // The accumulator at 3.0 on the Cray, checkpointed.
    let world = || {
        let sch = Schooner::standard().unwrap();
        sch.install_program("/npss/accum", accumulator_image(), &["lerc-cray-ymp", "lerc-convex"])
            .unwrap();
        let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
        line.start_remote("/npss/accum", "lerc-cray-ymp").unwrap();
        line.call("accum", &[Value::Double(3.0)]).unwrap();
        line.checkpoint("accum").unwrap();
        (sch, line)
    };
    // The first call on the replacement, then a checkpoint of its state.
    let after = |sch: &Schooner, line: &mut LineHandle, policy: &CallPolicy| {
        let out = line.call_with("accum", &[Value::Double(0.1)], policy).unwrap();
        let Value::Double(total) = out[0] else { panic!("{out:?}") };
        line.checkpoint("accum").unwrap();
        let snap = sch.ctx().checkpoints.get(line.id(), "/npss/accum").unwrap();
        (total.to_bits(), snap.state)
    };

    let (moved, mut line) = world();
    line.move_procedure("accum", "lerc-convex").unwrap();
    let (moved_bits, moved_state) = after(&moved, &mut line, &CallPolicy::default());
    drop(line);
    moved.shutdown();

    let (crashed, mut line) = world();
    crashed.set_supervision_policy(
        "/npss/accum",
        SupervisionPolicy::MigrateTo(vec!["lerc-convex".to_owned()]),
    );
    crashed.ctx().obs.set_enabled(true);
    let t0 = line.now();
    crashed.ctx().net.set_fault_plan(Some(
        FaultPlan::new(3).host_crash("lerc-cray-ymp", t0).host_restart("lerc-cray-ymp", t0 + 0.5),
    ));
    let policy = CallPolicy::new().idempotent(true).retries(6).backoff(0.25, 2.0, 2.0);
    let (crashed_bits, crashed_state) = after(&crashed, &mut line, &policy);
    let rendered = crashed.ctx().obs.render();
    assert!(rendered.contains("respawned '/npss/accum' on lerc-convex"), "{rendered}");

    assert_eq!(moved_bits, crashed_bits, "first call on the replacement");
    assert_eq!(moved_state, crashed_state, "checkpoint after the first call");
    drop(line);
    crashed.ctx().net.set_fault_plan(None);
    crashed.shutdown();
}
