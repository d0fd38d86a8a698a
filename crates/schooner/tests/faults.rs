//! Fault-tolerant call-layer tests: deterministic fault injection from a
//! [`netsim::FaultPlan`] exercised end to end through [`CallPolicy`] —
//! partitions healed by virtual-time backoff, seeded message drops,
//! migration-based failover away from dead hosts, and the typed error
//! chain surfaced when a policy is exhausted.

use netsim::{FaultPlan, NetError};
use schooner::prelude::*;

/// `cal(x) = 1.8x + 32`, computed in f32 — any silent fallback or lost
/// retry shows up as a bit-level mismatch against the local baseline.
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

fn inputs() -> Vec<f32> {
    (0..12).map(|i| -40.0 + 13.75 * i as f32).collect()
}

/// Expected outputs computed locally, with the same f32 arithmetic the
/// remote procedure uses.
fn local_baseline() -> Vec<Vec<Value>> {
    inputs().iter().map(|x| vec![Value::Float(x * 1.8 + 32.0)]).collect()
}

/// A timed partition separates the module from its server mid-run; an
/// idempotent policy with exponential backoff rides the clock past the
/// heal point and every result is bit-identical to the local baseline.
#[test]
fn partition_heals_in_virtual_time_and_results_match_baseline() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/x/cal", converter_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "ua-sparc10").unwrap();
    line.start_remote("/x/cal", "lerc-sgi-4d480").unwrap();

    // Cut the module's site off from the server's host until 2.5 virtual
    // seconds from now. The Manager (lerc-sparc10) stays reachable.
    let t0 = line.now();
    sch.ctx().net.set_fault_plan(Some(FaultPlan::new(0xF001).partition(
        &["ua-sparc10"],
        &["lerc-sgi-4d480"],
        0.0,
        t0 + 2.5,
    )));

    let policy = CallPolicy::new().idempotent(true).retries(5).backoff(1.0, 2.0, 8.0);
    let mut outputs = Vec::new();
    for x in inputs() {
        outputs.push(line.call_with("cal", &[Value::Float(x)], &policy).unwrap());
    }

    assert_eq!(outputs, local_baseline(), "recovered run must be bit-identical");
    let stats = line.stats();
    assert!(stats.policy_retries >= 1, "{stats:?}");
    assert_eq!(stats.failovers, 0, "{stats:?}");
    assert!(line.now() >= t0 + 2.5, "backoff must have crossed the heal point");

    sch.ctx().net.set_fault_plan(None);
    sch.shutdown();
}

/// On a batched link, a request held for a flush can be failed by the
/// flush another line's append triggers — even when that append is then
/// refused too. Both lines see the typed transport error; the first
/// line's failure is not lost and mistaken for a vanished reply.
#[test]
fn a_held_request_failed_by_another_lines_refused_append_keeps_its_error() {
    let config = SchoonerConfig::builder().link_batching(netsim::LinkConfig).build();
    let sch = Schooner::standard_with(config).unwrap();
    sch.install_program("/x/cal", converter_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut a = sch.open_line("a", "ua-sparc10").unwrap();
    let mut b = sch.open_line("b", "ua-sparc10").unwrap();
    for line in [&mut a, &mut b] {
        line.start_remote("/x/cal", "lerc-sgi-4d480").unwrap();
        line.call("cal", &[Value::Float(0.0)]).unwrap();
    }
    let t0 = a.sync_to(b.now());
    let held = a.issue("cal", &[Value::Float(1.0)]).unwrap();
    // The partition opens after `a`'s request was appended and before
    // `b`'s append, which finds it past its linger deadline.
    sch.ctx().net.set_fault_plan(Some(FaultPlan::new(0xF002).partition(
        &["ua-sparc10"],
        &["lerc-sgi-4d480"],
        t0 + 1.0,
        t0 + 10.0,
    )));
    b.sync_to(t0 + 2.0);
    let refused = b.issue("cal", &[Value::Float(2.0)]).unwrap();
    for (line, ticket) in [(&mut a, held), (&mut b, refused)] {
        let err = line.collect(ticket).unwrap_err();
        assert!(matches!(err, SchError::Net(NetError::Unreachable { .. })), "{err}");
    }
    sch.ctx().net.set_fault_plan(None);
    sch.shutdown();
}

/// Seeded message drops: two runs with the same plan seed see the exact
/// same fates (same outputs, same retry counts), and the answers still
/// match the clean baseline because the policy absorbs every loss.
#[test]
fn seeded_drops_replay_identically_across_runs() {
    let run = |seed: u64| -> (Vec<Vec<Value>>, u64, u64) {
        // A dropped *reply* leaves the world quiescent: the caller sees
        // the loss at once, classifies it as transient, and re-sends.
        let sch = Schooner::standard().unwrap();
        sch.install_program("/x/cal", converter_image(), &["lerc-sgi-4d480"]).unwrap();
        let mut line = sch.open_line("m", "ua-sparc10").unwrap();
        line.start_remote("/x/cal", "lerc-sgi-4d480").unwrap();

        sch.ctx().net.set_fault_plan(Some(FaultPlan::new(seed).drop_between(
            "ua-sparc10",
            "lerc-sgi-4d480",
            0.35,
        )));
        let policy = CallPolicy::new().idempotent(true).retries(30).backoff(0.05, 1.0, 0.05);
        let outputs: Vec<Vec<Value>> = inputs()
            .iter()
            .map(|x| line.call_with("cal", &[Value::Float(*x)], &policy).unwrap())
            .collect();
        let stats = line.stats();
        sch.ctx().net.set_fault_plan(None);
        sch.shutdown();
        (outputs, stats.policy_retries, stats.calls)
    };

    let first = run(0xDEAD);
    let second = run(0xDEAD);
    assert_eq!(first, second, "same seed must replay the same fates");
    assert!(first.1 >= 1, "a 35% drop rate must force at least one retry");
    assert_eq!(first.0, local_baseline(), "losses must not corrupt results");
}

/// When the serving host dies, an idempotent policy with a failover list
/// migrates the procedure to a replica host and completes the call.
#[test]
fn dead_host_failover_migrates_and_recovers() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/x/cal", converter_image(), &["lerc-sgi-4d480", "lerc-rs6000"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/x/cal", "lerc-sgi-4d480").unwrap();
    assert_eq!(line.call("cal", &[Value::Float(0.0)]).unwrap(), vec![Value::Float(32.0)]);

    sch.ctx().net.set_host_up("lerc-sgi-4d480", false);
    let policy = CallPolicy::new()
        .idempotent(true)
        .retries(1)
        .backoff(0.5, 2.0, 4.0)
        .failover(["lerc-rs6000"]);
    let out = line.call_with("cal", &[Value::Float(100.0)], &policy).unwrap();
    assert_eq!(out, vec![Value::Float(212.0)]);

    let stats = line.stats();
    assert_eq!(stats.failovers, 1, "{stats:?}");
    assert!(stats.policy_retries >= 1, "{stats:?}");

    // The binding now points at the replica; plain calls keep working
    // while the original host is still dead.
    assert_eq!(line.call("cal", &[Value::Float(10.0)]).unwrap(), vec![Value::Float(50.0)]);
    sch.shutdown();
}

/// Failover targets are tried in order: a target without the executable
/// is skipped and the next one takes the procedure.
#[test]
fn failover_list_skips_unusable_targets() {
    let sch = Schooner::standard().unwrap();
    // Installed on the SGI and the Convex — but NOT on the RS6000.
    sch.install_program("/x/cal", converter_image(), &["lerc-sgi-4d480", "lerc-convex"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/x/cal", "lerc-sgi-4d480").unwrap();
    line.call("cal", &[Value::Float(0.0)]).unwrap();

    sch.ctx().net.set_host_up("lerc-sgi-4d480", false);
    let policy = CallPolicy::new()
        .idempotent(true)
        .retries(1)
        .backoff(0.25, 2.0, 2.0)
        .failover(["lerc-rs6000", "lerc-convex"]);
    let out = line.call_with("cal", &[Value::Float(100.0)], &policy).unwrap();
    assert_eq!(out, vec![Value::Float(212.0)]);
    assert_eq!(line.stats().failovers, 1, "only the usable target counts");
    sch.shutdown();
}

/// Exhausting a policy yields the typed chain: `PolicyExhausted` carries
/// the attempt count and the final underlying transport error.
#[test]
fn policy_exhaustion_yields_typed_error_chain() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/x/cal", converter_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/x/cal", "lerc-sgi-4d480").unwrap();
    line.call("cal", &[Value::Float(0.0)]).unwrap();

    sch.ctx().net.set_host_up("lerc-sgi-4d480", false);
    let policy = CallPolicy::new().idempotent(true).retries(1).backoff(0.1, 2.0, 1.0);
    let err = line.call_with("cal", &[Value::Float(1.0)], &policy).unwrap_err();
    match err {
        SchError::PolicyExhausted { what, attempts, last } => {
            assert_eq!(what, "cal");
            assert_eq!(attempts, 2, "one initial attempt plus one retry");
            assert!(
                matches!(*last, SchError::Net(NetError::HostDown(ref h)) if h == "lerc-sgi-4d480"),
                "{last}"
            );
        }
        other => panic!("expected PolicyExhausted, got {other}"),
    }
    sch.shutdown();
}

/// A virtual-time deadline cuts retries short even when the retry budget
/// would allow more attempts.
#[test]
fn deadline_is_enforced_in_virtual_time() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/x/cal", converter_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/x/cal", "lerc-sgi-4d480").unwrap();
    line.call("cal", &[Value::Float(0.0)]).unwrap();

    sch.ctx().net.set_host_up("lerc-sgi-4d480", false);
    let policy =
        CallPolicy::new().idempotent(true).retries(100).backoff(4.0, 2.0, 100.0).deadline_s(5.0);
    let err = line.call_with("cal", &[Value::Float(1.0)], &policy).unwrap_err();
    assert!(
        matches!(err, SchError::DeadlineExceeded { ref what, deadline_s }
            if what == "cal" && deadline_s == 5.0),
        "{err}"
    );
    sch.shutdown();
}

/// The default policy never blind-retries a non-idempotent call on a
/// transport failure: the classic semantics are preserved exactly.
#[test]
fn default_policy_preserves_classic_semantics() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/x/cal", converter_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/x/cal", "lerc-sgi-4d480").unwrap();
    line.call("cal", &[Value::Float(0.0)]).unwrap();

    sch.ctx().net.set_host_up("lerc-sgi-4d480", false);
    let err = line.call("cal", &[Value::Float(1.0)]).unwrap_err();
    assert!(
        matches!(err, SchError::Net(NetError::HostDown(_))),
        "non-idempotent calls must surface the raw transport error: {err}"
    );
    assert_eq!(line.stats().policy_retries, 0);
    sch.shutdown();
}

/// Backoff jitter draws from the policy's seeded stream: runs with equal
/// seeds advance the virtual clock identically, different seeds differ.
#[test]
fn jittered_backoff_is_seed_deterministic() {
    let elapsed = |seed: u64| -> f64 {
        let sch = Schooner::standard().unwrap();
        sch.install_program("/x/cal", converter_image(), &["lerc-sgi-4d480"]).unwrap();
        let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
        line.start_remote("/x/cal", "lerc-sgi-4d480").unwrap();
        sch.ctx().net.set_host_up("lerc-sgi-4d480", false);
        let t0 = line.now();
        let policy = CallPolicy::new()
            .idempotent(true)
            .retries(4)
            .backoff(0.5, 2.0, 16.0)
            .jitter(0.5)
            .seed(seed);
        let _ = line.call_with("cal", &[Value::Float(1.0)], &policy).unwrap_err();
        let dt = line.now() - t0;
        sch.shutdown();
        dt
    };
    let a = elapsed(7);
    assert_eq!(a, elapsed(7), "equal seeds must pause identically");
    assert_ne!(a, elapsed(8), "the jitter stream must depend on the seed");
}
