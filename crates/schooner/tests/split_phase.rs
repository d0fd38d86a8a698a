//! Split-phase line calls: `issue` / `collect` must preserve every
//! observable of the blocking `call_with` path — results, metrics,
//! policy recovery — while letting one call per line stay in flight so
//! independent lines overlap in virtual time.

use netsim::LinkConfig;
use schooner::{
    CallPolicy, FnProcedure, ProgramImage, SchError, Schooner, SchoonerConfig, StatefulProcedure,
};
use uts::Value;

fn doubler_image() -> ProgramImage {
    ProgramImage::new("doubler", r#"export double prog("x" val float, "y" res float)"#)
        .unwrap()
        .with_procedure("double", || {
            Box::new(FnProcedure::new(|args: &[Value]| {
                let x = match args[0] {
                    Value::Float(x) => x,
                    _ => return Err("bad arg".into()),
                };
                Ok(vec![Value::Float(x * 2.0)])
            }))
        })
        .unwrap()
}

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

#[test]
fn issue_then_collect_equals_blocking_call() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-cray-ymp"]).unwrap();
    let mut line = sch.open_line("m", "ua-sparc10").unwrap();
    line.start_remote("/npss/doubler", "lerc-cray-ymp").unwrap();
    let ticket = line.issue("double", &[Value::Float(21.25)]).unwrap();
    assert!(ticket.in_flight());
    assert_eq!(ticket.name(), "double");
    let out = line.collect(ticket).unwrap();
    assert_eq!(out, vec![Value::Float(42.5)]);
    sch.shutdown();
}

/// Switching batching off while a request is held on its link strands
/// nothing: the collect's flush still finds the open frame and sends
/// it, and the call completes with the result and arrival the same
/// call has with batching left on.
#[test]
fn a_request_held_when_batching_goes_off_is_flushed_by_the_collect() {
    let run = |switch_off: bool| {
        let config = SchoonerConfig::builder().link_batching(LinkConfig).build();
        let sch = Schooner::standard_with(config).unwrap();
        sch.install_program("/npss/doubler", doubler_image(), &["lerc-cray-ymp"]).unwrap();
        let mut line = sch.open_line("m", "ua-sparc10").unwrap();
        line.start_remote("/npss/doubler", "lerc-cray-ymp").unwrap();
        let ticket = line.issue("double", &[Value::Float(1.5)]).unwrap();
        let net = &sch.ctx().net;
        assert_eq!(net.pending_batched("ua-sparc10", "lerc-cray-ymp"), 1, "held on its link");
        if switch_off {
            net.set_link_config(None);
        }
        let out = line.collect(ticket).unwrap();
        assert_eq!(net.pending_batched("ua-sparc10", "lerc-cray-ymp"), 0);
        let now = line.now().to_bits();
        sch.shutdown();
        (out, now)
    };
    let (out, now) = run(true);
    assert_eq!(out, vec![Value::Float(3.0)]);
    assert_eq!(now, run(false).1);
}

/// The blocking and split-phase forms must be indistinguishable in the
/// metrics registry: same counters, same virtual-time histograms, byte
/// for byte. Two identical worlds run the same call sequence through
/// the two APIs and compare whole snapshots.
#[test]
fn split_phase_metrics_match_blocking_byte_for_byte() {
    let run = |split: bool| -> String {
        let sch = Schooner::standard().unwrap();
        sch.install_program("/npss/doubler", doubler_image(), &["lerc-cray-ymp"]).unwrap();
        let mut line = sch.open_line("m", "ua-sparc10").unwrap();
        line.start_remote("/npss/doubler", "lerc-cray-ymp").unwrap();
        for k in 0..5 {
            let args = [Value::Float(k as f32)];
            let out = if split {
                let t = line.issue("double", &args).unwrap();
                line.collect(t).unwrap()
            } else {
                line.call("double", &args).unwrap()
            };
            assert_eq!(out, vec![Value::Float(2.0 * k as f32)]);
        }
        let snap = sch.ctx().obs.metrics().snapshot_json();
        sch.shutdown();
        snap
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn line_admits_one_call_in_flight() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/doubler", "lerc-sgi-4d480").unwrap();

    let ticket = line.issue("double", &[Value::Float(1.0)]).unwrap();
    // While the ticket is outstanding the line refuses a second issue,
    // a blocking call, and manager traffic alike.
    let err = line.issue("double", &[Value::Float(2.0)]).unwrap_err();
    assert!(err.to_string().contains("in flight"), "{err}");
    let err = line.call("double", &[Value::Float(2.0)]).unwrap_err();
    assert!(err.to_string().contains("in flight"), "{err}");
    let err = line.move_procedure("double", "lerc-rs6000").unwrap_err();
    assert!(err.to_string().contains("in flight"), "{err}");

    // Collecting frees the line, success or not.
    assert_eq!(line.collect(ticket).unwrap(), vec![Value::Float(2.0)]);
    assert_eq!(line.call("double", &[Value::Float(3.0)]).unwrap(), vec![Value::Float(6.0)]);
    sch.shutdown();
}

/// An issue-side failure is deferred to `collect`, where the policy
/// decides; a non-retryable error surfaces unchanged.
#[test]
fn issue_failure_surfaces_from_collect() {
    let sch = Schooner::standard().unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    let ticket = line.issue("ghost", &[]).unwrap();
    assert!(!ticket.in_flight());
    let err = line.collect(ticket).unwrap_err();
    assert!(matches!(err, SchError::UnknownProcedure(_)), "{err}");
    // The failed ticket still released the line.
    assert!(line.issue("ghost", &[]).is_ok());
    sch.shutdown();
}

/// A binding that went stale between issue and collect recovers through
/// the Manager inside `collect`, exactly as the blocking loop does.
#[test]
fn collect_recovers_stale_binding_via_policy() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/accum", accumulator_image(), &["lerc-sgi-4d480", "lerc-rs6000"])
        .unwrap();
    let mut owner = sch.open_line("owner", "lerc-sparc10").unwrap();
    owner.start_shared("/npss/accum", "lerc-sgi-4d480").unwrap();

    let mut user = sch.open_line("user", "ua-sparc10").unwrap();
    assert_eq!(user.call("accum", &[Value::Double(1.0)]).unwrap(), vec![Value::Double(1.0)]);

    // Owner migrates the shared instance; the user's cached binding is
    // now stale, and the split-phase call must recover per-ticket.
    owner.move_procedure("accum", "lerc-rs6000").unwrap();
    let ticket = user.issue("accum", &[Value::Double(4.0)]).unwrap();
    assert_eq!(user.collect(ticket).unwrap(), vec![Value::Double(5.0)]);
    assert!(user.stats().stale_retries >= 1, "stale cache path must have run");
    sch.shutdown();
}

/// Exhausting the policy inside `collect` reports the attempt count
/// including the issued attempt.
#[test]
fn collect_exhausts_policy_with_issued_attempt_counted() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/doubler", "lerc-sgi-4d480").unwrap();
    line.call("double", &[Value::Float(1.0)]).unwrap();

    sch.ctx().net.set_host_up("lerc-sgi-4d480", false);
    let policy = CallPolicy::default().idempotent(true).retries(2);
    let ticket = line.issue_with("double", &[Value::Float(1.0)], &policy).unwrap();
    let err = line.collect(ticket).unwrap_err();
    match err {
        SchError::PolicyExhausted { attempts, .. } => {
            assert_eq!(attempts, 3, "issued attempt plus two retries")
        }
        other => panic!("expected PolicyExhausted, got {other}"),
    }
    sch.ctx().net.set_host_up("lerc-sgi-4d480", true);
    assert_eq!(line.call("double", &[Value::Float(3.0)]).unwrap(), vec![Value::Float(6.0)]);
    sch.shutdown();
}

/// Two lines with a call in flight each overlap in virtual time: after
/// syncing both clocks to a common instant, the wave's makespan is the
/// slowest call, not the sum.
#[test]
fn in_flight_calls_on_two_lines_overlap_in_virtual_time() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-cray-ymp", "ua-sgi-4d340"])
        .unwrap();
    let mut near = sch.open_line("near", "lerc-sparc10").unwrap();
    near.start_remote("/npss/doubler", "lerc-cray-ymp").unwrap();
    let mut far = sch.open_line("far", "lerc-sparc10").unwrap();
    far.start_remote("/npss/doubler", "ua-sgi-4d340").unwrap();
    // Warm both bindings so the measured wave is pure call time.
    near.call("double", &[Value::Float(1.0)]).unwrap();
    far.call("double", &[Value::Float(1.0)]).unwrap();

    let t0 = near.now().max(far.now());
    near.sync_to(t0);
    far.sync_to(t0);
    let tn = near.issue("double", &[Value::Float(2.0)]).unwrap();
    let tf = far.issue("double", &[Value::Float(2.0)]).unwrap();
    near.collect(tn).unwrap();
    far.collect(tf).unwrap();
    let near_s = near.now() - t0;
    let far_s = far.now() - t0;
    let makespan = near_s.max(far_s);
    let serial = near_s + far_s;
    assert!(
        makespan < serial * 0.9,
        "wave should beat the serial sum: makespan {makespan}s vs serial {serial}s"
    );
    sch.shutdown();
}
