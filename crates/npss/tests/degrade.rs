//! Graceful degradation: a remote component whose call policy is
//! exhausted falls back to the *original local-compute-only version* of
//! the module, replays its configuration, and the run continues on
//! baseline numbers — with the switch recorded in the trace.

use npss::exec::{ExecError, LocalExec, RemoteExec};
use npss::procs::duct_image;
use schooner::{CallPolicy, SchError, Schooner};
use uts::Value;

fn duct_args() -> Vec<Value> {
    vec![Value::floats(&[42.0, 390.0, 2.9e5, 0.0]), Value::Float(0.03), Value::Float(0.0)]
}

#[test]
fn exhausted_policy_degrades_to_local_baseline() {
    // The baseline: the same image instantiated in-process.
    let mut baseline = LocalExec::new(&duct_image()).unwrap();
    baseline.call("setduct", &[Value::Float(0.03)]).unwrap();
    let expected = baseline.call("duct", &duct_args()).unwrap();

    let sch = Schooner::standard().unwrap();
    sch.ctx().obs.set_enabled(true);
    sch.install_program("/npss/duct", duct_image(), &["lerc-sgi-4d480"]).unwrap();
    let line = sch.open_line("duct", "lerc-sparc10").unwrap();
    let policy = CallPolicy::new()
        .idempotent(true)
        .retries(2)
        .backoff(0.1, 2.0, 1.0)
        .degrade_on_exhaustion();
    let mut exec = RemoteExec::start(line, "/npss/duct", "lerc-sgi-4d480")
        .unwrap()
        .with_policy(policy)
        .with_fallback(LocalExec::new(&duct_image()).unwrap());

    // Configure the remote instance while it is healthy.
    exec.call("setduct", &[Value::Float(0.03)]).unwrap();
    assert!(!exec.is_degraded());
    assert_eq!(exec.location(), "lerc-sgi-4d480");

    // The host dies for good; the next call exhausts the policy and the
    // executor degrades — replaying `setduct` into the fallback first.
    sch.ctx().net.set_host_up("lerc-sgi-4d480", false);
    let out = exec.call("duct", &duct_args()).unwrap();
    assert_eq!(out, expected, "degraded output must match the local baseline exactly");
    assert!(exec.is_degraded());
    assert_eq!(exec.location(), "local (degraded from lerc-sgi-4d480)");

    // Degradation is permanent: later calls run locally without touching
    // the network.
    let again = exec.call("duct", &duct_args()).unwrap();
    assert_eq!(again, expected);

    let rendered = sch.ctx().obs.render();
    assert!(rendered.contains("degraded 'duct' to local fallback"), "{rendered}");
    sch.shutdown();
}

#[test]
fn exhaustion_without_fallback_surfaces_typed_error() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/duct", duct_image(), &["lerc-sgi-4d480"]).unwrap();
    let line = sch.open_line("duct", "lerc-sparc10").unwrap();
    let policy = CallPolicy::new().idempotent(true).retries(1).backoff(0.1, 2.0, 1.0);
    let mut exec =
        RemoteExec::start(line, "/npss/duct", "lerc-sgi-4d480").unwrap().with_policy(policy);

    exec.call("setduct", &[Value::Float(0.03)]).unwrap();
    sch.ctx().net.set_host_up("lerc-sgi-4d480", false);
    let err = exec.call("duct", &duct_args()).unwrap_err();
    match err {
        ExecError::Sch(SchError::PolicyExhausted { what, attempts, .. }) => {
            assert_eq!(what, "duct");
            assert_eq!(attempts, 2);
        }
        other => panic!("expected a typed exhaustion chain, got {other}"),
    }
    assert!(!exec.is_degraded(), "no fallback, no degradation");
    sch.shutdown();
}

#[test]
fn procedure_faults_are_typed_not_stringly() {
    let mut local = LocalExec::new(&duct_image()).unwrap();
    let err = local.call("setduct", &[Value::Float(7.5)]).unwrap_err();
    assert!(
        matches!(err, ExecError::Fault(_)),
        "an out-of-range dpfrac is a procedure fault: {err}"
    );
    let err = local.call("missing", &[]).unwrap_err();
    assert!(matches!(err, ExecError::Config(_)), "{err}");
}
