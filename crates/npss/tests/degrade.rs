//! Graceful degradation: a remote component whose call policy is
//! exhausted falls back to the *original local-compute-only version* of
//! the module, replays its configuration, and the run continues on
//! baseline numbers — with the switch recorded in the trace.

use netsim::FaultPlan;
use npss::exec::{ExecError, LocalExec, RemoteExec};
use npss::procs::duct_image;
use schooner::{CallPolicy, SchError, Schooner};
use uts::Value;

fn duct_args() -> Vec<Value> {
    vec![Value::floats(&[42.0, 390.0, 2.9e5, 0.0]), Value::Float(0.03), Value::Float(0.0)]
}

/// The f32 bit patterns of a call's outputs.
fn bits(out: &[Value]) -> Vec<u32> {
    out.iter()
        .flat_map(|v| v.as_floats().unwrap().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        .collect()
}

#[test]
fn exhausted_policy_degrades_to_local_baseline() {
    // The baseline: the same image instantiated in-process.
    let mut baseline = LocalExec::new(&duct_image()).unwrap();
    let mut expected = Vec::new();
    baseline.call("setduct", &[Value::Float(0.03)], &mut expected).unwrap();
    baseline.call("duct", &duct_args(), &mut expected).unwrap();

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
    let mut out = Vec::new();
    exec.call("setduct", &[Value::Float(0.03)], &mut out).unwrap();
    assert!(!exec.is_degraded());
    assert_eq!(exec.location(), "lerc-sgi-4d480");

    // The host dies for good; the next call exhausts the policy and the
    // executor degrades — replaying `setduct` into the fallback first.
    sch.ctx().net.set_host_up("lerc-sgi-4d480", false);
    exec.call("duct", &duct_args(), &mut out).unwrap();
    assert_eq!(out, expected, "degraded output must match the local baseline exactly");
    assert!(exec.is_degraded());
    assert_eq!(exec.location(), "local (degraded from lerc-sgi-4d480)");

    // Degradation is permanent: later calls run locally without touching
    // the network.
    exec.call("duct", &duct_args(), &mut out).unwrap();
    assert_eq!(out, expected);

    let rendered = sch.ctx().obs.render();
    assert!(rendered.contains("degraded 'duct' to local fallback"), "{rendered}");
    sch.shutdown();
}

/// A failover moves the process; the executor's location names the
/// machine it moved to.
#[test]
fn location_follows_a_policy_failover() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/duct", duct_image(), &["lerc-sgi-4d480", "lerc-rs6000"]).unwrap();
    let line = sch.open_line("duct", "lerc-sparc10").unwrap();
    let policy = CallPolicy::new()
        .idempotent(true)
        .retries(1)
        .backoff(0.1, 2.0, 1.0)
        .failover(["lerc-rs6000"]);
    let mut exec =
        RemoteExec::start(line, "/npss/duct", "lerc-sgi-4d480").unwrap().with_policy(policy);

    let mut out = Vec::new();
    exec.call("setduct", &[Value::Float(0.03)], &mut out).unwrap();
    assert_eq!(exec.location(), "lerc-sgi-4d480");
    sch.ctx().net.set_host_up("lerc-sgi-4d480", false);
    exec.call("duct", &duct_args(), &mut out).unwrap();
    assert_eq!(exec.stats().failovers, 1);
    assert_eq!(exec.location(), "lerc-rs6000");
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

    let mut out = Vec::new();
    exec.call("setduct", &[Value::Float(0.03)], &mut out).unwrap();
    sch.ctx().net.set_host_up("lerc-sgi-4d480", false);
    let err = exec.call("duct", &duct_args(), &mut out).unwrap_err();
    assert!(out.is_empty(), "a failed call leaves no outputs");
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
    let mut out = Vec::new();
    let err = local.call("setduct", &[Value::Float(7.5)], &mut out).unwrap_err();
    assert!(
        matches!(err, ExecError::Fault(_)),
        "an out-of-range dpfrac is a procedure fault: {err}"
    );
    let err = local.call("missing", &[], &mut out).unwrap_err();
    assert!(matches!(err, ExecError::Config(_)), "{err}");
}

/// Names are case-insensitive everywhere on the remote path: the
/// Manager's database, the line's cache and the process. A degraded
/// executor replays the configuration it recorded, spelled as the caller
/// spelled it, into its local fallback, so the fallback must resolve
/// names the same way or the executor can never degrade.
#[test]
fn a_degraded_executor_resolves_mixed_case_names_as_its_remote_twin_does() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/duct", duct_image(), &["lerc-sgi-4d480"]).unwrap();
    let line = sch.open_line("duct", "lerc-sparc10").unwrap();
    let policy = CallPolicy::new()
        .idempotent(true)
        .retries(1)
        .backoff(0.1, 2.0, 1.0)
        .degrade_on_exhaustion();
    let mut exec = RemoteExec::start(line, "/npss/duct", "lerc-sgi-4d480")
        .unwrap()
        .with_policy(policy)
        .with_fallback(LocalExec::new(&duct_image()).unwrap());

    let mut out = Vec::new();
    exec.call("SetDuct", &[Value::Float(0.03)], &mut out).unwrap();
    exec.call("DUCT", &duct_args(), &mut out).unwrap();
    let remote = bits(&out);
    assert!(!exec.is_degraded());

    // Cut the module's site off from the server for good: the next call
    // exhausts the policy and degrades, replaying `SetDuct` first.
    let t0 = exec.line_mut().now();
    sch.ctx().net.set_fault_plan(Some(FaultPlan::new(0xD0C).partition(
        &["lerc-sparc10"],
        &["lerc-sgi-4d480"],
        0.0,
        t0 + 1.0e6,
    )));
    exec.call("Duct", &duct_args(), &mut out).unwrap();
    assert!(exec.is_degraded(), "the executor degraded");
    assert_eq!(bits(&out), remote, "the degraded result is bit-identical to the remote one");
    sch.ctx().net.set_fault_plan(None);
    sch.shutdown();
}
