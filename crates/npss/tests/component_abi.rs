//! Registry-built components on the Schooner RPC path.
//!
//! The tentpole acceptance criteria for the component ABI: a component
//! registered through [`tess::ComponentRegistry`] runs **out-of-process**
//! through Schooner with results bit-identical to the in-process factory
//! instance, seeded runs replay byte-for-byte, stateful components
//! checkpoint through the Manager's store and survive a host crash under
//! their executor's call policy, a partitioned component degrades to its
//! local fallback, and new component types become Network Editor modules
//! without touching the executive's dispatch code.

use netsim::FaultPlan;
use npss::bridge::{component_image, install_component, RemoteComponent, COMPONENT_PROC};
use npss::exec::{LocalExec, RemoteExec};
use npss::modules::{ComponentModule, ExecutiveServices};
use schooner::{CallPolicy, Schooner};
use std::sync::Arc;
use tess::component::{flow_value, ComponentRegistry, EngineComponent};
use testkit::SplitMix64;
use uts::Value;

/// Executive host (UA site) and an IEEE-double serving host (LeRC site),
/// so marshaling is exact and f64 comparisons can demand bit identity.
const AVS_HOST: &str = "ua-sparc10";
const SERVE_HOST: &str = "lerc-rs6000";

fn world() -> Schooner {
    Schooner::standard().unwrap()
}

/// Install `type_name` from the registry on every host and start it on
/// the serving host, called from the executive host under `policy`.
fn start_component(
    sch: &Schooner,
    registry: &ComponentRegistry,
    type_name: &str,
    policy: CallPolicy,
) -> RemoteExec {
    let hosts: Vec<String> = sch.ctx().park.hosts().iter().map(|s| s.to_string()).collect();
    let host_refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
    let path = install_component(sch, registry, type_name, &host_refs).unwrap();
    let line = sch.open_line(type_name, AVS_HOST).unwrap();
    RemoteExec::start(line, &path, SERVE_HOST).unwrap().with_policy(policy)
}

/// The seeded afterburner input sweep: wet and dry operating points.
fn afterburner_sweep(seed: u64, n: usize) -> Vec<Vec<Value>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let flow = tess::GasState::new(
                rng.range(50.0, 90.0),
                rng.range(700.0, 1000.0),
                rng.range(1.5e5, 3.0e5),
                rng.range(0.0, 0.025),
            );
            // Every fourth point is dry (wf = 0), exercising both paths.
            let wf = if i % 4 == 0 { 0.0 } else { rng.range(0.3, 2.2) };
            vec![flow_value(&flow), Value::Double(wf)]
        })
        .collect()
}

fn bits_of(values: &[Value]) -> Vec<u64> {
    let mut bits = Vec::new();
    for v in values {
        match v {
            Value::Double(x) => bits.push(x.to_bits()),
            other => {
                let xs = other.as_doubles().unwrap_or_else(|| panic!("non-double value {other}"));
                bits.extend(xs.iter().map(|x| x.to_bits()));
            }
        }
    }
    bits
}

/// One complete world: install the afterburner duct from the registry,
/// start it on the RS6000, run the seeded sweep remotely and in-process,
/// and return the remote outputs' bit patterns (after asserting
/// remote ≡ local pointwise).
fn afterburner_run(seed: u64) -> Vec<u64> {
    let sch = world();
    let registry = ComponentRegistry::builtin();
    let exec = start_component(&sch, &registry, "afterburner duct", CallPolicy::default());
    let mut remote = RemoteComponent::new(exec, &registry, "afterburner duct").unwrap();
    let mut local = registry.create("afterburner duct").unwrap();

    let mut all_bits = Vec::new();
    for args in afterburner_sweep(seed, 24) {
        let remote_out = remote.compute(&args).unwrap();
        let local_out = local.compute(&args).unwrap();
        assert_eq!(
            bits_of(&remote_out),
            bits_of(&local_out),
            "out-of-process result must be bit-identical to the in-process instance"
        );
        all_bits.extend(bits_of(&remote_out));
    }
    assert_eq!(remote.exec_mut().location(), SERVE_HOST);
    remote.destroy();
    sch.shutdown();
    all_bits
}

/// Acceptance: a registry component runs out-of-process via Schooner in a
/// deterministic seeded test, bit-identical to in-process — and the whole
/// seeded run replays identically in a fresh world.
#[test]
fn afterburner_runs_out_of_process_bit_identically() {
    let first = afterburner_run(0x5EED_AB01);
    let second = afterburner_run(0x5EED_AB01);
    assert_eq!(first, second, "same seed must replay byte-for-byte");
    assert!(!first.is_empty());
}

/// The heat exchanger is stateful (relaxed wall temperature + transfer
/// count), so its checkpoints are non-empty and recovery is observable:
/// after a host crash, the Manager respawns the process from the
/// checkpointed `state(...)` variables and the continued sequence matches
/// an uninterrupted in-process run bit-for-bit. The component rides the
/// crash on its own executor's retry policy.
#[test]
fn stateful_component_checkpoint_survives_host_crash() {
    let sch = world();
    sch.ctx().obs.set_enabled(true);
    let registry = ComponentRegistry::builtin();
    let policy = CallPolicy::new().idempotent(true).retries(12).backoff(0.25, 2.0, 4.0);
    let exec = start_component(&sch, &registry, "heat exchanger", policy);
    let mut remote = RemoteComponent::new(exec, &registry, "heat exchanger").unwrap();
    let mut reference = registry.create("heat exchanger").unwrap();

    let sweep: Vec<Vec<Value>> = (0..10)
        .map(|i| {
            let hot = tess::GasState::new(70.0 + i as f64, 900.0 + 5.0 * i as f64, 2.5e5, 0.02);
            let cold = tess::GasState::new(30.0, 400.0 + 2.0 * i as f64, 4.0e5, 0.0);
            vec![flow_value(&hot), flow_value(&cold)]
        })
        .collect();

    // Warm up the wall state, then checkpoint.
    for args in &sweep[..6] {
        let r = remote.compute(args).unwrap();
        let l = reference.compute(args).unwrap();
        assert_eq!(bits_of(&r), bits_of(&l));
    }
    let bytes = remote.exec_mut().checkpoint(COMPONENT_PROC).unwrap();
    assert!(bytes > 0, "a stateful component must checkpoint more than 0 bytes");

    // Crash the serving host just after the checkpoint; it reboots two
    // virtual seconds later, inside the retry policy's backoff budget.
    let t_crash = remote.exec_mut().line_mut().now() + 0.05;
    sch.ctx().net.set_fault_plan(Some(
        FaultPlan::new(0xC0DE)
            .host_crash(SERVE_HOST, t_crash)
            .host_restart(SERVE_HOST, t_crash + 2.0),
    ));

    // The first call rides the crash through the policy's retries. The
    // respawned incarnation restores the checkpointed wall temperature
    // and transfer count, so every continued output matches the
    // uninterrupted local reference exactly.
    for (i, args) in sweep[6..].iter().enumerate() {
        let r = remote.compute(args).unwrap();
        let l = reference.compute(args).unwrap();
        assert_eq!(bits_of(&r), bits_of(&l), "post-recovery output {i} must be bit-identical");
    }

    let rendered = sch.ctx().obs.render();
    assert!(rendered.contains("respawned"), "{rendered}");

    remote.destroy();
    sch.ctx().net.set_fault_plan(None);
    sch.shutdown();
}

/// Migration: moving the component's procedure through its executor
/// carries its state to another machine through the same checkpoint
/// machinery; the sequence continues as if nothing moved, and the
/// executor reports the new host.
#[test]
fn stateful_component_state_migrates_with_move_to() {
    let sch = world();
    let registry = ComponentRegistry::builtin();
    let exec = start_component(&sch, &registry, "heat exchanger", CallPolicy::default());
    let mut remote = RemoteComponent::new(exec, &registry, "heat exchanger").unwrap();
    let mut reference = registry.create("heat exchanger").unwrap();

    let hot = tess::GasState::new(72.0, 910.0, 2.4e5, 0.02);
    let cold = tess::GasState::new(31.0, 410.0, 3.9e5, 0.0);
    let args = vec![flow_value(&hot), flow_value(&cold)];
    for _ in 0..5 {
        let r = remote.compute(&args).unwrap();
        let l = reference.compute(&args).unwrap();
        assert_eq!(bits_of(&r), bits_of(&l));
    }

    // Migrate to the other IEEE host mid-sequence.
    let exec = remote.exec_mut();
    exec.line_mut().move_procedure(COMPONENT_PROC, "lerc-sgi-4d420").unwrap();
    assert_eq!(exec.location(), "lerc-sgi-4d420");

    for _ in 0..5 {
        let r = remote.compute(&args).unwrap();
        let l = reference.compute(&args).unwrap();
        assert_eq!(bits_of(&r), bits_of(&l), "migrated instance must continue bit-identically");
    }

    remote.destroy();
    sch.shutdown();
}

/// A component cut off from its serving host degrades to the local
/// fallback its executor was given — the component's own image,
/// instantiated in-process — and every output, before and after the
/// partition, is bit-equal to a registry instance's.
#[test]
fn a_partitioned_component_degrades_to_its_local_fallback() -> Result<(), Box<dyn std::error::Error>>
{
    let sch = world();
    sch.ctx().obs.set_enabled(true);
    let reg = ComponentRegistry::builtin();
    let policy = CallPolicy::new()
        .idempotent(true)
        .retries(1)
        .backoff(0.1, 2.0, 1.0)
        .degrade_on_exhaustion();
    let exec = start_component(&sch, &reg, "afterburner duct", policy)
        .with_fallback(LocalExec::new(&component_image(&reg, "afterburner duct")?)?);
    let mut remote = RemoteComponent::new(exec, &reg, "afterburner duct")?;
    let mut local = reg.create("afterburner duct").ok_or("afterburner duct is registered")?;

    for (i, args) in afterburner_sweep(0x5EED_AB02, 12).iter().enumerate() {
        if i == 6 {
            let t0 = remote.exec_mut().line_mut().now();
            sch.ctx().net.set_fault_plan(Some(FaultPlan::new(0xAB02).partition(
                &[AVS_HOST],
                &[SERVE_HOST],
                0.0,
                t0 + 1.0e6,
            )));
        }
        let (r, l) = (remote.compute(args)?, local.compute(args)?);
        assert_eq!(bits_of(&r), bits_of(&l), "output {i} must be bit-equal to the registry's");
        assert_eq!(remote.exec_mut().is_degraded(), i >= 6, "output {i}");
    }
    assert_eq!(remote.exec_mut().location(), format!("local (degraded from {SERVE_HOST})"));
    let rendered = sch.ctx().obs.render();
    assert!(rendered.contains("to local fallback"), "{rendered}");

    remote.destroy();
    sch.ctx().net.set_fault_plan(None);
    sch.shutdown();
    Ok(())
}

/// Acceptance: new component types become Network Editor modules through
/// the registry alone — ports and widgets come from the typed spec, with
/// zero changes to the executive's module code.
#[test]
fn new_component_types_are_modules_without_dispatch_changes() {
    let sch = Arc::new(world());
    let services = ExecutiveServices::new(sch, AVS_HOST);

    // Both PR-introduced components resolve through the registry.
    let hx = ComponentModule::new("recuperator", "heat exchanger", services.clone());
    let spec = avs::AvsModule::spec(&hx);
    let inputs: Vec<&str> = spec.inputs.iter().map(|p| p.name.as_str()).collect();
    let outputs: Vec<&str> = spec.outputs.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(inputs, ["hot", "cold"]);
    assert_eq!(outputs, ["hot out", "cold out"]);
    let widget_names: Vec<&str> = spec.widgets.iter().map(|w| w.name()).collect();
    assert!(widget_names.contains(&"effectiveness"), "{widget_names:?}");
    // Declared remote_path ⇒ the paper's two adapted-module widgets.
    assert!(widget_names.contains(&"remote machine"), "{widget_names:?}");
    assert!(widget_names.contains(&"pathname"), "{widget_names:?}");

    let ab = ComponentModule::new("reheat", "afterburner duct", services.clone());
    let spec = avs::AvsModule::spec(&ab);
    assert_eq!(spec.type_name, "afterburner duct");
    assert!(spec.widgets.iter().any(|w| w.name() == "reheat efficiency"));

    // And a type registered at runtime is immediately buildable too.
    struct Probe;
    impl EngineComponent for Probe {
        fn spec(&self) -> tess::ComponentSpec {
            tess::ComponentSpec::new("flow probe").port_in("in").port_out("out")
        }
        fn compute(&mut self, _args: &[Value]) -> Result<Vec<Value>, String> {
            Ok(Vec::new())
        }
    }
    services.register_component(Arc::new(|| Box::new(Probe))).unwrap();
    let probe = ComponentModule::new("station 13 probe", "flow probe", services);
    assert_eq!(avs::AvsModule::spec(&probe).type_name, "flow probe");
}
