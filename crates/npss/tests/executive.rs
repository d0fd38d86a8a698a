//! End-to-end tests of the prototype executive: the F100 network, local
//! and remote component execution, the paper's verification property
//! (remote results equal the local-compute-only baseline), and the wave
//! scheduler's plan and failure order (its replay is `tests/replay_matrix.rs`).

use std::sync::Arc;

use avs::{NetworkDescription, WidgetInput};
use npss::engine_exec::{Exec, ExecutiveEngine, Scheduling};
use npss::experiments::max_rel_diff;
use npss::f100::{F100Network, RemotePlacement, TABLE2_PLACEMENT};
use npss::service;
use schooner::{CallPolicy, Schooner};
use tess::engine::Turbofan;
use tess::schedules::Schedule;
use tess::transient::TransientMethod;

fn world() -> Arc<Schooner> {
    Arc::new(Schooner::standard().unwrap())
}

#[test]
fn f100_network_builds_and_renders_figure2() {
    let sch = world();
    let net = F100Network::build(sch.clone(), "ua-sparc10").unwrap();
    let figure = net.render();
    for module in [
        "[inlet]",
        "[low pressure compressor]",
        "[splitter]",
        "[bypass duct]",
        "[high pressure compressor]",
        "[bleed]",
        "[combustor]",
        "[high pressure turbine]",
        "[low pressure turbine]",
        "[mixing volume]",
        "[tailpipe duct]",
        "[nozzle]",
        "[low speed shaft]",
        "[high speed shaft]",
        "[system]",
    ] {
        assert!(figure.contains(module), "missing {module} in:\n{figure}");
    }
    // The shaft control panel exists with the paper's widgets.
    let shaft = net.id("low speed shaft");
    let panel = net.editor.control_panel(shaft).unwrap();
    let names: Vec<&str> = panel.iter().map(|w| w.name()).collect();
    assert!(names.contains(&"remote machine"));
    assert!(names.contains(&"pathname"));
    assert!(names.contains(&"moment inertia"));
    assert!(names.contains(&"spool speed"));
}

/// The system module's steady-state widget is read: the executive has
/// no RK4 relaxation, so choosing it fails the run by name instead of
/// balancing with Newton-Raphson anyway.
#[test]
fn steady_state_method_choice_is_honoured() {
    let mut net = F100Network::build(world(), "ua-sparc10").unwrap();
    let system = net.id("system");
    let choose = |net: &mut F100Network, method: &str| {
        let choice = WidgetInput::Choice(method.to_owned());
        net.editor.set_widget(system, "steady-state method", choice).unwrap();
    };
    choose(&mut net, "Fourth-order Runge-Kutta");
    let err = net.run("Modified Euler", 0.04, 0.02).unwrap_err();
    assert!(err.contains("'Fourth-order Runge-Kutta'"), "{err}");
    choose(&mut net, "Newton-Raphson");
    assert_eq!(net.run("Modified Euler", 0.04, 0.02).unwrap().samples.len(), 3);
}

/// A saved network is file text: nesting past the JSON parser's bound is
/// an error, never a stack overflow, and a saved F100 network restores.
#[test]
fn saved_network_text_is_parsed_with_bounded_nesting() {
    let err = NetworkDescription::from_json(&"[".repeat(200_000)).unwrap_err();
    assert!(err.contains("at byte 64"), "{err}");
    let sch = world();
    let net = F100Network::build(sch.clone(), "ua-sparc10").unwrap();
    let text = net.save().to_json();
    let saved = NetworkDescription::from_json(&text).unwrap();
    let restored = F100Network::restore(&saved, sch, "ua-sparc10").unwrap();
    assert_eq!(restored.render(), net.render());
}

#[test]
fn all_local_run_balances_and_spools_up() {
    let sch = world();
    let mut net = F100Network::build(sch.clone(), "ua-sparc10").unwrap();
    let result = net.run("Modified Euler", 0.3, 0.02).unwrap();
    assert_eq!(result.samples.len(), 16);
    assert!(result.last().thrust > result.samples[0].thrust, "throttle step raises thrust");
    // All executors local in this run.
    for row in net.report() {
        assert_eq!(row.location, "local", "{row:?}");
    }
}

#[test]
fn zero_time_step_is_refused_not_run_forever() {
    let run = F100Network::build(world(), "ua-sparc10").unwrap().run("Modified Euler", 0.2, 0.0);
    assert!(run.unwrap_err().contains("time step must be positive"));
}

#[test]
fn remote_combustor_matches_local_exactly() {
    let sch = world();
    let mut local = F100Network::build(sch.clone(), "ua-sparc10").unwrap();
    let baseline = local.run("Modified Euler", 0.2, 0.02).unwrap();

    let mut remote = F100Network::build(sch.clone(), "ua-sparc10").unwrap();
    remote
        .apply_placement(&RemotePlacement::all_local().with("combustor", "ua-sgi-4d340"))
        .unwrap();
    let result = remote.run("Modified Euler", 0.2, 0.02).unwrap();

    let diff = max_rel_diff(&result, &baseline);
    assert!(diff < 1e-9, "remote combustor deviates by {diff}");
    let report = remote.report();
    let comb = report.iter().find(|r| r.module == "combustor").unwrap();
    assert_eq!(comb.location, "ua-sgi-4d340");
    assert!(comb.calls > 10, "combustor was called {} times", comb.calls);
    assert!(comb.virtual_seconds > 0.0);
}

#[test]
fn remote_duct_on_the_cray_matches_local() {
    let sch = world();
    let mut local = F100Network::build(sch.clone(), "lerc-sgi-4d480").unwrap();
    let baseline = local.run("Modified Euler", 0.2, 0.02).unwrap();

    let mut remote = F100Network::build(sch.clone(), "lerc-sgi-4d480").unwrap();
    remote
        .apply_placement(&RemotePlacement::all_local().with("bypass duct", "lerc-cray-ymp"))
        .unwrap();
    let result = remote.run("Modified Euler", 0.2, 0.02).unwrap();
    let diff = max_rel_diff(&result, &baseline);
    assert!(diff < 1e-9, "Cray duct deviates by {diff} (f32 fits the Cray mantissa exactly)");
}

#[test]
fn operating_conditions_widgets_change_the_run() {
    use avs::WidgetInput;
    let sch = world();
    let mut net = F100Network::build(sch.clone(), "ua-sparc10").unwrap();
    let sea_level = net.run("Modified Euler", 0.1, 0.02).unwrap();

    // High altitude, forward flight: the user turns the operating-
    // condition widgets on the system module's control panel.
    let system = net.id("system");
    net.editor.set_widget(system, "altitude", WidgetInput::Number(8000.0)).unwrap();
    net.editor.set_widget(system, "mach", WidgetInput::Number(0.8)).unwrap();
    let altitude = net.run("Modified Euler", 0.1, 0.02).unwrap();

    assert!(
        altitude.last().thrust < 0.7 * sea_level.last().thrust,
        "thrust must lapse: {} vs {}",
        altitude.last().thrust,
        sea_level.last().thrust
    );
    assert!(altitude.last().w2 < 0.7 * sea_level.last().w2, "inlet flow must fall with density");
}

#[test]
fn thrust_monitor_records_runs() {
    let sch = world();
    let mut net = F100Network::build(sch.clone(), "ua-sparc10").unwrap();
    let handle = net.thrust_monitor.clone().unwrap();
    assert!(handle.numbers().is_empty());
    let r1 = net.run("Modified Euler", 0.1, 0.02).unwrap();
    let after_first = handle.numbers();
    assert!(!after_first.is_empty());
    assert_eq!(
        after_first.last().unwrap().1,
        r1.last().thrust,
        "probe sees the system module's published thrust"
    );
    let r2 = net.run("Modified Euler", 0.2, 0.02).unwrap();
    let after_second = handle.numbers();
    assert!(after_second.len() > after_first.len());
    assert_eq!(after_second.last().unwrap().1, r2.last().thrust);
}

#[test]
fn pathname_widget_substitutes_a_different_code() {
    use avs::WidgetInput;
    let sch = world();
    let mut net = F100Network::build(sch.clone(), "ua-sparc10").unwrap();
    let baseline = net.run("Modified Euler", 0.2, 0.02).unwrap();

    // Substitute the alternative duct code (flow-dependent loss) for the
    // bypass duct — the user just types a different pathname.
    let duct = net.id("bypass duct");
    net.editor
        .set_widget(duct, "pathname", WidgetInput::Text(npss::procs::DUCT2_PATH.into()))
        .unwrap();
    let substituted_local = net.run("Modified Euler", 0.2, 0.02).unwrap();
    let diff = max_rel_diff(&substituted_local, &baseline);
    assert!(diff > 1e-6, "substituted code must change results (diff {diff})");

    // The substituted code also runs remotely — and matches its own local
    // run exactly (the Table 1/2 verification applies to it too).
    net.place("bypass duct", "lerc-cray-ymp").unwrap();
    let substituted_remote = net.run("Modified Euler", 0.2, 0.02).unwrap();
    let diff = max_rel_diff(&substituted_remote, &substituted_local);
    assert!(diff < 1e-9, "remote duct2 deviates from local duct2 by {diff}");
}

#[test]
fn engine_model_choice_switches_cycles() {
    let sch = world();
    let mut net = F100Network::build(sch.clone(), "ua-sparc10").unwrap();
    let f100 = net.run("Modified Euler", 0.1, 0.02).unwrap();

    // The same network re-runs as a high-bypass commercial engine.
    net.set_cycle(tess::CycleDesign::high_bypass_class());
    // Force the system module to re-execute despite unchanged widgets.
    let hb = net.run("Modified Euler", 0.12, 0.02).unwrap();
    let sfc_f100 = f100.last().wf / f100.last().thrust;
    let sfc_hb = hb.last().wf / hb.last().thrust;
    assert!(
        sfc_hb < 0.8 * sfc_f100,
        "high-bypass executive run must be more efficient: {sfc_hb:.3e} vs {sfc_f100:.3e}"
    );
}

/// The AVS leveling pass groups exactly the independent slots: the
/// bypass duct and combustor share a wave, the two shafts share a wave,
/// and everything on the gas path's spine stays ordered.
#[test]
fn wave_plan_derives_antichains_from_f100_graph() {
    let net = F100Network::build(world(), "ua-sparc10").unwrap();
    let plan = net.wave_plan().unwrap();
    assert!(plan.same_wave("bypass duct", "combustor"), "{plan:?}");
    assert!(plan.same_wave("low speed shaft", "high speed shaft"), "{plan:?}");
    assert!(!plan.same_wave("bypass duct", "tailpipe duct"), "{plan:?}");
    assert!(!plan.same_wave("combustor", "nozzle"), "{plan:?}");
    assert!(!plan.same_wave("tailpipe duct", "nozzle"), "{plan:?}");
}

/// A fault the executive finds in its own physics — here a β outside the
/// HPC map — is reported before any component of that evaluation has been
/// called, under either scheduler: the local HPC runs ahead of the bypass
/// duct / combustor group in the one sweep both modes share.
#[test]
fn hpc_map_excursion_fails_before_any_component_call() {
    for scheduling in [Scheduling::Sequential, Scheduling::WaveParallel] {
        let mut exec = ExecutiveEngine::all_local(Turbofan::f100().unwrap()).unwrap();
        exec.scheduling = scheduling;
        exec.wave_plan = service::f100_wave_plan();
        exec.setup().unwrap();
        let calls =
            |e: &ExecutiveEngine| -> Vec<u64> { e.report_rows().iter().map(|r| r.calls).collect() };
        let before = calls(&exec);
        assert_eq!(before, [1; 6], "setup configures every slot once");

        let (cy, d) = (exec.engine.cycle.clone(), exec.engine.design.clone());
        let on_map = [0.5, 0.5, d.er_hpt, d.er_lpt, 1.0];
        let off_map = [0.5, 7.0, d.er_hpt, d.er_lpt, 1.0];
        let err = exec.evaluate(cy.n1_design, cy.n2_design, d.wf, &off_map).unwrap_err();
        assert!(err.contains("coordinate 7 outside table range"), "{scheduling:?}: {err}");
        assert_eq!(calls(&exec), before, "{scheduling:?}: no slot was called");

        // The same point on the map reaches all four gas-path slots.
        exec.evaluate(cy.n1_design, cy.n2_design, d.wf, &on_map).unwrap();
        assert_eq!(calls(&exec), [2, 2, 2, 2, 1, 1], "{scheduling:?}");
    }
}

/// When two calls in the same wave both fail, the reported error names
/// the slot lowest in slot order, regardless of which host died "first":
/// the full-width configuration wave loses the Cray (bypass duct,
/// tailpipe duct) and the UA SGI (combustor) at once, and the error is
/// always the bypass duct's.
#[test]
fn two_failures_in_one_wave_report_first_by_slot_order() {
    let sch = service::world(false).unwrap();
    let policy = CallPolicy::new().idempotent(true).retries(1).backoff(0.05, 2.0, 0.05);
    let mut exec = service::table2_engine(&sch, &policy, Scheduling::WaveParallel, 0).unwrap();
    sch.ctx().net.set_host_up("lerc-cray-ymp", false);
    sch.ctx().net.set_host_up("ua-sgi-4d340", false);
    let err = exec.setup().unwrap_err();
    assert!(err.starts_with("bypass duct"), "expected the lowest slot's error, got: {err}");

    // With only the combustor's host down, the error is the combustor's.
    sch.ctx().net.set_host_up("lerc-cray-ymp", true);
    let err = exec.setup().unwrap_err();
    assert!(err.starts_with("combustor"), "expected the combustor's error, got: {err}");

    sch.ctx().net.set_host_up("ua-sgi-4d340", true);
    exec.setup().unwrap();
    exec.shutdown();
    sch.shutdown();
}

/// Checkpoint, restore, and configuration traffic ride the owning
/// component's line: after a wave-parallel run with barriers, every
/// slot's line has non-zero call and reply-byte counts of its own, and
/// the per-line tallies sum exactly to the world's `rpc.*` counters —
/// nothing is charged to an arbitrary "first" line.
#[test]
fn reply_bytes_are_attributed_per_line() {
    let sch = service::world(false).unwrap();
    let mut exec =
        service::table2_engine(&sch, &CallPolicy::default(), Scheduling::WaveParallel, 5).unwrap();
    let fuel = Schedule::constant(exec.engine.design.wf);
    exec.run_transient(&fuel, TransientMethod::ImprovedEuler, 0.02, 0.2).unwrap();
    exec.checkpoint_remotes();

    let (mut calls, mut request_bytes, mut reply_bytes) = (0, 0, 0);
    for (slot, _, _) in TABLE2_PLACEMENT {
        let Some(Exec::Remote(r)) = exec.exec_mut(slot) else { panic!("{slot} should be remote") };
        let stats = r.stats();
        assert!(stats.calls > 0, "{slot} made no calls of its own");
        assert!(stats.reply_bytes > 0, "{slot} earned no reply bytes of its own");
        calls += stats.calls;
        request_bytes += stats.request_bytes;
        reply_bytes += stats.reply_bytes;
    }
    let m = sch.ctx().obs.metrics();
    assert_eq!(m.counter("rpc.calls"), calls, "calls must sum to the world counter");
    assert_eq!(m.counter("rpc.request_bytes"), request_bytes);
    assert_eq!(m.counter("rpc.reply_bytes"), reply_bytes);

    exec.shutdown();
    sch.shutdown();
}
