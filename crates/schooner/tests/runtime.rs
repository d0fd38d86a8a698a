//! End-to-end tests of the Schooner runtime over the simulated NPSS
//! testbed: startup protocol, heterogeneous marshaling, lines, per-line
//! shutdown, migration (stateless and stateful), shared procedures, name
//! synonyms, type checking, and failure behaviour.

use schooner::{FnProcedure, ProgramImage, SchError, Schooner, StatefulProcedure};
use uts::Value;

/// `double(x) = 2x` as a remote procedure image.
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

/// A stateful running-sum procedure with a `state(...)` clause, for
/// migration tests.
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

/// An integer echo, for range-failure tests.
fn echo_int_image() -> ProgramImage {
    ProgramImage::new("echo-int", r#"export echo prog("n" val integer, "m" res integer)"#)
        .unwrap()
        .with_procedure("echo", || {
            Box::new(FnProcedure::new(|args: &[Value]| Ok(vec![args[0].clone()])))
        })
        .unwrap()
}

#[test]
fn call_across_heterogeneous_pair_is_exact() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-cray-ymp"]).unwrap();
    let mut line = sch.open_line("quickcheck", "ua-sparc10").unwrap();
    line.start_remote("/npss/doubler", "lerc-cray-ymp").unwrap();
    let out = line.call("double", &[Value::Float(21.25)]).unwrap();
    assert_eq!(out, vec![Value::Float(42.5)]);
    sch.shutdown();
}

#[test]
fn every_machine_can_serve_the_same_image() {
    let sch = Schooner::standard().unwrap();
    let hosts: Vec<String> = sch.ctx().park.hosts().iter().map(|s| s.to_string()).collect();
    let host_refs: Vec<&str> = hosts.iter().map(|s| s.as_str()).collect();
    sch.install_program("/npss/doubler", doubler_image(), &host_refs).unwrap();
    for (i, host) in hosts.iter().enumerate() {
        let mut line = sch.open_line(&format!("m{i}"), "lerc-sparc10").unwrap();
        line.start_remote("/npss/doubler", host).unwrap();
        let out = line.call("double", &[Value::Float(1.5)]).unwrap();
        assert_eq!(out, vec![Value::Float(3.0)], "host {host}");
        line.quit().unwrap();
    }
    sch.shutdown();
}

#[test]
fn startup_fails_for_uninstalled_executable() {
    let sch = Schooner::standard().unwrap();
    sch.ctx().registry.register("/npss/doubler", doubler_image()).unwrap();
    // Registered globally but never installed on the Cray.
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    let err = line.start_remote("/npss/doubler", "lerc-cray-ymp").unwrap_err();
    assert!(err.to_string().contains("no executable"), "{err}");
    sch.shutdown();
}

#[test]
fn calling_unstarted_procedure_fails() {
    let sch = Schooner::standard().unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    let err = line.call("ghost", &[]).unwrap_err();
    assert!(matches!(err, SchError::UnknownProcedure(_)), "{err}");
    sch.shutdown();
}

#[test]
fn duplicate_name_within_line_rejected_across_lines_allowed() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-sgi-4d480", "lerc-rs6000"])
        .unwrap();

    let mut line1 = sch.open_line("m1", "lerc-sparc10").unwrap();
    line1.start_remote("/npss/doubler", "lerc-sgi-4d480").unwrap();
    // Same name again in the same line: rejected.
    let err = line1.start_remote("/npss/doubler", "lerc-rs6000").unwrap_err();
    assert!(err.to_string().contains("already registered"), "{err}");
    // First instance still works.
    assert_eq!(line1.call("double", &[Value::Float(2.0)]).unwrap(), vec![Value::Float(4.0)]);

    // Another line may use the same procedure name: its own instance.
    let mut line2 = sch.open_line("m2", "lerc-sparc10").unwrap();
    line2.start_remote("/npss/doubler", "lerc-rs6000").unwrap();
    assert_eq!(line2.call("double", &[Value::Float(3.0)]).unwrap(), vec![Value::Float(6.0)]);
    sch.shutdown();
}

#[test]
fn per_line_shutdown_leaves_other_lines_running() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-sgi-4d480", "lerc-rs6000"])
        .unwrap();
    let mut line1 = sch.open_line("m1", "lerc-sparc10").unwrap();
    let mut line2 = sch.open_line("m2", "lerc-sparc10").unwrap();
    line1.start_remote("/npss/doubler", "lerc-sgi-4d480").unwrap();
    line2.start_remote("/npss/doubler", "lerc-rs6000").unwrap();
    line1.call("double", &[Value::Float(1.0)]).unwrap();
    line2.call("double", &[Value::Float(1.0)]).unwrap();

    // Deleting module 1 (sch_i_quit) kills only line 1's procedures.
    line1.quit().unwrap();
    assert!(line1.call("double", &[Value::Float(1.0)]).is_err());
    assert_eq!(line2.call("double", &[Value::Float(5.0)]).unwrap(), vec![Value::Float(10.0)]);
    sch.shutdown();
}

#[test]
fn lines_cannot_call_each_others_procedures() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line1 = sch.open_line("m1", "lerc-sparc10").unwrap();
    line1.start_remote("/npss/doubler", "lerc-sgi-4d480").unwrap();

    let mut line2 = sch.open_line("m2", "lerc-sparc10").unwrap();
    // line2 never started 'double'; the name is not visible to it.
    let err = line2.call("double", &[Value::Float(1.0)]).unwrap_err();
    assert!(matches!(err, SchError::UnknownProcedure(_)), "{err}");
    sch.shutdown();
}

#[test]
fn cray_fortran_names_are_case_synonyms() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-cray-ymp"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    let names = line.start_remote("/npss/doubler", "lerc-cray-ymp").unwrap();
    // The Cray's compiler upper-cased the exported name...
    assert_eq!(names, vec!["DOUBLE".to_owned()]);
    // ...but callers may use either case.
    assert_eq!(line.call("double", &[Value::Float(2.0)]).unwrap(), vec![Value::Float(4.0)]);
    assert_eq!(line.call("DOUBLE", &[Value::Float(4.0)]).unwrap(), vec![Value::Float(8.0)]);
    sch.shutdown();
}

#[test]
fn import_type_check_rejects_mismatch() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/doubler", "lerc-sgi-4d480").unwrap();
    // Wrong type in the import specification: the Manager's bind-time
    // check must reject it.
    line.register_imports(r#"import double prog("x" val double, "y" res float)"#).unwrap();
    let err = line.call("double", &[Value::Double(1.0)]).unwrap_err();
    assert!(err.to_string().contains("differs from export"), "{err}");
    sch.shutdown();
}

#[test]
fn import_subset_is_accepted() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/doubler", "lerc-sgi-4d480").unwrap();
    line.register_imports(r#"import double prog("x" val float, "y" res float)"#).unwrap();
    assert_eq!(line.call("double", &[Value::Float(1.0)]).unwrap(), vec![Value::Float(2.0)]);
    sch.shutdown();
}

#[test]
fn out_of_range_cray_integer_is_an_error() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/echo", echo_int_image(), &["lerc-cray-ymp"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/echo", "lerc-cray-ymp").unwrap();
    // In-range is fine.
    assert_eq!(line.call("echo", &[Value::Integer(123)]).unwrap(), vec![Value::Integer(123)]);
    // A value only the Cray's 64-bit word can hold cannot cross the wire.
    let err = line.call("echo", &[Value::Integer(1 << 40)]).unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
    sch.shutdown();
}

#[test]
fn remote_fault_propagates_with_message() {
    let image = ProgramImage::new("faulty", "export boom prog()")
        .unwrap()
        .with_procedure("boom", || {
            Box::new(FnProcedure::new(|_: &[Value]| Err::<[Value; 0], _>("it broke".into())))
        })
        .unwrap();
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/faulty", image, &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/faulty", "lerc-sgi-4d480").unwrap();
    let err = line.call("boom", &[]).unwrap_err();
    assert!(matches!(&err, SchError::RemoteFault(m) if m == "it broke"), "{err}");
    sch.shutdown();
}

#[test]
fn stateless_migration_keeps_procedure_callable() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-sgi-4d480", "lerc-rs6000"])
        .unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/doubler", "lerc-sgi-4d480").unwrap();
    assert_eq!(line.call("double", &[Value::Float(1.0)]).unwrap(), vec![Value::Float(2.0)]);
    line.move_procedure("double", "lerc-rs6000").unwrap();
    assert_eq!(line.call("double", &[Value::Float(2.0)]).unwrap(), vec![Value::Float(4.0)]);
    sch.shutdown();
}

#[test]
fn stateful_migration_transfers_state_across_architectures() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/accum", accumulator_image(), &["lerc-cray-ymp", "lerc-rs6000"])
        .unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/accum", "lerc-cray-ymp").unwrap();
    line.call("accum", &[Value::Double(1.5)]).unwrap();
    line.call("accum", &[Value::Double(2.5)]).unwrap();

    // Move the running accumulator from the Cray to the RS6000; the
    // `state("total" double)` clause carries the running sum across.
    line.move_procedure("accum", "lerc-rs6000").unwrap();
    let out = line.call("accum", &[Value::Double(4.0)]).unwrap();
    assert_eq!(out, vec![Value::Double(8.0)]);
    sch.shutdown();
}

#[test]
fn shared_procedure_is_visible_to_all_lines_and_stale_caches_recover() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/accum", accumulator_image(), &["lerc-sgi-4d480", "lerc-rs6000"])
        .unwrap();

    let mut owner = sch.open_line("owner", "lerc-sparc10").unwrap();
    owner.start_shared("/npss/accum", "lerc-sgi-4d480").unwrap();

    let mut user1 = sch.open_line("user1", "ua-sparc10").unwrap();
    let mut user2 = sch.open_line("user2", "ua-sgi-4d340").unwrap();
    // Both lines see the shared instance — and share its state.
    assert_eq!(user1.call("accum", &[Value::Double(1.0)]).unwrap(), vec![Value::Double(1.0)]);
    assert_eq!(user2.call("accum", &[Value::Double(2.0)]).unwrap(), vec![Value::Double(3.0)]);

    // Owner moves the shared procedure; user caches are now stale and
    // must recover through the Manager on their next call.
    owner.move_procedure("accum", "lerc-rs6000").unwrap();
    assert_eq!(user1.call("accum", &[Value::Double(4.0)]).unwrap(), vec![Value::Double(7.0)]);
    assert!(user1.stats().stale_retries >= 1, "stale cache path must have run");

    // Per-line shutdown does NOT kill shared procedures.
    user2.quit().unwrap();
    assert_eq!(user1.call("accum", &[Value::Double(1.0)]).unwrap(), vec![Value::Double(8.0)]);
    sch.shutdown();
}

#[test]
fn wan_calls_cost_more_virtual_time_than_lan_calls() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-sgi-4d480", "ua-sgi-4d340"])
        .unwrap();

    // LAN: module at LeRC calls SGI at LeRC.
    let mut lan = sch.open_line("lan", "lerc-sparc10").unwrap();
    lan.start_remote("/npss/doubler", "lerc-sgi-4d480").unwrap();
    let t0 = lan.now();
    for _ in 0..10 {
        lan.call("double", &[Value::Float(1.0)]).unwrap();
    }
    let lan_elapsed = lan.now() - t0;

    // WAN: module at LeRC calls SGI at U. of Arizona.
    let mut wan = sch.open_line("wan", "lerc-sparc10").unwrap();
    wan.start_remote("/npss/doubler", "ua-sgi-4d340").unwrap();
    let t0 = wan.now();
    for _ in 0..10 {
        wan.call("double", &[Value::Float(1.0)]).unwrap();
    }
    let wan_elapsed = wan.now() - t0;

    assert!(wan_elapsed > lan_elapsed * 5.0, "WAN {wan_elapsed}s should dwarf LAN {lan_elapsed}s");
    sch.shutdown();
}

#[test]
fn downed_host_fails_calls_until_it_returns() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/doubler", "lerc-sgi-4d480").unwrap();
    line.call("double", &[Value::Float(1.0)]).unwrap();

    sch.ctx().net.set_host_up("lerc-sgi-4d480", false);
    assert!(line.call("double", &[Value::Float(1.0)]).is_err());

    sch.ctx().net.set_host_up("lerc-sgi-4d480", true);
    assert_eq!(line.call("double", &[Value::Float(3.0)]).unwrap(), vec![Value::Float(6.0)]);
    sch.shutdown();
}

#[test]
fn line_stats_count_traffic() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/npss/doubler", "lerc-sgi-4d480").unwrap();
    for _ in 0..3 {
        line.call("double", &[Value::Float(1.0)]).unwrap();
    }
    let stats = line.stats();
    assert_eq!(stats.calls, 3);
    assert_eq!(stats.manager_lookups, 1, "binding should be cached after the first call");
    assert_eq!(stats.request_bytes, 3 * 5, "three tagged f32s");
    assert_eq!(stats.reply_bytes, 3 * 5);
    assert_eq!(stats.stale_retries, 0);
    sch.shutdown();
}

#[test]
fn trace_records_control_transfer() {
    let sch = Schooner::standard().unwrap();
    sch.ctx().obs.set_enabled(true);
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-cray-ymp"]).unwrap();
    let mut line = sch.open_line("m", "ua-sparc10").unwrap();
    line.start_remote("/npss/doubler", "lerc-cray-ymp").unwrap();
    line.call("double", &[Value::Float(1.0)]).unwrap();
    let rendered = sch.ctx().obs.render();
    assert!(rendered.contains("opened line"), "{rendered}");
    assert!(rendered.contains("started process"), "{rendered}");
    assert!(rendered.contains("call DOUBLE"), "{rendered}");
    assert!(rendered.contains("executed DOUBLE"), "{rendered}");
    sch.shutdown();
}

#[test]
fn manager_is_persistent_across_runs() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/npss/doubler", doubler_image(), &["lerc-sgi-4d480"]).unwrap();
    // Run 1: open, compute, quit.
    let mut line = sch.open_line("run1", "lerc-sparc10").unwrap();
    line.start_remote("/npss/doubler", "lerc-sgi-4d480").unwrap();
    line.call("double", &[Value::Float(1.0)]).unwrap();
    line.quit().unwrap();
    drop(line);
    // Run 2: the same Manager serves a fresh load of the model.
    let mut line = sch.open_line("run2", "lerc-sparc10").unwrap();
    line.start_remote("/npss/doubler", "lerc-sgi-4d480").unwrap();
    assert_eq!(line.call("double", &[Value::Float(7.0)]).unwrap(), vec![Value::Float(14.0)]);
    sch.shutdown();
}

#[test]
fn concurrent_lines_execute_independently() {
    let sch = Schooner::standard().unwrap();
    sch.install_program(
        "/npss/doubler",
        doubler_image(),
        &["lerc-sgi-4d480", "lerc-rs6000", "lerc-convex"],
    )
    .unwrap();
    let hosts = ["lerc-sgi-4d480", "lerc-rs6000", "lerc-convex"];
    std::thread::scope(|s| {
        for (i, host) in hosts.iter().enumerate() {
            let sch = &sch;
            s.spawn(move || {
                let mut line = sch.open_line(&format!("m{i}"), "lerc-sparc10").unwrap();
                line.start_remote("/npss/doubler", host).unwrap();
                for k in 0..20 {
                    let x = (i * 100 + k) as f32;
                    let out = line.call("double", &[Value::Float(x)]).unwrap();
                    assert_eq!(out, vec![Value::Float(2.0 * x)]);
                }
                line.quit().unwrap();
            });
        }
    });
    sch.shutdown();
}

/// Request and reply buffers circulate between a line and its process,
/// but never while anything still reads them. A byte-array value is a
/// zero-copy view of the message that carried it: the caller holds one
/// result across ten further calls on the same line, and the procedure
/// keeps each argument until the next call returns it. Neither is
/// overwritten by a later message.
#[test]
fn zero_copy_byte_arrays_outlive_later_calls_on_their_line() {
    let stamped = |n: u8| Value::Bytes(bytes::Bytes::from(vec![n; 32]));
    let image = ProgramImage::new(
        "swap",
        r#"export swap prog("b" val array[32] of byte, "prev" res array[32] of byte)"#,
    )
    .unwrap()
    .with_procedure("swap", move || {
        let mut kept = stamped(0);
        Box::new(FnProcedure::new(move |args: &[Value]| {
            Ok(vec![std::mem::replace(&mut kept, args[0].clone())])
        }))
    })
    .unwrap();
    let sch = Schooner::standard().unwrap();
    sch.install_program("/t/swap", image, &["lerc-cray-ymp"]).unwrap();
    let mut line = sch.open_line("swapper", "ua-sparc10").unwrap();
    line.start_remote("/t/swap", "lerc-cray-ymp").unwrap();

    let held = line.call("swap", &[stamped(1)]).unwrap();
    assert!(matches!(held[..], [Value::Bytes(_)]), "{held:?}");
    assert_eq!(held, vec![stamped(0)]);
    for n in 2..12 {
        assert_eq!(line.call("swap", &[stamped(n)]).unwrap(), vec![stamped(n - 1)]);
        assert_eq!(held, vec![stamped(0)], "after call {n}");
    }
    line.quit().unwrap();
    sch.shutdown();
}
