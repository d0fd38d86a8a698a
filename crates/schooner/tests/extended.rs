//! Extended runtime coverage: the full UTS type palette through real
//! calls, var parameters, protocol robustness, and stress.

use bytes::Bytes;
use schooner::{FnProcedure, ProgramImage, Schooner};
use uts::Value;

/// An image exercising records, strings, arrays, and a `var` parameter:
/// `annotate` receives a record and a var counter; it returns a summary
/// string and the incremented counter.
fn kitchen_sink_image() -> ProgramImage {
    ProgramImage::new(
        "kitchen-sink",
        r#"
export annotate prog(
    "sample"  val record ("name" string, "values" array[3] of double, "valid" boolean) end,
    "count"   var integer,
    "summary" res string)
"#,
    )
    .unwrap()
    .with_procedure("annotate", || {
        Box::new(FnProcedure::new(|args: &[Value]| {
            let (name, values, valid) = match &args[0] {
                Value::Record(fields) => {
                    let name = match &fields[0].1 {
                        Value::String(s) => s.clone(),
                        _ => return Err("name".into()),
                    };
                    let values = fields[1].1.as_doubles().ok_or("values")?.into_owned();
                    let valid = match fields[2].1 {
                        Value::Boolean(b) => b,
                        _ => return Err("valid".into()),
                    };
                    (name, values, valid)
                }
                _ => return Err("sample must be a record".into()),
            };
            let count = args[1].as_i64().ok_or("count")?;
            let sum: f64 = values.iter().sum();
            Ok(vec![
                Value::Integer(count + 1),
                Value::String(format!("{name}: sum {sum:.2}, valid {valid}")),
            ])
        }))
    })
    .unwrap()
}

#[test]
fn records_strings_and_var_parameters_cross_architectures() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/x/sink", kitchen_sink_image(), &["lerc-cray-ymp"]).unwrap();
    let mut line = sch.open_line("m", "ua-sparc10").unwrap();
    line.start_remote("/x/sink", "lerc-cray-ymp").unwrap();

    let sample = Value::Record(vec![
        ("name".into(), Value::String("probe-7".into())),
        ("values".into(), Value::doubles(&[1.5, 2.25, -0.75])),
        ("valid".into(), Value::Boolean(true)),
    ]);
    // Outputs come back in spec order: the var `count` first, then the
    // res `summary`.
    let out = line.call("annotate", &[sample, Value::Integer(41)]).unwrap();
    assert_eq!(out[0], Value::Integer(42));
    assert_eq!(out[1], Value::String("probe-7: sum 3.00, valid true".into()));
    sch.shutdown();
}

#[test]
fn start_on_unknown_host_reports_cleanly() {
    let sch = Schooner::standard().unwrap();
    sch.ctx().registry.register("/x/sink", kitchen_sink_image()).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    let err = line.start_remote("/x/sink", "no-such-machine").unwrap_err();
    assert!(
        err.to_string().contains("no-such-machine") || err.to_string().contains("unavailable"),
        "{err}"
    );
    // The line is still usable afterwards.
    sch.install_program("/x/sink2", kitchen_sink_image(), &["lerc-rs6000"]).unwrap();
    line.start_remote("/x/sink2", "lerc-rs6000").unwrap();
    sch.shutdown();
}

#[test]
fn garbage_to_manager_is_ignored() {
    let sch = Schooner::standard().unwrap();
    let manager = sch.manager_address();
    // Fire raw garbage at the Manager; it must keep serving.
    sch.ctx()
        .net
        .send("lerc-sparc10:attacker", &manager, Bytes::from_static(&[0xFF, 1, 2, 3]), 0.0)
        .unwrap();
    sch.install_program("/x/sink", kitchen_sink_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/x/sink", "lerc-sgi-4d480").unwrap();
    sch.shutdown();
}

#[test]
fn move_errors_are_described() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/x/sink", kitchen_sink_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    // Moving an unknown procedure.
    let err = line.move_procedure("ghost", "lerc-rs6000").unwrap_err();
    assert!(err.to_string().contains("ghost") || err.to_string().contains("no procedure"), "{err}");
    // Moving a real procedure to a host where the image is not installed.
    line.start_remote("/x/sink", "lerc-sgi-4d480").unwrap();
    let err = line.move_procedure("annotate", "lerc-rs6000").unwrap_err();
    assert!(err.to_string().contains("no executable"), "{err}");
    // The original process still serves calls after the failed move.
    let sample = Value::Record(vec![
        ("name".into(), Value::String("x".into())),
        ("values".into(), Value::doubles(&[0.0, 0.0, 0.0])),
        ("valid".into(), Value::Boolean(false)),
    ]);
    line.call("annotate", &[sample, Value::Integer(0)]).unwrap();
    sch.shutdown();
}

#[test]
fn repeated_migration_under_active_callers() {
    let sch = Schooner::standard().unwrap();
    let hosts = ["lerc-sgi-4d480", "lerc-rs6000", "lerc-convex"];
    let echo = ProgramImage::new("echo", r#"export echo prog("x" val double, "y" res double)"#)
        .unwrap()
        .with_procedure("echo", || {
            Box::new(FnProcedure::new(|args: &[Value]| Ok(vec![args[0].clone()])))
        })
        .unwrap();
    sch.install_program("/x/echo", echo, &hosts).unwrap();

    let mut owner = sch.open_line("owner", "lerc-sparc10").unwrap();
    owner.start_shared("/x/echo", hosts[0]).unwrap();
    let mut user = sch.open_line("user", "ua-sparc10").unwrap();

    for round in 0..12 {
        let target = hosts[round % hosts.len()];
        owner.move_procedure("echo", target).unwrap();
        let out = user.call("echo", &[Value::Double(round as f64)]).unwrap();
        assert_eq!(out, vec![Value::Double(round as f64)], "round {round}");
    }
    assert!(user.stats().stale_retries >= 10, "{:?}", user.stats());
    sch.shutdown();
}

#[test]
fn many_lines_stress() {
    let sch = Schooner::standard().unwrap();
    let echo = ProgramImage::new("echo", r#"export echo prog("x" val double, "y" res double)"#)
        .unwrap()
        .with_procedure("echo", || {
            Box::new(FnProcedure::new(|args: &[Value]| Ok(vec![args[0].clone()])))
        })
        .unwrap();
    sch.install_program("/x/echo", echo, &["lerc-sgi-4d480", "lerc-rs6000"]).unwrap();

    let mut lines = Vec::new();
    for i in 0..24 {
        let host = if i % 2 == 0 { "lerc-sgi-4d480" } else { "lerc-rs6000" };
        let mut l = sch.open_line(&format!("m{i}"), "lerc-sparc10").unwrap();
        l.start_remote("/x/echo", host).unwrap();
        lines.push(l);
    }
    for (i, l) in lines.iter_mut().enumerate() {
        let out = l.call("echo", &[Value::Double(i as f64)]).unwrap();
        assert_eq!(out, vec![Value::Double(i as f64)]);
    }
    // Quit every other line; the rest must keep working.
    for (i, l) in lines.iter_mut().enumerate() {
        if i % 2 == 0 {
            l.quit().unwrap();
        }
    }
    for (i, l) in lines.iter_mut().enumerate() {
        if i % 2 == 1 {
            l.call("echo", &[Value::Double(1.0)]).unwrap();
        }
    }
    sch.shutdown();
}

/// The world's (messages, bytes) so far: the sums of its `net.msg.*`
/// and `net.bytes.*` counters, read from its metrics snapshot.
fn traffic(sch: &Schooner) -> (u64, u64) {
    let json = sch.ctx().obs.metrics().snapshot_json();
    let sum = |prefix: &str| -> u64 {
        json.lines()
            .filter_map(|l| l.trim().strip_prefix(prefix)?.rsplit_once(": "))
            .map(|(_, v)| v.trim_end_matches(',').parse::<u64>().unwrap())
            .sum()
    };
    (sum("\"net.msg."), sum("\"net.bytes."))
}

#[test]
fn wire_traffic_volume_is_accounted() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/x/sink", kitchen_sink_image(), &["lerc-sgi-4d480"]).unwrap();
    let (m0, b0) = traffic(&sch);
    let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
    line.start_remote("/x/sink", "lerc-sgi-4d480").unwrap();
    let sample = Value::Record(vec![
        ("name".into(), Value::String("t".into())),
        ("values".into(), Value::doubles(&[1.0, 2.0, 3.0])),
        ("valid".into(), Value::Boolean(true)),
    ]);
    line.call("annotate", &[sample, Value::Integer(0)]).unwrap();
    let (m1, b1) = traffic(&sch);
    // Startup protocol (open, start request/reply via server) + map +
    // call round trip: at least 8 messages and a few hundred bytes.
    assert!(m1 - m0 >= 8, "messages {}", m1 - m0);
    assert!(b1 - b0 > 200, "bytes {}", b1 - b0);
    sch.shutdown();
}
