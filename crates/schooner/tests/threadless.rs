//! The caller-driven world: the Manager, the Servers and the processes
//! run on the thread of whoever is waiting, host load cannot decide an
//! outcome, quiescence never fakes a loss while several threads drive
//! one world, a real loss is seen at once, and a panicking procedure
//! body retires only its own process.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use netsim::FaultPlan;
use schooner::prelude::*;

const CAL_SPEC: &str = r#"export cal prog("x" val float, "y" res float)"#;

fn cal(args: &[Value]) -> ProcResult<Vec<Value>> {
    match args[0] {
        Value::Float(x) => Ok(vec![Value::Float(x * 1.8 + 32.0)]),
        _ => Err("bad arg".into()),
    }
}

fn converter_image() -> ProgramImage {
    ProgramImage::new("cal", CAL_SPEC)
        .unwrap()
        .with_procedure("cal", || Box::new(FnProcedure::new(cal)))
        .unwrap()
}

/// A running sum with declared state, so checkpoints have work to do.
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

/// (i) A procedure body runs on the thread of the caller awaiting it.
#[test]
fn procedure_body_runs_on_the_callers_thread() {
    let seen: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let log = seen.clone();
    let image = ProgramImage::new("cal", CAL_SPEC)
        .unwrap()
        .with_procedure("cal", move || {
            let log = log.clone();
            Box::new(FnProcedure::new(move |args: &[Value]| {
                log.lock().unwrap().push(std::thread::current().id());
                cal(args)
            }))
        })
        .unwrap();
    let sch = Schooner::standard().unwrap();
    sch.install_program("/x/cal", image, &["lerc-cray-ymp"]).unwrap();
    let mut line = sch.open_line("m", "ua-sparc10").unwrap();
    line.start_remote("/x/cal", "lerc-cray-ymp").unwrap();
    line.call("cal", &[Value::Float(100.0)]).unwrap();
    assert_eq!(*seen.lock().unwrap(), vec![std::thread::current().id()]);

    let sch = Arc::new(sch);
    let other = std::thread::spawn({
        let sch = sch.clone();
        move || {
            let mut line = sch.open_line("n", "ua-sparc10").unwrap();
            line.start_remote("/x/cal", "lerc-cray-ymp").unwrap();
            line.call("cal", &[Value::Float(0.0)]).unwrap();
            std::thread::current().id()
        }
    })
    .join()
    .unwrap();
    assert_eq!(seen.lock().unwrap().last(), Some(&other));
}

/// (ii) Host load cannot decide an outcome: a caller that finds the
/// actor it needs mid-step on another thread, and nothing else to run,
/// waits for its reply instead of declaring it lost.
#[test]
fn a_stalled_foreign_step_is_waited_for_not_declared_lost() {
    let image = ProgramImage::new("cal", CAL_SPEC)
        .unwrap()
        .with_procedure("cal", || {
            Box::new(FnProcedure::new(|args: &[Value]| {
                std::thread::sleep(Duration::from_millis(50));
                cal(args)
            }))
        })
        .unwrap();
    let sch = Schooner::standard().unwrap();
    sch.install_program("/x/cal", image, &["lerc-sgi-4d480"]).unwrap();
    let mut owner = sch.open_line("owner", "ua-sparc10").unwrap();
    owner.start_shared("/x/cal", "lerc-sgi-4d480").unwrap();

    std::thread::scope(|s| {
        for i in 0..4 {
            let sch = &sch;
            s.spawn(move || {
                let mut line = sch.open_line(&format!("caller-{i}"), "ua-sparc10").unwrap();
                for k in 0..3 {
                    let x = (10 * i + k) as f32;
                    let out = line.call("cal", &[Value::Float(x)]).unwrap();
                    assert_eq!(out, vec![Value::Float(x * 1.8 + 32.0)]);
                }
                line.quit().unwrap();
            });
        }
    });
    sch.shutdown();
}

/// (iii) No false loss under actor churn: callers, process starts,
/// migrations, line shutdowns and checkpoints drive one world from nine
/// threads, and nobody ever sees a quiescent world that is not.
#[test]
fn concurrent_drivers_never_see_a_false_loss() {
    let sch = Schooner::standard().unwrap();
    sch.install_program("/x/accum", accumulator_image(), &["lerc-cray-ymp"]).unwrap();
    sch.install_program("/x/cal", converter_image(), &["lerc-sgi-4d480", "lerc-convex"]).unwrap();
    let mut owner = sch.open_line("owner", "lerc-sparc10").unwrap();
    owner.start_shared("/x/accum", "lerc-cray-ymp").unwrap();

    std::thread::scope(|s| {
        for i in 0..5 {
            let sch = &sch;
            s.spawn(move || {
                let mut line = sch.open_line(&format!("caller-{i}"), "ua-sparc10").unwrap();
                for _ in 0..200 {
                    line.call("accum", &[Value::Double(1.0)]).unwrap();
                }
                line.quit().unwrap();
            });
        }
        for i in 0..3 {
            let sch = &sch;
            s.spawn(move || {
                for k in 0..30 {
                    let mut line =
                        sch.open_line(&format!("churn-{i}-{k}"), "ua-sgi-4d340").unwrap();
                    line.start_remote("/x/cal", "lerc-sgi-4d480").unwrap();
                    line.move_procedure("cal", "lerc-convex").unwrap();
                    let out = line.call("cal", &[Value::Float(k as f32)]).unwrap();
                    assert_eq!(out, vec![Value::Float(k as f32 * 1.8 + 32.0)]);
                    line.quit().unwrap();
                }
            });
        }
        s.spawn(|| {
            for _ in 0..100 {
                assert!(owner.checkpoint("accum").unwrap() > 0);
            }
        });
    });
    let total = owner.call("accum", &[Value::Double(0.0)]).unwrap();
    assert_eq!(total, vec![Value::Double(1000.0)]);
    sch.shutdown();
}

/// One run of the lost-reply scenario: the request is delivered, the
/// reply is sent into a partition. Returns everything a replay must
/// reproduce.
fn lost_reply_run() -> (String, u64, u64, String) {
    let sch = Schooner::standard().unwrap();
    sch.ctx().obs.set_enabled(true);
    sch.install_program("/x/cal", converter_image(), &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("m", "ua-sparc10").unwrap();
    line.start_remote("/x/cal", "lerc-sgi-4d480").unwrap();
    line.call("cal", &[Value::Float(-1.0)]).unwrap();
    // One round trip on the warm binding.
    let t0 = line.now();
    line.call("cal", &[Value::Float(0.0)]).unwrap();
    let t1 = line.now();

    // The cut opens a quarter of a round trip after the request leaves
    // and heals 2.5 virtual seconds later: the request crosses, the
    // reply cannot.
    let cut = t1 + (t1 - t0) / 4.0;
    sch.ctx().net.set_fault_plan(Some(FaultPlan::new(7).partition(
        &["ua-sparc10"],
        &["lerc-sgi-4d480"],
        cut,
        cut + 2.5,
    )));
    let err = line.call("cal", &[Value::Float(1.0)]).unwrap_err();
    assert!(matches!(err, SchError::ManagerUnavailable), "{err}");
    let after_loss = line.now();
    assert!(after_loss < cut, "the loss itself costs no virtual time");

    // The same loss under an idempotent policy is retried across the
    // heal point, in virtual time only.
    let policy = CallPolicy::new().idempotent(true).retries(5).backoff(1.0, 2.0, 8.0);
    let out = line.call_with("cal", &[Value::Float(2.0)], &policy).unwrap();
    assert_eq!(out, vec![Value::Float(2.0 * 1.8 + 32.0)]);
    assert!(line.stats().policy_retries >= 1);
    assert!(line.now() >= cut + 2.5);
    let transcript = sch.ctx().obs.render();
    let now = line.now();
    sch.ctx().net.set_fault_plan(None);
    line.quit().unwrap();
    sch.shutdown();
    (err.to_string(), after_loss.to_bits(), now.to_bits(), transcript)
}

/// (iv) Loss is immediate and deterministic: a reply killed by a fault
/// window yields the typed error at once, and the same transcript and
/// virtual timestamps on every run.
#[test]
fn a_lost_reply_is_seen_at_once_with_the_same_transcript() {
    let started = Instant::now();
    let first = lost_reply_run();
    let second = lost_reply_run();
    assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());
    assert_eq!(first, second);
}

/// A procedure body that panics retires only its own process: the
/// in-flight caller gets the loss it used to get after the timeout, and
/// the next call goes through supervision to a fresh instance.
#[test]
fn a_panicking_procedure_retires_only_its_process() {
    let image = ProgramImage::new("cal", CAL_SPEC)
        .unwrap()
        .with_procedure("cal", || {
            let calls = AtomicU32::new(0);
            Box::new(FnProcedure::new(move |args: &[Value]| {
                assert!(calls.fetch_add(1, Ordering::Relaxed) == 0, "second call panics");
                cal(args)
            }))
        })
        .unwrap();
    let sch = Schooner::standard().unwrap();
    sch.ctx().obs.set_enabled(true);
    sch.install_program("/x/cal", image, &["lerc-sgi-4d480"]).unwrap();
    sch.install_program("/x/ok", converter_image(), &["lerc-convex"]).unwrap();
    let mut line = sch.open_line("m", "ua-sparc10").unwrap();
    line.start_remote("/x/cal", "lerc-sgi-4d480").unwrap();
    let mut bystander = sch.open_line("b", "ua-sparc10").unwrap();
    bystander.start_remote("/x/ok", "lerc-convex").unwrap();

    line.call("cal", &[Value::Float(1.0)]).unwrap();
    let err = line.call("cal", &[Value::Float(2.0)]).unwrap_err();
    assert!(matches!(err, SchError::ManagerUnavailable), "{err}");

    // The rest of the world is untouched.
    let out = bystander.call("cal", &[Value::Float(3.0)]).unwrap();
    assert_eq!(out, vec![Value::Float(3.0 * 1.8 + 32.0)]);

    // The stale binding is reported, probed, declared dead, respawned.
    let out = line.call("cal", &[Value::Float(4.0)]).unwrap();
    assert_eq!(out, vec![Value::Float(4.0 * 1.8 + 32.0)]);
    assert_eq!(line.stats().stale_retries, 1);
    let rendered = sch.ctx().obs.render();
    assert!(rendered.contains("respawned '/x/cal' on lerc-sgi-4d480"), "{rendered}");
    sch.shutdown();
}
