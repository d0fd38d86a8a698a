//! Credit-based flow-control invariants under seeded adversity.
//!
//! Three properties must hold for the link credit protocol to be safe:
//! the sender never holds more credit than the receiver granted, every
//! reserved credit is eventually returned (no leak means no permanent
//! deadlock — a stalled sender always has a future instant at which the
//! window reopens), and when a sender *does* exhaust its patience the
//! failure is a typed [`NetError::CreditStall`] raised at the same
//! message ordinal on every run.

use bytes::Bytes;
use netsim::{npss_testbed, BatchConfig, CreditConfig, FaultPlan, LinkConfig, NetError, Network};
use testkit::SplitMix64 as Gen;

/// A random-length payload of constant fill: credit accounting cares
/// about sizes, never contents.
fn payload(g: &mut Gen, max_len: usize) -> Bytes {
    let len = 1 + g.index(max_len);
    Bytes::from(vec![0xAB; len])
}

const SRC: &str = "ua-sparc10:flood";
const DST: &str = "lerc-rs6000:duct";
const FROM_HOST: &str = "ua-sparc10";
const TO_HOST: &str = "lerc-rs6000";

fn tight_config(window_bytes: u64, window_msgs: u32, max_stall_s: f64) -> LinkConfig {
    LinkConfig {
        batch: BatchConfig { max_frame_bytes: 1024, max_frame_msgs: 8, linger_s: 1e9 },
        credit: Some(CreditConfig { window_bytes, window_msgs, max_stall_s }),
    }
}

/// Outstanding credit never exceeds the granted window at any
/// observation instant, across a seeded mix of sends, flushes, and time
/// advances.
#[test]
fn outstanding_credit_never_exceeds_window() {
    for seed in [1u64, 42, 963] {
        let window = CreditConfig { window_bytes: 2048, window_msgs: 6, max_stall_s: 60.0 };
        let net = Network::new(npss_testbed());
        net.set_link_config(Some(LinkConfig {
            batch: BatchConfig { max_frame_bytes: 700, max_frame_msgs: 4, linger_s: 1e9 },
            credit: Some(window),
        }));
        net.register(SRC).unwrap();
        let _dst = net.register(DST).unwrap();

        let mut g = Gen::new(seed);
        let mut t = 0.0;
        for i in 0..150u64 {
            match g.index(10) {
                0 => {
                    net.flush_all(t);
                }
                1 => t += g.index(2000) as f64 * 1e-4,
                _ => {
                    let payload = payload(&mut g, 400);
                    let rep = net.send_batched(SRC, DST, payload, t, (0, i)).unwrap();
                    t += rep.stalled_s;
                }
            }
            let (bytes, msgs) = net.credit_outstanding(FROM_HOST, TO_HOST, t);
            assert!(
                bytes <= window.window_bytes && msgs <= window.window_msgs,
                "seed {seed} op {i}: outstanding ({bytes} B, {msgs} msgs) exceeds window",
            );
        }
    }
}

/// Every credit comes back: after the flood stops and frames drain, the
/// outstanding window returns to zero — even when drops, a partition
/// window, and a host flap failed some of the deliveries along the way.
/// Failed messages release their credits immediately, so faults can
/// never wedge the window shut.
#[test]
fn credits_always_eventually_return() {
    for seed in [7u64, 1993] {
        let net = Network::new(npss_testbed());
        net.set_link_config(Some(tight_config(4096, 16, 120.0)));
        net.set_fault_plan(Some(
            FaultPlan::new(seed)
                .drop_between(FROM_HOST, TO_HOST, 0.25)
                .partition(&[FROM_HOST], &[TO_HOST], 2.0, 2.5)
                .host_flap(TO_HOST, 4.0, 4.3),
        ));
        net.register(SRC).unwrap();
        let _dst = net.register(DST).unwrap();

        let mut g = Gen::new(seed);
        let mut t = 0.0;
        let mut delivered = 0u32;
        let mut failed = 0u32;
        for i in 0..120u64 {
            let payload = payload(&mut g, 300);
            match net.send_batched(SRC, DST, payload, t, (0, i)) {
                Ok(rep) => {
                    t += rep.stalled_s;
                    delivered += 1;
                }
                Err(_) => failed += 1,
            }
            if i % 10 == 9 {
                failed += net.flush_all(t).iter().filter(|r| r.result.is_err()).count() as u32;
                t += 0.05;
            }
        }
        net.flush_all(t);
        assert!(delivered > 0 && failed > 0, "seed {seed}: fault mix is vacuous");
        // Beyond the last possible ack return time the window is empty.
        let (bytes, msgs) = net.credit_outstanding(FROM_HOST, TO_HOST, t + 3600.0);
        assert_eq!((bytes, msgs), (0, 0), "seed {seed}: credits leaked");
    }
}

/// A sender that outruns a small window stalls in virtual time and then
/// completes — `SendReport::stalled_s` carries the wait, the stall
/// counters record it, and no send fails while the stall budget lasts.
#[test]
fn exhausted_window_stalls_then_recovers() {
    let net = Network::new(npss_testbed());
    net.set_link_config(Some(tight_config(600, 4, 600.0)));
    net.register(SRC).unwrap();
    let _dst = net.register(DST).unwrap();

    let mut t = 0.0;
    let mut stalled = 0u32;
    for i in 0..40u64 {
        let rep = net.send_batched(SRC, DST, Bytes::from(vec![7u8; 200]), t, (0, i)).unwrap();
        if rep.stalled_s > 0.0 {
            stalled += 1;
            t += rep.stalled_s;
        }
    }
    net.flush_all(t);
    assert!(stalled > 0, "window was never exhausted — test is vacuous");
    let link = format!("{FROM_HOST}->{TO_HOST}");
    assert_eq!(net.metrics().counter(&format!("net.credit.stalls.{link}")), stalled as u64);
    assert!(net.metrics().counter(&format!("net.credit.stall_us.{link}")) > 0);
    assert_eq!(net.metrics().counter(&format!("net.msg.{link}")), 40);
}

/// With no stall budget, exhaustion fails fast with a typed
/// `CreditStall` naming the link and the wait that was refused — and
/// the failing message ordinal is identical on every run.
#[test]
fn refused_stall_is_typed_and_deterministic() {
    let run = || {
        let net = Network::new(npss_testbed());
        net.set_link_config(Some(tight_config(600, 4, 0.0)));
        net.register(SRC).unwrap();
        let _dst = net.register(DST).unwrap();
        for i in 0..40u64 {
            match net.send_batched(SRC, DST, Bytes::from(vec![7u8; 200]), 0.0, (0, i)) {
                Ok(_) => {}
                Err(e) => return Some((i, e)),
            }
        }
        None
    };
    let first = run().expect("zero stall budget never refused a send");
    let (ordinal, err) = &first;
    match err {
        NetError::CreditStall { from, to, wait_us } => {
            assert_eq!(from, FROM_HOST);
            assert_eq!(to, TO_HOST);
            assert!(*wait_us > 0);
        }
        other => panic!("expected CreditStall, got {other:?}"),
    }
    // 600-byte window, 200-byte messages: the fourth send (ordinal 3)
    // is the first that cannot fit.
    assert_eq!(*ordinal, 3);
    assert_eq!(run().as_ref(), Some(&first), "refusal ordinal varies across runs");
}

/// A crash of the receiving host fails the in-flight frame but releases
/// its credits: the sender is never left waiting on acks from a dead
/// host, and once the host restarts the window is fully open again.
#[test]
fn receiver_crash_does_not_wedge_the_window() {
    let net = Network::new(npss_testbed());
    net.set_link_config(Some(tight_config(2048, 8, 60.0)));
    net.set_fault_plan(Some(FaultPlan::new(5).host_crash(TO_HOST, 1.0).host_restart(TO_HOST, 2.0)));
    net.register(SRC).unwrap();
    let _dst = net.register(DST).unwrap();

    // Buffer a few messages before the crash, flush during it: the
    // whole frame fails with HostDown.
    for i in 0..3u64 {
        net.send_batched(SRC, DST, Bytes::from(vec![1u8; 100]), 0.5, (0, i)).unwrap();
    }
    let reports = net.flush_all(1.5);
    let failures: Vec<_> = reports.iter().collect();
    assert_eq!(failures.len(), 3);
    assert!(
        failures.iter().all(|r| matches!(r.result, Err(NetError::HostDown(_)))),
        "crash window did not fail the frame: {failures:?}",
    );
    // Credits released immediately — not held until a phantom ack.
    assert_eq!(net.credit_outstanding(FROM_HOST, TO_HOST, 1.5), (0, 0));

    // After restart the link carries a full window again. The crashed
    // endpoint is fenced (its process died), so re-register.
    net.unregister(DST);
    let _dst = net.register(DST).unwrap();
    for i in 0..8u64 {
        let rep = net.send_batched(SRC, DST, Bytes::from(vec![2u8; 100]), 3.0, (1, i)).unwrap();
        assert_eq!(rep.stalled_s, 0.0);
    }
    net.flush_all(3.0);
    let (bytes, msgs) = net.credit_outstanding(FROM_HOST, TO_HOST, 3600.0);
    assert_eq!((bytes, msgs), (0, 0));
}
