//! Differential flood tests: the coalesced link path must be
//! message-equivalent to the plain per-envelope path.
//!
//! Two identical testbeds run the same seeded traffic — one through
//! `Network::send`, one through `Network::send_batched` — across a grid
//! of flush-threshold settings. The receiver-side envelope sequences
//! must agree on every logical property (source, destination, payload
//! bytes, send instant), the logical-message counters must agree
//! exactly, and when frames flush at their members' send instants the
//! arrival times must be *bit-identical*: coalescing changes link
//! occupancy, never what was said or when it was said.

use bytes::Bytes;
use netsim::link::{decode_frame, FrameBuilder};
use netsim::{
    npss_testbed, BatchConfig, CreditConfig, Envelope, FaultPlan, FrameError, LinkConfig, NetError,
    Network,
};
use testkit::SplitMix64 as Gen;

/// A random 1..=`max_len`-byte payload.
fn payload(g: &mut Gen, max_len: usize) -> Bytes {
    let len = 1 + g.index(max_len);
    Bytes::from((0..len).map(|_| g.next_u64() as u8).collect::<Vec<u8>>())
}

const SRC: &str = "ua-sparc10:flood";
const DST: &str = "lerc-rs6000:duct";
const DST2: &str = "lerc-cray-ymp:burner";

/// The flush-threshold grid every differential sweep runs over,
/// including the degenerate corners: `max_frame_msgs: 1` must behave
/// exactly like the unbatched path, and a huge frame must hold a whole
/// wave.
fn threshold_grid() -> Vec<LinkConfig> {
    let mut grid = Vec::new();
    for &max_frame_bytes in &[1u64, 512, 4096, u64::MAX] {
        for &max_frame_msgs in &[1u32, 3, 32] {
            for &linger_s in &[0.0, 2e-3, 1e9] {
                grid.push(LinkConfig {
                    batch: BatchConfig { max_frame_bytes, max_frame_msgs, linger_s },
                    credit: None,
                });
            }
        }
    }
    grid
}

fn drain(ep: &netsim::Endpoint) -> Vec<Envelope> {
    let mut out = Vec::new();
    while let Some(env) = ep.try_recv() {
        out.push(env);
    }
    out
}

fn assert_envelopes_equal(plain: &[Envelope], batched: &[Envelope], check_arrivals: bool) {
    assert_eq!(plain.len(), batched.len(), "delivered message counts diverged");
    for (i, (p, b)) in plain.iter().zip(batched).enumerate() {
        assert_eq!(p.from, b.from, "msg {i}: from diverged");
        assert_eq!(p.to, b.to, "msg {i}: to diverged");
        assert_eq!(p.payload, b.payload, "msg {i}: payload bytes diverged");
        assert_eq!(p.sent_at.to_bits(), b.sent_at.to_bits(), "msg {i}: sent_at diverged");
        if check_arrivals {
            assert_eq!(p.arrive_at.to_bits(), b.arrive_at.to_bits(), "msg {i}: arrival diverged");
        } else {
            // A frame never flushes before its members were sent, so a
            // coalesced message can arrive later, never earlier.
            assert!(p.arrive_at <= b.arrive_at + 1e-12, "msg {i}: batched arrived early");
        }
    }
}

/// Wave-shaped floods (every message in a wave shares one send instant,
/// flushed at that instant) deliver bit-identical envelope sequences —
/// arrivals included — under every flush-threshold setting, and the
/// logical-message counters agree exactly.
#[test]
fn wave_floods_are_bit_identical_across_threshold_grid() {
    for (ci, cfg) in threshold_grid().into_iter().enumerate() {
        for seed in [11u64, 5280] {
            let plain_net = Network::new(npss_testbed());
            let batch_net = Network::new(npss_testbed());
            batch_net.set_link_config(Some(cfg));
            let src_p = plain_net.register(SRC).unwrap();
            let dst_p = plain_net.register(DST).unwrap();
            let dst2_p = plain_net.register(DST2).unwrap();
            let src_b = batch_net.register(SRC).unwrap();
            let dst_b = batch_net.register(DST).unwrap();
            let dst2_b = batch_net.register(DST2).unwrap();
            let _ = (&src_p, &src_b);

            let mut gp = Gen::new(seed);
            let mut gb = Gen::new(seed);
            let mut t = 0.0;
            for wave in 0..12 {
                let width = 1 + wave % 5;
                for i in 0..width {
                    // Interleave two destination hosts so the batched
                    // run keeps more than one frame open at once.
                    let to = if i % 2 == 0 { DST } else { DST2 };
                    let body = payload(&mut gp, 600);
                    assert_eq!(body, payload(&mut gb, 600));
                    plain_net.send(SRC, to, body.clone(), t).unwrap();
                    batch_net.send_batched(SRC, to, body, t, (0, i as u64)).unwrap();
                }
                batch_net.flush_all(t);
                t += 0.25;
            }

            assert_envelopes_equal(&drain(&dst_p), &drain(&dst_b), true);
            assert_envelopes_equal(&drain(&dst2_p), &drain(&dst2_b), true);
            let excl = &["net.batch.", "net.credit."];
            assert_eq!(
                plain_net.metrics().snapshot_json_excluding(excl),
                batch_net.metrics().snapshot_json_excluding(excl),
                "config {ci}: logical counters diverged",
            );
        }
    }
}

/// Staggered send instants: payload sequence and send stamps still match
/// exactly; arrivals may only move later (a frame flushes no earlier
/// than its newest member's send instant).
#[test]
fn staggered_floods_preserve_message_sequence() {
    for cfg in threshold_grid() {
        let plain_net = Network::new(npss_testbed());
        let batch_net = Network::new(npss_testbed());
        batch_net.set_link_config(Some(cfg));
        plain_net.register(SRC).unwrap();
        batch_net.register(SRC).unwrap();
        let dst_p = plain_net.register(DST).unwrap();
        let dst_b = batch_net.register(DST).unwrap();

        let mut gp = Gen::new(977);
        let mut gb = Gen::new(977);
        let mut t = 0.0;
        for i in 0..120u64 {
            t += gp.index(1000) as f64 * 1e-6;
            let _ = gb.index(1000);
            let body = payload(&mut gp, 300);
            assert_eq!(body, payload(&mut gb, 300));
            plain_net.send(SRC, DST, body.clone(), t).unwrap();
            batch_net.send_batched(SRC, DST, body, t, (0, i)).unwrap();
        }
        batch_net.flush_all(t);
        assert_envelopes_equal(&drain(&dst_p), &drain(&dst_b), false);
    }
}

/// `max_frame_msgs: 1` is the identity configuration: every message
/// flushes alone at its own send instant, so even staggered traffic is
/// bit-identical to the unbatched path, arrivals included.
#[test]
fn single_message_frames_match_unbatched_exactly() {
    let cfg = LinkConfig {
        batch: BatchConfig { max_frame_bytes: u64::MAX, max_frame_msgs: 1, linger_s: 1e9 },
        credit: None,
    };
    let plain_net = Network::new(npss_testbed());
    let batch_net = Network::new(npss_testbed());
    batch_net.set_link_config(Some(cfg));
    plain_net.register(SRC).unwrap();
    batch_net.register(SRC).unwrap();
    let dst_p = plain_net.register(DST).unwrap();
    let dst_b = batch_net.register(DST).unwrap();

    let mut g = Gen::new(404);
    let mut t = 0.0;
    for i in 0..80u64 {
        t += g.index(5000) as f64 * 1e-6;
        let payload = payload(&mut g, 256);
        plain_net.send(SRC, DST, payload.clone(), t).unwrap();
        batch_net.send_batched(SRC, DST, payload, t, (0, i)).unwrap();
    }
    // Nothing should be buffered: each append flushed its own frame.
    assert_eq!(batch_net.pending_batched("ua-sparc10", "lerc-rs6000"), 0);
    assert_envelopes_equal(&drain(&dst_p), &drain(&dst_b), true);
}

/// A seeded drop plan fails the same logical messages in both paths:
/// drop ordinals are consumed per message at append time, so the
/// per-message Ok/Err sequence is identical however the survivors are
/// framed.
#[test]
fn seeded_drop_plans_fail_identical_message_ordinals() {
    for seed in [3u64, 77, 901] {
        let cfg = LinkConfig {
            batch: BatchConfig { max_frame_bytes: 4096, max_frame_msgs: 8, linger_s: 1e9 },
            credit: None,
        };
        let plain_net = Network::new(npss_testbed());
        let batch_net = Network::new(npss_testbed());
        batch_net.set_link_config(Some(cfg));
        plain_net.set_fault_plan(Some(FaultPlan::new(seed).drop_between(
            "ua-sparc10",
            "lerc-rs6000",
            0.3,
        )));
        batch_net.set_fault_plan(Some(FaultPlan::new(seed).drop_between(
            "ua-sparc10",
            "lerc-rs6000",
            0.3,
        )));
        plain_net.register(SRC).unwrap();
        batch_net.register(SRC).unwrap();
        let dst_p = plain_net.register(DST).unwrap();
        let dst_b = batch_net.register(DST).unwrap();

        let mut g = Gen::new(seed ^ 0xF10D);
        let mut outcomes_p = Vec::new();
        let mut outcomes_b = Vec::new();
        let mut t = 0.0;
        for i in 0..100u64 {
            let payload = payload(&mut g, 128);
            outcomes_p.push(plain_net.send(SRC, DST, payload.clone(), t).map(|_| ()).err());
            outcomes_b.push(batch_net.send_batched(SRC, DST, payload, t, (0, i)).map(|_| ()).err());
            if i % 8 == 7 {
                batch_net.flush_all(t);
                t += 0.1;
            }
        }
        batch_net.flush_all(t);
        assert_eq!(outcomes_p, outcomes_b, "seed {seed}: drop ordinals diverged");
        assert!(
            outcomes_p.iter().any(|o| matches!(o, Some(NetError::Dropped { .. }))),
            "seed {seed}: plan never fired — test is vacuous",
        );
        assert_envelopes_equal(&drain(&dst_p), &drain(&dst_b), true);
    }
}

/// A link whose frames never flush by threshold, metered by the default
/// credit window: every flush in the tests below is an explicit one.
fn credited_unbounded() -> LinkConfig {
    LinkConfig {
        batch: BatchConfig { linger_s: 1e9, ..BatchConfig::default() },
        credit: Some(CreditConfig::default()),
    }
}

/// A flush outcome, comparable bit for bit.
fn outcome(r: &netsim::FlushRecord) -> ((u64, u64), u64, Result<u64, NetError>) {
    (r.tag, r.sent_at.to_bits(), r.result.clone().map(f64::to_bits))
}

/// A window fault that opens between a lone (held) message's append and
/// its flush fails it exactly as it fails the same message inside a
/// two-record frame: the same typed error, the same `net.fault.*`
/// counts, and its credit released at once.
#[test]
fn a_window_fault_fails_a_held_message_as_it_fails_a_framed_one() {
    let plans: [fn() -> FaultPlan; 2] = [
        || FaultPlan::new(1).partition(&["ua-sparc10"], &["lerc-rs6000"], 1.0, 2.0),
        || FaultPlan::new(1).host_flap("lerc-rs6000", 1.0, 2.0),
    ];
    let msgs = [(b"solve duct".as_slice(), (0, 0)), (b"solve duct again".as_slice(), (0, 1))];
    for plan in plans {
        let net = || {
            let net = Network::new(npss_testbed());
            net.set_link_config(Some(credited_unbounded()));
            net.set_fault_plan(Some(plan()));
            net.register(SRC).unwrap();
            (net.register(DST).unwrap(), net)
        };
        // Held: each message flushes alone, into the open window.
        let (_dst_h, held) = net();
        let mut held_out = Vec::new();
        for (body, tag) in msgs {
            held.send_batched(SRC, DST, Bytes::from_static(body), 0.5, tag).unwrap();
            assert_eq!(held.pending_batched("ua-sparc10", "lerc-rs6000"), 1);
            held_out.extend(held.flush_all(1.5));
            assert_eq!(held.credit_outstanding("ua-sparc10", "lerc-rs6000", 1.5), (0, 0));
        }
        // Framed: both messages leave in one frame.
        let (_dst_f, framed) = net();
        for (body, tag) in msgs {
            framed.send_batched(SRC, DST, Bytes::from_static(body), 0.5, tag).unwrap();
        }
        let framed_out = framed.flush_all(1.5);
        assert_eq!(framed.credit_outstanding("ua-sparc10", "lerc-rs6000", 1.5), (0, 0));

        let held_out: Vec<_> = held_out.iter().map(outcome).collect();
        assert_eq!(held_out, framed_out.iter().map(outcome).collect::<Vec<_>>());
        assert!(held_out.iter().all(|(_, _, r)| r.is_err()), "the fault never fired: {held_out:?}");
        let excl = &["net.batch."];
        assert_eq!(
            held.metrics().snapshot_json_excluding(excl),
            framed.metrics().snapshot_json_excluding(excl)
        );
        assert_eq!(held.metrics().counter("net.batch.flushes.ua-sparc10->lerc-rs6000"), 2);
        assert_eq!(framed.metrics().counter("net.batch.flushes.ua-sparc10->lerc-rs6000"), 1);
    }
}

/// With credits on, a fill-1 flush delivers its message at the plain
/// path's arrival instant and returns its credit at the bit-identical
/// instant a two-record frame does when that message arrives last.
#[test]
fn a_held_flush_returns_its_credit_when_a_framed_flush_does() {
    let (late, early) = (Bytes::from(vec![7u8; 300]), Bytes::from_static(b"ack"));
    let net = || {
        let net = Network::new(npss_testbed());
        net.set_link_config(Some(credited_unbounded()));
        net.register(SRC).unwrap();
        (net.register(DST).unwrap(), net)
    };
    let (_dst_h, held) = net();
    held.send_batched(SRC, DST, late.clone(), 0.5, (0, 0)).unwrap();
    let held_out = held.flush_all(0.5);
    let (_dst_f, framed) = net();
    framed.send_batched(SRC, DST, late.clone(), 0.5, (0, 0)).unwrap();
    framed.send_batched(SRC, DST, early, 0.5, (0, 1)).unwrap();
    let framed_out = framed.flush_all(0.5);
    let plain = Network::new(npss_testbed());
    let _dst_p = plain.register(DST).unwrap();
    let plain_arrival = plain.send(SRC, DST, late, 0.5).unwrap();

    let arrival = *held_out[0].result.as_ref().unwrap();
    assert_eq!(arrival.to_bits(), plain_arrival.to_bits());
    assert_eq!(outcome(&held_out[0]), outcome(&framed_out[0]));
    let early_arrival = *framed_out[1].result.as_ref().unwrap();
    assert!(early_arrival < arrival, "the framed probe must not arrive last");

    let returned = arrival + held.transfer_seconds("lerc-rs6000", "ua-sparc10", 0).unwrap();
    let just_before = f64::from_bits(returned.to_bits() - 1);
    for (net, outstanding) in [(&held, (300, 1)), (&framed, (303, 2))] {
        assert_eq!(net.credit_outstanding("ua-sparc10", "lerc-rs6000", just_before), outstanding);
        assert_eq!(net.credit_outstanding("ua-sparc10", "lerc-rs6000", returned), (0, 0));
    }
}

/// The same seeded batched flood, run twice, is byte-identical in its
/// full metrics snapshot — batching counters included.
#[test]
fn batched_flood_replays_byte_identically() {
    let run = || {
        let net = Network::new(npss_testbed());
        net.set_link_config(Some(LinkConfig {
            batch: BatchConfig::default(),
            credit: Some(CreditConfig::default()),
        }));
        net.register(SRC).unwrap();
        let dst = net.register(DST).unwrap();
        let mut g = Gen::new(2024);
        let mut t = 0.0;
        for i in 0..200u64 {
            let payload = payload(&mut g, 200);
            net.send_batched(SRC, DST, payload, t, (0, i)).unwrap();
            if i % 16 == 15 {
                net.flush_all(t);
                t += 0.05;
            }
        }
        net.flush_all(t);
        let envs: Vec<(std::sync::Arc<str>, u64, u64)> = drain(&dst)
            .into_iter()
            .map(|e| (e.from, e.sent_at.to_bits(), e.arrive_at.to_bits()))
            .collect();
        (net.metrics().snapshot_json(), envs)
    };
    assert_eq!(run(), run());
}

/// Frame-codec rejection: truncation, corruption, split reads, bad
/// magic, and record-count lies are all detected — a damaged frame
/// never decodes to a plausible-but-wrong message sequence.
#[test]
fn damaged_frames_are_rejected() {
    let mut b = FrameBuilder::new();
    b.push(SRC, DST, 0.5, b"solve duct");
    b.push(SRC, DST2, 0.5, b"solve burner");
    let wire = b.finish();
    assert_eq!(decode_frame(&wire).unwrap().len(), 2);

    // Truncation anywhere — header, mid-record, last byte — is caught.
    for cut in [0, 1, 7, 14, 15, wire.len() / 2, wire.len() - 1] {
        let err = decode_frame(&wire.slice(..cut)).unwrap_err();
        assert!(
            matches!(err, FrameError::Truncated { .. } | FrameError::CrcMismatch { .. }),
            "cut at {cut} gave {err:?}",
        );
    }

    // Any single corrupted body byte trips the checksum.
    for i in 15..wire.len() {
        let mut bad = wire.to_vec();
        bad[i] ^= 0x40;
        assert!(
            matches!(decode_frame(&Bytes::from(bad)).unwrap_err(), FrameError::CrcMismatch { .. }),
            "corrupt byte {i} not caught",
        );
    }

    // Two frames glued together (a split-frame read) leave trailing
    // bytes past the declared body — rejected, not silently merged.
    let mut glued = wire.to_vec();
    glued.extend_from_slice(&wire);
    assert!(matches!(decode_frame(&Bytes::from(glued)).unwrap_err(), FrameError::TrailingBytes(_)));

    // Wrong magic and wrong version are rejected before any parsing.
    let mut bad = wire.to_vec();
    bad[0] = b'X';
    assert!(matches!(decode_frame(&Bytes::from(bad)).unwrap_err(), FrameError::BadMagic(_)));
    let mut bad = wire.to_vec();
    bad[2] = 99;
    assert!(matches!(decode_frame(&Bytes::from(bad)).unwrap_err(), FrameError::BadVersion(99)));

    // A lying record count (with a recomputed CRC so only the count is
    // wrong) is still caught.
    let mut bad = wire.to_vec();
    bad[3..7].copy_from_slice(&9u32.to_be_bytes());
    let crc = {
        let mut c = FrameBuilder::new();
        c.push(SRC, DST, 0.5, b"solve duct");
        c.push(SRC, DST2, 0.5, b"solve burner");
        let _ = c;
        // CRC covers the body only; the header edit above does not
        // change it, so reuse the original header CRC bytes.
        u32::from_be_bytes(wire[11..15].try_into().unwrap())
    };
    bad[11..15].copy_from_slice(&crc.to_be_bytes());
    assert!(matches!(
        decode_frame(&Bytes::from(bad)).unwrap_err(),
        FrameError::CountMismatch { declared: 9, parsed: 2 }
    ));
}
