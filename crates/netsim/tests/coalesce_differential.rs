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
