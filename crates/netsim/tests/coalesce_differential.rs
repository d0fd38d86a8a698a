//! Differential flood tests: the coalesced link path must be
//! message-equivalent to the plain per-envelope path.
//!
//! Two identical testbeds run the same seeded traffic — one through
//! `Network::send`, one through `Network::send_batched` — across a grid
//! of explicit flush cadences and send gaps. The receiver-side envelope
//! sequences must agree on every logical property (source, destination,
//! payload bytes, send instant), the logical-message counters must
//! agree exactly, and when frames flush at their members' send instants
//! the arrival times must be *bit-identical*: coalescing changes link
//! occupancy, never what was said or when it was said.

use bytes::Bytes;
use netsim::link::{decode_frame, FrameBuilder};
use netsim::{npss_testbed, Envelope, FaultPlan, FrameError, LinkConfig, NetError, Network};
use testkit::SplitMix64 as Gen;

/// A random 1..=`max_len`-byte payload.
fn payload(g: &mut Gen, max_len: usize) -> Bytes {
    let len = 1 + g.index(max_len);
    Bytes::from((0..len).map(|_| g.next_u64() as u8).collect::<Vec<u8>>())
}

const SRC: &str = "ua-sparc10:flood";
const DST: &str = "lerc-rs6000:duct";
const DST2: &str = "lerc-cray-ymp:burner";

/// Explicit flush cadences the differential sweeps run over: a link is
/// flushed after every `n` appends to it, or (`None`) only at the end.
/// Every append is flushed alone (held fill-1 flushes), frames of a few
/// records, frames the size and count thresholds close, and whatever
/// the thresholds alone make of the traffic.
const CADENCES: [Option<usize>; 4] = [Some(1), Some(3), Some(32), None];

/// Send gaps in virtual seconds: one instant for everything, and gaps
/// below and past the linger age, so linger flushes take a frame at
/// its second and at its first member.
const GAPS: [f64; 3] = [0.0, 1e-3, 3e-3];

/// Two testbeds with `SRC`, `DST` and `DST2` registered, the second
/// batched: `(plain, batched, [dst, dst2] of plain, [dst, dst2] of
/// batched)`.
fn twin_nets() -> (Network, Network, [netsim::Endpoint; 4]) {
    let plain = Network::new(npss_testbed());
    let batched = Network::new(npss_testbed());
    batched.set_link_config(Some(LinkConfig));
    plain.register(SRC).unwrap();
    batched.register(SRC).unwrap();
    let eps = [
        plain.register(DST).unwrap(),
        plain.register(DST2).unwrap(),
        batched.register(DST).unwrap(),
        batched.register(DST2).unwrap(),
    ];
    (plain, batched, eps)
}

/// Append `body` toward `to` on the batched net and, when `cadence`
/// says so, flush that link: `appended` counts the link's appends.
fn append_with_cadence(
    net: &Network,
    to: &str,
    body: Bytes,
    t: f64,
    tag: u64,
    cadence: Option<usize>,
    appended: &mut usize,
) {
    assert_eq!(net.send_batched(SRC, to, body, t, (0, tag)), Ok(None));
    *appended += 1;
    if cadence.is_some_and(|n| appended.is_multiple_of(n)) {
        net.flush_link(&mut net.route(SRC, to), t, &mut Vec::new());
    }
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
/// and the wave's frames leave at that instant) deliver bit-identical
/// envelope sequences — arrivals included — under every flush cadence
/// and gap between waves, and the logical-message counters agree
/// exactly. Waves are wide enough for the size and count thresholds to
/// close frames inside them.
#[test]
fn wave_floods_are_bit_identical_across_cadences_and_gaps() {
    for cadence in CADENCES {
        for gap in GAPS {
            for seed in [11u64, 5280] {
                let (plain_net, batch_net, [dst_p, dst2_p, dst_b, dst2_b]) = twin_nets();
                let mut g = Gen::new(seed);
                let mut appended = [0usize; 2];
                let mut t = 0.0;
                for wave in 0..12 {
                    let width = 1 + (wave * 13) % 70;
                    // Small payloads on odd waves, so the count threshold
                    // closes frames before the size threshold does.
                    let max_len = if wave % 2 == 0 { 600 } else { 64 };
                    for i in 0..width as u64 {
                        // Interleave two destination hosts so the batched
                        // run keeps more than one frame open at once.
                        let (to, link) = if i % 2 == 0 { (DST, 0) } else { (DST2, 1) };
                        let body = payload(&mut g, max_len);
                        plain_net.send(SRC, to, body.clone(), t).unwrap();
                        let appended = &mut appended[link];
                        append_with_cadence(&batch_net, to, body, t, i, cadence, appended);
                    }
                    batch_net.flush_all(t);
                    t += gap;
                }

                assert_envelopes_equal(&drain(&dst_p), &drain(&dst_b), true);
                assert_envelopes_equal(&drain(&dst2_p), &drain(&dst2_b), true);
                let excl = &["net.batch."];
                assert_eq!(
                    plain_net.metrics().snapshot_json_excluding(excl),
                    batch_net.metrics().snapshot_json_excluding(excl),
                    "cadence {cadence:?}, gap {gap}, seed {seed}: logical counters diverged",
                );
            }
        }
    }
}

/// Staggered send instants: payload sequence and send stamps still match
/// exactly; arrivals may only move later (a frame flushes no earlier
/// than its newest member's send instant, and a linger flush leaves at
/// the instant of the append that found it). When every message is
/// flushed alone or all share one instant, arrivals match bit for bit.
#[test]
fn staggered_floods_preserve_message_sequence() {
    for cadence in CADENCES {
        for gap in GAPS {
            let (plain_net, batch_net, [dst_p, _, dst_b, _]) = twin_nets();
            let mut g = Gen::new(977);
            let mut appended = 0;
            let mut t = 0.0;
            for i in 0..120u64 {
                let body = payload(&mut g, 300);
                plain_net.send(SRC, DST, body.clone(), t).unwrap();
                append_with_cadence(&batch_net, DST, body, t, i, cadence, &mut appended);
                t += gap;
            }
            batch_net.flush_all(t);
            let exact = cadence == Some(1) || gap == 0.0;
            assert_envelopes_equal(&drain(&dst_p), &drain(&dst_b), exact);
        }
    }
}

/// Flushing after every append is the identity cadence: every message
/// leaves alone at its own send instant, so even staggered traffic is
/// bit-identical to the unbatched path, arrivals included.
#[test]
fn single_message_frames_match_unbatched_exactly() {
    let (plain_net, batch_net, [dst_p, _, dst_b, _]) = twin_nets();
    let mut g = Gen::new(404);
    let mut t = 0.0;
    for i in 0..80u64 {
        t += g.index(5000) as f64 * 1e-6;
        let payload = payload(&mut g, 256);
        plain_net.send(SRC, DST, payload.clone(), t).unwrap();
        batch_net.send_batched(SRC, DST, payload, t, (0, i)).unwrap();
        let mut flushed = Vec::new();
        batch_net.flush_link(&mut batch_net.route(SRC, DST), t, &mut flushed);
        assert_eq!(flushed.len(), 1, "message {i} did not leave alone");
    }
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
        let plain_net = Network::new(npss_testbed());
        let batch_net = Network::new(npss_testbed());
        batch_net.set_link_config(Some(LinkConfig));
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

/// A flush outcome, comparable bit for bit.
fn outcome(r: &netsim::FlushRecord) -> ((u64, u64), u64, Result<u64, NetError>) {
    (r.tag, r.sent_at.to_bits(), r.result.clone().map(f64::to_bits))
}

/// A window fault that opens between a lone (held) message's append and
/// its flush fails it exactly as it fails the same message inside a
/// two-record frame: the same typed error and the same `net.fault.*`
/// counts.
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
            net.set_link_config(Some(LinkConfig));
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
        }
        // Framed: both messages leave in one frame.
        let (_dst_f, framed) = net();
        for (body, tag) in msgs {
            framed.send_batched(SRC, DST, Bytes::from_static(body), 0.5, tag).unwrap();
        }
        let framed_out = framed.flush_all(1.5);

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

/// The same seeded batched flood, run twice, is byte-identical in its
/// full metrics snapshot — batching counters included.
#[test]
fn batched_flood_replays_byte_identically() {
    let run = || {
        let net = Network::new(npss_testbed());
        net.set_link_config(Some(LinkConfig));
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
