//! Binary codec for [`EventKind`] journal records.
//!
//! The ledger stores obs events as opaque payloads; this module is the
//! schema, one table of the form the control-plane `Msg` uses. Every
//! variant encodes as `[u8 tag][fields]`: big-endian integers, IEEE-754
//! bit patterns for floats (exact round trip, no formatting), and
//! `u32`-length-prefixed UTF-8 strings. The codec is **field-exact**:
//! `decode_event(encode_event(e)) == e` for every variant, so a journal
//! replay renders the same legacy `Display` transcript the live run
//! produced.
//!
//! Unknown tags and truncated payloads decode to an error string — the
//! caller (CLI `replay`, tests) decides whether that is fatal; the
//! ledger layer has already CRC-validated the frame, so an undecodable
//! payload means a version skew, not bit rot.

use super::event::EventKind;
use crate::codec::{self, Field};

// Tag 29 was the free-form `Note` event of the retired `Trace` facade.
// It stays reserved: a journal holding one decodes to the unknown-tag
// error instead of being misread as whatever reuses the number.
codec::tagged! {
    EventKind from [u8], "event";
    1 RemoteStarted { line, path, machine, addr }
    2 CallIssued { line, proc, addr }
    3 ReplyReceived { line, proc, addr }
    4 CallRetry { line, attempt, name, backoff_s, cause }
    5 FailoverMove { line, name, target, cause }
    6 FailoverFailed { line, target, cause }
    7 ReplyFenced { line, incarnation, binding }
    8 Degraded { line, module, cause }
    9 LineOpened { line, module }
    10 ExportsRegistered { count, path, addr, line }
    11 Mapped { name, line, addr }
    12 ProbeEndpointGone { addr }
    13 HeartbeatAnswered { addr }
    14 HeartbeatMiss { n, threshold, addr }
    15 DeathVerdict { addr, incarnation }
    16 FailureEscalated { name }
    17 RespawnFailed { path, host, cause }
    18 CheckpointRestored { path, taken_at }
    19 Respawned { path, host, incarnation, addr }
    20 Checkpointed { name, bytes, at }
    21 LineShutdown { line, module }
    22 Moved { name, old, new }
    23 ManagerShutdown {}
    24 ProcessSpawned { host, addr, path, line }
    25 Computed { addr, proc, flops, compute_s }
    26 ProcessShutdown { addr }
    27 Barrier { step, t }
    28 Rollback { step, cause, t, recovery, max }
}

/// Encode one event, appended to `out` — what
/// [`Obs::emit`](super::Obs::emit) hands the journal, encoding straight
/// into its buffer.
pub fn encode_event_into(out: &mut Vec<u8>, e: &EventKind) {
    e.put(out);
}

/// Encode one event for the journal, as the payload of a
/// [`ledger::RecordKind::Event`].
pub fn encode_event(e: &EventKind) -> ledger::Blob {
    let mut out = Vec::with_capacity(32);
    encode_event_into(&mut out, e);
    out.into()
}

/// Decode one journaled event payload.
pub fn decode_event(bytes: &[u8]) -> Result<EventKind, String> {
    codec::decode(bytes)
}

#[cfg(test)]
mod tests {
    use ledger::codec::put_str;

    use super::*;

    /// One populated sample of **every** variant. Built through an
    /// exhaustive match so adding a variant without extending this list
    /// (and the codec) fails to compile rather than silently passing.
    fn one_of_each() -> Vec<EventKind> {
        use EventKind::*;
        let all = vec![
            RemoteStarted {
                line: 3,
                path: "/npss/modules/duct".into(),
                machine: "lerc-cray-ymp".into(),
                addr: "lerc-cray-ymp:proc-7".into(),
            },
            CallIssued { line: 1, proc: "DUCT".into(), addr: "h:proc-2".into() },
            ReplyReceived { line: 1, proc: "DUCT".into(), addr: "h:proc-2".into() },
            CallRetry {
                line: 2,
                attempt: 3,
                name: "duct".into(),
                backoff_s: Some(0.25),
                cause: "host 'x' is down".into(),
            },
            CallRetry {
                line: 2,
                attempt: 1,
                name: "duct".into(),
                backoff_s: None,
                cause: "timeout".into(),
            },
            FailoverMove {
                line: 2,
                name: "duct".into(),
                target: "lerc-rs6000".into(),
                cause: "down".into(),
            },
            FailoverFailed { line: 2, target: "lerc-rs6000".into(), cause: "also down".into() },
            ReplyFenced { line: 2, incarnation: 1, binding: 2 },
            Degraded { line: 2, module: "duct".into(), cause: "exhausted".into() },
            LineOpened { line: 4, module: "demo".into() },
            ExportsRegistered { count: 2, path: "/p".into(), addr: "h:proc-1".into(), line: None },
            ExportsRegistered {
                count: 1,
                path: "/p".into(),
                addr: "h:proc-1".into(),
                line: Some(5),
            },
            Mapped { name: "duct".into(), line: 4, addr: "h:proc-1".into() },
            ProbeEndpointGone { addr: "h:proc-1".into() },
            HeartbeatAnswered { addr: "h:proc-1".into() },
            HeartbeatMiss { n: 1, threshold: 2, addr: "h:proc-1".into() },
            DeathVerdict { addr: "h:proc-1".into(), incarnation: 1 },
            FailureEscalated { name: "duct".into() },
            RespawnFailed { path: "/p".into(), host: "h".into(), cause: "refused".into() },
            CheckpointRestored { path: "/npss/accum".into(), taken_at: 1.5 },
            Respawned {
                path: "/p".into(),
                host: "h".into(),
                incarnation: 2,
                addr: "h:proc-9".into(),
            },
            Checkpointed { name: "accum".into(), bytes: 17, at: 1.5 },
            LineShutdown { line: 4, module: "demo".into() },
            Moved { name: "duct".into(), old: "a:proc-1".into(), new: "b:proc-2".into() },
            ManagerShutdown,
            ProcessSpawned {
                host: "lerc-cray-ymp".into(),
                addr: "lerc-cray-ymp:proc-7".into(),
                path: "/demo/doubler".into(),
                line: 1,
            },
            Computed {
                addr: "h:proc-7".into(),
                proc: "DOUBLE".into(),
                flops: 100.0,
                compute_s: 0.5,
            },
            ProcessShutdown { addr: "h:proc-7".into() },
            Barrier { step: 10, t: 0.2 },
            Rollback { step: 11, cause: "boom".into(), t: 0.2, recovery: 1, max: 2 },
        ];
        // Compile-time exhaustiveness: touching every variant here means
        // a new variant breaks this match until the codec handles it.
        for e in &all {
            match e {
                RemoteStarted { .. }
                | CallIssued { .. }
                | ReplyReceived { .. }
                | CallRetry { .. }
                | FailoverMove { .. }
                | FailoverFailed { .. }
                | ReplyFenced { .. }
                | Degraded { .. }
                | LineOpened { .. }
                | ExportsRegistered { .. }
                | Mapped { .. }
                | ProbeEndpointGone { .. }
                | HeartbeatAnswered { .. }
                | HeartbeatMiss { .. }
                | DeathVerdict { .. }
                | FailureEscalated { .. }
                | RespawnFailed { .. }
                | CheckpointRestored { .. }
                | Respawned { .. }
                | Checkpointed { .. }
                | LineShutdown { .. }
                | Moved { .. }
                | ManagerShutdown
                | ProcessSpawned { .. }
                | Computed { .. }
                | ProcessShutdown { .. }
                | Barrier { .. }
                | Rollback { .. } => {}
            }
        }
        all
    }

    #[test]
    fn every_variant_round_trips_field_exact() {
        for e in one_of_each() {
            let encoded = encode_event(&e);
            let decoded = decode_event(&encoded)
                .unwrap_or_else(|err| panic!("decode of {e:?} failed: {err}"));
            assert_eq!(decoded, e);
        }
    }

    /// The encoding itself, not just its round trip.
    #[test]
    fn every_variant_encodes_to_pinned_bytes() {
        let bytes: Vec<u8> = one_of_each().iter().flat_map(|e| encode_event(e).to_vec()).collect();
        assert_eq!((bytes.len(), ledger::frame::crc32(&bytes)), (857, 0xCF5C_FA93));
    }

    #[test]
    fn round_trip_preserves_legacy_display_and_who() {
        for e in one_of_each() {
            let decoded = decode_event(&encode_event(&e)).unwrap();
            assert_eq!(decoded.to_string(), e.to_string());
            assert_eq!(decoded.who(), e.who());
        }
    }

    #[test]
    fn truncation_and_unknown_tags_are_errors() {
        for e in one_of_each() {
            let encoded = encode_event(&e);
            for cut in 0..encoded.len() {
                assert!(
                    decode_event(&encoded[..cut]).is_err(),
                    "truncated {e:?} at {cut} must not decode"
                );
            }
        }
        assert!(decode_event(&[0xFE]).is_err());
        // A `Note` as the retired facade wrote it: tag 29, two strings.
        let mut note = vec![29];
        put_str(&mut note, "x");
        put_str(&mut note, "anything at all");
        assert_eq!(decode_event(&note).unwrap_err(), "unknown event tag 29");
        assert!(decode_event(&[]).is_err());
    }

    /// Every single-bit flip of every variant decodes to an error or to
    /// an event that encodes back to exactly the flipped bytes — never a
    /// panic.
    #[test]
    fn bit_flips_are_errors_or_round_trip() {
        for e in one_of_each() {
            let encoded = encode_event(&e);
            for bit in 0..encoded.len() * 8 {
                let mut flipped = encoded.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Ok(decoded) = decode_event(&flipped) {
                    assert_eq!(*encode_event(&decoded), flipped, "{e:?} bit {bit}");
                }
            }
        }
    }

    /// Encoding straight into the journal's buffer writes exactly the
    /// file a materialized payload does, for every variant.
    #[test]
    fn append_event_writes_what_append_of_the_payload_writes() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let (in_place, materialized) =
            (dir.join(format!("codec-in-place-{pid}")), dir.join(format!("codec-payload-{pid}")));
        let a = ledger::Journal::create(&in_place).unwrap();
        let b = ledger::Journal::create(&materialized).unwrap();
        for (i, e) in one_of_each().iter().enumerate() {
            let t = 0.125 * i as f64;
            let seq = a.append_event(t, |buf| encode_event_into(buf, e)).unwrap();
            let payload = encode_event(e);
            assert_eq!(b.append(t, ledger::RecordKind::Event { payload }).unwrap(), seq);
        }
        a.commit().unwrap();
        b.commit().unwrap();
        let (a_bytes, b_bytes) =
            (std::fs::read(&in_place).unwrap(), std::fs::read(&materialized).unwrap());
        assert_eq!(ledger::replay(&in_place).unwrap().records.len(), one_of_each().len());
        assert_eq!(a_bytes, b_bytes);
        std::fs::remove_file(&in_place).ok();
        std::fs::remove_file(&materialized).ok();
    }

    #[test]
    fn trailing_bytes_are_errors() {
        let mut encoded = encode_event(&EventKind::ManagerShutdown).to_vec();
        encoded.push(0);
        assert!(decode_event(&encoded).is_err());
    }
}
