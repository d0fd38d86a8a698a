//! Ledger records: what the journal holds, and their binary bodies.
//!
//! A frame body is:
//!
//! ```text
//! [u64 BE seq] [u64 BE t-bits] [u8 tag] [tag-specific fields]
//! ```
//!
//! where `t-bits` is the virtual timestamp as IEEE-754 bits (exact
//! round trip, no formatting). Variable-length fields are
//! length-prefixed (`u32 BE`); `f64` sequences are stored as bit
//! patterns so replayed numerics are bit-identical to the live run.
//!
//! The ledger does not interpret [`RecordKind::Event`] payloads or
//! checkpoint `state` blobs — those are produced (and decoded) by the
//! subsystems that own them. Everything else is self-describing.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::blob::Blob;
use crate::codec::{put_bytes, put_f64, put_f64s, put_str, put_u64, Reader};
use crate::error::LedgerError;

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Strictly increasing id, starting at 1, no gaps.
    pub seq: u64,
    /// Virtual timestamp assigned at append (monotone non-decreasing).
    pub t: f64,
    /// The payload.
    pub kind: RecordKind,
}

/// Discriminates record kinds without carrying their payloads —
/// [`Repository::counts_by_tag`](crate::Repository::counts_by_tag)
/// counts by these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordTag {
    /// An observability event ([`RecordKind::Event`]).
    Event,
    /// A checkpoint blob write ([`RecordKind::Checkpoint`]).
    Checkpoint,
    /// A retention eviction ([`RecordKind::CheckpointEvicted`]).
    CheckpointEvicted,
    /// A supervision verdict ([`RecordKind::Verdict`]).
    Verdict,
    /// A metrics registry snapshot ([`RecordKind::MetricsSnapshot`]).
    MetricsSnapshot,
    /// A transient checkpoint barrier ([`RecordKind::Barrier`]).
    Barrier,
    /// A transient sample ([`RecordKind::Sample`]).
    Sample,
    /// A transient rollback ([`RecordKind::Rollback`]).
    Rollback,
    /// Free-form annotation ([`RecordKind::Note`]).
    Note,
}

/// The payload of one record.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordKind {
    /// An observability event, pre-encoded by its producer (the obs
    /// layer's own codec); opaque to the ledger.
    Event {
        /// The encoded event; after [`replay`](crate::replay), a view
        /// into the one buffer the journal file was read into.
        payload: Blob,
    },
    /// A `CheckpointStore` write: the Manager captured a remote
    /// process's `state(...)` variables.
    Checkpoint {
        /// Line that owns the process.
        line: u64,
        /// Program path of the checkpointed executable.
        path: String,
        /// Incarnation of the process the state came from.
        incarnation: u64,
        /// Virtual time the snapshot was taken.
        taken_at: f64,
        /// Architecture-neutral (UTS wire v2) state blob.
        state: Vec<u8>,
    },
    /// Retention evicted the oldest checkpoint for a key; replaying
    /// these alongside `Checkpoint` records reproduces the live
    /// store's retained set exactly.
    CheckpointEvicted {
        /// Line of the evicted snapshot.
        line: u64,
        /// Program path of the evicted snapshot.
        path: String,
        /// `taken_at` of the evicted snapshot (identifies it uniquely
        /// within its key, since snapshot times strictly increase).
        taken_at: f64,
    },
    /// A supervision verdict over a process.
    Verdict {
        /// The process address ("host:pid" rendering).
        addr: String,
        /// Its incarnation.
        incarnation: u64,
        /// What supervision decided ("dead", "escalated", …).
        verdict: String,
    },
    /// A deterministic `MetricsRegistry` snapshot (the same JSON the
    /// live registry renders).
    MetricsSnapshot {
        /// `snapshot_json()` output at this sequence point.
        json: String,
    },
    /// A transient checkpoint barrier: the executive's resume state.
    Barrier {
        /// Solver step the barrier sits at.
        step: u64,
        /// Engine time at the barrier.
        t_engine: f64,
        /// Samples accumulated so far (resume truncates to this).
        samples_len: u64,
        /// Engine resume state: `[n1, n2, inner0..inner4]`.
        state: Vec<f64>,
    },
    /// One accepted transient sample `[t, n1, n2, wf, thrust, t4, w2]`.
    Sample {
        /// The sample row, bit-exact.
        values: Vec<f64>,
    },
    /// The transient rolled back to its latest barrier.
    Rollback {
        /// The step that failed.
        step: u64,
        /// Engine time rolled back to.
        t_engine: f64,
        /// Sample count after truncation.
        samples_len: u64,
    },
    /// Free-form annotation.
    Note {
        /// The text.
        text: String,
    },
}

impl RecordKind {
    /// This payload's tag.
    pub fn tag(&self) -> RecordTag {
        match self {
            RecordKind::Event { .. } => RecordTag::Event,
            RecordKind::Checkpoint { .. } => RecordTag::Checkpoint,
            RecordKind::CheckpointEvicted { .. } => RecordTag::CheckpointEvicted,
            RecordKind::Verdict { .. } => RecordTag::Verdict,
            RecordKind::MetricsSnapshot { .. } => RecordTag::MetricsSnapshot,
            RecordKind::Barrier { .. } => RecordTag::Barrier,
            RecordKind::Sample { .. } => RecordTag::Sample,
            RecordKind::Rollback { .. } => RecordTag::Rollback,
            RecordKind::Note { .. } => RecordTag::Note,
        }
    }
}

/// A borrowed view of one checkpoint record, as returned by the
/// repository's checkpoint queries.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRec<'a> {
    /// Sequence id of the journal record.
    pub seq: u64,
    /// Line that owns the process.
    pub line: u64,
    /// Program path.
    pub path: &'a str,
    /// Incarnation the state came from.
    pub incarnation: u64,
    /// Virtual time the snapshot was taken.
    pub taken_at: f64,
    /// The state blob.
    pub state: &'a [u8],
}

const TAG_EVENT: u8 = 1;
const TAG_CHECKPOINT: u8 = 2;
const TAG_CHECKPOINT_EVICTED: u8 = 3;
const TAG_VERDICT: u8 = 4;
const TAG_METRICS_SNAPSHOT: u8 = 5;
const TAG_BARRIER: u8 = 6;
const TAG_SAMPLE: u8 = 7;
const TAG_ROLLBACK: u8 = 8;
const TAG_NOTE: u8 = 9;

/// Encode one record as a frame body, appended to `out`.
pub fn encode_body_into(out: &mut Vec<u8>, rec: &Record) {
    put_u64(out, rec.seq);
    put_f64(out, rec.t);
    match &rec.kind {
        RecordKind::Event { payload } => put_event(out, |out| out.extend_from_slice(payload)),
        RecordKind::Checkpoint { line, path, incarnation, taken_at, state } => {
            out.push(TAG_CHECKPOINT);
            put_u64(out, *line);
            put_str(out, path);
            put_u64(out, *incarnation);
            put_f64(out, *taken_at);
            put_bytes(out, state);
        }
        RecordKind::CheckpointEvicted { line, path, taken_at } => {
            out.push(TAG_CHECKPOINT_EVICTED);
            put_u64(out, *line);
            put_str(out, path);
            put_f64(out, *taken_at);
        }
        RecordKind::Verdict { addr, incarnation, verdict } => {
            out.push(TAG_VERDICT);
            put_str(out, addr);
            put_u64(out, *incarnation);
            put_str(out, verdict);
        }
        RecordKind::MetricsSnapshot { json } => {
            out.push(TAG_METRICS_SNAPSHOT);
            put_str(out, json);
        }
        RecordKind::Barrier { step, t_engine, samples_len, state } => {
            out.push(TAG_BARRIER);
            put_u64(out, *step);
            put_f64(out, *t_engine);
            put_u64(out, *samples_len);
            put_f64s(out, state);
        }
        RecordKind::Sample { values } => {
            out.push(TAG_SAMPLE);
            put_f64s(out, values);
        }
        RecordKind::Rollback { step, t_engine, samples_len } => {
            out.push(TAG_ROLLBACK);
            put_u64(out, *step);
            put_f64(out, *t_engine);
            put_u64(out, *samples_len);
        }
        RecordKind::Note { text } => {
            out.push(TAG_NOTE);
            put_str(out, text);
        }
    }
}

/// Encode the body of an [`RecordKind::Event`] record whose `payload`
/// encodes straight into `out` — the same bytes [`encode_body_into`]
/// writes for the materialized payload.
pub(crate) fn encode_event_body_into(
    out: &mut Vec<u8>,
    seq: u64,
    t: f64,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    put_u64(out, seq);
    put_f64(out, t);
    put_event(out, payload);
}

/// The event tag and length-prefixed payload, the length patched in
/// after `payload` has written.
fn put_event(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    out.push(TAG_EVENT);
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    payload(out);
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_be_bytes());
}

/// Decode one frame body back into a record. `frame_offset` is the
/// byte position of the frame in the file, for error reporting. An
/// event's payload is a view into `body`'s buffer, so it copies and
/// allocates nothing.
pub fn decode_body(body: &Blob, frame_offset: u64) -> Result<Record, LedgerError> {
    let mut r = Reader::new(body);
    let mut tag = None;
    let mut fields = || -> Result<Record, String> {
        let (seq, t) = (r.u64()?, r.f64()?);
        let kind = decode_kind(*tag.insert(r.u8()?), &mut r, body)?;
        r.finish()?;
        Ok(Record { seq, t, kind })
    };
    fields().map_err(|why| LedgerError::Corrupt {
        offset: frame_offset,
        reason: match tag {
            Some(tag) => format!("record with tag {tag}: {why}"),
            None => format!("record header: {why}"),
        },
    })
}

/// The fields that follow `tag`; an event's payload is a view into
/// `body`, the buffer `r` reads.
fn decode_kind(tag: u8, r: &mut Reader, body: &Blob) -> Result<RecordKind, String> {
    Ok(match tag {
        TAG_EVENT => RecordKind::Event { payload: body.slice(r.bytes()?.1) },
        TAG_CHECKPOINT => RecordKind::Checkpoint {
            line: r.u64()?,
            path: r.str()?.to_owned(),
            incarnation: r.u64()?,
            taken_at: r.f64()?,
            state: r.bytes()?.0.to_vec(),
        },
        TAG_CHECKPOINT_EVICTED => RecordKind::CheckpointEvicted {
            line: r.u64()?,
            path: r.str()?.to_owned(),
            taken_at: r.f64()?,
        },
        TAG_VERDICT => RecordKind::Verdict {
            addr: r.str()?.to_owned(),
            incarnation: r.u64()?,
            verdict: r.str()?.to_owned(),
        },
        TAG_METRICS_SNAPSHOT => RecordKind::MetricsSnapshot { json: r.str()?.to_owned() },
        TAG_BARRIER => RecordKind::Barrier {
            step: r.u64()?,
            t_engine: r.f64()?,
            samples_len: r.u64()?,
            state: r.f64s()?,
        },
        TAG_SAMPLE => RecordKind::Sample { values: r.f64s()? },
        TAG_ROLLBACK => {
            RecordKind::Rollback { step: r.u64()?, t_engine: r.f64()?, samples_len: r.u64()? }
        }
        TAG_NOTE => RecordKind::Note { text: r.str()?.to_owned() },
        _ => return Err("unknown record tag".into()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<RecordKind> {
        vec![
            RecordKind::Event { payload: vec![1, 2, 3, 255].into() },
            RecordKind::Checkpoint {
                line: 7,
                path: "/npss/modules/shaft".into(),
                incarnation: 3,
                taken_at: 12.5,
                state: vec![0xDE, 0xAD],
            },
            RecordKind::CheckpointEvicted {
                line: 7,
                path: "/npss/modules/shaft".into(),
                taken_at: 4.25,
            },
            RecordKind::Verdict {
                addr: "lerc-cray-ymp:12".into(),
                incarnation: 2,
                verdict: "dead".into(),
            },
            RecordKind::MetricsSnapshot { json: "{\"counters\":{}}".into() },
            RecordKind::Barrier {
                step: 10,
                t_engine: 0.2,
                samples_len: 11,
                state: vec![1.0, -2.5, 0.1, 0.2, 0.3, 0.4, 0.5],
            },
            RecordKind::Sample { values: vec![0.02, 9000.0, 12000.0, 1.25, 65000.0, 1600.0, 90.0] },
            RecordKind::Rollback { step: 11, t_engine: 0.2, samples_len: 11 },
            RecordKind::Note { text: "hello, journal".into() },
        ]
    }

    fn encode_body(rec: &Record) -> Vec<u8> {
        let mut body = Vec::new();
        encode_body_into(&mut body, rec);
        body
    }

    #[test]
    fn every_kind_round_trips() {
        for (i, kind) in samples().into_iter().enumerate() {
            let rec = Record { seq: i as u64 + 1, t: 0.5 * i as f64, kind };
            let body = encode_body(&rec);
            let back = decode_body(&Blob::from(body), 0).unwrap();
            assert_eq!(back, rec);
        }
    }

    /// The encoding itself, not just its round trip.
    #[test]
    fn every_kind_encodes_to_pinned_bytes() {
        let bytes: Vec<u8> = samples()
            .into_iter()
            .enumerate()
            .flat_map(|(i, kind)| {
                encode_body(&Record { seq: i as u64 + 1, t: 0.5 * i as f64, kind })
            })
            .collect();
        assert_eq!((bytes.len(), crate::frame::crc32(&bytes)), (494, 0xE49F_07E1));
    }

    #[test]
    fn truncated_body_is_corrupt() {
        for (i, kind) in samples().into_iter().enumerate() {
            let body = encode_body(&Record { seq: 1, t: 0.0, kind });
            for cut in 0..body.len() {
                let err = decode_body(&Blob::from(body[..cut].to_vec()), 42);
                assert!(
                    matches!(err, Err(LedgerError::Corrupt { offset: 42, .. })),
                    "sample {i} cut at {cut} must be Corrupt, got {err:?}"
                );
            }
        }
    }

    /// Every single-bit flip of every kind's body decodes to a typed
    /// error or to a record that encodes back to exactly the flipped
    /// bytes — never a panic.
    #[test]
    fn bit_flips_are_corrupt_or_round_trip() {
        for (i, kind) in samples().into_iter().enumerate() {
            let body = encode_body(&Record { seq: 3, t: 0.5, kind });
            for bit in 0..body.len() * 8 {
                let mut flipped = body.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                match decode_body(&Blob::from(flipped.clone()), 42) {
                    Err(LedgerError::Corrupt { offset: 42, .. }) => {}
                    Err(other) => panic!("sample {i} bit {bit}: unexpected error {other}"),
                    Ok(rec) => assert_eq!(encode_body(&rec), flipped, "sample {i} bit {bit}"),
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let rec = Record { seq: 1, t: 0.0, kind: RecordKind::Note { text: "x".into() } };
        let mut body = encode_body(&rec);
        body.push(0);
        assert!(matches!(decode_body(&Blob::from(body), 0), Err(LedgerError::Corrupt { .. })));
    }

    #[test]
    fn unknown_tag_is_corrupt() {
        let mut body = Vec::new();
        super::put_u64(&mut body, 1);
        super::put_f64(&mut body, 0.0);
        body.push(200);
        assert!(matches!(decode_body(&Blob::from(body), 0), Err(LedgerError::Corrupt { .. })));
    }
}
