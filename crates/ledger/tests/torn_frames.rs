//! Property-style coverage for crash residue in a journal file.
//!
//! A crash *during* journaling leaves exactly one of two things behind:
//! a torn final record (the append's `write_all` did not complete) or —
//! if the storage itself misbehaved — a complete frame whose bytes no
//! longer match their CRC. Replay must discard the former cleanly and
//! reject the latter with a typed [`LedgerError::Corrupt`]; it must
//! never accept garbage as a record. These tests sweep **every byte
//! offset of the final record**, truncating and bit-flipping, and a
//! seeded sampler does the same across the whole file.

use ledger::{replay, Journal, LedgerError, Record, RecordKind};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ledger-torn-{name}-{}", std::process::id()))
}

/// A journal with a handful of realistic records; returns the raw file
/// bytes, the byte offset where the final record's frame begins, and
/// the records as written.
fn journal_with_tail(name: &str) -> (Vec<u8>, usize, Vec<Record>) {
    let path = tmp(name);
    let j = Journal::create(&path).unwrap();
    j.append(0.1, RecordKind::Note { text: "begin".into() }).unwrap();
    j.append(0.2, RecordKind::Event { payload: vec![7, 0, 255, 3].into() }).unwrap();
    j.append(
        0.3,
        RecordKind::Checkpoint {
            line: 4,
            path: "/npss/modules/duct".into(),
            incarnation: 2,
            taken_at: 0.3,
            state: vec![1, 2, 3, 4, 5],
        },
    )
    .unwrap();
    let before = std::fs::read(&path).unwrap().len();
    // The final record: a barrier with enough fields to exercise every
    // decoder path (u64s, f64 bits, an f64 vector).
    j.append(
        0.4,
        RecordKind::Barrier {
            step: 5,
            t_engine: 0.1,
            samples_len: 6,
            state: vec![9000.0, 12000.0, 0.1, 0.2, 0.3, 0.4, 0.5],
        },
    )
    .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let records = replay(&path).unwrap().records;
    std::fs::remove_file(&path).ok();
    (bytes, before, records)
}

fn replay_bytes(name: &str, bytes: &[u8]) -> Result<ledger::Replay, LedgerError> {
    let path = tmp(name);
    std::fs::write(&path, bytes).unwrap();
    let out = replay(&path);
    std::fs::remove_file(&path).ok();
    out
}

/// Truncating anywhere inside the final record must yield a clean
/// discard: the first N-1 records intact, the tail reported torn,
/// never an error, never a phantom record.
#[test]
fn truncation_at_every_offset_of_final_record_discards_cleanly() {
    let (bytes, tail_start, records) = journal_with_tail("trunc");
    for cut in tail_start..bytes.len() {
        let replayed = replay_bytes("trunc-cut", &bytes[..cut])
            .unwrap_or_else(|e| panic!("cut at {cut} must not error: {e}"));
        assert_eq!(
            replayed.records.len(),
            records.len() - 1,
            "cut at {cut}: all prior records must survive"
        );
        assert_eq!(replayed.records, records[..records.len() - 1]);
        assert_eq!(replayed.torn_bytes, (cut - tail_start) as u64);
        assert_eq!(replayed.bytes_valid, tail_start as u64);
    }
    // Truncating at the exact frame boundary is a cleanly closed file.
    let whole = replay_bytes("trunc-whole", &bytes).unwrap();
    assert_eq!(whole.records, records);
    assert_eq!(whole.torn_bytes, 0);
}

/// Bit-flipping any bit of the final record must yield either a typed
/// `Corrupt` error or a clean discard of the final record (a flip in
/// the length field can make the frame *look* torn — that is safe).
/// It must never be silently accepted as the original record, and a
/// decoded final record must never differ from what was written.
#[test]
fn bit_flips_at_every_offset_of_final_record_are_detected() {
    let (bytes, tail_start, records) = journal_with_tail("flip");
    for offset in tail_start..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[offset] ^= 1 << bit;
            match replay_bytes("flip-case", &mutated) {
                Err(LedgerError::Corrupt { .. }) => {} // typed rejection
                Err(other) => panic!("offset {offset} bit {bit}: unexpected error {other}"),
                Ok(replayed) => {
                    // Only acceptable if the flip made the frame look
                    // torn: prior records intact, final one discarded.
                    assert_eq!(
                        replayed.records,
                        records[..records.len() - 1],
                        "offset {offset} bit {bit}: corrupted record must not be accepted"
                    );
                    assert!(
                        replayed.torn_bytes > 0,
                        "offset {offset} bit {bit}: a discard must report the torn tail"
                    );
                }
            }
        }
    }
}

/// A deterministic seeded sweep over the *whole* file (header and all
/// earlier records): every sampled single-bit flip must surface as a
/// typed `Corrupt` error or a *reported* torn-tail discard — never a
/// silent acceptance. A flip in a middle record's length field is
/// byte-for-byte indistinguishable from a write that tore at that
/// frame, so replay may keep only the records before it; what it can
/// never do is return the full record set, return a non-prefix, or
/// discard anything without reporting torn bytes.
#[test]
fn seeded_bit_flips_across_whole_file_never_pass_silently() {
    let (bytes, _tail_start, records) = journal_with_tail("seeded");
    let mut state = 0x5EED_F100_u64; // fixed seed: same offsets every run
    for _ in 0..600 {
        // xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let offset = (state as usize) % bytes.len();
        let bit = ((state >> 32) as usize) % 8;
        let mut mutated = bytes.clone();
        mutated[offset] ^= 1 << bit;
        match replay_bytes("seeded-case", &mutated) {
            Err(LedgerError::Corrupt { .. }) => {}
            Err(other) => panic!("offset {offset} bit {bit}: unexpected error {other}"),
            Ok(replayed) => {
                let n = replayed.records.len();
                assert!(n < records.len(), "offset {offset} bit {bit}: flip accepted in full");
                assert_eq!(
                    replayed.records,
                    records[..n],
                    "offset {offset} bit {bit}: surviving records must be an exact prefix"
                );
                assert!(
                    replayed.torn_bytes > 0,
                    "offset {offset} bit {bit}: a discard must report the torn tail"
                );
            }
        }
    }
}

/// Crash residue *around* the header: a file truncated inside the
/// header cannot be replayed (there is nothing to recover), and an
/// empty journal (header only) replays to zero records.
#[test]
fn header_truncation_and_empty_journal() {
    let (bytes, _, _) = journal_with_tail("header");
    for cut in 0..ledger::frame::FILE_HEADER_LEN {
        assert!(
            matches!(replay_bytes("header-cut", &bytes[..cut]), Err(LedgerError::Corrupt { .. })),
            "header cut at {cut} must be Corrupt"
        );
    }
    let empty = replay_bytes("header-only", &bytes[..ledger::frame::FILE_HEADER_LEN]).unwrap();
    assert!(empty.records.is_empty());
    assert_eq!(empty.torn_bytes, 0);
}

/// Deleting a whole record from the middle breaks the sequence ladder
/// and must be rejected — replay never papers over missing history.
#[test]
fn sequence_discontinuity_is_corrupt() {
    let path = tmp("seq-gap");
    let j = Journal::create(&path).unwrap();
    j.append(0.1, RecordKind::Note { text: "one".into() }).unwrap();
    let after_first = std::fs::read(&path).unwrap();
    j.append(0.2, RecordKind::Note { text: "two".into() }).unwrap();
    let after_second = std::fs::read(&path).unwrap();
    j.append(0.3, RecordKind::Note { text: "three".into() }).unwrap();
    let full = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Splice record 3 directly after record 1 (drop record 2).
    let mut spliced = after_first.clone();
    spliced.extend_from_slice(&full[after_second.len()..]);
    match replay_bytes("seq-gap-spliced", &spliced) {
        Err(LedgerError::Corrupt { reason, .. }) => {
            assert!(reason.contains("sequence discontinuity"), "got: {reason}");
        }
        other => panic!("splice must be a sequence-discontinuity Corrupt, got {other:?}"),
    }
}
