//! The group-commit contract of [`Journal`].
//!
//! Appends frame into one buffer; the buffer reaches the file in one
//! `write_all` at every state record (any kind but `Event`), at 64 KiB,
//! on `commit`/`sync`, and when the last clone drops. These tests pin
//! what is on disk after each of those points, that a commit torn
//! anywhere still replays to an exact record prefix, and that the
//! table-driven CRC is the bit-serial one.

use ledger::frame::{crc32, FILE_HEADER_LEN, FRAME_HEADER_LEN};
use ledger::{replay, Journal, LedgerError, Record, RecordKind};
use std::path::{Path, PathBuf};

/// The buffer size at which an append commits on its own.
const COMMIT_BYTES: usize = 64 * 1024;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ledger-group-{name}-{}", std::process::id()))
}

fn on_disk(path: &Path) -> Vec<Record> {
    replay(path).unwrap().records
}

fn event(i: u8) -> RecordKind {
    RecordKind::Event { payload: vec![i, 0, 255, i].into() }
}

/// One sample of each of the eight state kinds.
fn state_kinds() -> Vec<RecordKind> {
    vec![
        RecordKind::Checkpoint {
            line: 4,
            path: "/npss/modules/duct".into(),
            incarnation: 2,
            taken_at: 0.3,
            state: vec![1, 2, 3],
        },
        RecordKind::CheckpointEvicted { line: 4, path: "/npss/modules/duct".into(), taken_at: 0.1 },
        RecordKind::Verdict {
            addr: "lerc-cray-ymp:proc-3".into(),
            incarnation: 2,
            verdict: "started".into(),
        },
        RecordKind::Barrier { step: 5, t_engine: 0.1, samples_len: 6, state: vec![9000.0, 0.5] },
        RecordKind::Sample { values: vec![0.1, 9000.0, 12000.0] },
        RecordKind::Rollback { step: 6, t_engine: 0.1, samples_len: 6 },
        RecordKind::MetricsSnapshot { json: "{}".into() },
        RecordKind::Note { text: "state".into() },
    ]
}

/// (a) Each state record is on disk, with every event buffered before
/// it, in order and with contiguous seqs, once its append returns.
#[test]
fn every_state_kind_commits_itself_and_the_events_before_it() {
    let path = tmp("state-kinds");
    let j = Journal::create(&path).unwrap();
    let mut written: Vec<(u64, RecordKind)> = Vec::new();
    let mut t = 0.0;
    for (k, kind) in state_kinds().into_iter().enumerate() {
        for i in 0..3 {
            t += 0.25;
            let e = event(k as u8 * 3 + i);
            written.push((j.append(t, e.clone()).unwrap(), e));
        }
        t += 0.25;
        written.push((j.append(t, kind.clone()).unwrap(), kind));
        let records = on_disk(&path);
        assert_eq!(records.len(), written.len(), "state kind {k}: everything before it is on disk");
        for (i, (rec, (seq, kind))) in records.iter().zip(&written).enumerate() {
            assert_eq!(rec.seq, i as u64 + 1, "contiguous seqs");
            assert_eq!((rec.seq, &rec.kind), (*seq, kind), "in append order");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// (b) Events alone stay in memory until `commit`, `sync`, the last
/// clone's drop, or the 64 KiB mark; after any of these all are on disk.
#[test]
fn events_alone_wait_for_a_commit_point() {
    // Each trigger hands back the journal it did not drop, so `commit`
    // and `sync` are checked with the writer still alive.
    type Trigger = fn(Journal) -> Option<Journal>;
    let triggers: [(&str, Trigger); 3] = [
        ("commit", |j| j.commit().map(|()| j).ok()),
        ("sync", |j| j.sync().map(|()| j).ok()),
        ("drop", |j| {
            drop(j);
            None
        }),
    ];
    for (name, trigger) in triggers {
        let path = tmp(name);
        let j = Journal::create(&path).unwrap();
        j.append(0.0, RecordKind::Note { text: "committed".into() }).unwrap();
        for i in 0..5 {
            j.append_event(1.0 + f64::from(i), |buf| buf.extend_from_slice(&[i; 9])).unwrap();
        }
        // A clone going away is not the last one.
        drop(j.clone());
        assert_eq!(on_disk(&path).len(), 1, "{name}: events are buffered");
        let alive = trigger(j);
        assert_eq!(alive.is_some(), name != "drop", "{name}: the trigger ran");
        let records = on_disk(&path);
        assert_eq!(records.len(), 6, "{name}: every event is on disk");
        assert_eq!(records[5].kind, RecordKind::Event { payload: vec![4; 9].into() });
        drop(alive);
        assert_eq!(on_disk(&path), records, "{name}: nothing was left behind");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn events_commit_on_their_own_at_64_kib() {
    let path = tmp("64k");
    let j = Journal::create(&path).unwrap();
    let payload = vec![0xA5; 1000];
    // Frame header + seq + t + tag + payload length + payload.
    let frame_len = FRAME_HEADER_LEN + 8 + 8 + 1 + 4 + payload.len();
    let (mut buffered, mut committed) = (0, 0);
    for n in 1..=200 {
        j.append(0.0, RecordKind::Event { payload: payload.clone().into() }).unwrap();
        buffered += frame_len;
        if buffered >= COMMIT_BYTES {
            (buffered, committed) = (0, n);
        }
        assert_eq!(on_disk(&path).len(), committed, "after {n} events");
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        assert_eq!(len, FILE_HEADER_LEN + committed * frame_len);
    }
    assert!(committed > 0 && buffered > 0, "the sweep crosses the mark and restarts");
    drop(j);
    assert_eq!(on_disk(&path).len(), 200);
    std::fs::remove_file(&path).ok();
}

/// (c) A commit torn at any byte offset — mid-frame or between two of
/// its frames — replays to an exact record prefix, never `Corrupt`.
#[test]
fn a_torn_multi_frame_commit_replays_to_a_prefix() {
    let path = tmp("torn-commit");
    let j = Journal::create(&path).unwrap();
    j.append(0.1, RecordKind::Note { text: "before".into() }).unwrap();
    let commit_start = std::fs::metadata(&path).unwrap().len() as usize;
    for i in 0..6 {
        j.append(0.2, event(i)).unwrap();
    }
    assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, commit_start, "events buffered");
    j.append(0.3, RecordKind::Barrier { step: 1, t_engine: 0.3, samples_len: 2, state: vec![1.5] })
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let all = on_disk(&path);
    assert_eq!(all.len(), 8);
    std::fs::remove_file(&path).ok();

    // Frame boundaries inside the commit, from the frame headers.
    let mut ends = vec![commit_start];
    while *ends.last().unwrap() < bytes.len() {
        let at = *ends.last().unwrap();
        let len = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        ends.push(at + FRAME_HEADER_LEN + len);
    }
    assert_eq!(ends.len(), 8, "seven frames in one commit");

    let cut_path = tmp("torn-commit-cut");
    for cut in commit_start..=bytes.len() {
        std::fs::write(&cut_path, &bytes[..cut]).unwrap();
        let replayed = replay(&cut_path)
            .unwrap_or_else(|e: LedgerError| panic!("cut at {cut} must not error: {e}"));
        let whole = ends.iter().filter(|&&end| end <= cut).count() - 1;
        let boundary = ends[whole];
        assert_eq!(replayed.records, all[..1 + whole], "cut at {cut}: an exact prefix");
        assert_eq!(replayed.torn_bytes, (cut - boundary) as u64, "cut at {cut}");
        assert_eq!(replayed.torn_bytes > 0, cut != boundary, "cut at {cut}");
        assert_eq!(replayed.bytes_valid, boundary as u64);
    }
    std::fs::remove_file(&cut_path).ok();
}

/// The bit-serial CRC-32 the table replaced, kept as the reference.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// (d) The table-driven CRC equals the bit-serial reference.
#[test]
fn table_crc_matches_the_bit_serial_reference() {
    let mut state = 0x5EED_C3C3_u64;
    let data: Vec<u8> = (0..COMMIT_BYTES)
        .map(|_| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect();
    for len in 0..=64 {
        assert_eq!(crc32(&data[..len]), crc32_bitwise(&data[..len]), "length {len}");
    }
    assert_eq!(crc32(&data), crc32_bitwise(&data), "seeded 64 KiB buffer");
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}
