//! The journal writer, the replay reader, and the attach-once handle.
//!
//! The writer **group-commits**: every append frames its record in place
//! at the end of one reusable buffer, and the buffer goes to the file in
//! a single `write_all` at the records that define durability. An
//! [`RecordKind::Event`] stays buffered; every other kind — checkpoint,
//! eviction, verdict, barrier, sample, rollback, metrics snapshot, note —
//! commits the buffer, itself included, before its append returns. The
//! buffer is also committed when it reaches 64 KiB, on
//! [`Journal::commit`] and [`Journal::sync`], and when the last clone of
//! the journal drops. A process kill can therefore lose only the events
//! after the last state record, and since each commit is whole frames
//! written in order, a torn tail is only ever the last frame of the last
//! commit — the case replay discards.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::blob::Blob;
use crate::error::LedgerError;
use crate::frame::{self, FrameRead};
use crate::record::{self, Record, RecordKind};
use crate::sequencer::Sequencer;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Buffered bytes at which an append commits even without a state
/// record, bounding both the buffer and what a kill can lose.
const COMMIT_BYTES: usize = 64 * 1024;

/// An open journal: append-only, group-committing writer over one file.
///
/// Cloning is cheap and shares the underlying file, buffer and
/// sequencer, so many subsystems (obs sink, Manager, executive) can
/// append to one journal; the internal mutex serializes appends so
/// frames never interleave. Appends frame into one buffer, and each
/// commit writes the buffer in a single `write_all` — at every record
/// that is not an [`RecordKind::Event`], at 64 KiB, on
/// [`commit`](Journal::commit) or [`sync`](Journal::sync), and when the
/// last clone drops — so the only partial frame a crash can leave is the
/// final one of the last commit, exactly the torn-tail case replay
/// discards.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<Mutex<JournalInner>>,
    path: Arc<PathBuf>,
}

struct JournalInner {
    file: File,
    seq: Sequencer,
    /// Framed records not yet written to `file`.
    buf: Vec<u8>,
}

impl JournalInner {
    /// Write every buffered frame in one `write_all`. The buffer is
    /// emptied even on failure: its records already hold their sequence
    /// ids, so writing them again later could only duplicate frames.
    fn commit(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let written = self.file.write_all(&self.buf);
        self.buf.clear();
        written
    }

    /// Assign the next `(seq, t)`, frame the body `encode` writes for
    /// it, and commit when `durable` or when the buffer is full.
    fn append(
        &mut self,
        t: f64,
        durable: bool,
        encode: impl FnOnce(&mut Vec<u8>, u64, f64),
    ) -> io::Result<u64> {
        let (seq, t) = self.seq.assign(t);
        frame::frame_into(&mut self.buf, |buf| encode(buf, seq, t));
        if durable || self.buf.len() >= COMMIT_BYTES {
            self.commit()?;
        }
        Ok(seq)
    }
}

impl Drop for JournalInner {
    fn drop(&mut self) {
        // The last clone is gone: nothing can append after this.
        let _ = self.commit();
    }
}

impl Journal {
    /// Create (truncate) a fresh journal at `path`.
    pub fn create(path: &Path) -> Result<Self, LedgerError> {
        let mut file = File::create(path)?;
        file.write_all(&frame::file_header())?;
        Ok(Self {
            inner: Arc::new(Mutex::new(JournalInner {
                file,
                seq: Sequencer::new(),
                buf: Vec::new(),
            })),
            path: Arc::new(path.to_path_buf()),
        })
    }

    /// Open an existing journal for appending: replays it (validating
    /// every frame), discards a torn tail by truncating the file back
    /// to its last complete record, and resumes the sequencer.
    pub fn open_append(path: &Path) -> Result<(Self, Replay), LedgerError> {
        let replayed = replay(path)?;
        let file = OpenOptions::new().append(true).open(path)?;
        if replayed.torn_bytes > 0 {
            file.set_len(replayed.bytes_valid)?;
        }
        let (last_seq, last_t) = replayed.records.last().map_or((0, 0.0), |r| (r.seq, r.t));
        let journal = Self {
            inner: Arc::new(Mutex::new(JournalInner {
                file,
                seq: Sequencer::resuming(last_seq, last_t),
                buf: Vec::new(),
            })),
            path: Arc::new(path.to_path_buf()),
        };
        Ok((journal, replayed))
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn lock(&self) -> MutexGuard<'_, JournalInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append one record stamped with producer time `t`; returns the
    /// assigned sequence id. Every kind but [`RecordKind::Event`] is a
    /// state record: it is written to the file, with every event
    /// buffered before it, before this returns.
    pub fn append(&self, t: f64, kind: RecordKind) -> Result<u64, LedgerError> {
        let durable = !matches!(kind, RecordKind::Event { .. });
        let seq = self.lock().append(t, durable, |buf, seq, t| {
            record::encode_body_into(buf, &Record { seq, t, kind });
        })?;
        Ok(seq)
    }

    /// Append one [`RecordKind::Event`] whose payload `payload` encodes
    /// straight into the journal's buffer — the same bytes as
    /// `append(t, RecordKind::Event { payload })` with that payload,
    /// without materializing it. The event stays buffered until the
    /// next commit. `payload` must only append to the buffer it is
    /// given, and must not panic: a frame it leaves half-written would
    /// make replay report the journal `Corrupt` from that record on.
    pub fn append_event(
        &self,
        t: f64,
        payload: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64, LedgerError> {
        let seq = self.lock().append(t, false, |buf, seq, t| {
            record::encode_event_body_into(buf, seq, t, payload);
        })?;
        Ok(seq)
    }

    /// Write every buffered record to the file (no `fsync`).
    pub fn commit(&self) -> Result<(), LedgerError> {
        self.lock().commit()?;
        Ok(())
    }

    /// The most recently assigned sequence id (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.lock().seq.last_seq()
    }

    /// Commit the buffer and force the journal to stable storage
    /// (`fsync`).
    pub fn sync(&self) -> Result<(), LedgerError> {
        let mut inner = self.lock();
        inner.commit()?;
        inner.file.sync_all()?;
        Ok(())
    }
}

/// The result of replaying a journal file.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Every complete, CRC-valid record, in sequence order.
    pub records: Vec<Record>,
    /// Bytes of a torn (truncated mid-write) final record that were
    /// discarded; 0 for a cleanly closed journal.
    pub torn_bytes: u64,
    /// File length up to and including the last complete record.
    pub bytes_valid: u64,
}

/// Replay a journal file into records.
///
/// The file is read once into one shared buffer, and every
/// [`RecordKind::Event`] payload is a view into it; every other field is
/// decoded into values of its own. Every frame's CRC, every body's full
/// decode and the sequence are checked all the same:
///
/// * A **torn final record** — the file ends before the last frame
///   completes — is discarded and reported via [`Replay::torn_bytes`];
///   this is the normal residue of a crash mid-append.
/// * A **complete frame with a CRC mismatch**, a bad header, an
///   undecodable body, or a **sequence discontinuity** is
///   [`LedgerError::Corrupt`]: damage no single interrupted append can
///   explain.
pub fn replay(path: &Path) -> Result<Replay, LedgerError> {
    let bytes = Blob::from(std::fs::read(path)?);
    let mut offset = frame::check_file_header(&bytes)?;
    let mut records: Vec<Record> = Vec::new();
    let mut torn_bytes = 0u64;
    loop {
        match frame::read_frame(&bytes, offset)? {
            FrameRead::End => break,
            FrameRead::Torn { tail } => {
                torn_bytes = tail as u64;
                break;
            }
            FrameRead::Ok { body, next } => {
                let rec =
                    record::decode_body(&bytes.slice(next - body.len()..next), offset as u64)?;
                let expected = records.last().map_or(1, |r| r.seq + 1);
                if rec.seq != expected {
                    return Err(LedgerError::Corrupt {
                        offset: offset as u64,
                        reason: format!(
                            "sequence discontinuity: expected {expected}, found {}",
                            rec.seq
                        ),
                    });
                }
                records.push(rec);
                offset = next;
            }
        }
    }
    Ok(Replay { records, torn_bytes, bytes_valid: offset as u64 })
}

/// A cloneable, attach-once handle to a journal.
///
/// Subsystems hold a `LedgerHandle` unconditionally; until a journal
/// is attached every append is a no-op, so the ledger costs nothing in
/// worlds that never configure one. Attachment happens at most once
/// per handle (per world); appends after attachment are best-effort —
/// an I/O failure mid-run must not take the simulation down with it,
/// so `append` reports success by `Some(seq)` rather than panicking.
#[derive(Clone, Default)]
pub struct LedgerHandle {
    journal: Arc<OnceLock<Journal>>,
}

impl LedgerHandle {
    /// A fresh, unattached handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a journal; fails if this handle already has one.
    pub fn attach(&self, journal: Journal) -> Result<(), LedgerError> {
        self.journal
            .set(journal)
            .map_err(|_| LedgerError::Io("a journal is already attached".into()))
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.get()
    }

    /// Whether a journal is attached.
    pub fn is_attached(&self) -> bool {
        self.journal.get().is_some()
    }

    /// Append if attached; `None` when unattached or on I/O failure.
    pub fn append(&self, t: f64, kind: RecordKind) -> Option<u64> {
        self.journal.get().and_then(|j| j.append(t, kind).ok())
    }

    /// [`Journal::append_event`] if attached; `payload` is not called
    /// when unattached. `None` when unattached or on I/O failure.
    pub fn append_event(&self, t: f64, payload: impl FnOnce(&mut Vec<u8>)) -> Option<u64> {
        self.journal.get().and_then(|j| j.append_event(t, payload).ok())
    }

    /// [`Journal::commit`] if attached; a no-op when unattached.
    pub fn commit(&self) -> Result<(), LedgerError> {
        self.journal.get().map_or(Ok(()), Journal::commit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordKind;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ledger-journal-{name}-{}", std::process::id()))
    }

    #[test]
    fn append_and_replay() {
        let path = tmp("round");
        let j = Journal::create(&path).unwrap();
        assert_eq!(j.append(1.0, RecordKind::Note { text: "a".into() }).unwrap(), 1);
        assert_eq!(j.append(2.0, RecordKind::Note { text: "b".into() }).unwrap(), 2);
        assert_eq!(j.last_seq(), 2);
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.torn_bytes, 0);
        assert_eq!(replayed.records[0].seq, 1);
        assert_eq!(replayed.records[1].t, 2.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_append_resumes_sequence_and_truncates_torn_tail() {
        let path = tmp("resume");
        let j = Journal::create(&path).unwrap();
        j.append(1.0, RecordKind::Note { text: "kept".into() }).unwrap();
        j.append(2.0, RecordKind::Note { text: "also kept".into() }).unwrap();
        drop(j);
        // Simulate a crash mid-append: chop 3 bytes into a new frame.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0, 0, 0]);
        std::fs::write(&path, &bytes).unwrap();

        let (j, replayed) = Journal::open_append(&path).unwrap();
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.torn_bytes, 3);
        assert_eq!(j.append(3.0, RecordKind::Note { text: "after".into() }).unwrap(), 3);
        let again = replay(&path).unwrap();
        assert_eq!(again.records.len(), 3);
        assert_eq!(again.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn handle_is_noop_until_attached_and_attaches_once() {
        let h = LedgerHandle::new();
        assert!(!h.is_attached());
        assert_eq!(h.append(0.0, RecordKind::Note { text: "dropped".into() }), None);

        let path = tmp("handle");
        h.attach(Journal::create(&path).unwrap()).unwrap();
        assert!(h.is_attached());
        assert_eq!(h.append(0.0, RecordKind::Note { text: "kept".into() }), Some(1));
        assert!(h.attach(Journal::create(&path).unwrap()).is_err());
        // The clone shares the attachment.
        let h2 = h.clone();
        assert_eq!(h2.append(0.0, RecordKind::Note { text: "kept too".into() }), Some(2));
        std::fs::remove_file(&path).ok();
    }
}
