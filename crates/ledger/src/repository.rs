//! The repository: a replayed journal you can ask questions of.

use crate::error::LedgerError;
use crate::journal::{replay, Replay};
use crate::record::{CheckpointRec, Record, RecordKind, RecordTag};
use std::collections::HashMap;
use std::path::Path;

/// A journal loaded into memory, with query helpers: retained-checkpoint
/// sets (with journaled evictions applied), incarnation high-water
/// marks, and metrics as of a sequence point. This
/// is everything `recover_from_journal` and the `replay` CLI need — the
/// world can be gone.
pub struct Repository {
    records: Vec<Record>,
    torn_bytes: u64,
}

impl Repository {
    /// Replay the journal at `path` into a repository.
    pub fn open(path: &Path) -> Result<Self, LedgerError> {
        Ok(Self::from_replay(replay(path)?))
    }

    /// Wrap an already-replayed journal.
    pub(crate) fn from_replay(replayed: Replay) -> Self {
        Self { records: replayed.records, torn_bytes: replayed.torn_bytes }
    }

    /// All records, in sequence order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal held no complete records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Highest sequence id (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.records.last().map_or(0, |r| r.seq)
    }

    /// Bytes of torn final record discarded during replay.
    pub fn torn_bytes(&self) -> u64 {
        self.torn_bytes
    }

    /// Record counts per tag, for summaries.
    pub fn counts_by_tag(&self) -> HashMap<RecordTag, usize> {
        let mut out = HashMap::new();
        for r in &self.records {
            *out.entry(r.kind.tag()).or_insert(0) += 1;
        }
        out
    }

    /// The checkpoints still retained as of the journal's end: every
    /// `Checkpoint` record minus those named by a later
    /// `CheckpointEvicted` record, in sequence order. Because the
    /// Manager journals each eviction the moment retention makes it,
    /// this reproduces the live `CheckpointStore` contents exactly.
    pub fn retained_checkpoints(&self) -> Vec<CheckpointRec<'_>> {
        self.retained_checkpoints_as_of(u64::MAX)
    }

    /// [`Repository::retained_checkpoints`] considering only records
    /// with `seq <= seq_point`.
    pub(crate) fn retained_checkpoints_as_of(&self, seq_point: u64) -> Vec<CheckpointRec<'_>> {
        let mut retained: Vec<CheckpointRec<'_>> = Vec::new();
        for r in self.records.iter().take_while(|r| r.seq <= seq_point) {
            match &r.kind {
                RecordKind::Checkpoint { line, path, incarnation, taken_at, state } => {
                    retained.push(CheckpointRec {
                        seq: r.seq,
                        line: *line,
                        path,
                        incarnation: *incarnation,
                        taken_at: *taken_at,
                        state,
                    });
                }
                RecordKind::CheckpointEvicted { line, path, taken_at } => {
                    if let Some(pos) = retained.iter().position(|c| {
                        c.line == *line
                            && c.path == path
                            && c.taken_at.to_bits() == taken_at.to_bits()
                    }) {
                        retained.remove(pos);
                    }
                }
                _ => {}
            }
        }
        retained
    }

    /// The highest incarnation the journal has seen (over checkpoint
    /// and verdict records); recovery fences stale replies by starting
    /// past this.
    pub fn max_incarnation(&self) -> u64 {
        self.records
            .iter()
            .map(|r| match &r.kind {
                RecordKind::Checkpoint { incarnation, .. } => *incarnation,
                RecordKind::Verdict { incarnation, .. } => *incarnation,
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// The latest metrics snapshot with `seq <= seq_point`, as
    /// `(seq, json)` — "what did the metrics registry say as of this
    /// sequence point?".
    pub fn metrics_as_of(&self, seq_point: u64) -> Option<(u64, &str)> {
        self.records.iter().rev().skip_while(|r| r.seq > seq_point).find_map(|r| match &r.kind {
            RecordKind::MetricsSnapshot { json } => Some((r.seq, json.as_str())),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo(kinds: Vec<RecordKind>) -> Repository {
        let records = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Record { seq: i as u64 + 1, t: i as f64, kind })
            .collect();
        Repository { records, torn_bytes: 0 }
    }

    fn cp(line: u64, path: &str, incarnation: u64, taken_at: f64) -> RecordKind {
        RecordKind::Checkpoint {
            line,
            path: path.into(),
            incarnation,
            taken_at,
            state: vec![line as u8],
        }
    }

    #[test]
    fn retained_checkpoints_apply_evictions() {
        let r = repo(vec![
            cp(1, "/p/duct", 1, 10.0),
            cp(1, "/p/duct", 1, 20.0),
            RecordKind::CheckpointEvicted { line: 1, path: "/p/duct".into(), taken_at: 10.0 },
            cp(2, "/p/shaft", 1, 15.0),
        ]);
        let retained = r.retained_checkpoints();
        assert_eq!(retained.len(), 2);
        assert_eq!(retained[0].taken_at, 20.0);
        assert_eq!(retained[1].line, 2);
        // As-of before the eviction, both duct checkpoints stand.
        assert_eq!(r.retained_checkpoints_as_of(2).len(), 2);
    }

    #[test]
    fn metrics_as_of_picks_latest_at_or_before() {
        let r = repo(vec![
            RecordKind::MetricsSnapshot { json: "{\"a\":1}".into() },
            RecordKind::Note { text: "mid".into() },
            RecordKind::MetricsSnapshot { json: "{\"a\":2}".into() },
        ]);
        assert_eq!(r.metrics_as_of(u64::MAX), Some((3, "{\"a\":2}")));
        assert_eq!(r.metrics_as_of(2), Some((1, "{\"a\":1}")));
        assert_eq!(r.metrics_as_of(0), None);
    }

    #[test]
    fn max_incarnation_spans_checkpoints_and_verdicts() {
        let r = repo(vec![
            cp(1, "/p/duct", 2, 10.0),
            RecordKind::Verdict { addr: "h:1".into(), incarnation: 5, verdict: "dead".into() },
        ]);
        assert_eq!(r.max_incarnation(), 5);
        assert_eq!(repo(vec![]).max_incarnation(), 0);
    }

    #[test]
    fn last_seq_and_counts_by_tag() {
        let r = repo(vec![
            RecordKind::Note { text: "a".into() },
            RecordKind::Sample { values: vec![1.0] },
            RecordKind::Note { text: "b".into() },
        ]);
        assert_eq!(r.last_seq(), 3);
        assert_eq!(r.counts_by_tag()[&RecordTag::Note], 2);
    }
}
