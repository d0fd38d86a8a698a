//! Supervision: health monitoring, recovery policies, and checkpoints.
//!
//! PR 1 made individual *calls* fault-tolerant; this module makes the
//! *program* fault-tolerant. The Manager supervises every process it has
//! started: when a caller reports a suspect address, the Manager probes
//! it with virtual-time heartbeats ([`HealthMonitor`]); after enough
//! missed beats the process is declared dead and the installed
//! [`SupervisionPolicy`] decides what happens — respawn in place, migrate
//! to a replica host, or escalate the failure to the caller. Stateful
//! procedures are restored from the latest architecture-neutral snapshot
//! in the [`CheckpointStore`], captured through the same UTS
//! `marshal_state` path migration uses, so a recovered instance resumes
//! from its last checkpoint rather than from scratch.
//!
//! Every process instance carries an **incarnation number**. Respawning
//! allocates a fresh, strictly larger incarnation, and replies stamp the
//! incarnation of the instance that produced them; callers discard
//! ("fence") replies from incarnations older than their current binding,
//! so a delayed pre-crash answer can never corrupt a line.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, RwLock};

use bytes::Bytes;

/// What the Manager does when a supervised process is declared dead.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SupervisionPolicy {
    /// Respawn the procedure on the host it died on (the host's Server
    /// survives a crash — only process state is lost). The default.
    #[default]
    RestartInPlace,
    /// Respawn on the first usable host of the list; falls back to
    /// restart-in-place when none of them can run the executable.
    MigrateTo(Vec<String>),
    /// Do not recover: surface [`SchError::Escalated`] to the caller.
    ///
    /// [`SchError::Escalated`]: crate::SchError::Escalated
    Escalate,
}

/// A shared map from executable path to supervision policy, consulted by
/// the Manager when recovering a crashed process. Paths without an entry
/// get [`SupervisionPolicy::RestartInPlace`].
#[derive(Debug, Clone, Default)]
pub struct SupervisionMap {
    policies: Arc<RwLock<HashMap<String, SupervisionPolicy>>>,
}

impl SupervisionMap {
    /// An empty map (everything restarts in place).
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the policy for an executable path.
    pub fn set(&self, path: &str, policy: SupervisionPolicy) {
        self.policies.write().unwrap().insert(path.to_owned(), policy);
    }

    /// The effective policy for a path.
    pub fn get(&self, path: &str) -> SupervisionPolicy {
        self.policies.read().unwrap().get(path).cloned().unwrap_or_default()
    }
}

/// Liveness verdict for one supervised address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Responding to heartbeats.
    Healthy,
    /// Missed `n` consecutive beats, below the declare-dead threshold.
    Suspect(u32),
    /// Missed beats reached the threshold, or the probe proved the
    /// endpoint is gone. Triggers recovery.
    Dead,
}

/// Consecutive-miss heartbeat accounting, in virtual time.
///
/// The monitor is passive bookkeeping: the Manager drives it by probing
/// suspect addresses with `Ping` and reporting the outcome here. One
/// answered beat clears the miss count; `threshold` consecutive misses
/// declare the address dead.
#[derive(Debug)]
pub struct HealthMonitor {
    threshold: u32,
    misses: HashMap<String, u32>,
}

impl HealthMonitor {
    /// A monitor declaring death after `threshold` consecutive misses
    /// (clamped to at least 1).
    pub fn new(threshold: u32) -> Self {
        Self { threshold: threshold.max(1), misses: HashMap::new() }
    }

    /// The configured declare-dead threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// A heartbeat from `addr` arrived: healthy again, misses cleared.
    pub fn record_beat(&mut self, addr: &str) {
        self.misses.remove(addr);
    }

    /// A heartbeat from `addr` was missed; returns the updated verdict.
    pub fn record_miss(&mut self, addr: &str) -> Health {
        let n = self.misses.entry(addr.to_owned()).or_insert(0);
        *n += 1;
        if *n >= self.threshold {
            Health::Dead
        } else {
            Health::Suspect(*n)
        }
    }

    /// Current verdict for `addr` without recording anything.
    pub fn health(&self, addr: &str) -> Health {
        match self.misses.get(addr) {
            None => Health::Healthy,
            Some(&n) if n >= self.threshold => Health::Dead,
            Some(&n) => Health::Suspect(n),
        }
    }

    /// Forget an address entirely (it was recovered or shut down).
    pub fn forget(&mut self, addr: &str) {
        self.misses.remove(addr);
    }
}

/// One retained snapshot of a process's `state(...)` variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The process-level state framing produced by `GetState`
    /// (architecture-neutral UTS wire bytes inside per-procedure frames).
    pub state: Bytes,
    /// Virtual time at which the snapshot was captured.
    pub taken_at: f64,
    /// Incarnation of the instance the snapshot was captured from.
    pub incarnation: u64,
}

/// Number of checkpoints retained per `(line, path)` key.
pub(crate) const CHECKPOINT_RETENTION: usize = 4;

/// Manager-side store of recent checkpoints per supervised process,
/// keyed by `(line, executable path)` so a respawn of the same
/// executable — on any host and under any fresh address — finds its
/// state.
///
/// Growth is bounded: each key keeps at most `CHECKPOINT_RETENTION` snapshots
/// (newest last); storing past the cap evicts from the oldest end and
/// **returns the evicted snapshots** so the Manager can journal each
/// eviction — a ledger replay that applies the same policy reproduces
/// the live store exactly.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    inner: Arc<Mutex<StoreInner>>,
}

#[derive(Debug, Default)]
struct StoreInner {
    snaps: HashMap<(u64, String), VecDeque<Snapshot>>,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Retain `snapshot` as the newest checkpoint for `(line, path)`;
    /// returns the snapshots evicted by the retention cap (oldest
    /// first; empty while under the cap).
    pub fn put(&self, line: u64, path: &str, snapshot: Snapshot) -> Vec<Snapshot> {
        let mut inner = self.inner.lock().unwrap();
        let queue = inner.snaps.entry((line, path.to_owned())).or_default();
        queue.push_back(snapshot);
        let mut evicted = Vec::new();
        while queue.len() > CHECKPOINT_RETENTION {
            evicted.extend(queue.pop_front());
        }
        evicted
    }

    /// The newest checkpoint for `(line, path)`, if any.
    pub fn get(&self, line: u64, path: &str) -> Option<Snapshot> {
        self.inner
            .lock()
            .unwrap()
            .snaps
            .get(&(line, path.to_owned()))
            .and_then(|q| q.back().cloned())
    }

    /// All retained checkpoints for `(line, path)`, oldest first.
    pub fn history(&self, line: u64, path: &str) -> Vec<Snapshot> {
        self.inner
            .lock()
            .unwrap()
            .snaps
            .get(&(line, path.to_owned()))
            .map(|q| q.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Every key with at least one retained checkpoint, sorted.
    pub fn keys(&self) -> Vec<(u64, String)> {
        let mut out: Vec<_> = self
            .inner
            .lock()
            .unwrap()
            .snaps
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(k, _)| k.clone())
            .collect();
        out.sort();
        out
    }

    /// Drop every checkpoint belonging to `line` (its module quit).
    pub fn forget_line(&self, line: u64) {
        self.inner.lock().unwrap().snaps.retain(|(l, _), _| *l != line);
    }

    /// Total number of retained checkpoints (across all keys).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().snaps.values().map(VecDeque::len).sum()
    }

    /// True when no checkpoint is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_declares_dead_at_threshold() {
        let mut m = HealthMonitor::new(3);
        assert_eq!(m.health("a:p"), Health::Healthy);
        assert_eq!(m.record_miss("a:p"), Health::Suspect(1));
        assert_eq!(m.record_miss("a:p"), Health::Suspect(2));
        assert_eq!(m.health("a:p"), Health::Suspect(2));
        assert_eq!(m.record_miss("a:p"), Health::Dead);
        assert_eq!(m.health("a:p"), Health::Dead);
    }

    #[test]
    fn beat_clears_misses() {
        let mut m = HealthMonitor::new(2);
        m.record_miss("a:p");
        m.record_beat("a:p");
        assert_eq!(m.health("a:p"), Health::Healthy);
        assert_eq!(m.record_miss("a:p"), Health::Suspect(1));
    }

    #[test]
    fn threshold_clamped_to_one() {
        let mut m = HealthMonitor::new(0);
        assert_eq!(m.record_miss("a:p"), Health::Dead);
    }

    #[test]
    fn addresses_are_independent() {
        let mut m = HealthMonitor::new(2);
        m.record_miss("a:p");
        assert_eq!(m.health("b:q"), Health::Healthy);
        m.forget("a:p");
        assert_eq!(m.health("a:p"), Health::Healthy);
    }

    #[test]
    fn policy_map_defaults_to_restart() {
        let map = SupervisionMap::new();
        assert_eq!(map.get("/npss/shaft"), SupervisionPolicy::RestartInPlace);
        map.set("/npss/shaft", SupervisionPolicy::MigrateTo(vec!["lerc-convex".into()]));
        assert_eq!(
            map.get("/npss/shaft"),
            SupervisionPolicy::MigrateTo(vec!["lerc-convex".into()])
        );
        map.set("/npss/shaft", SupervisionPolicy::Escalate);
        assert_eq!(map.get("/npss/shaft"), SupervisionPolicy::Escalate);
        assert_eq!(map.get("/other"), SupervisionPolicy::RestartInPlace);
    }

    #[test]
    fn checkpoint_store_serves_newest_per_key() {
        let store = CheckpointStore::new();
        assert!(store.is_empty());
        let s1 = Snapshot { state: Bytes::from_static(&[1]), taken_at: 1.0, incarnation: 1 };
        let s2 = Snapshot { state: Bytes::from_static(&[2]), taken_at: 2.0, incarnation: 1 };
        assert!(store.put(7, "/npss/shaft", s1.clone()).is_empty());
        assert!(store.put(7, "/npss/shaft", s2.clone()).is_empty());
        store.put(
            8,
            "/npss/shaft",
            Snapshot { state: Bytes::new(), taken_at: 0.5, incarnation: 3 },
        );
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(7, "/npss/shaft"), Some(s2.clone()));
        assert_eq!(store.history(7, "/npss/shaft"), vec![s1, s2]);
        assert_eq!(
            store.keys(),
            vec![(7, "/npss/shaft".to_owned()), (8, "/npss/shaft".to_owned())]
        );
        store.forget_line(7);
        assert_eq!(store.get(7, "/npss/shaft"), None);
        assert!(store.get(8, "/npss/shaft").is_some());
    }

    #[test]
    fn checkpoint_store_retention_evicts_oldest_and_reports() {
        let store = CheckpointStore::new();
        let snap = |n: u8| Snapshot {
            state: Bytes::from(vec![n]),
            taken_at: f64::from(n),
            incarnation: 1,
        };
        for n in 1..=4 {
            assert!(store.put(1, "/p", snap(n)).is_empty());
        }
        // The fifth write overflows the cap: the oldest is evicted and
        // handed back for journaling.
        assert_eq!(store.put(1, "/p", snap(5)), vec![snap(1)]);
        assert_eq!(store.history(1, "/p"), (2..=5).map(snap).collect::<Vec<_>>());
        assert_eq!(store.get(1, "/p"), Some(snap(5)));
        assert_eq!(store.len(), CHECKPOINT_RETENTION);
        // Other keys have their own windows.
        assert!(store.put(1, "/q", snap(9)).is_empty());
        assert_eq!(store.len(), CHECKPOINT_RETENTION + 1);
    }
}
