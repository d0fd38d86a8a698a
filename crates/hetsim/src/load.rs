//! Dynamic per-host load.
//!
//! The paper motivates procedure migration with machines "approaching a
//! scheduled down time" or whose "load ... grows too large". This model
//! keeps a settable load average per host that scales compute time;
//! experiment drivers raise it mid-run to justify a move.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One host's load, an `f64` held as its bits in an atomic cell. The
/// model and every [`HostCost`](crate::HostCost) of the host share it.
#[derive(Clone, Default)]
pub(crate) struct LoadCell(Arc<AtomicU64>);

impl LoadCell {
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }

    fn set(&self, load: f64) {
        self.0.store(load.to_bits(), Ordering::Release);
    }

    fn add(&self, delta: f64) -> f64 {
        let next = |bits| (f64::from_bits(bits) + delta).max(0.0);
        let step = |bits| Some(next(bits).to_bits());
        // `step` never refuses, so the update always lands.
        let prev = self.0.fetch_update(Ordering::AcqRel, Ordering::Acquire, step);
        next(prev.unwrap_or_else(|bits| bits))
    }
}

/// Shared, mutable load state. Load is a non-negative "competing jobs"
/// figure: effective speed = nominal / (1 + load).
#[derive(Clone, Default)]
pub struct LoadModel {
    inner: Arc<RwLock<HashMap<String, LoadCell>>>,
}

impl LoadModel {
    /// All hosts idle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current load of `host` (0 when never set).
    pub fn get(&self, host: &str) -> f64 {
        self.inner.read().unwrap().get(host).map_or(0.0, LoadCell::get)
    }

    /// Set the load of `host`; negative values clamp to 0.
    pub fn set(&self, host: &str, load: f64) {
        self.cell(host).set(load.max(0.0));
    }

    /// Add to the load of `host` (may be negative; clamps at 0).
    pub fn add(&self, host: &str, delta: f64) -> f64 {
        self.cell(host).add(delta)
    }

    /// The load cell of `host`, created idle on first use.
    pub(crate) fn cell(&self, host: &str) -> LoadCell {
        if let Some(cell) = self.inner.read().unwrap().get(host) {
            return cell.clone();
        }
        self.inner.write().unwrap().entry(host.to_owned()).or_default().clone()
    }

    /// The host with the lowest load among `candidates` (ties broken by
    /// name for determinism). `None` if `candidates` is empty.
    pub fn least_loaded<'a>(
        &self,
        candidates: impl IntoIterator<Item = &'a str>,
    ) -> Option<&'a str> {
        let map = self.inner.read().unwrap();
        let load = |host: &str| map.get(host).map_or(0.0, LoadCell::get);
        candidates
            .into_iter()
            .min_by(|a, b| load(a).partial_cmp(&load(b)).unwrap().then_with(|| a.cmp(b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_idle() {
        let lm = LoadModel::new();
        assert_eq!(lm.get("anything"), 0.0);
    }

    #[test]
    fn set_and_get() {
        let lm = LoadModel::new();
        lm.set("a", 2.5);
        assert_eq!(lm.get("a"), 2.5);
        lm.set("a", -1.0);
        assert_eq!(lm.get("a"), 0.0);
    }

    #[test]
    fn add_accumulates_and_clamps() {
        let lm = LoadModel::new();
        assert_eq!(lm.add("a", 1.0), 1.0);
        assert_eq!(lm.add("a", 0.5), 1.5);
        assert_eq!(lm.add("a", -9.0), 0.0);
    }

    #[test]
    fn least_loaded_picks_minimum_deterministically() {
        let lm = LoadModel::new();
        lm.set("b", 1.0);
        lm.set("c", 0.5);
        assert_eq!(lm.least_loaded(["b", "c"]), Some("c"));
        // Tie: alphabetical.
        assert_eq!(lm.least_loaded(["z-idle", "a-idle"]), Some("a-idle"));
        assert_eq!(lm.least_loaded(std::iter::empty()), None);
    }

    #[test]
    fn clones_share_state() {
        let lm = LoadModel::new();
        let lm2 = lm.clone();
        lm.set("a", 3.0);
        assert_eq!(lm2.get("a"), 3.0);
    }
}
