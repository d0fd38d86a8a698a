//! Deterministic metrics: named counters and virtual-time histograms.
//!
//! The registry is the bottom layer of the observability substrate. It
//! lives in `netsim` because the transport is the lowest instrumented
//! layer and every higher crate (`schooner`, `mplite`, `npss`) already
//! depends on `netsim`; `schooner::obs` re-exports it as the canonical
//! handle. Everything it records is keyed by **name** and measured in
//! **virtual time**, so two runs of the same seeded simulation produce
//! byte-identical [`MetricsRegistry::snapshot_json`] exports — the
//! determinism tests depend on this, which is also why keys must never
//! embed process-unique identifiers (host names and line-relative call
//! ids are fine; global process counters are not).
//!
//! A hot path resolves its name once into a [`Counter`] or a
//! [`HistogramHandle`] and updates through that: no registry lock and
//! no string comparison per update. A metric enters the snapshot on its
//! first update, whether by handle or by name, so resolving a handle
//! that is never used leaves the export unchanged.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Upper bounds (seconds, virtual time) of the histogram's log-scale
/// buckets; an implicit `+inf` bucket catches the rest. The range spans
/// sub-microsecond local calls up to tens-of-seconds WAN retries.
pub(crate) const BUCKET_BOUNDS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// One named distribution of virtual-time durations.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations, in virtual seconds.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Occupancy per bucket: `buckets[i]` counts observations at or
    /// below `BUCKET_BOUNDS[i]`; the final slot is the `+inf` overflow.
    pub buckets: [u64; BUCKET_BOUNDS.len() + 1],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKET_BOUNDS.len() + 1],
        }
    }
}

impl Histogram {
    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        let slot = BUCKET_BOUNDS.iter().position(|&b| v <= b).unwrap_or(BUCKET_BOUNDS.len());
        self.buckets[slot] += 1;
    }

    /// Arithmetic mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One counter's storage, shared by the registry and every handle.
#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
    /// Set by the first add: only counters that were added to are
    /// exported.
    live: AtomicBool,
}

impl CounterCell {
    fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
        if !self.live.load(Ordering::Relaxed) {
            self.live.store(true, Ordering::Relaxed);
        }
    }
}

/// A counter resolved once by name ([`MetricsRegistry::counter_handle`]).
/// Adding through it is two atomic operations. Cloning is cheap; all
/// clones add to the one counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<CounterCell>,
}

impl Counter {
    /// Add `delta`, exactly as [`MetricsRegistry::counter_add`] under
    /// this counter's name would.
    pub fn add(&self, delta: u64) {
        self.cell.add(delta);
    }
}

/// A histogram resolved once by name
/// ([`MetricsRegistry::histogram_handle`]). Observing through it takes
/// only the histogram's own lock. Cloning is cheap; all clones record
/// into the one histogram.
#[derive(Debug, Clone)]
pub struct HistogramHandle {
    cell: Arc<Mutex<Histogram>>,
}

impl HistogramHandle {
    /// Record one virtual-time duration, exactly as
    /// [`MetricsRegistry::observe`] under this histogram's name would.
    pub fn observe(&self, seconds: f64) {
        lock(&self.cell).observe(seconds);
    }
}

/// A metric name as the registry keeps it: a `'static` name without a
/// copy, any other as an owned string.
type Name = Cow<'static, str>;

/// The cell named `name` in `map`, created on first use.
fn cell<'a, T: Default>(map: &'a mut BTreeMap<Name, Arc<T>>, name: &str) -> &'a Arc<T> {
    if !map.contains_key(name) {
        map.insert(Cow::Owned(name.to_owned()), Arc::default());
    }
    &map[name]
}

/// A handle's cell: [`cell`], with an owned or `'static` name moved in
/// rather than copied.
fn resolve<T: Default>(map: &mut BTreeMap<Name, Arc<T>>, name: Name) -> Arc<T> {
    if let Some(c) = map.get(&*name) {
        return c.clone();
    }
    let c = Arc::<T>::default();
    map.insert(name, c.clone());
    c
}

#[derive(Debug, Default)]
struct Store {
    counters: BTreeMap<Name, Arc<CounterCell>>,
    gauges: BTreeMap<String, i64>,
    /// A histogram with no observation yet is not exported.
    histograms: BTreeMap<Name, Arc<Mutex<Histogram>>>,
}

/// A shared registry of named counters and virtual-time histograms.
/// Cloning is cheap; all clones share storage.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    store: Arc<Mutex<Store>>,
}

/// Take the guard even when a previous holder panicked: metrics are
/// monotonic aggregates, so a half-applied update is still usable and a
/// poisoned lock must not cascade the panic into every later reader.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter, creating it at zero first.
    pub fn counter_add(&self, name: &str, delta: u64) {
        cell(&mut lock(&self.store).counters, name).add(delta);
    }

    /// The named counter as a handle, for a path that adds to it often.
    /// Resolving does not export the counter; its first add does.
    pub fn counter_handle(&self, name: impl Into<Cow<'static, str>>) -> Counter {
        Counter { cell: resolve(&mut lock(&self.store).counters, name.into()) }
    }

    /// Current value of a counter (0 when it has never been touched).
    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.store).counters.get(name).map_or(0, |c| c.value.load(Ordering::Relaxed))
    }

    /// Set the named gauge to an instantaneous level (queue depths, busy
    /// workers). Unlike counters, gauges move both ways.
    pub fn gauge_set(&self, name: &str, value: i64) {
        lock(&self.store).gauges.insert(name.to_owned(), value);
    }

    /// Add `delta` (possibly negative) to the named gauge, creating it
    /// at zero first.
    pub fn gauge_add(&self, name: &str, delta: i64) {
        let mut s = lock(&self.store);
        match s.gauges.get_mut(name) {
            Some(g) => *g += delta,
            None => {
                s.gauges.insert(name.to_owned(), delta);
            }
        }
    }

    /// Current level of a gauge (0 when it has never been set).
    pub fn gauge(&self, name: &str) -> i64 {
        lock(&self.store).gauges.get(name).copied().unwrap_or(0)
    }

    /// Record one virtual-time duration into the named histogram.
    pub fn observe(&self, name: &str, seconds: f64) {
        lock(cell(&mut lock(&self.store).histograms, name)).observe(seconds);
    }

    /// The named histogram as a handle, for a path that observes it
    /// often. Resolving does not export the histogram; its first
    /// observation does.
    pub fn histogram_handle(&self, name: impl Into<Cow<'static, str>>) -> HistogramHandle {
        HistogramHandle { cell: resolve(&mut lock(&self.store).histograms, name.into()) }
    }

    /// Snapshot of a histogram, if it has ever been observed.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        let s = lock(&self.store);
        let h = lock(s.histograms.get(name)?).clone();
        (h.count > 0).then_some(h)
    }

    /// Deterministic JSON export: keys in sorted (BTreeMap) order,
    /// floats in Rust's shortest-roundtrip `Display` form, two-space
    /// indentation. Identical simulations yield identical bytes.
    pub fn snapshot_json(&self) -> String {
        self.snapshot_json_excluding(&[])
    }

    /// [`snapshot_json`](Self::snapshot_json) with every key starting
    /// with one of `skip_prefixes` omitted. Lets equivalence tests
    /// compare two runs byte-for-byte while ignoring mechanism-specific
    /// families (e.g. `net.batch.` when diffing batched vs unbatched).
    pub fn snapshot_json_excluding(&self, skip_prefixes: &[&str]) -> String {
        let skip = |name: &str| skip_prefixes.iter().any(|p| name.starts_with(p));
        let s = lock(&self.store);
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        let mut first = true;
        for (name, cell) in &s.counters {
            if skip(name) || !cell.live.load(Ordering::Relaxed) {
                continue;
            }
            let value = cell.value.load(Ordering::Relaxed);
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    {}: {value}", json_string(name));
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        first = true;
        for (name, value) in &s.gauges {
            if skip(name) {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    {}: {value}", json_string(name));
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        first = true;
        for (name, h) in &s.histograms {
            let h = lock(h);
            if skip(name) || h.count == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                json_string(name),
                h.count,
                json_f64(h.sum),
                json_f64(h.min),
                json_f64(h.max)
            );
            for (i, b) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// Escape a metric name as a JSON string literal. Names are ASCII
/// identifiers with `.`, `->`, and host punctuation, but escape the
/// general cases anyway so the export is always valid JSON.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a float for JSON. JSON has no infinities; an empty histogram
/// never reaches the export path, but clamp defensively to `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers like `3` are valid JSON numbers already.
        s
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let m = MetricsRegistry::new();
        assert_eq!(m.counter("rpc.calls"), 0);
        m.counter_add("rpc.calls", 2);
        m.counter_add("rpc.calls", 3);
        assert_eq!(m.counter("rpc.calls"), 5);
    }

    #[test]
    fn clones_share_storage() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m.counter_add("x", 1);
        m2.counter_add("x", 1);
        assert_eq!(m.counter("x"), 2);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let m = MetricsRegistry::new();
        m.observe("lat", 0.002);
        m.observe("lat", 0.5);
        m.observe("lat", 0.0005);
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.count, 3);
        assert!((h.sum - 0.5025).abs() < 1e-12);
        assert_eq!(h.min, 0.0005);
        assert_eq!(h.max, 0.5);
        assert!((h.mean() - 0.5025 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_are_log_scale_with_overflow() {
        let m = MetricsRegistry::new();
        m.observe("lat", 5e-7); // <= 1e-6 -> bucket 0
        m.observe("lat", 5e-3); // <= 1e-2 -> bucket 4
        m.observe("lat", 100.0); // overflow
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.buckets[BUCKET_BOUNDS.len()], 1);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let m = MetricsRegistry::new();
        m.counter_add("zeta", 1);
        m.counter_add("alpha", 2);
        m.observe("lat.b->a", 0.25);
        let a = m.snapshot_json();
        let b = m.snapshot_json();
        assert_eq!(a, b);
        let alpha = a.find("\"alpha\"").unwrap();
        let zeta = a.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "counters must be name-sorted");
        assert!(a.contains("\"lat.b->a\""));
        assert!(a.trim_end().ends_with('}'));
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let m = MetricsRegistry::new();
        assert_eq!(
            m.snapshot_json(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n"
        );
    }

    #[test]
    fn gauges_set_add_and_export() {
        let m = MetricsRegistry::new();
        assert_eq!(m.gauge("pool.queue_depth"), 0);
        m.gauge_set("pool.queue_depth", 3);
        m.gauge_add("pool.queue_depth", -1);
        m.gauge_add("pool.busy_workers", 2);
        assert_eq!(m.gauge("pool.queue_depth"), 2);
        assert_eq!(m.gauge("pool.busy_workers"), 2);
        let snap = m.snapshot_json();
        assert!(snap.contains("\"pool.queue_depth\": 2"));
        // Gauges honor the exclusion prefixes like every other family.
        assert!(!m.snapshot_json_excluding(&["pool."]).contains("pool.queue_depth"));
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = MetricsRegistry::new();
        m.counter_add("x", 1);
        let m2 = m.clone();
        let poisoner = std::thread::Builder::new()
            .name("metrics-poisoner".into())
            .spawn(move || {
                let _guard = m2.store.lock().unwrap();
                panic!("poison the registry lock");
            })
            .unwrap();
        assert!(poisoner.join().is_err(), "poisoner must panic to poison the lock");
        // Readers and writers keep working after the panic.
        m.counter_add("x", 1);
        assert_eq!(m.counter("x"), 2);
        assert!(m.snapshot_json().contains("\"x\": 2"));
    }

    /// Two registries fed the same updates, one by name and one through
    /// handles, export the same bytes; handles resolved and never used
    /// export nothing, exactly like names the registry never saw.
    #[test]
    fn handles_export_exactly_what_names_do() {
        let (named, handled) = (MetricsRegistry::new(), MetricsRegistry::new());
        let idle = handled.counter_handle("rpc.retries.stale");
        let idle_h = handled.histogram_handle("rpc.call_s.a->c");
        assert_eq!(handled.snapshot_json(), MetricsRegistry::new().snapshot_json());
        assert_eq!(
            (handled.counter("rpc.retries.stale"), handled.histogram("rpc.call_s.a->c")),
            (0, None)
        );

        let (calls, lat) = (handled.counter_handle("rpc.calls"), handled.histogram_handle("lat"));
        for (delta, v) in [(1, 0.002), (0, 0.5), (3, 0.0005)] {
            named.counter_add("rpc.calls", delta);
            named.observe("lat", v);
            calls.add(delta);
            lat.observe(v);
        }
        named.counter_add("zero", 0);
        handled.counter_handle("zero").add(0);
        assert_eq!(handled.snapshot_json(), named.snapshot_json());
        assert_eq!(handled.counter("rpc.calls"), 4);
        assert_eq!(handled.histogram("lat"), named.histogram("lat"));

        // A handle and the name reach the same counter.
        handled.counter_add("rpc.calls", 1);
        calls.clone().add(1);
        assert_eq!(handled.counter("rpc.calls"), 6);
        drop((idle, idle_h));
    }
}
