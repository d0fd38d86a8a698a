//! The typed observability substrate.
//!
//! One [`Obs`] handle per simulated world unifies the three kinds of
//! instrumentation the runtime produces:
//!
//! * **events** — a time-ordered log of typed [`EventKind`] records
//!   (RPC lifecycle, supervision, engine recovery), off by default;
//!   [`Obs::render`] prints it as the `(t, who, what)` control-flow
//!   transcript the examples and Figure 1 show;
//! * **spans** — per-call [`CallSpan`]s keyed by `(line, call id)` that
//!   aggregate virtual-time durations per [`Phase`], feeding the
//!   Figure-1 breakdowns and the `costs` CLI without string parsing;
//! * **metrics** — the shared [`MetricsRegistry`] (adopted from the
//!   world's [`Network`](netsim::Network), so transport counters land in
//!   the same snapshot), always on, exported as deterministic JSON.

pub mod codec;
mod event;
mod span;

pub use event::{EventKind, ObsEvent};
pub use span::{critical_path, CallSpan, CriticalPath, Phase, SpanWave, PHASES, PHASE_COUNT};

pub use ledger::LedgerHandle;
pub use netsim::metrics::{Histogram, MetricsRegistry};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use span::SpanTable;

struct ObsInner {
    enabled: AtomicBool,
    events: Mutex<Vec<ObsEvent>>,
    spans: Mutex<SpanTable>,
    metrics: MetricsRegistry,
    ledger: LedgerHandle,
}

/// Shared, cheaply cloneable observability sink. Event recording is
/// disabled by default; spans and metrics are always on — they are
/// aggregates, not logs, so their cost is a few arithmetic operations
/// per call.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::with_metrics(MetricsRegistry::new())
    }
}

/// Recover the guard even when a previous holder panicked: the sink
/// holds append-only aggregates, so a half-pushed log is still readable
/// and one panicking thread must not poison every later reader.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Obs {
    /// A sink with its own private metrics registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink recording metrics into an existing registry — the world's
    /// network registry, so transport and RPC metrics share a snapshot.
    pub fn with_metrics(metrics: MetricsRegistry) -> Self {
        Self {
            inner: Arc::new(ObsInner {
                enabled: AtomicBool::new(false),
                events: Mutex::new(Vec::new()),
                spans: Mutex::new(SpanTable::default()),
                metrics,
                ledger: LedgerHandle::new(),
            }),
        }
    }

    /// The durable-journal handle this sink writes through. Unattached
    /// by default (journaling costs nothing); once a journal is
    /// attached — see `Schooner::attach_journal` — **every** emitted
    /// event is appended to it, independent of the in-memory event
    /// log's enabled flag: the journal is the durable record, not a
    /// debugging aid.
    pub fn ledger(&self) -> &LedgerHandle {
        &self.inner.ledger
    }

    // ----- events -----

    /// Turn event recording on or off (spans and metrics are unaffected).
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Release);
    }

    /// Whether event recording is on.
    pub(crate) fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Acquire)
    }

    /// Record a typed event. The in-memory log only keeps it while
    /// enabled; an attached journal records it unconditionally, encoding
    /// it straight into the journal's buffer (events are written at the
    /// journal's next commit).
    pub fn emit(&self, t: f64, kind: EventKind) {
        self.inner.ledger.append_event(t, |buf| codec::encode_event_into(buf, &kind));
        if self.is_enabled() {
            lock(&self.inner.events).push(ObsEvent { t, kind });
        }
    }

    /// Snapshot of all events, sorted by time (stable for ties; NaN
    /// timestamps sort last via `total_cmp` instead of panicking).
    pub fn events(&self) -> Vec<ObsEvent> {
        let mut v = lock(&self.inner.events).clone();
        v.sort_by(|a, b| a.t.total_cmp(&b.t));
        v
    }

    /// Drop all recorded events (spans and metrics are unaffected).
    pub fn clear_events(&self) {
        lock(&self.inner.events).clear();
    }

    /// Render the event log as a control-flow listing, one
    /// `[time] who what` line per event in [`Obs::events`] order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&format!("[{:>10.6}s] {:<24} {}\n", e.t, e.kind.who(), e.kind));
        }
        out
    }

    // ----- spans -----

    /// Open a call span keyed by `(line, call)`. A line has one call in
    /// flight, so this replaces any span the line left open. Spans are
    /// kept in one slot per line id up to the largest seen: line ids are
    /// the small sequential ones the Manager hands out.
    pub fn span_start(
        &self,
        line: u64,
        call: u64,
        proc: &str,
        from_host: &str,
        to_host: &str,
        t: f64,
    ) {
        let metrics = &self.inner.metrics;
        lock(&self.inner.spans).start(metrics, line, call, proc, from_host, to_host, t);
    }

    /// Attribute virtual seconds to one phase of an open span. Callable
    /// from either side of the wire; a no-op when the span is gone.
    pub fn span_phase(&self, line: u64, call: u64, phase: Phase, seconds: f64) {
        lock(&self.inner.spans).phase(line, call, phase, seconds);
    }

    /// Close a span successfully, feeding the per-machine-pair latency
    /// histogram `rpc.call_s.{from}->{to}`. The observed duration is
    /// quantized to a nanosecond grid so it depends only on the call's
    /// length, not on the absolute instant it started: `end - start`
    /// picks up last-ULP rounding from the start time, which would make
    /// overlapped and serialized schedules of the same calls produce
    /// different snapshots. The model's latencies are microseconds and
    /// up, so the grid is far below resolution.
    pub fn span_end(&self, line: u64, call: u64, t: f64) {
        if let Some((call_s, total)) = lock(&self.inner.spans).end(line, call, t) {
            call_s.observe((total * 1e9).round() / 1e9);
        }
    }

    /// Drop the open span of a failed call attempt.
    pub fn span_abandon(&self, line: u64, call: u64) {
        lock(&self.inner.spans).abandon(line, call);
    }

    /// All completed spans, sorted by `(line, call)` — a deterministic
    /// order for identical simulations.
    pub fn completed_spans(&self) -> Vec<CallSpan> {
        lock(&self.inner.spans).completed()
    }

    /// Completed spans belonging to one line.
    pub fn spans_for_line(&self, line: u64) -> Vec<CallSpan> {
        let mut v = self.completed_spans();
        v.retain(|s| s.line == line);
        v
    }

    /// Drop all span state (events and metrics are unaffected).
    pub fn clear_spans(&self) {
        lock(&self.inner.spans).clear();
    }

    // ----- metrics -----

    /// The metrics registry this sink records into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_gated_by_enabled() {
        let obs = Obs::new();
        obs.emit(1.0, EventKind::ManagerShutdown);
        assert!(obs.events().is_empty());
        obs.set_enabled(true);
        obs.emit(2.0, EventKind::ManagerShutdown);
        obs.emit(1.0, EventKind::ProcessShutdown { addr: "a".into() });
        let ev = obs.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].t, 1.0, "events sort by time");
        obs.clear_events();
        assert!(obs.events().is_empty());
    }

    #[test]
    fn render_lists_events_in_time_order_with_nan_last() {
        let obs = Obs::new();
        obs.set_enabled(true);
        obs.emit(f64::NAN, EventKind::ProcessShutdown { addr: "broken".into() });
        obs.emit(
            0.25,
            EventKind::CallIssued {
                line: 1,
                proc: "DOUBLE".into(),
                addr: "lerc-cray-ymp:proc-3".into(),
            },
        );
        obs.emit(0.125, EventKind::ManagerShutdown);
        let rendered = obs.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("[  0.125000s] manager "), "{rendered}");
        assert_eq!(
            lines[1],
            "[  0.250000s] line-1                   call DOUBLE -> lerc-cray-ymp:proc-3"
        );
        assert!(lines[2].contains("broken"), "a NaN stamp sorts last, it does not panic");
    }

    #[test]
    fn span_end_feeds_pair_histogram() {
        let obs = Obs::new();
        obs.span_start(1, 1, "duct", "ua-sparc10", "lerc-cray-ymp", 0.0);
        obs.span_phase(1, 1, Phase::Compute, 0.01);
        obs.span_end(1, 1, 0.05);
        let h = obs.metrics().histogram("rpc.call_s.ua-sparc10->lerc-cray-ymp").unwrap();
        assert_eq!(h.count, 1);
        assert!((h.sum - 0.05).abs() < 1e-12);
        assert_eq!(obs.completed_spans().len(), 1);
        assert_eq!(obs.spans_for_line(1).len(), 1);
        assert!(obs.spans_for_line(2).is_empty());
    }

    #[test]
    fn abandoned_span_records_no_histogram() {
        let obs = Obs::new();
        obs.span_start(1, 1, "duct", "a", "b", 0.0);
        obs.span_abandon(1, 1);
        assert!(obs.metrics().histogram("rpc.call_s.a->b").is_none());
    }

    #[test]
    fn adopted_registry_is_shared() {
        let reg = MetricsRegistry::new();
        let obs = Obs::with_metrics(reg.clone());
        obs.metrics().counter_add("x", 1);
        assert_eq!(reg.counter("x"), 1);
    }

    #[test]
    fn journal_sink_records_even_while_disabled() {
        let obs = Obs::new();
        let path = std::env::temp_dir().join(format!("obs-journal-sink-{}", std::process::id()));
        obs.ledger().attach(ledger::Journal::create(&path).unwrap()).unwrap();
        // Event recording is off, but the journal still gets the event —
        // buffered until the journal's next commit.
        obs.emit(1.0, EventKind::ManagerShutdown);
        assert!(obs.events().is_empty());
        assert!(ledger::replay(&path).unwrap().records.is_empty(), "not on disk before a commit");
        obs.ledger().commit().unwrap();
        let replayed = ledger::replay(&path).unwrap();
        assert_eq!(replayed.records.len(), 1);
        match &replayed.records[0].kind {
            ledger::RecordKind::Event { payload } => {
                assert_eq!(codec::decode_event(payload).unwrap(), EventKind::ManagerShutdown);
            }
            other => panic!("expected an event record, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn poisoned_event_lock_recovers() {
        let obs = Obs::new();
        obs.set_enabled(true);
        obs.emit(1.0, EventKind::ManagerShutdown);
        let obs2 = obs.clone();
        let poisoner = std::thread::Builder::new()
            .name("obs-poisoner".into())
            .spawn(move || {
                let _guard = obs2.inner.events.lock().unwrap();
                panic!("poison the event lock");
            })
            .unwrap();
        assert!(poisoner.join().is_err(), "poisoner must panic to poison the lock");
        obs.emit(2.0, EventKind::ManagerShutdown);
        assert_eq!(obs.events().len(), 2);
    }
}
