//! Hierarchical RPC call spans.
//!
//! Every remote call attempt opens a span keyed by `(line, call id)`.
//! Both sides of the wire attribute virtual-time durations to it by
//! [`Phase`]: the caller records marshal, transmit, reply-transit, and
//! unmarshal time; the serving process records its compute time (the
//! request message carries the line and call id, so the attribution
//! needs no string matching). A span closes when the caller unmarshals
//! the reply; attempts that error out are abandoned, so the
//! completed set holds exactly the successful calls. Figure-1 breakdowns
//! and the `costs` CLI read these spans instead of parsing trace text.
//!
//! A line has at most one call in flight, so the open spans live in one
//! slot per line, found by indexing with the line id; the call id is
//! checked on every access. Each slot keeps the names and histogram of
//! its line's last span, so a line calling the same procedure again
//! opens its span without hashing a name.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use netsim::metrics::{HistogramHandle, MetricsRegistry};

/// A per-phase attribution slot within a call span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Caller-side argument marshaling into UTS wire format.
    Marshal,
    /// Request transit time across the simulated network.
    Transmit,
    /// Serving-side time: input conversion, procedure flops, output
    /// conversion — everything charged at the remote process.
    Compute,
    /// Reply transit time back across the network.
    Reply,
    /// Caller-side result unmarshaling.
    Unmarshal,
}

/// Number of [`Phase`] slots.
pub const PHASE_COUNT: usize = 5;

/// All phases, in lifecycle order.
pub const PHASES: [Phase; PHASE_COUNT] =
    [Phase::Marshal, Phase::Transmit, Phase::Compute, Phase::Reply, Phase::Unmarshal];

impl Phase {
    fn index(self) -> usize {
        match self {
            Phase::Marshal => 0,
            Phase::Transmit => 1,
            Phase::Compute => 2,
            Phase::Reply => 3,
            Phase::Unmarshal => 4,
        }
    }

    /// Short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Marshal => "marshal",
            Phase::Transmit => "transmit",
            Phase::Compute => "compute",
            Phase::Reply => "reply",
            Phase::Unmarshal => "unmarshal",
        }
    }
}

/// One remote call's span: identity, endpoints, bounds, and the
/// virtual-time durations attributed to each phase.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSpan {
    /// Calling line.
    pub line: u64,
    /// The line's call id (unique within the line).
    pub call: u64,
    /// Remote procedure name. The three names of a span are shared with
    /// every other span that carries the same text.
    pub proc: Arc<str>,
    /// Caller's host.
    pub from_host: Arc<str>,
    /// Serving host.
    pub to_host: Arc<str>,
    /// Caller's virtual time when the call began.
    pub started_at: f64,
    /// Caller's virtual time when the reply was unmarshaled.
    pub ended_at: f64,
    phases: [f64; PHASE_COUNT],
}

impl CallSpan {
    /// Total virtual duration of the call at the caller.
    pub fn total(&self) -> f64 {
        self.ended_at - self.started_at
    }

    /// Virtual seconds attributed to one phase.
    pub fn phase(&self, p: Phase) -> f64 {
        self.phases[p.index()]
    }

    /// Total minus all attributed phases: protocol/bookkeeping residue.
    pub fn overhead(&self) -> f64 {
        self.total() - self.phases.iter().sum::<f64>()
    }
}

/// One wave of temporally overlapping spans: a connected component of
/// the interval-overlap graph over `[started_at, ended_at)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanWave {
    /// The member spans, in start order (ties by `(line, call)`).
    pub spans: Vec<CallSpan>,
    /// Earliest start in the wave.
    pub started_at: f64,
    /// Latest end in the wave.
    pub ended_at: f64,
}

impl SpanWave {
    /// Number of overlapped calls.
    pub fn width(&self) -> usize {
        self.spans.len()
    }

    /// Wall (virtual) duration of the wave: latest end minus earliest
    /// start — what the wave costs on the critical path.
    pub fn makespan(&self) -> f64 {
        self.ended_at - self.started_at
    }

    /// The longest member span — the wave's critical call.
    pub fn critical(&self) -> &CallSpan {
        self.spans
            .iter()
            .max_by(|a, b| a.total().total_cmp(&b.total()))
            .expect("waves are non-empty")
    }
}

/// Critical-path analysis of a set of completed spans.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The overlap waves, in time order.
    pub waves: Vec<SpanWave>,
    /// Sum of every span's duration — the cost if nothing overlapped.
    pub serial_s: f64,
    /// Sum of wave makespans — the cost given the overlap that actually
    /// happened.
    pub critical_s: f64,
}

impl CriticalPath {
    /// How much the overlap bought: serial over critical (1.0 when no
    /// calls overlapped).
    pub fn speedup(&self) -> f64 {
        if self.critical_s > 0.0 {
            self.serial_s / self.critical_s
        } else {
            1.0
        }
    }
}

/// Group completed spans into overlap waves and total up the critical
/// path. Spans on different lines overlap when their virtual-time
/// intervals do — exactly what split-phase issue/collect produces — so
/// the result shows where a schedule actually ran calls concurrently.
pub fn critical_path(spans: &[CallSpan]) -> CriticalPath {
    let mut sorted: Vec<CallSpan> = spans.to_vec();
    sorted.sort_by(|a, b| {
        a.started_at.total_cmp(&b.started_at).then_with(|| (a.line, a.call).cmp(&(b.line, b.call)))
    });
    let mut waves: Vec<SpanWave> = Vec::new();
    for span in sorted {
        match waves.last_mut() {
            // Strictly-before comparison: a span starting exactly when
            // the wave ends is sequential, not overlapped.
            Some(wave) if span.started_at < wave.ended_at => {
                wave.ended_at = wave.ended_at.max(span.ended_at);
                wave.spans.push(span);
            }
            _ => waves.push(SpanWave {
                started_at: span.started_at,
                ended_at: span.ended_at,
                spans: vec![span],
            }),
        }
    }
    let serial_s = spans.iter().map(CallSpan::total).sum();
    let critical_s = waves.iter().map(SpanWave::makespan).sum();
    CriticalPath { waves, serial_s, critical_s }
}

/// The names a span carries and the histogram it closes into.
#[derive(Debug, Clone)]
struct Route {
    proc: Arc<str>,
    from_host: Arc<str>,
    to_host: Arc<str>,
    /// `rpc.call_s.{from_host}->{to_host}`.
    call_s: HistogramHandle,
}

impl Route {
    fn joins(&self, from_host: &str, to_host: &str) -> bool {
        *self.from_host == *from_host && *self.to_host == *to_host
    }
}

/// One line's open span and the route of its last one.
#[derive(Debug, Default)]
struct LineSlot {
    open: Option<CallSpan>,
    last: Option<Route>,
}

/// The slot of `line` when its open span is the one of `call`.
fn open_slot(lines: &mut [LineSlot], line: u64, call: u64) -> Option<&mut LineSlot> {
    let slot = lines.get_mut(usize::try_from(line).ok()?)?;
    slot.open.as_ref().is_some_and(|s| s.call == call).then_some(slot)
}

/// Open and completed spans. Interior to [`Obs`](super::Obs), which
/// wraps it in a poison-recovering mutex.
#[derive(Debug, Default)]
pub(crate) struct SpanTable {
    /// Indexed by line id.
    lines: Vec<LineSlot>,
    done: Vec<CallSpan>,
    /// Every procedure and host name a span has carried, so opening a
    /// span shares the text instead of copying it.
    names: HashSet<Arc<str>>,
    /// The `rpc.call_s.` histogram of each host pair seen.
    call_s: HashMap<(Arc<str>, Arc<str>), HistogramHandle>,
}

impl SpanTable {
    /// Open the span of `call` on `line`, replacing any span the line
    /// left open. The `rpc.call_s.` histogram of a host pair not seen
    /// before is resolved in `metrics`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        &mut self,
        metrics: &MetricsRegistry,
        line: u64,
        call: u64,
        proc: &str,
        from_host: &str,
        to_host: &str,
        t: f64,
    ) {
        let idx = line as usize;
        if self.lines.len() <= idx {
            self.lines.resize_with(idx + 1, LineSlot::default);
        }
        let route = match self.lines[idx].last.take() {
            Some(r) if *r.proc == *proc && r.joins(from_host, to_host) => r,
            last => self.route(metrics, last, proc, from_host, to_host),
        };
        let slot = &mut self.lines[idx];
        slot.open = Some(CallSpan {
            line,
            call,
            proc: route.proc.clone(),
            from_host: route.from_host.clone(),
            to_host: route.to_host.clone(),
            started_at: t,
            ended_at: t,
            phases: [0.0; PHASE_COUNT],
        });
        slot.last = Some(route);
    }

    /// The route of a span whose names differ from its line's last one:
    /// names are shared through the intern set, and the histogram is the
    /// last route's when the hosts are the same.
    fn route(
        &mut self,
        metrics: &MetricsRegistry,
        last: Option<Route>,
        proc: &str,
        from_host: &str,
        to_host: &str,
    ) -> Route {
        let proc = self.intern(proc);
        if let Some(r) = last.filter(|r| r.joins(from_host, to_host)) {
            return Route { proc, ..r };
        }
        let from_host = self.intern(from_host);
        let to_host = self.intern(to_host);
        let call_s = self
            .call_s
            .entry((from_host.clone(), to_host.clone()))
            .or_insert_with(|| {
                metrics.histogram_handle(format!("rpc.call_s.{from_host}->{to_host}"))
            })
            .clone();
        Route { proc, from_host, to_host, call_s }
    }

    fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(shared) = self.names.get(name) {
            return shared.clone();
        }
        let shared: Arc<str> = name.into();
        self.names.insert(shared.clone());
        shared
    }

    /// Attribute `seconds` to `phase`; a no-op when no span is open for
    /// the key (e.g. compute time of a call whose caller already gave
    /// up).
    pub(crate) fn phase(&mut self, line: u64, call: u64, phase: Phase, seconds: f64) {
        if let Some(span) = open_slot(&mut self.lines, line, call).and_then(|s| s.open.as_mut()) {
            span.phases[phase.index()] += seconds;
        }
    }

    /// Close the span; returns its histogram and total duration.
    pub(crate) fn end(&mut self, line: u64, call: u64, t: f64) -> Option<(&HistogramHandle, f64)> {
        let slot = open_slot(&mut self.lines, line, call)?;
        let mut span = slot.open.take()?;
        span.ended_at = t;
        let total = span.total();
        self.done.push(span);
        Some((&slot.last.as_ref()?.call_s, total))
    }

    /// Drop the open span of a failed attempt.
    pub(crate) fn abandon(&mut self, line: u64, call: u64) {
        if let Some(slot) = open_slot(&mut self.lines, line, call) {
            slot.open = None;
        }
    }

    pub(crate) fn completed(&self) -> Vec<CallSpan> {
        let mut v = self.done.clone();
        v.sort_by_key(|s| (s.line, s.call));
        v
    }

    pub(crate) fn clear(&mut self) {
        for slot in &mut self.lines {
            slot.open = None;
        }
        self.done.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_lifecycle_accumulates_phases() {
        let (m, mut t) = (MetricsRegistry::new(), SpanTable::default());
        t.start(&m, 1, 10, "duct", "ua-sparc10", "lerc-cray-ymp", 5.0);
        t.phase(1, 10, Phase::Marshal, 0.001);
        t.phase(1, 10, Phase::Transmit, 0.02);
        t.phase(1, 10, Phase::Compute, 0.003);
        t.phase(1, 10, Phase::Reply, 0.02);
        t.phase(1, 10, Phase::Unmarshal, 0.001);
        let (call_s, total) = t.end(1, 10, 5.05).unwrap();
        call_s.observe(total);
        assert!(m.histogram("rpc.call_s.ua-sparc10->lerc-cray-ymp").is_some());
        assert!((total - 0.05).abs() < 1e-12);
        let span = &t.completed()[0];
        assert_eq!(&*span.proc, "duct");
        assert!((span.total() - 0.05).abs() < 1e-12);
        assert!((span.phase(Phase::Transmit) - 0.02).abs() < 1e-12);
        assert!((span.overhead() - (0.05 - 0.045)).abs() < 1e-12);
        assert_eq!(t.completed().len(), 1);
    }

    #[test]
    fn abandoned_spans_do_not_complete() {
        let (m, mut t) = (MetricsRegistry::new(), SpanTable::default());
        t.start(&m, 1, 1, "p", "a", "b", 0.0);
        t.abandon(1, 1);
        // Abandoning an unknown key is a no-op.
        t.abandon(9, 9);
        assert!(t.end(1, 1, 1.0).is_none());
        assert!(t.completed().is_empty());
    }

    #[test]
    fn phase_on_missing_span_is_noop() {
        let mut t = SpanTable::default();
        t.phase(7, 7, Phase::Compute, 1.0);
        assert!(t.completed().is_empty());
    }

    fn span(line: u64, start: f64, end: f64) -> CallSpan {
        CallSpan {
            line,
            call: 1,
            proc: "p".into(),
            from_host: "a".into(),
            to_host: "b".into(),
            started_at: start,
            ended_at: end,
            phases: [0.0; PHASE_COUNT],
        }
    }

    #[test]
    fn critical_path_groups_overlapping_spans() {
        // Two overlapped calls, then a gap, then a lone call.
        let spans = [span(1, 0.0, 1.0), span(2, 0.5, 2.0), span(3, 2.0, 3.0)];
        let cp = critical_path(&spans);
        assert_eq!(cp.waves.len(), 2);
        assert_eq!(cp.waves[0].width(), 2);
        assert_eq!(cp.waves[0].makespan(), 2.0);
        assert_eq!(cp.waves[0].critical().line, 2);
        assert_eq!(cp.waves[1].width(), 1, "touching intervals stay sequential");
        assert_eq!(cp.serial_s, 3.5);
        assert_eq!(cp.critical_s, 3.0);
        assert!((cp.speedup() - 3.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn critical_path_of_nothing_is_empty() {
        let cp = critical_path(&[]);
        assert!(cp.waves.is_empty());
        assert_eq!(cp.serial_s, 0.0);
        assert_eq!(cp.speedup(), 1.0);
    }

    #[test]
    fn completed_sorted_by_line_then_call() {
        let (m, mut t) = (MetricsRegistry::new(), SpanTable::default());
        for (line, call) in [(2, 1), (1, 2), (1, 1)] {
            t.start(&m, line, call, "p", "a", "b", 0.0);
            t.end(line, call, 1.0);
        }
        let done = t.completed();
        let keys: Vec<(u64, u64)> = done.iter().map(|s| (s.line, s.call)).collect();
        assert_eq!(keys, vec![(1, 1), (1, 2), (2, 1)]);
    }

    /// A line's slot answers only to its open call: another call id is
    /// ignored, and a new call replaces a span the line left open.
    #[test]
    fn a_line_slot_answers_only_to_its_open_call() {
        let (m, mut t) = (MetricsRegistry::new(), SpanTable::default());
        t.start(&m, 3, 1, "p", "a", "b", 0.0);
        t.phase(3, 2, Phase::Compute, 1.0);
        t.abandon(3, 2);
        assert!(t.end(3, 2, 1.0).is_none());
        t.start(&m, 3, 2, "q", "a", "c", 0.5);
        assert!(t.end(3, 1, 1.0).is_none(), "replaced by call 2");
        t.phase(3, 2, Phase::Compute, 0.25);
        t.end(3, 2, 1.0).unwrap().0.observe(0.5);
        let done = t.completed();
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].call, &*done[0].proc, &*done[0].to_host), (2, "q", "c"));
        assert_eq!(done[0].phase(Phase::Compute), 0.25);
        assert!(m.histogram("rpc.call_s.a->c").is_some());
        assert!(m.histogram("rpc.call_s.a->b").is_none());
        // A call on a line never seen is a no-op.
        t.phase(u64::MAX, 1, Phase::Compute, 1.0);
        assert!(t.end(u64::MAX, 1, 1.0).is_none());
    }
}
