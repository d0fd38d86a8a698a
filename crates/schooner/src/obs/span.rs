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

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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
    /// `rpc.call_s.{from_host}->{to_host}`, the histogram this span's
    /// duration is recorded under when it closes.
    call_s_key: Arc<str>,
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

/// Open and completed spans. Interior to [`Obs`](super::Obs), which
/// wraps it in a poison-recovering mutex.
#[derive(Debug, Default)]
pub(crate) struct SpanTable {
    open: HashMap<(u64, u64), CallSpan>,
    done: Vec<CallSpan>,
    /// Every procedure and host name a span has carried, so opening a
    /// span shares the text instead of copying it.
    names: HashSet<Arc<str>>,
    /// The `rpc.call_s.` histogram key of each host pair seen.
    call_s_keys: HashMap<(Arc<str>, Arc<str>), Arc<str>>,
}

impl SpanTable {
    pub(crate) fn start(
        &mut self,
        line: u64,
        call: u64,
        proc: &str,
        from_host: &str,
        to_host: &str,
        t: f64,
    ) {
        let proc = self.intern(proc);
        let from_host = self.intern(from_host);
        let to_host = self.intern(to_host);
        let call_s_key = self
            .call_s_keys
            .entry((from_host.clone(), to_host.clone()))
            .or_insert_with(|| format!("rpc.call_s.{from_host}->{to_host}").into())
            .clone();
        self.open.insert(
            (line, call),
            CallSpan {
                line,
                call,
                proc,
                from_host,
                to_host,
                started_at: t,
                ended_at: t,
                phases: [0.0; PHASE_COUNT],
                call_s_key,
            },
        );
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
        if let Some(span) = self.open.get_mut(&(line, call)) {
            span.phases[phase.index()] += seconds;
        }
    }

    /// Close the span; returns its histogram key and total duration.
    pub(crate) fn end(&mut self, line: u64, call: u64, t: f64) -> Option<(Arc<str>, f64)> {
        let mut span = self.open.remove(&(line, call))?;
        span.ended_at = t;
        let closed = (span.call_s_key.clone(), span.total());
        self.done.push(span);
        Some(closed)
    }

    /// Drop the open span of a failed attempt.
    pub(crate) fn abandon(&mut self, line: u64, call: u64) {
        self.open.remove(&(line, call));
    }

    pub(crate) fn completed(&self) -> Vec<CallSpan> {
        let mut v = self.done.clone();
        v.sort_by_key(|s| (s.line, s.call));
        v
    }

    pub(crate) fn clear(&mut self) {
        self.open.clear();
        self.done.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_lifecycle_accumulates_phases() {
        let mut t = SpanTable::default();
        t.start(1, 10, "duct", "ua-sparc10", "lerc-cray-ymp", 5.0);
        t.phase(1, 10, Phase::Marshal, 0.001);
        t.phase(1, 10, Phase::Transmit, 0.02);
        t.phase(1, 10, Phase::Compute, 0.003);
        t.phase(1, 10, Phase::Reply, 0.02);
        t.phase(1, 10, Phase::Unmarshal, 0.001);
        let (key, total) = t.end(1, 10, 5.05).unwrap();
        assert_eq!(&*key, "rpc.call_s.ua-sparc10->lerc-cray-ymp");
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
        let mut t = SpanTable::default();
        t.start(1, 1, "p", "a", "b", 0.0);
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
            call_s_key: "rpc.call_s.a->b".into(),
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
        let mut t = SpanTable::default();
        t.start(2, 1, "p", "a", "b", 0.0);
        t.start(1, 2, "p", "a", "b", 0.0);
        t.start(1, 1, "p", "a", "b", 0.0);
        t.end(2, 1, 1.0);
        t.end(1, 2, 1.0);
        t.end(1, 1, 1.0);
        let done = t.completed();
        let keys: Vec<(u64, u64)> = done.iter().map(|s| (s.line, s.call)).collect();
        assert_eq!(keys, vec![(1, 1), (1, 2), (2, 1)]);
    }
}
