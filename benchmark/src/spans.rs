//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is (name, start, end, parent, op id). The layer is the part of
//! the name before the first `.`. Spans are kept in memory during the
//! traced run and written out as JSON when the benchmark ends. A span's
//! self time is its duration minus the part of it that its child spans
//! cover, so the self times of one op's spans sum to the op's duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for an op's root).
    pub parent: Option<usize>,
    /// Spans of one op share its id.
    pub op: u64,
}

/// Records spans for a single thread of control (the load generator).
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// A tracer whose times count from `origin` — another tracer's, so
    /// that spans recorded on a worker thread can be adopted by it.
    pub fn with_origin(origin: Instant) -> Self {
        Self { origin, spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. A span opened with none
    /// open is the root of a new op.
    pub fn enter(&mut self, name: &'static str) {
        if self.open.is_empty() {
            self.op += 1;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Close the innermost open span and hang `spans` — a finished trace
    /// recorded elsewhere against the same origin — under it, as part of
    /// the current op.
    pub fn exit_adopting(&mut self, spans: &[Span]) {
        let adopter = *self.open.last().expect("exit without a matching enter");
        let base = self.spans.len();
        self.spans.extend(spans.iter().map(|s| Span {
            parent: Some(s.parent.map_or(adopter, |p| base + p)),
            op: self.op,
            ..s.clone()
        }));
        self.exit();
    }

    /// Close every open span: the end of an op, also when an error cut
    /// it short with spans still open.
    pub fn close_op(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(mut self) -> Vec<Span> {
        self.close_op();
        self.spans
    }
}

/// Self time of every span, in nanoseconds, indexed like `spans`:
/// duration minus the union of the child intervals (clipped to the span).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self seconds summed per layer (the name up to the first `.`).
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *out.entry(layer).or_insert(0.0) += self_ns as f64 * 1e-9;
    }
    out
}

/// The trace as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, (s, self_ns)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
            s.name, s.op, s.start_ns, s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        // Children [10,30] and [20,50] overlap: they cover 40 of the 100.
        let spans = vec![
            span("op.root", 0, 100, None),
            span("a.x", 10, 30, Some(0)),
            span("b.y", 20, 50, Some(0)),
            span("a.z", 22, 28, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 14, 30, 6]);
        // A child reaching past its parent is clipped to it.
        let spans = vec![span("op.root", 0, 10, None), span("a.x", 5, 25, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn self_times_of_a_trace_sum_to_the_root_durations() {
        let mut t = Tracer::new();
        for _ in 0..3 {
            t.enter("op.root");
            t.span("system.build", || std::hint::black_box((0..1000).sum::<u64>()));
            t.enter("engine_exec.run");
            t.span("tess.step", || std::hint::black_box((0..1000).sum::<u64>()));
            t.span("tess.step", || ());
            t.exit();
            t.exit();
        }
        let spans = t.spans();
        let roots: u64 =
            spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(self_times_ns(spans).iter().sum::<u64>(), roots);
        let by_layer = layer_self_s(spans);
        let total: f64 = by_layer.values().sum();
        assert!((total - roots as f64 * 1e-9).abs() < 1e-12);
        assert_eq!(
            by_layer.keys().copied().collect::<Vec<_>>(),
            ["engine_exec", "op", "system", "tess"]
        );
    }

    #[test]
    fn adopted_spans_join_the_op_under_the_adopting_span() {
        let mut t = Tracer::new();
        let mut worker = Tracer::with_origin(t.origin());
        t.enter("op.root");
        t.enter("pool.wait");
        worker.enter("system.build");
        worker.span("tess.step", || ());
        worker.exit();
        t.exit_adopting(&worker.into_spans());
        t.close_op();
        let spans = t.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["op.root", "pool.wait", "system.build", "tess.step"]);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.op == 1));
        assert_eq!(self_times_ns(spans).iter().sum::<u64>(), spans[0].end_ns - spans[0].start_ns);
    }

    #[test]
    fn spans_of_one_op_share_its_id() {
        let mut t = Tracer::new();
        for _ in 0..2 {
            t.enter("op.root");
            t.span("a.x", || ());
            t.span("b.y", || ());
            t.exit();
        }
        let ops: Vec<u64> = t.spans().iter().map(|s| s.op).collect();
        assert_eq!(ops, [1, 1, 1, 2, 2, 2]);
        for s in t.spans() {
            if let Some(p) = s.parent {
                assert_eq!(t.spans()[p].op, s.op, "a span and its cause belong to one op");
            }
        }
        assert!(to_json(t.spans()).matches("\"op\": 2").count() == 3);
    }
}
