//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (crate), kept in memory, and written out once when the run ends. A
//! span's self time is its duration minus the part of it that its child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `crate.stage`, e.g. `core.build` or `server.result`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Answer the span belongs to (spans of one answer share it).
    pub answer: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans of one thread. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, answer: usize) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            answer,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, answer: usize, f: impl FnOnce() -> T) -> T {
        self.begin(name, answer);
        let out = f();
        self.end();
        out
    }

    /// Records a span whose bounds were taken with [`Instant`]s under an
    /// explicit parent; returns its index (0 when disabled).
    pub fn record(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        answer: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            answer,
        });
        self.spans.len() - 1
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed");
        self.spans
    }
}

/// Joins span sets recorded by separate tracers, rebasing parent indices.
pub fn concat(parts: impl IntoIterator<Item = Vec<Span>>) -> Vec<Span> {
    let mut all: Vec<Span> = Vec::new();
    for part in parts {
        let offset = all.len();
        all.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    all
}

/// Per-name totals and the answer coverage of a span set.
#[derive(Debug, Default)]
pub struct Summary {
    /// Total span time per name, ms.
    pub total_ms: BTreeMap<&'static str, f64>,
    /// Total self time per name, ms.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Lowest share of an `answer` span's wall time covered by its
    /// children (1.0 with no answer spans).
    pub min_coverage: f64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self times and answer coverage; `parent` indices point into `spans`.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut sum = Summary {
        min_coverage: 1.0,
        ..Summary::default()
    };
    for (s, kids) in spans.iter().zip(children) {
        let covered = covered_ns(kids, s.start_ns, s.end_ns);
        *sum.total_ms.entry(s.name).or_default() += s.dur_ns() as f64 / 1e6;
        *sum.self_ms.entry(s.name).or_default() += (s.dur_ns() - covered) as f64 / 1e6;
        if s.name == "answer" && s.dur_ns() > 0 {
            sum.min_coverage = sum.min_coverage.min(covered as f64 / s.dur_ns() as f64);
        }
    }
    sum
}

/// The span set as JSON, with a free-form `stamp` object spliced in.
pub fn to_json(stamp: &str, spans: &[Span], summary: &Summary) -> String {
    let mut o = String::new();
    let _ = write!(o, "{{\"stamp\": {stamp},\n \"self_ms\": {{");
    for (i, (name, ms)) in summary.self_ms.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(o, "{sep}\"{name}\": {ms:.6}");
    }
    o.push_str("},\n \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n  " } else { ",\n  " };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            o,
            "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"answer\": {}}}",
            s.name, s.start_ns, s.end_ns, s.answer
        );
    }
    o.push_str("\n ]}\n");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, s: u64, e: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: s,
            end_ns: e,
            parent,
            answer: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("answer", 0, 100, None),
            span("core.build", 10, 40, Some(0)),
            span("core.solve", 30, 90, Some(0)),
            span("lp.root", 50, 60, Some(2)),
        ];
        let sum = summarize(&spans);
        // Children cover [10, 90): 80 of 100 ns.
        assert!((sum.min_coverage - 0.8).abs() < 1e-12);
        assert!((sum.self_ms["answer"] - 20e-6).abs() < 1e-12);
        assert!((sum.self_ms["core.solve"] - 50e-6).abs() < 1e-12);
        assert!((sum.self_ms["lp.root"] - 10e-6).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.span("answer", 0, || ());
        assert!(t.into_spans().is_empty());
    }
}
