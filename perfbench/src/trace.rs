//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public API (nothing inside the program is instrumented). They
//! stay in memory while the workload runs and are written out once, at exit.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` relative to the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The operation (set-up repetition or workload operation) the span
    /// belongs to; spans of one operation share it.
    pub op: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Append-only span store.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Self::exit`].
    pub fn enter(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, op, parent);
        let result = f();
        self.exit(id);
        result
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line:
    /// `id name op parent start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\top\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (id, (span, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{parent}\t{}\t{}\t{self_ns}",
                span.name, span.op, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-span self time: the span's duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, intervals)| span.duration_ns() - covered_ns(intervals))
        .collect()
}

/// Total length of the union of `intervals`.
fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self-time samples (in ms) of every span, grouped by span name.
#[must_use]
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        by_name
            .entry(span.name)
            .or_default()
            .push(self_ns as f64 / 1e6);
    }
    by_name
}

/// Durations (in ms) of the spans named `name`.
#[must_use]
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// How much of the spans named `parent` their direct children cover: total
/// child time over total parent time (`1` means the layers account for the
/// whole operation).
#[must_use]
pub fn coverage(spans: &[Span], parent: &str) -> f64 {
    let mut parent_ns = 0;
    let mut self_ns = 0;
    for (span, own) in spans.iter().zip(self_times(spans)) {
        if span.name == parent {
            parent_ns += span.duration_ns();
            self_ns += own;
        }
    }
    crate::stats::ratio((parent_ns - self_ns) as f64, parent_ns as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            span("c.inner", 62, 65, Some(3)),
        ];
        // Children of "op" cover [10, 50) and [60, 70): 50 ns.
        assert_eq!(self_times(&spans), vec![50, 20, 30, 7, 3]);
        assert!((coverage(&spans, "op") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("op", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn coverage_without_parents_is_zero() {
        assert_eq!(coverage(&[span("x", 0, 5, None)], "op"), 0.0);
    }

    #[test]
    fn recorder_nests_spans_in_order() {
        let mut rec = Recorder::new();
        let outer = rec.enter("op", 7, None);
        let value = rec.time("inner", 7, Some(outer), || 41 + 1);
        rec.exit(outer);
        assert_eq!(value, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let by_name = self_ms_by_name(spans);
        assert_eq!(by_name["op"].len(), 1);
        assert_eq!(durations_ms(spans, "inner").len(), 1);
    }
}
