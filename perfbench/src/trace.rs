//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end and the span that caused it. Spans are
//! kept in a vector while a traced solve runs and summarised afterwards:
//! a layer's self time is its span's duration minus the part its child
//! spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// Records one traced solve.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: Instant::now(),
            end: None,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = Some(Instant::now());
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    fn duration(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let end = span.end.expect("summaries need closed spans");
        end.duration_since(span.start).as_secs_f64()
    }

    /// Per-name totals of duration and self time, plus the coverage of the
    /// root span: the share of its duration that its descendants' self times
    /// account for.
    pub fn summary(&self) -> TraceSummary {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                child_time[parent] += self.duration(id);
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        let mut root_total = 0.0;
        let mut covered = 0.0;
        for (id, span) in self.spans.iter().enumerate() {
            let total = self.duration(id);
            let self_time = (total - child_time[id]).max(0.0);
            let entry = layers.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_s += total;
            entry.self_s += self_time;
            if span.parent.is_none() {
                root_total += total;
            } else {
                covered += self_time;
            }
        }
        TraceSummary {
            layers,
            root_s: root_total,
            coverage: if root_total > 0.0 {
                covered / root_total
            } else {
                0.0
            },
        }
    }
}

/// Time spent in spans of one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    pub layers: BTreeMap<&'static str, LayerTime>,
    /// Total duration of the root spans.
    pub root_s: f64,
    /// Sum of the non-root spans' self times over the root duration.
    pub coverage: f64,
}

impl TraceSummary {
    pub fn total(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.total_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.enter("root");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        let s = t.summary();
        assert_eq!(s.layers["child"].calls, 1);
        assert!(s.layers["root"].self_s < s.layers["child"].self_s);
        assert!(s.coverage > 0.5 && s.coverage <= 1.0);
    }
}
