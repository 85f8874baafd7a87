//! Spans recorded by the benchmark around its calls into the program: name,
//! start, end, parent span and the run id shared by every span of one run.
//! Spans stay in memory while the run measures and are written out, one
//! JSON record each, when it ends. A span's self time is its duration minus the
//! part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Boundary name, e.g. `Simulator::run`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Span recorder. When disabled, [`Tracer::span`] only calls its closure.
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for run `run_id`, recording only when `enabled`.
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Tracer { enabled, run_id, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Switches recording on or off between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside an open span");
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied() });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span as one JSON object: run id, index, name, start, end and
    /// the parent's index.
    pub fn records(&self) -> impl Iterator<Item = String> + '_ {
        self.spans.iter().enumerate().map(|(i, s)| {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            format!(
                "{{\"run\": {}, \"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                self.run_id, s.name, s.start, s.end
            )
        })
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Total and self time per span name, in ns, plus the span count.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, usize)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += s.end - s.start;
        e.1 += own;
        e.2 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0,100) ⊃ shard [10,90) ⊃ {build [10,20), run [20,80), stats [80,85)}
        let spans = vec![
            span("pass", 0, 100, None),
            span("shard", 10, 90, Some(0)),
            span("build", 10, 20, Some(1)),
            span("run", 20, 80, Some(1)),
            span("stats", 80, 85, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 5, 10, 60, 5]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root interval");
    }

    #[test]
    fn overlapping_or_overhanging_children_count_once() {
        let spans = vec![span("p", 0, 50, None), span("a", 5, 30, Some(0)), span("b", 20, 60, Some(0))];
        // Children cover [5, 50) once: 45 ns; the overhang past 50 is clipped.
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut t = Tracer::new(true, 7);
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1));
            t.span("inner", |_| std::hint::black_box(2));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let agg = by_name(spans);
        assert_eq!(agg["inner"].2, 2);
        assert_eq!(agg["outer"].0, agg["outer"].1 + agg["inner"].0, "outer = its self time + its children");
        let records: Vec<String> = t.records().collect();
        assert_eq!(records.len(), 3);
        assert!(records[2].starts_with("{\"run\": 7, \"id\": 2, \"name\": \"inner\""), "{}", records[2]);
        assert!(records[2].ends_with("\"parent\": 0}"), "{}", records[2]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        assert_eq!(t.span("x", |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
