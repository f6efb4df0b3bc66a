//! The traced run's span log.
//!
//! The benchmark records one span around each public call it makes (an
//! operation id groups the spans of one operation), then attaches the
//! spans the engine already emitted for that call beneath it. All spans
//! stay in memory; [`SpanLog::write_tsv`] writes them out at the end.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use xqdb_obs::SpanRecord;

/// One span on the benchmark's clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Operation the span belongs to.
    pub op: u64,
    pub name: String,
    /// Index of the enclosing span in the log.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// The engine's item count for the stage (0 for benchmark spans).
    pub count: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.start_ns.saturating_add(s.dur_ns)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let (lo, hi) = (s.start_ns, s.start_ns.saturating_add(s.dur_ns));
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = lo;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns.saturating_sub(covered)
        })
        .collect()
}

/// The in-memory span log of one run.
#[derive(Debug)]
pub struct SpanLog {
    t0: Instant,
    next_op: u64,
    pub spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            t0: Instant::now(),
            next_op: 0,
            spans: Vec::new(),
        }
    }

    /// A fresh operation id.
    pub fn begin_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a benchmark span that ran from `started` for `dur_ns`.
    pub fn record(
        &mut self,
        op: u64,
        name: &str,
        parent: Option<usize>,
        started: Instant,
        dur_ns: u64,
    ) -> usize {
        let start_ns = self.offset(started);
        self.spans.push(Span {
            op,
            name: name.to_string(),
            parent,
            start_ns,
            dur_ns,
            count: 0,
        });
        self.spans.len() - 1
    }

    /// Attach an engine trace under span `parent`. The engine's trace clock
    /// starts inside the call, so anchoring it at the call's start shifts
    /// its spans by at most the call's entry overhead.
    pub fn attach(&mut self, op: u64, parent: usize, anchor: Instant, engine: &[SpanRecord]) {
        let base = self.offset(anchor);
        let first = self.spans.len();
        for r in engine {
            self.spans.push(Span {
                op,
                name: r.name.to_string(),
                parent: Some(r.parent.map_or(parent, |p| first + p)),
                start_ns: base.saturating_add(r.start_ns),
                dur_ns: r.dur_ns,
                count: r.count,
            });
        }
    }

    /// Per operation, the summed self time (ns) of spans named `name`
    /// under a benchmark span named `root`; operations without such a
    /// span are left out.
    pub fn self_ns_by_op(&self, root: &str, name: &str) -> Vec<f64> {
        let selfs = self_times(&self.spans);
        let roots = self.roots();
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name && self.spans[roots[i]].name == root && roots[i] != i {
                *per_op.entry(s.op).or_default() += selfs[i] as f64;
            }
        }
        per_op.into_values().collect()
    }

    /// Durations (ns) and counts of every span named `name` under a
    /// benchmark span named `root`.
    pub fn spans_named<'a>(
        &'a self,
        root: &'a str,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Span> {
        let roots = self.roots();
        self.spans
            .iter()
            .enumerate()
            .filter(move |(i, s)| s.name == name && self.spans[roots[*i]].name == root)
            .map(|(_, s)| s)
    }

    /// For every span, the index of its outermost ancestor.
    fn roots(&self) -> Vec<usize> {
        let mut roots: Vec<usize> = (0..self.spans.len()).collect();
        for i in 0..self.spans.len() {
            if let Some(p) = self.spans[i].parent {
                // Parents precede children, so the parent's root is final.
                roots[i] = roots[p];
            }
        }
        roots
    }

    /// Write every span, one per line, with its self time.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\top\tparent\tname\tstart_ns\tdur_ns\tself_ns\tcount"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.dur_ns, selfs[i], s.count
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            op: 1,
            name: name.into(),
            parent,
            start_ns,
            dur_ns,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // op [0,100) ⊃ plan [10,30) ⊃ parse [12,20); scan [25,90) overlaps
        // plan by 5 ns, so op's children cover [10,90) = 80 ns.
        let spans = vec![
            span("op", None, 0, 100),
            span("plan", Some(0), 10, 20),
            span("parse", Some(1), 12, 8),
            span("scan", Some(0), 25, 65),
            span("worker", Some(3), 30, 40),
            span("worker", Some(3), 50, 40),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![20, 12, 8, 5, 40, 40]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("op", None, 100, 50), span("late", Some(0), 140, 100)];
        assert_eq!(self_times(&spans), vec![40, 100]);
    }

    #[test]
    fn engine_spans_attach_under_the_benchmark_span() {
        let mut log = SpanLog::new();
        let t = Instant::now();
        let op = log.begin_op();
        let root = log.record(op, "xquery", None, t, 1_000);
        let engine = vec![
            SpanRecord {
                name: "plan",
                parent: None,
                start_ns: 0,
                dur_ns: 300,
                count: 1,
                tags: vec![],
            },
            SpanRecord {
                name: "eligibility check",
                parent: Some(0),
                start_ns: 10,
                dur_ns: 100,
                count: 1,
                tags: vec![],
            },
            SpanRecord {
                name: "scan",
                parent: None,
                start_ns: 400,
                dur_ns: 500,
                count: 7,
                tags: vec![],
            },
        ];
        log.attach(op, root, t, &engine);
        assert_eq!(log.spans[1].parent, Some(root));
        assert_eq!(log.spans[2].parent, Some(1));
        assert_eq!(log.spans[3].count, 7);
        assert_eq!(log.self_ns_by_op("xquery", "plan"), vec![200.0]);
        assert_eq!(log.self_ns_by_op("xquery", "scan"), vec![500.0]);
        assert!(log.self_ns_by_op("sql", "scan").is_empty());
        assert_eq!(log.self_ns_by_op("xquery", "xquery"), Vec::<f64>::new());
        assert_eq!(log.spans_named("xquery", "eligibility check").count(), 1);
    }
}
