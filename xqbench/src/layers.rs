//! Per-layer metrics of the traced run.
//!
//! Every workload reports the same list. A layer the workload does not
//! reach reports 0 and a note saying so, and the layers no outside caller
//! can see are listed as absent with the reason.

use std::collections::BTreeMap;

use xqdb_obs::{Counter, MetricsSnapshot};
use xqdb_pager::PoolStats;

use crate::common::{ratio, StatSums};
use crate::data::ReadClass;
use crate::report::{median, Outcome};
use crate::spans::SpanLog;

/// Benchmark span names: the public call each one wraps.
pub const XQUERY: &str = "run_xquery_with_options";
pub const SQL: &str = "SqlSession::execute";
pub const RECOVER: &str = "recover_catalog";

/// Layers the benchmark cannot measure from outside the program.
const ABSENT: [&str; 4] = [
    "fsync count and wait: the WAL writer keeps no fsync counter or timer",
    "rows decoded and XML bytes parsed inside the engine: no counter exists; \
     storage.decode_us_per_row and xmlparse.us_per_kb are timed by the benchmark instead",
    "server lock wait apart from admission: the server records no span around its RwLock",
    "per-request server spans: the server keeps its traces, so server time is split \
     only as client round trip against embedded execution",
];

/// What the traced run gathers.
#[derive(Debug, Default)]
pub struct Layers {
    pub log: SpanLog,
    /// Statistics of traced XQuery and SQL reads.
    pub xq: StatSums,
    pub sql: StatSums,
    /// Buffer-pool traffic over the timed phase, and its operation count.
    pub pool: PoolStats,
    pub pool_ops: u64,
    /// Server round trips and embedded execution times of the same texts.
    pub server_rtt_ms: Vec<f64>,
    pub server_exec_ms: Vec<f64>,
    pub server_busy: u64,
    pub server_admitted: u64,
    pub decode_us_per_row: f64,
    pub heap_pages: u64,
    pub parse_us_per_kb: f64,
    /// Counter deltas over the traced writes, and the XML they carried.
    pub counters: Option<MetricsSnapshot>,
    pub traced_writes: u64,
    pub written_xml_bytes: u64,
    pub checkpoint_ms: Vec<f64>,
    pub records_replayed: u64,
    /// Read latencies with tracing on and off, for the overhead.
    pub traced_ms: BTreeMap<ReadClass, Vec<f64>>,
    pub plain_ms: BTreeMap<ReadClass, Vec<f64>>,
}

fn m0(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

impl Layers {
    /// Median per-operation self time (ms) of engine spans `name` under
    /// the given benchmark spans.
    fn self_ms(&self, roots: &[&str], name: &str) -> f64 {
        let v: Vec<f64> = roots
            .iter()
            .flat_map(|r| self.log.self_ns_by_op(r, name))
            .map(|ns| ns / 1e6)
            .collect();
        m0(&v)
    }

    /// Median duration (ms) of engine spans `name` under the given
    /// benchmark spans.
    fn dur_ms(&self, roots: &[&str], name: &str) -> f64 {
        let v: Vec<f64> = roots
            .iter()
            .flat_map(|r| self.log.spans_named(r, name))
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        m0(&v)
    }

    /// Median over operations of max/mean `worker task` duration.
    fn task_skew(&self) -> f64 {
        let mut per_op: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for root in [XQUERY, SQL] {
            for s in self.log.spans_named(root, "worker task") {
                per_op.entry(s.op).or_default().push(s.dur_ns as f64);
            }
        }
        let skews: Vec<f64> = per_op
            .values()
            .map(|d| {
                let max = d.iter().copied().fold(0.0, f64::max);
                let mean = d.iter().sum::<f64>() / d.len() as f64;
                if mean > 0.0 {
                    max / mean
                } else {
                    1.0
                }
            })
            .collect();
        m0(&skews)
    }

    fn counter(&self, c: Counter) -> u64 {
        self.counters.as_ref().map_or(0, |s| s.counter(c))
    }

    /// Tracing overhead: the median over read classes of traced p50 over
    /// untraced p50, minus one.
    fn overhead(&self) -> Option<f64> {
        let shares: Vec<f64> = self
            .traced_ms
            .iter()
            .filter_map(|(c, t)| Some(median(t)? / median(self.plain_ms.get(c)?)? - 1.0))
            .collect();
        median(&shares)
    }

    pub fn emit(&self, out: &mut Outcome) {
        let both = [XQUERY, SQL];
        let (xq, sql) = (&self.xq, &self.sql);
        let reads = [xq, sql];
        let sum = |f: fn(&StatSums) -> u64| reads.iter().map(|s| f(s)).sum::<u64>();

        // server
        let rtt = m0(&self.server_rtt_ms);
        let exec = m0(&self.server_exec_ms);
        out.metric("server.rtt_ms", rtt, "ms");
        out.metric("server.exec_ms", exec, "ms");
        out.metric(
            "server.overhead_share",
            if rtt > 0.0 { (rtt - exec) / rtt } else { 0.0 },
            "ratio",
        );
        out.metric("server.busy", self.server_busy as f64, "count");
        out.metric("server.admitted", self.server_admitted as f64, "count");
        if self.server_rtt_ms.is_empty() {
            out.note("layer server: not reached by this workload (0)");
        }

        // core::sqlxml
        let scan_ms = self.self_ms(&[SQL], "scan");
        let rows_per_op = ratio(sql.docs_total, sql.ops);
        let full_decode_ms = rows_per_op * self.decode_us_per_row / 1e3;
        out.metric("sqlxml.scan_ms", scan_ms, "ms");
        out.metric(
            "sqlxml.scan_vs_full_decode",
            if full_decode_ms > 0.0 {
                scan_ms / full_decode_ms
            } else {
                0.0
            },
            "ratio",
        );
        out.metric(
            "sqlxml.docs_evaluated_ratio",
            ratio(sql.docs_evaluated, sql.docs_total),
            "ratio",
        );
        if sql.ops == 0 {
            out.note("layer core::sqlxml: no traced SQL reads in this workload (0)");
        }

        // xquery + core::eligibility + core::plancache
        out.metric("plan.parse_ms", self.dur_ms(&[XQUERY], "parse"), "ms");
        out.metric("plan.plan_ms", self.dur_ms(&both, "plan"), "ms");
        out.metric(
            "plan.eligibility_ms",
            self.dur_ms(&both, "eligibility check"),
            "ms",
        );
        out.metric(
            "plan.prefilter_extract_ms",
            self.dur_ms(&both, "prefilter extract"),
            "ms",
        );
        out.metric(
            "plan.twig_compile_ms",
            self.dur_ms(&both, "twig compile"),
            "ms",
        );
        let hits = sum(|s| s.cache_hits);
        out.metric(
            "plancache.hit_ratio",
            ratio(hits, hits + sum(|s| s.cache_misses)),
            "ratio",
        );

        // xmlindex + btree
        let probes = sum(|s| s.probes);
        out.metric(
            "xmlindex.probe_ms",
            self.self_ms(&both, "index probe"),
            "ms",
        );
        out.metric(
            "xmlindex.entries_per_probe",
            ratio(sum(|s| s.entries), probes),
            "count",
        );
        out.metric(
            "btree.nodes_per_probe",
            ratio(sum(|s| s.nodes), probes),
            "count",
        );
        out.metric(
            "xmlindex.useful_ratio",
            ratio(sum(|s| s.probe_results), sum(|s| s.probe_rows)),
            "ratio",
        );

        // twig
        let candidates = sum(|s| s.twig_candidates);
        out.metric("twig.join_ms", self.self_ms(&both, "twig join"), "ms");
        out.metric(
            "twig.candidates_per_op",
            ratio(candidates, sum(|s| s.twig_ops)),
            "count",
        );
        out.metric(
            "twig.useful_ratio",
            ratio(sum(|s| s.twig_results), candidates),
            "ratio",
        );

        // core::prefilter
        out.metric("prefilter.ms", self.self_ms(&both, "prefilter"), "ms");
        out.metric(
            "prefilter.skip_ratio",
            ratio(sum(|s| s.prefilter_skipped), sum(|s| s.prefilter_total)),
            "ratio",
        );

        // storage + pager
        let p = &self.pool;
        out.metric("pager.hit_ratio", ratio(p.hits, p.hits + p.misses), "ratio");
        out.metric(
            "pager.evictions_per_op",
            ratio(p.evictions, self.pool_ops),
            "count",
        );
        out.metric("storage.decode_us_per_row", self.decode_us_per_row, "us");
        out.metric("storage.heap_pages", self.heap_pages as f64, "count");

        // xmlparse
        out.metric("xmlparse.us_per_kb", self.parse_us_per_kb, "us/KiB");

        // xqeval
        out.metric("xqeval.scan_ms", self.self_ms(&[XQUERY], "scan"), "ms");
        out.metric(
            "xqeval.steps_per_doc",
            ratio(xq.steps, xq.docs_evaluated),
            "count",
        );
        if xq.ops == 0 {
            out.note("layer xqeval: no traced XQuery reads in this workload (0)");
        }

        // runtime
        let workers: Vec<f64> = reads
            .iter()
            .flat_map(|s| s.workers.iter().copied())
            .collect();
        let shards: Vec<f64> = reads
            .iter()
            .flat_map(|s| s.shards.iter().copied())
            .collect();
        out.metric("runtime.workers", m0(&workers), "count");
        out.metric("runtime.shards", m0(&shards), "count");
        let skew = self.task_skew();
        out.metric("runtime.task_skew", skew, "ratio");
        if skew == 0.0 {
            out.note("runtime.task_skew: no worker tasks ran (serial execution) (0)");
        }

        // wal + core::durability
        out.metric(
            "wal.records_per_write",
            ratio(
                self.counter(Counter::WalRecordsAppended),
                self.traced_writes,
            ),
            "count",
        );
        out.metric(
            "wal.bytes_per_xml_byte",
            ratio(self.counter(Counter::WalBytes), self.written_xml_bytes),
            "ratio",
        );
        out.metric("durability.checkpoint_ms", m0(&self.checkpoint_ms), "ms");
        out.metric(
            "durability.replay_ms",
            self.dur_ms(&[RECOVER], "replay wal"),
            "ms",
        );
        out.metric(
            "durability.records_replayed",
            self.records_replayed as f64,
            "count",
        );

        match self.overhead() {
            Some(o) => out.metric("trace.overhead_share", o, "ratio"),
            None => {
                out.note("trace.overhead_share: no read class ran both traced and untraced");
                out.metric("trace.overhead_share", 0.0, "ratio");
            }
        }
        for a in ABSENT {
            out.note(format!("absent: {a}"));
        }
    }
}
