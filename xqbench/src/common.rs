//! Pieces every workload shares: run settings, loading, durable sessions,
//! latency bookkeeping and the end-to-end metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xqdb_core::{
    recover_catalog, verify_derived_state, Catalog, Durability, ExecStats, FsyncMode, SqlSession,
    WalConfig,
};
use xqdb_obs::Trace;
use xqdb_runtime::RuntimeConfig;
use xqdb_storage::{SqlValue, Table};

use crate::data::{Collection, ReadClass, WriteKind};
use crate::layers::{Layers, RECOVER};
use crate::report::{best_rate, calm_median, median, tail, Outcome};

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory for data directories (removed at exit).
    pub work: PathBuf,
}

/// Repetitions of the set-up phase; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Crash images recovered during the timed phase, evenly spaced; with
/// the recovery of the final directory, `recovery_s` is the median of
/// `MID_RUN_RECOVERIES + 1` recoveries.
pub const MID_RUN_RECOVERIES: usize = 4;
/// The flush policy of every durable session: each WAL record is written
/// to the OS at once and never fsynced. With fsync per batch, the wait for
/// the host's shared disk set `write_tail_ms` on `xquery_reads`, and it
/// ranged from 0.8 to 3.1 ms between runs of the same code; the disk is
/// not the program.
pub const FSYNC: FsyncMode = FsyncMode::Off;

pub type Res<T> = Result<T, String>;

/// Any displayable error as the benchmark's error string.
pub fn err<E: std::fmt::Display>(context: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Open a fresh durable session in `dir` with the orders table and the
/// `//lineitem/@price` double index.
pub fn durable_orders_session(dir: &Path) -> Res<SqlSession> {
    let _ = std::fs::remove_dir_all(dir);
    let config = WalConfig {
        fsync: FSYNC,
        ..WalConfig::default()
    };
    let (mut s, _) = SqlSession::open_durable(dir, config).map_err(err("open data directory"))?;
    s.execute("CREATE TABLE orders (ordid INTEGER, orddoc XML)")
        .map_err(err("create table"))?;
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .map_err(err("create index"))?;
    Ok(s)
}

/// Parse and insert documents through the embedded catalog API.
pub fn load(catalog: &mut Catalog, docs: &[(i64, String)]) -> Res<()> {
    for (key, xml) in docs {
        catalog_insert(catalog, *key, xml)?;
    }
    Ok(())
}

pub fn catalog_insert(catalog: &mut Catalog, key: i64, xml: &str) -> Res<u64> {
    let doc = xqdb_xmlparse::parse_document(xml).map_err(err("parse document"))?;
    let row = catalog
        .insert(
            "orders",
            vec![SqlValue::Integer(key), SqlValue::Xml(doc.root())],
        )
        .map_err(err("insert"))?;
    Ok(row as u64)
}

/// Process peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bytes of the files in `dir` other than the page file (WAL segments,
/// manifest, snapshots).
fn log_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy() != xqdb_core::PAGES_FILE)
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Bytes the store holds for the orders table: heap pages plus the log
/// and manifest files on disk.
fn store_bytes(catalog: &Catalog, dir: &Path) -> u64 {
    let pages = catalog
        .db
        .table("orders")
        .map_or(0, |t| t.heap_pages().len() as u64);
    pages * xqdb_pager::PAGE_SIZE as u64 + log_bytes(dir)
}

/// Client-side latencies and counts of one run. Each sample carries its
/// completion time in seconds of the timed phase's active clock, which
/// stops while a mid-run recovery pauses the load.
#[derive(Debug)]
pub struct Measure {
    /// Start of the timed phase, moved later by every pause.
    t0: Instant,
    /// Nominal length of the timed phase in seconds.
    span_s: f64,
    pub setup_s: Vec<f64>,
    reads: BTreeMap<ReadClass, Vec<(f64, f64)>>,
    writes: BTreeMap<WriteKind, Vec<(f64, f64)>>,
    /// Completion times of the timed phase's operations.
    op_times: Vec<f64>,
    /// Operations completed in the timed phase and its wall time.
    pub timed_ops: u64,
    pub timed_s: f64,
    pub recovery_s: Vec<f64>,
    pub store_bytes: u64,
    pub live_xml_bytes: u64,
}

impl Measure {
    pub fn new(seconds: u64) -> Measure {
        Measure {
            t0: Instant::now(),
            span_s: seconds as f64,
            setup_s: Vec::new(),
            reads: BTreeMap::new(),
            writes: BTreeMap::new(),
            op_times: Vec::new(),
            timed_ops: 0,
            timed_s: 0.0,
            recovery_s: Vec::new(),
            store_bytes: 0,
            live_xml_bytes: 0,
        }
    }

    /// Mark the start of the timed phase.
    pub fn start_timed(&mut self) {
        self.t0 = Instant::now();
    }

    /// Seconds of the timed phase so far, pauses left out.
    pub fn active_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Whether the timed phase has time left.
    pub fn running(&self) -> bool {
        self.active_s() < self.span_s
    }

    /// Stop the timed phase's clock for `d`.
    fn pause(&mut self, d: Duration) {
        self.t0 += d;
    }

    /// End the timed phase: its length, pauses left out.
    pub fn stop_timed(&mut self) {
        self.timed_s = self.active_s();
    }

    /// Whether the next mid-run recovery is due: the `k`-th falls at
    /// `k / (MID_RUN_RECOVERIES + 1)` of the timed phase.
    pub fn recovery_due(&self) -> bool {
        let k = self.recovery_s.len();
        k < MID_RUN_RECOVERIES
            && self.active_s() >= self.span_s * (k + 1) as f64 / (MID_RUN_RECOVERIES + 1) as f64
    }

    /// A read that completed just now.
    pub fn read(&mut self, class: ReadClass, d: Duration) {
        let t = self.active_s();
        self.reads.entry(class).or_default().push((t, ms(d)));
        self.op_times.push(t);
    }

    /// A write that completed just now.
    pub fn write(&mut self, kind: WriteKind, d: Duration) {
        let t = self.active_s();
        self.writes.entry(kind).or_default().push((t, ms(d)));
        self.op_times.push(t);
    }

    /// Sample counts, for the run record.
    pub fn counts(&self) -> String {
        let r = ReadClass::ALL
            .iter()
            .map(|c| (c.name(), self.reads.get(c).map_or(0, Vec::len)));
        let w = WriteKind::ALL
            .iter()
            .map(|k| (k.name(), self.writes.get(k).map_or(0, Vec::len)));
        r.chain(w)
            .map(|(n, c)| format!("{n}={c}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Every end-to-end metric except `ok_ratio`, which needs the final
    /// failure count (see `main`). Per-class medians and the throughput
    /// come from the calmest window of the timed phase
    /// ([`calm_median`], [`best_rate`]); the tails from all samples.
    pub fn emit(&self, out: &mut Outcome) {
        let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
        let calm = |v: Option<&Vec<(f64, f64)>>| {
            v.and_then(|v| calm_median(v, self.span_s))
                .unwrap_or(f64::NAN)
        };
        out.note(format!(
            "whole timed phase: {} ops in {:.3} s = {:.3} op/s",
            self.timed_ops,
            self.timed_s,
            self.timed_ops as f64 / self.timed_s
        ));
        out.metric("setup_s", med(&self.setup_s), "s");
        out.metric("ops_per_s", best_rate(&self.op_times, self.span_s), "op/s");
        for class in ReadClass::ALL {
            out.metric(
                &format!("{}_p50_ms", class.name()),
                calm(self.reads.get(&class)),
                "ms",
            );
        }
        let all_reads: Vec<f64> = self.reads.values().flatten().map(|s| s.1).collect();
        let read_tail = tail_of("reads", &all_reads, out);
        out.metric("read_tail_ms", read_tail, "ms");
        for kind in WriteKind::ALL {
            out.metric(
                &format!("{}_p50_ms", kind.name()),
                calm(self.writes.get(&kind)),
                "ms",
            );
        }
        let all_writes: Vec<f64> = self.writes.values().flatten().map(|s| s.1).collect();
        let write_tail = tail_of("writes", &all_writes, out);
        out.metric("write_tail_ms", write_tail, "ms");
        out.metric("recovery_s", med(&self.recovery_s), "s");
        out.metric(
            "bytes_per_xml_byte",
            self.store_bytes as f64 / self.live_xml_bytes as f64,
            "ratio",
        );
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
}

/// The tail value of a sample, noting its percentile and sample size.
fn tail_of(what: &str, v: &[f64], out: &mut Outcome) -> f64 {
    match tail(v) {
        Some(t) => {
            out.note(format!(
                "{what} tail: p{:.2} of n={} = {:.3} ms",
                t.percentile, t.n, t.value
            ));
            t.value
        }
        None => {
            out.note(format!("{what} tail: only n={} samples, no tail", v.len()));
            f64::NAN
        }
    }
}

/// Per-layer figures collected from one operation's statistics.
#[derive(Debug, Default, Clone)]
pub struct StatSums {
    pub ops: u64,
    pub probes: u64,
    pub entries: u64,
    pub nodes: u64,
    pub probe_rows: u64,
    pub probe_results: u64,
    pub twig_candidates: u64,
    pub twig_ops: u64,
    pub twig_results: u64,
    pub prefilter_skipped: u64,
    pub prefilter_total: u64,
    pub docs_evaluated: u64,
    pub docs_total: u64,
    pub steps: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub workers: Vec<f64>,
    pub shards: Vec<f64>,
}

impl StatSums {
    /// Fold in one read's statistics; `results` is the number of
    /// documents it returned.
    pub fn add(&mut self, class: ReadClass, stats: &ExecStats, results: usize) {
        self.ops += 1;
        self.probes += stats.index_probes as u64;
        self.entries += stats.index_entries_scanned as u64;
        self.nodes += stats.btree_nodes_touched as u64;
        let total = stats.docs_total.values().sum::<usize>() as u64;
        self.docs_total += total;
        self.docs_evaluated += stats.docs_evaluated_total() as u64;
        self.steps += stats.steps_used;
        self.cache_hits += stats.plan_cache_hits;
        self.cache_misses += stats.plan_cache_misses;
        self.workers.push(stats.parallel_workers as f64);
        self.shards.push(stats.parallel_shards as f64);
        match class {
            ReadClass::Probe => {
                self.probe_rows += stats.cost_actual_rows;
                self.probe_results += results as u64;
            }
            ReadClass::Twig => {
                self.twig_ops += 1;
                self.twig_candidates += stats.twig_candidates as u64;
                self.twig_results += results as u64;
            }
            ReadClass::Prefilter => {
                self.prefilter_skipped += stats.prefilter_docs_skipped as u64;
                self.prefilter_total += total;
            }
            ReadClass::Scan | ReadClass::Point => {}
        }
    }
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Bench-timed storage and parser figures of the traced run: a full
/// `Table::scan` (every row decoded), the table's heap pages, and
/// `parse_document` over the workload's own documents.
pub fn storage_layers(catalog: &Catalog, coll: &Collection, layers: &mut Layers) -> Res<()> {
    let table = catalog.db.table("orders").ok_or("orders table missing")?;
    let (rows, d) = timed(|| table.scan().try_fold(0u64, |n, row| row.map(|_| n + 1)));
    let rows = rows.map_err(err("table scan"))?;
    layers.decode_us_per_row = d.as_secs_f64() * 1e6 / rows.max(1) as f64;
    layers.heap_pages = table.heap_pages().len() as u64;
    let sample = &coll.docs[..coll.docs.len().min(PARSE_SAMPLE)];
    let bytes: usize = sample.iter().map(|(_, x)| x.len()).sum();
    let (parsed, d) = timed(|| {
        sample.iter().try_for_each(|(_, x)| {
            xqdb_xmlparse::parse_document(x).map(|doc| drop(std::hint::black_box(doc)))
        })
    });
    parsed.map_err(err("parse"))?;
    layers.parse_us_per_kb = d.as_secs_f64() * 1e6 / (bytes as f64 / 1024.0);
    Ok(())
}

/// Documents `xmlparse.us_per_kb` is timed over.
const PARSE_SAMPLE: usize = 2_000;

/// Copy the files of `from` into a fresh `to`, subdirectories included.
fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(err("create crash image"))?;
    for entry in std::fs::read_dir(from).map_err(err("read data directory"))? {
        let entry = entry.map_err(err("read data directory"))?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(err("stat"))?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(err("copy data file"))?;
        }
    }
    Ok(())
}

/// A mid-run recovery. The load is paused (the caller's session is idle),
/// the WAL is flushed, and a copy of the data directory — the state a
/// crash at this moment would leave — is recovered and checked for
/// `live_rows` rows. The pause does not count toward the timed phase.
#[allow(clippy::too_many_arguments)]
pub fn recover_crash_image(
    r: &Run,
    durability: Option<&Durability>,
    dir: &Path,
    live_rows: usize,
    verify: bool,
    m: &mut Measure,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Res<()> {
    let paused = Instant::now();
    durability
        .ok_or("session is not durable")?
        .flush()
        .map_err(err("flush wal"))?;
    let image = r.work.join("crash-image");
    copy_dir(dir, &image)?;
    recover_once(r, &image, live_rows, verify, m, out, layers)?;
    let _ = std::fs::remove_dir_all(&image);
    m.pause(paused.elapsed());
    Ok(())
}

/// Close the durable session, if the caller still holds it (dropping it
/// flushes the WAL), then recover the final directory. It must hold
/// `live_rows` rows; with `verify`, the live session and the recovered
/// catalog must also pass the derived-state rebuild oracle. The store's
/// size is read from the recovered catalog and the files on disk.
#[allow(clippy::too_many_arguments)]
pub fn shut_down_and_recover(
    r: &Run,
    session: Option<SqlSession>,
    dir: &Path,
    live_rows: usize,
    verify: bool,
    m: &mut Measure,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Res<()> {
    if let Some(session) = session {
        if verify {
            check_derived_state(&session.catalog, "live session", out)?;
        }
        drop(session);
    }
    let catalog = recover_once(r, dir, live_rows, verify, m, out, layers)?;
    m.store_bytes = store_bytes(&catalog, dir);
    Ok(())
}

/// Time one `recover_catalog` of `dir` and check what it recovered.
fn recover_once(
    r: &Run,
    dir: &Path,
    live_rows: usize,
    verify: bool,
    m: &mut Measure,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Res<Catalog> {
    let trace = if r.trace {
        Trace::recording()
    } else {
        Trace::disabled()
    };
    let started = Instant::now();
    let (res, d) = timed(|| {
        recover_catalog(
            dir,
            RuntimeConfig::default(),
            &trace,
            &xqdb_core::Obs::disabled(),
        )
    });
    let (catalog, report) = res.map_err(err("recover"))?;
    m.recovery_s.push(d.as_secs_f64());
    out.attempted += 1;
    let rows = catalog.db.table("orders").map_or(0, Table::live_len);
    if rows != live_rows {
        out.fail(format!("recovered {rows} live rows, expected {live_rows}"));
    }
    if verify {
        check_derived_state(&catalog, "recovered catalog", out)?;
    }
    layers.records_replayed = report.wal_records_replayed;
    if r.trace {
        let op = layers.log.begin_op();
        let root = layers.log.record(op, RECOVER, None, started, ns(d));
        layers
            .log
            .attach(op, root, started, &trace.finished_spans());
    }
    Ok(catalog)
}

fn check_derived_state(catalog: &Catalog, what: &str, out: &mut Outcome) -> Res<()> {
    out.attempted += 1;
    let report = verify_derived_state(catalog).map_err(err("verify"))?;
    if !report.is_clean() {
        out.fail(format!(
            "{what}: derived state differs from a rebuild:\n{}",
            report.render()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measure whose timed phase began `ago` seconds back.
    fn started(seconds: u64, ago: f64) -> Measure {
        let mut m = Measure::new(seconds);
        m.t0 = Instant::now() - Duration::from_secs_f64(ago);
        m
    }

    #[test]
    fn mid_run_recoveries_are_evenly_spaced() {
        // 50 s and four mid-run recoveries: due at 10, 20, 30 and 40 s.
        assert!(!started(50, 9.0).recovery_due());
        let mut m = started(50, 10.5);
        assert!(m.recovery_due());
        m.recovery_s.push(1.0);
        assert!(!m.recovery_due(), "the second waits for 20 s");
        let mut m = started(50, 49.0);
        m.recovery_s = vec![1.0; MID_RUN_RECOVERIES];
        assert!(!m.recovery_due(), "no more than MID_RUN_RECOVERIES");
    }

    #[test]
    fn a_pause_stops_the_timed_clock() {
        let mut m = started(10, 9.5);
        assert!(m.running());
        m.pause(Duration::from_secs(3));
        assert!(m.active_s() < 7.0);
        m.t0 -= Duration::from_secs(4);
        assert!(!m.running());
        m.stop_timed();
        assert!(m.timed_s >= 10.0);
    }
}
