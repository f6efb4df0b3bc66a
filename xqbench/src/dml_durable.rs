//! `dml_durable`: the order lifecycle (insert → amend → report → delete,
//! hot-key skew, equal insert and delete weights so the live set stays
//! near its preload) on an embedded durable session (WAL flush policy
//! `common::FSYNC`).
//! The ~5k-order preload fits the 256-frame pool. The session checkpoints
//! every [`CHECKPOINT_EVERY`] operations. Crash images are recovered
//! during the run; afterwards the session is closed and the directory
//! recovered.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xqdb_core::{Obs, ObsConfig, SqlSession};
use xqdb_workload::{DmlOp, OrderGenerator, OrderParams};

use crate::common::{
    durable_orders_session, err, load, ms, ns, recover_crash_image, shut_down_and_recover,
    storage_layers, timed, Measure, Res, Run, SETUP_REPEATS,
};
use crate::data::{Collection, ReadClass, WriteKind};
use crate::layers::{Layers, SQL};
use crate::report::Outcome;

/// Preloaded orders, before the decorated extras.
const PRELOAD: usize = 5_000;
const CHECKPOINT_EVERY: u64 = 64;
/// Operation mix weights: insert, amend, read, delete.
const WEIGHTS: [u32; 4] = [25, 10, 40, 25];
/// Share of amends and deletes aimed at the oldest [`HOT_KEYS`] orders.
const HOT_FRACTION: f64 = 0.8;
const HOT_KEYS: usize = 16;

/// One generated statement and what it measures.
enum Step {
    /// Kind, row key, SQL text, bytes of XML written.
    Write(WriteKind, i64, String, u64),
    Read(ReadClass, String),
}

/// The seeded lifecycle: tracks the live keys so every amend and delete
/// hits a live order. Every write's text is unique.
struct Lifecycle {
    rng: StdRng,
    docs: OrderGenerator,
    live: Vec<i64>,
    next_key: i64,
    seq: u64,
    reads: usize,
    dates: Vec<String>,
}

impl Lifecycle {
    fn new(seed: u64, coll: &Collection) -> Lifecycle {
        Lifecycle {
            rng: StdRng::seed_from_u64(seed ^ 0xD31_11FE),
            docs: OrderGenerator::new(OrderParams {
                seed: seed ^ 0xA11,
                ..OrderParams::default()
            }),
            live: coll.docs.iter().map(|(k, _)| *k).collect(),
            next_key: coll.docs.len() as i64,
            seq: 0,
            reads: 0,
            dates: coll.dates.clone(),
        }
    }

    /// A fresh order; one in a hundred gains a promo, another a remark.
    fn order(&mut self) -> String {
        let xml = self.docs.next_order();
        match self.seq % 100 {
            37 => xml.replacen("</custid>", "</custid><promo><code>P1</code></promo>", 1),
            71 => xml.replace("<product>", "<remark>check stock</remark><product>"),
            _ => xml,
        }
    }

    fn target(&mut self) -> usize {
        if self.rng.random_bool(HOT_FRACTION) {
            self.rng.random_range(0..self.live.len().min(HOT_KEYS))
        } else {
            self.rng.random_range(0..self.live.len())
        }
    }

    fn next(&mut self) -> Step {
        self.seq += 1;
        let total: u32 = WEIGHTS.iter().sum();
        let mut draw = if self.live.is_empty() {
            0
        } else {
            self.rng.random_range(0..total)
        };
        let mut pick = 0;
        while draw >= WEIGHTS[pick] {
            draw -= WEIGHTS[pick];
            pick += 1;
        }
        match pick {
            0 => {
                let ordid = self.next_key;
                self.next_key += 1;
                self.live.push(ordid);
                let xml = self.order();
                let bytes = xml.len() as u64;
                Step::Write(
                    WriteKind::Insert,
                    ordid,
                    DmlOp::Insert { ordid, xml }.to_sql(),
                    bytes,
                )
            }
            1 => {
                let at = self.target();
                let ordid = self.live[at];
                let xml = self.order().replacen(
                    "</custid>",
                    &format!("</custid><amended seq=\"{}\"/>", self.seq),
                    1,
                );
                let bytes = xml.len() as u64;
                Step::Write(
                    WriteKind::Replace,
                    ordid,
                    DmlOp::Amend { ordid, xml }.to_sql(),
                    bytes,
                )
            }
            2 => self.read(),
            _ => {
                let at = self.target();
                let ordid = self.live.remove(at);
                Step::Write(
                    WriteKind::Delete,
                    ordid,
                    DmlOp::Delete { ordid }.to_sql(),
                    0,
                )
            }
        }
    }

    /// A report read, cycling through the classes. Thresholds carry the
    /// sequence number, so report texts are unique too.
    fn read(&mut self) -> Step {
        self.reads += 1;
        let class = ReadClass::ALL[self.reads % ReadClass::ALL.len()];
        let t = format!("99{}.{:06}", self.seq % 10, self.seq);
        let exists = |path: String| {
            format!("SELECT ordid FROM orders WHERE XMLEXISTS('{path}' passing orddoc as \"o\")")
        };
        let text = match class {
            ReadClass::Probe => exists(format!("$o/order[lineitem/@price > {t}]")),
            ReadClass::Prefilter => exists("$o/order[promo/code]".into()),
            ReadClass::Twig => exists(format!("$o//order[lineitem[@price > {t}]/remark]")),
            ReadClass::Scan => {
                let d = &self.dates[self.reads % self.dates.len()];
                exists(format!("$o/order[shipdate = \"{d}\"]"))
            }
            ReadClass::Point => {
                let k = self.live[self.rng.random_range(0..self.live.len())];
                format!("SELECT ordid, orddoc FROM orders WHERE ordid = {k}")
            }
        };
        Step::Read(class, text)
    }
}

pub fn run(r: &Run, out: &mut Outcome, layers: &mut Layers) -> Res<Measure> {
    let coll = Collection::generate(r.seed, PRELOAD);
    let dir = r.work.join("dml_durable");
    let mut m = Measure::new(r.seconds);

    let mut session: Option<SqlSession> = None;
    for _ in 0..SETUP_REPEATS {
        drop(session.take());
        let t0 = Instant::now();
        let mut s = durable_orders_session(&dir)?;
        load(&mut s.catalog, &coll.docs)?;
        let (ckpt, d) = timed(|| s.checkpoint());
        ckpt.map_err(err("checkpoint"))?;
        m.setup_s.push(t0.elapsed().as_secs_f64());
        layers.checkpoint_ms.push(ms(d));
        session = Some(s);
    }
    let mut session = session.ok_or("no set-up ran")?;
    if r.trace {
        storage_layers(&session.catalog, &coll, layers)?;
    }

    let traced_obs = Obs::new(ObsConfig::enabled());
    let mut life = Lifecycle::new(r.seed, &coll);
    let mut live_xml: std::collections::BTreeMap<i64, u64> = coll
        .docs
        .iter()
        .map(|(k, x)| (*k, x.len() as u64))
        .collect();
    let pool0 = session.catalog.pool_stats();
    m.start_timed();
    let mut ops = 0u64;
    while m.running() {
        if m.recovery_due() {
            let durability = session.durability().map(|d| d.as_ref());
            let live_rows = life.live.len();
            recover_crash_image(r, durability, &dir, live_rows, true, &mut m, out, layers)?;
        }
        ops += 1;
        let traced = r.trace && ops.is_multiple_of(2);
        session.set_obs(if traced {
            traced_obs.clone()
        } else {
            Obs::disabled()
        });
        let step = life.next();
        let text = match &step {
            Step::Write(_, _, sql, _) | Step::Read(_, sql) => sql.clone(),
        };
        out.attempted += 1;
        let started = Instant::now();
        let (res, d) = timed(|| session.execute(&text));
        let result = match res {
            Ok(result) => result,
            Err(e) => {
                out.fail(format!("{}: {e}", abbreviate(&text)));
                continue;
            }
        };
        match step {
            Step::Write(kind, key, _, bytes) => {
                let expect = match kind {
                    WriteKind::Insert => "1 row inserted",
                    WriteKind::Replace => "1 row(s) updated",
                    WriteKind::Delete => "1 row(s) deleted",
                };
                if result.message.as_deref() != Some(expect) {
                    out.fail(format!(
                        "{}: answered {:?}",
                        abbreviate(&text),
                        result.message
                    ));
                }
                m.write(kind, d);
                match kind {
                    WriteKind::Delete => live_xml.remove(&key),
                    _ => live_xml.insert(key, bytes),
                };
                if traced {
                    layers.traced_writes += 1;
                    layers.written_xml_bytes += bytes;
                }
            }
            Step::Read(class, _) => {
                m.read(class, d);
                if r.trace {
                    let into = if traced {
                        &mut layers.traced_ms
                    } else {
                        &mut layers.plain_ms
                    };
                    into.entry(class).or_default().push(ms(d));
                }
                if traced {
                    layers.sql.add(class, &result.stats, result.rows.len());
                }
            }
        }
        if traced {
            let op = layers.log.begin_op();
            let root = layers.log.record(op, SQL, None, started, ns(d));
            layers
                .log
                .attach(op, root, started, &result.trace.finished_spans());
        }
        if ops.is_multiple_of(CHECKPOINT_EVERY) {
            let (ckpt, d) = timed(|| session.checkpoint());
            ckpt.map_err(err("checkpoint"))?;
            layers.checkpoint_ms.push(ms(d));
        }
    }
    m.stop_timed();
    m.timed_ops = ops;
    session.set_obs(Obs::disabled());
    layers.pool = session.catalog.pool_stats().delta_since(&pool0);
    layers.pool_ops = ops;
    layers.counters = traced_obs.metrics_snapshot();

    let live_rows = life.live.len();
    if live_xml.len() != live_rows {
        out.fail(format!(
            "lifecycle tracks {live_rows} live keys but {} documents",
            live_xml.len()
        ));
    }
    m.live_xml_bytes = live_xml.values().sum();
    out.note(format!(
        "live rows at the end: {live_rows} (preloaded {})",
        coll.docs.len()
    ));
    shut_down_and_recover(r, Some(session), &dir, live_rows, true, &mut m, out, layers)?;
    Ok(m)
}

fn abbreviate(sql: &str) -> String {
    sql.chars().take(120).collect()
}
