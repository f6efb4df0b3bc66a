//! `xquery_reads`: one closed-loop client on the embedded XQuery front
//! end over the 10.2k-order collection (about 480 heap pages against the
//! 256-frame pool). Every twig read is followed by one step of a
//! benchmark-owned row's life (insert → replace → delete) through the
//! embedded catalog API.

use std::collections::BTreeMap;
use std::time::Instant;

use xqdb_core::{run_xquery_with_options, Catalog, ExecOptions, Obs, ObsConfig, SqlSession};
use xqdb_storage::{Column, SqlType, SqlValue, Table};

use crate::common::{
    catalog_insert, durable_orders_session, err, load, ms, ns, recover_crash_image,
    shut_down_and_recover, storage_layers, timed, Measure, Res, Run, SETUP_REPEATS,
};
use crate::data::{
    owned_doc, Collection, OwnedLife, ReadClass, WriteKind, BASE_ORDERS, OWNED_KEY_BASE,
};
use crate::layers::{Layers, XQUERY};
use crate::report::Outcome;

/// Fast-class reads per full-navigation read of a cycle. A full
/// navigation cycles the whole collection through the pool, so the probe
/// after it runs on a cold pool (the prefilter and twig documents sit at
/// the end of the load order and stay resident). Twelve keeps those cold
/// probes to one probe in six, far from the median.
const FAST_REPEATS: usize = 12;

/// Reads of one cycle: probe, prefilter and twig in turn,
/// [`FAST_REPEATS`] times each, with scan half way and point last.
fn cycle() -> Vec<ReadClass> {
    let fast = [ReadClass::Probe, ReadClass::Prefilter, ReadClass::Twig];
    let mut v: Vec<ReadClass> = fast.iter().copied().cycle().take(3 * FAST_REPEATS).collect();
    v.insert(3 * FAST_REPEATS / 2, ReadClass::Scan);
    v.push(ReadClass::Point);
    v
}

pub fn run(r: &Run, out: &mut Outcome, layers: &mut Layers) -> Res<Measure> {
    let coll = Collection::generate(r.seed, BASE_ORDERS);
    let dir = r.work.join("xquery_reads");
    let mut m = Measure::new(r.seconds);

    // Set-up: load through a durable session (index maintained on insert),
    // then checkpoint. Repeated; the last session serves the run.
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

    let texts: BTreeMap<ReadClass, Vec<String>> = ReadClass::ALL
        .iter()
        .map(|&c| (c, coll.texts(c).into_iter().map(|t| t.0).collect()))
        .collect();
    let traced_obs = Obs::new(ObsConfig::enabled());
    let mut issued: BTreeMap<ReadClass, usize> = BTreeMap::new();
    let mut seen: BTreeMap<String, String> = BTreeMap::new();
    let mut life = OwnedLife::new(OWNED_KEY_BASE);
    let mut owned_row = 0u64; // rowid of the owned row in flight
    let mut op_no = 0u64;
    let pool0 = session.catalog.pool_stats();

    let reads = cycle();
    let mut pass = 0u64;
    m.start_timed();
    while m.running() {
        pass += 1;
        for &class in &reads {
            if m.recovery_due() {
                let live_rows = coll.docs.len() + life.live;
                let durability = session.durability().map(|d| d.as_ref());
                recover_crash_image(r, durability, &dir, live_rows, false, &mut m, out, layers)?;
            }
            // In the traced run every other read runs untraced, which gives
            // the tracing overhead from one process. The cycle has an even
            // length, so the parity flips each pass: every position of the
            // cycle runs both ways.
            op_no += 1;
            let traced = r.trace && (op_no + pass).is_multiple_of(2);
            let obs = if traced {
                traced_obs.clone()
            } else {
                Obs::disabled()
            };
            session.set_obs(obs.clone());

            let variants = &texts[&class];
            // Variants alternate in a fixed order, so every run reads the
            // same mix.
            let n = issued.entry(class).or_default();
            let text = &variants[*n % variants.len()];
            *n += 1;
            let opts = ExecOptions {
                obs,
                ..ExecOptions::default()
            };
            let started = Instant::now();
            let (res, d) = timed(|| run_xquery_with_options(&session.catalog, text, &opts));
            out.attempted += 1;
            match res {
                Ok(outcome) => {
                    m.read(class, d);
                    m.timed_ops += 1;
                    if r.trace {
                        let into = if traced {
                            &mut layers.traced_ms
                        } else {
                            &mut layers.plain_ms
                        };
                        into.entry(class).or_default().push(ms(d));
                    }
                    if traced {
                        let op = layers.log.begin_op();
                        let root = layers.log.record(op, XQUERY, None, started, ns(d));
                        layers
                            .log
                            .attach(op, root, started, &outcome.trace.finished_spans());
                        layers.xq.add(class, &outcome.stats, outcome.sequence.len());
                    }
                    let rendered = xqdb_xmlparse::serialize_sequence(&outcome.sequence);
                    let first = seen.entry(text.clone()).or_insert_with(|| rendered.clone());
                    if *first != rendered {
                        out.fail(format!(
                            "{text}: answer changed between runs of the same read"
                        ));
                    }
                }
                Err(e) => out.fail(format!("{text}: {e}")),
            }

            // One step of the owned row's life after every twig read. A
            // write always follows the same small read, so its latency does
            // not depend on what the read before it left in the caches.
            if class != ReadClass::Twig {
                continue;
            }
            out.attempted += 1;
            let cat = &mut session.catalog;
            let (kind, key) = life.next();
            let (step, d) = timed(|| -> Res<usize> {
                match kind {
                    WriteKind::Insert => {
                        let doc = owned_doc(key, 1);
                        owned_row = catalog_insert(cat, key, &doc)?;
                        Ok(doc.len())
                    }
                    WriteKind::Replace => {
                        let doc = owned_doc(key, 2);
                        let parsed = xqdb_xmlparse::parse_document(&doc).map_err(err("parse"))?;
                        let values = vec![SqlValue::Integer(key), SqlValue::Xml(parsed.root())];
                        cat.replace("orders", owned_row, values)
                            .map_err(err("replace"))?;
                        Ok(doc.len())
                    }
                    WriteKind::Delete => {
                        cat.delete("orders", &[owned_row]).map_err(err("delete"))?;
                        Ok(0)
                    }
                }
            });
            match step {
                Ok(xml_bytes) => {
                    life.done();
                    m.write(kind, d);
                    m.timed_ops += 1;
                    if traced {
                        layers.traced_writes += 1;
                        layers.written_xml_bytes += xml_bytes as u64;
                    }
                }
                Err(e) => out.fail(format!("owned-row write: {e}")),
            }
        }
    }
    m.stop_timed();
    session.set_obs(Obs::disabled());
    layers.pool = session.catalog.pool_stats().delta_since(&pool0);
    layers.pool_ops = m.timed_ops;
    layers.counters = traced_obs.metrics_snapshot();

    // Every distinct read text against plain navigation of an unindexed
    // twin: no index, prefilter, twig join or costing.
    let mut twin = Catalog::new();
    twin.create_table(Table::new(
        "orders",
        vec![
            Column::new("ordid", SqlType::Integer),
            Column::new("orddoc", SqlType::Xml),
        ],
    ))
    .map_err(err("twin table"))?;
    load(&mut twin, &coll.docs)?;
    let plain = ExecOptions {
        prefilter: false,
        twig: false,
        cost: false,
        ..ExecOptions::default()
    };
    for (text, got) in &seen {
        match run_xquery_with_options(&twin, text, &plain) {
            Ok(o) if xqdb_xmlparse::serialize_sequence(&o.sequence) == *got => {}
            Ok(_) => out.fail(format!("{text}: differs from plain navigation")),
            Err(e) => out.fail(format!("{text}: plain navigation failed: {e}")),
        }
    }
    out.note(format!(
        "checked {} distinct read texts against plain navigation",
        seen.len()
    ));
    drop(twin);

    if r.trace {
        storage_layers(&session.catalog, &coll, layers)?;
    }
    let live_rows = coll.docs.len() + life.live;
    m.live_xml_bytes = coll.xml_bytes() + life.live_xml_bytes();
    shut_down_and_recover(
        r,
        Some(session),
        &dir,
        live_rows,
        false,
        &mut m,
        out,
        layers,
    )?;
    Ok(m)
}
