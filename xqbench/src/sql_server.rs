//! `sql_server`: the same collection, seed and read classes written as
//! SQL/XML, sent by one closed-loop connection over the loopback TCP
//! server. Every [`WRITE_EVERY`]-th request is one step of a
//! benchmark-owned row's life (INSERT → UPDATE-replace → DELETE).
//!
//! One connection keeps the load to two busy threads (client and server
//! worker), which the benchmark host can run without queueing behind each
//! other; a second connection made the latencies measure the scheduler.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use xqdb_core::{Durability, Obs, ObsConfig, SqlSession};
use xqdb_obs::Counter;
use xqdb_server::chaos::Client;
use xqdb_server::protocol::Response;
use xqdb_server::{run_read_statement, Server, ServerConfig};
use xqdb_xdm::Limits;

use crate::common::{
    durable_orders_session, err, load, ms, ns, recover_crash_image, shut_down_and_recover,
    storage_layers, timed, Measure, Res, Run, SETUP_REPEATS,
};
use crate::data::{
    owned_doc, owned_sql, Collection, OwnedLife, ReadClass, WriteKind, BASE_ORDERS, OWNED_KEY_BASE,
};
use crate::layers::{Layers, SQL};
use crate::report::Outcome;

/// Every this many requests one is an owned-row write.
const WRITE_EVERY: u64 = 5;

/// Send one statement; `None` (and a failure) unless it answered `Ok`.
fn send(
    client: &mut Client,
    text: &str,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Option<(String, Duration)> {
    out.attempted += 1;
    let (res, d) = timed(|| client.statement(text));
    match res {
        Ok(Response::Ok { body }) => return Some((body, d)),
        Ok(Response::Busy { .. }) => {
            layers.server_busy += 1;
            out.fail(format!("{text}: shed with Busy"));
        }
        Ok(other) => out.fail(format!("{text}: {other:?}")),
        Err(e) => out.fail(format!("{text}: {e}")),
    }
    None
}

/// The connection's closed loop for the timed phase. Mid-run recoveries
/// fall between two requests, while the server is idle. Returns the
/// owned rows left live.
#[allow(clippy::too_many_arguments)]
fn drive(
    r: &Run,
    addr: &str,
    texts: &BTreeMap<ReadClass, Vec<String>>,
    expected: &BTreeMap<String, String>,
    (durability, dir, base_rows): (&Durability, &Path, usize),
    m: &mut Measure,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Res<usize> {
    let mut client = Client::connect(addr).map_err(err("connect"))?;
    let mut life = OwnedLife::new(OWNED_KEY_BASE);
    let mut reads = 0;
    let mut i = 0u64;
    m.start_timed();
    while m.running() {
        if m.recovery_due() {
            let live_rows = base_rows + life.live;
            recover_crash_image(r, Some(durability), dir, live_rows, false, m, out, layers)?;
        }
        i += 1;
        if i.is_multiple_of(WRITE_EVERY) {
            let (kind, key) = life.next();
            let Some((body, d)) = send(&mut client, &owned_sql(kind, key), out, layers) else {
                continue;
            };
            if !body.starts_with("1 row") {
                out.fail(format!("{} of key {key} answered {body:?}", kind.name()));
                continue;
            }
            life.done();
            m.write(kind, d);
            m.timed_ops += 1;
            if r.trace {
                layers.traced_writes += 1;
                if kind != WriteKind::Delete {
                    layers.written_xml_bytes += owned_doc(key, 1).len() as u64;
                }
            }
            continue;
        }
        // Classes, then their variants, in a fixed rotation.
        let class = ReadClass::ALL[reads % ReadClass::ALL.len()];
        let variants = &texts[&class];
        let text = &variants[(reads / ReadClass::ALL.len()) % variants.len()];
        reads += 1;
        if let Some((body, d)) = send(&mut client, text, out, layers) {
            m.read(class, d);
            m.timed_ops += 1;
            layers.server_rtt_ms.push(ms(d));
            if expected.get(text) != Some(&body) {
                out.fail(format!(
                    "{text}: response differs from the embedded baseline"
                ));
            }
        }
    }
    m.stop_timed();
    Ok(life.live)
}

pub fn run(r: &Run, out: &mut Outcome, layers: &mut Layers) -> Res<Measure> {
    let coll = Collection::generate(r.seed, BASE_ORDERS);
    let dir = r.work.join("sql_server");
    let mut m = Measure::new(r.seconds);
    let texts: BTreeMap<ReadClass, Vec<String>> = ReadClass::ALL
        .iter()
        .map(|&c| {
            let mut v: Vec<String> = coll.texts(c).into_iter().map(|t| t.1).collect();
            v.dedup();
            (c, v)
        })
        .collect();

    // Set-up: durable load and checkpoint, plus server start. Repeated;
    // the last one serves the run. The embedded baseline answers are
    // computed on the last session before the server takes it over.
    let mut server = None;
    let mut durability = None;
    let mut expected: BTreeMap<String, String> = BTreeMap::new();
    let serve_obs = Obs::new(ObsConfig::metrics_only());
    for rep in 0..SETUP_REPEATS {
        if let Some(s) = server.take() {
            drop(xqdb_server::ServerHandle::shutdown(s));
        }
        drop(durability.take());
        let t0 = Instant::now();
        let mut session = durable_orders_session(&dir)?;
        load(&mut session.catalog, &coll.docs)?;
        let (ckpt, d) = timed(|| session.checkpoint());
        ckpt.map_err(err("checkpoint"))?;
        layers.checkpoint_ms.push(ms(d));
        let mut setup = t0.elapsed();
        if rep + 1 == SETUP_REPEATS {
            expected = baseline(r, &mut session, &texts, out, layers)?;
            if r.trace {
                storage_layers(&session.catalog, &coll, layers)?;
                session.set_obs(serve_obs.clone());
            }
        }
        durability = session.durability().cloned();
        let (started, d) = timed(|| Server::start("127.0.0.1:0", ServerConfig::default(), session));
        setup += d;
        server = Some(started.map_err(err("start server"))?);
        m.setup_s.push(setup.as_secs_f64());
    }
    let server = server.ok_or("no set-up ran")?;
    let durability = durability.ok_or("no set-up ran")?;
    let addr = server.local_addr().to_string();
    let base_rows = coll.docs.len();
    let driven = drive(
        r,
        &addr,
        &texts,
        &expected,
        (&durability, &dir, base_rows),
        &mut m,
        out,
        layers,
    );
    let drained = server.shutdown();
    drop(durability);
    let live_owned = driven?;
    if drained.connection_panics > 0 || drained.accept_panicked {
        out.fail(format!("server threads panicked: {drained:?}"));
    }
    if let Some(e) = &drained.checkpoint_error {
        out.fail(format!("shutdown checkpoint: {e}"));
    }
    if r.trace {
        layers.counters = serve_obs.metrics_snapshot();
        layers.server_admitted = layers
            .counters
            .as_ref()
            .map_or(0, |c| c.counter(Counter::SessionsAdmitted));
    }
    m.live_xml_bytes =
        coll.xml_bytes() + live_owned as u64 * owned_doc(OWNED_KEY_BASE, 1).len() as u64;
    shut_down_and_recover(
        r,
        None,
        &dir,
        base_rows + live_owned,
        false,
        &mut m,
        out,
        layers,
    )?;
    Ok(m)
}

/// The embedded baseline: each distinct read text through
/// `xqdb_server::run_read_statement` on the session the server will
/// serve. The traced run also executes each text once more with tracing
/// on, for the SQL layers and the tracing overhead.
fn baseline(
    r: &Run,
    session: &mut SqlSession,
    texts: &BTreeMap<ReadClass, Vec<String>>,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Res<BTreeMap<String, String>> {
    let mut expected = BTreeMap::new();
    let traced_obs = Obs::new(ObsConfig::enabled());
    for (&class, variants) in texts {
        for text in variants {
            out.attempted += 1;
            let (res, d) = timed(|| run_read_statement(session, text, &Limits::unlimited()));
            match res {
                Ok(body) => {
                    layers.server_exec_ms.push(ms(d));
                    expected.insert(text.clone(), body);
                }
                Err(e) => out.fail(format!("{text}: embedded baseline failed: {e}")),
            }
            if !r.trace {
                continue;
            }
            layers.plain_ms.entry(class).or_default().push(ms(d));
            session.set_obs(traced_obs.clone());
            let started = Instant::now();
            let (res, d) = timed(|| session.execute_read(text, &Limits::unlimited()));
            session.set_obs(Obs::disabled());
            let result = res.map_err(err("traced read"))?;
            layers.traced_ms.entry(class).or_default().push(ms(d));
            let op = layers.log.begin_op();
            let root = layers.log.record(op, SQL, None, started, ns(d));
            layers
                .log
                .attach(op, root, started, &result.trace.finished_spans());
            layers.sql.add(class, &result.stats, result.rows.len());
        }
    }
    Ok(expected)
}
