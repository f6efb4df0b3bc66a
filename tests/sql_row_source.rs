//! Differential test of the SQL row source (access paths → relational
//! pre-pass → survivor fetch → residual WHERE).
//!
//! Every SELECT, UPDATE and DELETE below runs under each configuration of
//! {index, twig join, prefilter, cost} on/off × {1, 2} threads and must
//! give byte-identical rows, messages and error codes to the baseline: an
//! unindexed session with every access path off, whose WHERE is prefixed
//! by `XMLEXISTS('1') AND (...)`. That prefix is always TRUE and raises
//! nothing, but it is not a relational conjunct, so the baseline's row
//! source runs no pre-pass: it evaluates the whole WHERE on every row,
//! which is the plain semantics the pre-pass must reproduce.
//!
//! After each DML statement the table's surviving contents must match the
//! baseline's and `verify_derived_state` must be clean.

// Test target: unwrap/expect are the assertion idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use xqdb_core::{verify_derived_state, SqlSession};
use xqdb_runtime::RuntimeConfig;

const ROWS: i64 = 30;

#[derive(Debug, Clone, Copy)]
struct Config {
    index: bool,
    twig: bool,
    prefilter: bool,
    cost: bool,
    threads: usize,
}

fn configs() -> Vec<Config> {
    let mut out = Vec::new();
    for bits in 0..16u32 {
        for threads in [1, 2] {
            out.push(Config {
                index: bits & 1 != 0,
                twig: bits & 2 != 0,
                prefilter: bits & 4 != 0,
                cost: bits & 8 != 0,
                threads,
            });
        }
    }
    out
}

/// Row `i`'s order: prices spread over 0..1000, every 4th order has a
/// `<promo>`, every 9th has no XML at all.
fn order_doc(i: i64) -> Option<String> {
    if i % 9 == 8 {
        return None;
    }
    let promo = if i % 4 == 0 { "<promo>5</promo>" } else { "" };
    let (p1, p2) = ((i * 37) % 1000, (i * 91 + 13) % 1000);
    Some(format!(
        "<order><custid>{}</custid>{promo}<lineitem price=\"{p1}\"/><lineitem price=\"{p2}\"/></order>",
        i % 5
    ))
}

/// A loaded session: ORDERS(ordid, status, orddoc) with NULL ordids,
/// statuses and documents sprinkled in, and CUSTOMER(cid, cdoc).
fn session(cfg: Option<Config>) -> SqlSession {
    let mut s = SqlSession::default();
    s.execute("create table orders (ordid integer, status varchar(10), orddoc XML)")
        .unwrap();
    s.execute("create table customer (cid integer, cdoc XML)")
        .unwrap();
    if cfg.is_some_and(|c| c.index) {
        s.execute(
            "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
        )
        .unwrap();
    }
    for i in 0..ROWS {
        let ordid = if i % 7 == 6 {
            "NULL".to_string()
        } else {
            i.to_string()
        };
        let status = match i % 3 {
            0 => "'open'",
            1 => "'closed'",
            _ => "NULL",
        };
        let doc = order_doc(i).map_or("NULL".to_string(), |d| format!("'{d}'"));
        s.execute(&format!(
            "INSERT INTO orders VALUES ({ordid}, {status}, {doc})"
        ))
        .unwrap();
    }
    for c in 0..5 {
        s.execute(&format!(
            "INSERT INTO customer VALUES ({c}, '<customer><id>{c}</id></customer>')"
        ))
        .unwrap();
    }
    match cfg {
        Some(c) => {
            s.twig = c.twig;
            s.prefilter = c.prefilter;
            s.cost = c.cost;
            s.catalog.runtime = RuntimeConfig::with_threads(c.threads);
        }
        None => {
            s.twig = false;
            s.prefilter = false;
            s.cost = false;
        }
    }
    s
}

/// Rows, message and error code of one statement, as one comparable string.
fn outcome(s: &mut SqlSession, sql: &str) -> String {
    match s.execute(sql) {
        Ok(r) => format!("ok columns={:?}\n{}", r.columns, r.render()),
        Err(e) => format!("error {:?}: {}", e.code, e.message),
    }
}

/// The baseline form of a WHERE: evaluated whole on every row.
fn plain(cond: &str) -> String {
    format!("XMLEXISTS('1') AND ({cond})")
}

const XE_HIGH: &str = "XMLEXISTS('$o//lineitem[@price > 900]' passing orddoc as \"o\")";
const XE_MID: &str = "XMLEXISTS('$o//lineitem[@price > 500]' passing orddoc as \"o\")";
const XE_PROMO: &str = "XMLEXISTS('$o/order[promo]/custid' passing orddoc as \"o\")";

/// One-table WHERE shapes shared by SELECT, UPDATE and DELETE.
fn where_shapes() -> Vec<String> {
    vec![
        // relational only
        "ordid = 17".into(),
        "5 > ordid".into(),
        "ordid > 20 AND status = 'open'".into(),
        "status = 'open' OR ordid < 3".into(),
        "NOT (ordid < 25)".into(),
        // XMLEXISTS only
        XE_HIGH.into(),
        XE_PROMO.into(),
        // mixed AND, either order
        format!("ordid > 10 AND {XE_MID}"),
        format!("{XE_MID} AND status = 'closed'"),
        format!("status = 'open' AND {XE_PROMO} AND ordid < 20"),
        // OR across a relational test and XMLEXISTS
        format!("ordid = 3 OR {XE_HIGH}"),
        format!("({XE_PROMO} OR status = 'closed') AND ordid <> 4"),
        // NULLs
        "ordid = NULL".into(),
        "status = 'closed'".into(),
        "ordid < 10 AND status = NULL".into(),
        "NOT (status = 'open')".into(),
        // type errors: the same error, raised on the same row
        "ordid = 'x'".into(),
        "status = 'open' AND ordid = 'x'".into(),
        format!("{XE_MID} AND ordid = 'x'"),
        format!("ordid = 'x' AND {XE_MID}"),
        // an UNKNOWN relational test does not stop a later conjunct's error
        "status = NULL AND XMLEXISTS('xs:integer(\"x\")')".into(),
        // an unknown column
        "nosuch = 1".into(),
    ]
}

fn select_cases() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = where_shapes()
        .into_iter()
        .map(|w| (format!("SELECT ordid, status FROM orders WHERE {w}"), w))
        .collect();
    let head = "SELECT * FROM orders WHERE ";
    out.push((format!("{head}ordid = 12"), "ordid = 12".into()));
    // Two-table FROM: join predicates, per-table relational tests,
    // qualified and unqualified references, and a self-join whose access
    // path applies to one alias only.
    let two = "SELECT o.ordid, c.cid FROM orders o, customer c WHERE ";
    for w in [
        "o.ordid = c.cid".to_string(),
        format!(
            "c.cid = 2 AND o.ordid < 6 AND {}",
            XE_MID.replace("orddoc", "o.orddoc")
        ),
        "cid = 1 AND ordid > 25".to_string(),
        "o.ordid = c.cid AND status = 'open'".to_string(),
        "c.cid = 'x' AND o.ordid = 1".to_string(),
    ] {
        out.push((format!("{two}{w}"), w));
    }
    // A lateral XMLTABLE after the table: its per-row expansion raises a
    // cardinality error on every order with a <promo> (two prices), so a
    // relational test must not drop rows before it has run.
    let lateral =
        "SELECT o.ordid, t.p FROM orders o, XMLTABLE('$d/order' passing o.orddoc as \"d\" \
                   COLUMNS \"p\" INTEGER PATH 'promo/../lineitem/@price') as t(p) WHERE ";
    for w in ["o.ordid = 3", "ordid > 100"] {
        out.push((format!("{lateral}{w}"), w.to_string()));
    }
    let selfjoin = "SELECT a.ordid, b.ordid FROM orders a, orders b WHERE ";
    for w in [
        format!("a.ordid = 1 AND {}", XE_HIGH.replace("orddoc", "b.orddoc")),
        "a.ordid = b.ordid AND a.status = 'closed'".to_string(),
    ] {
        out.push((format!("{selfjoin}{w}"), w));
    }
    out
}

#[test]
fn select_matches_plain_evaluation_in_every_configuration() {
    let cases = select_cases();
    let mut base = session(None);
    let want: Vec<String> = cases
        .iter()
        .map(|(sql, w)| {
            outcome(
                &mut base,
                &sql.replace(&format!("WHERE {w}"), &format!("WHERE {}", plain(w))),
            )
        })
        .collect();
    // The suite must exercise both outcomes.
    assert!(
        want.iter().any(|o| o.starts_with("error SqlType")),
        "no type error case"
    );
    assert!(
        want.iter().any(|o| o.starts_with("error SqlCardinality")),
        "no XMLTABLE error case"
    );
    assert!(
        want.iter().filter(|o| o.contains("row 1:")).count() > 15,
        "too few non-empty results"
    );
    for cfg in configs() {
        let mut s = session(Some(cfg));
        for ((sql, _), want) in cases.iter().zip(&want) {
            assert_eq!(&outcome(&mut s, sql), want, "{cfg:?}\n{sql}");
            // A plan-cache hit replays the same plan through the same row
            // source.
            assert_eq!(&outcome(&mut s, sql), want, "{cfg:?} (cached)\n{sql}");
        }
    }
}

/// Every WHERE shape as a DELETE and as both kinds of UPDATE (relational
/// column, XML document), applied in one cumulative sequence so later
/// statements also run over tombstoned and replaced rows. Each shape's
/// statements are followed by an INSERT of a fresh row, so the table
/// never drains.
fn dml_sequence() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (i, w) in where_shapes().into_iter().enumerate() {
        let n = ROWS + i as i64;
        let price = 400 + 50 * (i % 12);
        let mut stmts = vec![
            ("UPDATE orders SET status = 'done' WHERE ".to_string(), w.clone()),
            (
                format!("UPDATE orders SET orddoc = '<order><lineitem price=\"{price}\"/></order>' WHERE "),
                w.clone(),
            ),
            ("DELETE FROM orders WHERE ".to_string(), w),
        ];
        // Alternate which statement sees the shape's rows first.
        stmts.rotate_left(i % 3);
        out.extend(stmts);
        let doc = order_doc(n).map_or("NULL".to_string(), |d| format!("'{d}'"));
        out.push((
            format!("INSERT INTO orders VALUES ({n}, 'open', {doc})"),
            String::new(),
        ));
    }
    out
}

#[test]
fn dml_matches_plain_evaluation_in_every_configuration() {
    let contents = "SELECT ordid, status, orddoc FROM orders";
    let sequence = dml_sequence();
    let mut base = session(None);
    let wants: Vec<(String, String)> = sequence
        .iter()
        .map(|(head, w)| {
            let sql = if w.is_empty() {
                head.clone()
            } else {
                format!("{head}{}", plain(w))
            };
            let msg = outcome(&mut base, &sql);
            (msg, outcome(&mut base, contents))
        })
        .collect();
    let applied = |kind: &str| {
        wants
            .iter()
            .filter(|(m, _)| m.contains(kind) && !m.contains("\n0 row"))
            .count()
    };
    assert!(applied("row(s) deleted") > 5, "too few deletes applied");
    assert!(applied("row(s) updated") > 10, "too few updates applied");
    for cfg in configs() {
        let mut s = session(Some(cfg));
        for ((head, w), (want_msg, want_rows)) in sequence.iter().zip(&wants) {
            let sql = format!("{head}{w}");
            assert_eq!(&outcome(&mut s, &sql), want_msg, "{cfg:?}\n{sql}");
            assert_eq!(
                &outcome(&mut s, contents),
                want_rows,
                "{cfg:?} contents after\n{sql}"
            );
            let report = verify_derived_state(&s.catalog).unwrap();
            assert!(report.is_clean(), "{cfg:?}\n{sql}\n{}", report.render());
        }
    }
}
