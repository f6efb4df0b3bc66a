//! Property-based validation of the structural pre-filter: for randomized
//! heterogeneous collections (namespaced and plain, attributed, depth ≤ 4)
//! and randomized queries (child steps, occasional `//`, wildcards,
//! predicates, FLWOR with `where`), executing with the pre-filter ON must
//! give byte-identical results to executing with it OFF.
//!
//! This is the pre-filter's Definition 1 contract: the path-signature test
//! may pass documents that the query then rejects (false positives), but it
//! may never skip a document the query would keep (zero false negatives).

// Test target: unwrap/expect are the assertion idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xqdb_core::{run_xquery_with_options, Catalog, ExecOptions, SqlSession};
use xqdb_storage::{Column, SqlType, SqlValue, Table};

const NAMES: &[&str] = &["order", "item", "promo", "code", "note", "deal", "price"];
const ATTRS: &[&str] = &["id", "price", "kind"];
const NS: &str = "urn:prefilter-prop";

fn gen_elem(rng: &mut StdRng, depth: usize, out: &mut String) {
    let name = NAMES[rng.random_range(0..NAMES.len())];
    out.push('<');
    out.push_str(name);
    if rng.random_bool(0.4) {
        let a = ATTRS[rng.random_range(0..ATTRS.len())];
        out.push_str(&format!(" {a}=\"{}\"", rng.random_range(0..100u32)));
    }
    if depth >= 4 || rng.random_bool(0.3) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for _ in 0..rng.random_range(1..=3usize) {
        if rng.random_bool(0.8) {
            gen_elem(rng, depth + 1, out);
        } else {
            out.push_str("text");
        }
    }
    out.push_str(&format!("</{name}>"));
}

/// One random document; ~30% of documents live in the test namespace.
fn gen_doc(rng: &mut StdRng) -> String {
    let root = NAMES[rng.random_range(0..NAMES.len())];
    let mut out = String::new();
    out.push('<');
    out.push_str(root);
    if rng.random_bool(0.3) {
        out.push_str(&format!(" xmlns=\"{NS}\""));
    }
    out.push('>');
    for _ in 0..rng.random_range(1..=3usize) {
        gen_elem(rng, 1, &mut out);
    }
    out.push_str(&format!("</{root}>"));
    out
}

fn name(rng: &mut StdRng) -> &'static str {
    NAMES[rng.random_range(0..NAMES.len())]
}

fn attr(rng: &mut StdRng) -> &'static str {
    ATTRS[rng.random_range(0..ATTRS.len())]
}

/// A random rooted path over the collection, with an optional predicate:
/// mostly child steps with concrete names, sometimes `//`, `*` or a final
/// attribute step — exactly the mix the conservative extractor must stay
/// sound on.
fn gen_path(rng: &mut StdRng, base: &str) -> String {
    let mut path = String::from(base);
    let steps = rng.random_range(1..=3usize);
    for i in 0..steps {
        let sep = if rng.random_bool(0.2) { "//" } else { "/" };
        path.push_str(sep);
        let last = i + 1 == steps;
        match rng.random_range(0..10u32) {
            0 => path.push('*'),
            1 if last => {
                path.push('@');
                path.push_str(attr(rng));
            }
            _ => path.push_str(name(rng)),
        }
    }
    if rng.random_bool(0.5) && !path.ends_with(|c: char| c.is_ascii_digit()) {
        let pred = match rng.random_range(0..5u32) {
            0 => format!("[@{}]", attr(rng)),
            1 => format!("[{}/{}]", name(rng), name(rng)),
            2 => "[1]".to_string(),
            3 => format!("[@{} = '7']", attr(rng)),
            _ => format!("[{}]", name(rng)),
        };
        path.push_str(&pred);
    }
    path
}

/// A random query: a bare path, a FLWOR over it, a FLWOR with a `where`
/// clause, FLWORs with `let` bindings (used in `where`, used only in
/// `return`, or not used at all), or an aggregate — ~30% declare the test
/// default namespace.
fn gen_query(rng: &mut StdRng) -> String {
    let prolog = if rng.random_bool(0.3) {
        format!("declare default element namespace \"{NS}\"; ")
    } else {
        String::new()
    };
    let col = "db2-fn:xmlcolumn('DOCS.DOC')";
    match rng.random_range(0..8u32) {
        0 => format!("{prolog}{}", gen_path(rng, col)),
        1 => format!("{prolog}for $d in {} return $d", gen_path(rng, col)),
        2 => format!(
            "{prolog}for $d in {col}/{} where $d/{} return $d",
            name(rng),
            name(rng)
        ),
        3 => format!(
            "{prolog}for $d in {col}/{} let $x := $d/{} where $x/{} return $x",
            name(rng),
            name(rng),
            name(rng)
        ),
        4 => format!(
            "{prolog}for $d in {col}/{} let $x := {} return $d/{}",
            name(rng),
            gen_path(rng, "$d"),
            name(rng)
        ),
        5 => format!(
            "{prolog}for $d in {col}/{} let $x := $d/{} return $x",
            name(rng),
            name(rng)
        ),
        6 => format!("{prolog}let $x := {} return $x/{}", gen_path(rng, col), name(rng)),
        _ => format!("{prolog}count({})", gen_path(rng, col)),
    }
}

/// A random `XMLEXISTS` body over the PASSING variable `$d`: mostly a
/// path, sometimes a FLWOR whose `let` is unused, used only in `return`,
/// or used in `where`.
fn gen_sql_pred(rng: &mut StdRng) -> String {
    match rng.random_range(0..6u32) {
        0 => format!("let $x := {} return {}", gen_path(rng, "$d"), gen_path(rng, "$d")),
        1 => format!(
            "for $o in $d/{} let $x := $o/{} return $o/{}",
            name(rng),
            name(rng),
            name(rng)
        ),
        2 => format!(
            "for $o in $d/{} let $x := $o/{} where $x/{} return $o",
            name(rng),
            name(rng),
            name(rng)
        ),
        _ => gen_path(rng, "$d"),
    }
}

/// A fresh catalog with `n` random documents in DOCS(ID, DOC).
fn gen_catalog(rng: &mut StdRng, n: usize) -> (Catalog, Vec<String>) {
    let mut c = Catalog::new();
    c.create_table(Table::new(
        "docs",
        vec![Column::new("id", SqlType::Integer), Column::new("doc", SqlType::Xml)],
    ))
    .unwrap();
    let mut raw = Vec::with_capacity(n);
    for i in 0..n {
        let xml = gen_doc(rng);
        let doc = xqdb_xmlparse::parse_document(&xml).unwrap();
        c.insert("docs", vec![SqlValue::Integer(i as i64), SqlValue::Xml(doc.root())])
            .unwrap();
        raw.push(xml);
    }
    (c, raw)
}

/// The central property: pre-filter ON is byte-identical to pre-filter OFF
/// for every (collection, query) pair — at 1 and 4 threads.
#[test]
fn prefilter_on_equals_prefilter_off() {
    let mut skipped_total = 0usize;
    let mut nonempty_cases = 0usize;
    for case in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(0xD15C ^ case);
        let (catalog, _) = gen_catalog(&mut rng, 25);
        let query = gen_query(&mut rng);
        let off = ExecOptions { prefilter: false, ..ExecOptions::default() };
        let want = match run_xquery_with_options(&catalog, &query, &off) {
            Ok(out) => xqdb_xmlparse::serialize_sequence(&out.sequence),
            // The generator can produce queries the evaluator rejects;
            // the pre-filter cannot turn an error into a result.
            Err(e) => {
                let on = ExecOptions::default();
                assert!(
                    run_xquery_with_options(&catalog, &query, &on).is_err(),
                    "case {case}: prefilter masked error {e} for {query}"
                );
                continue;
            }
        };
        for threads in [1usize, 4] {
            let on = ExecOptions { threads, ..ExecOptions::default() };
            let out = run_xquery_with_options(&catalog, &query, &on)
                .unwrap_or_else(|e| panic!("case {case}: prefilter run failed: {e}\n{query}"));
            let got = xqdb_xmlparse::serialize_sequence(&out.sequence);
            assert_eq!(
                got, want,
                "case {case} at {threads} thread(s): results diverged (false negative!)\nquery: {query}"
            );
            if threads == 1 {
                skipped_total += out.stats.prefilter_docs_skipped;
                if !out.sequence.is_empty() {
                    nonempty_cases += 1;
                }
            }
        }
    }
    // The suite must not pass vacuously: some cases returned rows and (when
    // the environment has not disabled the filter) some documents were
    // actually skipped.
    assert!(nonempty_cases > 10, "only {nonempty_cases} cases returned rows");
    if std::env::var("XQDB_PREFILTER").map_or(true, |v| v != "off") {
        assert!(skipped_total > 100, "pre-filter never engaged ({skipped_total} skips)");
    }
}

/// The same property on the SQL/XML front end: `XMLEXISTS` row selection
/// with the session pre-filter on and off returns identical rows.
#[test]
fn sql_prefilter_on_equals_off() {
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xBEEF ^ case);
        let mut on = SqlSession::new();
        let mut off = SqlSession::new();
        off.prefilter = false;
        for s in [&mut on, &mut off] {
            s.execute("create table docs (id integer, doc XML)").unwrap();
        }
        let mut doc_rng = StdRng::seed_from_u64(0xC0FFEE ^ case);
        for i in 0..20 {
            let xml = gen_doc(&mut doc_rng).replace('\'', "");
            let stmt = format!("INSERT INTO docs VALUES ({i}, '{xml}')");
            on.execute(&stmt).unwrap();
            off.execute(&stmt).unwrap();
        }
        let pred = gen_sql_pred(&mut rng).replace('\'', "\"");
        let q = format!(
            "SELECT id FROM docs WHERE XMLEXISTS('{pred}' passing doc as \"d\")"
        );
        let a = on.execute(&q).unwrap_or_else(|e| panic!("case {case}: {e}\n{q}"));
        let b = off.execute(&q).unwrap_or_else(|e| panic!("case {case}: {e}\n{q}"));
        assert_eq!(
            format!("{:?}", a.rows),
            format!("{:?}", b.rows),
            "case {case}: SQL rows diverged (false negative!)\n{q}"
        );
    }
}

/// A two-document catalog: one order with a `<promo>`, one without.
fn promo_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.create_table(Table::new(
        "docs",
        vec![Column::new("id", SqlType::Integer), Column::new("doc", SqlType::Xml)],
    ))
    .unwrap();
    for (i, xml) in [
        "<order><promo><code/></promo><custid>a</custid></order>",
        "<order><custid>b</custid></order>", // no promo
    ]
    .iter()
    .enumerate()
    {
        let doc = xqdb_xmlparse::parse_document(xml).unwrap();
        c.insert("docs", vec![SqlValue::Integer(i as i64), SqlValue::Xml(doc.root())])
            .unwrap();
    }
    c
}

/// Regression: a `let` over a `for` variable's path must not join the
/// `for` group. `let` keeps tuples whose value is empty, so the order
/// without `<promo>` still returns its `custid`.
#[test]
fn let_over_for_var_does_not_drop_docs() {
    let c = promo_catalog();
    let q = "for $o in db2-fn:xmlcolumn('DOCS.DOC')/order \
             let $p := $o/promo \
             return $o/custid";
    let off = ExecOptions { prefilter: false, ..ExecOptions::default() };
    let want = xqdb_xmlparse::serialize_sequence(
        &run_xquery_with_options(&c, q, &off).unwrap().sequence,
    );
    assert_eq!(want, "<custid>a</custid><custid>b</custid>");
    let out = run_xquery_with_options(&c, q, &ExecOptions::default()).unwrap();
    let got = xqdb_xmlparse::serialize_sequence(&out.sequence);
    assert_eq!(got, want, "prefilter dropped a doc (skipped={})", out.stats.prefilter_docs_skipped);
    // A `where` use of the let variable does eliminate the tuple, so it
    // may (and does) still filter.
    let q = "for $o in db2-fn:xmlcolumn('DOCS.DOC')/order \
             let $p := $o/promo where $p/code \
             return $o/custid";
    let out = run_xquery_with_options(&c, q, &ExecOptions::default()).unwrap();
    assert_eq!(xqdb_xmlparse::serialize_sequence(&out.sequence), "<custid>a</custid>");
    if std::env::var("XQDB_PREFILTER").map_or(true, |v| v != "off") {
        assert_eq!(out.stats.prefilter_docs_skipped, 1, "the where use still filters");
    }
}

/// The SQL `XMLEXISTS` twins of the `let` regression: a `let` over the
/// PASSING variable's `for` binding, and a `let` over the PASSING
/// variable itself, keep the row without `<promo>`.
#[test]
fn sql_let_does_not_drop_rows() {
    for pred in [
        "for $o in $d/order let $p := $o/promo return $o/custid",
        "let $p := $d/order/promo return $d/order/custid",
        "let $p := $d/order/promo let $q := $p/code return $d/order/custid",
    ] {
        let mut rows = Vec::new();
        for prefilter in [false, true] {
            let mut s = SqlSession::from_catalog(promo_catalog());
            s.prefilter = prefilter;
            let q = format!("SELECT id FROM docs WHERE XMLEXISTS('{pred}' passing doc as \"d\")");
            rows.push(format!("{:?}", s.execute(&q).unwrap().rows));
        }
        assert_eq!(rows[0], "[[Integer(0)], [Integer(1)]]", "{pred}");
        assert_eq!(rows[1], rows[0], "prefilter dropped a row: {pred}");
    }
}
