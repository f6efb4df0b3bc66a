//! Seeded inputs: the order collection, the read classes and their
//! literals, and the benchmark-owned rows the write traffic cycles through.
//!
//! Every read's answer is fixed for a given seed: benchmark-owned rows
//! carry no `<promo>`, no `<remark>`, a 1999 ship date (generated orders
//! ship 2000–2005), a non-numeric `id` and prices below every threshold,
//! so no read class can ever match them.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xqdb_workload::{OrderGenerator, OrderParams};

/// Generated orders, before the decorated extras.
pub const BASE_ORDERS: usize = 10_000;
/// Row keys at or above this belong to the benchmark's own write traffic.
pub const OWNED_KEY_BASE: i64 = 1_000_000;

/// The read classes, in the order metrics report them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReadClass {
    /// Paper Q1: an index-eligible value predicate, served by a probe.
    Probe,
    /// A structural-only predicate, served by the signature prefilter.
    Prefilter,
    /// A branching predicate, served by the twig join after the probe.
    Twig,
    /// A value predicate no index covers: navigation of every document.
    Scan,
    /// One order by key.
    Point,
}

impl ReadClass {
    pub const ALL: [ReadClass; 5] = [
        ReadClass::Probe,
        ReadClass::Prefilter,
        ReadClass::Twig,
        ReadClass::Scan,
        ReadClass::Point,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ReadClass::Probe => "probe",
            ReadClass::Prefilter => "prefilter",
            ReadClass::Twig => "twig",
            ReadClass::Scan => "scan",
            ReadClass::Point => "point",
        }
    }
}

/// The write kinds, in the order metrics report them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WriteKind {
    Insert,
    Replace,
    Delete,
}

impl WriteKind {
    pub const ALL: [WriteKind; 3] = [WriteKind::Insert, WriteKind::Replace, WriteKind::Delete];

    pub fn name(self) -> &'static str {
        match self {
            WriteKind::Insert => "insert",
            WriteKind::Replace => "replace",
            WriteKind::Delete => "delete",
        }
    }
}

/// Price thresholds of the probe and twig classes: every generated price
/// lies in [0, 1000), so each selects about 1% of lineitems. They are the
/// same for every seed and close together, so a class costs about the
/// same whichever variant runs.
const THRESHOLDS: [u32; 2] = [990, 991];

/// Give an order a promo child (the prefilter class's target).
fn add_promo(xml: &str, i: usize) -> String {
    xml.replacen(
        "</custid>",
        &format!("</custid><promo><code>P{}</code></promo>", i % 7),
        1,
    )
}

/// Give each lineitem of an order a remark (the twig class's target).
fn add_remark(xml: &str) -> String {
    xml.replace("<product>", "<remark>check stock</remark><product>")
}

/// The seeded collection plus the literals its reads use.
#[derive(Debug)]
pub struct Collection {
    /// `(ordid, document text)` in load order.
    pub docs: Vec<(i64, String)>,
    /// Ship dates of the scan class (each matches a handful of orders).
    pub dates: Vec<String>,
    /// Keys of the point class (`ordid`; the document's `id` is key + 1).
    pub points: Vec<i64>,
}

impl Collection {
    /// `base` generated orders, then `base / 100` orders with a promo and
    /// `base / 100` whose lineitems carry remarks.
    pub fn generate(seed: u64, base: usize) -> Collection {
        let extra = base / 100;
        let mut g = OrderGenerator::new(OrderParams {
            seed,
            ..OrderParams::default()
        });
        let docs = (0..base + 2 * extra)
            .map(|i| {
                let xml = g.next_order();
                let xml = if i < base {
                    xml
                } else if i < base + extra {
                    add_promo(&xml, i)
                } else {
                    add_remark(&xml)
                };
                (i as i64, xml)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_DA7E);
        let dates = (0..2)
            .map(|_| {
                format!(
                    "{:04}-{:02}-{:02}",
                    2000 + rng.random_range(0..6u32),
                    rng.random_range(1..=12u32),
                    rng.random_range(1..=28u32)
                )
            })
            .collect();
        let points = (0..2).map(|_| rng.random_range(0..base as i64)).collect();
        Collection {
            docs,
            dates,
            points,
        }
    }

    /// Bytes of XML text in the collection.
    pub fn xml_bytes(&self) -> u64 {
        self.docs.iter().map(|(_, x)| x.len() as u64).sum()
    }

    /// The distinct literal variants of a class, as `(xquery, sql)` texts.
    pub fn texts(&self, class: ReadClass) -> Vec<(String, String)> {
        match class {
            ReadClass::Probe => THRESHOLDS
                .iter()
                .map(|t| {
                    (
                        format!("{COLL}//order[lineitem/@price > {t}]"),
                        exists(&format!("$o/order[lineitem/@price > {t}]")),
                    )
                })
                .collect(),
            ReadClass::Prefilter => ["custid", "shipdate"]
                .iter()
                .map(|leaf| {
                    (
                        format!("{COLL}/order[promo/code]/{leaf}"),
                        exists("$o/order[promo/code]"),
                    )
                })
                .collect(),
            ReadClass::Twig => THRESHOLDS
                .iter()
                .map(|t| {
                    (
                        format!("{COLL}//order[lineitem[@price > {t}]/remark]//custid"),
                        exists(&format!("$o//order[lineitem[@price > {t}]/remark]")),
                    )
                })
                .collect(),
            ReadClass::Scan => self
                .dates
                .iter()
                .map(|d| {
                    (
                        format!("{COLL}/order[shipdate = \"{d}\"]/custid"),
                        exists(&format!("$o/order[shipdate = \"{d}\"]")),
                    )
                })
                .collect(),
            ReadClass::Point => self
                .points
                .iter()
                .map(|k| {
                    (
                        format!("{COLL}/order[@id = \"{}\"]/custid", k + 1),
                        format!("SELECT ordid, orddoc FROM orders WHERE ordid = {k}"),
                    )
                })
                .collect(),
        }
    }
}

const COLL: &str = "db2-fn:xmlcolumn('ORDERS.ORDDOC')";

fn exists(path: &str) -> String {
    format!("SELECT ordid FROM orders WHERE XMLEXISTS('{path}' passing orddoc as \"o\")")
}

/// A benchmark-owned order: matches no read class (see the module docs).
/// `version` distinguishes the inserted document from its replacement.
pub fn owned_doc(key: i64, version: u32) -> String {
    format!(
        "<order id=\"b{key}\"><custid>{version}</custid><shipdate>1999-01-0{}</shipdate>\
         <lineitem price=\"{version}.50\" quantity=\"1\"><product><id>p0</id></product>\
         </lineitem></order>",
        1 + version % 9
    )
}

/// The benchmark-owned rows one client writes: each key is inserted,
/// replaced, then deleted before the next key starts.
#[derive(Debug)]
pub struct OwnedLife {
    next_key: i64,
    step: Option<(WriteKind, i64)>,
    /// Owned rows currently live.
    pub live: usize,
}

impl OwnedLife {
    /// Keys start after `base`.
    pub fn new(base: i64) -> OwnedLife {
        OwnedLife {
            next_key: base,
            step: None,
            live: 0,
        }
    }

    /// The next write and the key it applies to; repeated until
    /// [`OwnedLife::done`] confirms it.
    pub fn next(&mut self) -> (WriteKind, i64) {
        *self.step.get_or_insert_with(|| {
            self.next_key += 1;
            (WriteKind::Insert, self.next_key)
        })
    }

    /// The write from [`OwnedLife::next`] succeeded.
    pub fn done(&mut self) {
        self.step = match self.step {
            Some((WriteKind::Insert, k)) => {
                self.live += 1;
                Some((WriteKind::Replace, k))
            }
            Some((WriteKind::Replace, k)) => Some((WriteKind::Delete, k)),
            _ => {
                self.live = self.live.saturating_sub(1);
                None
            }
        };
    }

    /// Bytes of owned XML currently live (both versions have one length).
    pub fn live_xml_bytes(&self) -> u64 {
        self.live as u64 * owned_doc(OWNED_KEY_BASE, 1).len() as u64
    }
}

/// The SQL a client sends for one owned-row write.
pub fn owned_sql(kind: WriteKind, key: i64) -> String {
    match kind {
        WriteKind::Insert => format!("INSERT INTO orders VALUES ({key}, '{}')", owned_doc(key, 1)),
        WriteKind::Replace => {
            format!(
                "UPDATE orders SET orddoc = '{}' WHERE ordid = {key}",
                owned_doc(key, 2)
            )
        }
        WriteKind::Delete => format!("DELETE FROM orders WHERE ordid = {key}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collection_is_seeded_and_sized() {
        let a = Collection::generate(7, 1_000);
        let b = Collection::generate(7, 1_000);
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.docs.len(), 1_020);
        let promos = a.docs.iter().filter(|(_, x)| x.contains("<promo>")).count();
        let remarks = a
            .docs
            .iter()
            .filter(|(_, x)| x.contains("<remark>"))
            .count();
        assert_eq!((promos, remarks), (10, 10));
        assert_ne!(Collection::generate(8, 1_000).docs, a.docs);
        for (_, x) in &a.docs {
            xqdb_xmlparse::parse_document(x).expect("generated orders parse");
        }
    }

    #[test]
    fn owned_rows_are_well_formed_sql_literals() {
        for v in [1, 2] {
            let doc = owned_doc(OWNED_KEY_BASE + 3, v);
            assert!(!doc.contains('\''));
            assert_eq!(doc.len(), owned_doc(OWNED_KEY_BASE, 1).len());
            xqdb_xmlparse::parse_document(&doc).expect("owned documents parse");
        }
    }

    #[test]
    fn owned_life_inserts_replaces_then_deletes_each_key() {
        let mut life = OwnedLife::new(10);
        assert_eq!(life.next(), (WriteKind::Insert, 11));
        assert_eq!(
            life.next(),
            (WriteKind::Insert, 11),
            "a failed write is retried"
        );
        life.done();
        assert_eq!((life.next(), life.live), ((WriteKind::Replace, 11), 1));
        life.done();
        assert_eq!(life.next(), (WriteKind::Delete, 11));
        life.done();
        assert_eq!((life.next(), life.live), ((WriteKind::Insert, 12), 0));
    }
}
