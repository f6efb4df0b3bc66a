//! SQL/XML execution, with XML-index pre-filtering of base tables.
//!
//! Index planning hooks (the paper's Section 3.2):
//!
//! * `XMLEXISTS` conjuncts in WHERE whose PASSING arguments come from a
//!   single base table are analyzed with [`analyze_filtering`] — they
//!   eliminate rows, so their predicates are index-eligible;
//! * the `XMLTABLE` **row producer** likewise (an empty row set eliminates
//!   the outer row — the inner-join semantics of the lateral call);
//! * `XMLQUERY` select-list items and `XMLTABLE` column expressions are
//!   analyzed with [`analyze_non_filtering`]: their predicates never
//!   eliminate rows, so candidates found there surface as EXPLAIN notes
//!   (Queries 5 and 12), never as index probes.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xqdb_obs::{Counter, Histogram, Obs, Trace};
use xqdb_runtime::{chunk_ranges, WorkerPool};
use xqdb_xdm::{cast, AtomicType, AtomicValue, ErrorCode, ExpandedName, Item, Sequence, XdmError};
use xqdb_xmlindex::ProbeStats;
use xqdb_xqeval::{eval_query, DynamicContext};
use xqdb_xquery::Query;
use xqdb_storage::{sql_compare, SqlType, SqlValue, Table};

use crate::catalog::Catalog;
use crate::durability::{open_durable_catalog, Durability, RecoveryReport};
use crate::eligibility::{
    analyze_filtering, analyze_non_filtering, compile, diagnose, diagnose_misestimate,
    restrict_to_source, AnalysisEnv, Cond, IndexCond, Note, Rejection,
};
use crate::engine::{
    cost_env_enabled, prefilter_env_enabled, record_exec_metrics, render_doctor_section,
    render_execution_sections, twig_env_enabled, ExecStats, PlanCost,
};
use crate::plancache::PlanCache;
use crate::prefilter::{extract_prefilters, SourcePrefilter};
use crate::twig::{extract_twigs, PreparedTwig, SourceTwig};

use super::ast::*;
use super::parser::parse_sql;

/// A runtime SQL value (extends stored values with XML *sequences*, which
/// `XMLQUERY` produces).
#[derive(Debug, Clone)]
pub enum Scalar {
    /// SQL NULL.
    Null,
    /// INTEGER.
    Integer(i64),
    /// DOUBLE / DECIMAL.
    Double(f64),
    /// VARCHAR.
    Varchar(String),
    /// DATE.
    Date(xqdb_xdm::Date),
    /// TIMESTAMP.
    Timestamp(xqdb_xdm::DateTime),
    /// An XML value — an XDM sequence.
    Xml(Sequence),
}

impl Scalar {
    /// Render for display, following the paper's output conventions
    /// (an empty XML sequence prints as `()`).
    pub fn render(&self) -> String {
        match self {
            Scalar::Null => "NULL".into(),
            Scalar::Integer(i) => i.to_string(),
            Scalar::Double(d) => d.to_string(),
            Scalar::Varchar(s) => s.clone(),
            Scalar::Date(d) => d.to_string(),
            Scalar::Timestamp(t) => t.to_string(),
            Scalar::Xml(seq) if seq.is_empty() => "()".into(),
            Scalar::Xml(seq) => xqdb_xmlparse::serialize_sequence(seq),
        }
    }

    fn from_stored(v: &SqlValue) -> Scalar {
        match v {
            SqlValue::Null => Scalar::Null,
            SqlValue::Integer(i) => Scalar::Integer(*i),
            SqlValue::Double(d) => Scalar::Double(*d),
            SqlValue::Varchar(s) => Scalar::Varchar(s.clone()),
            SqlValue::Date(d) => Scalar::Date(*d),
            SqlValue::Timestamp(t) => Scalar::Timestamp(*t),
            SqlValue::Xml(n) => Scalar::Xml(vec![Item::Node(n.clone())]),
        }
    }

    /// Convert to an XDM sequence for a PASSING binding. SQL typed values
    /// become typed atomics (so `$pid` inherits `xs:string` from a VARCHAR
    /// column — the paper's Query 13 note).
    fn to_sequence(&self) -> Result<Sequence, XdmError> {
        Ok(match self {
            Scalar::Null => vec![],
            Scalar::Integer(i) => vec![Item::Atomic(AtomicValue::Integer(*i))],
            Scalar::Double(d) => vec![Item::Atomic(AtomicValue::Double(*d))],
            Scalar::Varchar(s) => vec![Item::Atomic(AtomicValue::String(s.clone()))],
            Scalar::Date(d) => vec![Item::Atomic(AtomicValue::Date(*d))],
            Scalar::Timestamp(t) => vec![Item::Atomic(AtomicValue::DateTime(*t))],
            Scalar::Xml(seq) => seq.clone(),
        })
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Result of executing one SQL statement.
#[derive(Debug, Default)]
pub struct SqlResult {
    /// Column names (empty for DDL).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Scalar>>,
    /// DDL/DML confirmation or EXPLAIN text.
    pub message: Option<String>,
    /// Execution statistics (index effort, rows scanned).
    pub stats: ExecStats,
    /// The query trace (disabled unless the session's [`Obs`] traces).
    pub trace: Trace,
}

impl SqlResult {
    /// Render rows the way the paper prints them (`row 1: ...`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(m) = &self.message {
            out.push_str(m);
            out.push('\n');
        }
        for (i, row) in self.rows.iter().enumerate() {
            let vals: Vec<String> = row.iter().map(Scalar::render).collect();
            out.push_str(&format!("row {}: {}\n", i + 1, vals.join(" | ")));
        }
        out
    }
}

/// A SQL/XML session: a catalog plus statement execution.
#[derive(Debug)]
pub struct SqlSession {
    /// The underlying catalog.
    pub catalog: Catalog,
    /// Limits applied when INSERT parses document text (XMLPARSE).
    pub parse_limits: xqdb_xmlparse::ParseLimits,
    /// Observability handle shared by every statement of the session.
    pub obs: Obs,
    /// Apply the structural pre-filter to row selection (on by default;
    /// `XQDB_PREFILTER=off` in the environment also disables it).
    pub prefilter: bool,
    /// Apply the holistic twig join to row selection (on by default;
    /// `XQDB_TWIG=off` in the environment also disables it).
    pub twig: bool,
    /// Cost index choices against synopsis statistics (on by default;
    /// `XQDB_COST=off` in the environment also disables it). Off, the
    /// planner takes the first eligible index in catalog order.
    pub cost: bool,
    /// The durability layer, when the session is backed by a data
    /// directory (see [`SqlSession::open_durable`]).
    durability: Option<Arc<Durability>>,
    /// LRU cache of parsed + planned SELECT statements, keyed by the raw
    /// statement text plus the cost mode and invalidated by the
    /// catalog's plan epoch (DDL + statistics clocks).
    stmt_cache: Mutex<PlanCache<CachedSql>>,
}

impl Default for SqlSession {
    fn default() -> Self {
        SqlSession {
            catalog: Catalog::default(),
            parse_limits: xqdb_xmlparse::ParseLimits::default(),
            obs: Obs::default(),
            prefilter: true,
            twig: true,
            cost: true,
            durability: None,
            stmt_cache: Mutex::new(PlanCache::default()),
        }
    }
}

/// A cached SELECT-family statement: the parsed AST plus its compiled plan
/// (access paths, notes, pre-filters). A cache hit replays both without
/// touching the parser or the eligibility analyzer.
#[derive(Debug)]
struct CachedSql {
    stmt: SqlStmt,
    plan: Arc<SqlPlan>,
}

impl SqlSession {
    /// Fresh session. In-memory by default; when `XQDB_DATA_DIR` is set in
    /// the environment the session transparently becomes durable in a
    /// unique subdirectory (fsync mode from `XQDB_FSYNC`, default `off` —
    /// the fast mode, fitting the test-harness use this hook exists for).
    /// Any failure to attach falls back to in-memory silently: an env
    /// knob must not break programs that never asked for durability.
    pub fn new() -> Self {
        Self::from_env().unwrap_or_default()
    }

    /// In-memory session over an already-populated catalog (benches and
    /// tools build the catalog directly, then want SQL over it). Never
    /// durable, regardless of environment.
    pub fn from_catalog(catalog: Catalog) -> Self {
        SqlSession { catalog, ..SqlSession::default() }
    }

    fn from_env() -> Option<SqlSession> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let base = std::env::var("XQDB_DATA_DIR").ok()?;
        if base.trim().is_empty() {
            return None;
        }
        let fsync = std::env::var("XQDB_FSYNC")
            .ok()
            .and_then(|s| xqdb_wal::FsyncMode::parse(&s))
            .unwrap_or(xqdb_wal::FsyncMode::Off);
        let dir = Path::new(&base).join(format!(
            "session-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let config = xqdb_wal::WalConfig { fsync, ..Default::default() };
        SqlSession::open_durable(&dir, config).ok().map(|(s, _)| s)
    }

    /// Open a data directory as a durable session: recover whatever state
    /// is there (tables, rows, indexes — the latter rebuilt by back-fill),
    /// then log every further mutation write-ahead. Returns the session
    /// and a report of what recovery found.
    pub fn open_durable(
        dir: &Path,
        config: xqdb_wal::WalConfig,
    ) -> Result<(SqlSession, RecoveryReport), XdmError> {
        let mut session = SqlSession::default();
        let (catalog, durability, report) = open_durable_catalog(
            dir,
            config,
            session.catalog.runtime,
            &session.obs.trace(),
            &session.obs,
        )?;
        session.catalog = catalog;
        session.durability = Some(durability);
        Ok((session, report))
    }

    /// The durability layer, when this session has one.
    pub fn durability(&self) -> Option<&Arc<Durability>> {
        self.durability.as_ref()
    }

    /// Checkpoint a durable session: reclaim tombstones, flush and freeze
    /// pages, write the manifest and prune the log it covers. `Ok(None)`
    /// for in-memory sessions.
    pub fn checkpoint(&mut self) -> Result<Option<u64>, XdmError> {
        match &self.durability {
            Some(d) => Arc::clone(d).checkpoint(&mut self.catalog).map(Some),
            None => Ok(None),
        }
    }

    /// Install one observability handle on the session, its catalog and
    /// its durability layer, so statement execution, index maintenance and
    /// WAL appends record into one registry.
    pub fn set_obs(&mut self, obs: Obs) {
        self.catalog.obs = obs.clone();
        if let Some(d) = &self.durability {
            d.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// Execute one SQL statement with no resource limits — the interactive
    /// single-session default.
    pub fn execute(&mut self, sql: &str) -> Result<SqlResult, XdmError> {
        self.execute_with_limits(sql, &xqdb_xdm::Limits::unlimited())
    }

    /// Does this statement mutate the catalog? The server routes writes
    /// through the session's exclusive write path and everything else
    /// through the shared read path, so the classifier is deliberately a
    /// leading-keyword check over the closed statement grammar (`CREATE
    /// TABLE`, `CREATE INDEX`, `INSERT`, `DELETE`, `UPDATE`, and `EXPLAIN
    /// ANALYZE` over a DML statement); anything unrecognized is treated
    /// as a read and rejected by the parser with a typed error.
    pub fn is_write_statement(sql: &str) -> bool {
        let mut words = sql.split_whitespace();
        let first = words.next().unwrap_or("");
        if first.eq_ignore_ascii_case("create")
            || first.eq_ignore_ascii_case("insert")
            || first.eq_ignore_ascii_case("delete")
            || first.eq_ignore_ascii_case("update")
        {
            return true;
        }
        // `EXPLAIN ANALYZE DELETE|UPDATE` executes the DML it reports on.
        first.eq_ignore_ascii_case("explain")
            && words.next().is_some_and(|w| w.eq_ignore_ascii_case("analyze"))
            && words.next().is_some_and(|w| {
                w.eq_ignore_ascii_case("delete") || w.eq_ignore_ascii_case("update")
            })
    }

    /// Execute one SQL statement under the given resource limits. The
    /// limits become the statement's [`xqdb_xdm::Budget`]: a deadline
    /// cancels mid-evaluation at the next budget checkpoint, a step cap
    /// bounds total work.
    pub fn execute_with_limits(
        &mut self,
        sql: &str,
        limits: &xqdb_xdm::Limits,
    ) -> Result<SqlResult, XdmError> {
        if !Self::is_write_statement(sql) {
            return self.execute_read(sql, limits);
        }
        self.obs.incr(Counter::SqlStatements);
        let stmt = parse_sql(sql)
            .map_err(|e| XdmError::new(ErrorCode::XPST0003, e.to_string()))?;
        match stmt {
            SqlStmt::CreateTable { name, columns } => {
                let cols = columns
                    .into_iter()
                    .map(|(n, t)| xqdb_storage::Column::new(n, t))
                    .collect();
                self.catalog.create_table(xqdb_storage::Table::new(&name, cols))?;
                Ok(SqlResult {
                    message: Some(format!("table {name} created")),
                    ..Default::default()
                })
            }
            SqlStmt::CreateIndex { name, table, column, pattern, ty } => {
                self.catalog.create_index(&name, &table, &column, &pattern, &ty)?;
                Ok(SqlResult {
                    message: Some(format!("index {name} created")),
                    ..Default::default()
                })
            }
            SqlStmt::Insert { table, values } => {
                let row = self.eval_insert_row(&table, values)?;
                self.catalog.insert(&table, row)?;
                Ok(SqlResult { message: Some("1 row inserted".into()), ..Default::default() })
            }
            stmt @ (SqlStmt::Delete { .. } | SqlStmt::Update { .. }) => {
                let trace = self.obs.trace();
                self.run_dml(&stmt, limits, &trace)
            }
            SqlStmt::ExplainAnalyzeDml(inner) => {
                let trace = Trace::recording();
                let result = self.run_dml(&inner, limits, &trace)?;
                let mut report = String::from("SQL/XML DML\n");
                report.push_str(&format!("  statement: {}\n", dml_headline(&inner)));
                render_execution_sections(&mut report, &result.stats, &trace);
                // The shared COUNTERS section prints the dml line only when
                // non-zero; a DML report must always carry one.
                let s = &result.stats;
                if s.rows_deleted == 0 && s.docs_replaced == 0 && s.tombstones_reclaimed == 0 {
                    report.push_str(&crate::engine::render_dml_line(s));
                }
                report.push_str(&format!(
                    "-- executed: {}\n",
                    result.message.as_deref().unwrap_or("0 row(s)")
                ));
                Ok(SqlResult { message: Some(report), stats: result.stats, ..Default::default() })
            }
            // is_write_statement admits only the arms above.
            _ => Err(XdmError::internal("write classifier admitted a read statement")),
        }
    }

    /// Execute a DELETE or UPDATE: resolve the WHERE clause over the
    /// target table exactly as a SELECT would (three-valued logic; only
    /// rows where it is TRUE match), then apply the mutation through the
    /// catalog so every derived structure — indexes, synopsis, signatures,
    /// label streams — is maintained incrementally and the change is
    /// logged write-ahead (DELETE batches all matching rows into one WAL
    /// record; UPDATE logs one replace per row).
    fn run_dml(
        &mut self,
        stmt: &SqlStmt,
        limits: &xqdb_xdm::Limits,
        trace: &Trace,
    ) -> Result<SqlResult, XdmError> {
        let budget = Arc::new(xqdb_xdm::Budget::new(limits.clone()));
        let (table, where_cond) = match stmt {
            SqlStmt::Delete { table, where_cond } => (table, where_cond),
            SqlStmt::Update { table, where_cond, .. } => (table, where_cond),
            other => {
                return Err(XdmError::internal(format!("run_dml on non-DML {other:?}")))
            }
        };
        let mut stats = ExecStats::new();
        let matches = self.dml_matching_rows(table, where_cond, &mut stats, trace, &budget)?;
        let message = match stmt {
            SqlStmt::Delete { .. } => {
                let rowids: Vec<u64> = matches.iter().map(|(rid, _)| *rid).collect();
                let mut span = trace.span("delete");
                let n = if rowids.is_empty() {
                    0 // no matches: nothing to log, nothing to apply
                } else {
                    self.catalog.delete(table, &rowids)?
                };
                span.add_count(n);
                stats.rows_deleted = n;
                format!("{n} row(s) deleted")
            }
            SqlStmt::Update { set, .. } => {
                let mut span = trace.span("replace");
                let mut n = 0u64;
                for (rid, old) in &matches {
                    let row = self.eval_update_row(table, set, *rid, old, &budget)?;
                    self.catalog.replace(table, *rid, row)?;
                    n += 1;
                }
                span.add_count(n);
                stats.docs_replaced = n;
                format!("{n} row(s) updated")
            }
            _ => unreachable!(),
        };
        record_exec_metrics(&self.obs, &stats);
        Ok(SqlResult { message: Some(message), stats, trace: trace.clone(), ..Default::default() })
    }

    /// The rows of `table` whose WHERE evaluation is TRUE, as
    /// `(rowid, stored values)` pairs in row order. `None` matches every
    /// live row (SQL semantics of a missing WHERE). The WHERE is planned
    /// exactly as a one-table SELECT's and resolved through the same row
    /// source, so index probes, twig joins, the prefilter and the
    /// relational pre-pass narrow the rows before any XML is parsed.
    fn dml_matching_rows(
        &self,
        table: &str,
        where_cond: &Option<SqlCond>,
        stats: &mut ExecStats,
        trace: &Trace,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<Vec<(u64, Vec<SqlValue>)>, XdmError> {
        let t = self.catalog.db.table(table).ok_or_else(|| {
            XdmError::new(ErrorCode::SqlType, format!("unknown table {table:?}"))
        })?;
        let sel = SelectStmt {
            items: vec![SelectItem::Star],
            from: vec![FromItem::Table { name: t.name.clone(), alias: t.name.clone() }],
            where_cond: where_cond.clone(),
        };
        let plan = self.plan_select_traced(&sel, trace)?;
        note_plan_cost(&plan, stats);
        let filters = self.access_paths(&plan, stats, trace, budget)?;
        let mut span = trace.span("scan");
        let conjuncts = where_conjuncts(where_cond.as_ref());
        let prepass = Prepass::plan(&conjuncts, &sel.from, 0, t, &self.catalog.db);
        let rows = self.table_rows(t, filters.get(&t.name), &prepass, stats, budget)?;
        let ctxs: Vec<RowCtx> =
            rows.iter().map(|(_, values)| RowCtx::default().joined(&t.name, t, values)).collect();
        let keep =
            self.residual_where(where_cond.as_ref(), &ctxs, stats, trace, span.id(), budget)?;
        let out: Vec<_> =
            rows.into_iter().zip(keep).filter_map(|(row, k)| k.then_some(row)).collect();
        span.add_count(out.len() as u64);
        Ok(out)
    }

    /// Build the replacement row for one UPDATE target: unlisted columns
    /// carry over from the old row, listed columns take their SET
    /// expression evaluated against the *old* row (so `SET a = b` reads
    /// the pre-update value, per SQL). Strings assigned to XML columns are
    /// parsed as documents (XMLPARSE), mirroring INSERT.
    fn eval_update_row(
        &self,
        table: &str,
        set: &[(String, SqlExpr)],
        rowid: u64,
        old: &[SqlValue],
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<Vec<SqlValue>, XdmError> {
        let t = self.catalog.db.table(table).ok_or_else(|| {
            XdmError::new(ErrorCode::SqlType, format!("unknown table {table:?}"))
        })?;
        let ctx = RowCtx::default().joined(&t.name, t, old);
        let mut row = old.to_vec();
        for (col, expr) in set {
            let upper = col.to_ascii_uppercase();
            let ci = t.column_index(&upper).ok_or_else(|| {
                XdmError::new(
                    ErrorCode::SqlType,
                    format!("UPDATE {}: unknown column {upper} (row {rowid})", t.name),
                )
            })?;
            let ty = &t.columns[ci].ty;
            row[ci] = match (expr, ty) {
                // String literal into an XML column: XMLPARSE, as INSERT.
                (SqlExpr::Varchar(s), SqlType::Xml) => {
                    let doc = xqdb_xmlparse::parse_document_with(s, &self.parse_limits)
                        .map_err(|pe| {
                            let code = if pe.limit_exceeded {
                                ErrorCode::ParseLimit
                            } else {
                                ErrorCode::XPST0003
                            };
                            XdmError::new(code, format!("XMLPARSE: {pe}"))
                        })?;
                    SqlValue::Xml(doc.root())
                }
                (SqlExpr::Varchar(s), SqlType::Date) => {
                    SqlValue::Date(xqdb_xdm::Date::parse(s)?)
                }
                (SqlExpr::Varchar(s), SqlType::Timestamp) => {
                    SqlValue::Timestamp(xqdb_xdm::DateTime::parse(s)?)
                }
                (expr, ty) => {
                    let v = self.eval_expr(expr, &ctx, budget)?;
                    scalar_to_stored(&v, ty)?
                }
            };
        }
        Ok(row)
    }

    /// Execute a read-only (SELECT-family) statement through `&self`: many
    /// server sessions run these concurrently under a shared read lock
    /// while writes serialize through [`SqlSession::execute_with_limits`].
    /// Write statements are rejected with a typed error rather than
    /// executed.
    pub fn execute_read(
        &self,
        sql: &str,
        limits: &xqdb_xdm::Limits,
    ) -> Result<SqlResult, XdmError> {
        self.obs.incr(Counter::SqlStatements);
        let budget = Arc::new(xqdb_xdm::Budget::new(limits.clone()));
        let result = self.execute_read_budgeted(sql, &budget);
        if let Err(e) = &result {
            match e.code {
                ErrorCode::ResourceExhausted => self.obs.incr(Counter::BudgetExhaustions),
                ErrorCode::Cancelled => self.obs.incr(Counter::QueriesCancelled),
                _ => {}
            }
        }
        result
    }

    fn execute_read_budgeted(
        &self,
        sql: &str,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<SqlResult, XdmError> {
        // Statement cache: SELECT-family statements are cached (parsed AST +
        // compiled plan) keyed by the raw statement text plus the cost
        // mode (a costed and a rule-based plan are different plans),
        // invalidated by the catalog's plan epoch (DDL clock +
        // statistics-drift clock). A hit replays the stored plan with
        // zero parse or planning work. The epoch is read from the
        // *shared* catalog, so a DDL — or heavy DML drift — committed by
        // any other session of a server invalidates this session's
        // cached plans on the next lookup.
        let use_cost = self.cost && cost_env_enabled();
        let key: Cow<str> =
            if use_cost { Cow::Borrowed(sql) } else { Cow::Owned(format!("#nocost\n{sql}")) };
        let epoch = self.catalog.plan_epoch();
        let cached = match self.stmt_cache.lock() {
            Ok(mut cache) => cache.get(&key, epoch),
            Err(_) => None,
        };
        if let Some(entry) = cached {
            self.obs.incr(Counter::PlanCacheHits);
            return match &entry.stmt {
                SqlStmt::Select(sel) => {
                    let trace = self.obs.trace();
                    self.run_select_planned(sel, &entry.plan, true, &trace, budget)
                }
                SqlStmt::Explain(_) => Ok(SqlResult {
                    message: Some(render_plan(&entry.plan)),
                    ..Default::default()
                }),
                SqlStmt::ExplainAnalyze(sel) => {
                    let trace = Trace::recording();
                    self.explain_analyze_planned(sel, &entry.plan, true, &trace, budget)
                }
                // Only SELECT-family statements are ever inserted.
                _ => Err(XdmError::internal(
                    "non-SELECT statement in plan cache".to_string(),
                )),
            };
        }
        let stmt = parse_sql(sql)
            .map_err(|e| XdmError::new(ErrorCode::XPST0003, e.to_string()))?;
        match stmt {
            SqlStmt::Values(exprs) => {
                let empty = RowCtx::default();
                let mut row = Vec::new();
                for e in exprs {
                    row.push(self.eval_expr(&e, &empty, budget)?);
                }
                Ok(SqlResult {
                    columns: (1..=row.len()).map(|i| format!("C{i}")).collect(),
                    rows: vec![row],
                    ..Default::default()
                })
            }
            SqlStmt::Select(sel) => {
                self.obs.incr(Counter::PlanCacheMisses);
                let trace = self.obs.trace();
                let plan = self.plan_select_traced(&sel, &trace)?;
                let result = self.run_select_planned(&sel, &plan, false, &trace, budget)?;
                self.cache_stmt(&key, SqlStmt::Select(sel), plan);
                Ok(result)
            }
            SqlStmt::Explain(sel) => {
                self.obs.incr(Counter::PlanCacheMisses);
                let plan = Arc::new(self.plan_select(&sel)?);
                let message = render_plan(&plan);
                self.cache_stmt(&key, SqlStmt::Explain(sel), plan);
                Ok(SqlResult { message: Some(message), ..Default::default() })
            }
            SqlStmt::ExplainAnalyze(sel) => {
                self.obs.incr(Counter::PlanCacheMisses);
                let trace = Trace::recording();
                let plan = self.plan_select_traced(&sel, &trace)?;
                let result = self.explain_analyze_planned(&sel, &plan, false, &trace, budget)?;
                self.cache_stmt(&key, SqlStmt::ExplainAnalyze(sel), plan);
                Ok(result)
            }
            SqlStmt::CreateTable { .. }
            | SqlStmt::CreateIndex { .. }
            | SqlStmt::Insert { .. }
            | SqlStmt::Delete { .. }
            | SqlStmt::Update { .. }
            | SqlStmt::ExplainAnalyzeDml(_) => Err(XdmError::new(
                ErrorCode::SqlType,
                "write statement in a read-only execution context",
            )),
        }
    }

    /// Store a SELECT-family statement in the statement cache under the
    /// current plan epoch (DDL + statistics clocks). `key` is the raw
    /// statement text, prefixed by the caller when cost is off.
    fn cache_stmt(&self, key: &str, stmt: SqlStmt, plan: Arc<SqlPlan>) {
        let epoch = self.catalog.plan_epoch();
        if let Ok(mut cache) = self.stmt_cache.lock() {
            cache.insert(key.to_string(), Arc::new(CachedSql { stmt, plan }), epoch);
        }
    }

    /// `EXPLAIN ANALYZE SELECT ...`: run the statement with tracing forced
    /// on, then report the plan annotated with actual per-stage timings,
    /// the execution counters (verbatim from the run's [`ExecStats`]), and
    /// the query doctor's diagnoses. The result rows are discarded — the
    /// report is the result.
    fn explain_analyze_planned(
        &self,
        sel: &SelectStmt,
        plan: &SqlPlan,
        cache_hit: bool,
        trace: &Trace,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<SqlResult, XdmError> {
        let result = self.run_select_planned(sel, plan, cache_hit, trace, budget)?;
        let mut report = render_plan(plan);
        render_execution_sections(&mut report, &result.stats, trace);
        let mut diagnoses = diagnose(&plan.rejections, &plan.notes);
        if result.stats.plans_costed > 0 {
            diagnoses.extend(diagnose_misestimate(
                result.stats.cost_est_rows,
                result.stats.cost_actual_rows,
            ));
        }
        render_doctor_section(&mut report, &diagnoses);
        report.push_str(&format!("-- executed: {} row(s) produced\n", result.rows.len()));
        Ok(SqlResult { message: Some(report), stats: result.stats, ..Default::default() })
    }

    /// INSERT values: strings targeting XML columns are parsed as XML.
    fn eval_insert_row(
        &self,
        table: &str,
        values: Vec<SqlExpr>,
    ) -> Result<Vec<SqlValue>, XdmError> {
        let t = self.catalog.db.table(table).ok_or_else(|| {
            XdmError::new(ErrorCode::SqlType, format!("unknown table {table:?}"))
        })?;
        let mut out = Vec::with_capacity(values.len());
        for (i, e) in values.into_iter().enumerate() {
            let target = t.columns.get(i).map(|c| &c.ty);
            let v = match (e, target) {
                (SqlExpr::Varchar(s), Some(SqlType::Xml)) => {
                    let doc = xqdb_xmlparse::parse_document_with(&s, &self.parse_limits)
                        .map_err(|pe| {
                            let code = if pe.limit_exceeded {
                                ErrorCode::ParseLimit
                            } else {
                                ErrorCode::XPST0003
                            };
                            XdmError::new(code, format!("XMLPARSE: {pe}"))
                        })?;
                    SqlValue::Xml(doc.root())
                }
                (SqlExpr::Varchar(s), Some(SqlType::Date)) => {
                    SqlValue::Date(xqdb_xdm::Date::parse(&s)?)
                }
                (SqlExpr::Varchar(s), Some(SqlType::Timestamp)) => {
                    SqlValue::Timestamp(xqdb_xdm::DateTime::parse(&s)?)
                }
                (SqlExpr::Varchar(s), _) => SqlValue::Varchar(s),
                (SqlExpr::Integer(i), _) => SqlValue::Integer(i),
                (SqlExpr::Double(d), _) => SqlValue::Double(d),
                (SqlExpr::Null, _) => SqlValue::Null,
                (other, _) => {
                    return Err(XdmError::new(
                        ErrorCode::SqlType,
                        format!("unsupported INSERT expression {other:?}"),
                    ))
                }
            };
            out.push(v);
        }
        Ok(out)
    }

    // ------------------------------------------------------------- planning

    fn plan_select(&self, sel: &SelectStmt) -> Result<SqlPlan, XdmError> {
        let mut plan = SqlPlan::default();
        // Map alias → (table, xml columns).
        for item in &sel.from {
            if let FromItem::Table { name, alias } = item {
                let t = self.catalog.db.table(name).ok_or_else(|| {
                    XdmError::new(ErrorCode::SqlType, format!("unknown table {name:?}"))
                })?;
                plan.tables.insert(alias.clone(), t.name.clone());
            }
        }
        // Analyze XMLEXISTS conjuncts.
        if let Some(cond) = &sel.where_cond {
            let mut conjuncts = Vec::new();
            flatten_and(cond, &mut conjuncts);
            for c in conjuncts {
                if let SqlCond::XmlExists { query, passing } = c {
                    self.plan_xquery_filter(query, passing, &plan.tables.clone(), &mut plan, true);
                }
            }
        }
        // Analyze XMLTABLE row producers and column paths.
        for item in &sel.from {
            if let FromItem::XmlTable { row_query, passing, columns, .. } = item {
                self.plan_xquery_filter(
                    row_query,
                    passing,
                    &plan.tables.clone(),
                    &mut plan,
                    true,
                );
                let env = self.passing_env(passing, &plan.tables);
                let row_ctx =
                    crate::eligibility::resolve_docs_path(&row_query.body, &env);
                for col in columns {
                    let analysis = crate::eligibility::analyze_non_filtering_with_ctx(
                        &col.path.body,
                        &env,
                        "XMLTABLE column expression",
                        row_ctx.clone(),
                    );
                    plan.notes.extend(analysis.notes);
                }
            }
        }
        // Scavenge XMLQUERY select-list items for diagnostics.
        for item in &sel.items {
            if let SelectItem::Expr { expr: SqlExpr::XmlQuery { query, passing }, .. } = item {
                let env = self.passing_env(passing, &plan.tables);
                let analysis =
                    analyze_non_filtering(&query.body, &env, "XMLQUERY select list");
                plan.notes.extend(analysis.notes);
            }
        }
        // Compile per-source access conditions, costed against the table's
        // synopsis statistics when the session (and environment) allow it.
        // Sources are visited in sorted order so cost notes and candidate
        // tallies are deterministic across runs.
        let use_cost = self.cost && cost_env_enabled();
        let mut all_conds: Vec<_> = plan.conds.clone().into_iter().collect();
        all_conds.sort_by(|a, b| a.0.cmp(&b.0));
        for (source, conds) in all_conds {
            let cond = Cond::And(conds);
            let restricted = restrict_to_source(&cond, &source);
            let indexes = self.catalog.indexes_for_source(&source);
            let model = if use_cost { self.catalog.cost_model_for(&source) } else { None };
            let compiled = compile(&restricted, &indexes, model.as_ref());
            plan.rejections.extend(compiled.rejections);
            if compiled.candidates_costed > 0 {
                plan.cost.costed = true;
                plan.cost.candidates += compiled.candidates_costed;
            }
            if let Some(est) = compiled.est_rows {
                *plan.cost.est_rows.get_or_insert(0) += est;
            }
            plan.cost.notes.extend(compiled.cost_notes);
            if let Some(access) = compiled.access {
                plan.accesses.insert(source, access);
            }
        }
        Ok(plan)
    }

    /// Build an analysis env for a PASSING clause: variables bound to a
    /// table's XML column become document sources.
    fn passing_env(
        &self,
        passing: &[(String, SqlExpr)],
        tables: &HashMap<String, String>,
    ) -> AnalysisEnv {
        let mut env = AnalysisEnv::new();
        for (var, expr) in passing {
            if let SqlExpr::Column { qualifier, name } = expr {
                let table = match qualifier {
                    Some(q) => tables.get(q).cloned(),
                    None => {
                        // Unqualified: unique table holding that column.
                        let mut found = None;
                        for t in tables.values() {
                            if let Some(tt) = self.catalog.db.table(t) {
                                if tt.column_index(name).is_some() {
                                    found = Some(t.clone());
                                    break;
                                }
                            }
                        }
                        found
                    }
                };
                if let Some(tname) = table {
                    env.bind_docs(
                        ExpandedName::local(var.as_str()),
                        format!("{}.{}", tname, name.to_ascii_uppercase()),
                    );
                }
            }
        }
        env
    }

    fn plan_xquery_filter(
        &self,
        query: &Query,
        passing: &[(String, SqlExpr)],
        tables: &HashMap<String, String>,
        plan: &mut SqlPlan,
        filtering: bool,
    ) {
        let env = self.passing_env(passing, tables);
        let analysis = if filtering {
            analyze_filtering(&query.body, &env)
        } else {
            analyze_non_filtering(&query.body, &env, "non-filtering")
        };
        plan.notes.extend(analysis.notes);
        if filtering {
            // Structural pre-filter requirements for this conjunct.
            // `db2-fn:xmlcolumn` is NOT recognized here: inside XMLEXISTS it
            // ranges over the whole collection, not the candidate row, so
            // only PASSING-variable uses may narrow the row set.
            for (source, pf) in extract_prefilters(&query.body, &env, false) {
                plan.prefilters.entry(source).or_default().push(pf);
            }
            // Twig patterns for this conjunct, same PASSING-variable-only
            // recognition: a row must satisfy every filtering conjunct, so
            // per source the conjuncts' twigs are AND'd at execution.
            for (source, tw) in extract_twigs(&query.body, &env, false) {
                plan.twigs.entry(source).or_default().push(tw);
            }
        }
        // Attribute conditions to their sources.
        let mut sources = BTreeSet::new();
        collect_cond_sources(&analysis.cond, &mut sources);
        // Also sources referenced directly via db2-fn:xmlcolumn.
        crate::engine::collect_sources(&query.body, &mut sources);
        for s in sources {
            plan.conds.entry(s).or_default().push(analysis.cond.clone());
        }
    }

    // ------------------------------------------------------------ execution

    /// Compile a SELECT under a "plan" span.
    fn plan_select_traced(
        &self,
        sel: &SelectStmt,
        trace: &Trace,
    ) -> Result<Arc<SqlPlan>, XdmError> {
        let mut span = trace.span("plan");
        let plan = self.plan_select(sel)?;
        span.add_count(plan.accesses.len() as u64);
        Ok(Arc::new(plan))
    }

    // ----------------------------------------------------------- row source
    //
    // Every SQL read of a base table — SELECT, the point query, and the
    // UPDATE/DELETE match — goes through these four stages:
    //
    // 1. `access_paths`: index probe → twig join → prefilter, giving a
    //    survivor rowid set per table (absent: every row survives);
    // 2. the relational pre-pass (`Prepass`, inside `table_rows`): the
    //    leading WHERE conjuncts over non-XML columns of the table, on
    //    rows decoded column-selectively, so no XML is parsed;
    // 3. the survivor fetch (`table_rows`): full rows, by point lookup, in
    //    rowid order;
    // 4. `residual_where`: the whole WHERE, unchanged, on the fetched
    //    rows (serial or on the pool).

    /// Row source stage 1: run the plan's access paths and return the
    /// surviving rowids per table. Tables without an entry are unfiltered.
    fn access_paths(
        &self,
        plan: &SqlPlan,
        stats: &mut ExecStats,
        trace: &Trace,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<HashMap<String, BTreeSet<u64>>, XdmError> {
        // Resolve per-table row filters from compiled accesses. Iterate in
        // source order so spans and degradations are deterministic.
        let mut row_filters: HashMap<String, BTreeSet<u64>> = HashMap::new();
        let mut sources: Vec<_> = plan.accesses.iter().collect();
        sources.sort_by_key(|(s, _)| s.as_str());
        for (source, access) in sources {
            let mut span = trace.span("index probe");
            span.tag_with("source", || source.clone());
            let indexes = self.catalog.indexes_for_source(source);
            let mut pstats = ProbeStats::default();
            let t0 = self.obs.metrics_enabled().then(Instant::now);
            let probed = access.execute(&indexes, &mut pstats, budget);
            if let Some(t0) = t0 {
                self.obs.observe_ns(Histogram::ProbeNanos, elapsed_ns(t0));
            }
            stats.index_entries_scanned += pstats.entries_scanned;
            stats.index_probes += pstats.probes;
            stats.btree_nodes_touched += pstats.nodes_touched;
            stats.multi_index_intersections += pstats.intersections as u64;
            span.add_count(pstats.entries_scanned as u64);
            let rows = match probed {
                Ok(rows) => rows,
                Err(e) if e.code == xqdb_xdm::ErrorCode::StorageFault => {
                    // Degrade to an unfiltered scan of this source (correct
                    // by Definition 1); record it for observability.
                    span.tag_str("outcome", "degraded to scan");
                    stats.index_faults += 1;
                    stats.degraded_sources.push(source.clone());
                    continue;
                }
                Err(e) => return Err(e),
            };
            span.tag_str("outcome", "index hit");
            span.tag_with("survivors", || rows.len().to_string());
            stats.cost_actual_rows += rows.len() as u64;
            let table = source.split('.').next().unwrap_or("").to_string();
            // Intersect if several XML columns of one table are filtered.
            row_filters
                .entry(table)
                .and_modify(|r| *r = r.intersection(&rows).copied().collect())
                .or_insert(rows);
        }

        // Holistic twig join: drop rows no conjunct's twig patterns can
        // structurally match (conservative per Definition 1 — survivors
        // are still re-checked by the WHERE phase). Runs strictly after
        // the index-probe loop, before the signature pre-filter; label
        // streams live in RAM, so the pass adds no fault points. Tables
        // whose labels cannot vouch for every row are declined untouched.
        if self.twig && twig_env_enabled() {
            let mut tw_sources: Vec<_> = plan.twigs.keys().collect();
            tw_sources.sort();
            for source in tw_sources {
                let tws = &plan.twigs[source];
                if tws.is_empty() {
                    continue;
                }
                let Some(t) = source
                    .split('.')
                    .next()
                    .and_then(|name| self.catalog.db.table(name))
                else {
                    continue;
                };
                let table = t.name.clone();
                let mut span = trace.span("twig join");
                span.tag_with("source", || source.clone());
                let prepared: Vec<PreparedTwig<'_>> = match tws
                    .iter()
                    .map(|tw| PreparedTwig::prepare(tw, t))
                    .collect::<Option<Vec<_>>>()
                {
                    Some(p) => p,
                    None => {
                        span.tag_str("outcome", "declined: labels incomplete");
                        continue;
                    }
                };
                let mut skipped = 0usize;
                let mut candidates = 0usize;
                // Each filtering conjunct must hold, so a row survives
                // only if every conjunct's twig matches it.
                let mut keep = |rid: u64| {
                    let candidate = prepared.iter().all(|p| p.is_candidate(rid));
                    candidates += usize::from(candidate);
                    let ok = candidate && prepared.iter().all(|p| p.accepts(rid));
                    skipped += usize::from(!ok);
                    ok
                };
                let survivors: BTreeSet<u64> = match row_filters.get(&table) {
                    Some(rows) => rows.iter().copied().filter(|r| keep(*r)).collect(),
                    None => (0..t.len() as u64).filter(|r| keep(*r)).collect(),
                };
                span.add_count(skipped as u64);
                span.tag_with("candidates", || candidates.to_string());
                span.tag_with("survivors", || survivors.len().to_string());
                stats.twig_joins += 1;
                stats.twig_candidates += candidates;
                stats.twig_docs_skipped += skipped;
                row_filters.insert(table, survivors);
            }
        }

        // Structural pre-filter: drop rows whose path signature cannot
        // satisfy some filtering conjunct (conservative per Definition 1 —
        // false positives only, so survivors are still re-checked by the
        // WHERE phase). Runs strictly after the index-probe loop so probe
        // spans and fault degradations are unchanged by the filter.
        if self.prefilter && prefilter_env_enabled() {
            let mut pf_sources: Vec<_> = plan.prefilters.keys().collect();
            pf_sources.sort();
            for source in pf_sources {
                let pfs = &plan.prefilters[source];
                if pfs.is_empty() {
                    continue;
                }
                let Some(t) = source
                    .split('.')
                    .next()
                    .and_then(|name| self.catalog.db.table(name))
                else {
                    continue;
                };
                let table = t.name.clone();
                let mut span = trace.span("prefilter");
                span.tag_with("source", || source.clone());
                let mut skipped = 0usize;
                // Each filtering conjunct must hold, so a row survives only
                // if its signature satisfies every conjunct's pre-filter.
                // Rows without a signature (no XML cell) are kept: the
                // residual WHERE decides them, never the pre-filter.
                let mut keep = |rid: u64| {
                    let ok = t
                        .signature(rid as usize)
                        .is_none_or(|sig| pfs.iter().all(|pf| pf.accepts(sig)));
                    if !ok {
                        skipped += 1;
                    }
                    ok
                };
                let survivors: BTreeSet<u64> = match row_filters.get(&table) {
                    Some(rows) => rows.iter().copied().filter(|r| keep(*r)).collect(),
                    None => (0..t.len() as u64).filter(|r| keep(*r)).collect(),
                };
                span.add_count(skipped as u64);
                span.tag_with("survivors", || survivors.len().to_string());
                stats.prefilter_docs_skipped += skipped;
                row_filters.insert(table, survivors);
            }
        }
        Ok(row_filters)
    }

    /// Row source stages 2 and 3 for one FROM table: the rows that survive
    /// `survivors` (stage 1) and the relational pre-pass, fetched whole in
    /// rowid order. Counts the fetched rows as documents evaluated and
    /// their XML cells as decoded.
    fn table_rows(
        &self,
        t: &Table,
        survivors: Option<&BTreeSet<u64>>,
        prepass: &Prepass<'_>,
        stats: &mut ExecStats,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<Vec<(u64, Vec<SqlValue>)>, XdmError> {
        stats.docs_total.insert(t.name.clone(), t.len());
        let ids: Vec<u64> = if prepass.conds.is_empty() {
            match survivors {
                Some(s) => s.iter().copied().collect(),
                None => (0..t.len() as u64).collect(),
            }
        } else {
            let mut ids = Vec::new();
            let mut ctx = RowCtx::default();
            let mut test = |id: u64, cells: Vec<Option<SqlValue>>| {
                prepass.load(&mut ctx, t, cells);
                if prepass.keep(self, &ctx, budget)? {
                    ids.push(id);
                }
                Ok::<_, XdmError>(())
            };
            match survivors {
                Some(s) => {
                    for &id in s {
                        if let Some(cells) = t.row_columns(id as usize, &prepass.want)? {
                            test(id, cells)?;
                        }
                    }
                }
                None => {
                    for item in t.scan_columns(&prepass.want) {
                        let (id, cells) = item?;
                        test(id as u64, cells)?;
                    }
                }
            }
            ids
        };
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            if let Some(values) = t.row(id as usize)? {
                stats.rows_decoded +=
                    values.iter().filter(|v| matches!(v, SqlValue::Xml(_))).count() as u64;
                out.push((id, values));
            }
        }
        stats.docs_evaluated.insert(t.name.clone(), out.len());
        Ok(out)
    }

    /// Row source stage 4: evaluate the whole WHERE on each fetched row,
    /// returning one keep flag per row (TRUE only — three-valued logic).
    /// Row conditions are independent of one another, so with a pool
    /// configured the rows evaluate in chunks across workers; the flags
    /// come back in row order, identical to the serial loop.
    fn residual_where(
        &self,
        cond: Option<&SqlCond>,
        rows: &[RowCtx],
        stats: &mut ExecStats,
        trace: &Trace,
        parent: Option<xqdb_obs::SpanId>,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<Vec<bool>, XdmError> {
        let Some(cond) = cond else { return Ok(vec![true; rows.len()]) };
        let threads = self.catalog.runtime.effective_threads();
        if threads <= 1 || rows.len() <= 1 {
            return rows
                .iter()
                .map(|ctx| Ok(self.eval_cond(cond, ctx, budget)? == Some(true)))
                .collect();
        }
        let pool = WorkerPool::new(threads);
        let ranges = chunk_ranges(rows.len(), pool.default_chunks(rows.len()));
        let task = |i: usize| {
            let mut out = Vec::with_capacity(ranges[i].len());
            for ctx in &rows[ranges[i].clone()] {
                out.push(self.eval_cond(cond, ctx, budget)? == Some(true));
            }
            Ok::<_, XdmError>(out)
        };
        let flags = if trace.enabled() {
            pool.try_run_observed(ranges.len(), task, |t| {
                trace.record_finished(
                    parent,
                    "worker task",
                    t.started,
                    t.nanos,
                    0,
                    vec![("worker", t.worker.to_string()), ("task", t.task.to_string())],
                );
            })?
        } else {
            pool.try_run(ranges.len(), task)?
        };
        stats.parallel_workers = pool.threads();
        stats.parallel_shards = ranges.len();
        Ok(flags.into_iter().flatten().collect())
    }

    /// Execute a SELECT against an already-compiled plan. `cache_hit`
    /// records whether the plan came from the statement cache (the matching
    /// counter was incremented by the caller).
    fn run_select_planned(
        &self,
        sel: &SelectStmt,
        plan: &SqlPlan,
        cache_hit: bool,
        trace: &Trace,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<SqlResult, XdmError> {
        let mut stats = ExecStats::new();
        stats.plan_cache_hits = u64::from(cache_hit);
        stats.plan_cache_misses = u64::from(!cache_hit);
        note_plan_cost(plan, &mut stats);
        let row_filters = self.access_paths(plan, &mut stats, trace, budget)?;

        let mut scan_span = trace.span("scan");
        let conjuncts = where_conjuncts(sel.where_cond.as_ref());
        // Build the row stream via nested loops.
        let mut rows: Vec<RowCtx> = vec![RowCtx::default()];
        for (pos, item) in sel.from.iter().enumerate() {
            let mut next = Vec::new();
            match item {
                FromItem::Table { name, alias } => {
                    let t = self.catalog.db.table(name).ok_or_else(|| {
                        XdmError::new(ErrorCode::SqlType, format!("unknown table {name:?}"))
                    })?;
                    // Access paths are keyed by table, not alias: a table
                    // listed twice (a self-join) may be filtered for one
                    // alias only, so its instances read unfiltered.
                    let listed = sel
                        .from
                        .iter()
                        .filter(|f| match f {
                            FromItem::Table { name, .. } => name.eq_ignore_ascii_case(&t.name),
                            FromItem::XmlTable { .. } => false,
                        })
                        .count();
                    let filter = if listed == 1 { row_filters.get(&t.name) } else { None };
                    let prepass = Prepass::plan(&conjuncts, &sel.from, pos, t, &self.catalog.db);
                    let fetched = self.table_rows(t, filter, &prepass, &mut stats, budget)?;
                    for (_, values) in &fetched {
                        for base in &rows {
                            next.push(base.joined(alias, t, values));
                        }
                    }
                }
                FromItem::XmlTable { row_query, passing, columns, alias, column_aliases } => {
                    for base in &rows {
                        let produced = self.expand_xmltable(
                            row_query,
                            passing,
                            columns,
                            alias,
                            column_aliases,
                            base,
                            budget,
                        )?;
                        next.extend(produced);
                    }
                }
            }
            rows = next;
        }
        let keep = self.residual_where(
            sel.where_cond.as_ref(),
            &rows,
            &mut stats,
            trace,
            scan_span.id(),
            budget,
        )?;
        let kept: Vec<RowCtx> =
            rows.into_iter().zip(keep).filter_map(|(row, k)| k.then_some(row)).collect();
        scan_span.add_count(kept.len() as u64);
        drop(scan_span);

        // Projection.
        let mut project_span = trace.span("serialize");
        let mut columns = Vec::new();
        let mut out_rows = Vec::new();
        for (ri, ctx) in kept.iter().enumerate() {
            let mut row = Vec::new();
            for (ii, item) in sel.items.iter().enumerate() {
                match item {
                    SelectItem::Star => {
                        for key in &ctx.order {
                            if ri == 0 {
                                columns.push(key.1.clone());
                            }
                            row.push(
                                ctx.values
                                    .get(key)
                                    .cloned()
                                    .unwrap_or(Scalar::Null),
                            );
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        if ri == 0 {
                            columns.push(alias.clone().unwrap_or_else(|| default_name(expr, ii)));
                        }
                        row.push(self.eval_expr(expr, ctx, budget)?);
                    }
                }
            }
            out_rows.push(row);
        }
        if kept.is_empty() {
            // Still produce column headers.
            for (ii, item) in sel.items.iter().enumerate() {
                match item {
                    SelectItem::Star => {}
                    SelectItem::Expr { expr, alias } => {
                        columns.push(alias.clone().unwrap_or_else(|| default_name(expr, ii)));
                    }
                }
            }
        }
        project_span.add_count(out_rows.len() as u64);
        drop(project_span);
        record_exec_metrics(&self.obs, &stats);
        Ok(SqlResult { columns, rows: out_rows, message: None, stats, trace: trace.clone() })
    }

    #[allow(clippy::too_many_arguments)]
    fn expand_xmltable(
        &self,
        row_query: &Query,
        passing: &[(String, SqlExpr)],
        columns: &[XmlTableColumn],
        alias: &str,
        column_aliases: &[String],
        base: &RowCtx,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<Vec<RowCtx>, XdmError> {
        let ctx = self.passing_context(passing, base, budget)?;
        let items = eval_query(row_query, &self.catalog.db, &ctx)?;
        let mut out = Vec::new();
        for item in items {
            let mut row = base.clone();
            for (ci, col) in columns.iter().enumerate() {
                let cname = column_aliases
                    .get(ci)
                    .cloned()
                    .unwrap_or_else(|| col.name.clone());
                let col_ctx = DynamicContext::with_variables(HashMap::new())
                    .with_budget(budget.clone())
                    .with_focus(item.clone(), 1, 1);
                let seq = eval_query(&col.path, &self.catalog.db, &col_ctx)?;
                let value = match &col.ty {
                    None => Scalar::Xml(seq),
                    Some(ty) => {
                        // Column expressions NULL on empty (Section 3.2:
                        // "the result value of the corresponding column is
                        // the NULL value").
                        if seq.is_empty() {
                            Scalar::Null
                        } else {
                            sequence_to_scalar(&seq, ty)?
                        }
                    }
                };
                row.values.insert((alias.to_string(), cname.clone()), value);
                row.order.push((alias.to_string(), cname));
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Evaluate the PASSING clause into a dynamic context carrying the
    /// statement's budget, so embedded XQuery evaluation observes the
    /// deadline, step cap, and cancellation token.
    fn passing_context(
        &self,
        passing: &[(String, SqlExpr)],
        row: &RowCtx,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<DynamicContext, XdmError> {
        let mut vars = HashMap::new();
        for (name, expr) in passing {
            let v = self.eval_expr(expr, row, budget)?;
            vars.insert(ExpandedName::local(name.as_str()), v.to_sequence()?);
        }
        Ok(DynamicContext::with_variables(vars).with_budget(budget.clone()))
    }

    fn eval_expr(
        &self,
        expr: &SqlExpr,
        row: &RowCtx,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<Scalar, XdmError> {
        match expr {
            SqlExpr::Integer(i) => Ok(Scalar::Integer(*i)),
            SqlExpr::Double(d) => Ok(Scalar::Double(*d)),
            SqlExpr::Varchar(s) => Ok(Scalar::Varchar(s.clone())),
            SqlExpr::Null => Ok(Scalar::Null),
            SqlExpr::Column { qualifier, name } => row.lookup(qualifier.as_deref(), name),
            SqlExpr::XmlQuery { query, passing } => {
                let ctx = self.passing_context(passing, row, budget)?;
                let seq = eval_query(query, &self.catalog.db, &ctx)?;
                Ok(Scalar::Xml(seq))
            }
            SqlExpr::XmlCast { expr, ty } => {
                let v = self.eval_expr(expr, row, budget)?;
                xmlcast(&v, ty)
            }
        }
    }

    /// Three-valued condition evaluation (`None` = UNKNOWN). Each row
    /// condition ticks the statement budget so a deadline interrupts even
    /// pure-SQL scans that never enter XQuery evaluation.
    fn eval_cond(
        &self,
        cond: &SqlCond,
        row: &RowCtx,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<Option<bool>, XdmError> {
        budget.tick()?;
        match cond {
            SqlCond::Cmp(op, a, b) => {
                let l = self.eval_expr(a, row, budget)?;
                let r = self.eval_expr(b, row, budget)?;
                let ord = sql_compare(&to_stored_for_cmp(&l)?, &to_stored_for_cmp(&r)?)?;
                Ok(ord.map(|o| op.test(Some(o))))
            }
            SqlCond::XmlExists { query, passing } => {
                let ctx = self.passing_context(passing, row, budget)?;
                let seq = eval_query(query, &self.catalog.db, &ctx)?;
                // XMLEXISTS is a pure non-emptiness test — NOT the EBV.
                // `false()` is a non-empty sequence, so it passes (Query 9).
                Ok(Some(!seq.is_empty()))
            }
            SqlCond::And(a, b) => {
                let l = self.eval_cond(a, row, budget)?;
                if l == Some(false) {
                    return Ok(Some(false));
                }
                let r = self.eval_cond(b, row, budget)?;
                Ok(match (l, r) {
                    (Some(true), Some(true)) => Some(true),
                    (_, Some(false)) => Some(false),
                    _ => None,
                })
            }
            SqlCond::Or(a, b) => {
                let l = self.eval_cond(a, row, budget)?;
                if l == Some(true) {
                    return Ok(Some(true));
                }
                let r = self.eval_cond(b, row, budget)?;
                Ok(match (l, r) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                })
            }
            SqlCond::Not(c) => Ok(self.eval_cond(c, row, budget)?.map(|b| !b)),
        }
    }
}

/// One row of the in-flight join: (alias, column) → value.
#[derive(Debug, Clone, Default)]
struct RowCtx {
    values: HashMap<(String, String), Scalar>,
    order: Vec<(String, String)>,
}

impl RowCtx {
    /// This row extended with one stored row of `t` under `alias`.
    fn joined(&self, alias: &str, t: &Table, values: &[SqlValue]) -> RowCtx {
        let mut ctx = self.clone();
        for (col, v) in t.columns.iter().zip(values) {
            ctx.values.insert((alias.to_string(), col.name.clone()), Scalar::from_stored(v));
            ctx.order.push((alias.to_string(), col.name.clone()));
        }
        ctx
    }

    fn lookup(&self, qualifier: Option<&str>, name: &str) -> Result<Scalar, XdmError> {
        self.resolve(qualifier, name).map(|(_, v)| v.clone())
    }

    /// The `(alias, column)` entry `[qualifier.]name` names (matched
    /// upper-cased, as SQL identifiers are stored), without allocating on
    /// the hit path — this runs once per column reference per row.
    fn resolve(
        &self,
        qualifier: Option<&str>,
        name: &str,
    ) -> Result<(&(String, String), &Scalar), XdmError> {
        match qualifier {
            Some(q) => self
                .values
                .iter()
                .find(|((a, n), _)| upper_eq(a, q) && upper_eq(n, name))
                .ok_or_else(|| {
                    XdmError::new(
                        ErrorCode::SqlType,
                        format!(
                            "unknown column {}.{}",
                            q.to_ascii_uppercase(),
                            name.to_ascii_uppercase()
                        ),
                    )
                }),
            None => {
                let mut found = None;
                for entry @ ((_, n), _) in &self.values {
                    if upper_eq(n, name) {
                        if found.is_some() {
                            return Err(XdmError::new(
                                ErrorCode::SqlType,
                                format!("ambiguous column {}", name.to_ascii_uppercase()),
                            ));
                        }
                        found = Some(entry);
                    }
                }
                found.ok_or_else(|| {
                    XdmError::new(
                        ErrorCode::SqlType,
                        format!("unknown column {}", name.to_ascii_uppercase()),
                    )
                })
            }
        }
    }
}

/// `stored == ident.to_ascii_uppercase()`, without the allocation.
fn upper_eq(stored: &str, ident: &str) -> bool {
    stored.len() == ident.len()
        && stored.bytes().zip(ident.bytes()).all(|(s, i)| s == i.to_ascii_uppercase())
}

/// Row source stage 2 for one FROM table: the relational pre-pass.
///
/// It holds the *leading* WHERE conjuncts (after AND-flattening, in
/// evaluation order) that read only non-XML columns of this table and
/// embed no XQuery — `ordid = 5`, `5 > ordid`, `a = 1 OR b < 2`; an OR
/// that mixes a relational test with `XMLEXISTS` is never taken. These
/// are evaluated with [`SqlSession::eval_cond`] on a row decoded column
/// by column, so no XML payload is parsed.
///
/// A row is dropped only where the full WHERE is certainly not TRUE *and*
/// would raise no error. `AND` evaluates left to right and stops at the
/// first FALSE, so a FALSE leading conjunct decides the row before any
/// later conjunct runs. An UNKNOWN only decides it when the pre-pass holds
/// every conjunct. A conjunct that raises an error keeps the row: the
/// residual WHERE raises that same error, in row order. Budget errors
/// stop the statement at once, as in any other stage.
struct Prepass<'a> {
    /// The alias the conjuncts name the table by.
    alias: String,
    conds: Vec<&'a SqlCond>,
    /// `conds` is the whole WHERE, so a row they leave UNKNOWN is dropped.
    whole: bool,
    /// The columns the conjuncts read — the decode mask.
    want: Vec<bool>,
}

impl<'a> Prepass<'a> {
    /// The pre-pass of the table at `from[pos]`. Empty when the table's
    /// alias is not unique, or when an `XMLTABLE` follows it in FROM (its
    /// lateral expansion runs per row and may raise errors that dropping
    /// the row early would hide).
    fn plan(
        conjuncts: &[&'a SqlCond],
        from: &[FromItem],
        pos: usize,
        t: &Table,
        db: &xqdb_storage::Database,
    ) -> Prepass<'a> {
        let alias = from.get(pos).map_or("", from_alias);
        let mut prepass = Prepass {
            alias: alias.to_string(),
            conds: Vec::new(),
            whole: false,
            want: vec![false; t.columns.len()],
        };
        let Some(shape) = from_shape(from, db) else { return prepass };
        let unique = from.iter().filter(|f| from_alias(f) == alias).count() == 1;
        let later_xmltable =
            from.iter().skip(pos + 1).any(|f| matches!(f, FromItem::XmlTable { .. }));
        if !unique || later_xmltable {
            return prepass;
        }
        let scope = ColumnScope { alias, t, shape: &shape };
        // (A conjunct that fails the test may still have marked a column:
        // one more non-XML column decoded, nothing parsed.)
        for c in conjuncts {
            if !scope.relational_cond(c, &mut prepass.want) {
                break;
            }
            prepass.conds.push(c);
        }
        prepass.whole = prepass.conds.len() == conjuncts.len();
        prepass
    }

    /// Load one column-selectively decoded row into `ctx`, the pre-pass's
    /// evaluation context: only the wanted columns, under the table's
    /// alias. The context is reused row after row, so its keys are
    /// allocated once.
    fn load(&self, ctx: &mut RowCtx, t: &Table, cells: Vec<Option<SqlValue>>) {
        for (col, cell) in t.columns.iter().zip(cells) {
            let Some(v) = cell else { continue };
            let v = Scalar::from_stored(&v);
            match ctx.values.iter_mut().find(|((_, n), _)| *n == col.name) {
                Some((_, slot)) => *slot = v,
                None => {
                    ctx.values.insert((self.alias.clone(), col.name.clone()), v);
                }
            }
        }
    }

    /// Keep the row unless the WHERE is certainly not TRUE for it.
    fn keep(
        &self,
        session: &SqlSession,
        row: &RowCtx,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<bool, XdmError> {
        let mut unknown = false;
        for c in &self.conds {
            match session.eval_cond(c, row, budget) {
                Ok(Some(true)) => {}
                Ok(Some(false)) => return Ok(false),
                Ok(None) => unknown = true,
                Err(e) if matches!(e.code, ErrorCode::ResourceExhausted | ErrorCode::Cancelled) => {
                    return Err(e)
                }
                // The residual WHERE raises this error on the fetched row.
                Err(_) => return Ok(true),
            }
        }
        Ok(!(unknown && self.whole))
    }
}

fn from_alias(item: &FromItem) -> &str {
    match item {
        FromItem::Table { alias, .. } | FromItem::XmlTable { alias, .. } => alias,
    }
}

/// The joined row of `from` with every value NULL: the names a column
/// reference can resolve to. `None` if a table is unknown (planning has
/// already rejected the statement then).
fn from_shape(from: &[FromItem], db: &xqdb_storage::Database) -> Option<RowCtx> {
    let mut shape = RowCtx::default();
    for item in from {
        match item {
            FromItem::Table { name, alias } => {
                for col in &db.table(name)?.columns {
                    shape.values.insert((alias.clone(), col.name.clone()), Scalar::Null);
                }
            }
            FromItem::XmlTable { columns, alias, column_aliases, .. } => {
                for (ci, col) in columns.iter().enumerate() {
                    let cname = column_aliases.get(ci).unwrap_or(&col.name);
                    shape.values.insert((alias.clone(), cname.clone()), Scalar::Null);
                }
            }
        }
    }
    Some(shape)
}

/// Column resolution for one FROM table's pre-pass: which conjuncts read
/// only that table's non-XML columns, resolved by [`RowCtx::resolve`]
/// against the shape of the whole joined row.
struct ColumnScope<'s> {
    alias: &'s str,
    t: &'s Table,
    shape: &'s RowCtx,
}

impl ColumnScope<'_> {
    /// `cond` reads only non-XML columns of the table and embeds no
    /// XQuery; the columns it reads are marked in `want`.
    fn relational_cond(&self, cond: &SqlCond, want: &mut [bool]) -> bool {
        match cond {
            SqlCond::Cmp(_, a, b) => self.relational_expr(a, want) && self.relational_expr(b, want),
            SqlCond::And(a, b) | SqlCond::Or(a, b) => {
                self.relational_cond(a, want) && self.relational_cond(b, want)
            }
            SqlCond::Not(c) => self.relational_cond(c, want),
            SqlCond::XmlExists { .. } => false,
        }
    }

    fn relational_expr(&self, expr: &SqlExpr, want: &mut [bool]) -> bool {
        match expr {
            SqlExpr::Integer(_) | SqlExpr::Double(_) | SqlExpr::Varchar(_) | SqlExpr::Null => true,
            SqlExpr::Column { qualifier, name } => {
                let Ok(((alias, name), _)) = self.shape.resolve(qualifier.as_deref(), name) else {
                    return false;
                };
                match self.t.column_index(name) {
                    Some(ci) if alias == self.alias && self.t.columns[ci].ty != SqlType::Xml => {
                        want[ci] = true;
                        true
                    }
                    _ => false,
                }
            }
            SqlExpr::XmlQuery { .. } | SqlExpr::XmlCast { .. } => false,
        }
    }
}

/// The planned access paths and diagnostics of a SELECT.
#[derive(Debug, Default)]
pub struct SqlPlan {
    /// alias → table name.
    pub tables: HashMap<String, String>,
    /// Source → extracted conditions (one per filtering XQuery).
    pub conds: HashMap<String, Vec<Cond>>,
    /// Compiled access per source.
    pub accesses: HashMap<String, IndexCond>,
    /// Analyzer notes.
    pub notes: Vec<Note>,
    /// Rejected candidates.
    pub rejections: Vec<Rejection>,
    /// Structural pre-filter per source, one entry per filtering conjunct
    /// (all must hold for a row to survive).
    pub prefilters: HashMap<String, Vec<SourcePrefilter>>,
    /// Twig patterns per source, one entry per filtering conjunct (all
    /// must hold for a row to survive). Resolved against the table's
    /// synopsis at execution time, so cached plans stay valid as
    /// collections grow.
    pub twigs: HashMap<String, Vec<SourceTwig>>,
    /// Cost decisions made while compiling accesses (candidates scored,
    /// estimated rows, human-readable choice notes).
    pub cost: PlanCost,
}

/// Render the EXPLAIN output.
pub fn render_plan(plan: &SqlPlan) -> String {
    let mut out = String::from("SQL/XML PLAN\n");
    let mut aliases: Vec<_> = plan.tables.iter().collect();
    aliases.sort();
    for (alias, table) in aliases {
        // Find accesses on this table's sources.
        let mut printed = false;
        let mut sources: Vec<_> = plan.accesses.iter().collect();
        sources.sort_by_key(|(s, _)| s.as_str());
        for (source, access) in sources {
            if source.starts_with(&format!("{table}.")) {
                out.push_str(&format!(
                    "  table {table} (alias {alias}): INDEX {}\n",
                    access.render()
                ));
                printed = true;
            }
        }
        if !printed {
            out.push_str(&format!("  table {table} (alias {alias}): TABLE SCAN\n"));
        }
    }
    if !plan.cost.notes.is_empty() {
        out.push_str("  cost decisions:\n");
        for n in &plan.cost.notes {
            out.push_str(&format!("    - {n}\n"));
        }
    }
    if !plan.prefilters.is_empty() {
        out.push_str("  structural prefilter:\n");
        let mut sources: Vec<_> = plan.prefilters.iter().collect();
        sources.sort_by_key(|(s, _)| s.as_str());
        for (source, pfs) in sources {
            let reqs: Vec<String> = pfs.iter().map(|pf| pf.render()).collect();
            out.push_str(&format!("    - {source}: requires {}\n", reqs.join(" AND ")));
        }
    }
    if !plan.twigs.is_empty() {
        out.push_str("  twig join:\n");
        let mut sources: Vec<_> = plan.twigs.iter().collect();
        sources.sort_by_key(|(s, _)| s.as_str());
        for (source, tws) in sources {
            let reqs: Vec<String> = tws.iter().map(SourceTwig::render).collect();
            out.push_str(&format!("    - {source}: matches {}\n", reqs.join(" AND ")));
        }
    }
    if !plan.notes.is_empty() {
        out.push_str("  notes:\n");
        for n in &plan.notes {
            out.push_str(&format!("    - {n}\n"));
        }
    }
    if !plan.rejections.is_empty() {
        out.push_str("  rejected candidates:\n");
        for r in &plan.rejections {
            out.push_str(&format!("    - {}\n", r.candidate));
            for reason in &r.reasons {
                out.push_str(&format!("        {reason}\n"));
            }
        }
    }
    out
}

fn elapsed_ns(from: Instant) -> u64 {
    u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn default_name(expr: &SqlExpr, i: usize) -> String {
    match expr {
        SqlExpr::Column { name, .. } => name.clone(),
        SqlExpr::XmlQuery { .. } => format!("XMLQUERY_{}", i + 1),
        SqlExpr::XmlCast { .. } => format!("XMLCAST_{}", i + 1),
        _ => format!("C{}", i + 1),
    }
}

/// The WHERE clause's AND-conjuncts in evaluation order (empty without
/// a WHERE).
fn where_conjuncts(cond: Option<&SqlCond>) -> Vec<&SqlCond> {
    let mut out = Vec::new();
    if let Some(c) = cond {
        flatten_and(c, &mut out);
    }
    out
}

/// Copy a plan's costing decisions into the run's stats.
fn note_plan_cost(plan: &SqlPlan, stats: &mut ExecStats) {
    if plan.cost.costed {
        stats.plans_costed = 1;
        stats.index_candidates_costed = plan.cost.candidates;
        stats.cost_est_rows = plan.cost.est_rows.unwrap_or(0);
    }
}

fn flatten_and<'a>(cond: &'a SqlCond, out: &mut Vec<&'a SqlCond>) {
    match cond {
        SqlCond::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other),
    }
}

fn collect_cond_sources(cond: &Cond, out: &mut BTreeSet<String>) {
    match cond {
        Cond::Any => {}
        Cond::Pred(c) => {
            out.insert(c.source.clone());
        }
        Cond::Exists { source, .. } => {
            out.insert(source.clone());
        }
        Cond::And(cs) | Cond::Or(cs) => {
            for c in cs {
                collect_cond_sources(c, out);
            }
        }
    }
}

/// `XMLCAST`: singleton enforcement and SQL-typed conversion — the Query 14
/// failure modes (cardinality and VARCHAR length) live here.
pub fn xmlcast(v: &Scalar, ty: &SqlType) -> Result<Scalar, XdmError> {
    let seq = match v {
        Scalar::Xml(seq) => seq.clone(),
        // Casting a non-XML scalar: route through its sequence form.
        other => other.to_sequence()?,
    };
    if seq.is_empty() {
        return Ok(Scalar::Null);
    }
    if seq.len() > 1 {
        return Err(XdmError::new(
            ErrorCode::SqlCardinality,
            format!("XMLCAST requires a singleton sequence, got {} items", seq.len()),
        ));
    }
    let atom = seq[0].atomize()?;
    match ty {
        SqlType::Integer => match cast::cast(&atom, AtomicType::Integer)? {
            AtomicValue::Integer(i) => Ok(Scalar::Integer(i)),
            other => Err(XdmError::internal(format!("integer cast yielded {other:?}"))),
        },
        SqlType::Double | SqlType::Decimal(..) => match cast::cast(&atom, AtomicType::Double)? {
            AtomicValue::Double(d) => Ok(Scalar::Double(d)),
            other => Err(XdmError::internal(format!("double cast yielded {other:?}"))),
        },
        SqlType::Varchar(n) => {
            let s = atom.lexical();
            if s.chars().count() > *n {
                return Err(XdmError::new(
                    ErrorCode::SqlLength,
                    format!("XMLCAST value of length {} exceeds VARCHAR({n})", s.chars().count()),
                ));
            }
            Ok(Scalar::Varchar(s))
        }
        SqlType::Date => match cast::cast(&atom, AtomicType::Date)? {
            AtomicValue::Date(d) => Ok(Scalar::Date(d)),
            other => Err(XdmError::internal(format!("date cast yielded {other:?}"))),
        },
        SqlType::Timestamp => match cast::cast(&atom, AtomicType::DateTime)? {
            AtomicValue::DateTime(t) => Ok(Scalar::Timestamp(t)),
            other => Err(XdmError::internal(format!("dateTime cast yielded {other:?}"))),
        },
        SqlType::Xml => Ok(Scalar::Xml(seq)),
    }
}

/// Convert a column XDM sequence to a scalar of the declared type
/// (XMLTABLE column semantics: caller handles the empty case).
fn sequence_to_scalar(seq: &Sequence, ty: &SqlType) -> Result<Scalar, XdmError> {
    xmlcast(&Scalar::Xml(seq.clone()), ty)
}

/// The one-line description of a DML statement for its EXPLAIN ANALYZE
/// report header.
fn dml_headline(stmt: &SqlStmt) -> String {
    match stmt {
        SqlStmt::Delete { table, where_cond } => format!(
            "DELETE FROM {table}{}",
            if where_cond.is_some() { " WHERE ..." } else { "" }
        ),
        SqlStmt::Update { table, set, where_cond } => {
            let cols: Vec<&str> = set.iter().map(|(c, _)| c.as_str()).collect();
            format!(
                "UPDATE {table} SET {}{}",
                cols.join(", "),
                if where_cond.is_some() { " WHERE ..." } else { "" }
            )
        }
        other => format!("{other:?}"),
    }
}

/// Convert a runtime scalar into a stored value for an UPDATE assignment
/// targeting a column of type `ty`. XML columns accept a singleton node
/// sequence (an XMLQUERY result); everything else stores its natural
/// stored form, with NULL always allowed.
fn scalar_to_stored(v: &Scalar, ty: &SqlType) -> Result<SqlValue, XdmError> {
    match (v, ty) {
        (Scalar::Null, _) => Ok(SqlValue::Null),
        (Scalar::Xml(seq), SqlType::Xml) => match seq.as_slice() {
            [Item::Node(n)] => Ok(SqlValue::Xml(n.clone())),
            _ => Err(XdmError::new(
                ErrorCode::SqlCardinality,
                format!(
                    "UPDATE of an XML column requires a single node, got {} item(s)",
                    seq.len()
                ),
            )),
        },
        (Scalar::Xml(_), _) => Err(XdmError::new(
            ErrorCode::SqlType,
            "XML value assigned to a non-XML column; use XMLCAST",
        )),
        (other, _) => to_stored_for_cmp(other),
    }
}

/// Convert a runtime scalar into a stored value for SQL comparison; XML
/// values are rejected (Section 3.3: use XMLCAST).
fn to_stored_for_cmp(v: &Scalar) -> Result<SqlValue, XdmError> {
    Ok(match v {
        Scalar::Null => SqlValue::Null,
        Scalar::Integer(i) => SqlValue::Integer(*i),
        Scalar::Double(d) => SqlValue::Double(*d),
        Scalar::Varchar(s) => SqlValue::Varchar(s.clone()),
        Scalar::Date(d) => SqlValue::Date(*d),
        Scalar::Timestamp(t) => SqlValue::Timestamp(*t),
        Scalar::Xml(_) => {
            return Err(XdmError::new(
                ErrorCode::SqlType,
                "XML values cannot be compared with SQL operators; use XMLCAST \
                 or move the comparison into XQuery (Tip 6)",
            ))
        }
    })
}
