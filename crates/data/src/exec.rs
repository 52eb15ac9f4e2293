//! Query executor: evaluates a unified AST (the *what data* part of a SQL or
//! VIS tree) against a [`Database`].
//!
//! Supports the full Figure-5 grammar: projection with aggregates
//! (max/min/count/sum/avg, DISTINCT), hash equi-joins, WHERE filters with
//! and/or, between, (not) like, (not) in, nested subqueries, HAVING
//! (aggregated filter leaves are applied after grouping), GROUP BY, temporal
//! and numeric binning, ORDER BY, superlatives (`top k by A`), and
//! INTERSECT / UNION / EXCEPT with SQL set semantics.
//!
//! The executor powers three things downstream: chart-data rendering
//! (`nv-render`), "result matching accuracy" for seq2vis, and DeepEye
//! feature extraction (`nv-quality`).
//!
//! ## Bound query bodies
//!
//! Each query body is bound once, before its row and group loops: every
//! column reference in WHERE, SELECT, GROUP/BIN, HAVING and ORDER/TOP is
//! resolved to an index, and every subquery operand gets a slot at its
//! position in the bound predicate. A reference that does not resolve keeps
//! its error, raised where the column is first read. A slot runs its
//! subquery at most once per execution, on first use; each later use (the
//! next row or group) checks the subquery depth again and replays the fuel
//! and peak rows the run charged. Results and [`ExecSpend`] are therefore
//! those of re-running the subquery for every row.
//!
//! ## Execution caching
//!
//! Synthesis executes dozens of candidate VIS queries per (NL, SQL) pair,
//! and the candidates overwhelmingly share their FROM/JOIN/WHERE fragment
//! (they vary the projection, grouping, and binning on top of one scan).
//! [`ExecCache`] exploits that: it memoizes, for one database at a time,
//!
//! 1. **scans** — the joined + WHERE-filtered row set, keyed by the
//!    canonical form of `(FROM, JOINs, WHERE)`, which also covers every
//!    WHERE that holds a subquery;
//! 2. **groups** — grouped/binned row-index partitions over a cached scan,
//!    keyed by scan key plus the group/bin spec.
//!
//! Cached data is shared via `Arc` and never mutated, so [`execute_with`]
//! through a cache ([`ExecOptions::cache`]) is bit-identical to [`execute`]
//! — the cache is a pure performance layer. A cache serves the database it
//! last executed against: handed another, it drops its memo and starts
//! afresh, so it never serves one database's scans for another's and holds
//! one database's entries at a time.
//!
//! Both layers share one memo protocol (the private `Exec::memo`): a hit
//! replays the fuel, peak rows and scanned rows its cold build charged, so
//! budget accounting cannot tell warm from cold. WHERE and HAVING share one
//! predicate walker; only the attribute read differs (a row's cell or a
//! group's aggregate).

use crate::schema::ColumnType;
use crate::table::Database;
use crate::value::Value;
use nv_ast::*;
use std::borrow::Borrow;
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    UnknownTable(String),
    UnknownColumn(String),
    TypeError(String),
    Unsupported(String),
    ArityMismatch { left: usize, right: usize },
    /// An [`ExecBudget`] limit was hit (rows, subquery depth, or fuel).
    /// Deliberately not retried: a pathological query stays pathological.
    ResourceExhausted(String),
    /// Invariant violation or injected fault — never expected in production.
    Internal(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            ExecError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            ExecError::TypeError(m) => write!(f, "type error: {m}"),
            ExecError::Unsupported(m) => write!(f, "unsupported: {m}"),
            ExecError::ArityMismatch { left, right } => {
                write!(f, "set-op arity mismatch: {left} vs {right}")
            }
            ExecError::ResourceExhausted(m) => write!(f, "resource exhausted: {m}"),
            ExecError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

// ---- resource budgets ----------------------------------------------------

/// Hard resource limits for one query execution. Every entry point threads a
/// budget through the whole evaluation (joins, scans, grouping, subqueries);
/// exceeding any limit aborts the query with
/// [`ExecError::ResourceExhausted`] instead of hanging or exhausting memory.
///
/// The defaults are deliberately generous — far above anything a real corpus
/// query needs — so they only trip on pathological inputs (e.g. unconstrained
/// cross joins). Row limits are checked *before* materializing, which is what
/// makes them an OOM guard rather than an after-the-fact diagnostic.
///
/// Fuel is charged per row visited. Cache hits *replay* the charge the
/// cached computation made when it was built (fuel and peak-row checks), so
/// a warm execution reports exactly the same budget spend as a cold one and
/// trips the same limits — the cache is a pure wall-clock optimization,
/// invisible to budget accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecBudget {
    /// Max rows any intermediate relation may materialize (joins, scans,
    /// set-op outputs).
    pub max_rows: usize,
    /// Max nesting depth of predicate subqueries.
    pub max_subquery_depth: usize,
    /// Total row-visit steps across the whole execution.
    pub fuel: u64,
}

impl Default for ExecBudget {
    fn default() -> ExecBudget {
        ExecBudget { max_rows: 4_000_000, max_subquery_depth: 16, fuel: 50_000_000 }
    }
}

impl ExecBudget {
    /// No limits at all — pre-budget behaviour.
    pub fn unlimited() -> ExecBudget {
        ExecBudget { max_rows: usize::MAX, max_subquery_depth: usize::MAX, fuel: u64::MAX }
    }
}

/// Budget accounting carried through one execution.
struct Meter {
    budget: ExecBudget,
    fuel_used: u64,
    depth: usize,
    /// Largest row count passed to [`Self::check_rows`] in the current
    /// section (see [`Self::begin_section`]); after all sections close,
    /// the largest across the whole execution.
    peak_rows: usize,
    /// Output rows of every query body's scan (`data.exec.scan_rows`).
    /// Cache hits replay the count their cold build recorded and a subquery
    /// slot counts its subquery once, so the total depends on neither
    /// cache state nor thread partitioning.
    scan_rows: u64,
}

/// What one metered section charged: exactly what a cache hit or a filled
/// subquery slot later [`Meter::replay`]s.
#[derive(Debug, Clone, Copy)]
struct Charge {
    fuel: u64,
    peak_rows: usize,
    scan_rows: u64,
}

impl Meter {
    fn new(budget: ExecBudget) -> Meter {
        Meter { budget, fuel_used: 0, depth: 0, peak_rows: 0, scan_rows: 0 }
    }

    /// Start measuring a cacheable computation: returns a mark capturing
    /// fuel and scan rows so far and the enclosing section's peak. Sections
    /// nest.
    fn begin_section(&mut self) -> Charge {
        Charge {
            fuel: self.fuel_used,
            peak_rows: std::mem::take(&mut self.peak_rows),
            scan_rows: self.scan_rows,
        }
    }

    /// Close a section: returns what was charged inside it and folds the
    /// section's peak back into the enclosing one.
    fn end_section(&mut self, mark: Charge) -> Charge {
        let peak = self.peak_rows;
        self.peak_rows = peak.max(mark.peak_rows);
        Charge {
            fuel: self.fuel_used - mark.fuel,
            peak_rows: peak,
            scan_rows: self.scan_rows - mark.scan_rows,
        }
    }

    /// Charge a cache hit or a filled slot with what its first build
    /// recorded, so reuse is indistinguishable to the budget.
    fn replay(&mut self, c: Charge, what: &str) -> Result<(), ExecError> {
        self.scan_rows += c.scan_rows;
        self.check_rows(c.peak_rows, what)?;
        self.charge(c.fuel)
    }

    /// Spend `units` fuel (one unit ≈ one row visited).
    fn charge(&mut self, units: u64) -> Result<(), ExecError> {
        self.fuel_used = self.fuel_used.saturating_add(units);
        if self.fuel_used > self.budget.fuel {
            return Err(ExecError::ResourceExhausted(format!(
                "fuel limit of {} steps exceeded",
                self.budget.fuel
            )));
        }
        Ok(())
    }

    /// Refuse to materialize `n` rows if over the row limit. Call *before*
    /// allocating.
    fn check_rows(&mut self, n: usize, what: &str) -> Result<(), ExecError> {
        self.peak_rows = self.peak_rows.max(n);
        if n > self.budget.max_rows {
            return Err(ExecError::ResourceExhausted(format!(
                "{what} would materialize {n} rows (limit {})",
                self.budget.max_rows
            )));
        }
        Ok(())
    }

    fn enter_subquery(&mut self) -> Result<(), ExecError> {
        self.depth += 1;
        if self.depth > self.budget.max_subquery_depth {
            return Err(ExecError::ResourceExhausted(format!(
                "subquery depth {} exceeds limit {}",
                self.depth, self.budget.max_subquery_depth
            )));
        }
        Ok(())
    }

    fn exit_subquery(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }
}

/// The output of a query: named, typed columns plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Display names, e.g. `["flight.destination", "count(flight.*)"]`.
    pub columns: Vec<String>,
    pub types: Vec<ColumnType>,
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Order-insensitive, float-tolerant equality — the paper's "vis result
    /// matching": two queries match if they produce the same data, even when
    /// their ASTs differ.
    pub fn data_eq(&self, other: &ResultSet) -> bool {
        if self.columns.len() != other.columns.len() || self.rows.len() != other.rows.len() {
            return false;
        }
        let norm = |rs: &ResultSet| -> Vec<Vec<String>> {
            let mut rows: Vec<Vec<String>> = rs
                .rows
                .iter()
                .map(|r| r.iter().map(norm_value).collect())
                .collect();
            rows.sort();
            rows
        };
        norm(self) == norm(other)
    }

    /// Strict order-insensitive equality for differential testing: column
    /// names, column types, and the row multiset must all match. Rows are
    /// compared through the same float normalization as
    /// [`data_eq`](Self::data_eq) so an `Int`-path and a `Float`-path
    /// aggregate of the same quantity agree, but unlike `data_eq` a renamed
    /// or retyped column is a mismatch.
    pub fn multiset_eq(&self, other: &ResultSet) -> bool {
        self.columns == other.columns && self.types == other.types && self.data_eq(other)
    }
}

fn norm_value(v: &Value) -> String {
    match v.as_f64() {
        // Round to 6 significant decimals so float-path vs int-path
        // aggregates compare equal.
        Some(f) => format!("{:.6}", f),
        None => v.label(),
    }
}

// ---- execution cache -----------------------------------------------------

/// Hit/miss counters per cache layer; exposed for benchmarks and tuning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub scan_hits: u64,
    pub scan_misses: u64,
    pub group_hits: u64,
    pub group_misses: u64,
}

impl CacheStats {
    pub fn hits(&self) -> u64 {
        self.scan_hits + self.group_hits
    }

    pub fn misses(&self) -> u64 {
        self.scan_misses + self.group_misses
    }
}

/// Memo of one database's scans and groupings (see the module docs).
/// Purely additive: results through a cache are identical to uncached
/// execution, and each entry remembers the budget spend of its cold
/// construction so hits charge the meter identically. Executing against
/// another database starts a fresh memo; [`stats`](ExecCache::stats) keeps
/// counting across the switch.
#[derive(Debug, Default)]
pub struct ExecCache {
    /// Name of the database the memo holds entries for.
    db_name: Option<String>,
    scans: HashMap<String, Cached<ScanData>>,
    groups: HashMap<String, Cached<Vec<GroupEntry>>>,
    pub stats: CacheStats,
}

/// A memoized value plus what its construction charged, so a hit can
/// [`Meter::replay`] it.
#[derive(Debug)]
struct Cached<T> {
    value: Arc<T>,
    charge: Charge,
}

impl ExecCache {
    pub fn new() -> ExecCache {
        ExecCache::default()
    }

    /// Number of memoized entries across all layers.
    pub fn len(&self) -> usize {
        self.scans.len() + self.groups.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point the memo at `db`, dropping every entry when it held another
    /// database's, since those would be served as the wrong data.
    fn bind(&mut self, db: &Database) {
        if self.db_name.as_deref() != Some(db.name.as_str()) {
            self.db_name = Some(db.name.clone());
            self.scans.clear();
            self.groups.clear();
        }
    }
}

/// A materialized joined + WHERE-filtered relation, shared across queries.
#[derive(Debug)]
struct ScanData {
    cols: Vec<String>,
    types: Vec<ColumnType>,
    rows: Vec<Vec<Value>>,
}

/// One group of a grouped scan: its key values, display label (for binned
/// groups), and member row indices into the scan.
#[derive(Debug)]
struct GroupEntry {
    key: Vec<Value>,
    label: Value,
    rows: Vec<usize>,
}

/// Execute a query against a database, ignoring any `Visualize` node. Uses
/// no cache and the (generous) default [`ExecBudget`].
pub fn execute(db: &Database, q: &VisQuery) -> Result<ResultSet, ExecError> {
    execute_with(db, q, ExecOptions::default()).map(|(rs, _)| rs)
}

/// What one execution actually charged against its [`ExecBudget`] —
/// identical for warm and cold cache runs of the same query (hits replay
/// the cold spend), which the oracle-style parity tests assert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecSpend {
    /// Total fuel (row-visit steps) charged.
    pub fuel_used: u64,
    /// Largest single row-count checked against `max_rows`.
    pub peak_rows: usize,
}

/// How to run one [`execute_with`] call: through an optional
/// [`ExecCache`], under a resource budget. The default is no cache and
/// [`ExecBudget::default`].
#[derive(Debug, Default)]
pub struct ExecOptions<'c> {
    /// Memo to execute through. Output is bit-identical with or without
    /// one; repeated FROM/WHERE/GROUP fragments are computed once.
    pub cache: Option<&'c mut ExecCache>,
    pub budget: ExecBudget,
}

/// Execute a query under `opts`, also reporting the budget spend. The
/// one executor entry point; [`execute`] is its no-cache, default-budget
/// shorthand.
pub fn execute_with(
    db: &Database,
    q: &VisQuery,
    opts: ExecOptions,
) -> Result<(ResultSet, ExecSpend), ExecError> {
    fault_check(q)?;
    let ExecOptions { mut cache, budget } = opts;
    let stats_before = match cache.as_deref_mut() {
        Some(c) => {
            c.bind(db);
            Some(c.stats)
        }
        None => None,
    };
    let mut e = Exec { cache, meter: Meter::new(budget) };
    let rs = e.set(db, &q.query)?;
    let spend = ExecSpend { fuel_used: e.meter.fuel_used, peak_rows: e.meter.peak_rows };
    let stats = stats_before.zip(e.cache.map(|c| c.stats));
    trace_exec(&rs, &e.meter, stats);
    Ok((rs, spend))
}

/// Emit the `data.*` trace counters for one completed execution. A single
/// disarmed-path branch; the cache hit/miss split is partition-dependent
/// under parallel per-worker caches, so those counters live under
/// `data.cache.` and are excluded from cross-thread determinism checks
/// (their per-layer hit+miss sums stay deterministic).
fn trace_exec(rs: &ResultSet, meter: &Meter, stats: Option<(CacheStats, CacheStats)>) {
    if !nv_trace::enabled() {
        return;
    }
    nv_trace::count("data.exec.calls", 1);
    nv_trace::count("data.exec.fuel_used", meter.fuel_used);
    nv_trace::count("data.exec.rows_out", rs.rows.len() as u64);
    nv_trace::count("data.exec.scan_rows", meter.scan_rows);
    nv_trace::gauge_max("data.exec.peak_rows", meter.peak_rows as u64);
    if let Some((before, after)) = stats {
        nv_trace::count("data.cache.scan.hits", after.scan_hits - before.scan_hits);
        nv_trace::count("data.cache.scan.misses", after.scan_misses - before.scan_misses);
        nv_trace::count("data.cache.group.hits", after.group_hits - before.group_hits);
        nv_trace::count("data.cache.group.misses", after.group_misses - before.group_misses);
    }
}

/// The `data.exec` injection point. Keyed on the query's canonical debug
/// form, so the same query fails on every run regardless of caching, thread
/// scheduling, or call order. A single relaxed atomic load when disarmed.
fn fault_check(q: &VisQuery) -> Result<(), ExecError> {
    if nv_fault::armed() && nv_fault::fire("data.exec", nv_fault::key_str(&format!("{:?}", q.query))) {
        return Err(ExecError::Internal("injected fault at data.exec".into()));
    }
    Ok(())
}

/// The execution driver: carries the optional cache and the budget meter
/// through the recursion.
struct Exec<'c> {
    cache: Option<&'c mut ExecCache>,
    meter: Meter,
}

impl Exec<'_> {
    fn set(&mut self, db: &Database, q: &SetQuery) -> Result<ResultSet, ExecError> {
        match q {
            SetQuery::Simple(b) => self.body(db, b),
            SetQuery::Compound { op, left, right } => {
                let l = self.body(db, left)?;
                let r = self.body(db, right)?;
                if l.columns.len() != r.columns.len() {
                    return Err(ExecError::ArityMismatch {
                        left: l.columns.len(),
                        right: r.columns.len(),
                    });
                }
                self.meter.charge((l.rows.len() + r.rows.len()) as u64)?;
                self.meter
                    .check_rows(l.rows.len().saturating_add(r.rows.len()), "set operation")?;
                // Move both row sets into hash sets — set semantics without
                // cloning a single row.
                let lset: HashSet<Vec<Value>> = l.rows.into_iter().collect();
                let rset: HashSet<Vec<Value>> = r.rows.into_iter().collect();
                let mut rows: Vec<Vec<Value>> = match op {
                    SetOp::Intersect => {
                        lset.into_iter().filter(|row| rset.contains(row)).collect()
                    }
                    SetOp::Except => {
                        lset.into_iter().filter(|row| !rset.contains(row)).collect()
                    }
                    SetOp::Union => {
                        let mut u = lset;
                        u.extend(rset);
                        u.into_iter().collect()
                    }
                };
                rows.sort_by(|a, b| cmp_rows(a, b));
                Ok(ResultSet { columns: l.columns, types: l.types, rows })
            }
        }
    }

    /// The one cache protocol. With no `key` (no cache), just `build`. With
    /// a key, a hit counts in `layer`'s stats and [`Meter::replay`]s the
    /// charge its cold build recorded; a miss counts, builds inside a meter
    /// section, and stores the value with that section's charge. Keys are
    /// the canonical debug forms of the memoized fragment.
    fn memo<T>(
        &mut self,
        key: Option<String>,
        layer: Layer<T>,
        what: &str,
        build: impl FnOnce(&mut Self) -> Result<T, ExecError>,
    ) -> Result<Arc<T>, ExecError> {
        let Some(key) = key else { return build(self).map(Arc::new) };
        if let Some(c) = self.cache.as_deref_mut() {
            let (map, hits, misses) = layer(c);
            if let Some(hit) = map.get(&key) {
                *hits += 1;
                let (value, charge) = (Arc::clone(&hit.value), hit.charge);
                self.meter.replay(charge, what)?;
                return Ok(value);
            }
            *misses += 1;
        }
        let mark = self.meter.begin_section();
        let value = Arc::new(build(self)?);
        let charge = self.meter.end_section(mark);
        if let Some(c) = self.cache.as_deref_mut() {
            layer(c).0.insert(key, Cached { value: Arc::clone(&value), charge });
        }
        Ok(value)
    }

    /// Build (or fetch) the joined + WHERE-filtered scan for a body; also
    /// returns its cache key, which the group layer extends.
    fn scan(
        &mut self,
        db: &Database,
        body: &QueryBody,
        where_p: &Option<Predicate>,
    ) -> Result<(Arc<ScanData>, Option<String>), ExecError> {
        let key = self
            .cache
            .is_some()
            .then(|| format!("{:?}|{:?}|{:?}", body.from, body.joins, where_p));
        let layer: Layer<ScanData> =
            |c| (&mut c.scans, &mut c.stats.scan_hits, &mut c.stats.scan_misses);
        let scan = self.memo(key.clone(), layer, "table scan", |e| {
            let rel = build_from(db, body, &mut e.meter)?;
            e.meter.charge(rel.rows.len() as u64)?;
            let where_b = where_p.as_ref().map(|p| bind(p, &|a| row_col(&rel.cols, a)));
            let mut kept: Vec<Vec<Value>> = Vec::with_capacity(rel.rows.len());
            for row in rel.rows.iter() {
                let keep = match &where_b {
                    Some(p) => e.eval_pred(db, p, &|c: &Col| c.clone().map(|i| &row[i]))?,
                    None => true,
                };
                if keep {
                    kept.push(row.clone());
                }
            }
            Ok(ScanData { cols: rel.cols, types: rel.types, rows: kept })
        })?;
        Ok((scan, key))
    }

    /// Build (or fetch) the group partition of a scan under the given keys
    /// and bin spec.
    fn groups(
        &mut self,
        scan: &ScanData,
        scan_key: Option<&str>,
        key_cols: &[ColumnRef],
        bin: &Option<BinSpec>,
    ) -> Result<Arc<Vec<GroupEntry>>, ExecError> {
        let key = scan_key.map(|sk| format!("{sk}#{key_cols:?}|{bin:?}"));
        let layer: Layer<Vec<GroupEntry>> =
            |c| (&mut c.groups, &mut c.stats.group_hits, &mut c.stats.group_misses);
        self.memo(key, layer, "group partition", |e| {
            e.meter.charge(scan.rows.len() as u64)?;
            group_rows(scan, key_cols, bin)
        })
    }

    fn body(&mut self, db: &Database, body: &QueryBody) -> Result<ResultSet, ExecError> {
        let (where_p, having_p) = match &body.filter {
            Some(p) => p.split_where_having(),
            None => (None, None),
        };

        let (scan, scan_key) = self.scan(db, body, &where_p)?;
        self.meter.scan_rows += scan.rows.len() as u64;

        // Grouping plan.
        let explicit_group = body.group.clone().filter(|g| !g.is_empty());
        let has_agg = body.select.iter().any(Attr::is_aggregated) || having_p.is_some();
        let grouped = explicit_group.is_some() || has_agg;

        let sel_cols: Vec<Col> = body
            .select
            .iter()
            .map(|a| col_idx(&scan.cols, &a.col))
            .collect();
        let columns: Vec<String> = body.select.iter().map(attr_display).collect();
        let types: Vec<ColumnType> = body
            .select
            .iter()
            .zip(&sel_cols)
            .map(|(a, c)| attr_out_type(&scan.types, a, c))
            .collect();

        let mut out_rows: Vec<(Vec<Value>, Option<Value>, Option<Value>)> = Vec::new();

        if grouped {
            // Key columns: explicit group-by + bin, or implicit (all bare
            // select columns) when aggregates appear without GROUP BY.
            let (key_cols, bin): (Vec<ColumnRef>, Option<BinSpec>) = match &explicit_group {
                Some(g) => (g.group_by.clone(), g.bin.clone()),
                None => (
                    body.select
                        .iter()
                        .filter(|a| !a.is_aggregated())
                        .map(|a| a.col.clone())
                        .collect(),
                    None,
                ),
            };
            let entries = self.groups(&scan, scan_key.as_deref(), &key_cols, &bin)?;

            // The binned column projects its bin label and grouping keys
            // project the key value; ORDER/TOP read keys but not labels,
            // and HAVING always aggregates over the group's rows.
            let bin_col = bin.as_ref().map(|b| &b.col);
            let sel: Vec<GroupRead> = body
                .select
                .iter()
                .zip(sel_cols)
                .map(|(a, c)| GroupRead::new(a, c, &key_cols, bin_col))
                .collect();
            let order_read =
                |a: &Attr| GroupRead::new(a, col_idx(&scan.cols, &a.col), &key_cols, None);
            let ord = body.order.as_ref().map(|o| order_read(&o.attr));
            let sup = body.superlative.as_ref().map(|s| order_read(&s.attr));
            let having = having_p.as_ref().map(|h| {
                bind(h, &|a| {
                    GroupRead::new(a, col_idx(&scan.cols, &a.col), &[], None)
                })
            });

            for entry in entries.iter() {
                let read = |r: &GroupRead| r.read(&scan, entry);
                if let Some(h) = &having {
                    if !self.eval_pred(db, h, &read)? {
                        continue;
                    }
                }
                let out = sel.iter().map(read).collect::<Result<Vec<Value>, _>>()?;
                let ord_v = ord.as_ref().map(read).transpose()?;
                let sup_v = sup.as_ref().map(read).transpose()?;
                out_rows.push((out, ord_v, sup_v));
            }
        } else {
            let sel_idx: Vec<usize> = sel_cols.into_iter().collect::<Result<_, _>>()?;
            let ord_idx = match &body.order {
                Some(o) => Some(col_idx(&scan.cols, &o.attr.col)?),
                None => None,
            };
            let sup_idx = match &body.superlative {
                Some(s) => Some(col_idx(&scan.cols, &s.attr.col)?),
                None => None,
            };
            self.meter.charge(scan.rows.len() as u64)?;
            for row in &scan.rows {
                let out: Vec<Value> = sel_idx.iter().map(|&i| row[i].clone()).collect();
                out_rows.push((
                    out,
                    ord_idx.map(|i| row[i].clone()),
                    sup_idx.map(|i| row[i].clone()),
                ));
            }
        }

        // Superlative first (it defines its own ordering + limit)…
        if let Some(s) = &body.superlative {
            out_rows.sort_by(|a, b| {
                let av = a.2.as_ref().unwrap_or(&Value::Null);
                let bv = b.2.as_ref().unwrap_or(&Value::Null);
                let c = av.total_cmp(bv);
                match s.dir {
                    SuperDir::Most => c.reverse(),
                    SuperDir::Least => c,
                }
            });
            out_rows.truncate(s.k as usize);
        }
        // …then ORDER BY re-sorts the (possibly truncated) output.
        if let Some(o) = &body.order {
            out_rows.sort_by(|a, b| {
                let av = a.1.as_ref().unwrap_or(&Value::Null);
                let bv = b.1.as_ref().unwrap_or(&Value::Null);
                let c = av.total_cmp(bv);
                match o.dir {
                    OrderDir::Asc => c,
                    OrderDir::Desc => c.reverse(),
                }
            });
        }

        Ok(ResultSet {
            columns,
            types,
            rows: out_rows.into_iter().map(|(r, _, _)| r).collect(),
        })
    }

    /// The values of a bound operand. A subquery's depth is checked on
    /// every use, so the limit trips identically whether its slot is empty
    /// or filled.
    fn arg<'a>(&mut self, db: &Database, arg: &'a Arg<'_>) -> Result<&'a [Value], ExecError> {
        match arg {
            Arg::Values(vals) => Ok(vals),
            Arg::Subquery(q, slot) => {
                self.meter.enter_subquery()?;
                let r = self.subquery(db, q, slot);
                self.meter.exit_subquery();
                r
            }
        }
    }

    /// Run a subquery into its empty slot, keeping its first column and
    /// what the run charged; replay that charge from a filled slot. The
    /// slot counts its subquery's scan rows once, on the run.
    fn subquery<'a>(
        &mut self,
        db: &Database,
        q: &SetQuery,
        slot: &'a OnceCell<(Vec<Value>, Charge)>,
    ) -> Result<&'a [Value], ExecError> {
        if let Some((vals, charge)) = slot.get() {
            self.meter.replay(*charge, "subquery")?;
            return Ok(vals);
        }
        let mark = self.meter.begin_section();
        let rs = self.set(db, q)?;
        let charge = Charge { scan_rows: 0, ..self.meter.end_section(mark) };
        let vals = rs
            .rows
            .into_iter()
            .filter_map(|r| r.into_iter().next())
            .collect();
        Ok(&slot.get_or_init(|| (vals, charge)).0)
    }

    /// Evaluate a bound WHERE or HAVING predicate; `value_of` reads an
    /// attribute (a row's cell for WHERE, a group aggregate for HAVING).
    /// And/Or short-circuit left to right, so operand subqueries — and
    /// their fuel — run in a fixed order.
    fn eval_pred<A, V: Borrow<Value>>(
        &mut self,
        db: &Database,
        p: &Bound<'_, A>,
        value_of: &impl Fn(&A) -> Result<V, ExecError>,
    ) -> Result<bool, ExecError> {
        match p {
            Bound::And(l, r) => {
                Ok(self.eval_pred(db, l, value_of)? && self.eval_pred(db, r, value_of)?)
            }
            Bound::Or(l, r) => {
                Ok(self.eval_pred(db, l, value_of)? || self.eval_pred(db, r, value_of)?)
            }
            Bound::Cmp { op, attr, rhs } => {
                let v = value_of(attr)?;
                let Some(first) = self.arg(db, rhs)?.first() else { return Ok(false) };
                Ok(cmp_values(v.borrow(), first, *op))
            }
            Bound::Between { attr, low, high } => {
                let v = value_of(attr)?;
                let lo = self.arg(db, low)?;
                let hi = self.arg(db, high)?;
                match (lo.first(), hi.first()) {
                    (Some(lo), Some(hi)) => Ok(cmp_values(v.borrow(), lo, CmpOp::Ge)
                        && cmp_values(v.borrow(), hi, CmpOp::Le)),
                    _ => Ok(false),
                }
            }
            Bound::Like { attr, pattern, negated } => {
                let v = value_of(attr)?;
                let v = v.borrow();
                Ok(!v.is_null() && (v.like(pattern) != *negated))
            }
            Bound::In { attr, rhs, negated } => {
                let v = value_of(attr)?;
                let v = v.borrow();
                if v.is_null() {
                    return Ok(false);
                }
                let vals = self.arg(db, rhs)?;
                Ok(vals.iter().any(|x| v.sql_eq(x)) != *negated)
            }
        }
    }
}

/// A column reference resolved against a relation's columns. One that does
/// not resolve keeps its error, which the first read of the column raises.
type Col = Result<usize, ExecError>;

/// A WHERE or HAVING predicate bound once per query body, before its row or
/// group loop. Attributes are read through `A` (a [`Col`] of the row for
/// WHERE, a [`GroupRead`] for HAVING).
enum Bound<'q, A> {
    And(Box<Bound<'q, A>>, Box<Bound<'q, A>>),
    Or(Box<Bound<'q, A>>, Box<Bound<'q, A>>),
    Cmp { op: CmpOp, attr: A, rhs: Arg<'q> },
    Between { attr: A, low: Arg<'q>, high: Arg<'q> },
    Like { attr: A, pattern: &'q str, negated: bool },
    In { attr: A, rhs: Arg<'q>, negated: bool },
}

/// A bound operand: literals converted to values once, or a subquery with
/// its slot. The slot lives at the operand's position in the bound
/// predicate and is empty until the subquery first runs in this execution.
enum Arg<'q> {
    Values(Vec<Value>),
    Subquery(&'q SetQuery, OnceCell<(Vec<Value>, Charge)>),
}

fn bind<'q, A>(p: &'q Predicate, attr: &impl Fn(&Attr) -> A) -> Bound<'q, A> {
    let arg = |o: &'q Operand| match o {
        Operand::Lit(l) => Arg::Values(vec![Value::from_literal(l)]),
        Operand::List(ls) => Arg::Values(ls.iter().map(Value::from_literal).collect()),
        Operand::Subquery(q) => Arg::Subquery(q, OnceCell::new()),
    };
    match p {
        Predicate::And(l, r) => Bound::And(Box::new(bind(l, attr)), Box::new(bind(r, attr))),
        Predicate::Or(l, r) => Bound::Or(Box::new(bind(l, attr)), Box::new(bind(r, attr))),
        Predicate::Cmp { op, attr: a, rhs } => Bound::Cmp { op: *op, attr: attr(a), rhs: arg(rhs) },
        Predicate::Between { attr: a, low, high } => {
            Bound::Between { attr: attr(a), low: arg(low), high: arg(high) }
        }
        Predicate::Like { attr: a, pattern, negated } => {
            Bound::Like { attr: attr(a), pattern, negated: *negated }
        }
        Predicate::In { attr: a, rhs, negated } => {
            Bound::In { attr: attr(a), rhs: arg(rhs), negated: *negated }
        }
    }
}

/// How an attribute reads one group of a grouped scan.
enum GroupRead {
    /// The group's bin label.
    Label,
    /// One of the group's key values.
    Key(usize),
    /// `count(*)`: the group's row count.
    CountRows,
    /// An aggregate (or, unaggregated, the first non-null value) over the
    /// column's cells in the group's rows.
    Agg { agg: AggFunc, distinct: bool, col: Col },
}

impl GroupRead {
    /// Bind `a`, whose column resolved to `col`. A bare attribute equal to
    /// `label` reads the bin label; one among `keys` reads its key value.
    fn new(a: &Attr, col: Col, keys: &[ColumnRef], label: Option<&ColumnRef>) -> GroupRead {
        if a.agg == AggFunc::None {
            if Some(&a.col) == label {
                return GroupRead::Label;
            }
            if let Some(pos) = keys.iter().position(|k| *k == a.col) {
                return GroupRead::Key(pos);
            }
        }
        if a.agg == AggFunc::Count && a.col.is_star() {
            return GroupRead::CountRows;
        }
        GroupRead::Agg { agg: a.agg, distinct: a.distinct, col }
    }

    fn read(&self, scan: &ScanData, entry: &GroupEntry) -> Result<Value, ExecError> {
        Ok(match self {
            GroupRead::Label => entry.label.clone(),
            GroupRead::Key(pos) => entry.key[*pos].clone(),
            GroupRead::CountRows => Value::Int(entry.rows.len() as i64),
            GroupRead::Agg { agg, distinct, col } => {
                let c = col.clone()?;
                agg_over(*agg, *distinct, entry.rows.iter().map(|&i| &scan.rows[i][c]))
            }
        })
    }
}

/// One [`ExecCache`] layer, as [`Exec::memo`] sees it: its map plus its
/// hit and miss counters.
type Layer<T> = fn(&mut ExecCache) -> (&mut HashMap<String, Cached<T>>, &mut u64, &mut u64);

/// Partition a scan's row indices into groups keyed by `key_cols` and the
/// optional bin, sorted by (bin ordinal, key values).
fn group_rows(
    scan: &ScanData,
    key_cols: &[ColumnRef],
    bin: &Option<BinSpec>,
) -> Result<Vec<GroupEntry>, ExecError> {
    let key_idx: Vec<usize> = key_cols
        .iter()
        .map(|c| col_idx(&scan.cols, c))
        .collect::<Result<_, _>>()?;
    let bin_info: Option<(usize, BinUnit, Option<NumericBins>)> = match bin {
        Some(b) => {
            let i = col_idx(&scan.cols, &b.col)?;
            let numeric = match b.unit {
                BinUnit::Numeric { n_bins } => Some(NumericBins::from_values(
                    scan.rows.iter().filter_map(|r| r[i].as_f64()),
                    n_bins,
                )),
                _ => None,
            };
            Some((i, b.unit, numeric))
        }
        None => None,
    };

    // Group row indices by (bin ordinal, key values); each group keeps its
    // bin label.
    type GroupKey = (i64, Vec<Value>);
    let mut map: HashMap<GroupKey, (Value, Vec<usize>)> = HashMap::new();
    for (ri, row) in scan.rows.iter().enumerate() {
        let (ord, label) = match &bin_info {
            Some((i, unit, nb)) => bin_value(&row[*i], *unit, nb.as_ref()),
            None => (0, Value::Null),
        };
        let kv: Vec<Value> = key_idx.iter().map(|&i| row[i].clone()).collect();
        map.entry((ord, kv))
            .or_insert_with(|| (label, Vec::new()))
            .1
            .push(ri);
    }
    // SQL semantics: a global aggregate (no grouping keys) over empty input
    // still yields one row (COUNT(*) = 0, SUM/AVG = NULL).
    if map.is_empty() && key_idx.is_empty() && bin_info.is_none() {
        map.insert((0, vec![]), (Value::Null, vec![]));
    }
    let mut raw: Vec<(GroupKey, (Value, Vec<usize>))> = map.into_iter().collect();
    raw.sort_by(|a, b| a.0 .0.cmp(&b.0 .0).then_with(|| cmp_rows(&a.0 .1, &b.0 .1)));
    Ok(raw
        .into_iter()
        .map(|((_ord, key), (label, rows))| GroupEntry { key, label, rows })
        .collect())
}

fn cmp_rows(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let c = x.total_cmp(y);
        if c != std::cmp::Ordering::Equal {
            return c;
        }
    }
    std::cmp::Ordering::Equal
}

/// Rows of an intermediate relation: borrowed straight from the database's
/// table storage when possible (single-table FROM — the common case), owned
/// only when a join materializes new rows.
enum Rows<'a> {
    Borrowed(&'a [Vec<Value>]),
    Owned(Vec<Vec<Value>>),
}

impl std::ops::Deref for Rows<'_> {
    type Target = [Vec<Value>];
    fn deref(&self) -> &[Vec<Value>] {
        match self {
            Rows::Borrowed(r) => r,
            Rows::Owned(r) => r,
        }
    }
}

/// An intermediate relation with qualified column names.
struct Relation<'a> {
    cols: Vec<String>,
    types: Vec<ColumnType>,
    rows: Rows<'a>,
}

/// Resolve a column reference: exact `table.column` match first, then a
/// unique unqualified match (lenient mode helps score model-predicted
/// trees whose table attribution is off).
fn col_idx(cols: &[String], c: &ColumnRef) -> Result<usize, ExecError> {
    let want = format!("{}.{}", c.table, c.column).to_lowercase();
    if let Some(i) = cols.iter().position(|n| n.to_lowercase() == want) {
        return Ok(i);
    }
    let suffix = format!(".{}", c.column.to_lowercase());
    let matches: Vec<usize> = cols
        .iter()
        .enumerate()
        .filter(|(_, n)| n.to_lowercase().ends_with(&suffix))
        .map(|(i, _)| i)
        .collect();
    match matches.as_slice() {
        [one] => Ok(*one),
        _ => Err(ExecError::UnknownColumn(c.to_token())),
    }
}

fn load_table<'a>(db: &'a Database, name: &str) -> Result<Relation<'a>, ExecError> {
    let t = db
        .table(name)
        .ok_or_else(|| ExecError::UnknownTable(name.to_string()))?;
    Ok(Relation {
        cols: t
            .schema
            .columns
            .iter()
            .map(|c| format!("{}.{}", t.name(), c.name))
            .collect(),
        types: t.schema.columns.iter().map(|c| c.ctype).collect(),
        // Borrow the table's storage — scans never mutate rows.
        rows: Rows::Borrowed(&t.rows),
    })
}

fn build_from<'a>(
    db: &'a Database,
    body: &QueryBody,
    meter: &mut Meter,
) -> Result<Relation<'a>, ExecError> {
    let first = body
        .from
        .first()
        .ok_or_else(|| ExecError::Unsupported("empty FROM".into()))?;
    let mut rel = load_table(db, first)?;
    meter.check_rows(rel.rows.len(), "table scan")?;
    let mut joined: HashSet<String> = HashSet::new();
    joined.insert(first.to_lowercase());

    // Tables introduced by join conditions, in order.
    for (i, table) in body.from.iter().enumerate().skip(1) {
        let right = load_table(db, table)?;
        // Find a join condition connecting the new table to the current
        // relation.
        let cond = body.joins.iter().find(|j| {
            let lt = j.left.table.to_lowercase();
            let rt = j.right.table.to_lowercase();
            (rt == table.to_lowercase() && joined.contains(&lt))
                || (lt == table.to_lowercase() && joined.contains(&rt))
        });
        rel = match cond {
            Some(j) => {
                let (rel_side, new_side) =
                    if j.right.table.eq_ignore_ascii_case(table) { (&j.left, &j.right) } else { (&j.right, &j.left) };
                hash_join(rel, right, rel_side, new_side, meter)?
            }
            None if body.joins.is_empty() => cross_join(rel, right, meter)?,
            None => {
                return Err(ExecError::Unsupported(format!(
                    "no join condition connects table '{table}' (position {i})"
                )))
            }
        };
        joined.insert(table.to_lowercase());
    }
    Ok(rel)
}

fn cross_join<'a>(
    l: Relation<'a>,
    r: Relation<'a>,
    meter: &mut Meter,
) -> Result<Relation<'a>, ExecError> {
    // Check the product size before allocating anything: an unconstrained
    // cross join is the classic memory bomb.
    let product = l.rows.len().saturating_mul(r.rows.len());
    meter.check_rows(product, "cross join")?;
    meter.charge(product as u64)?;
    let mut cols = l.cols;
    cols.extend(r.cols);
    let mut types = l.types;
    types.extend(r.types);
    let mut rows = Vec::with_capacity(product);
    for lr in l.rows.iter() {
        for rr in r.rows.iter() {
            let mut row = lr.clone();
            row.extend(rr.iter().cloned());
            rows.push(row);
        }
    }
    Ok(Relation { cols, types, rows: Rows::Owned(rows) })
}

fn hash_join<'a>(
    l: Relation<'a>,
    r: Relation<'a>,
    lkey: &ColumnRef,
    rkey: &ColumnRef,
    meter: &mut Meter,
) -> Result<Relation<'a>, ExecError> {
    let li = col_idx(&l.cols, lkey)?;
    let ri = col_idx(&r.cols, rkey)?;
    meter.charge((l.rows.len() + r.rows.len()) as u64)?;
    let mut index: HashMap<&Value, Vec<usize>> = HashMap::new();
    for (i, row) in r.rows.iter().enumerate() {
        if !row[ri].is_null() {
            index.entry(&row[ri]).or_default().push(i);
        }
    }
    let mut rows = Vec::new();
    for lr in l.rows.iter() {
        if let Some(matches) = index.get(&lr[li]) {
            meter.check_rows(rows.len().saturating_add(matches.len()), "hash join")?;
            for &m in matches {
                let mut row = lr.clone();
                row.extend(r.rows[m].iter().cloned());
                rows.push(row);
            }
        }
    }
    drop(index);
    let mut cols = l.cols;
    cols.extend(r.cols);
    let mut types = l.types;
    types.extend(r.types);
    Ok(Relation { cols, types, rows: Rows::Owned(rows) })
}

fn cmp_values(a: &Value, b: &Value, op: CmpOp) -> bool {
    use std::cmp::Ordering::*;
    match a.sql_cmp(b) {
        None => false,
        Some(ord) => match op {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        },
    }
}

/// Bind a WHERE attribute to its column in the relation's rows.
fn row_col(cols: &[String], attr: &Attr) -> Col {
    if attr.is_aggregated() {
        return Err(ExecError::Unsupported(
            "aggregate in row-level predicate (belongs to HAVING)".into(),
        ));
    }
    col_idx(cols, &attr.col)
}

/// Binning context for numeric columns: equal-width buckets,
/// `bin_size = ceil((max - min) / n_bins)` (paper §2.3, default 10 bins).
struct NumericBins {
    min: f64,
    size: f64,
    /// Ordinal of the last bin. The top edge is inclusive: a value equal to
    /// the column maximum belongs to the last bin, not a one-past-the-end
    /// overflow bin (which `floor` alone produces when the range divides
    /// the bin size exactly).
    last: i64,
}

impl NumericBins {
    fn from_values(vals: impl Iterator<Item = f64>, n_bins: u32) -> NumericBins {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in vals {
            min = min.min(v);
            max = max.max(v);
        }
        if !min.is_finite() || !max.is_finite() {
            return NumericBins { min: 0.0, size: 1.0, last: 0 };
        }
        let size = ((max - min) / f64::from(n_bins)).ceil().max(1.0);
        let last = (((max - min) / size).ceil() as i64 - 1).max(0);
        NumericBins { min, size, last }
    }

    fn bucket(&self, v: f64) -> (i64, Value) {
        let idx = (((v - self.min) / self.size).floor() as i64).min(self.last);
        let lo = self.min + idx as f64 * self.size;
        let hi = lo + self.size;
        let label = format!("{}-{}", trim_f(lo), trim_f(hi));
        (idx, Value::Text(label))
    }
}

fn trim_f(f: f64) -> String {
    if f.fract() == 0.0 && f.abs() < 1e15 {
        format!("{}", f as i64)
    } else {
        format!("{f:.2}")
    }
}

/// Compute the (ordinal, label) of a value under a bin unit.
fn bin_value(v: &Value, unit: BinUnit, num: Option<&NumericBins>) -> (i64, Value) {
    if v.is_null() {
        return (i64::MIN, Value::Null);
    }
    match unit {
        BinUnit::Numeric { .. } => match (v.as_f64(), num) {
            (Some(f), Some(nb)) => nb.bucket(f),
            _ => (i64::MIN, Value::Null),
        },
        temporal => match v.as_time() {
            None => (i64::MIN, Value::Null),
            Some(t) => match temporal {
                BinUnit::Minute => (i64::from(t.minute), Value::Int(i64::from(t.minute))),
                BinUnit::Hour => (i64::from(t.hour), Value::Int(i64::from(t.hour))),
                BinUnit::Weekday => {
                    (i64::from(t.weekday()), Value::text(t.weekday_name()))
                }
                BinUnit::Month => (i64::from(t.month), Value::text(t.month_name())),
                BinUnit::Quarter => {
                    (i64::from(t.quarter()), Value::text(format!("Q{}", t.quarter())))
                }
                BinUnit::Year => (i64::from(t.year), Value::Int(i64::from(t.year))),
                BinUnit::Numeric { .. } => unreachable!(),
            },
        },
    }
}

fn agg_over<'v>(agg: AggFunc, distinct: bool, vals: impl Iterator<Item = &'v Value>) -> Value {
    let nonnull: Vec<&Value> = vals.filter(|v| !v.is_null()).collect();
    let pool: Vec<&Value> = if distinct {
        let mut seen = HashSet::new();
        nonnull.into_iter().filter(|v| seen.insert(*v)).collect()
    } else {
        nonnull
    };
    match agg {
        AggFunc::Count => Value::Int(pool.len() as i64),
        AggFunc::Max => pool
            .iter()
            .cloned()
            .max_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(Value::Null),
        AggFunc::Min => pool
            .iter()
            .cloned()
            .min_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(Value::Null),
        AggFunc::Sum => {
            let mut s = 0.0;
            let mut any = false;
            let mut all_int = true;
            for v in &pool {
                if let Some(f) = v.as_f64() {
                    s += f;
                    any = true;
                    all_int &= matches!(v, Value::Int(_) | Value::Bool(_));
                }
            }
            if !any {
                Value::Null
            } else if all_int {
                Value::Int(s as i64)
            } else {
                Value::Float(s)
            }
        }
        AggFunc::Avg => {
            let nums: Vec<f64> = pool.iter().filter_map(|v| v.as_f64()).collect();
            if nums.is_empty() {
                Value::Null
            } else {
                Value::Float(nums.iter().sum::<f64>() / nums.len() as f64)
            }
        }
        AggFunc::None => pool.first().cloned().cloned().unwrap_or(Value::Null),
    }
}

fn attr_display(a: &Attr) -> String {
    if a.agg == AggFunc::None {
        a.col.to_token()
    } else if a.distinct {
        format!("{}(distinct {})", a.agg.keyword(), a.col.to_token())
    } else {
        format!("{}({})", a.agg.keyword(), a.col.to_token())
    }
}

/// The output type of select attribute `a`, whose column resolved to `col`.
fn attr_out_type(types: &[ColumnType], a: &Attr, col: &Col) -> ColumnType {
    match a.agg {
        AggFunc::Count | AggFunc::Sum | AggFunc::Avg => ColumnType::Quantitative,
        AggFunc::Max | AggFunc::Min | AggFunc::None => match col {
            Ok(i) if !a.col.is_star() => types[*i],
            _ => ColumnType::Categorical,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{table_from, Database};
    use crate::value::Timestamp;
    use nv_ast::tokens::parse_vql_str;

    fn cached(cache: &mut ExecCache) -> ExecOptions<'_> {
        ExecOptions { cache: Some(cache), ..ExecOptions::default() }
    }

    fn budgeted(budget: ExecBudget) -> ExecOptions<'static> {
        ExecOptions { cache: None, budget }
    }

    fn db() -> Database {
        let mut db = Database::new("flights", "Flight");
        db.add_table(table_from(
            "flight",
            &[
                ("fno", ColumnType::Quantitative),
                ("destination", ColumnType::Categorical),
                ("price", ColumnType::Quantitative),
                ("src", ColumnType::Quantitative),
                ("departure", ColumnType::Temporal),
            ],
            vec![
                vec![
                    Value::Int(1),
                    Value::text("LA"),
                    Value::Int(300),
                    Value::Int(10),
                    Value::Time(Timestamp::date(2020, 1, 5)),
                ],
                vec![
                    Value::Int(2),
                    Value::text("LA"),
                    Value::Int(450),
                    Value::Int(10),
                    Value::Time(Timestamp::date(2020, 2, 7)),
                ],
                vec![
                    Value::Int(3),
                    Value::text("NY"),
                    Value::Int(200),
                    Value::Int(11),
                    Value::Time(Timestamp::date(2021, 2, 1)),
                ],
                vec![
                    Value::Int(4),
                    Value::text("NY"),
                    Value::Int(700),
                    Value::Int(12),
                    Value::Time(Timestamp::date(2021, 7, 4)),
                ],
                vec![
                    Value::Int(5),
                    Value::text("SF"),
                    Value::Int(120),
                    Value::Int(10),
                    Value::Time(Timestamp::date(2020, 1, 20)),
                ],
            ],
        ));
        db.add_table(table_from(
            "airport",
            &[
                ("id", ColumnType::Quantitative),
                ("name", ColumnType::Categorical),
                ("city", ColumnType::Categorical),
            ],
            vec![
                vec![Value::Int(10), Value::text("Alpha Intl"), Value::text("Austin")],
                vec![Value::Int(11), Value::text("Beta Field"), Value::text("Boston")],
                vec![Value::Int(12), Value::text("Gamma Intl"), Value::text("Chicago")],
            ],
        ));
        db.add_foreign_key("flight", "src", "airport", "id");
        db
    }

    fn run(vql: &str) -> ResultSet {
        execute(&db(), &parse_vql_str(vql).unwrap()).unwrap()
    }

    #[test]
    fn simple_projection() {
        let rs = run("select flight.destination , flight.price from flight");
        assert_eq!(rs.columns, vec!["flight.destination", "flight.price"]);
        assert_eq!(rs.rows.len(), 5);
    }

    #[test]
    fn where_filter_and_like() {
        let rs = run("select flight.fno from flight where flight.price > 250");
        assert_eq!(rs.rows.len(), 3);
        let rs = run(
            "select airport.name from airport where airport.name like '%intl'",
        );
        assert_eq!(rs.rows.len(), 2);
        let rs = run(
            "select airport.name from airport where airport.name not like '%intl'",
        );
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn group_count() {
        let rs = run(
            "select flight.destination , count ( flight.* ) from flight \
             group by flight.destination",
        );
        assert_eq!(rs.rows.len(), 3);
        let la = rs
            .rows
            .iter()
            .find(|r| r[0] == Value::text("LA"))
            .unwrap();
        assert_eq!(la[1], Value::Int(2));
        assert_eq!(rs.types[1], ColumnType::Quantitative);
    }

    #[test]
    fn aggregates() {
        let rs = run("select avg ( flight.price ) , sum ( flight.price ) , max ( flight.price ) , min ( flight.price ) from flight");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Float(354.0));
        assert_eq!(rs.rows[0][1], Value::Int(1770));
        assert_eq!(rs.rows[0][2], Value::Int(700));
        assert_eq!(rs.rows[0][3], Value::Int(120));
    }

    #[test]
    fn count_distinct() {
        let rs = run("select count ( distinct flight.destination ) from flight");
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn join_with_filter() {
        let rs = run(
            "select airport.city , count ( flight.* ) from flight \
             join airport on flight.src = airport.id \
             where flight.price >= 200 group by airport.city",
        );
        // Austin: flights 1,2 (300,450); Boston: flight 3 (200); Chicago: 4 (700).
        assert_eq!(rs.rows.len(), 3);
        let austin = rs.rows.iter().find(|r| r[0] == Value::text("Austin")).unwrap();
        assert_eq!(austin[1], Value::Int(2));
    }

    #[test]
    fn having_via_aggregated_filter() {
        let rs = run(
            "select flight.destination , count ( flight.* ) from flight \
             where count ( flight.* ) >= 2 group by flight.destination",
        );
        assert_eq!(rs.rows.len(), 2); // LA and NY
    }

    #[test]
    fn mixed_where_and_having() {
        let rs = run(
            "select flight.destination , count ( flight.* ) from flight \
             where ( flight.price > 150 and count ( flight.* ) >= 2 ) \
             group by flight.destination",
        );
        // price>150 leaves LA:2, NY:2 → both pass having.
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn order_by_and_superlative() {
        let rs = run(
            "select flight.destination , count ( flight.* ) from flight \
             group by flight.destination order by count ( flight.* ) desc",
        );
        assert_eq!(rs.rows[0][1], Value::Int(2));
        let rs = run(
            "select flight.fno , flight.price from flight top 2 by flight.price",
        );
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][1], Value::Int(700));
        let rs = run(
            "select flight.fno , flight.price from flight bottom 1 by flight.price",
        );
        assert_eq!(rs.rows[0][1], Value::Int(120));
    }

    #[test]
    fn bin_by_year() {
        let rs = run(
            "select flight.departure , count ( flight.* ) from flight \
             bin flight.departure by year",
        );
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Int(2020));
        assert_eq!(rs.rows[0][1], Value::Int(3));
        assert_eq!(rs.rows[1][0], Value::Int(2021));
    }

    #[test]
    fn bin_by_month_and_weekday_labels() {
        let rs = run(
            "select flight.departure , count ( flight.* ) from flight \
             bin flight.departure by month",
        );
        // Months: Jan(2), Feb(2), Jul(1) — ordered by month ordinal.
        assert_eq!(rs.rows[0][0], Value::text("January"));
        assert_eq!(rs.rows[1][0], Value::text("February"));
        assert_eq!(rs.rows[2][0], Value::text("July"));
        let rs = run(
            "select flight.departure , count ( flight.* ) from flight \
             bin flight.departure by quarter",
        );
        assert_eq!(rs.rows[0][0], Value::text("Q1"));
    }

    #[test]
    fn numeric_binning() {
        let rs = run(
            "select flight.price , count ( flight.* ) from flight \
             bin flight.price by bucket_10",
        );
        // price range 120..700, size = ceil(580/10)=58.
        assert!(rs.rows.len() >= 3);
        let total: i64 = rs
            .rows
            .iter()
            .map(|r| if let Value::Int(n) = r[1] { n } else { 0 })
            .sum();
        assert_eq!(total, 5);
        assert!(matches!(&rs.rows[0][0], Value::Text(s) if s.contains('-')));
    }

    /// Regression: a value exactly on the configured bin maximum must land
    /// in the last bin, not a one-past-the-end overflow bin. Price range is
    /// 120..700 with size 58, so 580/58 = 10 exactly — the max used to get
    /// ordinal 10 and a spurious "700-758" bin.
    #[test]
    fn numeric_bin_maximum_lands_in_last_bin() {
        let rs = run(
            "select flight.price , count ( flight.* ) from flight \
             bin flight.price by bucket_10",
        );
        let labels: Vec<&str> = rs
            .rows
            .iter()
            .map(|r| match &r[0] {
                Value::Text(s) => s.as_str(),
                other => panic!("bin label should be text, got {other:?}"),
            })
            .collect();
        assert!(
            labels.contains(&"642-700"),
            "max price 700 should fall in the closing 642-700 bin: {labels:?}"
        );
        assert!(
            !labels.iter().any(|l| l.starts_with("700-")),
            "no overflow bin may start at the maximum: {labels:?}"
        );
        // Every bin stays within the observed [min, max] span.
        for l in &labels {
            let (lo, hi) = l.split_once('-').unwrap();
            assert!(lo.parse::<f64>().unwrap() >= 120.0, "{l}");
            assert!(hi.parse::<f64>().unwrap() <= 700.0, "{l}");
        }
    }

    #[test]
    fn set_ops() {
        let union = run(
            "select flight.destination from flight where flight.price > 400 \
             union select flight.destination from flight where flight.price < 150",
        );
        // >400: LA, NY; <150: SF → 3 distinct.
        assert_eq!(union.rows.len(), 3);
        let inter = run(
            "select flight.destination from flight where flight.price > 250 \
             intersect select flight.destination from flight where flight.price < 250",
        );
        // >250: LA,NY; <250: NY,SF → NY.
        assert_eq!(inter.rows.len(), 1);
        assert_eq!(inter.rows[0][0], Value::text("NY"));
        let exc = run(
            "select flight.destination from flight \
             except select flight.destination from flight where flight.price > 250",
        );
        assert_eq!(exc.rows.len(), 1);
        assert_eq!(exc.rows[0][0], Value::text("SF"));
    }

    #[test]
    fn subquery_in_and_scalar() {
        let rs = run(
            "select flight.fno from flight where flight.src in \
             ( select airport.id from airport where airport.city = 'Austin' )",
        );
        assert_eq!(rs.rows.len(), 3);
        let rs = run(
            "select flight.fno from flight where flight.price > \
             ( select avg ( flight.price ) from flight )",
        );
        assert_eq!(rs.rows.len(), 2); // 450 and 700 > 354
    }

    #[test]
    fn in_list_and_between() {
        let rs = run(
            "select flight.fno from flight where flight.destination in ( 'LA' , 'SF' )",
        );
        assert_eq!(rs.rows.len(), 3);
        let rs = run(
            "select flight.fno from flight where flight.destination not in ( 'LA' , 'SF' )",
        );
        assert_eq!(rs.rows.len(), 2);
        let rs = run(
            "select flight.fno from flight where flight.price between 200 and 450",
        );
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn temporal_comparison_with_text_literal() {
        let rs = run(
            "select flight.fno from flight where flight.departure >= '2021-01-01'",
        );
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn result_data_eq_is_order_insensitive() {
        let a = run(
            "select flight.destination , count ( flight.* ) from flight \
             group by flight.destination order by count ( flight.* ) desc",
        );
        let b = run(
            "select flight.destination , count ( flight.* ) from flight \
             group by flight.destination order by flight.destination asc",
        );
        assert!(a.data_eq(&b));
        let c = run("select flight.destination from flight group by flight.destination");
        assert!(!a.data_eq(&c));
    }

    #[test]
    fn data_eq_float_int_tolerant() {
        let a = ResultSet {
            columns: vec!["x".into()],
            types: vec![ColumnType::Quantitative],
            rows: vec![vec![Value::Int(3)]],
        };
        let b = ResultSet {
            columns: vec!["x".into()],
            types: vec![ColumnType::Quantitative],
            rows: vec![vec![Value::Float(3.0)]],
        };
        assert!(a.data_eq(&b));
    }

    #[test]
    fn errors() {
        let e = execute(&db(), &parse_vql_str("select ghost.a from ghost").unwrap());
        assert!(matches!(e, Err(ExecError::UnknownTable(_))));
        let e = execute(&db(), &parse_vql_str("select flight.ghost from flight").unwrap());
        assert!(matches!(e, Err(ExecError::UnknownColumn(_))));
        let e = execute(
            &db(),
            &parse_vql_str("select flight.fno from flight union select airport.id , airport.name from airport").unwrap(),
        );
        assert!(matches!(e, Err(ExecError::ArityMismatch { .. })));
        assert!(ExecError::UnknownTable("x".into()).to_string().contains("x"));
    }

    #[test]
    fn lenient_column_resolution() {
        // "f.price" resolves because only one table has a 'price' column.
        let rs = run("select flight.fno from flight where f.price > 600");
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn implicit_group_by_bare_columns() {
        // Aggregate + bare column without GROUP BY: implicit grouping.
        let rs = run("select flight.destination , count ( flight.* ) from flight");
        assert_eq!(rs.rows.len(), 3);
    }

    // ---- cache behaviour -------------------------------------------------

    /// Every grammar feature exercised above, executed with and without a
    /// cache: results must be identical, both on a cold and a warm cache.
    #[test]
    fn cached_execution_matches_uncached() {
        let db = db();
        let queries = [
            "select flight.destination , flight.price from flight",
            "select flight.fno from flight where flight.price > 250",
            "select flight.destination , count ( flight.* ) from flight \
             group by flight.destination",
            "select avg ( flight.price ) , sum ( flight.price ) from flight",
            "select airport.city , count ( flight.* ) from flight \
             join airport on flight.src = airport.id \
             where flight.price >= 200 group by airport.city",
            "select flight.destination , count ( flight.* ) from flight \
             where count ( flight.* ) >= 2 group by flight.destination",
            "select flight.departure , count ( flight.* ) from flight \
             bin flight.departure by month",
            "select flight.price , count ( flight.* ) from flight \
             bin flight.price by bucket_10",
            "select flight.destination from flight where flight.price > 250 \
             intersect select flight.destination from flight where flight.price < 250",
            "select flight.fno from flight where flight.price > \
             ( select avg ( flight.price ) from flight )",
            "select flight.destination , count ( flight.* ) from flight \
             group by flight.destination order by count ( flight.* ) desc",
            "select flight.fno , flight.price from flight top 2 by flight.price",
        ];
        let mut cache = ExecCache::new();
        for vql in queries {
            let q = parse_vql_str(vql).unwrap();
            let plain = execute(&db, &q).unwrap();
            let (cold, _) = execute_with(&db, &q, cached(&mut cache)).unwrap();
            assert_eq!(plain, cold, "cold-cache mismatch on {vql}");
            let (warm, _) = execute_with(&db, &q, cached(&mut cache)).unwrap();
            assert_eq!(plain, warm, "warm-cache mismatch on {vql}");
        }
        assert!(cache.stats.scan_hits > 0, "warm runs must hit the scan cache");
        assert!(cache.stats.group_hits > 0, "warm runs must hit the group cache");
        assert!(!cache.is_empty());
    }

    /// Candidates sharing a FROM/WHERE fragment reuse one scan even when
    /// their projections and groupings differ.
    #[test]
    fn scan_cache_shared_across_projections() {
        let db = db();
        let mut cache = ExecCache::new();
        let variants = [
            "select flight.destination from flight where flight.price > 150",
            "select flight.fno , flight.price from flight where flight.price > 150",
            "select flight.destination , count ( flight.* ) from flight \
             where flight.price > 150 group by flight.destination",
            "select flight.destination , avg ( flight.price ) from flight \
             where flight.price > 150 group by flight.destination",
        ];
        for vql in variants {
            let q = parse_vql_str(vql).unwrap();
            execute_with(&db, &q, cached(&mut cache)).unwrap();
        }
        // One unique (FROM, WHERE) fragment → one scan miss, three hits.
        assert_eq!(cache.stats.scan_misses, 1);
        assert_eq!(cache.stats.scan_hits, 3);
        // The two grouped variants share one group partition.
        assert_eq!(cache.stats.group_misses, 1);
        assert_eq!(cache.stats.group_hits, 1);
    }

    /// One cache driven A → B → A: each execution equals uncached
    /// `execute`, and after every switch the memo holds only the current
    /// database's entries. B reuses A's table name with other rows, so a
    /// scan served across the switch would show in the results.
    #[test]
    fn cache_follows_database_switches() {
        let a = db();
        let mut b = Database::new("other", "Other");
        b.add_table(table_from(
            "flight",
            &[("fno", ColumnType::Quantitative), ("price", ColumnType::Quantitative)],
            vec![
                vec![Value::Int(7), Value::Float(90.0)],
                vec![Value::Int(8), Value::Float(310.0)],
            ],
        ));
        let queries: Vec<VisQuery> = [
            "select flight.fno from flight",
            "select flight.fno from flight where flight.price > 200",
            "select flight.price , count ( flight.* ) from flight group by flight.price",
        ]
        .iter()
        .map(|v| parse_vql_str(v).unwrap())
        .collect();
        // The entries one run of the queries leaves in an empty cache.
        let entries = |d: &Database| {
            let mut fresh = ExecCache::new();
            for q in &queries {
                execute_with(d, q, cached(&mut fresh)).unwrap();
            }
            fresh.len()
        };
        let mut cache = ExecCache::new();
        for d in [&a, &b, &a] {
            for q in &queries {
                let (got, _) = execute_with(d, q, cached(&mut cache)).unwrap();
                assert_eq!(got, execute(d, q).unwrap(), "{} on {}", q.to_vql(), d.name);
            }
            assert_eq!(cache.len(), entries(d), "after switching to {}", d.name);
        }
        assert_ne!(entries(&a), 0);
    }

    // ---- resource budgets ------------------------------------------------

    fn assert_exhausted<T: std::fmt::Debug>(r: Result<T, ExecError>, needle: &str) {
        match r {
            Err(ExecError::ResourceExhausted(m)) => {
                assert!(m.contains(needle), "message '{m}' lacks '{needle}'")
            }
            other => panic!("expected ResourceExhausted({needle}), got {other:?}"),
        }
    }

    #[test]
    fn row_limit_trips_on_scan() {
        let q = parse_vql_str("select flight.fno from flight").unwrap();
        let budget = ExecBudget { max_rows: 3, ..ExecBudget::default() };
        // The flight table has 5 rows; a 3-row ceiling must refuse the scan.
        assert_exhausted(execute_with(&db(), &q, budgeted(budget)), "rows");
    }

    #[test]
    fn row_limit_trips_on_join_before_materializing() {
        // Self-join on destination: LA×LA(4) + NY×NY(4) + SF×SF(1) = 9 rows.
        let q = parse_vql_str(
            "select flight.fno from flight join flight on flight.destination = flight.destination",
        )
        .unwrap();
        let budget = ExecBudget { max_rows: 6, ..ExecBudget::default() };
        assert_exhausted(execute_with(&db(), &q, budgeted(budget)), "rows");
    }

    #[test]
    fn subquery_depth_limit_trips() {
        let q = parse_vql_str(
            "select flight.fno from flight where flight.price > \
             ( select avg ( flight.price ) from flight where flight.price > \
             ( select min ( flight.price ) from flight ) )",
        )
        .unwrap();
        let shallow = ExecBudget { max_subquery_depth: 1, ..ExecBudget::default() };
        assert_exhausted(execute_with(&db(), &q, budgeted(shallow)), "depth");
        // Depth 2 is exactly enough.
        let deep = ExecBudget { max_subquery_depth: 2, ..ExecBudget::default() };
        assert_eq!(execute_with(&db(), &q, budgeted(deep)).unwrap().0.rows.len(), 2);
        // The limit trips identically through a cache, warm or cold.
        let mut cache = ExecCache::new();
        for _ in 0..2 {
            let opts = ExecOptions { cache: Some(&mut cache), budget: shallow };
            assert_exhausted(execute_with(&db(), &q, opts), "depth");
        }
    }

    #[test]
    fn fuel_limit_trips() {
        let q = parse_vql_str(
            "select flight.destination , count ( flight.* ) from flight \
             group by flight.destination",
        )
        .unwrap();
        let budget = ExecBudget { fuel: 3, ..ExecBudget::default() };
        assert_exhausted(execute_with(&db(), &q, budgeted(budget)), "fuel");
    }

    #[test]
    fn default_budget_is_invisible() {
        let q = parse_vql_str(
            "select airport.city , count ( flight.* ) from flight \
             join airport on flight.src = airport.id group by airport.city",
        )
        .unwrap();
        let defaulted = execute_with(&db(), &q, budgeted(ExecBudget::default())).unwrap();
        let unlimited = execute_with(&db(), &q, budgeted(ExecBudget::unlimited())).unwrap();
        assert_eq!(defaulted, unlimited);
    }

    /// Oracle-style budget-accounting parity: for every grammar feature,
    /// plain, cache-cold, and cache-warm executions must report the exact
    /// same [`ExecSpend`] — hits replay the spend of their construction.
    #[test]
    fn warm_and_cold_cache_spend_identical_budget() {
        let db = db();
        let queries = [
            "select flight.destination , flight.price from flight",
            "select flight.fno from flight where flight.price > 250",
            "select flight.destination , count ( flight.* ) from flight \
             group by flight.destination",
            "select airport.city , count ( flight.* ) from flight \
             join airport on flight.src = airport.id \
             where flight.price >= 200 group by airport.city",
            "select flight.price , count ( flight.* ) from flight \
             bin flight.price by bucket_10",
            "select flight.destination from flight where flight.price > 250 \
             intersect select flight.destination from flight where flight.price < 250",
            "select flight.fno from flight where flight.price > \
             ( select avg ( flight.price ) from flight )",
            "select flight.fno , flight.price from flight top 2 by flight.price",
        ];
        let mut cache = ExecCache::new();
        for vql in queries {
            let q = parse_vql_str(vql).unwrap();
            let (_, plain) = execute_with(&db, &q, ExecOptions::default()).unwrap();
            let (_, cold) = execute_with(&db, &q, cached(&mut cache)).unwrap();
            let (_, warm) = execute_with(&db, &q, cached(&mut cache)).unwrap();
            assert_eq!(plain, cold, "cold-cache spend diverged on {vql}");
            assert_eq!(plain, warm, "warm-cache spend diverged on {vql}");
        }
        assert!(cache.stats.scan_hits > 0, "parity must be proven on real cache hits");
    }

    /// A fuel limit that trips cold must trip warm too, and exactly-enough
    /// fuel must succeed warm with the same reported spend.
    #[test]
    fn fuel_limit_trips_identically_warm_and_cold() {
        let db = db();
        let q = parse_vql_str(
            "select flight.destination , count ( flight.* ) from flight \
             where flight.price > ( select avg ( flight.price ) from flight ) \
             group by flight.destination",
        )
        .unwrap();
        let (_, spend) = execute_with(&db, &q, budgeted(ExecBudget::unlimited())).unwrap();
        assert!(spend.fuel_used > 1);
        let enough = ExecBudget { fuel: spend.fuel_used, ..ExecBudget::default() };
        let short = ExecBudget { fuel: spend.fuel_used - 1, ..ExecBudget::default() };

        let mut cache = ExecCache::new();
        let r = execute_with(&db, &q, ExecOptions { cache: Some(&mut cache), budget: short });
        assert_exhausted(r, "fuel");

        let mut cache = ExecCache::new();
        execute_with(&db, &q, ExecOptions { cache: Some(&mut cache), budget: enough }).unwrap();
        // Warm hit: previously the cached scan skipped its charges and
        // slipped under the limit; it must trip exactly like the cold run.
        let r = execute_with(&db, &q, ExecOptions { cache: Some(&mut cache), budget: short });
        assert_exhausted(r, "fuel");
        let (_, warm) =
            execute_with(&db, &q, ExecOptions { cache: Some(&mut cache), budget: enough }).unwrap();
        assert_eq!(warm, spend);
    }
    /// A subquery runs once per execution, so an uncached `in ( select … )`
    /// over 5 flights and 3 airports (every flight's `src` is an airport)
    /// scans 5 + 3 rows, not 5 + 5 × 3; a cold and a warm cache count the
    /// same.
    #[test]
    fn subquery_scans_count_once_per_execution() {
        let db = db();
        let q = parse_vql_str(
            "select flight.fno from flight where flight.src in ( select airport.id from airport )",
        )
        .unwrap();
        let scan_rows = |cache: Option<&mut ExecCache>| {
            let mut e = Exec { cache, meter: Meter::new(ExecBudget::default()) };
            e.set(&db, &q.query).unwrap();
            e.meter.scan_rows
        };
        assert_eq!(scan_rows(None), 5 + 3);
        let mut cache = ExecCache::new();
        assert_eq!(scan_rows(Some(&mut cache)), 5 + 3, "cold cache");
        assert_eq!(scan_rows(Some(&mut cache)), 5 + 3, "warm cache");
    }

    /// A budget that runs out while the second row replays its filled
    /// subquery slot fails with the same error uncached, cold and warm.
    #[test]
    fn fuel_trips_in_a_later_rows_subquery_replay() {
        let db = db();
        let q = parse_vql_str(
            "select flight.fno from flight where flight.price > \
             ( select avg ( flight.price ) from flight )",
        )
        .unwrap();
        let sub = parse_vql_str("select avg ( flight.price ) from flight").unwrap();
        let sub_fuel =
            execute_with(&db, &sub, budgeted(ExecBudget::unlimited())).unwrap().1.fuel_used;
        // The 5-row outer scan and the first row's subquery run fit; the
        // second row's replay does not.
        let fuel = 5 + sub_fuel + sub_fuel / 2;
        let budget = ExecBudget { fuel, ..ExecBudget::default() };
        let want =
            Err(ExecError::ResourceExhausted(format!("fuel limit of {fuel} steps exceeded")));
        let outcome = |opts| execute_with(&db, &q, opts).map(|_| ());

        assert_eq!(outcome(budgeted(budget)), want, "uncached");
        let mut cache = ExecCache::new();
        assert_eq!(outcome(ExecOptions { cache: Some(&mut cache), budget }), want, "cold");
        let mut cache = ExecCache::new();
        execute_with(&db, &q, cached(&mut cache)).unwrap();
        assert_eq!(outcome(ExecOptions { cache: Some(&mut cache), budget }), want, "warm");
    }
}
