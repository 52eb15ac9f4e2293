//! The differential runner: generated (database, query) cases executed by
//! the reference interpreter and by the production executor
//! ([`nv_data::execute_with`]) without a cache and through one (cold and
//! warm), compared under order-insensitive multiset equality, with failures
//! shrunk to minimal counterexamples.

use crate::gen;
use crate::interp::oracle_execute;
use nv_ast::{Operand, Predicate, SetQuery, VisQuery};
use nv_data::{Database, ExecCache, ExecError, ExecOptions, ResultSet};

/// Configuration for one differential batch.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Batch seed; `case i` is `gen::gen_case(seed, i)`.
    pub seed: u64,
    /// Number of generated databases (each runs
    /// [`QUERIES_PER_CASE`](crate::gen::QUERIES_PER_CASE) queries through
    /// three engine paths).
    pub cases: usize,
    /// Shrink the first divergence to a minimal counterexample before
    /// reporting (costs extra executions on failure only).
    pub shrink: bool,
}

impl DiffConfig {
    pub fn new(seed: u64, cases: usize) -> DiffConfig {
        DiffConfig { seed, cases, shrink: true }
    }
}

/// How one (query, engine) execution compared against the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Both succeeded with the same result multiset.
    Agreed,
    /// Both failed with the same error kind.
    AgreedError,
    /// The engine hit an armed fault-injection site (`nv_fault`); not a
    /// divergence — the oracle deliberately has no fault hooks.
    InjectedFault,
    /// Anything else: different results, different error kinds, or one side
    /// erroring while the other succeeded.
    Diverged,
}

/// One shrunk divergence, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub seed: u64,
    pub case: usize,
    pub query_index: usize,
    /// Which engine path disagreed (`execute`, `cache-cold`, `cache-warm`).
    pub engine: &'static str,
    /// Minimal (or original, if shrinking is off) counterexample.
    pub db: Database,
    pub query: VisQuery,
    pub oracle: Result<ResultSet, ExecError>,
    pub engine_result: Result<ResultSet, ExecError>,
}

impl Divergence {
    /// Human-readable report: the repro line, the query, the database, and
    /// both results.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "DIVERGENCE engine={} — repro: gen_case({}, {}).1[{}] (then shrunk)\n",
            self.engine, self.seed, self.case, self.query_index
        ));
        s.push_str(&format!("query: {:?}\n", self.query));
        s.push_str(&format!("vql:   {}\n", self.query.to_tokens().join(" ")));
        for t in &self.db.tables {
            s.push_str(&format!("table {} ({} rows):\n", t.name(), t.rows.len()));
            let names: Vec<&str> = t.schema.columns.iter().map(|c| c.name.as_str()).collect();
            s.push_str(&format!("  cols: {names:?}\n"));
            for row in t.rows.iter().take(30) {
                s.push_str(&format!("  {row:?}\n"));
            }
        }
        s.push_str(&format!("oracle: {:?}\n", self.oracle));
        s.push_str(&format!("engine: {:?}\n", self.engine_result));
        s
    }
}

/// Aggregate tallies of one batch.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    pub cases: usize,
    /// (query, engine-path) executions compared.
    pub executions: usize,
    pub agreements: usize,
    pub agreed_errors: usize,
    /// Executions short-circuited by armed `nv_fault` sites.
    pub injected_faults: usize,
    pub divergences: Vec<Divergence>,
}

impl DiffReport {
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    pub fn summary(&self) -> String {
        format!(
            "{} cases, {} executions: {} agreed, {} agreed-error, {} injected-fault, {} diverged",
            self.cases,
            self.executions,
            self.agreements,
            self.agreed_errors,
            self.injected_faults,
            self.divergences.len()
        )
    }
}

fn same_error_kind(a: &ExecError, b: &ExecError) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

fn classify(oracle: &Result<ResultSet, ExecError>, engine: &Result<ResultSet, ExecError>) -> Outcome {
    if let Err(ExecError::Internal(m)) = engine {
        if m.contains("injected fault") {
            return Outcome::InjectedFault;
        }
    }
    match (oracle, engine) {
        (Ok(o), Ok(e)) => {
            if o.multiset_eq(e) {
                Outcome::Agreed
            } else {
                Outcome::Diverged
            }
        }
        (Err(oe), Err(ee)) => {
            if same_error_kind(oe, ee) {
                Outcome::AgreedError
            } else {
                Outcome::Diverged
            }
        }
        _ => Outcome::Diverged,
    }
}

/// The three production paths under test, all through
/// [`nv_data::execute_with`] under the default [`nv_data::ExecBudget`]:
/// `execute` without a cache, `cache-cold` and `cache-warm` through one.
/// `cache-warm` re-executes against a cache already populated by the cold
/// run, so memoized scans/groups/results are actually exercised.
const ENGINES: [&str; 3] = ["execute", "cache-cold", "cache-warm"];

fn run_engine(
    engine: &'static str,
    db: &Database,
    q: &VisQuery,
    cache: &mut ExecCache,
) -> Result<ResultSet, ExecError> {
    let cache = if engine == "execute" { None } else { Some(cache) };
    let opts = ExecOptions { cache, ..ExecOptions::default() };
    nv_data::execute_with(db, q, opts).map(|(rs, _)| rs)
}

/// Run one batch of differential cases.
pub fn run_differential(config: &DiffConfig) -> DiffReport {
    let mut report = DiffReport::default();
    for case in 0..config.cases {
        let (db, queries) = gen::gen_case(config.seed, case);
        report.cases += 1;
        // Fresh cache per database: warm hits come from this case's own
        // cold runs, never from another database.
        let mut cache = ExecCache::new();
        for (qi, q) in queries.iter().enumerate() {
            let oracle = oracle_execute(&db, q);
            for engine in ENGINES {
                let engine_result = run_engine(engine, &db, q, &mut cache);
                report.executions += 1;
                match classify(&oracle, &engine_result) {
                    Outcome::Agreed => report.agreements += 1,
                    Outcome::AgreedError => report.agreed_errors += 1,
                    Outcome::InjectedFault => report.injected_faults += 1,
                    Outcome::Diverged => {
                        let div = Divergence {
                            seed: config.seed,
                            case,
                            query_index: qi,
                            engine,
                            db: db.clone(),
                            query: q.clone(),
                            oracle: oracle.clone(),
                            engine_result,
                        };
                        report.divergences.push(shrink_divergence(config, div));
                    }
                }
            }
        }
    }
    report
}

/// `d` with its database and query shrunk when `config.shrink` is set,
/// and its two results taken from a re-run on that pair if it still
/// diverges there.
fn shrink_divergence(config: &DiffConfig, d: Divergence) -> Divergence {
    let (db, query) = if config.shrink { shrink(d.db, d.query) } else { (d.db, d.query) };
    // Re-run on the shrunk pair so the reported results match it.
    let oracle2 = oracle_execute(&db, &query);
    let engine2 = run_engine(d.engine, &db, &query, &mut ExecCache::new());
    let (oracle, engine_result) = if classify(&oracle2, &engine2) == Outcome::Diverged {
        (oracle2, engine2)
    } else {
        (d.oracle, d.engine_result)
    };
    Divergence { db, query, oracle, engine_result, ..d }
}

// ---- shrinking -----------------------------------------------------------

/// Does this (db, query) pair still diverge on *any* engine path?
fn still_diverges(db: &Database, q: &VisQuery) -> bool {
    let oracle = oracle_execute(db, q);
    let mut cache = ExecCache::new();
    ENGINES.iter().any(|engine| {
        let r = run_engine(engine, db, q, &mut cache);
        classify(&oracle, &r) == Outcome::Diverged
    })
}

/// Greedy fixpoint shrink: repeatedly try structural simplifications of the
/// query, then of the database, keeping any candidate that still diverges.
/// Bounded, deterministic, and engine-agnostic (a candidate is kept if any
/// of the three paths still disagrees with the oracle, so shrinking can't
/// drift to a different engine's bug unnoticed — the final report re-runs
/// the original engine).
pub fn shrink(mut db: Database, mut q: VisQuery) -> (Database, VisQuery) {
    for _ in 0..200 {
        let mut shrunk = false;
        for cand in query_candidates(&q) {
            if still_diverges(&db, &cand) {
                q = cand;
                shrunk = true;
                break;
            }
        }
        if shrunk {
            continue;
        }
        for cand in db_candidates(&db, &q) {
            if still_diverges(&cand, &q) {
                db = cand;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            break;
        }
    }
    (db, q)
}

/// Structurally smaller variants of a query, most aggressive first.
fn query_candidates(q: &VisQuery) -> Vec<VisQuery> {
    let mut out: Vec<VisQuery> = Vec::new();
    if q.chart.is_some() {
        out.push(VisQuery { chart: None, query: q.query.clone() });
    }
    // Collapse a compound to either arm.
    if let SetQuery::Compound { left, right, .. } = &q.query {
        out.push(VisQuery { chart: q.chart, query: SetQuery::Simple(left.clone()) });
        out.push(VisQuery { chart: q.chart, query: SetQuery::Simple(right.clone()) });
    }

    // Per-body simplifications, applied one at a time.
    let with_body = |bi: usize, f: &dyn Fn(&mut nv_ast::QueryBody)| -> VisQuery {
        let mut q2 = q.clone();
        f(q2.query.bodies_mut()[bi]);
        q2
    };
    let bodies = q.query.bodies();
    for (bi, body) in bodies.iter().enumerate() {
        if body.filter.is_some() {
            out.push(with_body(bi, &|b| b.filter = None));
        }
        // Replace the filter with each immediate And/Or child.
        if let Some(Predicate::And(l, r)) | Some(Predicate::Or(l, r)) = &body.filter {
            for side in [l, r] {
                let side = (**side).clone();
                out.push(with_body(bi, &move |b| b.filter = Some(side.clone())));
            }
        }
        // Replace subquery operands with a trivial literal.
        if body.filter.as_ref().is_some_and(|p| p.has_subquery()) {
            out.push(with_body(bi, &|b| {
                if let Some(p) = &mut b.filter {
                    replace_subqueries(p);
                }
            }));
        }
        if body.group.is_some() {
            out.push(with_body(bi, &|b| b.group = None));
        }
        if body.group.as_ref().is_some_and(|g| g.bin.is_some() && !g.group_by.is_empty()) {
            out.push(with_body(bi, &|b| {
                if let Some(g) = &mut b.group {
                    g.bin = None;
                }
            }));
        }
        if body.order.is_some() {
            out.push(with_body(bi, &|b| b.order = None));
        }
        if body.superlative.is_some() {
            out.push(with_body(bi, &|b| b.superlative = None));
        }
        // Drop a select attribute from either end (keep at least one).
        if body.select.len() > 1 {
            out.push(with_body(bi, &|b| {
                b.select.pop();
            }));
            out.push(with_body(bi, &|b| {
                b.select.remove(0);
            }));
        }
        // Drop the last joined table together with its join conditions.
        if body.from.len() > 1 {
            out.push(with_body(bi, &|b| {
                let dropped = b.from.pop().unwrap().to_lowercase();
                b.joins.retain(|j| {
                    !j.left.table.eq_ignore_ascii_case(&dropped)
                        && !j.right.table.eq_ignore_ascii_case(&dropped)
                });
            }));
        }
    }
    out
}

fn replace_subqueries(p: &mut Predicate) {
    match p {
        Predicate::And(l, r) | Predicate::Or(l, r) => {
            replace_subqueries(l);
            replace_subqueries(r);
        }
        Predicate::Cmp { rhs, .. } | Predicate::In { rhs, .. } => {
            if matches!(rhs, Operand::Subquery(_)) {
                *rhs = Operand::Lit(nv_ast::Literal::Int(0));
            }
        }
        Predicate::Between { low, high, .. } => {
            for o in [low, high] {
                if matches!(o, Operand::Subquery(_)) {
                    *o = Operand::Lit(nv_ast::Literal::Int(0));
                }
            }
        }
        Predicate::Like { .. } => {}
    }
}

/// Structurally smaller variants of the database: drop tables the query
/// never reads, then halve row sets, then drop single rows.
fn db_candidates(db: &Database, q: &VisQuery) -> Vec<Database> {
    let mut out: Vec<Database> = Vec::new();
    let referenced = q.referenced_tables();
    if db.tables.iter().any(|t| !referenced.contains(&t.name().to_lowercase())) {
        let mut d = db.clone();
        d.tables.retain(|t| referenced.contains(&t.name().to_lowercase()));
        out.push(d);
    }
    for (ti, t) in db.tables.iter().enumerate() {
        let n = t.rows.len();
        if n == 0 {
            continue;
        }
        // Halves.
        for keep_first in [true, false] {
            let mut d = db.clone();
            let rows = &mut d.tables[ti].rows;
            if keep_first {
                rows.truncate(n / 2);
            } else {
                *rows = rows.split_off(n / 2);
            }
            out.push(d);
        }
        // Single-row removals once the table is small.
        if n <= 8 {
            for ri in 0..n {
                let mut d = db.clone();
                d.tables[ti].rows.remove(ri);
                out.push(d);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_ast::tokens::parse_vql_str;
    use nv_data::{table_from, ColumnType, Value};

    #[test]
    fn small_batch_is_clean() {
        let report = run_differential(&DiffConfig::new(0xD1FF, 40));
        assert_eq!(report.executions, report.cases * gen::QUERIES_PER_CASE * ENGINES.len());
        for d in &report.divergences {
            eprintln!("{}", d.render());
        }
        assert!(report.is_clean(), "{}", report.summary());
    }

    #[test]
    fn shrink_drops_unreferenced_tables_and_rows() {
        // Build an artificial "divergence" by comparing against a query the
        // shrinker can minimize: since there is no real divergence, shrink()
        // must return the pair unchanged (still_diverges is false for every
        // candidate, including the originals).
        let mut db = nv_data::Database::new("s", "S");
        db.add_table(table_from(
            "t",
            &[("x", ColumnType::Quantitative)],
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        ));
        db.add_table(table_from("u", &[("y", ColumnType::Quantitative)], vec![]));
        let q = parse_vql_str("select t.x from t").unwrap();
        let (db2, q2) = shrink(db.clone(), q.clone());
        assert_eq!(db2.tables.len(), db.tables.len());
        assert_eq!(q2, q);
    }
}
