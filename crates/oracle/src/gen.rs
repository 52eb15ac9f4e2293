//! Deterministic, seeded generators for differential-test cases: random
//! typed databases (FKs, NULLs, duplicate rows, empty tables, text-encoded
//! dates) and random well-typed queries biased toward the Spider-subset
//! shapes the synthesizer emits.
//!
//! Determinism is a hard requirement — the same `(seed, index)` must yield a
//! byte-identical case in every thread and every process, because the CI
//! differential stage and the shrinker both re-derive cases from printed
//! seeds. Everything therefore runs off a single `StdRng` stream per case
//! and no iteration order ever touches a hash map.

use nv_ast::*;
use nv_data::{table_from, ColumnType, Database, Timestamp, Value};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Queries generated per database; `case N` in a differential report means
/// `gen_case(seed, N)` and `query M` indexes into its query vector.
pub const QUERIES_PER_CASE: usize = 3;

/// Per-case RNG seed: mixes the batch seed with the case index so cases are
/// independent streams but fully reproducible in isolation.
pub fn case_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
}

/// One differential-test case: a database plus [`QUERIES_PER_CASE`] queries
/// against it.
pub fn gen_case(seed: u64, index: usize) -> (Database, Vec<VisQuery>) {
    let mut rng = StdRng::seed_from_u64(case_seed(seed, index));
    let db = gen_database(&mut rng, index);
    let mut queries: Vec<VisQuery> = Vec::with_capacity(QUERIES_PER_CASE);
    for qi in 0..QUERIES_PER_CASE {
        let derived = if qi > 0 && rng.random_bool(0.3) {
            derive_sibling(&mut rng, &db, &queries[qi - 1])
        } else {
            None
        };
        queries.push(derived.unwrap_or_else(|| gen_query(&mut rng, &db)));
    }
    (db, queries)
}

/// Keep the previous query's scan (FROM/JOIN/WHERE) and grouping verbatim
/// but regenerate the aggregate, ORDER BY, and superlative. Sibling queries
/// share scan- and group-layer cache keys in a cached `execute_with`, so the
/// warm paths run with *different* downstream work — exactly where a
/// stale-cache bug would hide from independently generated queries.
fn derive_sibling(rng: &mut StdRng, db: &Database, prev: &VisQuery) -> Option<VisQuery> {
    let SetQuery::Simple(body) = &prev.query else { return None };
    let tables = table_infos(db);
    let t = tables.iter().find(|ti| ti.name.eq_ignore_ascii_case(&body.from[0]))?;
    let mut nb = (**body).clone();
    nb.order = None;
    nb.superlative = None;
    if let Some(pos) = nb.select.iter().position(Attr::is_aggregated) {
        nb.select[pos] = gen_agg_attr(rng, t);
    } else if rng.random_bool(0.5) {
        // Bare projection gains an aggregate → implicit grouping over the
        // same scan the sibling ran bare.
        nb.select.push(gen_agg_attr(rng, t));
    }
    if rng.random_bool(0.5) {
        let attr = nb.select[rng.random_range(0..nb.select.len())].clone();
        let dir = if rng.random_bool(0.5) { OrderDir::Asc } else { OrderDir::Desc };
        nb.order = Some(OrderSpec { attr, dir });
    }
    if rng.random_bool(0.4) {
        let attr = nb.select[rng.random_range(0..nb.select.len())].clone();
        let dir = if rng.random_bool(0.5) { SuperDir::Most } else { SuperDir::Least };
        nb.superlative = Some(Superlative { dir, k: rng.random_range(1..=4u64), attr });
    }
    Some(VisQuery { chart: prev.chart, query: SetQuery::simple(nb) })
}

/// FNV-1a digest of a case's full `Debug` rendering — the determinism tests
/// pin this for a known seed and re-check it across threads and processes.
pub fn case_digest(seed: u64, index: usize) -> u64 {
    let (db, queries) = gen_case(seed, index);
    nv_core::fault::key_str(&format!("{db:?}|{queries:?}"))
}

// ---- databases -----------------------------------------------------------

/// Value pool for categorical columns — short, overlapping, LIKE-friendly.
const CATS: [&str; 8] = ["red", "blue", "green", "ash", "oak", "fig", "sun", "moon"];

/// Random database: 1–3 tables, each 3–5 columns. Column 0 of every table is
/// a quantitative "key" with duplicates and occasional NULLs (so joins hit
/// fan-out, misses, and null-key rows). Column names are globally unique
/// (`a0`, `b2`, …) so the executor's lenient suffix resolution stays
/// unambiguous. Later tables may declare an FK to an earlier table's key.
pub fn gen_database(rng: &mut StdRng, index: usize) -> Database {
    let mut db = Database::new(format!("diff_{index}"), "Differential");
    let n_tables = rng.random_range(1..=3usize);
    for ti in 0..n_tables {
        let prefix = char::from(b'a' + ti as u8);
        let n_cols = rng.random_range(3..=5usize);
        let mut cols: Vec<(String, ColumnType)> = vec![(format!("{prefix}0"), ColumnType::Quantitative)];
        for ci in 1..n_cols {
            let ctype = match rng.random_range(0..100u32) {
                0..40 => ColumnType::Categorical,
                40..75 => ColumnType::Quantitative,
                _ => ColumnType::Temporal,
            };
            cols.push((format!("{prefix}{ci}"), ctype));
        }

        // 10% empty tables; otherwise up to 22 rows with 15% duplicates.
        let n_rows = if rng.random_bool(0.1) { 0 } else { rng.random_range(1..=22usize) };
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            if !rows.is_empty() && rng.random_bool(0.15) {
                let i = rng.random_range(0..rows.len());
                let dup = rows[i].clone();
                rows.push(dup);
                continue;
            }
            let mut row = Vec::with_capacity(n_cols);
            // Key column: small range forces duplicate join keys.
            row.push(if rng.random_bool(0.06) {
                Value::Null
            } else {
                Value::Int(rng.random_range(0..12i64))
            });
            for (_, ctype) in &cols[1..] {
                row.push(gen_value(rng, *ctype));
            }
            rows.push(row);
        }

        let col_refs: Vec<(&str, ColumnType)> =
            cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        db.add_table(table_from(&format!("t{ti}"), &col_refs, rows));

        if ti > 0 && rng.random_bool(0.6) {
            let to = rng.random_range(0..ti);
            let to_prefix = char::from(b'a' + to as u8);
            db.add_foreign_key(
                &format!("t{ti}"),
                &format!("{prefix}0"),
                &format!("t{to}"),
                &format!("{to_prefix}0"),
            );
        }
    }
    db
}

fn gen_value(rng: &mut StdRng, ctype: ColumnType) -> Value {
    match ctype {
        ColumnType::Categorical => {
            if rng.random_bool(0.12) {
                Value::Null
            } else {
                Value::text(CATS[rng.random_range(0..CATS.len())])
            }
        }
        ColumnType::Quantitative => {
            if rng.random_bool(0.1) {
                Value::Null
            } else if rng.random_bool(0.3) {
                // One decimal place keeps float sums exactly representable
                // enough for the 1e-6 comparison tolerance.
                Value::Float(rng.random_range(-200..800i64) as f64 / 10.0)
            } else {
                Value::Int(rng.random_range(-20..80i64))
            }
        }
        ColumnType::Temporal => {
            if rng.random_bool(0.1) {
                return Value::Null;
            }
            let year = rng.random_range(2019..=2022i32);
            let month = rng.random_range(1..=12u8);
            let day = rng.random_range(1..=28u8);
            if rng.random_bool(0.25) {
                // Text-encoded date: probes the Text→Timestamp coercion in
                // comparisons and binning.
                Value::text(format!("{year:04}-{month:02}-{day:02}"))
            } else if rng.random_bool(0.3) {
                Value::Time(Timestamp::datetime(
                    year,
                    month,
                    day,
                    rng.random_range(0..24u8),
                    rng.random_range(0..60u8),
                ))
            } else {
                Value::Time(Timestamp::date(year, month, day))
            }
        }
    }
}

// ---- queries -------------------------------------------------------------

/// Snapshot of one table for generation: name plus typed column refs.
struct TableInfo {
    name: String,
    cols: Vec<(ColumnRef, ColumnType)>,
}

fn table_infos(db: &Database) -> Vec<TableInfo> {
    db.tables
        .iter()
        .map(|t| TableInfo {
            name: t.name().to_string(),
            cols: t
                .schema
                .columns
                .iter()
                .map(|c| (ColumnRef::new(t.name(), c.name.clone()), c.ctype))
                .collect(),
        })
        .collect()
}

/// Random well-typed query. The shape mix follows the synthesizer's output
/// distribution: mostly single-table group/bin aggregations, with a tail of
/// joins, subqueries, and compound set operations.
pub fn gen_query(rng: &mut StdRng, db: &Database) -> VisQuery {
    let tables = table_infos(db);
    let shape = rng.random_range(0..100u32);
    let query = match shape {
        0..88 => SetQuery::simple(gen_body(rng, db, &tables, shape)),
        _ => {
            // Compound: two bodies, both projecting a single column so the
            // arities agree.
            let l = gen_set_body(rng, &tables);
            let r = gen_set_body(rng, &tables);
            let op = match rng.random_range(0..3u32) {
                0 => SetOp::Union,
                1 => SetOp::Intersect,
                _ => SetOp::Except,
            };
            SetQuery::Compound { op, left: Box::new(l), right: Box::new(r) }
        }
    };
    let chart = if rng.random_bool(0.5) {
        Some(ChartType::ALL[rng.random_range(0..ChartType::ALL.len())])
    } else {
        None
    };
    VisQuery { chart, query }
}

/// One arm of a compound query: single bare or aggregated column, optional
/// filter.
fn gen_set_body(rng: &mut StdRng, tables: &[TableInfo]) -> QueryBody {
    let t = &tables[rng.random_range(0..tables.len())];
    let (col, ctype) = pick_col(rng, t);
    let attr = if rng.random_bool(0.25) && ctype == ColumnType::Quantitative {
        Attr { agg: AggFunc::Max, col, distinct: false }
    } else {
        Attr { agg: AggFunc::None, col, distinct: false }
    };
    let mut body = QueryBody::simple(t.name.clone(), vec![attr]);
    if rng.random_bool(0.4) {
        body.filter = Some(gen_filter(rng, t, 1));
    }
    body
}

fn pick_col(rng: &mut StdRng, t: &TableInfo) -> (ColumnRef, ColumnType) {
    let (c, ty) = &t.cols[rng.random_range(0..t.cols.len())];
    (c.clone(), *ty)
}

fn pick_col_of(rng: &mut StdRng, t: &TableInfo, ty: ColumnType) -> Option<(ColumnRef, ColumnType)> {
    let matching: Vec<_> = t.cols.iter().filter(|(_, ct)| *ct == ty).collect();
    if matching.is_empty() {
        return None;
    }
    let (c, ct) = matching[rng.random_range(0..matching.len())];
    Some((c.clone(), *ct))
}

fn gen_agg_attr(rng: &mut StdRng, t: &TableInfo) -> Attr {
    if rng.random_bool(0.5) {
        return Attr {
            agg: AggFunc::Count,
            col: ColumnRef::new(t.name.clone(), "*"),
            distinct: false,
        };
    }
    match pick_col_of(rng, t, ColumnType::Quantitative) {
        Some((col, _)) => {
            let agg = match rng.random_range(0..4u32) {
                0 => AggFunc::Sum,
                1 => AggFunc::Avg,
                2 => AggFunc::Max,
                _ => AggFunc::Min,
            };
            Attr { agg, col, distinct: rng.random_bool(0.2) }
        }
        None => {
            let (col, _) = pick_col(rng, t);
            Attr { agg: AggFunc::Count, col, distinct: rng.random_bool(0.3) }
        }
    }
}

fn gen_body(rng: &mut StdRng, db: &Database, tables: &[TableInfo], shape: u32) -> QueryBody {
    let ti = rng.random_range(0..tables.len());
    let t = &tables[ti];
    let mut body = QueryBody::simple(t.name.clone(), vec![]);

    // 30% of bodies pull in a second table through a declared FK.
    if tables.len() > 1 && rng.random_bool(0.3) {
        let fk = db
            .foreign_keys
            .iter()
            .find(|f| f.from_table.eq_ignore_ascii_case(&t.name) || f.to_table.eq_ignore_ascii_case(&t.name));
        if let Some(fk) = fk {
            let other = if fk.from_table.eq_ignore_ascii_case(&t.name) {
                fk.to_table.clone()
            } else {
                fk.from_table.clone()
            };
            // The canonical serialization writes `join <right.table> on
            // left = right`, so the condition must be oriented with `right`
            // referencing the newly joined table.
            let (left, right) = if fk.from_table.eq_ignore_ascii_case(&other) {
                (
                    ColumnRef::new(fk.to_table.clone(), fk.to_column.clone()),
                    ColumnRef::new(fk.from_table.clone(), fk.from_column.clone()),
                )
            } else {
                (
                    ColumnRef::new(fk.from_table.clone(), fk.from_column.clone()),
                    ColumnRef::new(fk.to_table.clone(), fk.to_column.clone()),
                )
            };
            body.from.push(other);
            body.joins.push(JoinCond { left, right });
        }
    }

    match shape {
        // Bare projection of 1–2 columns.
        0..25 => {
            let n = rng.random_range(1..=2usize);
            for _ in 0..n {
                let (col, _) = pick_col(rng, t);
                body.select.push(Attr { agg: AggFunc::None, col, distinct: false });
            }
        }
        // Explicit group-by + aggregate (the canonical bar-chart query).
        25..45 => {
            let (gcol, _) = pick_col(rng, t);
            body.select.push(Attr { agg: AggFunc::None, col: gcol.clone(), distinct: false });
            body.select.push(gen_agg_attr(rng, t));
            let mut group = GroupSpec::by(gcol);
            if rng.random_bool(0.25) {
                let (g2, _) = pick_col(rng, t);
                if !group.group_by.contains(&g2) {
                    group.group_by.push(g2);
                    body.select.insert(1, Attr {
                        agg: AggFunc::None,
                        col: group.group_by[1].clone(),
                        distinct: false,
                    });
                }
            }
            body.group = Some(group);
        }
        // Binned aggregate (temporal unit or numeric buckets).
        45..60 => {
            let (bcol, unit) = match pick_col_of(rng, t, ColumnType::Temporal) {
                Some((c, _)) if rng.random_bool(0.7) => {
                    let unit = match rng.random_range(0..6u32) {
                        0 => BinUnit::Minute,
                        1 => BinUnit::Hour,
                        2 => BinUnit::Weekday,
                        3 => BinUnit::Month,
                        4 => BinUnit::Quarter,
                        _ => BinUnit::Year,
                    };
                    (c, unit)
                }
                _ => {
                    let (c, _) = pick_col_of(rng, t, ColumnType::Quantitative)
                        .unwrap_or_else(|| pick_col(rng, t));
                    (c, BinUnit::Numeric { n_bins: rng.random_range(2..=10u32) })
                }
            };
            body.select.push(Attr { agg: AggFunc::None, col: bcol.clone(), distinct: false });
            body.select.push(gen_agg_attr(rng, t));
            body.group = Some(GroupSpec { group_by: vec![], bin: Some(BinSpec { col: bcol, unit }) });
        }
        // Global aggregate (no grouping at all).
        60..72 => {
            let n = rng.random_range(1..=2usize);
            for _ in 0..n {
                body.select.push(gen_agg_attr(rng, t));
            }
        }
        // Implicit grouping: bare column + aggregate, no GROUP BY clause.
        72..80 => {
            let (col, _) = pick_col(rng, t);
            body.select.push(Attr { agg: AggFunc::None, col, distinct: false });
            body.select.push(gen_agg_attr(rng, t));
        }
        // Subquery in the filter (IN-subquery or scalar comparison).
        _ => {
            let (col, _) = pick_col(rng, t);
            body.select.push(Attr { agg: AggFunc::None, col, distinct: false });
            body.select.push(gen_agg_attr(rng, t));
            body.filter = Some(gen_subquery_pred(rng, tables, t));
        }
    }

    // Filter (unless the shape already set one).
    if body.filter.is_none() && rng.random_bool(0.55) {
        let leaves = rng.random_range(1..=3usize);
        body.filter = Some(gen_filter(rng, t, leaves));
    }
    // HAVING: append an aggregated leaf to the top-level AND chain.
    let grouped = body.group.is_some() || body.select.iter().any(Attr::is_aggregated);
    if grouped && rng.random_bool(0.12) {
        let having = Predicate::Cmp {
            op: if rng.random_bool(0.5) { CmpOp::Ge } else { CmpOp::Lt },
            attr: gen_agg_attr(rng, t),
            rhs: Operand::Lit(Literal::Int(rng.random_range(0..6i64))),
        };
        body.filter = Predicate::and_opt(body.filter.take(), Some(having));
    }

    // ORDER BY: usually a select attribute, sometimes a bare non-select
    // column (probes the first-non-null group-order quirk).
    if rng.random_bool(0.35) && !body.select.is_empty() {
        let attr = if rng.random_bool(0.8) {
            body.select[rng.random_range(0..body.select.len())].clone()
        } else {
            let (col, _) = pick_col(rng, t);
            Attr { agg: AggFunc::None, col, distinct: false }
        };
        let dir = if rng.random_bool(0.5) { OrderDir::Asc } else { OrderDir::Desc };
        body.order = Some(OrderSpec { attr, dir });
    }
    // Superlative (top/bottom k).
    if rng.random_bool(0.25) && !body.select.is_empty() {
        let attr = body.select[rng.random_range(0..body.select.len())].clone();
        let dir = if rng.random_bool(0.5) { SuperDir::Most } else { SuperDir::Least };
        body.superlative = Some(Superlative { dir, k: rng.random_range(1..=5u64), attr });
    }

    // Aggregated ORDER BY / superlative attrs on an *ungrouped* body: the
    // executor ignores the aggregate and reads the raw column — the oracle
    // must reproduce exactly that quirk.
    if !grouped && rng.random_bool(0.08) {
        if let Some(o) = &mut body.order {
            if !o.attr.col.is_star() {
                o.attr.agg = AggFunc::Max;
            }
        }
        if let Some(s) = &mut body.superlative {
            if !s.attr.col.is_star() {
                s.attr.agg = AggFunc::Min;
            }
        }
    }

    // Lenient-resolution probe: a bogus qualifier whose column suffix is
    // still globally unique must resolve identically in both engines.
    if rng.random_bool(0.05) {
        if let Some(a) = body.select.first_mut() {
            if !a.col.is_star() {
                a.col.table = "zz".into();
            }
        }
    }

    if body.select.is_empty() {
        let (col, _) = pick_col(rng, t);
        body.select.push(Attr { agg: AggFunc::None, col, distinct: false });
    }
    body
}

/// Random 1–3-leaf filter tree over the table's columns, joined with
/// And/Or. Roughly 65% of comparison literals come from actual column data
/// so predicates select non-trivial subsets.
fn gen_filter(rng: &mut StdRng, t: &TableInfo, leaves: usize) -> Predicate {
    let mut p = gen_leaf(rng, t);
    for _ in 1..leaves {
        let next = gen_leaf(rng, t);
        p = if rng.random_bool(0.5) {
            Predicate::And(Box::new(p), Box::new(next))
        } else {
            Predicate::Or(Box::new(p), Box::new(next))
        };
    }
    p
}

fn gen_leaf(rng: &mut StdRng, t: &TableInfo) -> Predicate {
    let (col, ctype) = pick_col(rng, t);
    let attr = Attr { agg: AggFunc::None, col, distinct: false };
    match ctype {
        ColumnType::Categorical => match rng.random_range(0..3u32) {
            0 => Predicate::Cmp {
                op: if rng.random_bool(0.7) { CmpOp::Eq } else { CmpOp::Ne },
                attr,
                rhs: Operand::Lit(Literal::Text(CATS[rng.random_range(0..CATS.len())].into())),
            },
            1 => Predicate::Like {
                attr,
                pattern: ["%e%", "_u%", "%o", "a%", "%ig%"][rng.random_range(0..5usize)].into(),
                negated: rng.random_bool(0.25),
            },
            _ => Predicate::In {
                attr,
                rhs: Operand::List(
                    (0..rng.random_range(1..=3usize))
                        .map(|_| Literal::Text(CATS[rng.random_range(0..CATS.len())].into()))
                        .collect(),
                ),
                negated: rng.random_bool(0.25),
            },
        },
        ColumnType::Quantitative => {
            if rng.random_bool(0.3) {
                let lo = rng.random_range(-20..40i64);
                Predicate::Between {
                    attr,
                    low: Operand::Lit(Literal::Int(lo)),
                    high: Operand::Lit(Literal::Int(lo + rng.random_range(0..40i64))),
                }
            } else {
                let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
                    [rng.random_range(0..6usize)];
                let lit = if rng.random_bool(0.25) {
                    Literal::Float(rng.random_range(-200..800i64) as f64 / 10.0)
                } else {
                    Literal::Int(rng.random_range(-20..80i64))
                };
                Predicate::Cmp { op, attr, rhs: Operand::Lit(lit) }
            }
        }
        ColumnType::Temporal => {
            let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][rng.random_range(0..4usize)];
            let date = format!(
                "{:04}-{:02}-{:02}",
                rng.random_range(2019..=2022i32),
                rng.random_range(1..=12u8),
                rng.random_range(1..=28u8),
            );
            Predicate::Cmp { op, attr, rhs: Operand::Lit(Literal::Text(date)) }
        }
    }
}

/// A filter whose right side nests a full subquery: either `col IN (select
/// col from t2)` or a scalar comparison against a global aggregate (always
/// one row, so the comparison is order-insensitive).
fn gen_subquery_pred(rng: &mut StdRng, tables: &[TableInfo], t: &TableInfo) -> Predicate {
    let sub_t = &tables[rng.random_range(0..tables.len())];
    if rng.random_bool(0.5) {
        let (outer, _) = pick_col_of(rng, t, ColumnType::Quantitative)
            .unwrap_or_else(|| pick_col(rng, t));
        let (inner, _) = pick_col_of(rng, sub_t, ColumnType::Quantitative)
            .unwrap_or_else(|| pick_col(rng, sub_t));
        let sub = QueryBody::simple(
            sub_t.name.clone(),
            vec![Attr { agg: AggFunc::None, col: inner, distinct: false }],
        );
        Predicate::In {
            attr: Attr { agg: AggFunc::None, col: outer, distinct: false },
            rhs: Operand::Subquery(Box::new(SetQuery::simple(sub))),
            negated: rng.random_bool(0.3),
        }
    } else {
        let (outer, _) = pick_col_of(rng, t, ColumnType::Quantitative)
            .unwrap_or_else(|| pick_col(rng, t));
        let sub = QueryBody::simple(sub_t.name.clone(), vec![gen_agg_attr(rng, sub_t)]);
        Predicate::Cmp {
            op: [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][rng.random_range(0..4usize)],
            attr: Attr { agg: AggFunc::None, col: outer, distinct: false },
            rhs: Operand::Subquery(Box::new(SetQuery::simple(sub))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_case() {
        for i in 0..20 {
            let a = gen_case(42, i);
            let b = gen_case(42, i);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {i}");
        }
    }

    #[test]
    fn different_indices_differ() {
        assert_ne!(case_digest(42, 0), case_digest(42, 1));
        assert_ne!(case_digest(42, 0), case_digest(43, 0));
    }

    #[test]
    fn generated_queries_mostly_execute() {
        // The generator is allowed to produce queries that error (both
        // engines must simply agree), but the overwhelming majority should
        // run clean or the differential signal is weak.
        let mut ok = 0usize;
        let mut total = 0usize;
        for i in 0..60 {
            let (db, queries) = gen_case(7, i);
            for q in &queries {
                total += 1;
                if nv_data::execute(&db, q).is_ok() {
                    ok += 1;
                }
            }
        }
        assert!(ok * 10 >= total * 9, "only {ok}/{total} queries executed cleanly");
    }

    /// Regression: the canonical serializer writes `join <right.table> on
    /// left = right`, so every generated join condition must be oriented
    /// with `right` referencing the newly joined table. A flipped FK
    /// condition used to serialize as a self-join of the base table and
    /// re-parse to a different AST (caught by the round-trip property).
    #[test]
    fn fk_join_conditions_reference_the_joined_table() {
        let mut joins = 0usize;
        for case in 0..400 {
            let (_db, queries) = gen_case(0xFEED, case);
            for q in &queries {
                for b in q.query.bodies() {
                    for (i, j) in b.joins.iter().enumerate() {
                        let joined = &b.from[i + 1];
                        assert!(
                            j.right.table.eq_ignore_ascii_case(joined),
                            "join {i} of {:?} joins table {joined:?} but its \
                             condition right side is {:?}",
                            b.from,
                            j.right
                        );
                        joins += 1;
                    }
                }
            }
        }
        assert!(joins > 50, "only {joins} joins generated — probe too weak");
    }
}
