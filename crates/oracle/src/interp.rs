//! The reference interpreter: a deliberately slow, obviously-correct
//! evaluator for the full unified AST.
//!
//! Everything here is straight-line nested loops over owned `Vec`s — no hash
//! maps, no memoization, no borrowed scans, no budgets. Joins are nested
//! loops, DISTINCT is a linear membership scan, set operations dedup by
//! scanning, group discovery walks the group list per row. The point is that
//! each clause's semantics can be checked against the paper (and against
//! SQL) by reading a single screen of code, so that when the production
//! executor in `nv-data` and this interpreter disagree, the interpreter is
//! the one you trust first.
//!
//! The interpreter pins the *same observable semantics* as `nv_data::exec`,
//! including the deliberate ones that differ from stock SQL:
//!
//! * WHERE/HAVING are split from one `filter` by walking the top-level AND
//!   chain; any leaf touching an aggregated attribute becomes HAVING.
//! * Aggregates without GROUP BY group implicitly by the bare select
//!   columns; a global aggregate over an empty scan still yields one row.
//! * `AND`/`OR` short-circuit left-to-right (observable through errors).
//! * Superlatives stable-sort by their attribute and truncate to `k`
//!   *before* ORDER BY re-sorts the survivors.
//! * Set operations dedup both sides (SQL set semantics), keep the left
//!   side's representative for equal rows, and sort the result.
//! * NULLs: excluded from join keys, first under the total order, `false`
//!   in every predicate, skipped by aggregates (`COUNT(*)` counts rows).

use nv_ast::*;
use nv_data::{ColumnType, Database, ExecError, ResultSet, Value};

/// Execute a query with the reference semantics. Same signature and same
/// error surface as [`nv_data::execute`]; any observable difference between
/// the two is a bug in one of them.
pub fn oracle_execute(db: &Database, q: &VisQuery) -> Result<ResultSet, ExecError> {
    eval_set(db, &q.query)
}

/// An intermediate relation: qualified column names, types, owned rows.
struct Frame {
    cols: Vec<String>,
    types: Vec<ColumnType>,
    rows: Vec<Vec<Value>>,
}

fn eval_set(db: &Database, q: &SetQuery) -> Result<ResultSet, ExecError> {
    match q {
        SetQuery::Simple(b) => eval_body(db, b),
        SetQuery::Compound { op, left, right } => {
            let l = eval_body(db, left)?;
            let r = eval_body(db, right)?;
            if l.columns.len() != r.columns.len() {
                return Err(ExecError::ArityMismatch {
                    left: l.columns.len(),
                    right: r.columns.len(),
                });
            }
            // SQL set semantics by brute force: dedup each side with linear
            // membership scans (first occurrence is the representative),
            // then combine.
            let ld = dedup_rows(l.rows);
            let rd = dedup_rows(r.rows);
            let mut rows: Vec<Vec<Value>> = Vec::new();
            match op {
                SetOp::Intersect => {
                    for row in ld {
                        if contains_row(&rd, &row) {
                            rows.push(row);
                        }
                    }
                }
                SetOp::Except => {
                    for row in ld {
                        if !contains_row(&rd, &row) {
                            rows.push(row);
                        }
                    }
                }
                SetOp::Union => {
                    rows = ld;
                    for row in rd {
                        if !contains_row(&rows, &row) {
                            rows.push(row);
                        }
                    }
                }
            }
            rows.sort_by(|a, b| cmp_rows(a, b));
            Ok(ResultSet { columns: l.columns, types: l.types, rows })
        }
    }
}

fn dedup_rows(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = Vec::new();
    for row in rows {
        if !contains_row(&out, &row) {
            out.push(row);
        }
    }
    out
}

fn contains_row(rows: &[Vec<Value>], row: &[Value]) -> bool {
    rows.iter().any(|r| r.as_slice() == row)
}

/// Total order over rows, position by position (nulls first; cross-type by
/// type rank) — the same order the executor sorts set-operation output with.
pub fn cmp_rows(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let c = x.total_cmp(y);
        if c != std::cmp::Ordering::Equal {
            return c;
        }
    }
    std::cmp::Ordering::Equal
}

fn eval_body(db: &Database, body: &QueryBody) -> Result<ResultSet, ExecError> {
    let (where_p, having_p) = match body.filter.clone() {
        Some(p) => split_where_having(p),
        None => (None, None),
    };

    // FROM / JOIN, then WHERE row by row.
    let rel = build_from(db, body)?;
    let mut kept: Vec<Vec<Value>> = Vec::new();
    for row in &rel.rows {
        let keep = match &where_p {
            Some(p) => eval_row_pred(db, &rel, row, p)?,
            None => true,
        };
        if keep {
            kept.push(row.clone());
        }
    }
    let scan = Frame { cols: rel.cols, types: rel.types, rows: kept };

    let explicit_group = body.group.clone().filter(|g| !g.is_empty());
    let has_agg = body.select.iter().any(Attr::is_aggregated) || having_p.is_some();
    let grouped = explicit_group.is_some() || has_agg;

    let columns: Vec<String> = body.select.iter().map(attr_display).collect();
    let types: Vec<ColumnType> = body.select.iter().map(|a| attr_out_type(&scan, a)).collect();

    // Each output row carries its ORDER BY and superlative sort values.
    let mut out_rows: Vec<(Vec<Value>, Option<Value>, Option<Value>)> = Vec::new();

    if grouped {
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
        let entries = group_entries(&scan, &key_cols, &bin)?;
        let bin_col = bin.as_ref().map(|b| b.col.clone());
        for entry in &entries {
            if let Some(h) = &having_p {
                if !eval_group_pred(db, &scan, &entry.rows, h)? {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(body.select.len());
            for a in &body.select {
                // The binned column projects its bin label.
                if a.agg == AggFunc::None && Some(&a.col) == bin_col.as_ref() {
                    out.push(entry.label.clone());
                    continue;
                }
                // Grouping keys project the key value directly.
                if a.agg == AggFunc::None {
                    if let Some(pos) = key_cols.iter().position(|c| *c == a.col) {
                        out.push(entry.key[pos].clone());
                        continue;
                    }
                }
                out.push(group_attr_value(&scan, &entry.rows, a)?);
            }
            let ord_v = match &body.order {
                Some(o) => Some(order_value(&scan, entry, &key_cols, &o.attr)?),
                None => None,
            };
            let sup_v = match &body.superlative {
                Some(s) => Some(order_value(&scan, entry, &key_cols, &s.attr)?),
                None => None,
            };
            out_rows.push((out, ord_v, sup_v));
        }
    } else {
        let sel_idx: Vec<usize> = body
            .select
            .iter()
            .map(|a| col_idx(&scan.cols, &a.col))
            .collect::<Result<_, _>>()?;
        // Ungrouped ORDER BY / superlative read the raw column of the
        // attribute; any aggregate function on it is ignored here (the
        // executor does the same — aggregates only trigger grouping from
        // the select list or HAVING).
        let ord_idx = match &body.order {
            Some(o) => Some(col_idx(&scan.cols, &o.attr.col)?),
            None => None,
        };
        let sup_idx = match &body.superlative {
            Some(s) => Some(col_idx(&scan.cols, &s.attr.col)?),
            None => None,
        };
        for row in &scan.rows {
            let out: Vec<Value> = sel_idx.iter().map(|&i| row[i].clone()).collect();
            out_rows.push((
                out,
                ord_idx.map(|i| row[i].clone()),
                sup_idx.map(|i| row[i].clone()),
            ));
        }
    }

    // Superlative first: stable sort by its value over the deterministic
    // group/scan order, then truncate to k…
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
    // …then ORDER BY re-sorts whatever survived.
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

    Ok(ResultSet { columns, types, rows: out_rows.into_iter().map(|(r, _, _)| r).collect() })
}

// ---- FROM / JOIN ---------------------------------------------------------

fn load_table(db: &Database, name: &str) -> Result<Frame, ExecError> {
    let t = db
        .table(name)
        .ok_or_else(|| ExecError::UnknownTable(name.to_string()))?;
    Ok(Frame {
        cols: t
            .schema
            .columns
            .iter()
            .map(|c| format!("{}.{}", t.name(), c.name))
            .collect(),
        types: t.schema.columns.iter().map(|c| c.ctype).collect(),
        rows: t.rows.clone(),
    })
}

fn build_from(db: &Database, body: &QueryBody) -> Result<Frame, ExecError> {
    let first = body
        .from
        .first()
        .ok_or_else(|| ExecError::Unsupported("empty FROM".into()))?;
    let mut rel = load_table(db, first)?;
    let mut joined: Vec<String> = vec![first.to_lowercase()];

    for (i, table) in body.from.iter().enumerate().skip(1) {
        let right = load_table(db, table)?;
        let cond = body.joins.iter().find(|j| {
            let lt = j.left.table.to_lowercase();
            let rt = j.right.table.to_lowercase();
            (rt == table.to_lowercase() && joined.contains(&lt))
                || (lt == table.to_lowercase() && joined.contains(&rt))
        });
        rel = match cond {
            Some(j) => {
                let (old_side, new_side) = if j.right.table.eq_ignore_ascii_case(table) {
                    (&j.left, &j.right)
                } else {
                    (&j.right, &j.left)
                };
                nested_loop_join(rel, right, old_side, new_side)?
            }
            None if body.joins.is_empty() => cross_join(rel, right),
            None => {
                return Err(ExecError::Unsupported(format!(
                    "no join condition connects table '{table}' (position {i})"
                )))
            }
        };
        joined.push(table.to_lowercase());
    }
    Ok(rel)
}

/// Equi-join by scanning every (left, right) pair. NULL keys never match.
fn nested_loop_join(l: Frame, r: Frame, lkey: &ColumnRef, rkey: &ColumnRef) -> Result<Frame, ExecError> {
    let li = col_idx(&l.cols, lkey)?;
    let ri = col_idx(&r.cols, rkey)?;
    let mut rows = Vec::new();
    for lr in &l.rows {
        for rr in &r.rows {
            if !lr[li].is_null() && !rr[ri].is_null() && lr[li] == rr[ri] {
                let mut row = lr.clone();
                row.extend(rr.iter().cloned());
                rows.push(row);
            }
        }
    }
    let mut cols = l.cols;
    cols.extend(r.cols);
    let mut types = l.types;
    types.extend(r.types);
    Ok(Frame { cols, types, rows })
}

fn cross_join(l: Frame, r: Frame) -> Frame {
    let mut rows = Vec::new();
    for lr in &l.rows {
        for rr in &r.rows {
            let mut row = lr.clone();
            row.extend(rr.iter().cloned());
            rows.push(row);
        }
    }
    let mut cols = l.cols;
    cols.extend(r.cols);
    let mut types = l.types;
    types.extend(r.types);
    Frame { cols, types, rows }
}

/// Column resolution: exact `table.column` match first, then a unique
/// unqualified suffix match (the executor's lenient mode).
fn col_idx(cols: &[String], c: &ColumnRef) -> Result<usize, ExecError> {
    let want = format!("{}.{}", c.table, c.column).to_lowercase();
    if let Some(i) = cols.iter().position(|n| n.to_lowercase() == want) {
        return Ok(i);
    }
    let suffix = format!(".{}", c.column.to_lowercase());
    let mut only: Option<usize> = None;
    for (i, n) in cols.iter().enumerate() {
        if n.to_lowercase().ends_with(&suffix) {
            if only.is_some() {
                return Err(ExecError::UnknownColumn(c.to_token()));
            }
            only = Some(i);
        }
    }
    only.ok_or_else(|| ExecError::UnknownColumn(c.to_token()))
}

// ---- WHERE / HAVING ------------------------------------------------------

/// Does any leaf of the predicate reference an aggregated attribute?
pub fn pred_has_agg(p: &Predicate) -> bool {
    let mut found = false;
    p.for_each_leaf(&mut |leaf| {
        let attr = match leaf {
            Predicate::Cmp { attr, .. }
            | Predicate::Between { attr, .. }
            | Predicate::Like { attr, .. }
            | Predicate::In { attr, .. } => attr,
            _ => return,
        };
        if attr.is_aggregated() {
            found = true;
        }
    });
    found
}

/// Split one filter into (pre-group WHERE, post-group HAVING) by walking the
/// top-level AND chain — aggregated leaves become HAVING. Public so the
/// metamorphic-law layer can build law queries from the WHERE part alone.
pub fn split_where_having(p: Predicate) -> (Option<Predicate>, Option<Predicate>) {
    match p {
        Predicate::And(l, r) => {
            let (lw, lh) = split_where_having(*l);
            let (rw, rh) = split_where_having(*r);
            (Predicate::and_opt(lw, rw), Predicate::and_opt(lh, rh))
        }
        other => {
            if pred_has_agg(&other) {
                (None, Some(other))
            } else {
                (Some(other), None)
            }
        }
    }
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

/// Literal operands yield one value; lists yield many; subqueries execute
/// from scratch (no memo) and contribute their first column.
fn operand_values(db: &Database, o: &Operand) -> Result<Vec<Value>, ExecError> {
    match o {
        Operand::Lit(l) => Ok(vec![Value::from_literal(l)]),
        Operand::List(ls) => Ok(ls.iter().map(Value::from_literal).collect()),
        Operand::Subquery(q) => {
            let rs = eval_set(db, q)?;
            Ok(rs.rows.iter().filter_map(|r| r.first().cloned()).collect())
        }
    }
}

fn row_attr_value(rel: &Frame, row: &[Value], attr: &Attr) -> Result<Value, ExecError> {
    if attr.is_aggregated() {
        return Err(ExecError::Unsupported(
            "aggregate in row-level predicate (belongs to HAVING)".into(),
        ));
    }
    let i = col_idx(&rel.cols, &attr.col)?;
    Ok(row[i].clone())
}

/// Row-level predicate; AND/OR short-circuit left to right, exactly like the
/// executor (short-circuiting is observable when the skipped side would
/// error).
fn eval_row_pred(db: &Database, rel: &Frame, row: &[Value], p: &Predicate) -> Result<bool, ExecError> {
    match p {
        Predicate::And(l, r) => {
            Ok(eval_row_pred(db, rel, row, l)? && eval_row_pred(db, rel, row, r)?)
        }
        Predicate::Or(l, r) => {
            Ok(eval_row_pred(db, rel, row, l)? || eval_row_pred(db, rel, row, r)?)
        }
        Predicate::Cmp { op, attr, rhs } => {
            let v = row_attr_value(rel, row, attr)?;
            let rv = operand_values(db, rhs)?;
            let Some(first) = rv.first() else { return Ok(false) };
            Ok(cmp_values(&v, first, *op))
        }
        Predicate::Between { attr, low, high } => {
            let v = row_attr_value(rel, row, attr)?;
            let lo = operand_values(db, low)?;
            let hi = operand_values(db, high)?;
            match (lo.first(), hi.first()) {
                (Some(lo), Some(hi)) => {
                    Ok(cmp_values(&v, lo, CmpOp::Ge) && cmp_values(&v, hi, CmpOp::Le))
                }
                _ => Ok(false),
            }
        }
        Predicate::Like { attr, pattern, negated } => {
            let v = row_attr_value(rel, row, attr)?;
            if v.is_null() {
                return Ok(false);
            }
            Ok(v.like(pattern) != *negated)
        }
        Predicate::In { attr, rhs, negated } => {
            let v = row_attr_value(rel, row, attr)?;
            if v.is_null() {
                return Ok(false);
            }
            let vals = operand_values(db, rhs)?;
            Ok(vals.iter().any(|x| v.sql_eq(x)) != *negated)
        }
    }
}

/// Group-level (HAVING) predicate over one group's row indices.
fn eval_group_pred(db: &Database, scan: &Frame, idxs: &[usize], p: &Predicate) -> Result<bool, ExecError> {
    match p {
        Predicate::And(l, r) => {
            Ok(eval_group_pred(db, scan, idxs, l)? && eval_group_pred(db, scan, idxs, r)?)
        }
        Predicate::Or(l, r) => {
            Ok(eval_group_pred(db, scan, idxs, l)? || eval_group_pred(db, scan, idxs, r)?)
        }
        Predicate::Cmp { op, attr, rhs } => {
            let v = group_attr_value(scan, idxs, attr)?;
            let rv = operand_values(db, rhs)?;
            let Some(first) = rv.first() else { return Ok(false) };
            Ok(cmp_values(&v, first, *op))
        }
        Predicate::Between { attr, low, high } => {
            let v = group_attr_value(scan, idxs, attr)?;
            let lo = operand_values(db, low)?;
            let hi = operand_values(db, high)?;
            match (lo.first(), hi.first()) {
                (Some(lo), Some(hi)) => {
                    Ok(cmp_values(&v, lo, CmpOp::Ge) && cmp_values(&v, hi, CmpOp::Le))
                }
                _ => Ok(false),
            }
        }
        Predicate::Like { attr, pattern, negated } => {
            let v = group_attr_value(scan, idxs, attr)?;
            Ok(!v.is_null() && (v.like(pattern) != *negated))
        }
        Predicate::In { attr, rhs, negated } => {
            let v = group_attr_value(scan, idxs, attr)?;
            if v.is_null() {
                return Ok(false);
            }
            let vals = operand_values(db, rhs)?;
            Ok(vals.iter().any(|x| v.sql_eq(x)) != *negated)
        }
    }
}

// ---- grouping & binning --------------------------------------------------

struct OracleGroup {
    ord: i64,
    key: Vec<Value>,
    label: Value,
    rows: Vec<usize>,
}

/// Partition the scan into groups by (bin ordinal, key values), discovering
/// groups with a linear scan of the group list per row (first occurrence
/// fixes the representative key and label). Groups sort by (ordinal, key).
fn group_entries(
    scan: &Frame,
    key_cols: &[ColumnRef],
    bin: &Option<BinSpec>,
) -> Result<Vec<OracleGroup>, ExecError> {
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

    let mut groups: Vec<OracleGroup> = Vec::new();
    for (ri, row) in scan.rows.iter().enumerate() {
        let (ord, label) = match &bin_info {
            Some((i, unit, nb)) => bin_value(&row[*i], *unit, nb.as_ref()),
            None => (0, Value::Null),
        };
        let kv: Vec<Value> = key_idx.iter().map(|&i| row[i].clone()).collect();
        match groups.iter_mut().find(|g| g.ord == ord && g.key == kv) {
            Some(g) => g.rows.push(ri),
            None => groups.push(OracleGroup { ord, key: kv, label, rows: vec![ri] }),
        }
    }
    // SQL semantics: a global aggregate (no keys, no bin) over empty input
    // still yields one row.
    if groups.is_empty() && key_idx.is_empty() && bin_info.is_none() {
        groups.push(OracleGroup { ord: 0, key: vec![], label: Value::Null, rows: vec![] });
    }
    groups.sort_by(|a, b| a.ord.cmp(&b.ord).then_with(|| cmp_rows(&a.key, &b.key)));
    Ok(groups)
}

/// Equal-width numeric bins: `size = ceil((max - min) / n_bins).max(1)`.
/// The top edge is inclusive (`last` clamps the ordinal), mirroring the
/// engine's `NumericBins` bit for bit.
struct NumericBins {
    min: f64,
    size: f64,
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
        (idx, Value::Text(format!("{}-{}", trim_f(lo), trim_f(hi))))
    }
}

fn trim_f(f: f64) -> String {
    if f.fract() == 0.0 && f.abs() < 1e15 {
        format!("{}", f as i64)
    } else {
        format!("{f:.2}")
    }
}

/// (ordinal, label) of one value under a bin unit; NULL and unbinnable
/// values collapse into an `i64::MIN` ordinal "null" bucket.
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
                BinUnit::Weekday => (i64::from(t.weekday()), Value::text(t.weekday_name())),
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

// ---- aggregates ----------------------------------------------------------

/// One aggregate over a pool of values, nulls skipped, DISTINCT by linear
/// scan. Max keeps the last of ties, Min the first — like the iterator
/// `max_by`/`min_by` the executor uses (observable only through the
/// int/float representative of equal values).
fn agg_over(agg: AggFunc, distinct: bool, vals: &[Value]) -> Value {
    let mut pool: Vec<&Value> = Vec::new();
    for v in vals {
        if v.is_null() {
            continue;
        }
        if distinct && pool.contains(&v) {
            continue;
        }
        pool.push(v);
    }
    match agg {
        AggFunc::Count => Value::Int(pool.len() as i64),
        AggFunc::Max => {
            let mut best: Option<&Value> = None;
            for v in &pool {
                if best.is_none_or(|b| v.total_cmp(b) != std::cmp::Ordering::Less) {
                    best = Some(v);
                }
            }
            best.cloned().unwrap_or(Value::Null)
        }
        AggFunc::Min => {
            let mut best: Option<&Value> = None;
            for v in &pool {
                if best.is_none_or(|b| v.total_cmp(b) == std::cmp::Ordering::Less) {
                    best = Some(v);
                }
            }
            best.cloned().unwrap_or(Value::Null)
        }
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
            let mut s = 0.0;
            let mut n = 0usize;
            for v in &pool {
                if let Some(f) = v.as_f64() {
                    s += f;
                    n += 1;
                }
            }
            if n == 0 {
                Value::Null
            } else {
                Value::Float(s / n as f64)
            }
        }
        AggFunc::None => pool.first().cloned().cloned().unwrap_or(Value::Null),
    }
}

/// Evaluate one attribute over the rows (by index) of one group.
fn group_attr_value(scan: &Frame, idxs: &[usize], attr: &Attr) -> Result<Value, ExecError> {
    if attr.agg == AggFunc::Count && attr.col.is_star() {
        return Ok(Value::Int(idxs.len() as i64));
    }
    let col = col_idx(&scan.cols, &attr.col)?;
    let vals: Vec<Value> = idxs.iter().map(|&i| scan.rows[i][col].clone()).collect();
    Ok(agg_over(attr.agg, attr.distinct, &vals))
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

fn attr_out_type(scan: &Frame, a: &Attr) -> ColumnType {
    match a.agg {
        AggFunc::Count | AggFunc::Sum | AggFunc::Avg => ColumnType::Quantitative,
        AggFunc::Max | AggFunc::Min | AggFunc::None => {
            if a.col.is_star() {
                ColumnType::Categorical
            } else {
                col_idx(&scan.cols, &a.col)
                    .map(|i| scan.types[i])
                    .unwrap_or(ColumnType::Categorical)
            }
        }
    }
}

/// Order/superlative attribute of one group: bare key columns read the key;
/// everything else evaluates over the group's rows (a bare non-key column
/// yields its first non-null value in scan order).
fn order_value(
    scan: &Frame,
    entry: &OracleGroup,
    key_cols: &[ColumnRef],
    attr: &Attr,
) -> Result<Value, ExecError> {
    if attr.agg == AggFunc::None {
        if let Some(pos) = key_cols.iter().position(|c| *c == attr.col) {
            return Ok(entry.key[pos].clone());
        }
    }
    group_attr_value(scan, &entry.rows, attr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_data::{table_from, Timestamp};
    use nv_ast::tokens::parse_vql_str;

    fn db() -> Database {
        let mut db = Database::new("ref", "Test");
        db.add_table(table_from(
            "t",
            &[
                ("cat", ColumnType::Categorical),
                ("q", ColumnType::Quantitative),
                ("d", ColumnType::Temporal),
            ],
            vec![
                vec![Value::text("a"), Value::Int(10), Value::Time(Timestamp::date(2020, 1, 5))],
                vec![Value::text("a"), Value::Null, Value::Time(Timestamp::date(2020, 6, 1))],
                vec![Value::Null, Value::Int(30), Value::Time(Timestamp::date(2021, 1, 1))],
                vec![Value::text("b"), Value::Int(30), Value::Null],
            ],
        ));
        db
    }

    fn run(vql: &str) -> ResultSet {
        oracle_execute(&db(), &parse_vql_str(vql).unwrap()).unwrap()
    }

    #[test]
    fn projection_and_filter() {
        assert_eq!(run("select t.cat from t").rows.len(), 4);
        assert_eq!(run("select t.cat from t where t.q > 10").rows.len(), 2);
    }

    #[test]
    fn group_count_and_null_group() {
        let rs = run("select t.cat , count ( t.* ) from t group by t.cat");
        // Groups: null, a, b — nulls form their own group, sorted first.
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0][0], Value::Null);
        assert_eq!(rs.rows[0][1], Value::Int(1));
    }

    #[test]
    fn global_aggregate_over_empty_scan() {
        let rs = run("select count ( t.* ) , sum ( t.q ) from t where t.q > 999");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert_eq!(rs.rows[0][1], Value::Null);
    }

    #[test]
    fn set_op_dedups_and_sorts() {
        let rs = run("select t.q from t union select t.q from t");
        // Distinct q values: null, 10, 30 — null first under the total order.
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0][0], Value::Null);
    }

    #[test]
    fn bin_year_covers_null() {
        let rs = run("select t.d , count ( t.* ) from t bin t.d by year");
        // null bucket + 2020 + 2021.
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0][0], Value::Null);
        let total: i64 = rs.rows.iter().map(|r| if let Value::Int(n) = r[1] { n } else { 0 }).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn matches_production_executor_on_smoke_queries() {
        let db = db();
        for vql in [
            "select t.cat , count ( t.* ) from t group by t.cat order by count ( t.* ) desc",
            "select t.cat , avg ( t.q ) from t group by t.cat",
            "select t.q from t top 2 by t.q",
            "select t.cat from t where t.q between 5 and 30",
            "select t.d , count ( t.* ) from t bin t.d by month",
            "select max ( t.q ) , min ( t.q ) from t",
        ] {
            let q = parse_vql_str(vql).unwrap();
            let ours = oracle_execute(&db, &q).unwrap();
            let theirs = nv_data::execute(&db, &q).unwrap();
            assert_eq!(ours, theirs, "{vql}");
        }
    }
}
