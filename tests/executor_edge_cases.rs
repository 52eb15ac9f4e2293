//! Executor edge cases: nulls in every clause position, empty tables,
//! degenerate groups — the places SQL engines classically get wrong.

use nvbench::ast::tokens::parse_vql_str;
use nvbench::data::{execute, table_from, ColumnType, Database, Value};

fn db() -> Database {
    let mut db = Database::new("edge", "Test");
    db.add_table(table_from(
        "t",
        &[
            ("cat", ColumnType::Categorical),
            ("q", ColumnType::Quantitative),
            ("when_at", ColumnType::Temporal),
        ],
        vec![
            vec![Value::text("a"), Value::Int(10), Value::text("2020-01-01")],
            vec![Value::text("a"), Value::Null, Value::text("2020-06-01")],
            vec![Value::Null, Value::Int(30), Value::text("2021-01-01")],
            vec![Value::text("b"), Value::Int(40), Value::Null],
            vec![Value::text("b"), Value::Int(50), Value::text("2021-06-01")],
        ],
    ));
    db.add_table(table_from("empty", &[("x", ColumnType::Quantitative)], vec![]));
    db
}

fn run(vql: &str) -> nvbench::data::ResultSet {
    execute(&db(), &parse_vql_str(vql).unwrap()).unwrap()
}

#[test]
fn nulls_fail_every_comparison() {
    // Null q never satisfies > nor <= — the row disappears from both sides.
    let gt = run("select t.cat from t where t.q > 20");
    let le = run("select t.cat from t where t.q <= 20");
    assert_eq!(gt.rows.len() + le.rows.len(), 4); // 5 rows, 1 null q
    // Equality against null literal matches nothing (SQL semantics).
    let eq_null = run("select t.cat from t where t.q = null");
    assert_eq!(eq_null.rows.len(), 0);
}

#[test]
fn null_group_key_forms_its_own_group() {
    let rs = run("select t.cat , count ( t.* ) from t group by t.cat");
    assert_eq!(rs.rows.len(), 3); // a, b, null
    let null_group = rs.rows.iter().find(|r| r[0].is_null()).expect("null group");
    assert_eq!(null_group[1], Value::Int(1));
}

#[test]
fn aggregates_skip_nulls() {
    let rs = run("select count ( t.q ) , sum ( t.q ) , avg ( t.q ) , min ( t.q ) , max ( t.q ) from t");
    assert_eq!(rs.rows[0][0], Value::Int(4)); // count(q) skips the null
    assert_eq!(rs.rows[0][1], Value::Int(130));
    assert_eq!(rs.rows[0][2], Value::Float(32.5));
    assert_eq!(rs.rows[0][3], Value::Int(10));
    assert_eq!(rs.rows[0][4], Value::Int(50));
    // count(*) counts rows regardless of nulls.
    let star = run("select count ( t.* ) from t");
    assert_eq!(star.rows[0][0], Value::Int(5));
}

#[test]
fn aggregates_over_empty_table() {
    let rs = run("select count ( empty.* ) , sum ( empty.x ) , avg ( empty.x ) from empty");
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(0));
    assert!(rs.rows[0][1].is_null());
    assert!(rs.rows[0][2].is_null());
}

#[test]
fn group_by_on_empty_table_yields_no_rows() {
    let rs = run("select empty.x , count ( empty.* ) from empty group by empty.x");
    assert!(rs.rows.is_empty());
}

#[test]
fn null_temporal_lands_in_null_bin() {
    let rs = run("select t.when_at , count ( t.* ) from t bin t.when_at by year");
    // Bins: null, 2020, 2021.
    assert_eq!(rs.rows.len(), 3);
    assert!(rs.rows[0][0].is_null()); // null ordinal sorts first
    let total: i64 = rs
        .rows
        .iter()
        .map(|r| if let Value::Int(n) = r[1] { n } else { 0 })
        .sum();
    assert_eq!(total, 5);
}

#[test]
fn like_and_in_treat_null_as_no_match() {
    let like = run("select t.cat from t where t.cat like 'a%'");
    assert_eq!(like.rows.len(), 2);
    let not_like = run("select t.cat from t where t.cat not like 'a%'");
    // The null cat matches neither direction.
    assert_eq!(not_like.rows.len(), 2);
    let not_in = run("select t.cat from t where t.cat not in ( 'a' )");
    assert_eq!(not_in.rows.len(), 2);
}

#[test]
fn superlative_with_nulls_sorts_them_low() {
    let rs = run("select t.cat , t.q from t top 2 by t.q");
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][1], Value::Int(50));
    assert_eq!(rs.rows[1][1], Value::Int(40));
    let rs = run("select t.cat , t.q from t bottom 1 by t.q");
    // Nulls order lowest under the total order; the bottom row is the null.
    assert!(rs.rows[0][1].is_null());
}

#[test]
fn order_by_is_stable_under_null_keys() {
    let rs = run("select t.cat , t.q from t order by t.q desc");
    assert_eq!(rs.rows.len(), 5);
    assert_eq!(rs.rows[0][1], Value::Int(50));
    assert!(rs.rows[4][1].is_null());
}

#[test]
fn set_ops_on_empty_side() {
    let rs = run("select t.cat from t union select t.cat from t where t.q > 1000");
    assert_eq!(rs.rows.len(), 3); // distinct cats incl. null
    let rs = run("select t.cat from t intersect select t.cat from t where t.q > 1000");
    assert!(rs.rows.is_empty());
    let rs = run("select t.cat from t except select t.cat from t");
    assert!(rs.rows.is_empty());
}

#[test]
fn numeric_bin_over_constant_column() {
    let mut db = db();
    db.add_table(table_from(
        "flat",
        &[("v", ColumnType::Quantitative)],
        (0..6).map(|_| vec![Value::Int(7)]).collect(),
    ));
    let q = parse_vql_str("select flat.v , count ( flat.* ) from flat bin flat.v by bucket_10")
        .unwrap();
    let rs = execute(&db, &q).unwrap();
    // All rows land in one bucket; no division-by-zero.
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][1], Value::Int(6));
}

/// Regression: when the value range is an exact multiple of the bin size,
/// the column maximum used to overflow into an eleventh bin. It must land
/// in the last real bin, and the reference interpreter must agree.
#[test]
fn numeric_bin_top_edge_is_inclusive() {
    let mut db = db();
    // Range 0..100, bucket_10 → size 10; the max (100) sits exactly on the
    // final edge.
    db.add_table(table_from(
        "edgy",
        &[("v", ColumnType::Quantitative)],
        (0..=10).map(|i| vec![Value::Int(i * 10)]).collect(),
    ));
    let q = parse_vql_str("select edgy.v , count ( edgy.* ) from edgy bin edgy.v by bucket_10")
        .unwrap();
    let rs = execute(&db, &q).unwrap();
    assert_eq!(rs.rows.len(), 10, "exactly ten bins, no overflow: {rs:?}");
    let labels: Vec<String> = rs.rows.iter().map(|r| r[0].label()).collect();
    assert!(!labels.iter().any(|l| l.starts_with("100-")), "{labels:?}");
    // The closing bin holds both 90 and the on-edge 100.
    let last = rs.rows.last().unwrap();
    assert_eq!(last[0], Value::text("90-100"));
    assert_eq!(last[1], Value::Int(2));
    // The reference interpreter implements the same inclusive top edge.
    let oracle = nv_oracle::oracle_execute(&db, &q).unwrap();
    assert!(rs.multiset_eq(&oracle), "engine and oracle disagree on the edge bin");
}

/// HAVING runs through the same predicate walker as WHERE, with group
/// aggregates as the attribute values. Every predicate form must filter
/// groups identically with no cache, a cold cache and a warm cache, and agree
/// with the reference interpreter. Groups by `t.cat`: `a` (q 10, null),
/// `NULL` (q 30) and `b` (q 40, 50).
#[test]
fn having_supports_every_predicate_form() {
    use nvbench::data::{execute_with, ExecCache, ExecOptions};
    let null = Value::Null;
    let (a, b) = (Value::text("a"), Value::text("b"));
    let int = Value::Int;
    let cases: Vec<(&str, Vec<Vec<Value>>)> = vec![
        (
            "select t.cat , sum ( t.q ) from t \
             where sum ( t.q ) between 20 and 100 group by t.cat",
            vec![vec![null.clone(), int(30)], vec![b.clone(), int(90)]],
        ),
        (
            "select t.cat , count ( t.* ) from t where count ( t.* ) in ( 1 , 3 ) group by t.cat",
            vec![vec![null.clone(), int(1)]],
        ),
        (
            "select t.cat , count ( t.* ) from t \
             where count ( t.* ) not in ( 1 , 3 ) group by t.cat",
            vec![vec![a.clone(), int(2)], vec![b.clone(), int(2)]],
        ),
        (
            "select t.cat , sum ( t.q ) from t \
             where sum ( t.q ) > ( select avg ( t.q ) from t ) group by t.cat",
            vec![vec![b.clone(), int(90)]],
        ),
        (
            "select t.cat , max ( t.q ) from t \
             where max ( t.q ) in ( select t.q from t where t.q > 20 ) group by t.cat",
            vec![vec![null.clone(), int(30)], vec![b.clone(), int(50)]],
        ),
        (
            "select t.cat , count ( t.* ) from t where max ( t.cat ) like 'a%' group by t.cat",
            vec![vec![a.clone(), int(2)]],
        ),
        (
            // The NULL group's max(cat) is NULL: it matches neither form.
            "select t.cat , count ( t.* ) from t where max ( t.cat ) not like 'a%' group by t.cat",
            vec![vec![b.clone(), int(2)]],
        ),
        (
            "select t.cat , sum ( t.q ) from t \
             where ( count ( t.* ) = 1 or sum ( t.q ) > 50 ) group by t.cat",
            vec![vec![null.clone(), int(30)], vec![b.clone(), int(90)]],
        ),
    ];
    let sorted = |rows: &[Vec<Value>]| {
        let mut r: Vec<String> = rows.iter().map(|row| format!("{row:?}")).collect();
        r.sort();
        r
    };
    let db = db();
    for (vql, want) in cases {
        let q = parse_vql_str(vql).unwrap_or_else(|e| panic!("{vql}: {e}"));
        let oracle = nv_oracle::oracle_execute(&db, &q).unwrap();
        assert_eq!(sorted(&oracle.rows), sorted(&want), "oracle: {vql}");
        let plain = execute_with(&db, &q, ExecOptions::default()).unwrap();
        let mut cache = ExecCache::new();
        let mut cached = || {
            execute_with(&db, &q, ExecOptions { cache: Some(&mut cache), ..Default::default() })
                .unwrap()
        };
        let (cold, warm) = (cached(), cached());
        for (how, (rs, spend)) in [("plain", plain.clone()), ("cold", cold), ("warm", warm)] {
            assert!(rs.multiset_eq(&oracle), "{how} disagrees with the oracle: {vql}\n{rs:?}");
            assert_eq!(spend, plain.1, "{how} budget spend: {vql}");
        }
        if vql.contains("( select") {
            assert!(cache.stats.result_hits > 0, "subquery result was not memoized: {vql}");
        }
    }
}
