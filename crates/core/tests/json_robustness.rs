//! Robustness of the benchmark loader, `from_json`, on untrusted input.
//!
//! * Pathologically deep JSON is a parse error, not a stack-overflow abort.
//! * The nesting cap still admits the deepest tree `parse_vql` accepts
//!   (63 nested subqueries), so every VQL-parseable benchmark stays
//!   loadable.
//! * Byte-mutated valid envelopes never panic, and whatever still loads is
//!   usable: it splits, and every vis object resolves its database.

use nv_ast::tokens::parse_vql_str;
use nv_ast::{Hardness, TreeEdit};
use nv_core::pipeline::{Nl2SqlToNl2Vis, SynthesizerConfig};
use nv_core::{from_json, to_json, NlVisPair, NvBench, VisObject};
use nv_data::{table_from, ColumnType, Database, Value};
use nv_spider::{CorpusConfig, SpiderCorpus};
use proptest::prelude::*;
use std::sync::OnceLock;

#[test]
fn deeply_nested_json_is_an_error_not_an_abort() {
    let n = 100_000;
    let arrays = "[".repeat(n) + &"]".repeat(n);
    assert!(from_json(&arrays).is_err());
    let objects = "{\"a\":".repeat(n) + "0" + &"}".repeat(n);
    assert!(from_json(&objects).is_err());
}

/// `select t.a from t` wrapped in `depth` nested `where t.a in ( … )`
/// subqueries.
fn nested_subquery_vql(depth: usize) -> String {
    let mut q = "select t.a from t".to_string();
    for _ in 0..depth {
        q = format!("select t.a from t where t.a in ( {q} )");
    }
    format!(
        "visualize bar {}",
        q.replacen("select t.a", "select t.a , count ( t.a )", 1)
    ) + " group by t.a"
}

#[test]
fn deepest_vql_parseable_tree_round_trips() {
    assert!(
        parse_vql_str(&nested_subquery_vql(64)).is_err(),
        "parse_vql's limit moved"
    );
    let tree = parse_vql_str(&nested_subquery_vql(63)).expect("63 nested subqueries parse");
    let mut db = Database::new("deep", "Deep");
    db.add_table(table_from(
        "t",
        &[("a", ColumnType::Quantitative)],
        vec![vec![Value::Int(1)]],
    ));
    let bench = NvBench {
        databases: vec![db],
        vis_objects: vec![VisObject {
            vis_id: 0,
            db_name: "deep".into(),
            source_pair_id: 0,
            vql: tree.to_vql(),
            chart: tree.chart.expect("visualize bar"),
            tree,
            hardness: Hardness::ExtraHard,
            edit: TreeEdit::default(),
            needed_manual_nl: false,
        }],
        pairs: vec![NlVisPair {
            pair_id: 0,
            vis_id: 0,
            nl: "deep".into(),
        }],
    };
    let back = from_json(&to_json(&bench).unwrap()).expect("a 63-level tree loads");
    assert_eq!(back.vis_objects[0].tree, bench.vis_objects[0].tree);
    assert_eq!(back.vis_objects[0].vql, bench.vis_objects[0].vql);
}

/// A small valid envelope: the first few vis objects of a synthesized
/// corpus, their pairs, and the databases they use.
fn envelope() -> &'static [u8] {
    static JSON: OnceLock<Vec<u8>> = OnceLock::new();
    JSON.get_or_init(|| {
        let corpus = SpiderCorpus::generate(&CorpusConfig::small(19));
        let mut b = Nl2SqlToNl2Vis::new(SynthesizerConfig::default())
            .synthesize_corpus(&corpus)
            .bench;
        b.vis_objects.truncate(3);
        let n_vis = b.vis_objects.len();
        b.pairs.retain(|p| p.vis_id < n_vis);
        for (i, p) in b.pairs.iter_mut().enumerate() {
            p.pair_id = i;
        }
        let used: Vec<String> = b.vis_objects.iter().map(|v| v.db_name.clone()).collect();
        b.databases
            .retain(|d| used.iter().any(|u| d.name.eq_ignore_ascii_case(u)));
        to_json(&b).unwrap().into_bytes()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutated_envelopes_never_panic(
        edits in prop::collection::vec(
            (
                // overwrite / delete / insert, where, and which byte
                0usize..3,
                any::<usize>(),
                prop::sample::select(b"{}[]\",:-09.eEnulltrufas \\\xff".to_vec()),
            ),
            1..8,
        ),
    ) {
        let mut bytes = envelope().to_vec();
        for (op, at, b) in edits {
            let at = at % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] = b,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, b),
            }
        }
        if let Ok(bench) = from_json(&String::from_utf8_lossy(&bytes)) {
            prop_assert_eq!(bench.split(42).len(), bench.pairs.len());
            for v in &bench.vis_objects {
                prop_assert!(bench.database(&v.db_name).is_some(), "dangling db {}", v.db_name);
            }
        }
    }
}
