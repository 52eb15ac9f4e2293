//! The nvBench container: synthesized visualizations, their (NL, VIS) pairs,
//! and dataset splits.

use nv_ast::{ChartType, Hardness, TreeEdit, VisQuery};
use nv_data::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One distinct synthesized visualization (a *vis object*).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VisObject {
    /// Dense id within the benchmark.
    pub vis_id: usize,
    pub db_name: String,
    /// The id of the source (NL, SQL) pair in the input corpus.
    pub source_pair_id: usize,
    /// The VIS tree.
    pub tree: VisQuery,
    /// Canonical VQL string of `tree` (the dedup key).
    pub vql: String,
    pub chart: ChartType,
    pub hardness: Hardness,
    /// The tree-edit record Δ that produced this tree.
    pub edit: TreeEdit,
    /// Whether NL synthesis required the (simulated) manual revision pass.
    pub needed_manual_nl: bool,
}

/// One (NL, VIS) pair of the benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NlVisPair {
    /// Dense id within the benchmark.
    pub pair_id: usize,
    /// Index into [`NvBench::vis_objects`].
    pub vis_id: usize,
    pub nl: String,
}

/// The synthesized NL2VIS benchmark.
#[derive(Debug, Clone)]
pub struct NvBench {
    pub databases: Vec<Database>,
    pub vis_objects: Vec<VisObject>,
    pub pairs: Vec<NlVisPair>,
}

impl NvBench {
    pub fn database(&self, name: &str) -> Option<&Database> {
        self.databases
            .iter()
            .find(|d| d.name.eq_ignore_ascii_case(name))
    }

    pub fn vis(&self, vis_id: usize) -> &VisObject {
        &self.vis_objects[vis_id]
    }

    /// Average NL variants per vis — Table 3's `#-(nl,vis)/#-vis`.
    pub fn variants_per_vis(&self) -> f64 {
        if self.vis_objects.is_empty() {
            return 0.0;
        }
        self.pairs.len() as f64 / self.vis_objects.len() as f64
    }

    /// Random pair-level split (Figure 16 / §4.2: 80% train, 4.5% val,
    /// 15.5% test).
    pub fn split(&self, seed: u64) -> Split {
        self.split_with(seed, 0.80, 0.045)
    }

    /// Split with explicit train/val fractions (test takes the remainder).
    pub fn split_with(&self, seed: u64, train_frac: f64, val_frac: f64) -> Split {
        let mut idx: Vec<usize> = (0..self.pairs.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        // Fisher–Yates.
        for i in (1..idx.len()).rev() {
            let j = rng.random_range(0..=i);
            idx.swap(i, j);
        }
        let n = idx.len();
        let n_train = ((n as f64) * train_frac).round() as usize;
        let n_val = ((n as f64) * val_frac).round() as usize;
        let train = idx[..n_train.min(n)].to_vec();
        let val = idx[n_train.min(n)..(n_train + n_val).min(n)].to_vec();
        let test = idx[(n_train + n_val).min(n)..].to_vec();
        Split { train, val, test }
    }
}

/// Pair-index split of the benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    pub train: Vec<usize>,
    pub val: Vec<usize>,
    pub test: Vec<usize>,
}

impl Split {
    pub fn len(&self) -> usize {
        self.train.len() + self.val.len() + self.test.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distribution of (chart type, hardness) over a subset of pairs — the
    /// Figure-16 heatmap.
    pub fn heatmap(bench: &NvBench, subset: &[usize]) -> Vec<((ChartType, Hardness), usize)> {
        crate::stats::counts(subset.iter().map(|&pi| {
            let vis = &bench.vis_objects[bench.pairs[pi].vis_id];
            (vis.chart, vis.hardness)
        }))
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_ast::tokens::parse_vql_str;

    fn mini_bench() -> NvBench {
        let tree = parse_vql_str(
            "visualize bar select t.a , count ( t.* ) from t group by t.a",
        )
        .unwrap();
        let vis_objects: Vec<VisObject> = (0..10)
            .map(|i| VisObject {
                vis_id: i,
                db_name: "db".into(),
                source_pair_id: i,
                vql: tree.to_vql(),
                chart: if i % 2 == 0 { ChartType::Bar } else { ChartType::Pie },
                hardness: Hardness::of(&tree),
                tree: tree.clone(),
                edit: TreeEdit::default(),
                needed_manual_nl: i % 3 == 0,
            })
            .collect();
        let pairs: Vec<NlVisPair> = (0..40)
            .map(|i| NlVisPair {
                pair_id: i,
                vis_id: i % 10,
                nl: format!("query {i}"),
            })
            .collect();
        NvBench { databases: vec![], vis_objects, pairs }
    }

    #[test]
    fn split_fractions() {
        let b = mini_bench();
        let s = b.split(42);
        assert_eq!(s.len(), 40);
        assert_eq!(s.train.len(), 32);
        assert_eq!(s.val.len(), 2);
        assert_eq!(s.test.len(), 6);
        // No overlap.
        let mut all: Vec<usize> = s.train.iter().chain(&s.val).chain(&s.test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn split_is_seeded() {
        let b = mini_bench();
        assert_eq!(b.split(1), b.split(1));
        assert_ne!(b.split(1).train, b.split(2).train);
    }

    #[test]
    fn heatmap_counts_pairs() {
        let b = mini_bench();
        let s = b.split(42);
        let hm = Split::heatmap(&b, &s.train);
        let total: usize = hm.iter().map(|(_, c)| c).sum();
        assert_eq!(total, s.train.len());
        assert!(hm.iter().any(|((c, _), _)| *c == ChartType::Pie));
    }

    #[test]
    fn accessors() {
        let b = mini_bench();
        assert_eq!(b.variants_per_vis(), 4.0);
        assert!(b.database("nope").is_none());
        assert_eq!(b.vis(2).vis_id, 2);
    }
}
