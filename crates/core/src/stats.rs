//! Benchmark statistics — the computations behind Table 2, Table 3 and
//! Figures 8–10 of the paper — and the one `(hits, total)` fold
//! ([`tally`]) behind every per-key count and accuracy table.

use crate::benchmark::NvBench;
use nv_ast::{ChartType, Hardness};
use nv_data::ColumnType;
use nv_stats::{avg_pairwise_bleu, fit_best, outlier_fraction, simple_tokens, DistFamily, OutlierClass, SkewClass, Summary};
use std::collections::BTreeMap;

/// Table-2 style dataset statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    pub n_databases: usize,
    pub n_tables: usize,
    pub n_domains: usize,
    /// Domain → table count, sorted descending (the "Top-5 domains" row).
    pub domain_tables: Vec<(String, usize)>,
    pub n_columns: usize,
    pub avg_columns: f64,
    pub max_columns: usize,
    pub min_columns: usize,
    pub n_rows: usize,
    pub avg_rows: f64,
    pub max_rows: usize,
    pub min_rows: usize,
    /// Column-type counts (C, T, Q).
    pub type_counts: BTreeMap<char, usize>,
}

impl DatasetStats {
    pub fn of(bench: &NvBench) -> DatasetStats {
        let mut cols_per_table = Vec::new();
        let mut rows_per_table = Vec::new();
        let mut domains: std::collections::HashSet<&str> = Default::default();
        for db in &bench.databases {
            domains.insert(&db.domain);
            for t in &db.tables {
                cols_per_table.push(t.n_cols());
                rows_per_table.push(t.n_rows());
            }
        }
        let tables = bench.databases.iter().flat_map(|db| &db.tables);
        let type_counts = counts(tables.flat_map(|t| &t.schema.columns).map(|c| c.ctype.letter()));
        let table_domains =
            bench.databases.iter().flat_map(|db| db.tables.iter().map(|_| db.domain.clone()));
        let mut domain_tables: Vec<(String, usize)> = counts(table_domains).into_iter().collect();
        domain_tables.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let n_tables = cols_per_table.len();
        let n_columns: usize = cols_per_table.iter().sum();
        let n_rows: usize = rows_per_table.iter().sum();
        DatasetStats {
            n_databases: bench.databases.len(),
            n_tables,
            n_domains: domains.len(),
            domain_tables,
            n_columns,
            avg_columns: n_columns as f64 / n_tables.max(1) as f64,
            max_columns: cols_per_table.iter().copied().max().unwrap_or(0),
            min_columns: cols_per_table.iter().copied().min().unwrap_or(0),
            n_rows,
            avg_rows: n_rows as f64 / n_tables.max(1) as f64,
            max_rows: rows_per_table.iter().copied().max().unwrap_or(0),
            min_rows: rows_per_table.iter().copied().min().unwrap_or(0),
            type_counts,
        }
    }

    /// Fraction of columns with the given class letter.
    pub fn type_pct(&self, letter: char) -> f64 {
        let total: usize = self.type_counts.values().sum();
        if total == 0 {
            return 0.0;
        }
        *self.type_counts.get(&letter).unwrap_or(&0) as f64 / total as f64 * 100.0
    }
}

/// One Table-3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct ChartTypeRow {
    pub chart: ChartType,
    pub n_vis: usize,
    pub n_pairs: usize,
    pub pairs_per_vis: f64,
    pub avg_words: f64,
    pub max_words: usize,
    pub min_words: usize,
    /// Average pairwise BLEU of the NL variants for each vis (lower = more
    /// diverse).
    pub avg_bleu: f64,
}

/// Compute Table 3 (per chart type, plus an "All" row at the end).
pub fn table3(bench: &NvBench) -> Vec<ChartTypeRow> {
    let mut rows = Vec::new();
    let mut all_charts: Vec<Option<ChartType>> =
        ChartType::ALL.iter().copied().map(Some).collect();
    all_charts.push(None); // the "All types" row
    for chart in all_charts {
        let vis_ids: Vec<usize> = bench
            .vis_objects
            .iter()
            .filter(|v| chart.is_none() || Some(v.chart) == chart)
            .map(|v| v.vis_id)
            .collect();
        let vis_set: std::collections::HashSet<usize> = vis_ids.iter().copied().collect();
        let pairs: Vec<&crate::benchmark::NlVisPair> = bench
            .pairs
            .iter()
            .filter(|p| vis_set.contains(&p.vis_id))
            .collect();
        let word_counts: Vec<usize> =
            pairs.iter().map(|p| p.nl.split_whitespace().count()).collect();
        // BLEU: average over vis objects of the pairwise BLEU among their
        // variants.
        let mut bleu_sum = 0.0;
        let mut bleu_n = 0usize;
        for &vid in &vis_ids {
            let toks: Vec<Vec<String>> = pairs
                .iter()
                .filter(|p| p.vis_id == vid)
                .map(|p| simple_tokens(&p.nl))
                .collect();
            if toks.len() >= 2 {
                let refs: Vec<Vec<&str>> = toks
                    .iter()
                    .map(|t| t.iter().map(String::as_str).collect())
                    .collect();
                bleu_sum += avg_pairwise_bleu(&refs, 4);
                bleu_n += 1;
            }
        }
        rows.push(ChartTypeRow {
            chart: chart.unwrap_or(ChartType::Bar),
            n_vis: vis_ids.len(),
            n_pairs: pairs.len(),
            pairs_per_vis: pairs.len() as f64 / vis_ids.len().max(1) as f64,
            avg_words: word_counts.iter().sum::<usize>() as f64
                / word_counts.len().max(1) as f64,
            max_words: word_counts.iter().copied().max().unwrap_or(0),
            min_words: word_counts.iter().copied().min().unwrap_or(0),
            avg_bleu: if bleu_n > 0 { bleu_sum / bleu_n as f64 } else { 0.0 },
        });
    }
    rows
}

/// `(hits, total)` per key over `(key, hit)` outcomes: the one fold behind
/// every accuracy breakdown (Tables 4–5, Figure 17) and, through
/// [`counts`], every count-by-key table (Figures 10 and 16). Keys without
/// an outcome are absent, never `(0, 0)`.
pub fn tally<K: Ord>(outcomes: impl IntoIterator<Item = (K, bool)>) -> BTreeMap<K, (usize, usize)> {
    let mut m = BTreeMap::new();
    for (key, hit) in outcomes {
        let e = m.entry(key).or_insert((0, 0));
        e.0 += usize::from(hit);
        e.1 += 1;
    }
    m
}

/// Occurrences per key: the totals of [`tally`].
pub fn counts<K: Ord>(keys: impl IntoIterator<Item = K>) -> BTreeMap<K, usize> {
    tally(keys.into_iter().map(|k| (k, false)))
        .into_iter()
        .map(|(k, (_, n))| (k, n))
        .collect()
}

/// `hits / total`; 0 (never NaN) for an empty tally.
pub fn rate((hits, total): (usize, usize)) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// [`rate`] per key.
pub fn rates<K: Ord + Clone>(tallies: &BTreeMap<K, (usize, usize)>) -> BTreeMap<K, f64> {
    tallies.iter().map(|(k, &t)| (k.clone(), rate(t))).collect()
}

/// The tallies summed over every key.
pub fn overall<K>(tallies: &BTreeMap<K, (usize, usize)>) -> (usize, usize) {
    tallies.values().fold((0, 0), |(h, n), &(a, b)| (h + a, n + b))
}

/// Figure-10 matrix: vis counts by (chart type, hardness).
pub fn type_hardness_matrix(bench: &NvBench) -> BTreeMap<(ChartType, Hardness), usize> {
    counts(bench.vis_objects.iter().map(|v| (v.chart, v.hardness)))
}

/// Figure-9 column-level census over the quantitative columns of the
/// benchmark's databases.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnCensus {
    /// Distribution family → column count; `None` bucket under key `"None"`.
    pub fits: BTreeMap<String, usize>,
    pub skew: BTreeMap<SkewClass, usize>,
    pub outliers: BTreeMap<OutlierClass, usize>,
    pub n_quant_columns: usize,
}

pub fn column_census(bench: &NvBench) -> ColumnCensus {
    // One (fit, skew, outlier) class triple per quantitative column with
    // at least 5 numeric values; each column's values live only while it
    // is classified.
    let mut classes = Vec::new();
    for t in bench.databases.iter().flat_map(|db| &db.tables) {
        for (ci, col) in t.schema.columns.iter().enumerate() {
            if col.ctype != ColumnType::Quantitative {
                continue;
            }
            let values: Vec<f64> = t.rows.iter().filter_map(|r| r[ci].as_f64()).collect();
            if values.len() < 5 {
                continue;
            }
            let fit = fit_best(&values)
                .best
                .map(|f: DistFamily| f.abbrev().to_string())
                .unwrap_or_else(|| "None".into());
            let skew = Summary::of(&values).map(|s| s.skew_class());
            classes.push((fit, skew, OutlierClass::of(outlier_fraction(&values))));
        }
    }
    ColumnCensus {
        fits: counts(classes.iter().map(|(fit, _, _)| fit.clone())),
        skew: counts(classes.iter().filter_map(|(_, skew, _)| *skew)),
        outliers: counts(classes.iter().map(|(_, _, outliers)| *outliers)),
        n_quant_columns: classes.len(),
    }
}

/// Labeled histogram buckets: `(label, count)` per bucket.
pub type LabeledCounts = Vec<(String, usize)>;

/// Figure-8 histograms: tables bucketed by #columns and by #rows.
pub fn size_histograms(bench: &NvBench) -> (LabeledCounts, LabeledCounts) {
    let col_buckets = [(2usize, 3usize), (4, 5), (6, 7), (8, 10), (11, 1000)];
    let row_buckets: [(usize, usize); 6] =
        [(1, 4), (5, 20), (21, 100), (101, 500), (501, 2000), (2001, usize::MAX)];
    let mut cols: Vec<(String, usize)> = col_buckets
        .iter()
        .map(|(lo, hi)| {
            (
                if *hi >= 1000 { format!("{lo}+") } else { format!("{lo}-{hi}") },
                0,
            )
        })
        .collect();
    let mut rows: Vec<(String, usize)> = row_buckets
        .iter()
        .map(|(lo, hi)| {
            (
                if *hi == usize::MAX { format!("{lo}+") } else { format!("{lo}-{hi}") },
                0,
            )
        })
        .collect();
    for db in &bench.databases {
        for t in &db.tables {
            for (i, (lo, hi)) in col_buckets.iter().enumerate() {
                if (*lo..=*hi).contains(&t.n_cols()) {
                    cols[i].1 += 1;
                    break;
                }
            }
            for (i, (lo, hi)) in row_buckets.iter().enumerate() {
                if (*lo..=*hi).contains(&t.n_rows()) {
                    rows[i].1 += 1;
                    break;
                }
            }
        }
    }
    (cols, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Nl2SqlToNl2Vis, SynthesizerConfig};
    use nv_spider::{CorpusConfig, SpiderCorpus};

    fn bench() -> NvBench {
        let corpus = SpiderCorpus::generate(&CorpusConfig::small(7));
        Nl2SqlToNl2Vis::new(SynthesizerConfig::default()).synthesize_corpus(&corpus).bench
    }

    #[test]
    fn dataset_stats_consistent() {
        let b = bench();
        let s = DatasetStats::of(&b);
        assert_eq!(s.n_databases, 4);
        assert!(s.n_tables >= 12);
        assert!(s.n_columns > s.n_tables);
        assert!(s.avg_columns >= 2.0);
        assert!(s.min_columns >= 2);
        assert!(s.max_rows >= s.min_rows);
        let total_pct = s.type_pct('C') + s.type_pct('T') + s.type_pct('Q');
        assert!((total_pct - 100.0).abs() < 1e-9);
        // Categorical-heavy mix like the paper's.
        assert!(s.type_pct('C') > 50.0, "C = {}", s.type_pct('C'));
        assert!(!s.domain_tables.is_empty());
    }

    #[test]
    fn table3_rows_sum_to_all() {
        let b = bench();
        let rows = table3(&b);
        assert_eq!(rows.len(), 8);
        let all = rows.last().unwrap();
        let sum_vis: usize = rows[..7].iter().map(|r| r.n_vis).sum();
        let sum_pairs: usize = rows[..7].iter().map(|r| r.n_pairs).sum();
        assert_eq!(sum_vis, all.n_vis);
        assert_eq!(sum_pairs, all.n_pairs);
        assert!(all.n_vis > 0);
        assert!(all.avg_words > 5.0, "avg words {}", all.avg_words);
        assert!(all.avg_bleu > 0.0 && all.avg_bleu < 1.0, "bleu {}", all.avg_bleu);
    }

    #[test]
    fn type_hardness_matrix_covers_all_vis() {
        let b = bench();
        let m = type_hardness_matrix(&b);
        let total: usize = m.values().sum();
        assert_eq!(total, b.vis_objects.len());
    }

    #[test]
    fn tally_counts_hits_and_totals_per_key() {
        let t = tally([("a", true), ("b", false), ("a", false), ("a", true)]);
        assert_eq!(t, BTreeMap::from([("a", (2, 3)), ("b", (0, 1))]));
        assert_eq!(overall(&t), (2, 4));
        assert_eq!(rates(&t), BTreeMap::from([("a", 2.0 / 3.0), ("b", 0.0)]));
        assert_eq!(counts(["x", "y", "x"]), BTreeMap::from([("x", 2), ("y", 1)]));
        let empty = tally(std::iter::empty::<(u8, bool)>());
        assert!(empty.is_empty());
        assert_eq!(overall(&empty), (0, 0));
        assert_eq!(rate(overall(&empty)), 0.0);
    }

    #[test]
    fn census_runs_over_quant_columns() {
        let b = bench();
        let c = column_census(&b);
        assert!(c.n_quant_columns > 0);
        let fit_total: usize = c.fits.values().sum();
        assert_eq!(fit_total, c.n_quant_columns);
        let skew_total: usize = c.skew.values().sum();
        assert_eq!(skew_total, c.n_quant_columns);
    }

    #[test]
    fn histograms_cover_every_table() {
        let b = bench();
        let (cols, rows) = size_histograms(&b);
        let n_tables: usize = b.databases.iter().map(|d| d.tables.len()).sum();
        assert_eq!(cols.iter().map(|(_, c)| c).sum::<usize>(), n_tables);
        assert_eq!(rows.iter().map(|(_, c)| c).sum::<usize>(), n_tables);
    }
}
