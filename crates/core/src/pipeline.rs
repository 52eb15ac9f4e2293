//! The end-to-end nl2sql-to-nl2vis pipeline (paper Figure 3).
//!
//! Input: an (NL, SQL) pair plus its database. Output: a set of (NL, VIS)
//! pairs. Per pair: parse the SQL into the unified AST (`nv-sql`), generate
//! candidate VIS trees by tree edits (`nv-synth::edits`), prune bad charts
//! with the DeepEye-style filter (`nv-synth::filter`), keep the top
//! candidates, and synthesize NL variants for each surviving tree
//! (`nv-synth::nledit`). Corpus-level driving assembles the [`NvBench`]
//! benchmark with global vis deduplication.

use crate::benchmark::{NlVisPair, NvBench, VisObject};
use crate::error::NvErrorKind;
use crate::par;
use nv_ast::Hardness;
use nv_data::{Database, ExecBudget, ExecCache, ExecError, ExecOptions};
use nv_quality::DeepEyeFilter;
use nv_spider::SpiderCorpus;
use nv_sql::{parse_sql, SqlError};
use nv_synth::{filter_candidates, generate_candidates, FilterStats, GoodVis, NlSynthesizer};
use serde::Serialize;
use std::collections::HashSet;

/// Keep at most this many good vis per input (NL, SQL) pair, picked by
/// filter score (the paper nets ~0.7 vis per Spider pair after filtering;
/// the cap keeps candidate-rich pairs from dominating).
const MAX_VIS_PER_PAIR: usize = 3;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct SynthesizerConfig {
    pub seed: u64,
    /// Worker threads for corpus synthesis (1 = run on the caller's
    /// thread). Output is bit-identical for any value: pairs are merged in
    /// input order and all randomness is seeded per pair.
    pub threads: usize,
    /// Executor resource budget applied to every candidate execution. The
    /// default is generous enough to be invisible on realistic corpora; a
    /// pair that exhausts it is quarantined instead of hanging the run.
    pub budget: ExecBudget,
}

impl Default for SynthesizerConfig {
    fn default() -> Self {
        SynthesizerConfig {
            seed: 42,
            threads: 1,
            budget: ExecBudget::default(),
        }
    }
}

/// Errors from synthesizing one pair.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    Sql(SqlError),
    UnknownDatabase(String),
    /// Candidate execution blew a resource budget or hit an internal
    /// invariant violation — systemic, so the whole pair is abandoned.
    Exec(ExecError),
    /// A panic was caught while synthesizing the pair (payload message).
    Panic(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Sql(e) => write!(f, "{e}"),
            PipelineError::UnknownDatabase(d) => write!(f, "unknown database '{d}'"),
            PipelineError::Exec(e) => write!(f, "{e}"),
            PipelineError::Panic(m) => write!(f, "caught panic: {m}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<SqlError> for PipelineError {
    fn from(e: SqlError) -> Self {
        PipelineError::Sql(e)
    }
}

impl From<ExecError> for PipelineError {
    fn from(e: ExecError) -> Self {
        PipelineError::Exec(e)
    }
}

impl PipelineError {
    /// The pipeline stage the error surfaced in (recorded in quarantine).
    pub fn stage(&self) -> SynthStage {
        match self {
            PipelineError::UnknownDatabase(_) => SynthStage::Lookup,
            PipelineError::Sql(_) => SynthStage::Parse,
            PipelineError::Exec(_) => SynthStage::Filter,
            PipelineError::Panic(_) => SynthStage::Isolation,
        }
    }

    /// The failure family recorded in the quarantine ledger.
    pub fn kind(&self) -> NvErrorKind {
        match self {
            PipelineError::Sql(SqlError::Resolve(_))
            | PipelineError::UnknownDatabase(_)
            | PipelineError::Exec(ExecError::UnknownTable(_) | ExecError::UnknownColumn(_)) => {
                NvErrorKind::Schema
            }
            PipelineError::Sql(_) => NvErrorKind::Parse,
            PipelineError::Exec(ExecError::ResourceExhausted(_)) => NvErrorKind::ResourceExhausted,
            PipelineError::Exec(ExecError::Internal(_)) | PipelineError::Panic(_) => {
                NvErrorKind::Internal
            }
            PipelineError::Exec(_) => NvErrorKind::Exec,
        }
    }
}

/// Where in the per-pair pipeline a quarantined failure surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SynthStage {
    /// Resolving the pair's database by name.
    Lookup,
    /// Parsing the pair's SQL into the unified AST.
    Parse,
    /// Executing and filtering candidate visualizations.
    Filter,
    /// A caught panic — the precise stage inside the pair is unknown; the
    /// panic-isolation layer attributes it to the pair as a whole.
    Isolation,
}

impl SynthStage {
    /// Stable lower-snake-case label (what quarantine.json records).
    pub fn label(self) -> &'static str {
        match self {
            SynthStage::Lookup => "lookup",
            SynthStage::Parse => "parse",
            SynthStage::Filter => "filter",
            SynthStage::Isolation => "isolation",
        }
    }
}

/// One quarantined input pair: why it was dropped and what it cost.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuarantineEntry {
    /// Id of the input (NL, SQL) pair in the source corpus.
    pub pair_id: usize,
    pub db_name: String,
    pub stage: SynthStage,
    /// Failure family from the workspace error taxonomy.
    pub error_kind: NvErrorKind,
    /// The rendered error (or panic payload) message.
    pub error: String,
    /// Wall-clock time spent on the pair before it failed, in microseconds.
    pub elapsed_us: u64,
}

/// The result of corpus synthesis: the benchmark plus the fault ledger.
///
/// Every input pair is accounted for exactly once: it either contributed a
/// digest in [`pair_digests`](CorpusSynthesis::pair_digests) (possibly an
/// empty synthesis — digests exist even for pairs yielding zero vis) or an
/// entry in [`quarantine`](CorpusSynthesis::quarantine), never both.
#[derive(Debug, Clone)]
pub struct CorpusSynthesis {
    pub bench: NvBench,
    /// Pairs that failed (bad SQL, blown budget, caught panic …), with the
    /// stage, classified error, and elapsed time of each — in corpus order.
    pub quarantine: Vec<QuarantineEntry>,
    /// Per input pair (position `i` ↔ `corpus.pairs[i]`): a digest of the
    /// pair's *pre-deduplication* synthesis output, or `None` if the pair
    /// was quarantined. Because the benchmark applies global (db, VQL)
    /// deduplication, a quarantined pair can shift which later pair "wins"
    /// a duplicate vis — these digests let tests assert that clean pairs
    /// are bit-identical between runs even when the quarantine set differs.
    pub pair_digests: Vec<Option<u64>>,
}

/// The result of synthesizing one (NL, SQL) pair.
#[derive(Debug, Clone)]
pub struct PairSynthesis {
    /// Kept visualizations with their NL variants.
    pub outputs: Vec<(GoodVis, Vec<String>, bool)>,
    pub filter_stats: FilterStats,
}

/// The nl2sql-to-nl2vis synthesizer.
pub struct Nl2SqlToNl2Vis {
    filter: DeepEyeFilter,
    cfg: SynthesizerConfig,
}

impl Nl2SqlToNl2Vis {
    pub fn new(cfg: SynthesizerConfig) -> Nl2SqlToNl2Vis {
        Nl2SqlToNl2Vis { filter: DeepEyeFilter::new(cfg.seed), cfg }
    }

    /// Synthesize the (NL, VIS) pairs for one input pair.
    pub fn synthesize_pair(
        &self,
        db: &Database,
        nl: &str,
        sql: &str,
        nl_seed: u64,
    ) -> Result<PairSynthesis, PipelineError> {
        self.synthesize_pair_impl(db, nl, sql, nl_seed, None)
    }

    /// [`synthesize_pair`](Self::synthesize_pair) executing candidates
    /// through a per-database [`ExecCache`]; identical output, shared scan
    /// work across the pair's candidates (and across pairs on the same
    /// database when the cache is reused).
    pub fn synthesize_pair_cached(
        &self,
        db: &Database,
        nl: &str,
        sql: &str,
        nl_seed: u64,
        cache: &mut ExecCache,
    ) -> Result<PairSynthesis, PipelineError> {
        self.synthesize_pair_impl(db, nl, sql, nl_seed, Some(cache))
    }

    fn synthesize_pair_impl(
        &self,
        db: &Database,
        nl: &str,
        sql: &str,
        nl_seed: u64,
        cache: Option<&mut ExecCache>,
    ) -> Result<PairSynthesis, PipelineError> {
        let _pair = nv_trace::span("pair");
        let sql_tree = {
            let _s = nv_trace::span("parse");
            parse_sql(db, sql)?
        };
        let candidates = {
            let _s = nv_trace::span("edits");
            generate_candidates(db, &sql_tree)
        };
        let (good, filter_stats) = {
            let _s = nv_trace::span("filter");
            let opts = ExecOptions { cache, budget: self.cfg.budget };
            filter_candidates(db, candidates, &self.filter, opts)?
        };

        // Rank survivors by filter score (carried from the filtering pass,
        // not recomputed), with a bonus for deletion-free edits (their NL
        // needs no manual revision — the paper's synthesizer keeps manual
        // work at ~25% of vis objects) — then select with chart-type
        // diversity: the best chart of each distinct type first, remaining
        // slots by score.
        let mut scored: Vec<(f64, GoodVis)> = good
            .into_iter()
            .map(|g| {
                let rank =
                    g.score + if g.candidate.edit.deletion_count() == 0 { 0.5 } else { 0.0 };
                (rank, g)
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut kept: Vec<GoodVis> = Vec::new();
        let mut seen_types: std::collections::HashSet<_> = Default::default();
        let mut leftovers: Vec<GoodVis> = Vec::new();
        for (_, g) in scored {
            if kept.len() >= MAX_VIS_PER_PAIR {
                break;
            }
            if seen_types.insert(g.chart) {
                kept.push(g);
            } else {
                leftovers.push(g);
            }
        }
        for g in leftovers {
            if kept.len() >= MAX_VIS_PER_PAIR {
                break;
            }
            kept.push(g);
        }

        let mut synth = NlSynthesizer::new(self.cfg.seed ^ nl_seed);
        let _nledit = nv_trace::span("nledit");
        let outputs = kept
            .into_iter()
            .map(|g| {
                let res = synth.synthesize(db, nl, &g.candidate);
                let mut variants = res.variants;
                // Deletion-edited vis get fewer NL variants — mirroring the
                // paper, where the manual pass wrote ~1.9 variants per such
                // vis against ~3.75 overall.
                if res.needs_manual_revision {
                    variants.truncate(2);
                }
                (g, variants, res.needs_manual_revision)
            })
            .collect();
        drop(_nledit);
        Ok(PairSynthesis { outputs, filter_stats })
    }

    /// Drive the pipeline over a whole corpus, assembling the benchmark with
    /// global (db, VQL) deduplication of vis objects and a quarantine ledger
    /// for every pair that failed.
    ///
    /// Pairs are synthesized by `cfg.threads` workers pulling from a shared
    /// work queue; results are merged in input order, so the benchmark —
    /// vis ids, pair ids, dedup outcomes, NL variants — is bit-identical to
    /// [`synthesize_corpus_sequential`](Self::synthesize_corpus_sequential)
    /// for any thread count.
    ///
    /// Each worker holds one [`ExecCache`], which starts a fresh memo
    /// whenever the worker's next pair is on another database, so it holds
    /// one database's entries at a time. That loses no hits when the corpus
    /// lists each database's pairs contiguously, as every corpus this
    /// workspace builds does: workers claim pairs in increasing index
    /// order, so none returns to a database it has left. An interleaved
    /// corpus gives the same output with fewer hits.
    ///
    /// Fault isolation: each pair runs under `catch_unwind`; a panicking
    /// pair is quarantined (stage [`SynthStage::Isolation`]) and its
    /// worker's cache is rebuilt, so one poisoned pair can never take
    /// down the run or corrupt a neighbour's output.
    pub fn synthesize_corpus(&self, corpus: &SpiderCorpus) -> CorpusSynthesis {
        let results = par::map_ordered_isolated(
            &corpus.pairs,
            self.cfg.threads,
            ExecCache::new,
            |cache, pair| {
                let db = corpus
                    .database(&pair.db_name)
                    .ok_or_else(|| PipelineError::UnknownDatabase(pair.db_name.clone()))?;
                self.synthesize_pair_cached(db, &pair.nl, &pair.sql, pair.id as u64, cache)
            },
        );
        self.quarantine_and_assemble(corpus, results)
    }

    /// The single-threaded, uncached reference path — the oracle the
    /// parallel engine is tested against. Shares the isolation, quarantine,
    /// and assembly code with [`synthesize_corpus`](Self::synthesize_corpus)
    /// so the two cannot drift apart.
    pub fn synthesize_corpus_sequential(&self, corpus: &SpiderCorpus) -> CorpusSynthesis {
        let results = par::map_ordered_isolated(
            &corpus.pairs,
            1,
            || (),
            |_, pair| {
                let db = corpus
                    .database(&pair.db_name)
                    .ok_or_else(|| PipelineError::UnknownDatabase(pair.db_name.clone()))?;
                self.synthesize_pair(db, &pair.nl, &pair.sql, pair.id as u64)
            },
        );
        self.quarantine_and_assemble(corpus, results)
    }

    /// Classify per-pair outcomes into kept results + quarantine entries,
    /// digest the kept ones, and assemble the benchmark.
    fn quarantine_and_assemble(
        &self,
        corpus: &SpiderCorpus,
        results: Vec<par::Isolated<Result<PairSynthesis, PipelineError>>>,
    ) -> CorpusSynthesis {
        let mut quarantine: Vec<QuarantineEntry> = Vec::new();
        let mut pair_digests: Vec<Option<u64>> = Vec::with_capacity(results.len());
        let mut kept: Vec<Option<PairSynthesis>> = Vec::with_capacity(results.len());

        for (pair, iso) in corpus.pairs.iter().zip(results) {
            let outcome = match iso.result {
                Ok(r) => r,
                Err(panic_msg) => Err(PipelineError::Panic(panic_msg)),
            };
            nv_trace::count("synth.pairs", 1);
            match outcome {
                Ok(ps) => {
                    pair_digests.push(Some(pair_digest(&ps)));
                    kept.push(Some(ps));
                }
                Err(e) => {
                    let (stage, kind) = (e.stage(), e.kind());
                    if nv_trace::enabled() {
                        nv_trace::count(&format!("synth.quarantined.{}", kind.label()), 1);
                    }
                    // The ledger records a panic's bare payload.
                    let msg = match e {
                        PipelineError::Panic(m) => m,
                        e => e.to_string(),
                    };
                    quarantine.push(QuarantineEntry {
                        pair_id: pair.id,
                        db_name: pair.db_name.clone(),
                        stage,
                        error_kind: kind,
                        error: format!("[{}] {msg}", kind.label()),
                        elapsed_us: iso.elapsed_us,
                    });
                    pair_digests.push(None);
                    kept.push(None);
                }
            }
        }

        let bench = self.assemble(corpus, kept);
        CorpusSynthesis { bench, quarantine, pair_digests }
    }

    /// Merge per-pair results (in corpus order) into the benchmark with
    /// global (db, VQL) deduplication — shared by the sequential and
    /// parallel drivers so they cannot drift apart.
    fn assemble(&self, corpus: &SpiderCorpus, results: Vec<Option<PairSynthesis>>) -> NvBench {
        let mut vis_objects: Vec<VisObject> = Vec::new();
        let mut pairs: Vec<NlVisPair> = Vec::new();
        let mut seen: HashSet<(String, String)> = HashSet::new();

        for (pair, result) in corpus.pairs.iter().zip(results) {
            let Some(result) = result else { continue };
            for (good, variants, needed_manual) in result.outputs {
                let vql = good.candidate.tree.to_vql();
                if !seen.insert((pair.db_name.clone(), vql.clone())) {
                    continue; // identical vis already synthesized from another pair
                }
                let vis_id = vis_objects.len();
                vis_objects.push(VisObject {
                    vis_id,
                    db_name: pair.db_name.clone(),
                    source_pair_id: pair.id,
                    chart: good.chart,
                    hardness: Hardness::of(&good.candidate.tree),
                    vql,
                    tree: good.candidate.tree,
                    edit: good.candidate.edit,
                    needed_manual_nl: needed_manual,
                });
                for nl in variants {
                    pairs.push(NlVisPair { pair_id: pairs.len(), vis_id, nl });
                }
            }
        }

        nv_trace::count("synth.vis", vis_objects.len() as u64);
        nv_trace::count("synth.nl", pairs.len() as u64);
        NvBench { databases: corpus.databases.clone(), vis_objects, pairs }
    }
}

/// Digest one pair's pre-deduplication synthesis output (FNV-1a over the
/// kept VQL strings, scores, NL variants, manual flags, and filter stats).
/// Two runs in which a pair saw identical inputs and took identical
/// decisions produce the same digest — regardless of what *other* pairs did.
fn pair_digest(ps: &PairSynthesis) -> u64 {
    let mut h = nv_fault::Fnv::default();
    h.u64(ps.outputs.len() as u64);
    for (good, variants, manual) in &ps.outputs {
        h.str(&good.candidate.tree.to_vql());
        h.u64(good.score.to_bits());
        h.u64(variants.len() as u64);
        for v in variants {
            h.str(v);
        }
        h.u64(*manual as u64);
    }
    for n in [
        ps.filter_stats.total,
        ps.filter_stats.kept,
        ps.filter_stats.failed_exec,
        ps.filter_stats.pruned,
    ] {
        h.u64(n as u64);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_data::{table_from, ColumnType, Value};
    use nv_spider::CorpusConfig;

    fn db() -> Database {
        let mut db = Database::new("d", "Demo");
        db.add_table(table_from(
            "student",
            &[
                ("major", ColumnType::Categorical),
                ("gpa", ColumnType::Quantitative),
                ("age", ColumnType::Quantitative),
            ],
            (0..30)
                .map(|i| {
                    vec![
                        Value::text(["cs", "math", "bio", "art"][i % 4]),
                        Value::Float(2.0 + (i % 8) as f64 / 4.0),
                        Value::Int(18 + (i % 10) as i64),
                    ]
                })
                .collect(),
        ));
        db
    }

    #[test]
    fn pair_synthesis_produces_nl_vis_pairs() {
        let s = Nl2SqlToNl2Vis::new(SynthesizerConfig::default());
        let result = s
            .synthesize_pair(
                &db(),
                "What is the average gpa for each major?",
                "SELECT major, AVG(gpa) FROM student GROUP BY major",
                1,
            )
            .unwrap();
        assert!(!result.outputs.is_empty());
        assert!(result.filter_stats.total > 0);
        for (good, variants, _) in &result.outputs {
            assert!(good.candidate.tree.is_vis());
            assert!(!variants.is_empty());
        }
    }

    #[test]
    fn per_pair_cap_respected() {
        // A pair with more good charts than the cap keeps exactly the cap.
        let s = Nl2SqlToNl2Vis::new(SynthesizerConfig::default());
        let result = s
            .synthesize_pair(
                &db(),
                "Show major, gpa and age of students.",
                "SELECT major, gpa, age FROM student",
                1,
            )
            .unwrap();
        assert!(result.filter_stats.kept > MAX_VIS_PER_PAIR, "{:?}", result.filter_stats);
        assert_eq!(result.outputs.len(), MAX_VIS_PER_PAIR);
    }

    #[test]
    fn bad_sql_is_an_error() {
        let s = Nl2SqlToNl2Vis::new(SynthesizerConfig::default());
        let e = s.synthesize_pair(&db(), "x", "SELECT nothing FROM ghost", 1);
        assert!(matches!(e, Err(PipelineError::Sql(_))));
    }

    #[test]
    fn corpus_synthesis_dedups_and_indexes() {
        let corpus = SpiderCorpus::generate(&CorpusConfig::small(3));
        let s = Nl2SqlToNl2Vis::new(SynthesizerConfig::default());
        let synthesis = s.synthesize_corpus(&corpus);
        // Every input pair is accounted for exactly once.
        assert_eq!(synthesis.pair_digests.len(), corpus.pairs.len());
        let quarantined = synthesis.pair_digests.iter().filter(|d| d.is_none()).count();
        assert_eq!(quarantined, synthesis.quarantine.len());
        let bench = synthesis.bench;
        assert!(!bench.vis_objects.is_empty());
        assert!(bench.pairs.len() >= bench.vis_objects.len());
        // Dense ids.
        for (i, v) in bench.vis_objects.iter().enumerate() {
            assert_eq!(v.vis_id, i);
        }
        for (i, p) in bench.pairs.iter().enumerate() {
            assert_eq!(p.pair_id, i);
            assert!(p.vis_id < bench.vis_objects.len());
        }
        // (db, vql) unique.
        let mut keys = HashSet::new();
        for v in &bench.vis_objects {
            assert!(keys.insert((v.db_name.clone(), v.vql.clone())));
        }
        // Average variants per vis in the paper's ballpark (2–6).
        let vpv = bench.variants_per_vis();
        assert!((2.0..=6.0).contains(&vpv), "{vpv}");
    }

    #[test]
    fn corpus_synthesis_is_deterministic() {
        let corpus = SpiderCorpus::generate(&CorpusConfig::small(4));
        let s = Nl2SqlToNl2Vis::new(SynthesizerConfig::default());
        let a = s.synthesize_corpus(&corpus);
        let b = s.synthesize_corpus(&corpus);
        assert_eq!(a.bench.pairs, b.bench.pairs);
        assert_eq!(a.bench.vis_objects.len(), b.bench.vis_objects.len());
        assert_eq!(a.pair_digests, b.pair_digests);
        // Quarantine is deterministic up to elapsed time.
        let key = |q: &QuarantineEntry| (q.pair_id, q.stage, q.error_kind, q.error.clone());
        assert_eq!(
            a.quarantine.iter().map(key).collect::<Vec<_>>(),
            b.quarantine.iter().map(key).collect::<Vec<_>>()
        );
    }

    /// The tentpole guarantee: the parallel + cached engine reproduces the
    /// sequential uncached oracle pair-for-pair and vis-for-vis.
    #[test]
    fn parallel_matches_sequential_oracle() {
        let corpus = SpiderCorpus::generate(&CorpusConfig::small(8));
        let oracle = Nl2SqlToNl2Vis::new(SynthesizerConfig::default())
            .synthesize_corpus_sequential(&corpus);
        for threads in [1, 4] {
            let cfg = SynthesizerConfig { threads, ..Default::default() };
            let synthesis = Nl2SqlToNl2Vis::new(cfg).synthesize_corpus(&corpus);
            assert_eq!(synthesis.pair_digests, oracle.pair_digests, "threads={threads}");
            let (got, oracle) = (&synthesis.bench, &oracle.bench);
            assert_eq!(got.pairs, oracle.pairs, "threads={threads}");
            assert_eq!(got.vis_objects.len(), oracle.vis_objects.len());
            for (a, b) in got.vis_objects.iter().zip(&oracle.vis_objects) {
                assert_eq!(a.vis_id, b.vis_id);
                assert_eq!(a.db_name, b.db_name);
                assert_eq!(a.source_pair_id, b.source_pair_id);
                assert_eq!(a.vql, b.vql);
                assert_eq!(a.chart, b.chart);
                assert_eq!(a.hardness, b.hardness);
                assert_eq!(a.needed_manual_nl, b.needed_manual_nl);
            }
        }
    }

    /// Pairs dealt round-robin across databases (A, B, C, A, B, …) make
    /// every worker switch database on nearly every pair. On each switch
    /// `ExecCache::bind` drops the worker cache's memo and starts afresh,
    /// so no scan of one database serves another and output matches the
    /// oracle.
    #[test]
    fn interleaved_databases_match_sequential_oracle() {
        let mut corpus = SpiderCorpus::generate(&CorpusConfig::small(8));
        let mut nth: std::collections::HashMap<String, usize> = Default::default();
        let mut dealt: Vec<(usize, nv_spider::SpiderPair)> = corpus
            .pairs
            .drain(..)
            .map(|p| {
                let n = nth.entry(p.db_name.clone()).or_default();
                *n += 1;
                (*n, p)
            })
            .collect();
        // Stable, so each round keeps the databases' corpus order.
        dealt.sort_by_key(|(n, _)| *n);
        corpus.pairs = dealt.into_iter().map(|(_, p)| p).collect();
        assert_ne!(corpus.pairs[0].db_name, corpus.pairs[1].db_name);

        let oracle = Nl2SqlToNl2Vis::new(SynthesizerConfig::default())
            .synthesize_corpus_sequential(&corpus);
        for threads in [1, 4] {
            let cfg = SynthesizerConfig { threads, ..Default::default() };
            let out = Nl2SqlToNl2Vis::new(cfg).synthesize_corpus(&corpus);
            assert!(out.quarantine.is_empty(), "threads={threads}: {:?}", out.quarantine);
            assert_eq!(out.pair_digests, oracle.pair_digests, "threads={threads}");
            assert_eq!(out.bench.pairs, oracle.bench.pairs, "threads={threads}");
        }
    }

    /// Cached pair synthesis is output-identical to the plain path.
    #[test]
    fn cached_pair_matches_uncached() {
        let s = Nl2SqlToNl2Vis::new(SynthesizerConfig::default());
        let d = db();
        let plain = s
            .synthesize_pair(
                &d,
                "What is the average gpa for each major?",
                "SELECT major, AVG(gpa) FROM student GROUP BY major",
                1,
            )
            .unwrap();
        let mut cache = ExecCache::new();
        let cached = s
            .synthesize_pair_cached(
                &d,
                "What is the average gpa for each major?",
                "SELECT major, AVG(gpa) FROM student GROUP BY major",
                1,
                &mut cache,
            )
            .unwrap();
        assert_eq!(plain.filter_stats, cached.filter_stats);
        assert_eq!(plain.outputs.len(), cached.outputs.len());
        for ((ga, va, ma), (gb, vb, mb)) in plain.outputs.iter().zip(&cached.outputs) {
            assert_eq!(ga.candidate.tree.to_vql(), gb.candidate.tree.to_vql());
            assert_eq!(ga.score, gb.score);
            assert_eq!(va, vb);
            assert_eq!(ma, mb);
        }
        assert!(cache.stats.hits() + cache.stats.misses() > 0);
    }

    /// The parallel driver requires these to cross threads by reference.
    #[test]
    fn synthesis_types_are_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<SpiderCorpus>();
        assert_sync::<Nl2SqlToNl2Vis>();
        assert_sync::<Database>();
    }

    /// A corpus with poisoned pairs: the bad pairs land in quarantine with
    /// the right stage and kind, the good pairs still synthesize, and the
    /// accounting (digests + quarantine = corpus) balances.
    #[test]
    fn bad_pairs_are_quarantined_not_fatal() {
        let mut corpus = SpiderCorpus::generate(&CorpusConfig::small(3));
        let n = corpus.pairs.len();
        assert!(n >= 2, "need at least two pairs");
        corpus.pairs[0].sql = "SELECT FROM WHERE (((".to_string(); // parse failure
        corpus.pairs[1].db_name = "no_such_db".to_string(); // lookup failure

        for threads in [1, 4] {
            let cfg = SynthesizerConfig { threads, ..Default::default() };
            let out = Nl2SqlToNl2Vis::new(cfg).synthesize_corpus(&corpus);
            assert_eq!(out.pair_digests.len(), n);
            assert_eq!(out.quarantine.len(), 2, "threads={threads}");
            assert_eq!(out.quarantine[0].pair_id, corpus.pairs[0].id);
            assert_eq!(out.quarantine[0].stage, SynthStage::Parse);
            assert_eq!(out.quarantine[0].error_kind, NvErrorKind::Parse);
            assert_eq!(out.quarantine[1].pair_id, corpus.pairs[1].id);
            assert_eq!(out.quarantine[1].stage, SynthStage::Lookup);
            assert_eq!(out.quarantine[1].error_kind, NvErrorKind::Schema);
            assert!(out.pair_digests[0].is_none());
            assert!(out.pair_digests[1].is_none());
            assert!(out.pair_digests[2..].iter().all(|d| d.is_some()));
            assert!(!out.bench.vis_objects.is_empty());
        }
    }

    /// A starved executor budget quarantines the pair with
    /// `ResourceExhausted` instead of hanging or panicking.
    #[test]
    fn exhausted_budget_quarantines_the_pair() {
        let corpus = SpiderCorpus::generate(&CorpusConfig::small(2));
        let cfg = SynthesizerConfig {
            budget: nv_data::ExecBudget { fuel: 1, ..Default::default() },
            ..Default::default()
        };
        let out = Nl2SqlToNl2Vis::new(cfg).synthesize_corpus(&corpus);
        assert!(!out.quarantine.is_empty());
        for q in &out.quarantine {
            assert_eq!(q.stage, SynthStage::Filter);
            assert_eq!(q.error_kind, NvErrorKind::ResourceExhausted);
        }
    }

    /// Every row of the quarantine kind mapping.
    #[test]
    fn kinds_map_from_pipeline_errors() {
        use NvErrorKind::*;
        let s = |m: &str| m.to_string();
        let cases = [
            (PipelineError::Sql(SqlError::Lex(nv_sql::LexError { at: 0, message: s("?") })), Parse),
            (PipelineError::Sql(SqlError::Parse { at: 3, message: s("boom") }), Parse),
            (PipelineError::Sql(SqlError::Resolve(s("no col"))), Schema),
            (PipelineError::UnknownDatabase(s("ghost")), Schema),
            (PipelineError::Exec(ExecError::UnknownTable(s("t"))), Schema),
            (PipelineError::Exec(ExecError::UnknownColumn(s("c"))), Schema),
            (PipelineError::Exec(ExecError::TypeError(s("x"))), Exec),
            (PipelineError::Exec(ExecError::Unsupported(s("x"))), Exec),
            (PipelineError::Exec(ExecError::ArityMismatch { left: 1, right: 2 }), Exec),
            (PipelineError::Exec(ExecError::ResourceExhausted(s("fuel"))), ResourceExhausted),
            (PipelineError::Exec(ExecError::Internal(s("injected"))), Internal),
            (PipelineError::Panic(s("boom")), Internal),
        ];
        for (e, kind) in cases {
            assert_eq!(e.kind(), kind, "{e:?}");
        }
    }

    /// Quarantine entries serialize to the documented JSON shape.
    #[test]
    fn quarantine_entry_serializes() {
        let q = QuarantineEntry {
            pair_id: 7,
            db_name: "d".into(),
            stage: SynthStage::Parse,
            error_kind: NvErrorKind::Parse,
            error: "boom".into(),
            elapsed_us: 12,
        };
        let v = serde_json::to_value(&q).unwrap();
        assert_eq!(v["pair_id"], serde_json::json!(7));
        assert_eq!(v["stage"], serde_json::json!("Parse"));
        assert_eq!(v["error_kind"], serde_json::json!("Parse"));
    }
}
