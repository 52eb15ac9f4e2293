//! What every workload shares: input sizes, the run outcome, timing loops,
//! trace capture, digests and the model-side set-up of `train`/`predict`.

use crate::report::Metrics;
use nvbench::core::{Nl2SqlToNl2Vis, NvBench, Split, SynthesizerConfig};
use nvbench::nn::ModelVariant;
use nvbench::seq2vis::{Dataset, Seq2Vis, Seq2VisConfig};
use nvbench::spider::{
    domain_templates, generate_database, QueryGen, QueryGenConfig, SpiderCorpus,
};
use nvbench::trace::TraceReport;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Input sizes of all three workloads.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// `synth` corpus: databases × (NL, SQL) pairs per database.
    pub synth_databases: usize,
    pub synth_pairs_per_db: usize,
    /// Leading corpus pairs checked against the sequential oracle.
    pub synth_check_pairs: usize,
    /// Leading corpus pairs timed layer by layer in a traced run.
    pub synth_layer_pairs: usize,
    /// Corpus behind the `train`/`predict` benchmark.
    pub model_databases: usize,
    pub model_pairs_per_db: usize,
    /// `train`: fixed train/val slices, epochs per variant, the probe
    /// slice of the thread-count check and the batch steps timed when traced.
    pub train_samples: usize,
    pub val_samples: usize,
    pub epochs: usize,
    pub probe_samples: usize,
    pub step_samples: usize,
    /// `predict`: fixed slice of test pairs.
    pub test_pairs: usize,
}

impl Sizes {
    /// The sizes `BENCHMARK.json`'s runs use.
    pub fn full() -> Sizes {
        Sizes {
            setup_reps: 3,
            synth_databases: 51,
            synth_pairs_per_db: 66,
            synth_check_pairs: 264,
            synth_layer_pairs: 1_200,
            model_databases: 12,
            model_pairs_per_db: 50,
            train_samples: 64,
            val_samples: 32,
            epochs: 2,
            probe_samples: 32,
            step_samples: 100,
            test_pairs: 96,
        }
    }

    /// Smallest sizes that still exercise every code path (harness tests).
    pub fn tiny() -> Sizes {
        Sizes {
            setup_reps: 1,
            synth_databases: 3,
            synth_pairs_per_db: 8,
            synth_check_pairs: 8,
            synth_layer_pairs: 24,
            model_databases: 4,
            model_pairs_per_db: 12,
            train_samples: 16,
            val_samples: 4,
            epochs: 1,
            probe_samples: 8,
            step_samples: 6,
            test_pairs: 4,
        }
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sizes: Sizes,
}

impl Run {
    /// Set-ups to time: `setup_s` is only reported untraced, so a traced
    /// run sets up once.
    pub fn setup_reps(&self) -> usize {
        if self.traced {
            1
        } else {
            self.sizes.setup_reps
        }
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks by name; any failure makes the whole run incorrect.
    pub checks: Vec<(String, bool)>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn check(&mut self, name: &str, passed: bool) {
        if !passed {
            eprintln!("nvperf: output check failed: {name}");
        }
        self.checks.push((name.to_string(), passed));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Run `f` repeatedly until `seconds` have passed and at least `min_reps`
/// runs are done; returns each run's seconds and result, and logs the
/// times to stderr under `label`.
pub fn repeat_for<T>(
    label: &str,
    seconds: f64,
    min_reps: usize,
    mut f: impl FnMut() -> T,
) -> Vec<(f64, T)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        out.push(timed(&mut f));
    }
    let secs: Vec<String> = out.iter().map(|r| format!("{:.3}", r.0)).collect();
    eprintln!(
        "nvperf: {label}: {} runs, seconds [{}]",
        out.len(),
        secs.join(" ")
    );
    out
}

/// The run's set-up, `reps` times: the median seconds and the last result.
/// Each earlier result is dropped before the next set-up starts.
pub fn setup_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (s, out) = timed(&mut f);
        secs.push(s);
        last = Some(out);
    }
    let shown: Vec<String> = secs.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!("nvperf: set-up: seconds [{}]", shown.join(" "));
    (
        crate::stats::median(&secs),
        last.expect("at least one set-up"),
    )
}

/// Run `f` with nv-trace armed and return what its probes recorded.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, TraceReport) {
    nvbench::trace::reset();
    nvbench::trace::enable();
    let out = f();
    nvbench::trace::disable();
    let report = nvbench::trace::report();
    nvbench::trace::reset();
    (out, report)
}

/// `hits / (hits + misses)` of one `ExecCache` layer in a trace report.
pub fn hit_rate(trace: &TraceReport, layer: &str) -> f64 {
    let hits = trace.counter(&format!("data.cache.{layer}.hits"));
    let misses = trace.counter(&format!("data.cache.{layer}.misses"));
    ratio(hits as f64, (hits + misses) as f64)
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a, for order-sensitive digests of program outputs.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Seed of the database fixture. Like Spider's fixed set of databases,
/// the databases are the same in every run; `--seed` draws the (NL, SQL)
/// pairs over them (and the splits), so a new seed varies the queries
/// without changing how much data each database holds.
pub const DATABASE_SEED: u64 = 42;

/// A Spider-style corpus of `n_databases` fixture databases (domain
/// templates cycled, as `SpiderCorpus::generate` does) with
/// `pairs_per_db` (NL, SQL) pairs each, drawn from `seed`.
pub fn corpus(n_databases: usize, pairs_per_db: usize, seed: u64) -> SpiderCorpus {
    let templates = domain_templates();
    let mut databases = Vec::with_capacity(n_databases);
    let mut pairs = Vec::with_capacity(n_databases * pairs_per_db);
    for i in 0..n_databases {
        let db = generate_database(&templates[i % templates.len()], i, DATABASE_SEED);
        let cfg = QueryGenConfig {
            n_pairs: pairs_per_db,
            ..Default::default()
        };
        pairs.extend(QueryGen::new(&db, seed ^ (i as u64 + 1), cfg).generate(pairs.len()));
        databases.push(db);
    }
    SpiderCorpus { databases, pairs }
}

/// The seq2vis model size of `reproduce quick`, with early stopping off so
/// every fit runs exactly `epochs` epochs.
pub fn model_config(variant: ModelVariant, epochs: usize) -> Seq2VisConfig {
    Seq2VisConfig {
        max_epochs: epochs,
        patience: epochs,
        ..Seq2VisConfig::tiny(variant)
    }
}

/// The synthesized benchmark `train` and `predict` work on.
pub struct ModelInputs {
    pub bench: NvBench,
    pub dataset: Dataset,
    pub split: Split,
}

/// Set-up of `train` and `predict`: generate a corpus from `seed`,
/// synthesize it on every core, and build the seq2vis dataset.
pub fn model_inputs(sizes: &Sizes, seed: u64) -> ModelInputs {
    let corpus = corpus(sizes.model_databases, sizes.model_pairs_per_db, seed);
    let cfg = SynthesizerConfig {
        threads: crate::host::nproc(),
        ..Default::default()
    };
    let bench = Nl2SqlToNl2Vis::new(cfg).synthesize_corpus(&corpus).bench;
    let (_, dataset) = Seq2Vis::prepare(&bench, model_config(ModelVariant::Basic, 1));
    let split = bench.split(seed);
    ModelInputs {
        bench,
        dataset,
        split,
    }
}

/// `seq2vis.prepare_ms` (`Seq2Vis::prepare`, the dataset build inside
/// set-up; median of three) and its share of the set-up time.
pub fn set_prepare_metrics(inputs: &ModelInputs, setup_s: f64, m: &mut Metrics) {
    let secs: Vec<f64> = (0..3)
        .map(|_| {
            timed(|| {
                black_box(Seq2Vis::prepare(
                    &inputs.bench,
                    model_config(ModelVariant::Basic, 1),
                ))
            })
            .0
        })
        .collect();
    let prepare_s = crate::stats::median(&secs);
    m.set("seq2vis.prepare_ms", prepare_s * 1e3);
    m.set("seq2vis.prepare.share", ratio(prepare_s, setup_s));
}

/// `n` indices of `idx`, spread evenly over the benchmark's tables:
/// round-robin over the (database, first table of the gold query) strata in
/// name order, each contributing its indices in `idx` order. A pair's cost
/// depends mostly on the size of the table it queries, so a fixed number of
/// pairs per table keeps the work of a slice steady across seeds. `None`
/// when `idx` holds fewer than `n` indices (the caller reports that as a
/// failed check).
pub fn per_table(bench: &NvBench, idx: &[usize], n: usize) -> Option<Vec<usize>> {
    let mut strata: BTreeMap<(&str, String), VecDeque<usize>> = BTreeMap::new();
    for &i in idx {
        let vis = &bench.vis_objects[bench.pairs[i].vis_id];
        let table = vis
            .tree
            .referenced_tables()
            .into_iter()
            .next()
            .unwrap_or_default();
        strata
            .entry((vis.db_name.as_str(), table))
            .or_default()
            .push_back(i);
    }
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let before = out.len();
        for queue in strata.values_mut() {
            if out.len() < n {
                out.extend(queue.pop_front());
            }
        }
        if out.len() == before {
            return None;
        }
    }
    Some(out)
}
