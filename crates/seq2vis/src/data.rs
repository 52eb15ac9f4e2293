//! Dataset preparation: (NL, VIS) pairs → token-id samples.
//!
//! Per the paper (§4.1), the encoder input is the NL token sequence
//! concatenated with the database schema tokens (`X = [q₁…q_l, a₁…a_m]`);
//! the decoder target is the linearized VIS query with literal values masked
//! to `<value>`.

use crate::values::mask_values;
use crate::vocab::{nl_tokens, Vocab};
use nv_core::NvBench;
use nv_data::Database;
use nv_nn::Sample;

/// Build the source token strings for one (nl, db) input.
pub fn source_tokens(nl: &str, db: &Database) -> Vec<String> {
    let mut toks = nl_tokens(nl);
    toks.push("<sep>".to_string());
    toks.extend(db.schema_tokens().iter().map(|t| t.to_lowercase()));
    toks
}

/// Build the masked target token strings for one vis tree.
pub fn target_tokens(tree: &nv_ast::VisQuery) -> Vec<String> {
    let (masked, _) = mask_values(&tree.to_tokens());
    masked
}

/// A prepared dataset: a shared vocab plus one sample per benchmark pair
/// (index-aligned with `bench.pairs`).
#[derive(Debug, Clone)]
pub struct Dataset {
    pub vocab: Vocab,
    pub samples: Vec<Sample>,
}

/// NL tokens seen fewer times than this across the benchmark become `<unk>`.
const MIN_FREQ: usize = 2;

/// Prepare the dataset for a benchmark. NL tokens seen fewer than twice
/// become `<unk>`; target-side tokens are always kept (the decoder must be
/// able to emit every VQL keyword and schema token it was trained on).
pub fn build_dataset(bench: &NvBench) -> Dataset {
    let mut src_streams: Vec<Vec<String>> = Vec::with_capacity(bench.pairs.len());
    let mut tgt_streams: Vec<Vec<String>> = Vec::with_capacity(bench.pairs.len());
    for pair in &bench.pairs {
        let vis = &bench.vis_objects[pair.vis_id];
        let db = bench.database(&vis.db_name).expect("pair db exists");
        src_streams.push(source_tokens(&pair.nl, db));
        tgt_streams.push(target_tokens(&vis.tree));
    }

    // Protect target tokens from the frequency cutoff by counting them with
    // a weight that always clears `MIN_FREQ`.
    let mut streams: Vec<&[String]> = Vec::new();
    for s in &src_streams {
        streams.push(s.as_slice());
    }
    for t in &tgt_streams {
        for _ in 0..MIN_FREQ {
            streams.push(t.as_slice());
        }
    }
    let vocab = Vocab::build(streams.into_iter(), MIN_FREQ);

    let samples = src_streams
        .iter()
        .zip(&tgt_streams)
        .map(|(s, t)| Sample { src: vocab.encode(s), tgt: vocab.encode(t) })
        .collect();

    Dataset { vocab, samples }
}

impl Dataset {
    /// Subset of samples by pair index.
    pub fn subset(&self, idx: &[usize]) -> Vec<Sample> {
        idx.iter().map(|&i| self.samples[i].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::SEP;
    use nv_core::{Nl2SqlToNl2Vis, SynthesizerConfig};
    use nv_spider::{CorpusConfig, SpiderCorpus};

    fn bench() -> NvBench {
        let corpus = SpiderCorpus::generate(&CorpusConfig::small(11));
        Nl2SqlToNl2Vis::new(SynthesizerConfig::default()).synthesize_corpus(&corpus).bench
    }

    #[test]
    fn dataset_is_aligned_and_decodable() {
        let b = bench();
        let ds = build_dataset(&b);
        assert_eq!(ds.samples.len(), b.pairs.len());
        assert!(ds.vocab.len() > 50);
        // Every target token is in-vocab (no <unk> on the decoder side).
        for (i, s) in ds.samples.iter().enumerate() {
            assert!(
                !s.tgt.contains(&crate::vocab::UNK),
                "pair {i} has unk in target: {:?}",
                ds.vocab.decode(&s.tgt)
            );
            assert!(!s.src.is_empty() && !s.tgt.is_empty());
        }
    }

    #[test]
    fn source_contains_sep_and_schema() {
        let b = bench();
        let ds = build_dataset(&b);
        let pair = &b.pairs[0];
        let vis = &b.vis_objects[pair.vis_id];
        let db = b.database(&vis.db_name).unwrap();
        let src = source_tokens(&pair.nl, db);
        let sep_pos = src.iter().position(|t| t == "<sep>").unwrap();
        assert!(sep_pos > 0 && sep_pos < src.len() - 1);
        // Schema tokens follow the separator.
        assert!(src[sep_pos + 1].contains('.'));
        assert_eq!(ds.samples[0].src[sep_pos], SEP);
    }

    #[test]
    fn targets_are_masked() {
        let b = bench();
        for v in &b.vis_objects {
            let t = target_tokens(&v.tree);
            for tok in &t {
                assert!(
                    nv_ast::tokens::parse_literal(tok)
                        .is_none_or(|l| matches!(l, nv_ast::Literal::Null | nv_ast::Literal::Bool(_))),
                    "unmasked literal {tok} in {}",
                    v.vql
                );
            }
        }
    }

    #[test]
    fn subset_selects_rows() {
        let b = bench();
        let ds = build_dataset(&b);
        let sub = ds.subset(&[0, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub[0], ds.samples[0]);
        assert_eq!(sub[1], ds.samples[2]);
    }
}
