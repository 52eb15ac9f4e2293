//! Golden corpus snapshots: the full observable output of corpus synthesis
//! — per-pair digests, hardness histogram, chart distribution, and every
//! VQL line — frozen under `tests/golden/`. Any change to the executor,
//! filters, or tree edits that silently shifts the synthesized benchmark
//! fails here with a readable line diff.
//!
//! To bless an intentional change:
//!
//! ```text
//! scripts/ci.sh golden --bless        # or: GOLDEN_BLESS=1 cargo test --test golden_snapshots
//! ```

use std::fs;
use std::path::PathBuf;

use nv_oracle::{corpus_snapshot, diff_lines, snapshot_vis_lines};
use nvbench::ast::{tokens, Hardness};

/// Seeds frozen under `tests/golden/`. Two seeds so a change that happens to
/// cancel out on one input stream still trips the other.
const GOLDEN_SEEDS: [u64; 2] = [3, 8];

fn golden_path(seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("corpus_seed{seed}.txt"))
}

fn blessing() -> bool {
    std::env::var("GOLDEN_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Each golden file matches a fresh synthesis byte-for-byte. With
/// `GOLDEN_BLESS=1` the files are rewritten instead and the test verifies
/// the write round-trips identically.
#[test]
fn corpus_snapshots_match_golden_files() {
    for seed in GOLDEN_SEEDS {
        let actual = corpus_snapshot(seed);
        let path = golden_path(seed);
        if blessing() {
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(&path, &actual).unwrap();
            let back = fs::read_to_string(&path).unwrap();
            assert_eq!(back, actual, "blessed snapshot did not round-trip: {path:?}");
            eprintln!("blessed {}", path.display());
            continue;
        }
        let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {path:?} ({e}) — run `scripts/ci.sh golden --bless`"
            )
        });
        assert!(
            expected == actual,
            "corpus snapshot for seed {seed} drifted from {path:?}.\n\
             If the change is intentional, re-bless with `scripts/ci.sh golden --bless`.\n\
             Diff (expected vs actual):\n{}",
            diff_lines(&expected, &actual)
        );
    }
}

/// Synthesis is deterministic: rendering the same seed twice in one process
/// produces identical snapshots (golden files would flap otherwise).
#[test]
fn snapshot_rendering_is_stable() {
    for seed in GOLDEN_SEEDS {
        assert_eq!(corpus_snapshot(seed), corpus_snapshot(seed), "seed {seed}");
    }
}

/// Every VQL string in the golden corpus is canonical: `serialize ∘ parse`
/// is the identity on it, and re-classifying the parsed tree reproduces the
/// hardness column recorded in the snapshot.
#[test]
fn golden_vql_strings_are_canonical_and_hardness_matches() {
    let mut checked = 0usize;
    for seed in GOLDEN_SEEDS {
        let snapshot = corpus_snapshot(seed);
        for (db, _chart, hardness, vql) in snapshot_vis_lines(&snapshot) {
            let ast = tokens::parse_vql_str(&vql)
                .unwrap_or_else(|e| panic!("seed {seed} db {db}: {e}\nvql: {vql}"));
            let back = ast.to_tokens().join(" ");
            assert_eq!(back, vql, "seed {seed} db {db}: VQL is not canonical");
            assert_eq!(
                Hardness::of(&ast).name(),
                hardness,
                "seed {seed} db {db}: snapshot hardness disagrees with \
                 re-classification of {vql}"
            );
            checked += 1;
        }
    }
    assert!(checked >= 20, "only {checked} golden VQL lines checked — corpus too small");
}
