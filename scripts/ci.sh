#!/usr/bin/env bash
# The repo's CI gate, runnable locally. Stages:
#
#   scripts/ci.sh                  # everything (build, tests, deps,
#                                  # vendor, faults, warnings, clippy, doc,
#                                  # differential,
#                                  # golden, trace, gradcheck, nofma,
#                                  # nvperf, quick, examples)
#   scripts/ci.sh deps             # the facade's normal dependency graph
#                                  # names neither nv-oracle nor proptest
#   scripts/ci.sh vendor           # the vendored crates' own unit tests
#                                  # (vendor/ is outside the workspace)
#   scripts/ci.sh clippy           # clippy-clean workspace, all targets
#   scripts/ci.sh doc              # warnings-clean rustdoc (broken or
#                                  # private intra-doc links fail)
#   scripts/ci.sh differential     # 5,000-case differential-oracle batch
#                                  # at two fixed seeds
#   scripts/ci.sh golden           # verify golden corpus snapshots
#   scripts/ci.sh golden --bless   # regenerate snapshots, then re-verify
#   scripts/ci.sh trace            # traced synthesis + report schema gate
#   scripts/ci.sh gradcheck        # nv-nn gradient checks, cross-thread
#                                  # training determinism, and nv-nn's own
#                                  # tests under the release codegen
#   scripts/ci.sh nofma            # the release `reproduce` binary holds no
#                                  # fused multiply-add instruction
#   scripts/ci.sh nvperf           # benchmark-harness tests, including a
#                                  # tiny checked smoke run of every workload
#   scripts/ci.sh quick            # `reproduce quick`, at the default and
#                                  # at one synthesis thread, against its
#                                  # golden
#   scripts/ci.sh quick --bless    # regenerate that golden, then re-verify
#   scripts/ci.sh examples         # run the fast examples in release,
#                                  # custom_data on a ragged CSV (exit 1),
#                                  # a one-epoch train_probe smoke run, the
#                                  # same piped into `head -1` (exit 0, no
#                                  # panic) and train_probe on a bad
#                                  # variant (exit 2)
#
# The differential stage runs every generated query through the executor's
# one entry point, `execute_with`, three ways (no cache, cache-cold,
# cache-warm) against the reference interpreter and fails on the first
# divergence; a failure prints a shrunk counterexample with a
# `gen_case(seed, case)` repro line. It sweeps two fixed seeds, the test's
# default (0x5EED) and 0xCAFE, so the bound predicates and the
# once-per-execution subquery slots meet twice as many query shapes.
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"

# The differential oracle and the property-test crate are test-only: the
# library, `reproduce`, the examples and nvperf must build without them.
run_deps() {
  echo "=== deps: nvbench's normal dependency graph has no test-only crate ==="
  local tree
  tree="$(cargo tree --offline --locked -e normal -p nvbench)"
  if grep -E 'nv-oracle|proptest' <<< "$tree"; then
    echo "a test-only crate is a normal dependency of nvbench; move it to [dev-dependencies]" >&2
    return 1
  fi
}

run_vendor() {
  echo "=== vendored crates: their own unit tests ==="
  for crate in proptest rand serde serde_json; do
    cargo test --offline -q --manifest-path "vendor/$crate/Cargo.toml" --target-dir target
  done
}

run_clippy() {
  echo "=== clippy: whole workspace, all targets, warnings are errors ==="
  cargo clippy -q --offline --workspace --all-targets -- -D warnings
}

run_doc() {
  echo "=== rustdoc: whole workspace, warnings are errors ==="
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
}

run_differential() {
  for seed in 24301 51966; do
    echo "=== differential oracle (5,000 seeded cases × 3 engines, DIFF_SEED=$seed) ==="
    DIFF_SEED=$seed DIFF_CASES=5000 cargo test --release -q --test differential_oracle
  done
}

run_golden() {
  if [[ "${1:-}" == "--bless" ]]; then
    echo "=== golden snapshots: bless ==="
    GOLDEN_BLESS=1 cargo test --release -q --test golden_snapshots
    echo "=== golden snapshots: verify blessed files round-trip ==="
  else
    echo "=== golden snapshots: verify ==="
  fi
  cargo test --release -q --test golden_snapshots
}

run_trace() {
  echo "=== nv-trace: small traced synthesis + report schema validation ==="
  cargo test --release -q --test trace_observability
}

run_gradcheck() {
  echo "=== nv-nn: finite-difference gradient checks (all variants) ==="
  cargo test --release -q --test grad_check
  echo "=== nv-nn: bit-identical training across 1/2/4 threads + kernel policies ==="
  cargo test --release -q --test train_determinism
  echo "=== nv-nn: kernel bit-identity and unit tests under the release codegen ==="
  cargo test --release -q -p nv-nn
}

# nv-nn's kernels return the same bits at every register width only
# because each product is rounded before it is added; a fused multiply-add
# (`vfmadd…`, `vfmsub…`, `vfnmadd…`, `vfnmsub…`) rounds once and would
# break that, and with it the pinned numerics on some CPUs.
run_nofma() {
  echo "=== no FMA: the release reproduce binary holds no fused multiply-add ==="
  cargo build --release -q -p nv-bench --bin reproduce
  local asm fused
  asm="$(mktemp)"
  # A missing or failing objdump fails the stage rather than passing it.
  objdump -d --no-show-raw-insn target/release/reproduce > "$asm"
  fused="$(grep -E '\svf(n)?m(add|sub)' "$asm" || true)"
  rm -f "$asm"
  if [[ -n "$fused" ]]; then
    echo "$(wc -l <<< "$fused") fused multiply-add instructions in target/release/reproduce:" >&2
    head -5 <<< "$fused" >&2
    return 1
  fi
}

# `reproduce quick` (extra arguments pass through) minus the lines that
# carry wall times or the machine's thread count; everything else is seeded
# and must not move.
quick_output() {
  cargo build --release -q -p nv-bench --bin reproduce
  target/release/reproduce quick "$@" | grep -vE \
    '^=== nvBench reproduction |^\[[A-Za-z0-9_]+\] [0-9.]+s$|^\[setup\] |^\[training\] done in |^=== total '
}

run_quick() {
  local golden=tests/golden/reproduce_quick.txt
  if [[ "${1:-}" == "--bless" ]]; then
    echo "=== reproduce quick: bless ==="
    quick_output > "$golden"
    echo "=== reproduce quick: verify the blessed file round-trips ==="
  else
    echo "=== reproduce quick: verify against $golden ==="
  fi
  diff -u "$golden" <(quick_output)
  # Synthesis runs on every core by default; one worker must print the
  # same report.
  echo "=== reproduce quick threads=1: verify against $golden ==="
  diff -u "$golden" <(quick_output threads=1)
}

# The examples are runtime surfaces too; the two that train models
# (covid_dashboard, nl2vis_comparison) take minutes and are left out.
# train_probe stands in for them: one epoch on 16 pairs, a few seconds.
run_examples() {
  echo "=== examples: quickstart, custom_data, benchmark_synthesis (release) ==="
  cargo build --release -q --example quickstart --example custom_data \
    --example benchmark_synthesis
  for ex in quickstart custom_data benchmark_synthesis; do
    echo "--- $ex ---"
    "target/release/examples/$ex" > /dev/null
  done
  echo "--- custom_data on a ragged CSV: must exit 1 with 'could not load CSV:' ---"
  local ragged out status=0
  ragged="$(mktemp)"
  printf 'a,b\n1,2\n3\n' > "$ragged"
  out="$(target/release/examples/custom_data "$ragged" 2>&1)" || status=$?
  rm -f "$ragged"
  if [[ $status -ne 1 || "$out" != *"could not load CSV:"* ]]; then
    echo "expected exit 1 and 'could not load CSV:', got exit $status: $out" >&2
    return 1
  fi
  echo "--- train_probe 1 16 basic ---"
  cargo build --release -q -p nv-bench --bin train_probe
  target/release/train_probe 1 16 basic > /dev/null
  echo "--- train_probe 1 16 basic | head -1: must exit 0 without a panic ---"
  local err
  err="$(mktemp)"
  status=0
  target/release/train_probe 1 16 basic 2> "$err" | head -1 > /dev/null || status=$?
  out="$(cat "$err")"
  rm -f "$err"
  if [[ $status -ne 0 || "$out" == *"panicked"* ]]; then
    echo "expected exit 0 and no panic when stdout closes, got exit $status: $out" >&2
    return 1
  fi
  echo "--- train_probe on a misspelt variant: must exit 2 with its usage line ---"
  status=0
  out="$(target/release/train_probe 1 16 cpy 2>&1)" || status=$?
  if [[ $status -ne 2 || "$out" != *"usage: train_probe"* ]]; then
    echo "expected exit 2 and 'usage: train_probe', got exit $status: $out" >&2
    return 1
  fi
}

run_nvperf() {
  echo "=== nvperf: harness tests + checked smoke run of every workload ==="
  cargo test --release --offline --manifest-path nvperf/Cargo.toml
}

case "$stage" in
  deps)
    run_deps
    exit 0
    ;;
  vendor)
    run_vendor
    exit 0
    ;;
  clippy)
    run_clippy
    exit 0
    ;;
  doc)
    run_doc
    exit 0
    ;;
  differential)
    run_differential
    exit 0
    ;;
  golden)
    run_golden "${2:-}"
    exit 0
    ;;
  trace)
    run_trace
    exit 0
    ;;
  gradcheck)
    run_gradcheck
    exit 0
    ;;
  nofma)
    run_nofma
    exit 0
    ;;
  nvperf)
    run_nvperf
    exit 0
    ;;
  quick)
    run_quick "${2:-}"
    exit 0
    ;;
  examples)
    run_examples
    exit 0
    ;;
  all) ;;
  *)
    echo "usage: scripts/ci.sh [all|deps|vendor|clippy|doc|differential|golden [--bless]|trace|gradcheck|nofma|nvperf|quick [--bless]|examples]" >&2
    exit 2
    ;;
esac

echo "=== [1/16] cargo build --release ==="
cargo build --release

echo "=== [2/16] cargo test -q (every workspace crate) ==="
cargo test -q

echo "=== [3/16] normal dependency graph ==="
run_deps

echo "=== [4/16] vendored crates' unit tests ==="
run_vendor

echo "=== [5/16] fault-injection harness ==="
cargo test -q --test fault_injection

echo "=== [6/16] warnings-clean (whole workspace, all targets) ==="
RUSTFLAGS="-D warnings" cargo check -q --workspace --all-targets

echo "=== [7/16] clippy-clean (whole workspace, all targets) ==="
run_clippy

echo "=== [8/16] warnings-clean rustdoc ==="
run_doc

echo "=== [9/16] differential oracle ==="
run_differential

echo "=== [10/16] golden snapshots ==="
run_golden

echo "=== [11/16] trace observability gate ==="
run_trace

echo "=== [12/16] training-kernel gradcheck + determinism gate ==="
run_gradcheck

echo "=== [13/16] no fused multiply-add in the release binary ==="
run_nofma

echo "=== [14/16] benchmark harness (nvperf) ==="
run_nvperf

echo "=== [15/16] reproduce quick golden ==="
run_quick

echo "=== [16/16] examples ==="
run_examples

echo "=== CI green ==="
