#!/usr/bin/env bash
# The repo's CI gate, runnable locally. Stages:
#
#   scripts/ci.sh                  # everything (build, tests, vendor,
#                                  # faults, warnings, doc, differential,
#                                  # golden, trace, gradcheck, nvperf)
#   scripts/ci.sh vendor           # the vendored crates' own unit tests
#                                  # (vendor/ is outside the workspace)
#   scripts/ci.sh doc              # warnings-clean rustdoc (broken or
#                                  # private intra-doc links fail)
#   scripts/ci.sh differential     # 5,000-case differential-oracle batch
#   scripts/ci.sh golden           # verify golden corpus snapshots
#   scripts/ci.sh golden --bless   # regenerate snapshots, then re-verify
#   scripts/ci.sh trace            # traced synthesis + report schema gate
#   scripts/ci.sh gradcheck        # nv-nn gradient checks + cross-thread
#                                  # training determinism
#   scripts/ci.sh nvperf           # benchmark-harness tests, including a
#                                  # tiny checked smoke run of every workload
#
# The differential stage runs every generated query through the executor's
# one entry point, `execute_with`, three ways (no cache, cache-cold,
# cache-warm) against the reference interpreter and fails on the first
# divergence; a failure prints a shrunk counterexample with a
# `gen_case(seed, case)` repro line.
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"

run_vendor() {
  echo "=== vendored crates: their own unit tests ==="
  for crate in proptest rand serde serde_json; do
    cargo test --offline -q --manifest-path "vendor/$crate/Cargo.toml" --target-dir target
  done
}

run_doc() {
  echo "=== rustdoc: whole workspace, warnings are errors ==="
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
}

run_differential() {
  echo "=== differential oracle (5,000 seeded cases × 3 engines) ==="
  DIFF_CASES=5000 cargo test --release -q --test differential_oracle
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
}

run_nvperf() {
  echo "=== nvperf: harness tests + checked smoke run of every workload ==="
  cargo test --release --offline --manifest-path nvperf/Cargo.toml
}

case "$stage" in
  vendor)
    run_vendor
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
  nvperf)
    run_nvperf
    exit 0
    ;;
  all) ;;
  *)
    echo "usage: scripts/ci.sh [all|vendor|doc|differential|golden [--bless]|trace|gradcheck|nvperf]" >&2
    exit 2
    ;;
esac

echo "=== [1/11] cargo build --release ==="
cargo build --release

echo "=== [2/11] cargo test -q (every workspace crate) ==="
cargo test -q

echo "=== [3/11] vendored crates' unit tests ==="
run_vendor

echo "=== [4/11] fault-injection harness ==="
cargo test -q --test fault_injection

echo "=== [5/11] warnings-clean (whole workspace, all targets) ==="
RUSTFLAGS="-D warnings" cargo check -q --workspace --all-targets

echo "=== [6/11] warnings-clean rustdoc ==="
run_doc

echo "=== [7/11] differential oracle ==="
run_differential

echo "=== [8/11] golden snapshots ==="
run_golden

echo "=== [9/11] trace observability gate ==="
run_trace

echo "=== [10/11] training-kernel gradcheck + determinism gate ==="
run_gradcheck

echo "=== [11/11] benchmark harness (nvperf) ==="
run_nvperf

echo "=== CI green ==="
