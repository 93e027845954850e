#!/usr/bin/env bash
# Full local gate: formatting, lints, and tests — entirely offline.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc (deny rustdoc warnings: broken and private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo test (workspace, default worker count) =="
cargo test --workspace --offline -q

echo "== cargo test (workspace, AMS_EXEC_THREADS=1) =="
AMS_EXEC_THREADS=1 cargo test --workspace --offline -q

echo "== analytic golden references =="
cargo test --offline -q --test golden_analytic
echo "--  AMS_SIM_BACKEND=sparse (closed forms through the sparse factor-reuse path)"
AMS_SIM_BACKEND=sparse cargo test --offline -q --test golden_analytic

echo "== forced linear-solver backend matrix (sim, rail, and the AWE/symbolic consumers of solve_at and ac) =="
for backend in dense sparse; do
    echo "--  AMS_SIM_BACKEND=$backend"
    AMS_SIM_BACKEND=$backend cargo test --offline -q -p ams-sim -p ams-rail -p ams-awe -p ams-symbolic
    # The AWE sizing consumers: cell-sized moment solves on either factor.
    AMS_SIM_BACKEND=$backend cargo test --offline -q -p ams-sizing -- simopt oblx
    # The Table 1 model's top-down AC scan: its first point sets the
    # sparse factor's pivot order, and its reading must equal the full
    # sweep's on either factor.
    AMS_SIM_BACKEND=$backend cargo test --offline -q -p ams-core -- pulse_detector
done

echo "== dense/sparse backend equivalence (exemplars, grids, seeded deck generator) =="
cargo test --offline -q --test sparse_equivalence

echo "== fill-reducing ordering: AMD permutation/determinism/forecast props =="
cargo test --offline -q --test ordering_props
AMS_EXEC_THREADS=1 cargo test --offline -q --test ordering_props

echo "== exec determinism across worker counts =="
cargo test --offline -q --test exec_determinism

echo "== eval-cache mode matrix (sizing suite under off/memory/disk) =="
# Directory form of AMS_EVAL_CACHE_PATH: each workload fingerprint gets
# its own small journal, so per-boundary commits stay cheap.
evalcache_tmp="$(mktemp -d)"
for mode in off memory disk; do
    echo "--  AMS_EVAL_CACHE=$mode"
    AMS_EVAL_CACHE=$mode AMS_EVAL_CACHE_PATH="$evalcache_tmp" \
        cargo test --offline -q -p ams-sizing
done
rm -rf "$evalcache_tmp"
# Off mode also runs the 1/2/8-worker determinism suite, whose synthesize
# leg asserts that nothing is memoized. Not under disk: there the three
# runs share one journal, so warm reruns move the compared cache counters.
echo "--  AMS_EVAL_CACHE=off: exec determinism"
AMS_EVAL_CACHE=off cargo test --offline -q --test exec_determinism

echo "== batched evaluation + persistent cache contracts =="
cargo test --offline -q --test batched_eval

echo "== trace schema golden test + disabled-path overhead smoke =="
cargo test --offline -q --test trace_schema

echo "== telemetry events: one ring, JSONL round-trip, 1/2/8-worker byte-identity =="
cargo test --offline -q --test telemetry_stream

echo "== trace counter determinism =="
cargo test --offline -q --release --test trace_determinism

echo "== fault-injection recovery matrix (incl. interrupt/resume leg) =="
cargo test --offline -q --release --test fault_recovery

echo "== checkpoint journal corruption fuzz (truncation / bit-flip / stomp) =="
cargo test --offline -q --release --test ckpt_fuzz

echo "== kill/resume crash-safety smoke (SIGABRT + SIGKILL, byte-identical resume) =="
cargo test --offline -q --release --test kill_resume

echo "== structural analysis: singularity proofs, fill forecast, lint corpus =="
cargo test --offline -q --test structural_props
cargo test --offline -q --test lint_corpus

echo "== perfbench smoke: every workload untraced and traced, digests must match =="
cargo test --offline --release --manifest-path perfbench/Cargo.toml

echo "== workspace determinism lint (det-lint) =="
cargo run --offline -q -p ams-detlint

echo "== ams-report: ledger gates and regression-diff self-check =="
report_tmp="$(mktemp -d)"
trap 'rm -rf "$report_tmp"' EXIT
# The ledger run checks every paper-claim gate it holds; its counters
# must match the committed ledger exactly.
cargo run --offline -q --release -p ams-report -- bench -o "$report_tmp/ledger.json"
cargo run --offline -q --release -p ams-report -- diff BENCH_table1.json "$report_tmp/ledger.json"
# Positive gate: two same-seed quick benches must diff clean.
cargo run --offline -q --release -p ams-report -- quick-bench -o "$report_tmp/a.json"
cargo run --offline -q --release -p ams-report -- quick-bench -o "$report_tmp/b.json"
cargo run --offline -q --release -p ams-report -- diff "$report_tmp/a.json" "$report_tmp/b.json"
# Negative gate: an injected counter regression must be caught.
cargo run --offline -q --release -p ams-report -- inject "$report_tmp/a.json" -o "$report_tmp/bad.json"
if cargo run --offline -q --release -p ams-report -- diff "$report_tmp/a.json" "$report_tmp/bad.json" > /dev/null; then
    echo "ERROR: ams-report diff missed an injected regression" >&2
    exit 1
fi

echo "All checks passed."
