#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, rustfmt, clippy.
# Run from anywhere; works on a fresh checkout with no network access
# (external dev-dependencies are vendored under crates/vendor/).
# Mirrors .github/workflows/ci.yml so the local gate matches CI.
set -euo pipefail
cd "$(dirname "$0")/.."

# Property suites run deterministically and under budget: the seed pins
# the per-test case stream (and is echoed in every failure message, so a
# red run reproduces locally with the same PROPTEST_SEED), the cap
# bounds per-property case counts. Override either from the environment
# to widen a run, e.g. PROPTEST_CASES=256 ./scripts/check.sh
export PROPTEST_SEED="${PROPTEST_SEED:-0}"
export PROPTEST_CASES="${PROPTEST_CASES:-16}"
echo "property suites: PROPTEST_SEED=${PROPTEST_SEED} PROPTEST_CASES=${PROPTEST_CASES}"

cargo build --release
# The benchmark helper (its own workspace) compiles against cfa-core's
# public API; mirrors CI's "Build the benchmark helper" step.
cargo build --release --offline --manifest-path repobench/Cargo.toml
# Every first-party crate (the root manifest's `default-members`): the
# cross-crate tests, each crate's unit tests and doc examples, and the
# CLI tests.
cargo test -q
# Golden race-detector suite per evaluation mode, mirroring CI's
# `races` matrix legs (the plain `cargo test` run above covers the
# unpinned sweep: both modes).
for mode in semi-naive full-reeval; do
    echo "golden race suite: CFA_EVAL_MODE=${mode}"
    CFA_EVAL_MODE="${mode}" cargo test -q --test races_golden
done
# Pool-throughput smoke, mirroring CI's `throughput` job: one repeat of
# the corpus through the multi-tenant pool. The bench asserts all
# tenants completed, pooled fixpoints match solo runs, and
# analyses/sec is nonzero. Run in a scratch directory so the committed
# BENCH_engine.json (a release-build measurement) is not overwritten by
# a smoke run.
throughput_scratch="$(mktemp -d)"
trap 'rm -rf "${throughput_scratch}"' EXIT
echo "pool throughput smoke"
(cd "${throughput_scratch}" && \
    CFA_THROUGHPUT_REPEATS=1 \
    cargo run --manifest-path "${OLDPWD}/Cargo.toml" -p cfa-bench \
        --release --quiet --bin throughput_bench)
# Trace smoke, mirroring CI's telemetry smoke step: `cfa trace` on a
# suite program must emit Chrome trace JSON that parses with at least
# one event in every worker lane.
echo "trace smoke: cfa trace on examples/sat.scm"
cargo run -p cfa-cli --release --quiet -- trace --threads 2 \
    --out "${throughput_scratch}/profile.json" examples/sat.scm
python3 - "${throughput_scratch}/profile.json" <<'EOF'
import collections, json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
lanes = collections.Counter(e["tid"] for e in events if e.get("ph") != "M")
assert len(lanes) == 2, lanes
assert all(n >= 1 for n in lanes.values()), lanes
print(f"trace smoke ok: {dict(lanes)}")
EOF
# Closed-loop serve smoke, mirroring CI's step in the `throughput` job:
# the suite programs go to one `cfa serve` one request at a time, each
# sent only once the previous reply arrived (at most 10 s per reply);
# ids must come back in order and the server must exit 0 at EOF.
echo "closed-loop serve smoke"
cargo run --release --offline --quiet --manifest-path repobench/Cargo.toml -- \
    gen --seed 0 --unique 0 --out "${throughput_scratch}/serve-inputs"
python3 scripts/serve_smoke.py "${CARGO_TARGET_DIR:-target}/release/cfa" \
    "${throughput_scratch}/serve-inputs"
# Corpus-scale differential sweep, mirroring CI's `corpus` job:
# corpus_diff pushes the bounded corpus (suite + golden concurrent
# programs + 16 seeded generated programs, seed 0) through every
# engine configuration and diffs the canonical normal forms. Widen the
# generated band for a nightly-scale run with e.g.
# CFA_CORPUS_SIZE=500 ./scripts/check.sh
echo "corpus differential sweep"
CFA_CORPUS_SIZE="${CFA_CORPUS_SIZE:-16}" CFA_CORPUS_SEED="${CFA_CORPUS_SEED:-0}" \
    cargo run -p cfa-bench --release --quiet --bin corpus_diff
cargo fmt --all --check
# Lint every first-party crate; the vendored stand-ins (rand, proptest,
# criterion) are build inputs, not code we hold to clippy.
cargo clippy --workspace --exclude rand --exclude proptest --exclude criterion \
    --all-targets -- -D warnings
# Rustdoc must build warning-free: `missing_docs` is `warn` in the
# first-party crates, so an undocumented public item or broken
# intra-doc link fails here (doc-examples run as tests above).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude rand --exclude proptest --exclude criterion

echo "tier-1 check passed"
