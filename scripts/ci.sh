#!/usr/bin/env bash
# Full verification gate for the workspace; run from the repo root.
# Mirrors what a CI job would run — keep it green before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --doc (public-API doctests: transactions, snapshots, vacuum)"
cargo test --doc -q

echo "==> cargo build --benches (criterion harnesses compile)"
cargo build --benches -q

echo "==> plan_audit --check (social-app page-query plan regressions)"
cargo run --release -q -p genie-bench --bin plan_audit -- --check > /dev/null

echo "==> trigger_audit --check (commit-pipeline effect-coalescing regressions)"
cargo run --release -q -p genie-bench --bin trigger_audit -- --check > /dev/null

echo "==> concurrency_audit --check (multi-writer thread sweep + MVCC reader gate + disjoint-table latch gate + cache-tier kill/rejoin gate: no livelock, abort/conflict ceilings, zero reader blocking, zero table-latch waits, cache coherence through node failure)"
cargo run --release -q -p genie-bench --bin concurrency_audit -- --check > /dev/null

echo "==> exp_parallel_scan --check (vectorized scans: batch >= row-at-a-time, 4-worker scaling on multi-core hosts)"
cargo run --release -q -p genie-bench --bin exp_parallel_scan -- --check --quick > /dev/null

echo "==> exp_mvcc (snapshot readers vs table-S-lock baseline: zero lock waits, >= baseline read throughput, zero violations)"
cargo run --release -q -p genie-bench --bin exp_mvcc -- --readers 1,4 --txns 80 > /dev/null

echo "==> exp_cache_scale --check (cache tier: sharded stores >= 2x single-mutex baseline at 8 threads, near-flat p99 across 1-8 servers, zero violations through node kill/rejoin)"
cargo run --release -q -p genie-bench --bin exp_cache_scale -- --check --quick > /dev/null

echo "==> exp_wal --check (durability: group commit >= 2x per-commit sync at 8 threads, 10k-commit crash recovery to the exact committed state with zero in-flight leakage)"
cargo run --release -q -p genie-bench --bin exp_wal -- --check --quick > /dev/null

echo "==> exp_serve --check (serving path: paced loopback fleet holds the per-page p99 ceiling with zero shed below the admission threshold, overload sheds retryably, drains drop nothing, zero snapshot/coherence violations)"
cargo run --release -q -p genie-bench --bin exp_serve -- --check --quick > /dev/null

echo "==> wirebench unit tests (the benchmark's generators, percentile rule and trace spans)"
cargo test --offline -q --manifest-path wirebench/Cargo.toml

for workload in social_mix read_spread; do
    echo "==> wirebench $workload correctness run (payloads match, zero drops and leaks, 7-object cache coherence)"
    cargo run --release --offline -q --manifest-path wirebench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 > /dev/null
done

echo "==> wirebench social_mix traced run (per-layer sums reconcile with end-to-end time, workload-separation checks, 7-object cache coherence)"
cargo run --release --offline -q --manifest-path wirebench/Cargo.toml -- \
    --workload social_mix --seed 1 --seconds 1 --trace 1 > /dev/null

echo "ci.sh: all green"
