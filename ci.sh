#!/usr/bin/env bash
# Offline CI: build, test (with tests/tests/metric_keys.rs), clippy (the
# determinism policy of clippy.toml and the workspace lints), docs, format
# check, then the
# chaos sweep (corrupt-handshake at 100 seeds per n, converged runs held at
# a floor), the golden
# smoke (results/golden/: manifest, stdout and CSV of every experiment at
# its one size must reproduce byte for byte — exp_chaos, E11's
# self-stabilization matrix, among them), the
# benchmark package's self-check (benchmark/ is its own workspace, so
# nothing above compiles it; its six workloads at toy sizes, untraced and
# traced, are the smoke of the perf path), the sweep smoke (orchestrator
# byte-determinism across --workers), and the
# observability smoke path (fig1_loopy with a JSONL trace sink + obs
# summarize/diff/causes + chaos manifest determinism with the causal
# ledger on + obs flame/top attribution gates). Mirrors `just ci`.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace --quiet

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc =="
# every crate documents warning-free (broken intra-doc links are errors)
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== fmt =="
cargo fmt --all --check

echo "== chaos sweep =="
# corrupt-handshake at 100 seeds per n: converged runs at or above the
# floors the script names (planted stale routes must not spread)
./scripts/chaos_sweep.sh

echo "== golden smoke =="
./scripts/golden_smoke.sh

echo "== benchmark check =="
# benchmark/ is a separate [workspace]: this is the only step that builds
# it against the workspace's public API (benchmark/README.md §"Public API
# surface") and checks its declared metrics against BENCHMARK.json; the
# check runs all six workloads at toy sizes, untraced and traced, with
# every output check — the CI smoke of the perf path
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- check
# its own unit tests (spans, stats, JSON, the parent/change comparison);
# `cargo test --workspace` above never reaches them
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
# the frozen directory stays frozen: cargo rewrites benchmark/Cargo.lock
# when the workspace's package set or dependency edges move
if [ -n "$(git status --porcelain -- benchmark/)" ]; then
  echo "building benchmark/ rewrote a tracked file — a dependency edge or package of the workspace changed; benchmark/Cargo.lock is part of the frozen contract" >&2
  git status --porcelain -- benchmark/ >&2
  exit 1
fi

echo "== sweep smoke =="
./scripts/sweep_smoke.sh

echo "== obs smoke =="
./scripts/obs_smoke.sh

echo "CI OK"
