#!/usr/bin/env bash
# Observability smoke test: run fig1_loopy with the streaming JSONL trace
# sink, then drive the obs CLI over the trace and the emitted manifest —
# including the provenance surface (obs causes on the trace, obs flame /
# obs top on the exp_chaos manifest, byte-identical chaos re-run with the
# causal ledger enabled). Everything lands in a scratch directory; the
# checked-in results/ is not touched. Fails if the trace is empty, the
# manifest is missing, any obs subcommand errors, flame output is not
# valid flamegraph.pl input, or obs top attributes < 95% of deliveries.
set -euo pipefail
cd "$(dirname "$0")/.."

SCRATCH="target/obs-smoke"
rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"

cargo build --release -q -p ssr-bench --bin exp -p ssr-obs --bin obs
EXP="$(pwd)/target/release/exp"
OBS="$(pwd)/target/release/obs"

echo "-- fig1_loopy with JSONL trace --"
(cd "$SCRATCH" && "$EXP" fig1_loopy --trace-jsonl trace.jsonl > fig1.out)
test -s "$SCRATCH/trace.jsonl" || { echo "empty trace"; exit 1; }
test -s "$SCRATCH/results/fig1_loopy.manifest.json" || { echo "missing manifest"; exit 1; }

echo "-- obs trace (send events only) --"
"$OBS" trace "$SCRATCH/trace.jsonl" --ev send | tail -1

echo "-- obs trace (--kind filter) --"
"$OBS" trace "$SCRATCH/trace.jsonl" --ev deliver --kind hello | tail -1

echo "-- obs causes (lineage of the last delivered event) --"
pid="$(grep -o '"pid":[0-9]*' "$SCRATCH/trace.jsonl" | tail -1 | cut -d: -f2)"
test -n "$pid" || { echo "trace has no provenance ids"; exit 1; }
"$OBS" causes "$SCRATCH/trace.jsonl" "$pid" | head -12

echo "-- obs summarize --"
"$OBS" summarize "$SCRATCH/results/fig1_loopy.manifest.json" | head -20

echo "-- obs diff (manifest vs itself: must be clean) --"
"$OBS" diff "$SCRATCH/results/fig1_loopy.manifest.json" \
            "$SCRATCH/results/fig1_loopy.manifest.json" | grep -q "no differences"

echo "-- exp_chaos (twice, wall clock omitted: must be byte-identical) --"
mkdir -p "$SCRATCH/chaos_a" "$SCRATCH/chaos_b"
(cd "$SCRATCH/chaos_a" && SSR_OBS_OMIT_WALL=1 "$EXP" exp_chaos > chaos.out)
(cd "$SCRATCH/chaos_b" && SSR_OBS_OMIT_WALL=1 "$EXP" exp_chaos > chaos.out)
cmp "$SCRATCH/chaos_a/results/exp_chaos.manifest.json" \
    "$SCRATCH/chaos_b/results/exp_chaos.manifest.json" \
    || { echo "chaos manifest not deterministic"; exit 1; }

echo "-- obs summarize (chaos scenarios section) --"
"$OBS" summarize "$SCRATCH/chaos_a/results/exp_chaos.manifest.json" \
    | grep -q "chaos scenarios" || { echo "missing chaos section"; exit 1; }

echo "-- obs diff (chaos manifests: must be clean) --"
"$OBS" diff "$SCRATCH/chaos_a/results/exp_chaos.manifest.json" \
            "$SCRATCH/chaos_b/results/exp_chaos.manifest.json" | grep -q "no differences"

echo "-- obs flame (folded stacks: cause;kind;depth count) --"
"$OBS" flame "$SCRATCH/chaos_a/results/exp_chaos.manifest.json" > "$SCRATCH/flame.folded"
test -s "$SCRATCH/flame.folded" || { echo "empty flame output"; exit 1; }
# every line must be flamegraph.pl input: three ;-separated frames + a count
bad="$(grep -cvE '^[a-z-]+;[a-z_-]+;depth:[0-9]+(-[0-9]+)? [0-9]+$' "$SCRATCH/flame.folded" || true)"
[ "$bad" -eq 0 ] || { echo "malformed folded stacks ($bad lines)"; exit 1; }
head -5 "$SCRATCH/flame.folded"

echo "-- obs top (cost attribution >= 95% of deliveries) --"
"$OBS" top "$SCRATCH/chaos_a/results/exp_chaos.manifest.json" | tee "$SCRATCH/top.out" | head -12
pct="$(grep -o 'attributed: [0-9]*/[0-9]* deliveries ([0-9.]*%)' "$SCRATCH/top.out" \
    | grep -o '([0-9.]*%' | tr -d '(%')"
awk -v p="$pct" 'BEGIN { exit !(p >= 95.0) }' \
    || { echo "attribution below 95% ($pct%)"; exit 1; }

echo "obs smoke OK"
