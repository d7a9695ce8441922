#!/usr/bin/env bash
# Byte-determinism gate for the sweep orchestrator (docs/SWEEPS.md): the
# same tiny exp_chaos matrix must produce byte-identical manifests AND
# byte-identical stdout at --workers 1 and --workers 4. SSR_OBS_OMIT_WALL
# suppresses the manifest's only wall-clock field; everything else must
# already be schedule-independent by construction (results collected by
# job index, merged in job order).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p ssr-bench --bin exp
bin="$(pwd)/target/release/exp"
matrix="scenario=corrupt-wound,corrupt-split;n=12;seeds=2"

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

for w in 1 4; do
  mkdir -p "$scratch/w$w"
  (cd "$scratch/w$w" && SSR_OBS_OMIT_WALL=1 "$bin" exp_chaos --matrix "$matrix" --workers "$w" > stdout.txt)
done

cmp "$scratch/w1/results/exp_chaos.manifest.json" \
    "$scratch/w4/results/exp_chaos.manifest.json" || {
  echo "sweep smoke: manifest bytes differ between --workers 1 and 4" >&2
  exit 1
}
cmp "$scratch/w1/stdout.txt" "$scratch/w4/stdout.txt" || {
  echo "sweep smoke: stdout differs between --workers 1 and 4" >&2
  exit 1
}
echo "sweep smoke OK: manifest + stdout byte-identical across --workers 1/4"
