#!/usr/bin/env bash
# Behavioural-equivalence gate: regenerate the manifests checked in under
# results/golden/ into a scratch directory and require each fresh one to
# `obs diff` clean ("no differences") AND compare byte-equal against its
# golden. The set covers the protocol paths a refactor of the node logic
# can bend without any unit test noticing:
#
#   exp_chaos --smoke            retry exhaustion, phys re-adopt,
#                                partition/heal, corrupted start (+ the
#                                provenance section: SSR's cause tags)
#   exp_vrr_compare --quick      VRR linearized *and* baseline/claim mode
#   exp_flooding_cost --quick    default, --no-ccw (ccw_redundancy=false)
#                                and --keep-edges (teardown=false), ISPRP
#                                included
#   exp_churn --quick            crash/join -> reset, on_neighbor_down
#
# All runs use SSR_OBS_OMIT_WALL=1 --workers 1, which makes manifests
# byte-reproducible. The checked-in results/exp_chaos.manifest.json (a
# run that kept its wall clock and git stamp) is diffed too, with
# `obs diff` only.
#
# After a *deliberate* behaviour change, re-bless by copying the fresh
# manifests over the goldens:
#   cp target/golden-smoke/*.manifest.json results/golden/
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p ssr-bench --bin exp_chaos --bin exp_vrr_compare \
  --bin exp_flooding_cost --bin exp_churn -p ssr-obs --bin obs
BIN="$(pwd)/target/release"
GOLDEN="$(pwd)/results/golden"
SCRATCH="$(pwd)/target/golden-smoke"
rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"

# check NAME EXP ARGS...: run EXP with ARGS in its own directory, keep the
# manifest as $SCRATCH/NAME.manifest.json, compare with the golden NAME.
check() {
  local name="$1" exp="$2"
  shift 2
  mkdir -p "$SCRATCH/$name.run"
  (cd "$SCRATCH/$name.run" && SSR_OBS_OMIT_WALL=1 "$BIN/$exp" "$@" --workers 1 > stdout.txt)
  local fresh="$SCRATCH/$name.manifest.json"
  mv "$SCRATCH/$name.run/results/$exp.manifest.json" "$fresh"
  "$BIN/obs" diff "$GOLDEN/$name.manifest.json" "$fresh" > "$SCRATCH/$name.diff" || true
  grep -q "^no differences$" "$SCRATCH/$name.diff" || {
    echo "golden smoke: $name differs from results/golden/$name.manifest.json:" >&2
    cat "$SCRATCH/$name.diff" >&2
    exit 1
  }
  # the manifest stamps `git describe` when run inside a checkout; that
  # line is the one field allowed to differ
  cmp <(grep -v '^  "git": ' "$GOLDEN/$name.manifest.json") <(grep -v '^  "git": ' "$fresh") || {
    echo "golden smoke: $name is obs-diff clean but not byte-identical" >&2
    exit 1
  }
  echo "  $name: no differences"
}

check exp_chaos_smoke exp_chaos --smoke
check exp_vrr_compare_quick exp_vrr_compare --quick
check exp_flooding_cost_quick exp_flooding_cost --quick
check exp_flooding_cost_quick_no_ccw exp_flooding_cost --quick --no-ccw
check exp_flooding_cost_quick_keep_edges exp_flooding_cost --quick --keep-edges
check exp_churn_quick exp_churn --quick

"$BIN/obs" diff results/exp_chaos.manifest.json "$SCRATCH/exp_chaos_smoke.manifest.json" \
  | grep -q "^no differences$" || {
  echo "golden smoke: results/exp_chaos.manifest.json no longer reproduces" >&2
  exit 1
}
echo "  results/exp_chaos.manifest.json: no differences"

echo "golden smoke OK"
