#!/usr/bin/env bash
# Behavioural-equivalence gate: regenerate everything checked in under
# results/golden/ into a scratch directory and require, for every
# experiment, the fresh manifest to `obs diff` clean ("no differences")
# AND manifest, captured stdout and `--csv` table to compare byte-equal
# against their goldens. All eleven experiments are covered, each at its
# one size (its default matrix, no flag), so every golden stdout is the
# one table EXPERIMENTS.md cites — ablations included, as rows — and this
# gate keeps it fresh. Each check prints its seconds, the gate its total. A refactor
# of the node logic, the simulator or the experiment shell that bends any
# table shows up here without any unit test having to notice:
#
#   exp_chaos                    E11: eleven scenarios at n = 50, 100 —
#                                retry exhaustion, phys re-adopt,
#                                partition/heal, corrupted starts (+ the
#                                provenance section: SSR's cause tags) —
#                                and the watched VRR crossing-state runs
#   exp_vrr_compare              E10: VRR linearized *and* baseline/claim
#                                mode, n = 16, 30, 50
#   exp_flooding_cost            E6: linearized, ISPRP and the ablations
#                                linearized-no-ccw (ccw_redundancy=false)
#                                and linearized-keep-edges
#                                (unpin_delegated=false), n = 50 … 800
#   exp_churn                    E8: crash/join -> reset, on_neighbor_down,
#                                n = 50, 100, 200
#   exp_convergence              E4: abstract engine, three variants × four
#                                families, n = 64 … 4096, and each family's
#                                pure-pairwise ablation
#   exp_powerlaw                 E5: the power-law datapoint, n = 10³ … 10⁵
#   exp_routing                  E7: greedy routing over the converged ring,
#                                n = 50 … 400
#   exp_state                    E9: engine peak degree + SSR cache sizes,
#                                LSN interval base 2 and 4
#   fig1_loopy fig2_rings        E1, E2: ISPRP ± flood vs linearized SSR
#   fig3_trace                   E3: the round-by-round narrative
#
# All runs use SSR_OBS_OMIT_WALL=1, which makes manifests byte-reproducible,
# and --workers 0 (every hardware thread): output bytes never depend on the
# worker count (scripts/sweep_smoke.sh, tests/tests/sweep_determinism.rs).
#
# After a *deliberate* behaviour change, re-bless by copying the fresh
# files over the goldens:
#   cp target/golden-smoke/*.{manifest.json,stdout.txt,csv} results/golden/
#
# By default the script stops at the first golden that differs. With
# --keep-going it runs every experiment, prints each `obs diff`, lists the
# names that differ and exits 1 at the end — one run shows everything a
# behavioural change moves before the re-bless.
set -euo pipefail
cd "$(dirname "$0")/.."

keep_going=0
case "${1:-}" in
  "") ;;
  --keep-going) keep_going=1 ;;
  *) echo "usage: $0 [--keep-going]" >&2; exit 2 ;;
esac

cargo build --release -q -p ssr-bench --bin exp -p ssr-obs --bin obs
BIN="$(pwd)/target/release"
GOLDEN="$(pwd)/results/golden"
SCRATCH="$(pwd)/target/golden-smoke"
rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"

# since START: seconds elapsed since START (an $EPOCHREALTIME reading),
# to one decimal — the gate reports what each check and the whole run cost.
since() {
  awk -v a="$1" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.1f", b - a }'
}
gate_start=$EPOCHREALTIME

# differs NAME: NAME does not reproduce (the caller has said why). Fatal,
# unless --keep-going collects the names for the end of the run.
differing=""
differs() {
  [ "$keep_going" = 1 ] || exit 1
  case " $differing " in *" $1 "*) ;; *) differing="$differing $1" ;; esac
}

# same NAME FRESH GOLDEN WHAT: byte compare, naming what differs on failure.
same() {
  cmp "$2" "$3" || {
    echo "golden smoke: $4 is not byte-identical to its golden" >&2
    differs "$1"
  }
}

# check NAME: run `exp NAME` at its one size in its own directory, keep
# the manifest, stdout and CSV as $SCRATCH/NAME.{manifest.json,stdout.txt,csv},
# compare each with the golden NAME.
check() {
  local name="$1" start=$EPOCHREALTIME
  if [ ! -e "$GOLDEN/$name.manifest.json" ]; then
    echo "golden smoke: $name has no golden" >&2
    exit 1
  fi
  mkdir -p "$SCRATCH/$name.run"
  (cd "$SCRATCH/$name.run" &&
    SSR_OBS_OMIT_WALL=1 "$BIN/exp" "$name" --workers 0 --csv table.csv > stdout.txt)
  local fresh="$SCRATCH/$name.manifest.json"
  mv "$SCRATCH/$name.run/results/$name.manifest.json" "$fresh"
  mv "$SCRATCH/$name.run/stdout.txt" "$SCRATCH/$name.stdout.txt"
  "$BIN/obs" diff "$GOLDEN/$name.manifest.json" "$fresh" > "$SCRATCH/$name.diff" || true
  if grep -q "^no differences$" "$SCRATCH/$name.diff"; then
    # the manifest stamps `git describe` when run inside a checkout; that
    # line is the only one allowed to differ
    local skip='^  "git": '
    same "$name" <(grep -v "$skip" "$fresh") <(grep -v "$skip" "$GOLDEN/$name.manifest.json") \
      "$name manifest (obs-diff clean)"
  else
    echo "golden smoke: $name differs from results/golden/$name.manifest.json:" >&2
    cat "$SCRATCH/$name.diff" >&2
    differs "$name"
  fi
  same "$name" "$SCRATCH/$name.stdout.txt" "$GOLDEN/$name.stdout.txt" "$name stdout"
  # fig3_trace prints a narrative and has no table: no CSV on either side
  if [ -e "$SCRATCH/$name.run/table.csv" ] || [ -e "$GOLDEN/$name.csv" ]; then
    mv "$SCRATCH/$name.run/table.csv" "$SCRATCH/$name.csv"
    same "$name" "$SCRATCH/$name.csv" "$GOLDEN/$name.csv" "$name csv"
  fi
  case " $differing " in *" $name "*) ;; *) echo "  $name: no differences ($(since "$start") s)" ;; esac
}

# every name `exp` lists (it prints them, indented, when run without one),
# so a twelfth experiment cannot skip the gate
for name in $("$BIN/exp" 2>&1 | sed -n 's/^  //p'); do
  check "$name"
done

if [ -n "$differing" ]; then
  echo "golden smoke: differing:$differing" >&2
  exit 1
fi
echo "golden smoke OK ($(since "$gate_start") s)"
