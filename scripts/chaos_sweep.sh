#!/usr/bin/env bash
# Ratchet on E11's corrupt-handshake scenario swept wide: 100 seeds at each
# of n = 16, 32, 64 (a few seconds in release). The scenario plants
# fabricated two-hop cache routes; a rule that reads the route cache and
# lets them spread shows up here as fewer converged runs, where E11's
# three seeds at n = 50, 100 see nothing. Some runs at n = 16 still end
# frozen (ROADMAP item 2(d)), so `exp` exits 1 on this matrix; the gate is
# that no n converges fewer runs than its floor below. Raise a floor when
# a change earns it.
#
# Second gate: linearized VRR bootstraps over graph seeds 1-60 at n = 25,
# 50, 100 (the census example's `vrr` recipe, the `vrr_bootstrap` one),
# which must converge as often as their floors say.
#
# Then the same recipe at n = 25, 50 over links that drop 2 % and 5 % of
# messages: its converged runs are printed, not gated (VRR has no lossy
# floor yet, ROADMAP item 3(b)). At 5 % n = 50 converges almost never, so
# the 2 % rows are the ones a regression still shows in.
set -euo pipefail
cd "$(dirname "$0")/.."

# converged runs out of 100, per n
declare -A floor=([16]=96 [32]=100 [64]=100)

# converged VRR runs out of 60, per n
declare -A vrr_floor=([25]=60 [50]=60 [100]=60)

cargo build --release -q -p ssr-bench --bin exp
cargo build --release -q -p ssr-workloads --example census
bin="$(pwd)/target/release/exp"
census="$(pwd)/target/release/examples/census"
matrix="scenario=corrupt-handshake;n=16,32,64;seeds=100"

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

# exit 1 is the matrix's own verdict on the frozen runs; anything else
# (a panic, a bad flag) is a failure of the sweep itself
status=0
(cd "$scratch" && "$bin" exp_chaos --matrix "$matrix" > stdout.txt 2> stderr.txt) || status=$?
if [ "$status" -gt 1 ]; then
  cat "$scratch/stderr.txt" >&2
  echo "chaos sweep: exp exited $status" >&2
  exit 1
fi

failed=0
for n in 16 32 64; do
  # the table row: ` corrupt-handshake | 16 |    87/100 | …`
  converged="$(awk -F'|' -v n="$n" '$1 ~ /corrupt-handshake/ && $2 + 0 == n {
      split($3, ratio, "/"); print ratio[1] + 0 }' "$scratch/stdout.txt")"
  if [ -z "$converged" ]; then
    echo "chaos sweep: no corrupt-handshake row for n=$n" >&2
    failed=1
  elif [ "$converged" -lt "${floor[$n]}" ]; then
    echo "chaos sweep: corrupt-handshake n=$n converged $converged/100, floor ${floor[$n]}" >&2
    failed=1
  else
    echo "chaos sweep: corrupt-handshake n=$n converged $converged/100 (floor ${floor[$n]})"
  fi
done
for n in 25 50 100; do
  # one line per graph: `seed verdict ticks …`
  converged="$("$census" vrr 1 60 "$n" | awk '$2 == "converged"' | wc -l)"
  if [ "$converged" -lt "${vrr_floor[$n]}" ]; then
    echo "chaos sweep: vrr n=$n converged $converged/60, floor ${vrr_floor[$n]}" >&2
    failed=1
  else
    echo "chaos sweep: vrr n=$n converged $converged/60 (floor ${vrr_floor[$n]})"
  fi
done
for loss in 2 5; do
  for n in 25 50; do
    converged="$("$census" vrr 1 60 "$n" "$loss" | awk '$2 == "converged"' | wc -l)"
    echo "chaos sweep: vrr n=$n at $loss % loss converged $converged/60 (not gated)"
  done
done
if [ "$failed" -ne 0 ]; then
  exit 1
fi
echo "chaos sweep OK"
