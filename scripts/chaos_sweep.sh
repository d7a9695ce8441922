#!/usr/bin/env bash
# Ratchet on E11's corrupt-handshake scenario swept wide: 100 seeds at each
# of n = 16, 32, 64 (a few seconds in release). The scenario plants
# fabricated two-hop cache routes; a rule that reads the route cache and
# lets them spread shows up here as fewer converged runs, where E11's
# three seeds at n = 50, 100 see nothing. Some runs at n = 16 still end
# frozen (ROADMAP item 3(d)), so `exp` exits 1 on this matrix; the gate is
# that no n converges fewer runs than its floor below. Raise a floor when
# a change earns it.
#
# Second gate: linearized VRR bootstraps over graph seeds 1-60 at n = 25,
# 50, 100 (the census example's `vrr` recipe, the `vrr_bootstrap` one),
# which must converge as often as their floors say, and over graph seeds
# 1-100 at n = 50, which must all converge. At no n may a graph lose a
# path message to its hop budget (`fwd.ttl_expired`, the census's fifth
# column): that would be a forwarding loop (ROADMAP item 15(a)). The same
# holds over graph seeds 1-40 at n = 200. The census's last column,
# `cycles`, counts walks of a path's rows that cycle, loops no message
# has ridden yet (DESIGN finding 21): at n = 25, 50, 100 no more graphs
# may hold one than the ceilings below.
#
# Then the same recipe at n = 25, 50 over links that drop 2 % and 5 % of
# messages, whose converged runs must reach their floors.
set -euo pipefail
cd "$(dirname "$0")/.."

# converged runs out of 100, per n
declare -A floor=([16]=96 [32]=100 [64]=100)

# converged VRR runs out of 60, per n
declare -A vrr_floor=([25]=60 [50]=60 [100]=60)

# VRR graphs out of 60 whose tables hold a cycling walk, per n
declare -A cycle_ceiling=([25]=3 [50]=5 [100]=14)

# converged lossy VRR runs out of 60, per "n loss%"
declare -A lossy_floor=(["25 2"]=59 ["50 2"]=59 ["25 5"]=57 ["50 5"]=53)

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
  # one line per graph: `seed verdict ticks msgs_per_node ttl_expired …`
  "$census" vrr 1 60 "$n" > "$scratch/vrr.txt"
  converged="$(awk '$2 == "converged"' "$scratch/vrr.txt" | wc -l)"
  if [ "$converged" -lt "${vrr_floor[$n]}" ]; then
    echo "chaos sweep: vrr n=$n converged $converged/60, floor ${vrr_floor[$n]}" >&2
    failed=1
  else
    echo "chaos sweep: vrr n=$n converged $converged/60 (floor ${vrr_floor[$n]})"
  fi
  looped="$(awk '$5 + 0 > 0 { print $1 }' "$scratch/vrr.txt" | tr '\n' ' ')"
  if [ -z "$looped" ]; then
    echo "chaos sweep: vrr n=$n no path message ran out of hops"
  else
    echo "chaos sweep: vrr n=$n graphs with fwd.ttl_expired > 0: $looped" >&2
    failed=1
  fi
  cycling="$(awk '$NF + 0 > 0' "$scratch/vrr.txt" | wc -l)"
  if [ "$cycling" -gt "${cycle_ceiling[$n]}" ]; then
    echo "chaos sweep: vrr n=$n graphs with a cycling walk $cycling/60, ceiling ${cycle_ceiling[$n]}" >&2
    failed=1
  else
    echo "chaos sweep: vrr n=$n graphs with a cycling walk $cycling/60 (ceiling ${cycle_ceiling[$n]})"
  fi
done
looped="$("$census" vrr 1 40 200 | awk '$5 + 0 > 0 { print $1 }' | tr '\n' ' ')"
if [ -z "$looped" ]; then
  echo "chaos sweep: vrr n=200 graphs 1-40: no path message ran out of hops"
else
  echo "chaos sweep: vrr n=200 graphs 1-40 with fwd.ttl_expired > 0: $looped" >&2
  failed=1
fi
converged="$("$census" vrr 1 100 50 | awk '$2 == "converged"' | wc -l)"
if [ "$converged" -lt 100 ]; then
  echo "chaos sweep: vrr n=50 graphs 1-100 converged $converged/100, floor 100" >&2
  failed=1
else
  echo "chaos sweep: vrr n=50 graphs 1-100 converged $converged/100 (floor 100)"
fi
for loss in 2 5; do
  for n in 25 50; do
    converged="$("$census" vrr 1 60 "$n" "$loss" | awk '$2 == "converged"' | wc -l)"
    floor_here="${lossy_floor["$n $loss"]}"
    if [ "$converged" -lt "$floor_here" ]; then
      echo "chaos sweep: vrr n=$n at $loss % loss converged $converged/60, floor $floor_here" >&2
      failed=1
    else
      echo "chaos sweep: vrr n=$n at $loss % loss converged $converged/60 (floor $floor_here)"
    fi
  done
done
if [ "$failed" -ne 0 ]; then
  exit 1
fi
echo "chaos sweep OK"
