#!/usr/bin/env bash
# Builds the benchmark and runs it whole: every workload untraced (`all`),
# then every workload traced (`trace`). Results land in benchmark/out/:
# all.json, trace.json, and per workload <w>.json, <w>.traced.json and the
# spans in <w>.trace.json. Arguments are passed on to both runs, e.g.
#   benchmark/run.sh --seed 1001
#   benchmark/run.sh --workload sim_relay
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/ssr-benchmark"

"$bin" all "$@"
"$bin" trace "$@"
