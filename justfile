# Developer entry points. `just` lists these recipes; `./ci.sh` mirrors `just ci`.

# build + test + clippy + fmt + observability smoke
ci:
    ./ci.sh

# release build of the whole workspace
build:
    cargo build --workspace --release

# all tests, quiet
test:
    cargo test --workspace --quiet

# lints as errors, including the determinism policy in clippy.toml
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# formatting check
fmt:
    cargo fmt --all --check

# rustdoc, warning-free (the CI doc gate)
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# orchestrator byte-determinism: tiny exp_chaos matrix, manifests and
# stdout byte-compared between --workers 1 and 4 (docs/SWEEPS.md)
sweep-smoke:
    ./scripts/sweep_smoke.sh

# non-test Rust lines per directory and in total (every `crates/*/src` and
# `examples/` line above a file's trailing test module); `just loc FILE…`
# counts those files only
loc *FILES:
    ./scripts/loc.sh {{FILES}}

# behavioural-equivalence gate: regenerate results/golden/ (manifest,
# stdout and CSV of all eleven experiments, each at its one size) and
# require `obs diff` clean + byte-identical
golden:
    ./scripts/golden_smoke.sh

# build the benchmark package (its own workspace) against the current API,
# check its metric declarations against BENCHMARK.json and run its own
# unit tests
bench-check:
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- check
    cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml

# fig1_loopy with the streaming JSONL sink, then obs trace/summarize/diff
obs-smoke:
    ./scripts/obs_smoke.sh

# chaos matrix (E11): adversarial scenarios must self-stabilize
chaos-smoke:
    cargo run --release -q -p ssr-bench --bin exp -- exp_chaos

# E11 corrupt-handshake swept wide (n = 16, 32, 64, 100 seeds each): fails
# if any n converges fewer runs than the floor in the script
chaos-sweep:
    ./scripts/chaos_sweep.sh

# the criterion suite: routine-level B1–B9 (algorithm-level shapes are
# `benchmark/` workloads)
bench:
    cargo bench -p ssr-bench --bench micro

# the per-hop ladder only: route surgery (B4), SsrNode relay (B9), bare
# simulator relay (B8) — handler per hop = B9 − B8 (docs/BENCHMARKS.md)
bench-hop:
    cargo bench -p ssr-bench --bench micro -- route_ ssr_forward_line sim_noop_relay

# one linearization round only (B1): n = 1024 G(n,p) per variant, and the
# power-law n = 20 000 round-3 state `benchmark/`'s abstract_linearize runs
bench-round:
    cargo bench -p ssr-bench --bench micro -- linearize_round

# the route cache only (B2/B3): greedy lookup and insert, on a retained
# ≈ 17-entry row and on a 500-entry all-pinned row, and the routing
# snapshot on a converged n = 500 ring: one decision, and a whole route
# with relays taking over (what greedy_routing times)
bench-cache:
    cargo bench -p ssr-bench --bench micro -- cache_

# per-graph census of the benchmark's SSR and VRR recipes, rebuilt from
# public API: `just census boot 1 40`, `just census chaos 1 40 200` — one
# line `graph ok|FAIL ticks msgs_per_node e2e_per_node route_x stretch` per graph
# seed, then messages per node by class (e2e.*) and hops by kind (msg.*);
# `just census vrr 1 60 25 5` — `graph verdict ticks msgs_per_node
# ttl_expired state live`, the same class and kind columns, then `known
# announced rest no_path shortcut rerouted dup retry two_hop path_x
# uturn quiet rest_cycles cycles` (`retry`: handshake re-sends per node,
# e2e.retry; `two_hop`: hops per node handed to a neighbour of the
# endpoint, fwd.two_hop; `path_x`: the held edges' walked hops over their
# BFS distances, VrrRoutingView::path_x; `uturn`: hops per node sent back
# over the link they came in on, fwd.uturn; `quiet`: the last audit
# period after consistency that carries an ack; `rest_cycles`: `cycles`
# read after the 2 000-tick rest window; `cycles`: walks of
# a path's rows, one per row held at its own endpoint, that come back to
# a node over the same link — VrrRoutingView::walk), every link dropping
# the last argument's percent (default 0); `just census world 1 5`
# — `boot`'s graphs in the overlay-only world: `graph ok|FAIL ticks
# msgs_per_node max_degree max_handshakes` and messages per node by class;
# `just census check 2 3` — the exhaustive checker on every connected graph
# of 2 and 3 nodes: states enumerated / violations found
# (docs/BENCHMARKS.md says how to compare two saved runs)
census *ARGS:
    cargo run --release -q -p ssr-workloads --example census -- {{ARGS}}

# folded causal stacks (cause;kind;depth) of the exp_chaos golden (the
# golden gate keeps it equal to a fresh run), written to
# target/flame/flame.folded — pipe into flamegraph.pl / inferno
flame:
    cargo build --release -q -p ssr-obs --bin obs
    mkdir -p target/flame
    ./target/release/obs flame results/golden/exp_chaos.manifest.json > target/flame/flame.folded
    @echo "wrote target/flame/flame.folded ($(wc -l < target/flame/flame.folded) stacks)"
