//! Criterion micro-benchmarks (B1–B9): the hot paths of the reproduction.
//! `cargo bench -p ssr-bench --bench micro -- <substring>…` runs a subset.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ssr_core::cache::RouteCache;
use ssr_core::message::{self, ForwardEnvelope, Payload, SsrMsg};
use ssr_core::route::SourceRoute;
use ssr_core::routing::RoutingView;
use ssr_core::SsrNode;
use ssr_linearize::{step_round, Semantics, Variant};
use ssr_sim::{Ctx, LinkConfig, Protocol, Simulator, Time};
use ssr_types::{NodeId, Rng, SeqNo};
use ssr_workloads::scenario::traffic_pairs;
use ssr_workloads::Topology;

/// B1: one synchronous linearization round — on a 1024-node random graph
/// per variant, and on the benchmark's power-law shape at n = 20 000.
fn bench_linearize_round(c: &mut Criterion) {
    let topo = Topology::Gnp { n: 1024, c: 2.0 };
    let (g, labels) = topo.instance(1);
    let (rg, _) = ssr_linearize::convergence::relabel_to_ranks(&g, &labels);
    let mut group = c.benchmark_group("linearize_round_n1024");
    for (name, variant) in [
        ("pure", Variant::Pure),
        ("memory", Variant::Memory),
        ("lsn", Variant::lsn()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| step_round(std::hint::black_box(&rg), variant, Semantics::Star))
        });
    }
    group.finish();

    // The shape `benchmark/`'s `abstract_linearize` runs: a power-law graph
    // at n = 20 000 under LSN/star, one round out of the round-3 state, where
    // the rows are at their densest. Built on first use, so a run whose
    // filters skip the group does not pay for three rounds of set-up.
    let dense = std::cell::LazyCell::new(|| {
        let (g, labels) = Topology::PowerLaw {
            n: 20_000,
            alpha: 2.0,
        }
        .instance(1);
        let (mut dense, _) = ssr_linearize::convergence::relabel_to_ranks(&g, &labels);
        for _ in 0..3 {
            dense = step_round(&dense, Variant::lsn(), Semantics::Star);
        }
        dense
    });
    let mut group = c.benchmark_group("linearize_round_powerlaw_n20000");
    group.sample_size(10);
    group.bench_function("lsn", |b| {
        let dense: &ssr_graph::Graph = &dense;
        b.iter(|| step_round(std::hint::black_box(dense), Variant::lsn(), Semantics::Star))
    });
    group.finish();
}

/// The two shapes a route cache takes: 500 random destinations offered
/// unpinned, of which interval retention keeps ≈ 17 (a node of the paper's
/// protocol), and the same 500 pinned, which all stay (the with-memory
/// ablation: row length ≈ n).
const CACHE_SHAPES: [(&str, bool); 2] = [("unpinned_500", false), ("pinned_500", true)];

/// Offers 500 rng-drawn direct routes to `cache`.
fn offer_500(cache: &mut RouteCache, rng: &mut Rng, pinned: bool) {
    let me = cache.owner();
    for _ in 0..500 {
        let d = rng.node_id();
        if d != me {
            cache.insert(SourceRoute::direct(me, d), pinned);
        }
    }
}

/// B2: greedy cache lookup (`best_toward`, a scan over every hop of every
/// cached route) over a populated cache; then the same pick read from a
/// routing snapshot's flat table (`RoutingView::next_hop`, two binary
/// searches) on a converged n = 500 ring, and a whole `RoutingView::route`
/// over the same ring and `traffic_pairs` — the path `benchmark/`'s
/// `greedy_routing` times: one pick per decision, and the relays' staircase
/// where one takes over.
fn bench_cache_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_best_toward");
    for (name, pinned) in CACHE_SHAPES {
        let mut rng = Rng::new(7);
        let mut cache = RouteCache::new(rng.node_id());
        offer_500(&mut cache, &mut rng, pinned);
        let targets: Vec<NodeId> = (0..64).map(|_| rng.node_id()).collect();
        let mut i = 0;
        group.bench_function(name, |b| {
            b.iter(|| {
                i = (i + 1) % targets.len();
                std::hint::black_box(cache.best_toward(targets[i]))
            })
        });
    }
    group.finish();

    // set up before the group, so calibration times lookups only
    let (g, labels) = Topology::UnitDisk { n: 500, scale: 1.3 }.instance(2);
    let cfg = ssr_core::bootstrap::BootstrapConfig {
        seed: 2,
        ..Default::default()
    };
    let (report, sim) = ssr_core::bootstrap::run_linearized_bootstrap(&g, &labels, &cfg);
    assert!(report.converged, "the n = 500 ring did not converge");
    let view = RoutingView::new(sim.protocols());
    let mut rng = Rng::new(13);
    let queries: Vec<(NodeId, NodeId)> = (0..64)
        .map(|_| (labels.id(rng.index(500)), labels.id(rng.index(500))))
        .collect();
    let mut group = c.benchmark_group("cache_view_next_hop");
    let mut i = 0;
    group.bench_function("converged_500", |b| {
        b.iter(|| {
            i = (i + 1) % queries.len();
            let (at, target) = queries[i];
            std::hint::black_box(view.next_hop(at, target))
        })
    });
    group.finish();

    let pairs = traffic_pairs(500, 64, &mut Rng::new(17));
    let max_hops = 500 + 16;
    let mut group = c.benchmark_group("cache_view_route");
    let mut i = 0;
    group.bench_function("converged_500", |b| {
        b.iter(|| {
            i = (i + 1) % pairs.len();
            let (s, d) = pairs[i];
            std::hint::black_box(view.route(labels.id(s), labels.id(d), max_hops))
        })
    });
    group.finish();
}

/// B3: 500 cache inserts into an empty cache — unpinned through interval
/// retention (the LSN eviction path; the row stays short), pinned into a row
/// that grows to 500 (where a sorted row pays its O(n) shift and a tree
/// would not).
fn bench_cache_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_insert_evict");
    for (name, pinned) in CACHE_SHAPES {
        let mut rng = Rng::new(9);
        let me = rng.node_id();
        group.bench_function(name, |b| {
            b.iter_batched(
                || RouteCache::new(me),
                |mut cache| {
                    offer_500(&mut cache, &mut rng, pinned);
                    cache
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// B4: source-route concatenation with cycle pruning (the notification
/// construction hot path), over total input length × how the second route
/// meets the first: not at all (`pruned` never cuts), walking the first
/// route's tail back before leaving it (one cut — the paper's `v2→v1 ++
/// v1→v3` through a shared relay), and re-crossing it again and again
/// further back (every other hop cuts, each cut inside the previous one).
fn bench_route_concat(c: &mut Criterion) {
    let mut rng = Rng::new(11);
    let mut group = c.benchmark_group("route_concat_prune");
    for total in [8usize, 32, 128, 512] {
        let half = total / 2;
        let mut ids = rng.distinct_node_ids(total);
        rng.shuffle(&mut ids);
        let (first, fresh) = ids.split_at(half);
        let a = SourceRoute::from_hops(first.to_vec());
        let back = || first.iter().rev().copied();
        let shapes = [
            (
                "disjoint",
                back().take(1).chain(fresh.iter().copied()).collect(),
            ),
            (
                "shared_prefix",
                back()
                    .take(half / 2 + 1)
                    .chain(fresh[..half / 2].iter().copied())
                    .collect(),
            ),
            (
                "nested_cycles",
                back()
                    .step_by(2)
                    .zip(fresh.iter().copied())
                    .flat_map(|(crossed, new)| [crossed, new])
                    .collect::<Vec<NodeId>>(),
            ),
        ];
        for (shape, hops) in shapes {
            let b = SourceRoute::from_hops(hops);
            group.bench_function(&format!("len{total}_{shape}"), |bench| {
                bench.iter(|| std::hint::black_box(&a).concat(std::hint::black_box(&b)))
            });
        }
    }
    group.finish();
}

/// B5: unit-disk topology generation (the per-sweep-point setup cost).
fn bench_topology(c: &mut Criterion) {
    c.bench_function("unit_disk_n400", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            Topology::UnitDisk { n: 400, scale: 1.3 }.instance(seed)
        })
    });
}

/// B6: wire encode/decode of a notification with realistic route lengths —
/// header cost of the protocol.
fn bench_codec(c: &mut Criterion) {
    let mut rng = Rng::new(13);
    let route = rng.distinct_node_ids(12);
    let msg = SsrMsg::Forward(Box::new(ForwardEnvelope {
        route: route.clone(),
        pos: 3,
        trace: vec![],
        payload: Payload::Notify {
            target_route: rng.distinct_node_ids(10),
            seq: SeqNo(9),
        },
    }));
    c.bench_function("msg_encode", |b| {
        b.iter(|| message::encode_to_bytes(std::hint::black_box(&msg)))
    });
    let bytes = message::encode_to_bytes(&msg);
    c.bench_function("msg_decode", |b| {
        b.iter(|| {
            let mut buf = bytes.clone();
            message::decode(std::hint::black_box(&mut buf)).unwrap()
        })
    });
}

/// B7: a full small bootstrap — end-to-end cost of one experiment point.
fn bench_bootstrap(c: &mut Criterion) {
    let topo = Topology::UnitDisk { n: 60, scale: 1.3 };
    let mut group = c.benchmark_group("bootstrap_n60");
    group.sample_size(10);
    group.bench_function("linearized", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let (g, labels) = topo.instance(seed);
            let cfg = ssr_core::bootstrap::BootstrapConfig {
                seed,
                ..Default::default()
            };
            ssr_core::bootstrap::run_linearized_bootstrap(&g, &labels, &cfg).0
        })
    });
    group.finish();
}

/// Hands every token it receives to its first neighbour until the token's
/// hops run out: a handler that does nothing, so what is left is the
/// simulator's own per-event path.
struct NoopRelay {
    hops: u32,
}

impl Protocol for NoopRelay {
    type Msg = u32;

    fn on_init(&mut self, ctx: &mut Ctx<'_, u32>) {
        let to = ctx.neighbors()[0];
        ctx.send(to, self.hops);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: usize, left: u32) {
        if left > 0 {
            let to = ctx.neighbors()[0];
            ctx.send(to, left - 1);
        }
    }

    fn reset(&mut self) {}

    fn kind(_msg: &u32) -> &'static str {
        "data"
    }
}

/// B8, ladder rung (b) of ROADMAP item 1: the simulator under a no-op
/// protocol — `step` + `dispatch` + `transmit_copy` and nothing else.
/// One iteration relays 500 tokens 200 hops each (100 500 deliveries) on a
/// unit-disk graph, so ns/iter ÷ 100 500 is the simulator's cost per
/// delivered message.
fn bench_sim_noop_relay(c: &mut Criterion) {
    const HOPS: u32 = 200;
    let (g, _) = Topology::UnitDisk { n: 500, scale: 1.3 }.instance(1);
    let mut group = c.benchmark_group("sim_noop_relay");
    group.sample_size(10);
    group.bench_function("n500_hops200", |b| {
        b.iter_batched(
            || {
                let nodes = (0..g.node_count())
                    .map(|_| NoopRelay { hops: HOPS })
                    .collect();
                Simulator::new(g.clone(), nodes, LinkConfig::ideal(), 1)
            },
            |mut sim| {
                assert!(sim.run_to_quiescence(u64::MAX / 2).is_quiescent());
                sim.messages_delivered()
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// An [`SsrNode`] that, on one extra timer, launches a burst of
/// acknowledgments down a source route — the only way to put a chosen
/// packet on the wire from outside the protocol. Everything else is the
/// node's own.
struct LineNode {
    node: SsrNode,
    /// Route of the burst (this node first); empty for every node but the
    /// sender.
    burst_route: Vec<NodeId>,
}

impl LineNode {
    const BURST_TOKEN: u64 = u64::MAX;
    const BURST_AT: u64 = 50;
    const BURST: usize = 2000;
}

impl Protocol for LineNode {
    type Msg = SsrMsg;

    fn on_init(&mut self, ctx: &mut Ctx<'_, SsrMsg>) {
        self.node.on_init(ctx);
        if !self.burst_route.is_empty() {
            ctx.set_timer(Self::BURST_AT, Self::BURST_TOKEN);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SsrMsg>, from: usize, msg: SsrMsg) {
        self.node.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SsrMsg>, token: u64) {
        if token != Self::BURST_TOKEN {
            return self.node.on_timer(ctx, token);
        }
        // the path's end has one physical neighbour: the route's next hop
        let next = ctx.neighbors()[0];
        for seq in 0..Self::BURST {
            let env = ForwardEnvelope {
                route: self.burst_route.clone(),
                pos: 1,
                trace: vec![],
                payload: Payload::NotifyAck {
                    about: self.burst_route[0],
                    seq: SeqNo(seq as u32),
                },
            };
            ctx.send(next, SsrMsg::Forward(Box::new(env)));
        }
    }

    fn reset(&mut self) {
        self.node.reset();
    }

    fn kind(msg: &SsrMsg) -> &'static str {
        msg.kind()
    }
}

/// B9, ladder rung (c′) of ROADMAP item 1: real `SsrNode`s relaying
/// source-routed packets. 64 nodes on a path graph, addresses ascending
/// along it (so the line is already sorted and the protocol's own traffic is
/// a few hundred messages); at tick 50 one end launches 2000 acks to the
/// other end, each relayed by the 62 nodes between — `on_message` →
/// `receive_forward` → `forward_env` → `Ctx::send`. The timed section is
/// those 126 000 deliveries: ns/iter ÷ 126 000 is one relayed hop, and
/// minus B8's cost per delivery it is the handler's share of the hop.
fn bench_ssr_forward_line(c: &mut Criterion) {
    const N: usize = 64;
    let g = ssr_graph::Graph::from_edges(N, (1..N).map(|i| (i - 1, i)));
    let ids = Rng::new(17).distinct_node_ids(N);
    let mut group = c.benchmark_group("ssr_forward_line");
    group.sample_size(10);
    group.bench_function("n64_acks2000", |b| {
        b.iter_batched(
            || {
                let nodes = (0..N)
                    .map(|i| LineNode {
                        node: SsrNode::new(ids[i]),
                        burst_route: if i == 0 { ids.clone() } else { vec![] },
                    })
                    .collect();
                let mut sim = Simulator::new(g.clone(), nodes, LinkConfig::ideal(), 1);
                sim.run_until(Time(LineNode::BURST_AT - 1));
                sim
            },
            |mut sim| {
                let before = sim.messages_delivered();
                sim.run_until(Time(LineNode::BURST_AT + N as u64));
                let relayed = sim.messages_delivered() - before;
                assert!(relayed >= (LineNode::BURST * (N - 1)) as u64);
                assert_eq!(
                    sim.metrics().counter_sum("fwd."),
                    0,
                    "a relay dropped a packet"
                );
                relayed
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_linearize_round,
    bench_cache_lookup,
    bench_cache_insert,
    bench_route_concat,
    bench_topology,
    bench_codec,
    bench_bootstrap,
    bench_sim_noop_relay,
    bench_ssr_forward_line
);
criterion_main!(benches);
