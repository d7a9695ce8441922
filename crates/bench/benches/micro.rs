//! Criterion micro-benchmarks (B1–B8): the hot paths of the reproduction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ssr_core::cache::RouteCache;
use ssr_core::message::{self, ForwardEnvelope, Payload, SsrMsg};
use ssr_core::route::SourceRoute;
use ssr_linearize::{step_round, Semantics, Variant};
use ssr_sim::{Ctx, LinkConfig, Protocol, Simulator};
use ssr_types::{NodeId, Rng, SeqNo};
use ssr_workloads::Topology;

/// B1: one synchronous linearization round on a 1024-node random graph.
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
}

/// B2: greedy cache lookup (`best_toward`) over a populated cache.
fn bench_cache_lookup(c: &mut Criterion) {
    let mut rng = Rng::new(7);
    let me = rng.node_id();
    let mut cache = RouteCache::new(me);
    for _ in 0..500 {
        let d = rng.node_id();
        if d != me {
            cache.insert(SourceRoute::direct(me, d), false);
        }
    }
    let targets: Vec<NodeId> = (0..64).map(|_| rng.node_id()).collect();
    let mut i = 0;
    c.bench_function("cache_best_toward", |b| {
        b.iter(|| {
            i = (i + 1) % targets.len();
            std::hint::black_box(cache.best_toward(targets[i]))
        })
    });
}

/// B3: cache insert with interval retention (the LSN eviction path).
fn bench_cache_insert(c: &mut Criterion) {
    let mut rng = Rng::new(9);
    let me = rng.node_id();
    c.bench_function("cache_insert_evict", |b| {
        b.iter_batched(
            || RouteCache::new(me),
            |mut cache| {
                for _ in 0..128 {
                    let d = rng.node_id();
                    if d != me {
                        cache.insert(SourceRoute::direct(me, d), false);
                    }
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });
}

/// B4: source-route concatenation with cycle pruning (the notification
/// construction hot path).
fn bench_route_concat(c: &mut Criterion) {
    let mut rng = Rng::new(11);
    let mk = |rng: &mut Rng, len: usize| SourceRoute::from_hops(rng.distinct_node_ids(len));
    let a = mk(&mut rng, 12);
    let b = {
        let mut hops = vec![a.dst()];
        hops.extend(rng.distinct_node_ids(11));
        SourceRoute::from_hops(hops)
    };
    c.bench_function("route_concat_prune", |b_| {
        b_.iter(|| std::hint::black_box(&a).concat(std::hint::black_box(&b)))
    });
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
    let msg = SsrMsg::Forward(ForwardEnvelope {
        route: route.clone(),
        pos: 3,
        trace: vec![],
        payload: Payload::Notify {
            initiator: NodeId(1),
            target_route: rng.distinct_node_ids(10),
            reply_route: rng.distinct_node_ids(8),
            seq: SeqNo(9),
        },
    });
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

criterion_group!(
    benches,
    bench_linearize_round,
    bench_cache_lookup,
    bench_cache_insert,
    bench_route_concat,
    bench_topology,
    bench_codec,
    bench_bootstrap,
    bench_sim_noop_relay
);
criterion_main!(benches);
