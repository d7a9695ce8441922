//! Micro-probes: the bottom rung of the ladder. Each times one public
//! operation of a layer in a tight loop, on operands prepared outside the
//! timed section.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ssr_core::{RouteCache, SourceRoute};
use ssr_sim::event::{EventKind, EventQueue};
use ssr_sim::{Metrics, Time};
use ssr_types::{NodeId, Rng};

use crate::common::{Config, Report};
use crate::span::Tracer;

/// Events kept pending while the queue probe pushes and pops.
const QUEUE_DEPTH: u64 = 1024;

/// Mean nanoseconds of `op` over `iters` calls, inside a span.
fn ns_per_op(tr: &mut Tracer, name: &str, iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    tr.within(name, |_| {
        for i in 0..iters {
            op(i);
        }
    });
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// One pop and one push per iteration on a queue of steady depth. New
/// events land 1 to `horizon` ticks ahead: a small horizon piles them into
/// few buckets (dense), a large one gives every event its own tick (sparse).
fn push_pop_ns(tr: &mut Tracer, name: &str, iters: u64, horizon: u64, rng: &mut Rng) -> f64 {
    let ahead: Vec<u64> = (0..iters + QUEUE_DEPTH)
        .map(|_| 1 + rng.below(horizon))
        .collect();
    let mut queue: EventQueue<()> = EventQueue::new();
    let timer = |i: u64| EventKind::Timer {
        node: i as usize,
        token: i,
    };
    for i in 0..QUEUE_DEPTH {
        queue.push(Time(ahead[i as usize]), timer(i), i);
    }
    ns_per_op(tr, name, iters, |i| {
        let event = queue.pop().expect("the queue keeps its depth");
        let at = event.at + ahead[(QUEUE_DEPTH + i) as usize];
        black_box(&event);
        queue.push(at, timer(i), i);
    })
}

/// Rung (a): the event wheel and the metrics registry on their own.
pub fn simulator(cfg: &Config, tr: &mut Tracer, report: &mut Report) {
    let iters = cfg.sizes.probe_iters;
    let mut rng = Rng::new(cfg.seed ^ 0x5EED_0001);
    let dense = push_pop_ns(tr, "sim.event.push_pop.dense", iters, 4, &mut rng);
    let sparse = push_pop_ns(tr, "sim.event.push_pop.sparse", iters, 1 << 20, &mut rng);
    report.set("sim.event.push_pop_ns.dense", dense);
    report.set("sim.event.push_pop_ns.sparse", sparse);

    // the registry as a run leaves it: a few dozen live keys
    let mut metrics = Metrics::new();
    for key in [
        "tx.total",
        "rx.total",
        "rx.wasted",
        "msg.hello",
        "msg.notify",
        "msg.ack",
        "msg.teardown",
        "msg.discover",
        "tx.dup",
        "tx.dropped",
        "tx.reordered",
    ] {
        metrics.incr(key);
    }
    let incr = ns_per_op(tr, "sim.metrics.incr", iters, |_| {
        metrics.incr("tx.total");
    });
    let observe = ns_per_op(tr, "sim.metrics.observe_hist", iters, |i| {
        metrics.observe_hist("latency.ticks", 1 + (i & 7));
    });
    black_box(metrics.counter("tx.total"));
    report.set("sim.metrics.incr_ns", incr);
    report.set("sim.metrics.observe_hist_ns", observe);
}

/// Rung (d): route-cache reads and writes and route concatenation, on the
/// caches of a converged ring.
pub fn caches(cfg: &Config, tr: &mut Tracer, report: &mut Report, caches: &[RouteCache]) {
    let iters = cfg.sizes.probe_iters;
    let mut rng = Rng::new(cfg.seed ^ 0x5EED_0002);
    let owners: Vec<NodeId> = caches.iter().map(RouteCache::owner).collect();

    let lookups: Vec<(usize, NodeId)> = (0..iters)
        .map(|_| (rng.index(caches.len()), owners[rng.index(owners.len())]))
        .collect();
    let best_toward = ns_per_op(tr, "core.cache.best_toward", iters, |i| {
        let (at, target) = lookups[i as usize];
        black_box(caches[at].best_toward(target));
    });
    report.set("core.cache.best_toward_ns", best_toward);

    // rebuild every cache from its own routes, in a seed-drawn order
    let mut inserts: Vec<(usize, SourceRoute)> = caches
        .iter()
        .enumerate()
        .flat_map(|(at, cache)| cache.iter().map(move |(_, route)| (at, route.clone())))
        .collect();
    rng.shuffle(&mut inserts);
    let mut rebuilt: Vec<RouteCache> = owners.iter().map(|&me| RouteCache::new(me)).collect();
    let count = inserts.len() as u64;
    let mut pending = inserts.into_iter();
    let insert = ns_per_op(tr, "core.cache.insert", count, |_| {
        let (at, route) = pending.next().expect("one route per iteration");
        black_box(rebuilt[at].insert(route, false));
    });
    report.set("core.cache.insert_ns", insert);

    // join a cached route with one cached at its far end
    let index_of: BTreeMap<NodeId, usize> = owners.iter().copied().zip(0..).collect();
    let joins: Vec<(&SourceRoute, &SourceRoute)> = (0..iters)
        .filter_map(|_| {
            let (_, first) = nth_route(&caches[rng.index(caches.len())], &mut rng)?;
            let far = &caches[*index_of.get(&first.dst())?];
            let (_, second) = nth_route(far, &mut rng)?;
            Some((first, second))
        })
        .collect();
    let concat = ns_per_op(tr, "core.route.concat", joins.len() as u64, |i| {
        let (first, second) = joins[i as usize];
        black_box(first.concat(second));
    });
    report.set("core.route.concat_ns", concat);

    let sizes: Vec<usize> = caches.iter().map(RouteCache::len).collect();
    report.set(
        "core.cache.entries_mean",
        sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64,
    );
    report.set(
        "core.cache.entries_max",
        sizes.iter().copied().max().unwrap_or(0) as f64,
    );
}

fn nth_route<'a>(cache: &'a RouteCache, rng: &mut Rng) -> Option<(NodeId, &'a SourceRoute)> {
    if cache.is_empty() {
        return None;
    }
    cache.iter().nth(rng.index(cache.len()))
}
