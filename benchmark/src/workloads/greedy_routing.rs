//! `greedy_routing`: the read side of `core::cache` and `core::routing`.
//!
//! Seed-drawn source/destination pairs are routed greedily over the caches
//! of one converged ring, against BFS shortest paths as ground truth. No
//! simulator event fires in the timed section, so a cache change that
//! helps reads and hurts inserts shows as this workload up and
//! `ssr_bootstrap` down.

use std::time::Instant;

use ssr_core::bootstrap::make_ssr_nodes;
use ssr_core::consistency::check_ring;
use ssr_core::node::{SsrConfig, SsrNode};
use ssr_core::routing::{RouteOutcome, RoutingView};
use ssr_core::RouteCache;
use ssr_graph::{algo, Graph};
use ssr_sim::{LinkConfig, Simulator};
use ssr_types::{NodeId, Rng};
use ssr_workloads::scenario::traffic_pairs;
use ssr_workloads::stats::percentile;
use ssr_workloads::Topology;

use crate::common::{measure, secs_since, Config, Report, BUDGET, GRID};
use crate::probes;
use crate::span::Tracer;

/// Queries per latency sample of the traced run.
const BATCH: usize = 64;

/// A converged ring with the traffic to route over it.
struct Ring {
    nodes: Vec<SsrNode>,
    ids: Vec<NodeId>,
    /// `shortest[s][d]`: BFS hop distance on the physical graph.
    shortest: Vec<Vec<u32>>,
    pairs: Vec<(usize, usize)>,
    converged: bool,
}

/// What routing every pair found.
#[derive(Clone, Debug, PartialEq)]
struct Routed {
    converged: bool,
    queries: u64,
    delivered: u64,
    virtual_hops: u64,
    physical_hops: u64,
    shortest_hops: u64,
}

fn all_pairs(g: &Graph) -> Vec<Vec<u32>> {
    (0..g.node_count())
        .map(|src| algo::bfs_distances(g, src))
        .collect()
}

/// Set-up: bootstrap the ring (the corpus graph after `ssr_bootstrap`'s
/// first), take BFS ground truth, draw the traffic from the seed.
fn setup(cfg: &Config, tr: &mut Tracer) -> Ring {
    let n = cfg.sizes.route_n;
    let graph_seed = cfg.corpus + 1;
    let (g, labels) = tr.within("graph.instance", |_| {
        Topology::UnitDisk { n, scale: 1.3 }.instance(graph_seed)
    });
    let shortest = tr.within("graph.bfs_all_pairs", |_| all_pairs(&g));
    let nodes = tr.within("core.bootstrap.make_nodes", |_| {
        make_ssr_nodes(&labels, SsrConfig::default())
    });
    let mut sim = tr.within("sim.new", |_| {
        Simulator::new(g, nodes, LinkConfig::ideal(), graph_seed)
    });
    let outcome = tr.within("core.bootstrap.run", |_| {
        sim.run_until_stable(GRID, BUDGET, |nodes, _| check_ring(nodes).consistent())
    });
    let nodes = sim.protocols().to_vec();
    tr.within("core.routing.view_build", |_| {
        std::hint::black_box(RoutingView::new(&nodes));
    });
    let pairs = traffic_pairs(n, cfg.sizes.route_queries, &mut Rng::new(cfg.seed));
    Ring {
        nodes,
        ids: labels.ids().to_vec(),
        shortest,
        pairs,
        converged: outcome.is_quiescent(),
    }
}

/// Routes `pairs` and adds what happened to `out`.
fn route_all(ring: &Ring, pairs: &[(usize, usize)], view: &RoutingView<'_>, out: &mut Routed) {
    let max_hops = ring.ids.len() as u32 + 16;
    out.queries += pairs.len() as u64;
    for &(s, d) in pairs {
        if let RouteOutcome::Delivered {
            virtual_hops,
            physical_hops,
        } = view.route(ring.ids[s], ring.ids[d], max_hops)
        {
            out.delivered += 1;
            out.virtual_hops += u64::from(virtual_hops);
            out.physical_hops += u64::from(physical_hops);
            out.shortest_hops += u64::from(ring.shortest[s][d]);
        }
    }
}

fn nothing_routed(ring: &Ring) -> Routed {
    Routed {
        converged: ring.converged,
        queries: 0,
        delivered: 0,
        virtual_hops: 0,
        physical_hops: 0,
        shortest_hops: 0,
    }
}

fn stretch(r: &Routed) -> f64 {
    r.physical_hops as f64 / r.shortest_hops.max(1) as f64
}

fn check(report: &mut Report, r: &Routed, passes: u64) {
    report.attempted += r.queries * passes;
    report.failed += (r.queries - r.delivered) * passes;
    report.check(r.converged, || "the ring did not converge".to_string());
    report.check(r.delivered == r.queries, || {
        format!("{} of {} queries delivered", r.delivered, r.queries)
    });
    report.check(stretch(r) >= 1.0, || {
        format!("stretch {} is below 1", stretch(r))
    });
}

pub fn untraced(cfg: &Config) -> Report {
    let m = measure(
        cfg.seconds,
        false,
        || setup(cfg, &mut Tracer::new()),
        |ring| {
            let view = RoutingView::new(&ring.nodes);
            let mut routed = nothing_routed(ring);
            let start = Instant::now();
            route_all(ring, &ring.pairs, &view, &mut routed);
            (vec![secs_since(start)], routed)
        },
    );
    let mut report = Report::default();
    let wall_s = m.report(&mut report);
    report.set("queries_per_s", cfg.sizes.route_queries as f64 / wall_s);
    report.set("route_stretch", stretch(&m.first));
    check(&mut report, &m.first, m.passes());
    report
}

pub fn traced(cfg: &Config, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let ring = tr.within("graph", |tr| setup(cfg, tr));
    let view = RoutingView::new(&ring.nodes);

    let mut reference = nothing_routed(&ring);
    let start = Instant::now();
    route_all(&ring, &ring.pairs, &view, &mut reference);
    let untraced_wall = secs_since(start);
    check(&mut report, &reference, 1);

    // the same queries in batches, one span each
    let mut routed = nothing_routed(&ring);
    tr.within("core.routing.queries", |tr| {
        for batch in ring.pairs.chunks(BATCH) {
            tr.within("core.routing.route.batch", |_| {
                route_all(&ring, batch, &view, &mut routed)
            });
        }
    });
    report.determinism_breaks += u64::from(routed != reference);
    let mut per_query: Vec<f64> = ring
        .pairs
        .chunks(BATCH)
        .zip(tr.each_ms("core.routing.route.batch"))
        .map(|(batch, ms)| ms * 1e6 / batch.len() as f64)
        .collect();
    report.set(
        "core.routing.ns_per_query.p50",
        percentile(&mut per_query, 50.0),
    );
    report.set(
        "core.routing.ns_per_query.p99",
        percentile(&mut per_query, 99.0),
    );
    let delivered = reference.delivered.max(1) as f64;
    report.set(
        "core.routing.virtual_hops_mean",
        reference.virtual_hops as f64 / delivered,
    );
    report.set(
        "core.routing.phys_hops_mean",
        reference.physical_hops as f64 / delivered,
    );
    report.set(
        "core.routing.view_build_ms",
        tr.total_s("core.routing.view_build") * 1e3,
    );

    let caches: Vec<RouteCache> = ring.nodes.iter().map(|node| node.cache().clone()).collect();
    probes::caches(cfg, tr, &mut report, &caches);

    report.set("graph.instance_ms", tr.total_s("graph.instance") * 1e3);
    report.set(
        "graph.bfs_all_pairs_ms",
        tr.total_s("graph.bfs_all_pairs") * 1e3,
    );
    report.set(
        "core.bootstrap.make_nodes_ms",
        tr.total_s("core.bootstrap.make_nodes") * 1e3,
    );
    report.set("sim.new_ms", tr.total_s("sim.new") * 1e3);
    let traced_wall = tr.total_s("core.routing.queries");
    report.set(
        "trace.overhead_pct",
        (traced_wall - untraced_wall) / untraced_wall * 100.0,
    );
    report
}
