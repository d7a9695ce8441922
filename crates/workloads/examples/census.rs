//! Per-graph census of the benchmark's two SSR recipes and its VRR one,
//! rebuilt from the public API exactly as `benchmark/README.md` states
//! them. The SSR recipes print one line `graph ok|FAIL ticks msgs_per_node
//! e2e_per_node route_x stretch KINDS… refreshed known announced` per graph
//! seed. `route_x` is the cached routes' hops over their BFS distance,
//! `stretch` greedy routing's over `10·n` seed-drawn pairs (as
//! `greedy_routing` measures it), and the [`KINDS`] columns say where the
//! messages go, per node:
//! end-to-end messages by class (`e2e.*`), then hops by kind (`msg.*`);
//! `refreshed` is the cached routes per node that an envelope passing by
//! shortened (`fwd.refreshed`), `known` the introductions per node that
//! named a node the receiver already held (`rx.notify_known`), and
//! `announced` the audit announcements per node whose sender the receiver
//! already held (`rx.announce_known`).
//!
//! ```text
//! census boot|chaos FROM TO [N]       graph seeds FROM..=TO, N nodes (500 | 200)
//! census vrr FROM TO [N] [LOSS_PCT]   the same for `vrr_bootstrap` (N = 50),
//!                                     every link dropping LOSS_PCT % (0)
//! census world FROM TO [N]            `boot`'s graphs (N = 500) in the
//!                                     overlay-only world
//! census check FROM TO [DROPS DUPS]   the exhaustive checker on every
//!                                     connected graph of FROM..=TO nodes
//! ```
//!
//! The `world` recipe runs `ssr_linearize::world` on the graphs `boot`
//! bootstraps SSR on and prints `graph ok|FAIL ticks msgs_per_node
//! max_degree max_handshakes CLASSES…`: the most handshakes one node
//! started, then messages per node by class, named as the SSR recipes'
//! `e2e.*` columns. A world message travels one overlay edge, so its
//! messages per node compare with SSR's `e2e_per_node`, not with its hops.
//!
//! The `check` recipe runs `ssr_linearize::check::sweep` from the world's
//! tick-0 state on every connected graph of each size, one message per
//! pair in flight and DROPS / DUPS faults per schedule (0 / 0), and prints
//! `n states ring_states violations confirmed` per size, then the total as
//! `states enumerated S / violations found V (confirmed C)`.
//!
//! The `vrr` recipe prints `graph verdict ticks msgs_per_node ttl_expired
//! state live KINDS… known announced rest no_path shortcut rerouted dup
//! retry cycles`: the
//! watchdog's verdict (`converged`, `frozen_crossing`, …), the messages
//! along a virtual edge per node that ran out of hops (`fwd.ttl_expired`),
//! the path-table entries per node, the entries per node whose path some
//! node still holds as an edge (in a side set or a ring-closure slot — the
//! rest belong to retired or replaced edges, or are discovery
//! breadcrumbs), then the same [`KINDS`] columns as the SSR recipes —
//! `VrrNode` counts `e2e.*` where a message starts, so a path's relays add
//! hops, not messages — then `known announced rest`: `known` and
//! `announced` as in the SSR recipes, and `rest` the messages per node per
//! kilotick over the 2 000 ticks after consistency (`NaN` where the run
//! did not converge), as `ssr_bootstrap` measures SSR's rest rate; last,
//! per node, the messages dropped for want of path state (`fwd.no_path`)
//! and the hops a relay handed straight to a bound endpoint instead of
//! following the path (`fwd.shortcut`), then `rerouted dup`: the hops
//! that found their carrier's row gone and took another row for the same
//! endpoint pair (`fwd.rerouted`), per node, and the path-table rows per
//! node that sit beside another row for the same endpoint pair at the same
//! node (a pair held `k` times counts `k − 1`); then `retry`, the
//! handshake re-sends per node (`e2e.retry`: what the nodes originate
//! while their retry timers are handled); and `cycles`, the walks
//! of a path's rows that cycle — one walk per row a node holds for a path
//! it is an endpoint of, toward the other endpoint, each hop the rule a
//! relay forwards a path message by (`VrrRoutingView::walk`; discovery
//! breadcrumbs skipped): forwarding loops the tables hold whether or not a
//! message has ridden one. Every column but `rest` counts up to the end
//! of the run; `cycles` reads the tables there. A non-zero `LOSS_PCT` runs the recipe over
//! `LinkConfig::lossy`; the benchmark's own workload is lossless.
//!
//! The benchmark reports the median over five graphs of a chaotic
//! trajectory; a behavioural change is judged over many more. Save the
//! output of two commits and compare them as docs/BENCHMARKS.md says.

use std::collections::BTreeSet;
use std::rc::Rc;

use ssr_core::bootstrap::make_ssr_nodes;
use ssr_core::chaos;
use ssr_core::consistency::check_ring;
use ssr_core::node::{SsrConfig, SsrNode};
use ssr_core::routing::{RoutingStats, RoutingView};
use ssr_graph::algo;
use ssr_linearize::check::{self, Bounds, Report};
use ssr_linearize::world::{Faults, World, CLASSES};
use ssr_sim::faults::{partition_groups, Fault};
use ssr_sim::{shared_watchdog, watchdog_probe, LinkConfig, Simulator, Time};
use ssr_types::{NodeId, Rng, Side};
use ssr_vrr::table::PathId;
use ssr_vrr::{run_vrr_bootstrap_watched, Linearized, PathWalk, VrrMode, VrrNode, VrrRoutingView};
use ssr_workloads::scenario::traffic_pairs;
use ssr_workloads::Topology;

const GRID: u64 = 8;

/// The columns after `stretch`: end-to-end messages by class, then hops by
/// kind.
const KINDS: [&str; 10] = [
    "e2e.notify",
    "e2e.announce",
    "e2e.ack",
    "e2e.teardown",
    "e2e.discover",
    "msg.notify",
    "msg.ack",
    "msg.teardown",
    "msg.discover",
    "msg.hello",
];
const BUDGET: u64 = 300_000;
/// `vrr_bootstrap`'s tick budget and freeze window.
const VRR_BUDGET: u64 = 20_000;
const VRR_FREEZE_WINDOW: u64 = 3_000;
/// The ticks past consistency the `rest` column counts over.
const REST_TICKS: u64 = 2_000;

fn consistent(nodes: &[SsrNode]) -> bool {
    check_ring(nodes).consistent()
}

/// `ssr_bootstrap`: cold start to the consistent ring over ideal links.
fn boot(n: usize, g: u64) -> Simulator<SsrNode> {
    let (topo, labels) = Topology::UnitDisk { n, scale: 1.3 }.instance(g);
    let nodes = make_ssr_nodes(&labels, SsrConfig::default());
    let mut sim = Simulator::new(topo, nodes, LinkConfig::ideal(), g);
    sim.run_until_stable(GRID, BUDGET, |nodes, _| consistent(nodes));
    sim
}

/// `chaos_recovery`: corrupted successors, adversarial links, a partition
/// and one-way loss over ticks [2, 402], the freeze watchdog.
fn chaos(n: usize, g: u64) -> Simulator<SsrNode> {
    let adversarial = LinkConfig::adversarial(0.05, 0.10, 0.15, 6);
    let (topo, labels) = Topology::UnitDisk { n, scale: 1.4 }.instance(g);
    let nodes = make_ssr_nodes(&labels, SsrConfig::default());
    let mut sim = Simulator::new(topo.clone(), nodes, adversarial, g);
    let mut rng = Rng::new(g ^ 0x00C4_A05C);
    let succ = chaos::random_succ(labels.ids(), &mut rng);
    chaos::apply_succ_corruption(&mut sim, &labels, &succ, true);
    let watchdog = shared_watchdog();
    let mut probe = watchdog_probe(
        3_000,
        Rc::clone(&watchdog),
        chaos::ssr_signature,
        consistent,
        chaos::ssr_all_locally_consistent,
    );
    sim.add_probe(GRID, move |view| {
        view.metrics.incr("probe.fired");
        probe(view);
    });
    let groups = partition_groups(n, 2, &mut rng);
    sim.schedule_fault(Time(2), Fault::Partition { groups });
    sim.schedule_fault(Time(402), Fault::Heal);
    sim.run_until(Time(2));
    for (u, v) in topo.edges() {
        if rng.chance(0.25) {
            sim.set_link_override(u, v, adversarial.with_drop(0.30));
        }
    }
    sim.run_until(Time(402));
    sim.clear_link_overrides();
    sim.run_until_stable(GRID, BUDGET, move |nodes, _| {
        consistent(nodes) || watchdog.borrow().is_frozen()
    });
    sim
}

/// Cached-route stretch at the end of the run: the hops of every route in
/// every cache over the BFS distance between its two ends, summed over all
/// entries before dividing (as `route_stretch` sums over its queries).
/// `dist[u]` holds node `u`'s BFS distances.
fn route_x(sim: &Simulator<SsrNode>, dist: &[Vec<u32>]) -> f64 {
    let mut index: Vec<_> = (sim.protocols().iter().enumerate())
        .map(|(u, node)| (node.id(), u))
        .collect();
    index.sort_unstable();
    let (mut hops, mut shortest) = (0u64, 0u64);
    for (u, node) in sim.protocols().iter().enumerate() {
        for (dst, route) in node.cache().iter() {
            let Ok(at) = index.binary_search_by_key(&dst, |&(id, _)| id) else {
                continue;
            };
            let d = dist[u][index[at].1];
            if d != algo::UNREACHABLE {
                hops += route.len() as u64;
                shortest += u64::from(d);
            }
        }
    }
    hops as f64 / shortest.max(1) as f64
}

/// Greedy-routing stretch at the end of the run, as `greedy_routing`
/// measures it: `10·n` pairs drawn from graph seed `g`, routed over
/// [`RoutingView`], physical hops over BFS hops summed over the delivered
/// pairs. A pair that does not arrive makes it `NaN`.
fn stretch(sim: &Simulator<SsrNode>, dist: &[Vec<u32>], g: u64) -> f64 {
    let nodes = sim.protocols();
    let view = RoutingView::new(nodes);
    let budget = 4 * nodes.len() as u32;
    let mut stats = RoutingStats::default();
    for (a, b) in traffic_pairs(nodes.len(), 10 * nodes.len(), &mut Rng::new(g)) {
        stats.record(view.route(nodes[a].id(), nodes[b].id(), budget), dist[a][b]);
    }
    if stats.delivered == stats.attempts {
        stats.stretch()
    } else {
        f64::NAN
    }
}

/// `vrr_bootstrap`: linearized VRR to the consistent ring under the freeze
/// watchdog, with the benchmark's budget and freeze window, over `link`.
fn vrr(n: usize, g: u64, link: LinkConfig) {
    let (topo, labels) = Topology::UnitDisk { n, scale: 1.3 }.instance(g);
    let (watch, sim) = run_vrr_bootstrap_watched(
        &topo,
        &labels,
        VrrMode::Linearized,
        link,
        g,
        VRR_BUDGET,
        VRR_FREEZE_WINDOW,
    );
    let per_node = |key| sim.metrics().counter(key) as f64 / n as f64;
    let entries: usize = sim.protocols().iter().map(|p| p.table().len()).sum();
    // a node's rows beyond the first for each endpoint pair it holds
    let dup: usize = sim
        .protocols()
        .iter()
        .map(|p| {
            let pairs: BTreeSet<_> = p.table().iter().map(|(pid, _)| (pid.ea, pid.eb)).collect();
            p.table().len() - pairs.len()
        })
        .sum();
    // the paths some node holds as a virtual edge, in a side set or a wrap
    let held: BTreeSet<PathId> = sim
        .protocols()
        .iter()
        .flat_map(|p| {
            let lin = p.linearizer();
            [Side::Left, Side::Right].into_iter().flat_map(move |s| {
                let wrap = lin.wrap(s).map(|(_, pid)| pid);
                lin.side(s).iter().map(|&(_, pid)| pid).chain(wrap)
            })
        })
        .collect();
    let live = sim
        .protocols()
        .iter()
        .flat_map(|p| p.table().iter())
        .filter(|(pid, _)| held.contains(pid))
        .count();
    print!(
        "{g} {} {} {:.3} {:.3} {:.3} {:.3}",
        watch.verdict,
        watch.ticks,
        per_node("tx.total"),
        per_node("fwd.ttl_expired"),
        entries as f64 / n as f64,
        live as f64 / n as f64,
    );
    for key in KINDS {
        print!(" {:.3}", per_node(key));
    }
    let (known, announced) = (per_node("rx.notify_known"), per_node("rx.announce_known"));
    let (no_path, shortcut) = (per_node("fwd.no_path"), per_node("fwd.shortcut"));
    let (rerouted, dup) = (per_node("fwd.rerouted"), dup as f64 / n as f64);
    let (retry, cycles) = (per_node("e2e.retry"), cycles(sim.protocols()));
    println!(
        " {known:.3} {announced:.3} {:.3} {no_path:.3} {shortcut:.3} {rerouted:.3} {dup:.3} \
         {retry:.3} {cycles}",
        rest(sim, watch.converged)
    );
}

/// The walks ([`VrrRoutingView::walk`]) that cycle: one from every row a
/// node holds for a path it is an endpoint of, toward the other endpoint.
/// Discovery breadcrumbs, whose far end is a placeholder address, are
/// skipped.
fn cycles(nodes: &[VrrNode]) -> usize {
    let view = VrrRoutingView::new(nodes);
    let crumb = |pid: &PathId| pid.ea == NodeId::MIN || pid.eb == NodeId::MAX;
    nodes
        .iter()
        .enumerate()
        .flat_map(|(u, node)| {
            let me = node.id();
            node.table()
                .iter()
                .filter(move |(pid, _)| (pid.ea == me || pid.eb == me) && !crumb(pid))
                .map(move |(&pid, _)| (u, pid, if pid.ea == me { pid.eb } else { pid.ea }))
        })
        .filter(|&(u, pid, toward)| view.walk(u, pid, toward) == PathWalk::Cycle)
        .count()
}

/// Messages per node per kilotick over the [`REST_TICKS`] after a run
/// that converged, as `ssr_bootstrap` measures SSR's rest rate; `NaN`
/// after one that did not.
fn rest(mut sim: Simulator<VrrNode>, converged: bool) -> f64 {
    if !converged {
        return f64::NAN;
    }
    let before = sim.metrics().counter("tx.total");
    sim.run_until(sim.now() + REST_TICKS);
    let sent = sim.metrics().counter("tx.total") - before;
    sent as f64 / sim.protocols().len() as f64 * 1_000.0 / REST_TICKS as f64
}

/// `boot`'s graph `g` in the overlay-only world, FIFO ticks.
fn world(n: usize, g: u64) {
    let (topo, labels) = Topology::UnitDisk { n, scale: 1.3 }.instance(g);
    let run = World::new(&topo, &labels, Faults::NONE).run(BUDGET);
    let per_node = |count: u64| count as f64 / n as f64;
    print!(
        "{g} {} {} {:.3} {} {}",
        if run.converged { "ok" } else { "FAIL" },
        run.ticks,
        per_node(run.messages()),
        run.max_degree,
        run.max_handshakes,
    );
    for (_, sent) in CLASSES.iter().zip(run.sent) {
        print!(" {:.3}", per_node(sent));
    }
    println!();
}

/// Every schedule from every fresh start on `n` nodes.
fn check(n: usize, bounds: Bounds) -> Report {
    let report = check::sweep(n, bounds);
    println!(
        "{n} {} {} {} {}",
        report.states,
        report.ring_states,
        report.violations.len(),
        report.confirmed()
    );
    report
}

fn usage() -> ! {
    eprintln!(
        "usage: census boot|chaos|world FROM TO [N] | census vrr FROM TO [N] [LOSS_PCT] \
         | census check FROM TO [DROPS DUPS]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let num = |i: usize| args.get(i).and_then(|a| a.parse::<u64>().ok());
    let (Some(from), Some(to)) = (num(1), num(2)) else {
        usage();
    };
    type Recipe = fn(usize, u64) -> Simulator<SsrNode>;
    let (run, default_n): (Recipe, u64) = match args[0].as_str() {
        "boot" => (boot, 500),
        "chaos" => (chaos, 200),
        "vrr" => {
            let n = num(3).unwrap_or(50) as usize;
            let loss = match args.get(4).map(|a| a.parse::<f64>()) {
                None => 0.0,
                Some(Ok(pct)) if (0.0..100.0).contains(&pct) => pct / 100.0,
                Some(_) => usage(),
            };
            (from..=to).for_each(|g| vrr(n, g, LinkConfig::lossy(loss)));
            return;
        }
        "world" => {
            let n = num(3).unwrap_or(500) as usize;
            (from..=to).for_each(|g| world(n, g));
            return;
        }
        "check" => {
            let faults = |i| num(i).map_or(Some(0), |f| u8::try_from(f).ok());
            let (Some(drops), Some(dups)) = (faults(3), faults(4)) else {
                usage();
            };
            let bounds = Bounds { drops, dups };
            let reports: Vec<Report> = (from..=to).map(|n| check(n as usize, bounds)).collect();
            let states: u64 = reports.iter().map(|r| r.states).sum();
            let found: usize = reports.iter().map(|r| r.violations.len()).sum();
            let confirmed: usize = reports.iter().map(Report::confirmed).sum();
            println!(
                "states enumerated {states} / violations found {found} (confirmed {confirmed})"
            );
            return;
        }
        _ => usage(),
    };
    let n = num(3).unwrap_or(default_n) as usize;
    for g in from..=to {
        let sim = run(n, g);
        let m = sim.metrics();
        let ok = consistent(sim.protocols()) && m.counter("msg.flood") == 0;
        let per_node = |key| m.counter(key) as f64 / n as f64;
        let dist: Vec<Vec<u32>> = (0..n)
            .map(|u| algo::bfs_distances(sim.topology(), u))
            .collect();
        print!(
            "{g} {} {} {:.3} {:.3} {:.3} {:.3}",
            if ok { "ok" } else { "FAIL" },
            sim.now().ticks(),
            per_node("tx.total"),
            per_node("e2e.sent"),
            route_x(&sim, &dist),
            stretch(&sim, &dist, g),
        );
        for key in KINDS {
            print!(" {:.3}", per_node(key));
        }
        let (refreshed, known) = (per_node("fwd.refreshed"), per_node("rx.notify_known"));
        let announced = per_node("rx.announce_known");
        println!(" {refreshed:.3} {known:.3} {announced:.3}");
    }
}
