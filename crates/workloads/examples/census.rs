//! Per-graph census of the benchmark's two SSR recipes and its VRR one,
//! rebuilt from the public API exactly as `benchmark/README.md` states
//! them. The SSR recipes print one line
//! `graph ok|FAIL ticks msgs_per_node e2e_per_node route_x KINDS… refreshed
//! known` per graph seed, where the [`KINDS`] columns say where the messages
//! go, per node: end-to-end messages by class (`e2e.*`), then hops by kind
//! (`msg.*`); `refreshed` is the cached routes per node that an envelope
//! passing by shortened (`fwd.refreshed`), and `known` the introductions per
//! node that named a node the receiver already held (`rx.notify_known`).
//!
//! ```text
//! census boot|chaos FROM TO [N]       graph seeds FROM..=TO, N nodes (500 | 200)
//! census vrr FROM TO [N] [LOSS_PCT]   the same for `vrr_bootstrap` (N = 50),
//!                                     every link dropping LOSS_PCT % (0)
//! census world FROM TO [N]            `boot`'s graphs (N = 500) in the
//!                                     overlay-only world
//! ```
//!
//! The `world` recipe runs `ssr_linearize::world` on the graphs `boot`
//! bootstraps SSR on and prints `graph ok|FAIL ticks msgs_per_node
//! max_degree max_handshakes CLASSES…`: the most handshakes one node
//! started, then messages per node by class, named as the SSR recipes'
//! `e2e.*` columns. A world message travels one overlay edge, so its
//! messages per node compare with SSR's `e2e_per_node`, not with its hops.
//!
//! The `vrr` recipe prints `graph verdict ticks msgs_per_node ttl_expired
//! state live KINDS…`: the watchdog's verdict (`converged`,
//! `frozen_crossing`, …), the messages along a virtual edge per node that
//! ran out of hops (`fwd.ttl_expired`), the path-table entries per node,
//! the entries per node whose path some node still holds as an edge (in a
//! side set or a ring-closure slot — the rest belong to retired or replaced
//! edges, or are discovery breadcrumbs), then the same
//! [`KINDS`] columns as the SSR recipes — `VrrNode` counts `e2e.*` where a
//! message starts, so a path's relays add hops, not messages. A non-zero
//! `LOSS_PCT` runs the recipe over `LinkConfig::lossy`; the benchmark's own
//! workload is lossless.
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
use ssr_graph::algo;
use ssr_linearize::world::{Faults, World, CLASSES};
use ssr_sim::faults::{partition_groups, Fault};
use ssr_sim::{shared_watchdog, watchdog_probe, LinkConfig, Simulator, Time};
use ssr_types::{Rng, Side};
use ssr_vrr::table::PathId;
use ssr_vrr::{run_vrr_bootstrap_watched, Linearized, VrrMode};
use ssr_workloads::Topology;

const GRID: u64 = 8;

/// The columns after `route_x`: end-to-end messages by class, then hops by
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
/// entries before dividing (as `route_stretch` sums over its queries). One
/// all-pairs BFS.
fn route_x(sim: &Simulator<SsrNode>) -> f64 {
    let g = sim.topology();
    let mut index: Vec<_> = (sim.protocols().iter().enumerate())
        .map(|(u, node)| (node.id(), u))
        .collect();
    index.sort_unstable();
    let (mut hops, mut shortest) = (0u64, 0u64);
    for (u, node) in sim.protocols().iter().enumerate() {
        let dist = algo::bfs_distances(g, u);
        for (dst, route) in node.cache().iter() {
            let Ok(at) = index.binary_search_by_key(&dst, |&(id, _)| id) else {
                continue;
            };
            let d = dist[index[at].1];
            if d != algo::UNREACHABLE {
                hops += route.len() as u64;
                shortest += u64::from(d);
            }
        }
    }
    hops as f64 / shortest.max(1) as f64
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
    println!();
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

fn usage() -> ! {
    eprintln!("usage: census boot|chaos|world FROM TO [N] | census vrr FROM TO [N] [LOSS_PCT]");
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
        _ => usage(),
    };
    let n = num(3).unwrap_or(default_n) as usize;
    for g in from..=to {
        let sim = run(n, g);
        let m = sim.metrics();
        let ok = consistent(sim.protocols()) && m.counter("msg.flood") == 0;
        let per_node = |key| m.counter(key) as f64 / n as f64;
        print!(
            "{g} {} {} {:.3} {:.3} {:.3}",
            if ok { "ok" } else { "FAIL" },
            sim.now().ticks(),
            per_node("tx.total"),
            per_node("e2e.sent"),
            route_x(&sim),
        );
        for key in KINDS {
            print!(" {:.3}", per_node(key));
        }
        let (refreshed, known) = (per_node("fwd.refreshed"), per_node("rx.notify_known"));
        println!(" {refreshed:.3} {known:.3}");
    }
}
