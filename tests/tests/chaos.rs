//! Chaos property tests: the paper's self-stabilization claim, checked
//! from *adversarially corrupted* virtual state over *arbitrary* connected
//! graphs — not just the curated topology families of the experiments.
//!
//! The property under test is E11's acceptance bar in miniature: whatever
//! (connected) physical graph and whatever garbage successor/predecessor
//! assignment the generator produces, linearization must converge to the
//! sorted ring without ever flooding.

use std::rc::Rc;

use proptest::prelude::*;
use ssr_core::bootstrap::{make_ssr_nodes, BootstrapConfig};
use ssr_core::consistency::{self, Linearized};
use ssr_core::{chaos, SsrNode};
use ssr_graph::{Graph, Labeling};
use ssr_sim::faults::{partition_groups, Fault};
use ssr_sim::{shared_watchdog, watchdog_probe, LinkConfig, Simulator, Time};
use ssr_types::Rng;
use ssr_workloads::Topology;

/// Builds a connected graph from a random spanning tree (`parents[i - 1]`
/// picks node `i`'s parent among `0..i`) plus arbitrary extra edges.
fn connected_graph(parents: &[u64], extra: &[(u64, u64)]) -> Graph {
    let n = parents.len() + 1;
    let mut g = Graph::new(n);
    for (i, &p) in parents.iter().enumerate() {
        let child = i + 1;
        g.add_edge(child, (p % child as u64) as usize);
    }
    for &(a, b) in extra {
        let (u, v) = ((a % n as u64) as usize, (b % n as u64) as usize);
        if u != v {
            g.add_edge(u, v);
        }
    }
    g
}

/// Walks the converged state and asserts it is exactly the sorted ring:
/// every node's closest right neighbor is its sorted-order successor and
/// the two extremes are mutually wrapped.
fn assert_sorted_ring(nodes: &[SsrNode], labels: &Labeling) {
    let mut ids = labels.ids().to_vec();
    ids.sort();
    for w in ids.windows(2) {
        let node = &nodes[labels.index(w[0]).unwrap()];
        assert_eq!(
            node.closest_right(),
            Some(w[1]),
            "{:?} does not point at its sorted successor",
            w[0]
        );
    }
    let min = &nodes[labels.index(ids[0]).unwrap()];
    let max = &nodes[labels.index(*ids.last().unwrap()).unwrap()];
    assert_eq!(min.wrap_pred(), Some(*ids.last().unwrap()));
    assert_eq!(max.wrap_succ(), Some(ids[0]));
}

/// The benchmark's `chaos_recovery` recipe, rebuilt from public API on the
/// two graph seeds (of 1–60) that froze before stale wrap edges were
/// re-arbitrated and lapsed physical edges re-adopted: n = 200 over lossy,
/// duplicating, reordering links, a random-successor start, a two-way
/// partition over ticks [2, 402] with 30 % extra loss on one direction of a
/// quarter of the links, under the freeze watchdog. Both ended
/// `frozen_crossing` — line formed, ring open (ticks 10 970 and 8 594).
#[test]
fn chaos_recovery_recipe_closes_the_ring_on_the_graphs_that_froze() {
    let n = 200;
    let adversarial = || LinkConfig::adversarial(0.05, 0.10, 0.15, 6);
    for graph_seed in [29u64, 47] {
        let (topo, labels) = Topology::UnitDisk { n, scale: 1.4 }.instance(graph_seed);
        let nodes = make_ssr_nodes(&labels, BootstrapConfig::default().ssr);
        let mut sim = Simulator::new(topo.clone(), nodes, adversarial(), graph_seed);
        let mut rng = Rng::new(graph_seed ^ 0x00C4_A05C);
        let succ = chaos::random_succ(labels.ids(), &mut rng);
        chaos::apply_succ_corruption(&mut sim, &labels, &succ, true);

        let watchdog = shared_watchdog();
        sim.add_probe(
            8,
            watchdog_probe(
                3_000,
                Rc::clone(&watchdog),
                chaos::ssr_signature,
                |nodes: &[SsrNode]| consistency::check_ring(nodes).consistent(),
                chaos::ssr_all_locally_consistent,
            ),
        );
        let groups = partition_groups(n, 2, &mut rng);
        sim.schedule_fault(Time(2), Fault::Partition { groups });
        sim.schedule_fault(Time(402), Fault::Heal);

        // hellos at ticks 0 and 1 run over the base links
        sim.run_until(Time(2));
        for (u, v) in topo.edges() {
            if rng.chance(0.25) {
                sim.set_link_override(u, v, adversarial().with_drop(0.30));
            }
        }
        sim.run_until(Time(402));
        sim.clear_link_overrides();
        let frozen = Rc::clone(&watchdog);
        sim.run_until_stable(8, 300_000, move |nodes, _| {
            consistency::check_ring(nodes).consistent() || frozen.borrow().is_frozen()
        });
        let report = consistency::check_ring(sim.protocols());
        assert!(
            report.consistent(),
            "graph {graph_seed}: {report:?} at tick {}, watchdog {:?}",
            sim.now().ticks(),
            watchdog.borrow().verdict
        );
        assert_eq!(sim.metrics().counter("msg.flood"), 0, "flooded!");
    }
}

/// E11's corrupt-handshake scenario (`exp_chaos`), rebuilt from public API
/// on the three seeds that froze at n = 64 before the audit round flushed
/// unsendable shortcuts: one-sided successor edges for a third of the
/// nodes and two planted cache routes `a → via → dst` per node, over ideal
/// links, under the freeze watchdog. Each ended an open ring, every node
/// locally consistent, because an extreme's first discovery hop was a
/// planted route over no physical neighbour and every probe died at its
/// sender.
#[test]
fn corrupt_handshake_runs_that_froze_on_a_planted_shortcut_converge() {
    let n = 64;
    for seed in [57u64, 68, 81] {
        let topo = Topology::UnitDisk { n, scale: 1.4 };
        let (g, labels) = topo.instance(seed.wrapping_mul(577) ^ n as u64);
        let nodes = make_ssr_nodes(&labels, BootstrapConfig::default().ssr);
        let mut sim = Simulator::new(g, nodes, LinkConfig::ideal(), seed);
        let mut rng = Rng::new(seed ^ 0x00C4_A05C);
        let pairs = chaos::half_handshake_pairs(labels.ids(), n / 3, &mut rng);
        chaos::apply_succ_corruption(&mut sim, &labels, &pairs, false);
        chaos::inject_stale_cache_routes(&mut sim, &labels, 2, &mut rng);

        let watchdog = shared_watchdog();
        sim.add_probe(
            8,
            watchdog_probe(
                3_000,
                Rc::clone(&watchdog),
                chaos::ssr_signature,
                |nodes: &[SsrNode]| consistency::check_ring(nodes).consistent(),
                chaos::ssr_all_locally_consistent,
            ),
        );
        let frozen = Rc::clone(&watchdog);
        sim.run_until_stable(8, 300_000, move |nodes, _| {
            consistency::check_ring(nodes).consistent() || frozen.borrow().is_frozen()
        });
        let report = consistency::check_ring(sim.protocols());
        assert!(
            report.consistent(),
            "seed {seed}: {report:?} at tick {}, watchdog {:?}",
            sim.now().ticks(),
            watchdog.borrow().verdict
        );
        assert_eq!(sim.metrics().counter("msg.flood"), 0, "flooded!");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A uniformly random successor/predecessor assignment (not even a
    /// permutation — see [`chaos::random_succ`]) injected over an arbitrary
    /// connected graph converges to the sorted ring with zero floods.
    #[test]
    fn random_succ_over_arbitrary_connected_graph_self_stabilizes(
        parents in proptest::collection::vec(any::<u64>(), 3..16),
        extra in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..12),
        label_seed in any::<u64>(),
        succ_seed in any::<u64>(),
    ) {
        let g = connected_graph(&parents, &extra);
        let n = g.node_count();
        let labels = Labeling::random(n, &mut Rng::new(label_seed));
        let cfg = BootstrapConfig::default();
        let nodes = make_ssr_nodes(&labels, cfg.ssr);
        let mut sim = Simulator::new(g, nodes, LinkConfig::ideal(), 7);

        let succ = chaos::random_succ(labels.ids(), &mut Rng::new(succ_seed));
        chaos::apply_succ_corruption(&mut sim, &labels, &succ, true);

        let outcome = sim.run_until_stable(8, 100_000, |nodes, _| {
            consistency::check_ring(nodes).consistent()
        });
        prop_assert!(
            outcome.is_quiescent(),
            "did not converge from corrupted start: n={n} outcome={outcome:?}"
        );
        prop_assert!(consistency::check_ring(sim.protocols()).consistent());
        assert_sorted_ring(sim.protocols(), &labels);
        prop_assert_eq!(sim.metrics().counter("msg.flood"), 0, "flooded!");
    }
}
