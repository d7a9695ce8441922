//! Chaos property tests: the paper's self-stabilization claim, checked
//! from *adversarially corrupted* virtual state over *arbitrary* connected
//! graphs — not just the curated topology families of the experiments.
//!
//! The property under test is E11's acceptance bar in miniature: whatever
//! (connected) physical graph and whatever garbage successor/predecessor
//! assignment the generator produces, linearization must converge to the
//! sorted ring without ever flooding.

use proptest::prelude::*;
use ssr_core::bootstrap::{make_ssr_nodes, BootstrapConfig};
use ssr_core::consistency::{self, Linearized};
use ssr_core::{chaos, SsrNode};
use ssr_graph::{Graph, Labeling};
use ssr_sim::{LinkConfig, Simulator};
use ssr_types::Rng;

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
