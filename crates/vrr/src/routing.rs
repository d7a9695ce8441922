//! Per-hop greedy routing over VRR path state.
//!
//! VRR forwards a packet one *physical* hop at a time: the current node
//! looks at every endpoint reachable through its path table (plus its
//! physical neighbors), picks the one virtually closest to the destination
//! (with the clockwise-progress constraint), and hands the packet to the
//! physical next hop toward that endpoint — where the decision is made
//! afresh. This module walks that process over a snapshot of all node
//! states, mirroring `ssr_core::routing` for experiment E10; each decision
//! is the node's own forwarding rule, the one its live walks take. A path
//! table names a next hop by its simulator index, so a hop is an index into
//! the node slice; addresses are looked up once per packet, to find the
//! source, in a table sorted by address.
//!
//! The same snapshot also walks one path's rows end to end
//! ([`VrrRoutingView::walk`]), each hop the node's own path-message rule,
//! which checks the tables for forwarding cycles no message has yet hit.

use std::collections::BTreeSet;

use ssr_types::NodeId;

use crate::node::VrrNode;
use crate::table::PathId;

/// Outcome of routing one packet (physical hops only — VRR has no
/// virtual-hop notion at forwarding time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VrrRouteOutcome {
    /// Arrived after this many physical hops.
    Delivered {
        /// Physical link traversals.
        physical_hops: u32,
    },
    /// A node had no candidate making clockwise progress.
    Stuck {
        /// Where the packet stalled.
        at: NodeId,
    },
    /// Hop budget exhausted.
    Exhausted,
}

impl VrrRouteOutcome {
    /// `true` iff the packet arrived.
    pub fn delivered(&self) -> bool {
        matches!(self, VrrRouteOutcome::Delivered { .. })
    }
}

/// How a walk along one path's rows ends ([`VrrRoutingView::walk`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathWalk {
    /// It reached the endpoint it walked toward.
    Through,
    /// It stopped where no row, stand-in or fallback has a hop toward that
    /// endpoint — legal for a retired or half-laid path.
    Dangling,
    /// It came back to a node with the same id over the same incoming link:
    /// a message sent along the path would circle until its hop budget
    /// runs out.
    Cycle,
}

/// Immutable routing view over all VRR nodes.
pub struct VrrRoutingView<'a> {
    /// `nodes[i]` is the protocol at simulator index `i` (path tables store
    /// physical link indices).
    nodes: &'a [VrrNode],
    /// The same nodes in ascending address order.
    by_id: Vec<&'a VrrNode>,
}

impl<'a> VrrRoutingView<'a> {
    /// Builds the view; `nodes[i]` must be the protocol at simulator index
    /// `i`, addresses distinct.
    pub fn new(nodes: &'a [VrrNode]) -> Self {
        let mut by_id: Vec<&VrrNode> = nodes.iter().collect();
        by_id.sort_unstable_by_key(|n| n.id());
        VrrRoutingView { nodes, by_id }
    }

    /// Routes a packet from `src` to `dst`, at most `max_hops` physical
    /// hops.
    pub fn route(&self, src: NodeId, dst: NodeId, max_hops: u32) -> VrrRouteOutcome {
        if src == dst {
            return VrrRouteOutcome::Delivered { physical_hops: 0 };
        }
        let Ok(at) = self.by_id.binary_search_by_key(&src, |n| n.id()) else {
            return VrrRouteOutcome::Stuck { at: src };
        };
        let mut cur = self.by_id[at];
        let mut hops = 0u32;
        while hops < max_hops {
            let next = cur.greedy_next(dst).and_then(|link| self.nodes.get(link));
            let Some(next) = next else {
                return VrrRouteOutcome::Stuck { at: cur.id() };
            };
            hops += 1;
            if next.id() == dst {
                return VrrRouteOutcome::Delivered {
                    physical_hops: hops,
                };
            }
            cur = next;
        }
        VrrRouteOutcome::Exhausted
    }

    /// Walks the path `id` from the node at simulator index `start` toward
    /// its endpoint `toward`, one [`VrrNode`] path-message hop at a time
    /// (the rule a relay forwards by, with the previous node's index as
    /// the link the walk came in on), following the id each hop carries on.
    pub fn walk(&self, start: usize, id: PathId, toward: NodeId) -> PathWalk {
        let (mut at, mut id, mut came_from) = (start, id, None);
        let mut seen = BTreeSet::new();
        loop {
            let Some(node) = self.nodes.get(at) else {
                return PathWalk::Dangling;
            };
            if node.id() == toward {
                return PathWalk::Through;
            }
            if !seen.insert((at, id, came_from)) {
                return PathWalk::Cycle;
            }
            let Some(hop) = node.carry(id, toward, came_from) else {
                return PathWalk::Dangling;
            };
            (at, id, came_from) = (hop.link, hop.carrier, Some(at));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::{run_vrr_bootstrap, vrr_ring_consistent};
    use crate::node::VrrMode;
    use ssr_graph::{generators, Labeling};
    use ssr_sim::LinkConfig;

    /// Bootstraps a small line network and routes over the converged state.
    fn converged_line(n: usize) -> (Vec<VrrNode>, Labeling) {
        let topo = generators::line(n);
        let labels = Labeling::sequential(n, 10);
        let (report, sim) = run_vrr_bootstrap(
            &topo,
            &labels,
            VrrMode::Linearized,
            LinkConfig::ideal(),
            1,
            100_000,
        );
        assert!(report.converged, "{report:?}");
        (sim.protocols().to_vec(), labels)
    }

    #[test]
    fn routes_all_pairs_on_a_converged_line() {
        let (nodes, labels) = converged_line(6);
        assert!(vrr_ring_consistent(&nodes));
        let view = VrrRoutingView::new(&nodes);
        for a in 0..6 {
            for b in 0..6 {
                let out = view.route(labels.id(a), labels.id(b), 64);
                assert!(out.delivered(), "{a}->{b}: {out:?}");
            }
        }
    }

    /// Every first hop the view takes is the node's own forwarding
    /// decision — physical neighbours included, breadcrumbs skipped — for
    /// every node and destination of a few converged unit-disk rings.
    #[test]
    fn the_view_forwards_by_the_nodes_own_greedy_rule() {
        for (n, seed) in [(20, 0), (30, 1), (50, 3)] {
            let mut rng = ssr_types::Rng::new(seed);
            let (topo, _) = generators::unit_disk_connected(n, 1.3, &mut rng);
            let labels = Labeling::random(n, &mut rng);
            let (report, sim) = run_vrr_bootstrap(
                &topo,
                &labels,
                VrrMode::Linearized,
                LinkConfig::ideal(),
                seed,
                20_000,
            );
            assert!(report.converged, "n {n} seed {seed}: {report:?}");
            let nodes = sim.protocols();
            let view = VrrRoutingView::new(nodes);
            for node in nodes {
                for &dst in labels.ids().iter().filter(|&&d| d != node.id()) {
                    let expected = match node.greedy_next(dst).map(|link| nodes[link].id()) {
                        None => VrrRouteOutcome::Stuck { at: node.id() },
                        Some(next) if next == dst => {
                            VrrRouteOutcome::Delivered { physical_hops: 1 }
                        }
                        Some(_) => VrrRouteOutcome::Exhausted,
                    };
                    assert_eq!(view.route(node.id(), dst, 1), expected, "n {n} seed {seed}");
                }
            }
        }
    }

    /// Six hand-laid nodes, addresses 10, 20, …, 60 at indices 0–5, with
    /// `pid` between 10 and 60 laid over `walk`.
    fn laid(walk: &[usize]) -> (Vec<VrrNode>, PathId) {
        let mut nodes: Vec<VrrNode> = (1..=6).map(|i| VrrNode::new(NodeId(10 * i))).collect();
        let pid = PathId::new(NodeId(10), NodeId(60), 7);
        crate::node::lay_path(&mut nodes, pid, walk);
        (nodes, pid)
    }

    /// A laid path walks through from either endpoint, and from a relay.
    #[test]
    fn a_laid_path_walks_through() {
        let (nodes, pid) = laid(&[0, 1, 2, 5]);
        let view = VrrRoutingView::new(&nodes);
        assert_eq!(view.walk(0, pid, NodeId(60)), PathWalk::Through);
        assert_eq!(view.walk(5, pid, NodeId(10)), PathWalk::Through);
        assert_eq!(view.walk(2, pid, NodeId(10)), PathWalk::Through);
    }

    /// A relay that holds no row for the path, and no other row for its
    /// endpoints, leaves the walk dangling there.
    #[test]
    fn a_walk_dangles_where_a_relay_lost_its_row() {
        let (mut nodes, pid) = laid(&[0, 1, 2, 5]);
        nodes[2] = VrrNode::new(NodeId(30));
        let view = VrrRoutingView::new(&nodes);
        assert_eq!(view.walk(0, pid, NodeId(60)), PathWalk::Dangling);
        assert_eq!(view.walk(5, pid, NodeId(10)), PathWalk::Dangling);
        assert_eq!(view.walk(1, pid, NodeId(10)), PathWalk::Through);
    }

    /// A lay that passes node 20 twice, 10 → 20 → 30 → 40 → 20 → 60: 20
    /// keeps the second pass's hops, one toward each endpoint. Toward 60
    /// the walk goes through (10 → 20 → 60); toward 10 it goes 60 → 20 →
    /// 40 → 30 → 20 and round again, never reaching 10 — the shape of the
    /// latent cycles the census counts.
    #[test]
    fn a_lay_that_passes_a_node_twice_cycles_toward_its_first_endpoint() {
        let (nodes, pid) = laid(&[0, 1, 2, 3, 1, 5]);
        let view = VrrRoutingView::new(&nodes);
        assert_eq!(view.walk(0, pid, NodeId(60)), PathWalk::Through);
        assert_eq!(view.walk(5, pid, NodeId(10)), PathWalk::Cycle);
        assert_eq!(view.walk(2, pid, NodeId(10)), PathWalk::Cycle);
    }

    #[test]
    fn self_route_is_free() {
        let (nodes, labels) = converged_line(4);
        let view = VrrRoutingView::new(&nodes);
        assert_eq!(
            view.route(labels.id(2), labels.id(2), 8),
            VrrRouteOutcome::Delivered { physical_hops: 0 }
        );
    }

    #[test]
    fn hop_budget_is_respected() {
        let (nodes, labels) = converged_line(6);
        let view = VrrRoutingView::new(&nodes);
        // the two line ends are 5 physical hops apart; a budget of 1 cannot
        // reach (either Exhausted, or Stuck if no candidate)
        let out = view.route(labels.id(0), labels.id(5), 1);
        assert!(!out.delivered(), "{out:?}");
    }

    #[test]
    fn unknown_source_is_stuck() {
        let (nodes, _) = converged_line(4);
        let view = VrrRoutingView::new(&nodes);
        let ghost = ssr_types::NodeId(999_999);
        assert_eq!(
            view.route(ghost, ssr_types::NodeId(10), 8),
            VrrRouteOutcome::Stuck { at: ghost }
        );
    }

    #[test]
    fn physical_hops_are_counted() {
        let (nodes, labels) = converged_line(5);
        let view = VrrRoutingView::new(&nodes);
        match view.route(labels.id(0), labels.id(4), 64) {
            VrrRouteOutcome::Delivered { physical_hops } => {
                assert_eq!(physical_hops, 4, "line end-to-end is 4 physical hops");
            }
            other => panic!("{other:?}"),
        }
    }
}
