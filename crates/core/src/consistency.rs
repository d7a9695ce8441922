//! Global-observer consistency checkers — the re-export path of
//! [`ssr_linearize::observe`], where the ring/line predicate, the shape
//! classifier and the accessor trait [`Linearized`] live since they read
//! nothing but the control core. [`check_ring`] over `&[SsrNode]` is the
//! convergence predicate of every SSR experiment.

pub use ssr_linearize::observe::{
    check_ring, classify_succ_map, ConsistencyReport, Linearized, RingShape,
};

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_types::NodeId;
    use std::collections::BTreeMap;

    fn succ_map(pairs: &[(u64, u64)]) -> BTreeMap<NodeId, NodeId> {
        pairs.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect()
    }

    #[test]
    fn consistent_ring_classified() {
        let s = succ_map(&[(1, 4), (4, 9), (9, 13), (13, 1)]);
        assert_eq!(classify_succ_map(&s), RingShape::ConsistentRing);
    }

    #[test]
    fn loopy_state_detected() {
        // Figure 1's doubly-wound ring over {1,4,9,13,18,21,25,29}:
        // 1→9→18→25→4→13→21→29→1 — every node has exactly one successor
        // and one predecessor (locally consistent!) but the cycle winds the
        // address space twice.
        let s = succ_map(&[
            (1, 9),
            (9, 18),
            (18, 25),
            (25, 4),
            (4, 13),
            (13, 21),
            (21, 29),
            (29, 1),
        ]);
        assert_eq!(classify_succ_map(&s), RingShape::Loopy(2));
    }

    #[test]
    fn separate_rings_detected() {
        // Figure 2: {1,9,18} and {4,13,21} as two disjoint rings.
        let s = succ_map(&[(1, 9), (9, 18), (18, 1), (4, 13), (13, 21), (21, 4)]);
        assert_eq!(classify_succ_map(&s), RingShape::Partitioned(2));
    }

    #[test]
    fn incomplete_when_successor_unknown() {
        let s = succ_map(&[(1, 9), (9, 99)]);
        assert_eq!(classify_succ_map(&s), RingShape::Incomplete);
    }

    #[test]
    fn non_injective_map_is_incomplete() {
        // two nodes point at the same successor, one node unreachable
        let s = succ_map(&[(1, 9), (4, 9), (9, 1)]);
        assert_eq!(classify_succ_map(&s), RingShape::Incomplete);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(classify_succ_map(&succ_map(&[])), RingShape::ConsistentRing);
        // a single node whose successor is itself: one cycle, one winding
        assert_eq!(
            classify_succ_map(&succ_map(&[(5, 5)])),
            RingShape::ConsistentRing
        );
    }

    #[test]
    fn triple_winding() {
        // 1→5→9→2→6→10→3→7→11→1 over sorted ids 1,2,3,5,6,7,9,10,11: the
        // successor jumps +4 each time, wrapping three times.
        let s = succ_map(&[
            (1, 5),
            (5, 9),
            (9, 2),
            (2, 6),
            (6, 10),
            (10, 3),
            (3, 7),
            (7, 11),
            (11, 1),
        ]);
        assert_eq!(classify_succ_map(&s), RingShape::Loopy(3));
    }

    #[test]
    fn check_line_and_ring_over_hand_built_nodes() {
        use crate::node::SsrNode;
        use crate::route::SourceRoute;
        let ids = [NodeId(10), NodeId(20), NodeId(30)];
        let mut nodes: Vec<SsrNode> = ids.iter().map(|&i| SsrNode::new(i)).collect();
        // wire the line 10–20–30 through test-only state manipulation
        nodes[0].inject_neighbor(SourceRoute::direct(NodeId(10), NodeId(20)));
        nodes[1].inject_neighbor(SourceRoute::direct(NodeId(20), NodeId(10)));
        nodes[1].inject_neighbor(SourceRoute::direct(NodeId(20), NodeId(30)));
        nodes[2].inject_neighbor(SourceRoute::direct(NodeId(30), NodeId(20)));
        let report = check_ring(&nodes);
        assert!(report.line_formed);
        assert!(!report.ring_closed);
        assert_eq!(report.shape, RingShape::Incomplete); // min/max lack ring edges
                                                         // close the ring
        nodes[0].inject_wrap_pred(
            NodeId(30),
            SourceRoute::from_hops(vec![NodeId(10), NodeId(20), NodeId(30)]),
        );
        nodes[2].inject_wrap_succ(
            NodeId(10),
            SourceRoute::from_hops(vec![NodeId(30), NodeId(20), NodeId(10)]),
        );
        let report = check_ring(&nodes);
        assert!(report.consistent(), "{report:?}");
    }

    #[test]
    fn check_line_fails_on_extra_outer_neighbors() {
        use crate::node::SsrNode;
        use crate::route::SourceRoute;
        let mut nodes = vec![SsrNode::new(NodeId(10)), SsrNode::new(NodeId(20))];
        nodes[0].inject_neighbor(SourceRoute::direct(NodeId(10), NodeId(20)));
        nodes[1].inject_neighbor(SourceRoute::direct(NodeId(20), NodeId(10)));
        assert!(check_ring(&nodes).line_formed);
        // a stale extra neighbor below the minimum breaks the line check
        nodes[0].inject_neighbor(SourceRoute::direct(NodeId(10), NodeId(5)));
        assert!(!check_ring(&nodes).line_formed);
    }
}
