//! Greedy source routing over (converged or converging) node state.
//!
//! "When routing a packet, the respective node chooses that (intermediate)
//! destination from its cache that is physically closest to itself and
//! virtually closest to the final destination of the packet" — realized
//! here as the clockwise-progress rule of [`RouteCache::best_toward`]
//! (virtual progress decides, over every node a cached route passes; the
//! shortest cached prefix to the pick is the way there), repeated at every
//! intermediate destination until arrival.
//!
//! "If the virtual ring has been formed consistently, this routing algorithm
//! is guaranteed to succeed for any source and destination pair" — that
//! guarantee is exactly what experiment E7 measures, so this module routes
//! over a *snapshot* of all node states (fast, deterministic, no protocol
//! interference) and reports virtual hops, physical hops, and failures. The
//! snapshot is flat: addresses ascending, and beside each one the nodes its
//! cache reaches, ascending, with the fewest physical hops it reaches each
//! in. A virtual hop is one binary search into the addresses and one into
//! the node's table.
//!
//! [`RouteCache::best_toward`]: crate::cache::RouteCache::best_toward

use std::marker::PhantomData;

use ssr_types::{cw_dist, NodeId};

use crate::node::SsrNode;

/// Outcome of routing one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteOutcome {
    /// Arrived; counts are (virtual hops, physical hops).
    Delivered {
        /// Greedy routing steps (intermediate destinations).
        virtual_hops: u32,
        /// Physical link traversals.
        physical_hops: u32,
    },
    /// A node had no cache entry making clockwise progress — the ring is
    /// (still) inconsistent toward this destination.
    Stuck {
        /// Node at which the packet stalled.
        at: NodeId,
    },
    /// The hop budget was exhausted (defensively bounded walk).
    Exhausted,
}

impl RouteOutcome {
    /// `true` iff the packet arrived.
    pub fn delivered(&self) -> bool {
        matches!(self, RouteOutcome::Delivered { .. })
    }
}

/// An immutable routing view over all node states, built once per
/// snapshot.
pub struct RoutingView<'a> {
    /// Node addresses, ascending.
    ids: Vec<NodeId>,
    /// The node at `ids[i]` reaches `reach[offsets[i]..offsets[i + 1]]`,
    /// ascending and never itself: every hop of every route it caches.
    offsets: Vec<u32>,
    reach: Vec<NodeId>,
    /// `hops[j]`: the fewest physical hops a cached prefix takes to
    /// `reach[j]`.
    hops: Vec<u32>,
    /// The view copies what it reads, but describes the nodes it was built
    /// from and lives no longer than they do.
    snapshot: PhantomData<&'a [SsrNode]>,
}

impl<'a> RoutingView<'a> {
    /// Builds the view from linearized SSR nodes (distinct addresses).
    pub fn new(nodes: &'a [SsrNode]) -> Self {
        let mut sorted: Vec<&SsrNode> = nodes.iter().collect();
        sorted.sort_unstable_by_key(|n| n.id());
        let mut view = RoutingView {
            ids: sorted.iter().map(|n| n.id()).collect(),
            offsets: Vec::with_capacity(sorted.len() + 1),
            reach: Vec::new(),
            hops: Vec::new(),
            snapshot: PhantomData,
        };
        view.offsets.push(0);
        // one node's (hop, prefix length) pairs, reused
        let mut row: Vec<(NodeId, u32)> = Vec::new();
        for node in sorted {
            row.clear();
            for (_, route) in node.cache().iter() {
                let passed = route.hops().iter().copied().zip(0..).skip(1);
                row.extend(passed.filter(|&(hop, _)| hop != node.id()));
            }
            // sorted by (hop, length), the first of each hop is its shortest
            row.sort_unstable();
            row.dedup_by_key(|&mut (hop, _)| hop);
            view.reach.extend(row.iter().map(|&(hop, _)| hop));
            view.hops.extend(row.iter().map(|&(_, len)| len));
            let end = u32::try_from(view.reach.len()).expect("fewer than 2^32 reachable entries");
            view.offsets.push(end);
        }
        view
    }

    /// One virtual hop: what [`RouteCache::best_toward`] at `at` picks
    /// toward `target`, and the physical hops of the prefix there. `None`
    /// if `at` is no node's address or nothing it reaches lies on the
    /// clockwise arc `(at, target]`.
    ///
    /// [`RouteCache::best_toward`]: crate::cache::RouteCache::best_toward
    pub fn next_hop(&self, at: NodeId, target: NodeId) -> Option<(NodeId, u32)> {
        let i = self.ids.binary_search(&at).ok()?;
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        let reach = &self.reach[lo..hi];
        // the cyclic predecessor-or-equal of the target: nothing at or
        // below it means the row's largest, across the wrap
        let upto = reach.partition_point(|&h| h <= target);
        let j = upto.checked_sub(1).or(reach.len().checked_sub(1))?;
        (cw_dist(at, reach[j]) <= cw_dist(at, target)).then(|| (reach[j], self.hops[lo + j]))
    }

    /// Routes a packet from `src` to `dst` greedily. `max_virtual_hops`
    /// bounds the walk (n + a margin is plenty on a consistent ring).
    pub fn route(&self, src: NodeId, dst: NodeId, max_virtual_hops: u32) -> RouteOutcome {
        if src == dst {
            return RouteOutcome::Delivered {
                virtual_hops: 0,
                physical_hops: 0,
            };
        }
        let mut cur = src;
        let mut virtual_hops = 0u32;
        let mut physical_hops = 0u32;
        while virtual_hops < max_virtual_hops {
            let Some((next, hops)) = self.next_hop(cur, dst) else {
                return RouteOutcome::Stuck { at: cur };
            };
            virtual_hops += 1;
            physical_hops += hops;
            cur = next;
            if cur == dst {
                return RouteOutcome::Delivered {
                    virtual_hops,
                    physical_hops,
                };
            }
        }
        RouteOutcome::Exhausted
    }
}

/// Aggregate routing statistics over many trials.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoutingStats {
    /// Packets routed.
    pub attempts: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Total virtual hops over delivered packets.
    pub virtual_hops: u64,
    /// Total physical hops over delivered packets.
    pub physical_hops: u64,
    /// Total shortest-path hops over delivered packets (for stretch).
    pub shortest_hops: u64,
}

impl RoutingStats {
    /// Delivery rate in `[0, 1]`.
    pub fn success_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.delivered as f64 / self.attempts as f64
        }
    }

    /// Mean physical path stretch vs the shortest path.
    pub fn stretch(&self) -> f64 {
        if self.shortest_hops == 0 {
            0.0
        } else {
            self.physical_hops as f64 / self.shortest_hops as f64
        }
    }

    /// Mean virtual hops per delivered packet.
    pub fn mean_virtual_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.virtual_hops as f64 / self.delivered as f64
        }
    }

    /// Records one trial (`shortest` = ground-truth hop distance).
    pub fn record(&mut self, outcome: RouteOutcome, shortest: u32) {
        self.attempts += 1;
        if let RouteOutcome::Delivered {
            virtual_hops,
            physical_hops,
        } = outcome
        {
            self.delivered += 1;
            self.virtual_hops += u64::from(virtual_hops);
            self.physical_hops += u64::from(physical_hops);
            self.shortest_hops += u64::from(shortest);
        }
    }

    /// Like [`RoutingStats::record`], additionally feeding the canonical
    /// route histograms — `route.len` (physical hops of delivered packets)
    /// and `route.stretch_milli` (per-packet stretch × 1000, so the log
    /// buckets resolve ratios near 1) — plus the `route.attempts` /
    /// `route.delivered` counters.
    pub fn record_observed(
        &mut self,
        outcome: RouteOutcome,
        shortest: u32,
        metrics: &mut ssr_sim::Metrics,
    ) {
        metrics.incr("route.attempts");
        if let RouteOutcome::Delivered { physical_hops, .. } = outcome {
            metrics.incr("route.delivered");
            metrics.observe_hist("route.len", u64::from(physical_hops));
            if shortest > 0 {
                let stretch_milli = u64::from(physical_hops) * 1000 / u64::from(shortest);
                metrics.observe_hist("route.stretch_milli", stretch_milli);
            }
        }
        self.record(outcome, shortest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::{
        make_ssr_nodes, run_linearized_bootstrap, topo_and_labels, BootstrapConfig,
    };
    use crate::cache::RouteCache;
    use crate::route::SourceRoute;
    use ssr_sim::{LinkConfig, Simulator, Time};
    use std::collections::BTreeMap;

    /// The view as it was until the sorted table replaced it: every virtual
    /// hop resolved through an id-keyed tree of caches, asking each cache's
    /// own [`RouteCache::best_toward`]. Kept only to say what
    /// [`RoutingView::route`] must return.
    fn reference_route(
        caches: &BTreeMap<NodeId, &RouteCache>,
        src: NodeId,
        dst: NodeId,
        max_virtual_hops: u32,
    ) -> RouteOutcome {
        let (mut cur, mut virtual_hops, mut physical_hops) = (src, 0u32, 0u32);
        while cur != dst {
            if virtual_hops == max_virtual_hops {
                return RouteOutcome::Exhausted;
            }
            let Some((next, prefix)) = caches.get(&cur).and_then(|c| c.best_toward(dst)) else {
                return RouteOutcome::Stuck { at: cur };
            };
            virtual_hops += 1;
            physical_hops += prefix.len() as u32 - 1;
            cur = next;
        }
        RouteOutcome::Delivered {
            virtual_hops,
            physical_hops,
        }
    }

    /// All pairs over a converged n = 40 ring, over the same network at
    /// tick 6 (where packets strand, and the `Stuck` address must match),
    /// and from and to addresses that are no node's.
    #[test]
    fn sorted_view_routes_like_the_tree_view() {
        let (g, labels) = topo_and_labels(40, 3);
        let cfg = BootstrapConfig::default();
        let (report, done) = run_linearized_bootstrap(&g, &labels, &cfg);
        assert!(report.converged, "{report:?}");
        let nodes = make_ssr_nodes(&labels, cfg.ssr);
        let mut early = Simulator::new(g, nodes, LinkConfig::ideal(), cfg.seed);
        early.run_until(Time(6));

        let mut ends = labels.ids().to_vec();
        ends.extend([NodeId(0), NodeId(u64::MAX), NodeId(ends[0].0 ^ 1)]);
        assert!(ends[40..]
            .iter()
            .all(|&ghost| labels.index(ghost).is_none()));
        for (nodes, all_delivered) in [(done.protocols(), true), (early.protocols(), false)] {
            let view = RoutingView::new(nodes);
            let tree = nodes.iter().map(|n| (n.id(), n.cache())).collect();
            let (mut delivered, mut stuck) = (0, 0);
            for &src in &ends {
                for &dst in &ends {
                    let out = view.route(src, dst, 160);
                    assert_eq!(
                        out,
                        reference_route(&tree, src, dst, 160),
                        "{src:?}→{dst:?}"
                    );
                    delivered += usize::from(out.delivered());
                    stuck += usize::from(matches!(out, RouteOutcome::Stuck { .. }));
                }
            }
            // node pairs all arrive on the ring; ghosts strand either way
            assert_eq!(delivered >= 40 * 40 + 3, all_delivered);
            assert!(stuck >= 3 * 40, "ghost endpoints must strand");
        }
        assert_eq!(
            RoutingView::new(done.protocols()).route(ends[41], ends[0], 160),
            RouteOutcome::Stuck { at: ends[41] }
        );
    }

    /// Hand-build a consistent 4-node ring 10–20–30–40 where each node
    /// caches only its ring neighbors (worst case for greedy: pure
    /// successor walking).
    fn ring_nodes() -> Vec<SsrNode> {
        let ids = [10u64, 20, 30, 40].map(NodeId);
        let mut nodes: Vec<SsrNode> = ids.iter().map(|&i| SsrNode::new(i)).collect();
        for i in 0..4 {
            let me = ids[i];
            let right = ids[(i + 1) % 4];
            let left = ids[(i + 3) % 4];
            if right > me {
                nodes[i].inject_neighbor(SourceRoute::direct(me, right));
            } else {
                nodes[i].inject_wrap_succ(right, SourceRoute::direct(me, right));
            }
            if left < me {
                nodes[i].inject_neighbor(SourceRoute::direct(me, left));
            } else {
                nodes[i].inject_wrap_pred(left, SourceRoute::direct(me, left));
            }
        }
        nodes
    }

    #[test]
    fn ring_walk_delivers_everywhere() {
        let nodes = ring_nodes();
        let view = RoutingView::new(&nodes);
        for src in [10u64, 20, 30, 40] {
            for dst in [10u64, 20, 30, 40] {
                let out = view.route(NodeId(src), NodeId(dst), 16);
                assert!(out.delivered(), "{src}→{dst}: {out:?}");
            }
        }
    }

    #[test]
    fn wrap_edge_used_for_crossing_the_seam() {
        let nodes = ring_nodes();
        let view = RoutingView::new(&nodes);
        // 40 → 10 must cross the wrap edge in one virtual hop
        match view.route(NodeId(40), NodeId(10), 16) {
            RouteOutcome::Delivered { virtual_hops, .. } => assert_eq!(virtual_hops, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shortcut_reduces_virtual_hops() {
        let mut nodes = ring_nodes();
        // give node 10 a shortcut straight to 40
        nodes[0].inject_neighbor(SourceRoute::direct(NodeId(10), NodeId(40)));
        let view = RoutingView::new(&nodes);
        match view.route(NodeId(10), NodeId(40), 16) {
            RouteOutcome::Delivered { virtual_hops, .. } => assert_eq!(virtual_hops, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn broken_ring_reports_stuck() {
        let mut nodes = ring_nodes();
        // amputate node 20's knowledge entirely
        ssr_sim::Protocol::reset(&mut nodes[1]);
        let view = RoutingView::new(&nodes);
        match view.route(NodeId(10), NodeId(30), 16) {
            RouteOutcome::Stuck { at } => assert_eq!(at, NodeId(20)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn self_route_is_free() {
        let nodes = ring_nodes();
        let view = RoutingView::new(&nodes);
        assert_eq!(
            view.route(NodeId(10), NodeId(10), 16),
            RouteOutcome::Delivered {
                virtual_hops: 0,
                physical_hops: 0
            }
        );
    }

    #[test]
    fn hop_budget_bounds_the_walk() {
        let nodes = ring_nodes();
        let view = RoutingView::new(&nodes);
        // 10 → 30 needs two successor hops (the ring edge to 40 overshoots
        // and is never a candidate); budget 1 fails
        assert_eq!(
            view.route(NodeId(10), NodeId(30), 1),
            RouteOutcome::Exhausted
        );
        assert!(view.route(NodeId(10), NodeId(30), 2).delivered());
    }

    #[test]
    fn record_observed_feeds_route_histograms() {
        let mut stats = RoutingStats::default();
        let mut metrics = ssr_sim::Metrics::new();
        stats.record_observed(
            RouteOutcome::Delivered {
                virtual_hops: 2,
                physical_hops: 6,
            },
            4,
            &mut metrics,
        );
        stats.record_observed(RouteOutcome::Exhausted, 3, &mut metrics);
        assert_eq!(stats.attempts, 2);
        let len = metrics.hist("route.len").expect("route.len");
        assert_eq!(len.count(), 1);
        assert_eq!(len.max(), Some(6));
        // 6 hops over a 4-hop shortest path = stretch 1.5 → 1500
        let stretch = metrics.hist("route.stretch_milli").expect("stretch");
        assert_eq!(stretch.max(), Some(1500));
    }

    #[test]
    fn stats_aggregation() {
        let mut stats = RoutingStats::default();
        stats.record(
            RouteOutcome::Delivered {
                virtual_hops: 2,
                physical_hops: 4,
            },
            2,
        );
        stats.record(RouteOutcome::Stuck { at: NodeId(1) }, 1);
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.delivered, 1);
        assert!((stats.success_rate() - 0.5).abs() < 1e-12);
        assert!((stats.stretch() - 2.0).abs() < 1e-12);
        assert!((stats.mean_virtual_hops() - 2.0).abs() < 1e-12);
    }
}
