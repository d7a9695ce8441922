//! Greedy source routing over (converged or converging) node state.
//!
//! "When routing a packet, the respective node chooses that (intermediate)
//! destination from its cache that is physically closest to itself and
//! virtually closest to the final destination of the packet" — realized
//! here as the clockwise-progress rule of [`RouteCache::best_toward`]
//! (virtual progress decides, over every node a cached route passes; the
//! shortest cached prefix to the pick is the way there). The respective node
//! is every node that holds the packet: the one that picked the prefix's end
//! and each relay on the prefix, which takes the packet over where its own
//! cache holds a node strictly closer to the destination than that end
//! (`node_util::receive_forward`). Every decision strictly shrinks the
//! clockwise distance left, so the walk stays loop-free.
//!
//! "If the virtual ring has been formed consistently, this routing algorithm
//! is guaranteed to succeed for any source and destination pair" — that
//! guarantee is exactly what experiment E7 measures, so this module routes
//! over a *snapshot* of all node states (fast, deterministic, no protocol
//! interference) and reports virtual hops, physical hops, and failures. The
//! snapshot is flat: addresses ascending, and beside each one the nodes its
//! cache reaches, ascending, with the fewest physical hops it reaches each
//! in. Nodes are named by *rank*, their position among the addresses, so a
//! query searches the addresses once, for the destination's rank, and
//! each decision searches only the holder's table.
//!
//! **No relay is searched at query time.** Take the entry for hop `h`,
//! reached over `[u, r1 … rk, h]`. No relay lies on `(h, dst]`: `u` reaches
//! every relay, and would have picked it. So relay `ri` takes over exactly
//! when its table holds a node on `(h, dst]`, that is when `cw(h, gi) ≤
//! cw(h, dst)` for `gi` the first node of its table clockwise after `h`.
//! The first relay to take over is the first whose `cw(h, gi)` is at most
//! the distance left, so the build keeps per entry only the *staircase*: the
//! relays whose `cw(h, gi)` is below every earlier relay's and below the gap
//! to `u`'s next entry (past it, `u` picks that entry instead), and beside
//! it the high half of the least such distance. A query compares the high
//! half of the distance left with it and reads the staircase only when a
//! relay may take over.
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
        /// Greedy decisions: one at the source, one at every intermediate
        /// destination, and one at every relay that took the packet over.
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
/// snapshot. It speaks in *ranks*, positions in its ascending address
/// table: comparing two ranks compares the addresses.
pub struct RoutingView<'a> {
    /// Every address the view knows, ascending: the nodes', and any other
    /// that a cached route passes, which reaches nothing.
    ids: Vec<NodeId>,
    /// The address of rank `i` reaches the ranks
    /// `reach[offsets[i]..offsets[i + 1]]`, ascending and never itself:
    /// every hop of every route it caches.
    offsets: Vec<u32>,
    reach: Vec<u32>,
    /// `entries[j]`: what a decision that picked `reach[j]` reads next;
    /// one more at the end, where the last staircase ends.
    entries: Vec<Entry>,
    /// Every entry's staircase, one after the other.
    stairs: Vec<Stair>,
    /// The view copies what it reads, but describes the nodes it was built
    /// from and lives no longer than they do.
    snapshot: PhantomData<&'a [SsrNode]>,
}

/// One node a cached route passes, seen from the route's owner.
#[derive(Clone, Copy)]
struct Entry {
    /// The high half of the least clockwise distance left from the node
    /// at which a relay on the prefix there takes the packet over (with no
    /// stair, of the gap to the owner's next entry, past which the owner
    /// picks that entry). A distance left with a lower high half passes
    /// every relay; only the others read the staircase. Half a distance
    /// keeps the entry at 12 bytes.
    least: u32,
    /// The fewest physical hops a cached prefix takes to the node.
    hops: u32,
    /// The entry's staircase is `stairs[self.stairs..next.stairs]`, `next`
    /// the entry after it.
    stairs: u32,
}

/// A relay on an entry's prefix that takes the packet over when the
/// clockwise distance left from the entry's hop is at least `within`.
/// Along a staircase `within` strictly falls, so the first stair that
/// fires is the first relay that does.
#[derive(Clone, Copy)]
struct Stair {
    within: u64,
    /// The relay's rank.
    relay: u32,
    /// Physical hops from the entry's owner to the relay.
    at: u32,
}

impl<'a> RoutingView<'a> {
    /// Builds the view from linearized SSR nodes (distinct addresses): the
    /// ranks, then every node's table, then every entry's staircase, read
    /// off the tables of the relays on its prefix.
    pub fn new(nodes: &'a [SsrNode]) -> Self {
        let mut sorted: Vec<&SsrNode> = nodes.iter().collect();
        sorted.sort_unstable_by_key(|n| n.id());
        let mut ids: Vec<NodeId> = sorted.iter().map(|n| n.id()).collect();
        // a hop that is no node's address gets a rank too
        let hops = sorted
            .iter()
            .flat_map(|n| n.cache().iter())
            .flat_map(|(_, r)| r.hops());
        let strays: Vec<NodeId> = hops
            .filter(|h| ids.binary_search(h).is_err())
            .copied()
            .collect();
        ids.extend(strays);
        ids.sort_unstable();
        ids.dedup();
        let mut view = RoutingView {
            ids,
            offsets: Vec::new(),
            reach: Vec::new(),
            entries: Vec::new(),
            stairs: Vec::new(),
            snapshot: PhantomData,
        };
        // one node's (hop rank, prefix length) pairs, reused
        let mut row: Vec<(u32, u32)> = Vec::new();
        // sized first, so no table is grown by copying; a converged ring
        // has fewer stairs than entries
        let entries = sorted
            .iter()
            .map(|node| view.fill_row(node, &mut row))
            .sum();
        view.offsets.reserve_exact(view.ids.len() + 1);
        view.reach.reserve_exact(entries);
        view.entries.reserve_exact(entries + 1);
        view.stairs.reserve_exact(entries);
        view.offsets.push(0);
        let mut owners = sorted.iter().peekable();
        for rank in 0..view.ids.len() {
            // an address no node has reaches nothing
            if let Some(node) = owners.next_if(|node| node.id() == view.ids[rank]) {
                view.fill_row(node, &mut row);
                view.reach.extend(row.iter().map(|&(hop, _)| hop));
                let entries = row.iter().map(|&(_, hops)| Entry {
                    least: u32::MAX,
                    hops,
                    stairs: 0,
                });
                view.entries.extend(entries);
            }
            let end = u32::try_from(view.reach.len()).expect("fewer than 2^32 reachable entries");
            view.offsets.push(end);
        }
        for node in &sorted {
            let (lo, hi) = view.row_bounds(view.rank(node.id()));
            for j in lo..hi {
                let (hop, len) = (
                    view.ids[view.reach[j] as usize],
                    view.entries[j].hops as usize,
                );
                // the prefix `best_toward` takes: the first route, in
                // destination order, that passes `hop` after `len` hops
                let (_, route) = (node.cache().iter())
                    .find(|(_, r)| r.hops().get(len) == Some(&hop))
                    .expect("the first pass found a prefix this long");
                // past the next entry the owner picks that one instead
                let next = view.ids[view.reach[if j + 1 < hi { j + 1 } else { lo }] as usize];
                let mut below = if next == hop {
                    u64::MAX
                } else {
                    cw_dist(hop, next)
                };
                view.entries[j].stairs =
                    u32::try_from(view.stairs.len()).expect("fewer than 2^32 stairs");
                for (&relay, at) in route.hops()[1..len].iter().zip(1..) {
                    let relay = view.rank(relay);
                    let within = view
                        .first_past(relay, view.reach[j])
                        .map_or(u64::MAX, |g| cw_dist(hop, g));
                    if within < below {
                        let relay = relay as u32;
                        view.stairs.push(Stair { within, relay, at });
                        below = within;
                    }
                }
                view.entries[j].least = (below >> 32) as u32;
            }
        }
        let end = u32::try_from(view.stairs.len()).expect("fewer than 2^32 stairs");
        view.entries.push(Entry {
            least: u32::MAX,
            hops: 0,
            stairs: end,
        });
        view
    }

    /// Fills `row` with the ranks of the nodes `node`'s cached routes pass,
    /// ascending, each with the fewest physical hops a prefix takes to it,
    /// and returns their number.
    fn fill_row(&self, node: &SsrNode, row: &mut Vec<(u32, u32)>) -> usize {
        row.clear();
        for (_, route) in node.cache().iter() {
            let passed = route.hops().iter().zip(0..).skip(1);
            let passed = passed.filter(|&(&hop, _)| hop != node.id());
            row.extend(passed.map(|(&hop, len)| (self.rank(hop) as u32, len)));
        }
        // sorted by (hop, length), the first of each hop is its shortest
        row.sort_unstable();
        row.dedup_by_key(|&mut (hop, _)| hop);
        row.len()
    }

    /// The rank of an address a cached route passes.
    fn rank(&self, id: NodeId) -> usize {
        self.ids.binary_search(&id).expect("every hop has a rank")
    }

    /// Rank `i`'s entries: `lo..hi` into `reach`.
    fn row_bounds(&self, i: usize) -> (usize, usize) {
        (self.offsets[i] as usize, self.offsets[i + 1] as usize)
    }

    /// The address in rank `i`'s table clockwise first after rank `hop`.
    fn first_past(&self, i: usize, hop: u32) -> Option<NodeId> {
        let (lo, hi) = self.row_bounds(i);
        let reach = &self.reach[lo..hi];
        let past = reach.partition_point(|&g| g <= hop);
        let first = reach.get(past).or(reach.first());
        first.filter(|&&g| g != hop).map(|&g| self.ids[g as usize])
    }

    /// How many ranks are at or below `target`.
    fn upto(&self, target: NodeId) -> u32 {
        self.ids.partition_point(|&a| a <= target) as u32
    }

    /// Rank `i`'s greedy pick toward `target`, `upto` ranks at or below
    /// it: the entry for the cyclic predecessor-or-equal of `target` in its
    /// table, if that lies on the clockwise arc `(ids[i], target]`.
    fn pick(&self, i: usize, target: NodeId, upto: u32) -> Option<usize> {
        let (lo, hi) = self.row_bounds(i);
        let reach = &self.reach[lo..hi];
        // nothing at or below the target means the row's largest, across
        // the wrap
        let below = reach.partition_point(|&h| h < upto);
        let j = below.checked_sub(1).or(reach.len().checked_sub(1))?;
        let (at, hop) = (self.ids[i], self.ids[reach[j] as usize]);
        (cw_dist(at, hop) <= cw_dist(at, target)).then_some(lo + j)
    }

    /// The decision at `at`: what [`RouteCache::best_toward`] there picks
    /// toward `target`, and the physical hops of the prefix to it. `None` if
    /// `at` is no node's address or nothing it reaches lies on the
    /// clockwise arc `(at, target]`. A relay on the prefix may still take
    /// the packet over ([`RoutingView::route`]).
    ///
    /// [`RouteCache::best_toward`]: crate::cache::RouteCache::best_toward
    pub fn next_hop(&self, at: NodeId, target: NodeId) -> Option<(NodeId, u32)> {
        let i = self.ids.binary_search(&at).ok()?;
        let j = self.pick(i, target, self.upto(target))?;
        Some((self.ids[self.reach[j] as usize], self.entries[j].hops))
    }

    /// Routes a packet from `src` to `dst` greedily, every relay deciding
    /// again. `max_virtual_hops` bounds the decisions (n + a margin is
    /// plenty on a consistent ring).
    pub fn route(&self, src: NodeId, dst: NodeId, max_virtual_hops: u32) -> RouteOutcome {
        if src == dst {
            return RouteOutcome::Delivered {
                virtual_hops: 0,
                physical_hops: 0,
            };
        }
        let upto = self.upto(dst);
        let mut i = self.ids.binary_search(&src).ok();
        let mut virtual_hops = 0u32;
        let mut physical_hops = 0u32;
        while virtual_hops < max_virtual_hops {
            let Some(j) = i.and_then(|i| self.pick(i, dst, upto)) else {
                let at = i.map_or(src, |i| self.ids[i]);
                return RouteOutcome::Stuck { at };
            };
            virtual_hops += 1;
            let (hop, entry) = (self.reach[j] as usize, self.entries[j]);
            let left = cw_dist(self.ids[hop], dst);
            if (left >> 32) as u32 >= entry.least {
                let stairs = entry.stairs as usize..self.entries[j + 1].stairs as usize;
                if let Some(stair) = self.stairs[stairs].iter().find(|s| s.within <= left) {
                    physical_hops += stair.at;
                    i = Some(stair.relay as usize);
                    continue;
                }
            }
            physical_hops += entry.hops;
            if left == 0 {
                return RouteOutcome::Delivered {
                    virtual_hops,
                    physical_hops,
                };
            }
            i = Some(hop);
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

    /// What [`RoutingView::route`] must return, walked over the caches
    /// themselves: the holder asks its own [`RouteCache::best_toward`], and
    /// so does every relay on the prefix it picked, in order; the first
    /// relay whose pick is strictly closer to `dst` than the prefix's end
    /// takes the packet over (and `dst` takes it where it meets it).
    fn reference_route(
        caches: &BTreeMap<NodeId, &RouteCache>,
        src: NodeId,
        dst: NodeId,
        max_virtual_hops: u32,
    ) -> RouteOutcome {
        let pick = |at: &NodeId| caches.get(at).and_then(|c| c.best_toward(dst));
        let (mut cur, mut virtual_hops, mut physical_hops) = (src, 0u32, 0u32);
        while cur != dst {
            if virtual_hops == max_virtual_hops {
                return RouteOutcome::Exhausted;
            }
            let Some((next, prefix)) = pick(&cur) else {
                return RouteOutcome::Stuck { at: cur };
            };
            virtual_hops += 1;
            let left = cw_dist(next, dst);
            let closer = |relay: &NodeId| {
                *relay == dst || pick(relay).is_some_and(|(g, _)| cw_dist(g, dst) < left)
            };
            let end = prefix.len() - 1;
            let k = (1..end).find(|&k| closer(&prefix[k])).unwrap_or(end);
            physical_hops += k as u32;
            cur = prefix[k];
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

    /// Node 10 caches a route to 30 through 25, an address no node has: a
    /// packet for 30 goes over it, one for 25 arrives there, and one for
    /// 27 strands there. Every pair of addresses routes as the caches do.
    #[test]
    fn a_hop_no_node_has_reaches_nothing() {
        let mut nodes = ring_nodes();
        let via = SourceRoute::from_hops([10, 25, 30].map(NodeId).to_vec());
        nodes[0].inject_cache_route(via);
        let view = RoutingView::new(&nodes);
        let tree = nodes.iter().map(|n| (n.id(), n.cache())).collect();
        let ends = [10, 20, 25, 27, 30, 40].map(NodeId);
        for src in ends {
            for dst in ends {
                let out = view.route(src, dst, 16);
                assert_eq!(out, reference_route(&tree, src, dst, 16), "{src:?}→{dst:?}");
            }
        }
        let delivered = |virtual_hops, physical_hops| RouteOutcome::Delivered {
            virtual_hops,
            physical_hops,
        };
        assert_eq!(view.route(NodeId(10), NodeId(30), 16), delivered(1, 2));
        assert_eq!(view.route(NodeId(10), NodeId(25), 16), delivered(1, 1));
        assert_eq!(
            view.route(NodeId(10), NodeId(27), 16),
            RouteOutcome::Stuck { at: NodeId(25) }
        );
        assert_eq!(view.next_hop(NodeId(25), NodeId(30)), None);
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
