//! The route cache — SSR's memory, and the reason linearized SSR inherits
//! LSN's polylogarithmic convergence.
//!
//! Nodes "store (some of) these source routes". Here that means two things.
//! The endpoints of a message insert: a node caches the routes of its
//! virtual edges and the route a notification or acknowledgment travelled
//! to it. Every node on a message's path, relays included, only refreshes:
//! where the way the message came is shorter than the route it already
//! caches to a node the message passed, it swaps that route in — it never
//! adds a destination. Retention follows the shortcut-neighbor
//! structure: relative to the owner, the identifier space on each side is
//! split into exponentially growing intervals, and each interval holds at
//! most one *unpinned* entry (the one identifier-closest to the owner, with
//! route length as tie-break). Virtual-ring neighbors are *pinned* and never
//! evicted. As demonstrated in the SSR papers, "a node typically caches at
//! least one node for each of the exponentially growing intervals" — this
//! module makes that structural guarantee explicit.
//!
//! **The cache is a row**, like `Graph`'s adjacency and `Neighbors`: the
//! destinations strictly ascending in one vector and, index-parallel to it,
//! each one's route, pin state and travelled mark, the two vectors changed
//! only by the private `insert_at` / `remove_at` pair. A converged ring
//! caches a few dozen entries per node at most (`benchmark/`'s
//! `state_per_node`, and its traced `core.cache.entries_mean` /
//! `core.cache.entries_max`): a binary search over a few cache lines and
//! a short shift. Only the with-memory ablation, which pins every edge,
//! grows rows to ≈ n and makes the shift O(n); micro B2/B3 `pinned_500`
//! keep both sides of that trade on record. A full row grows by four
//! slots, not by doubling: every node holds one, and a doubled row is up
//! to half slack.
//!
//! **No occupant table.** An interval is a contiguous identifier range on
//! one side of the owner, hence a contiguous run of the row, and an insert's
//! own binary search lands inside it: the interval's unpinned occupant (at
//! most one, by induction over `insert`) is found by walking that run.
//!
//! **The greedy rule reads every hop.** A cached route reaches each node
//! it passes, over a prefix of itself, so a greedy step chooses among every
//! hop of every cached route, not only among the destinations: ≈ 50 nodes
//! per cache on a converged n = 500 ring, where the row holds ≈ 14
//! destinations. [`RouteCache::best_toward`] scans them all; a routing
//! snapshot ([`crate::routing::RoutingView`]) flattens them once per node
//! into an address-sorted table, where the pick is the cyclic
//! predecessor-or-equal of the target. Papillon (PAPERS.md) states its
//! greedy step the same way: forward to the known node that is the closest
//! clockwise predecessor of the target.

use ssr_types::{cw_dist, IntervalPartition, Neighbors, NodeId};

use crate::route::SourceRoute;

/// Slots a full row grows by.
const ROW_STEP: usize = 4;

/// One cached route plus its pin state, and whether a message has
/// travelled it.
#[derive(Clone, Debug)]
struct CacheEntry {
    route: SourceRoute,
    pinned: bool,
    travelled: bool,
}

/// What [`RouteCache::insert`] did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InsertOutcome {
    /// Stored in a free slot.
    Inserted,
    /// Replaced a worse route to the same destination, or evicted the
    /// interval's previous occupant.
    Replaced,
    /// Rejected: the interval's occupant is better (or the route was a
    /// self-route / worse duplicate).
    Rejected,
}

/// A node's route cache.
#[derive(Clone, Debug)]
pub struct RouteCache {
    me: NodeId,
    partition: IntervalPartition,
    /// Cached destinations, strictly ascending; never the owner.
    dsts: Vec<NodeId>,
    /// `entries[i]` is the route to `dsts[i]`.
    entries: Vec<CacheEntry>,
}

impl RouteCache {
    /// An empty cache owned by `me`, with base-2 intervals.
    pub fn new(me: NodeId) -> Self {
        Self::with_partition(me, IntervalPartition::base2())
    }

    /// An empty cache with an explicit interval partition (the E9 ablation
    /// varies the base).
    pub fn with_partition(me: NodeId, partition: IntervalPartition) -> Self {
        RouteCache {
            me,
            partition,
            dsts: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// The owner's address.
    pub fn owner(&self) -> NodeId {
        self.me
    }

    /// Number of cached routes.
    pub fn len(&self) -> usize {
        self.dsts.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.dsts.is_empty()
    }

    /// Total physical hops over all cached routes (a memory/state proxy
    /// reported by experiment E9).
    pub fn total_hops(&self) -> usize {
        self.entries.iter().map(|e| e.route.len()).sum()
    }

    /// The cached route to `dst`, if any.
    pub fn get(&self, dst: NodeId) -> Option<&SourceRoute> {
        let i = self.dsts.binary_search(&dst).ok()?;
        Some(&self.entries[i].route)
    }

    /// The cached route to `dst` if a message has travelled it — inserted
    /// by [`RouteCache::insert_travelled`], not merely passed on by a peer
    /// or planted.
    pub fn travelled(&self, dst: NodeId) -> Option<&SourceRoute> {
        let entry = &self.entries[self.dsts.binary_search(&dst).ok()?];
        entry.travelled.then_some(&entry.route)
    }

    /// `true` iff a route to `dst` is cached.
    pub fn contains(&self, dst: NodeId) -> bool {
        self.dsts.binary_search(&dst).is_ok()
    }

    /// `true` iff a route to `dst` is cached and pinned.
    #[cfg(test)]
    pub(crate) fn is_pinned(&self, dst: NodeId) -> bool {
        self.dsts
            .binary_search(&dst)
            .is_ok_and(|i| self.entries[i].pinned)
    }

    /// All `(destination, route)` pairs in ascending destination order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &SourceRoute)> + '_ {
        (0..self.len()).map(|i| self.at(i))
    }

    /// All cached destinations in ascending order.
    pub fn destinations(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dsts.iter().copied()
    }

    fn at(&self, i: usize) -> (NodeId, &SourceRoute) {
        (self.dsts[i], &self.entries[i].route)
    }

    /// The one place the row grows; `i` is `dst`'s sorted position.
    fn insert_at(&mut self, i: usize, dst: NodeId, entry: CacheEntry) {
        if self.dsts.len() == self.dsts.capacity() {
            self.dsts.reserve_exact(ROW_STEP);
            self.entries.reserve_exact(ROW_STEP);
        }
        self.dsts.insert(i, dst);
        self.entries.insert(i, entry);
    }

    /// The one place the row shrinks.
    fn remove_at(&mut self, i: usize) -> CacheEntry {
        self.dsts.remove(i);
        self.entries.remove(i)
    }

    /// Position of the unpinned entry in the interval `dst` falls into,
    /// where `pos` is `dst`'s sorted position: the interval's entries are
    /// the run of the row on either side of `pos`.
    fn unpinned_beside(&self, dst: NodeId, pos: usize) -> Option<usize> {
        let slot = self.partition.index(self.me, dst);
        let shares = |i: &usize| self.partition.index(self.me, self.dsts[*i]) == slot;
        let below = (0..pos).rev().take_while(shares);
        let above = (pos..self.len()).take_while(shares);
        below.chain(above).find(|&i| !self.entries[i].pinned)
    }

    /// Inserts a route (must start at the owner), applying interval
    /// retention. Pinned inserts always succeed; pinning an existing entry
    /// upgrades it.
    ///
    /// # Panics
    /// Panics if the route does not start at the owner.
    pub fn insert(&mut self, route: SourceRoute, pinned: bool) -> InsertOutcome {
        self.insert_entry(CacheEntry {
            route,
            pinned,
            travelled: false,
        })
    }

    /// [`RouteCache::insert`] for a route a message has just travelled: the
    /// entry is marked [`RouteCache::travelled`] if it holds this route
    /// afterwards, whether it was stored now or already.
    ///
    /// # Panics
    /// Panics if the route does not start at the owner.
    pub fn insert_travelled(&mut self, route: SourceRoute, pinned: bool) -> InsertOutcome {
        self.insert_entry(CacheEntry {
            route,
            pinned,
            travelled: true,
        })
    }

    fn insert_entry(&mut self, entry: CacheEntry) -> InsertOutcome {
        assert_eq!(
            entry.route.src(),
            self.me,
            "cached routes start at the owner"
        );
        let dst = entry.route.dst();
        if dst == self.me {
            return InsertOutcome::Rejected;
        }
        let pos = match self.dsts.binary_search(&dst) {
            Ok(i) => {
                let existing = &mut self.entries[i];
                let upgraded = entry.pinned && !existing.pinned;
                let better = entry.route.len() < existing.route.len();
                existing.pinned |= entry.pinned;
                if better {
                    existing.route = entry.route;
                    existing.travelled = entry.travelled;
                } else if entry.route == existing.route {
                    existing.travelled |= entry.travelled;
                }
                return if better || upgraded {
                    InsertOutcome::Replaced
                } else {
                    InsertOutcome::Rejected
                };
            }
            Err(pos) => pos,
        };
        let occupant = (!entry.pinned).then(|| self.unpinned_beside(dst, pos));
        let Some(old) = occupant.flatten() else {
            self.insert_at(pos, dst, entry);
            return InsertOutcome::Inserted;
        };
        // LSN rule: keep the identifier-closest to the owner;
        // tie-break on route length.
        let new_key = (self.me.line_dist(dst), entry.route.len());
        let old_key = (
            self.me.line_dist(self.dsts[old]),
            self.entries[old].route.len(),
        );
        if new_key >= old_key {
            return InsertOutcome::Rejected;
        }
        self.remove_at(old);
        self.insert_at(pos - usize::from(old < pos), dst, entry);
        InsertOutcome::Replaced
    }

    /// Unpins the entry for `dst` (it becomes evictable; if its interval
    /// already has an unpinned occupant the worse of the two is evicted
    /// immediately).
    pub fn unpin(&mut self, dst: NodeId) {
        let Ok(i) = self.dsts.binary_search(&dst) else {
            return;
        };
        if self.entries[i].pinned {
            // out, and back in through the normal retention path
            let entry = self.remove_at(i);
            let _ = self.insert_entry(CacheEntry {
                pinned: false,
                ..entry
            });
        }
    }

    /// Removes the entry for `dst` entirely.
    pub fn remove(&mut self, dst: NodeId) -> Option<SourceRoute> {
        let i = self.dsts.binary_search(&dst).ok()?;
        Some(self.remove_at(i).route)
    }

    /// Drops every route that traverses `via` (used when a physical
    /// neighbor disappears — routes through it are no longer trustworthy).
    pub fn purge_via(&mut self, via: NodeId) -> usize {
        let before = self.len();
        for i in (0..before).rev() {
            if self.entries[i].route.hops()[1..].contains(&via) {
                self.remove_at(i);
            }
        }
        before - self.len()
    }

    /// Drops every unpinned route whose first hop is not one of the
    /// physical neighbours `nbrs` — a shortcut nothing can be sent over.
    /// Pinned routes stay: they are edges, retired by the protocol, not by
    /// the cache.
    pub fn flush_unsendable(&mut self, nbrs: &Neighbors) {
        for i in (0..self.len()).rev() {
            let entry = &self.entries[i];
            if !entry.pinned && !nbrs.contains(entry.route.hops()[1]) {
                self.remove_at(i);
            }
        }
    }

    /// Greedy-routing lookup over every node a cached route passes: each
    /// hop of each route but the owner is reached over the route's prefix
    /// up to it. Among the hops on the clockwise arc `(me, target]`, the
    /// one with the least clockwise distance left to `target` wins, and of
    /// the prefixes reaching it the shortest (the first in ascending
    /// destination order on a tie). Returns that hop and the prefix's hops,
    /// owner first.
    ///
    /// Every destination is a candidate, the ring successor's among them,
    /// so a consistent ring still delivers; every step strictly shrinks the
    /// clockwise distance left, which is what makes greedy routing
    /// loop-free. The "physically closest" half of the paper's rule is
    /// the prefix tie-break here and [`RouteCache::insert`]'s: a shorter
    /// route to a cached destination replaces the longer one.
    pub fn best_toward(&self, target: NodeId) -> Option<(NodeId, &[NodeId])> {
        let gap = cw_dist(self.me, target);
        // (distance left, prefix length, entry)
        let mut best: Option<(u64, usize, usize)> = None;
        for (i, entry) in self.entries.iter().enumerate() {
            for (k, &hop) in entry.route.hops().iter().enumerate().skip(1) {
                let progress = cw_dist(self.me, hop);
                if progress == 0 || progress > gap {
                    continue; // the owner, or off the arc toward the target
                }
                let key = (gap - progress, k);
                if best.is_none_or(|(left, len, _)| key < (left, len)) {
                    best = Some((key.0, k, i));
                }
            }
        }
        let (_, k, i) = best?;
        let hops = self.entries[i].route.hops();
        Some((hops[k], &hops[..=k]))
    }

    /// The numerically largest cached destination greater than the owner
    /// (used by clockwise discovery probes seeking the ring's maximum).
    pub fn largest_above_me(&self) -> Option<(NodeId, &SourceRoute)> {
        let last = self.len().checked_sub(1)?;
        (self.dsts[last] > self.me).then(|| self.at(last))
    }

    /// The numerically smallest cached destination below the owner (used by
    /// counter-clockwise discovery probes seeking the ring's minimum).
    pub fn smallest_below_me(&self) -> Option<(NodeId, &SourceRoute)> {
        (*self.dsts.first()? < self.me).then(|| self.at(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssr_types::Side;
    use std::collections::BTreeMap;

    fn route(ids: &[u64]) -> SourceRoute {
        SourceRoute::from_hops(ids.iter().map(|&i| NodeId(i)).collect())
    }

    /// The cache as it was until the row replaced it: a destination-keyed
    /// tree and a second `(side, interval) → unpinned occupant` tree kept in
    /// step with it by hand, with a `best_toward` that takes the least
    /// `(remaining, prefix length)` over every prefix of every route. Kept
    /// only to say what [`RouteCache`] must compute.
    struct TreeCache {
        me: NodeId,
        partition: IntervalPartition,
        entries: BTreeMap<NodeId, CacheEntry>,
        occupant: BTreeMap<(Side, u32), NodeId>,
    }

    impl TreeCache {
        fn new(me: NodeId, partition: IntervalPartition) -> Self {
            TreeCache {
                me,
                partition,
                entries: BTreeMap::new(),
                occupant: BTreeMap::new(),
            }
        }

        fn iter(&self) -> impl Iterator<Item = (NodeId, &SourceRoute)> + '_ {
            self.entries.iter().map(|(&d, e)| (d, &e.route))
        }

        fn insert(&mut self, route: SourceRoute, pinned: bool) -> InsertOutcome {
            assert_eq!(route.src(), self.me, "cached routes start at the owner");
            let dst = route.dst();
            if dst == self.me {
                return InsertOutcome::Rejected;
            }
            if let Some(existing) = self.entries.get_mut(&dst) {
                let upgraded = pinned && !existing.pinned;
                let better = route.len() < existing.route.len();
                if upgraded {
                    // remove from occupant slot — pinned entries don't hold one
                    let slot = self.partition.index(self.me, dst).unwrap();
                    if self.occupant.get(&slot) == Some(&dst) {
                        self.occupant.remove(&slot);
                    }
                    existing.pinned = true;
                }
                if better {
                    existing.route = route;
                }
                return if better || upgraded {
                    InsertOutcome::Replaced
                } else {
                    InsertOutcome::Rejected
                };
            }
            let slot = self.partition.index(self.me, dst).unwrap();
            if pinned {
                self.entries.insert(
                    dst,
                    CacheEntry {
                        route,
                        pinned,
                        travelled: false,
                    },
                );
                return InsertOutcome::Inserted;
            }
            match self.occupant.get(&slot).copied() {
                None => {
                    self.occupant.insert(slot, dst);
                    self.entries.insert(
                        dst,
                        CacheEntry {
                            route,
                            pinned,
                            travelled: false,
                        },
                    );
                    InsertOutcome::Inserted
                }
                Some(old) => {
                    let new_key = (self.me.line_dist(dst), route.len());
                    let old_len = self.entries[&old].route.len();
                    let old_key = (self.me.line_dist(old), old_len);
                    if new_key < old_key {
                        self.entries.remove(&old);
                        self.occupant.insert(slot, dst);
                        self.entries.insert(
                            dst,
                            CacheEntry {
                                route,
                                pinned,
                                travelled: false,
                            },
                        );
                        InsertOutcome::Replaced
                    } else {
                        InsertOutcome::Rejected
                    }
                }
            }
        }

        fn unpin(&mut self, dst: NodeId) {
            if self.entries.get(&dst).is_some_and(|e| e.pinned) {
                // a pinned entry holds no occupant slot, so taking it out is
                // the whole removal; re-insert through the retention path
                let route = self.entries.remove(&dst).unwrap().route;
                let _ = self.insert(route, false);
            }
        }

        fn remove(&mut self, dst: NodeId) -> Option<SourceRoute> {
            let entry = self.entries.remove(&dst)?;
            if !entry.pinned {
                let slot = self.partition.index(self.me, dst).unwrap();
                if self.occupant.get(&slot) == Some(&dst) {
                    self.occupant.remove(&slot);
                }
            }
            Some(entry.route)
        }

        fn purge_via(&mut self, via: NodeId) -> usize {
            let stale: Vec<NodeId> = self
                .iter()
                .filter(|(_, r)| r.hops()[1..].contains(&via))
                .map(|(d, _)| d)
                .collect();
            for d in &stale {
                self.remove(*d);
            }
            stale.len()
        }

        fn best_toward(&self, target: NodeId) -> Option<(NodeId, &[NodeId])> {
            let my_gap = cw_dist(self.me, target);
            let prefixes = self.entries.values().flat_map(|e| {
                let hops = e.route.hops();
                (2..=hops.len()).map(move |end| &hops[..end])
            });
            let on_arc = prefixes.filter(|p| {
                let progress = cw_dist(self.me, *p.last().unwrap());
                progress != 0 && progress <= my_gap
            });
            // the first of equal minima: the earlier destination's prefix
            let best = on_arc.min_by_key(|p| (cw_dist(*p.last().unwrap(), target), p.len()))?;
            Some((*best.last().unwrap(), best))
        }

        fn largest_above_me(&self) -> Option<(NodeId, &SourceRoute)> {
            let (&d, e) = self.entries.range(self.me..).next_back()?;
            (d > self.me).then_some((d, &e.route))
        }

        fn smallest_below_me(&self) -> Option<(NodeId, &SourceRoute)> {
            let (&d, e) = self.entries.range(..self.me).next()?;
            Some((d, &e.route))
        }
    }

    /// One drawn operation: `(kind, near, raw, relays, flag)`.
    type Op = (u8, bool, u64, usize, bool);

    /// Asserts that the row and the trees agree on everything a caller can
    /// see, and that the row keeps its own shape.
    fn assert_same(row: &RouteCache, tree: &TreeCache, extra: NodeId) -> Result<(), TestCaseError> {
        prop_assert!(
            row.dsts.windows(2).all(|w| w[0] < w[1]),
            "row not ascending"
        );
        prop_assert_eq!(row.dsts.len(), row.entries.len());
        let mut unpinned_slots = std::collections::BTreeSet::new();
        for (d, e) in row.dsts.iter().zip(&row.entries) {
            let slot = row
                .partition
                .index(row.me, *d)
                .expect("owner is never cached");
            prop_assert!(
                e.pinned || unpinned_slots.insert(slot),
                "two unpinned in {:?}",
                slot
            );
        }
        let got: Vec<_> = row.iter().collect();
        let want: Vec<_> = tree.iter().collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(row.len(), want.len());
        prop_assert_eq!(row.destinations().collect::<Vec<_>>(), row.dsts.clone());
        prop_assert_eq!(
            row.total_hops(),
            want.iter().map(|(_, r)| r.len()).sum::<usize>()
        );
        prop_assert_eq!(row.largest_above_me(), tree.largest_above_me());
        prop_assert_eq!(row.smallest_below_me(), tree.smallest_below_me());
        let mut targets = vec![row.me, NodeId(0), NodeId(u64::MAX), extra];
        for (_, route) in row.iter() {
            for &NodeId(h) in route.hops() {
                targets.extend([h, h.wrapping_sub(1), h.wrapping_add(1)].map(NodeId));
            }
        }
        for t in targets {
            prop_assert_eq!(row.best_toward(t), tree.best_toward(t), "target {:?}", t);
            prop_assert_eq!(row.get(t), tree.entries.get(&t).map(|e| &e.route));
            prop_assert_eq!(row.contains(t), tree.entries.contains_key(&t));
        }
        Ok(())
    }

    proptest! {
        /// Random operation sequences, ids from a ± 64 window around the
        /// owner and from the whole space so that slots collide, pinned and
        /// unpinned mixed, owners at both ends of the space and inside it.
        #[test]
        fn row_matches_the_tree_cache(
            owner_at in 0u8..4,
            owner_raw: u64,
            base in 2u64..5,
            ops in proptest::collection::vec(
                (0u8..8, any::<bool>(), any::<u64>(), 0usize..4, any::<bool>()),
                1..120,
            ),
        ) {
            let me = NodeId(match owner_at {
                0 => 0,
                1 => u64::MAX,
                _ => owner_raw,
            });
            let partition = IntervalPartition::new(base);
            let mut row = RouteCache::with_partition(me, partition);
            let mut tree = TreeCache::new(me, partition);
            let relay = |k: u64| NodeId(me.0.wrapping_add(1000 + k % 4));
            for (kind, near, raw, relays, flag) in ops as Vec<Op> {
                let id = NodeId(if near {
                    me.0.wrapping_add(raw % 129).wrapping_sub(64)
                } else {
                    raw
                });
                match kind {
                    0 => {
                        row.unpin(id);
                        tree.unpin(id);
                    }
                    1 => prop_assert_eq!(row.remove(id), tree.remove(id)),
                    2 => {
                        let via = if flag { relay(raw) } else { id };
                        prop_assert_eq!(row.purge_via(via), tree.purge_via(via));
                    }
                    _ => {
                        let mut hops = vec![me];
                        hops.extend((0..relays as u64).map(|k| relay(raw.wrapping_add(k))));
                        hops.push(id);
                        hops.dedup();
                        let route = SourceRoute::from_hops(hops);
                        prop_assert_eq!(row.insert(route.clone(), flag), tree.insert(route, flag));
                    }
                }
                assert_same(&row, &tree, NodeId(raw.rotate_left(17)))?;
            }
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = RouteCache::new(NodeId(100));
        assert_eq!(c.insert(route(&[100, 120]), false), InsertOutcome::Inserted);
        assert_eq!(c.get(NodeId(120)).unwrap().len(), 1);
        assert!(c.contains(NodeId(120)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn self_route_rejected() {
        let mut c = RouteCache::new(NodeId(100));
        assert_eq!(
            c.insert(SourceRoute::trivial(NodeId(100)), false),
            InsertOutcome::Rejected
        );
    }

    #[test]
    fn shorter_route_to_same_destination_wins() {
        let mut c = RouteCache::new(NodeId(100));
        c.insert(route(&[100, 5, 6, 120]), false);
        assert_eq!(c.insert(route(&[100, 120]), false), InsertOutcome::Replaced);
        assert_eq!(c.get(NodeId(120)).unwrap().len(), 1);
        // longer duplicate rejected
        assert_eq!(
            c.insert(route(&[100, 7, 120]), false),
            InsertOutcome::Rejected
        );
    }

    #[test]
    fn the_travelled_mark_follows_the_route() {
        let mut c = RouteCache::new(NodeId(0));
        c.insert(route(&[0, 3, 9]), false);
        assert_eq!(c.travelled(NodeId(9)), None);
        // a longer travelled route changes nothing; the same one marks it
        c.insert_travelled(route(&[0, 3, 4, 9]), false);
        assert_eq!(c.travelled(NodeId(9)), None);
        c.insert_travelled(route(&[0, 3, 9]), false);
        assert_eq!(c.travelled(NodeId(9)), Some(&route(&[0, 3, 9])));
        // pinning and unpinning keep the mark
        c.insert(route(&[0, 3, 9]), true);
        c.unpin(NodeId(9));
        assert_eq!(c.travelled(NodeId(9)), Some(&route(&[0, 3, 9])));
        // a shorter route no message travelled replaces it, unmarked
        c.insert(route(&[0, 9]), false);
        assert_eq!(c.travelled(NodeId(9)), None);
        assert_eq!(c.get(NodeId(9)), Some(&route(&[0, 9])));
    }

    #[test]
    fn interval_eviction_keeps_identifier_closest() {
        let mut c = RouteCache::new(NodeId(0));
        // 5 and 7 share the base-2 interval [4, 8)
        c.insert(route(&[0, 7]), false);
        assert_eq!(c.insert(route(&[0, 1, 5]), false), InsertOutcome::Replaced);
        assert!(c.contains(NodeId(5)));
        assert!(!c.contains(NodeId(7)));
        // 6 is farther from 0 than 5 → rejected
        assert_eq!(c.insert(route(&[0, 6]), false), InsertOutcome::Rejected);
    }

    #[test]
    fn different_intervals_coexist() {
        let mut c = RouteCache::new(NodeId(0));
        for d in [1u64, 2, 4, 8, 16, 32] {
            assert_eq!(
                c.insert(route(&[0, d]), false),
                InsertOutcome::Inserted,
                "dst {d}"
            );
        }
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn left_and_right_sides_are_independent() {
        let mut c = RouteCache::new(NodeId(100));
        assert_eq!(c.insert(route(&[100, 95]), false), InsertOutcome::Inserted);
        assert_eq!(c.insert(route(&[100, 105]), false), InsertOutcome::Inserted);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn pinned_entries_never_evicted() {
        let mut c = RouteCache::new(NodeId(0));
        c.insert(route(&[0, 7]), true); // pinned
        assert_eq!(c.insert(route(&[0, 5]), false), InsertOutcome::Inserted);
        assert!(c.contains(NodeId(7)) && c.contains(NodeId(5)));
        // second unpinned in the interval evicts among unpinned only
        assert_eq!(c.insert(route(&[0, 6]), false), InsertOutcome::Rejected);
        assert!(c.contains(NodeId(5)));
    }

    #[test]
    fn unpin_makes_entry_evictable() {
        let mut c = RouteCache::new(NodeId(0));
        c.insert(route(&[0, 7]), true);
        c.insert(route(&[0, 5]), false);
        c.unpin(NodeId(7));
        // 5 is closer to 0 than 7: 7 must have been evicted on unpin
        assert!(!c.contains(NodeId(7)));
        assert!(c.contains(NodeId(5)));
    }

    #[test]
    fn remove_clears_slot() {
        let mut c = RouteCache::new(NodeId(0));
        c.insert(route(&[0, 5]), false);
        assert!(c.remove(NodeId(5)).is_some());
        assert!(c.remove(NodeId(5)).is_none());
        assert_eq!(c.insert(route(&[0, 7]), false), InsertOutcome::Inserted);
    }

    #[test]
    fn purge_via_removes_transiting_routes() {
        let mut c = RouteCache::new(NodeId(0));
        c.insert(route(&[0, 3, 9]), false);
        c.insert(route(&[0, 4, 17]), false);
        c.insert(route(&[0, 3]), true);
        assert_eq!(c.purge_via(NodeId(3)), 2); // the 9-route and the pinned direct route...
                                               // routes *through* 3: [0,3,9] transits 3; [0,3] ends at 3 (also purged:
                                               // hops()[1..] contains 3)
        assert!(!c.contains(NodeId(9)));
        assert!(!c.contains(NodeId(3)));
        assert!(c.contains(NodeId(17)));
    }

    #[test]
    fn best_toward_picks_clockwise_progress() {
        let mut c = RouteCache::new(NodeId(10));
        c.insert(route(&[10, 20]), false);
        c.insert(route(&[10, 40]), false);
        c.insert(route(&[10, 90]), false);
        // target 50: candidates on (10, 50] are 20 and 40; 40 is closest
        let (d, _) = c.best_toward(NodeId(50)).unwrap();
        assert_eq!(d, NodeId(40));
        // target 95: 90 wins
        assert_eq!(c.best_toward(NodeId(95)).unwrap().0, NodeId(90));
        // exact hit
        assert_eq!(c.best_toward(NodeId(20)).unwrap().0, NodeId(20));
    }

    #[test]
    fn best_toward_never_overshoots() {
        let mut c = RouteCache::new(NodeId(10));
        c.insert(route(&[10, 90]), false);
        // target 50: 90 overshoots the arc (10, 50] → no candidate
        assert!(c.best_toward(NodeId(50)).is_none());
    }

    #[test]
    fn best_toward_wraps_clockwise() {
        let mut c = RouteCache::new(NodeId(u64::MAX - 5));
        c.insert(route(&[u64::MAX - 5, 3]), false);
        // target 10 lies clockwise past the wrap point
        assert_eq!(c.best_toward(NodeId(10)).unwrap().0, NodeId(3));
    }

    /// `best_toward` reads the routes `insert` kept: a hop over the
    /// shortest cached prefix to it, and nothing of a route a shorter
    /// duplicate replaced.
    #[test]
    fn best_toward_returns_the_one_route_insert_kept() {
        let mut c = RouteCache::new(NodeId(0));
        c.insert(route(&[0, 5, 9, 30]), false);
        c.insert(route(&[0, 9, 40]), false);
        // 9 lies on both routes: the one-hop prefix wins
        let hop = |at, prefix: &[u64]| Some((NodeId(at), route(prefix).hops().to_vec()));
        let best = |t| c.best_toward(NodeId(t)).map(|(h, p)| (h, p.to_vec()));
        assert_eq!(best(10), hop(9, &[0, 9]));
        // a relay no route ends at is a candidate too
        assert_eq!(best(8), hop(5, &[0, 5]));
        assert_eq!(best(35), hop(30, &[0, 5, 9, 30]));
        // a shorter duplicate replaces a route, and 9 is off the new one
        c.insert(route(&[0, 40]), false);
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.best_toward(NodeId(10)),
            Some((NodeId(9), route(&[0, 5, 9]).hops()))
        );
        assert_eq!(
            c.best_toward(NodeId(40)),
            Some((NodeId(40), route(&[0, 40]).hops()))
        );
    }

    #[test]
    fn extremal_queries() {
        let mut c = RouteCache::new(NodeId(50));
        assert!(c.largest_above_me().is_none());
        assert!(c.smallest_below_me().is_none());
        c.insert(route(&[50, 60]), false);
        c.insert(route(&[50, 80]), false);
        c.insert(route(&[50, 20]), false);
        c.insert(route(&[50, 5]), false);
        assert_eq!(c.largest_above_me().unwrap().0, NodeId(80));
        assert_eq!(c.smallest_below_me().unwrap().0, NodeId(5));
    }

    /// Every node holds a row of these: a third word in the entry is a
    /// third word per cached route network-wide.
    #[test]
    fn a_cache_entry_is_a_route_and_two_flags() {
        assert!(std::mem::size_of::<CacheEntry>() <= 24);
    }

    /// Rows grow by [`ROW_STEP`] slots, so however inserts and interval
    /// evictions interleave, a row never holds more than a step of slack.
    #[test]
    fn row_capacity_stays_within_a_step_of_its_length() {
        let me = 1u64 << 40;
        let mut rng = ssr_types::Rng::new(7);
        let mut c = RouteCache::new(NodeId(me));
        for i in 0..5_000u64 {
            let dst = rng.below(1 << 41);
            if dst == me {
                continue;
            }
            let via = (1 << 42) + i;
            let hops: &[u64] = if i % 3 == 0 {
                &[me, dst]
            } else {
                &[me, via, dst]
            };
            c.insert(route(hops), i % 97 == 0);
            assert_eq!(c.dsts.capacity(), c.entries.capacity());
            assert!(
                c.dsts.capacity() <= c.len() + ROW_STEP,
                "{} slots for {} entries",
                c.dsts.capacity(),
                c.len()
            );
        }
        assert!(c.len() > 60, "churn evicted and pinned: {}", c.len());
    }

    #[test]
    fn total_hops_accounts_all_routes() {
        let mut c = RouteCache::new(NodeId(0));
        c.insert(route(&[0, 1]), false);
        c.insert(route(&[0, 1, 2]), true);
        assert_eq!(c.total_hops(), 3);
    }
}
