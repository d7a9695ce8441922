//! The route cache — SSR's memory, and the reason linearized SSR inherits
//! LSN's polylogarithmic convergence.
//!
//! Nodes "store (some of) these source routes": every route that passes by
//! is a candidate cache entry. Retention follows the shortcut-neighbor
//! structure: relative to the owner, the identifier space on each side is
//! split into exponentially growing intervals, and each interval holds at
//! most one *unpinned* entry (the one identifier-closest to the owner, with
//! route length as tie-break). Virtual-ring neighbors are *pinned* and never
//! evicted. As demonstrated in the SSR papers, "a node typically caches at
//! least one node for each of the exponentially growing intervals" — this
//! module makes that structural guarantee explicit.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use ssr_types::{cw_dist, IntervalPartition, NodeId, Side};

use crate::route::SourceRoute;

/// One cached route plus its pin state.
#[derive(Clone, Debug)]
struct CacheEntry {
    route: SourceRoute,
    pinned: bool,
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
    entries: BTreeMap<NodeId, CacheEntry>,
    /// Unpinned occupant per (side, interval).
    occupant: BTreeMap<(Side, u32), NodeId>,
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
            entries: BTreeMap::new(),
            occupant: BTreeMap::new(),
        }
    }

    /// The owner's address.
    pub fn owner(&self) -> NodeId {
        self.me
    }

    /// Number of cached routes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total physical hops over all cached routes (a memory/state proxy
    /// reported by experiment E9).
    pub fn total_hops(&self) -> usize {
        self.entries.values().map(|e| e.route.len()).sum()
    }

    /// The cached route to `dst`, if any.
    pub fn get(&self, dst: NodeId) -> Option<&SourceRoute> {
        self.entries.get(&dst).map(|e| &e.route)
    }

    /// `true` iff a route to `dst` is cached.
    pub fn contains(&self, dst: NodeId) -> bool {
        self.entries.contains_key(&dst)
    }

    /// All `(destination, route)` pairs in ascending destination order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &SourceRoute)> + '_ {
        self.entries.iter().map(|(&d, e)| (d, &e.route))
    }

    /// All cached destinations in ascending order.
    pub fn destinations(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.keys().copied()
    }

    /// Inserts a route (must start at the owner), applying interval
    /// retention. Pinned inserts always succeed; pinning an existing entry
    /// upgrades it.
    ///
    /// # Panics
    /// Panics if the route does not start at the owner.
    pub fn insert(&mut self, route: SourceRoute, pinned: bool) -> InsertOutcome {
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
                    pinned: true,
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
                        pinned: false,
                    },
                );
                InsertOutcome::Inserted
            }
            Some(old) => {
                // LSN rule: keep the identifier-closest to the owner;
                // tie-break on route length.
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
                            pinned: false,
                        },
                    );
                    InsertOutcome::Replaced
                } else {
                    InsertOutcome::Rejected
                }
            }
        }
    }

    /// Unpins the entry for `dst` (it becomes evictable; if its interval
    /// already has an unpinned occupant the worse of the two is evicted
    /// immediately).
    pub fn unpin(&mut self, dst: NodeId) {
        let Entry::Occupied(entry) = self.entries.entry(dst) else {
            return;
        };
        if !entry.get().pinned {
            return;
        }
        // a pinned entry holds no occupant slot, so taking it out is the
        // whole removal; re-insert through the normal retention path
        let route = entry.remove().route;
        let _ = self.insert(route, false);
    }

    /// Removes the entry for `dst` entirely.
    pub fn remove(&mut self, dst: NodeId) -> Option<SourceRoute> {
        let entry = self.entries.remove(&dst)?;
        if !entry.pinned {
            if let Some(slot) = self.partition.index(self.me, dst) {
                if self.occupant.get(&slot) == Some(&dst) {
                    self.occupant.remove(&slot);
                }
            }
        }
        Some(entry.route)
    }

    /// Drops every route that traverses `via` (used when a physical
    /// neighbor disappears — routes through it are no longer trustworthy).
    pub fn purge_via(&mut self, via: NodeId) -> usize {
        let stale: Vec<NodeId> = self
            .entries
            .iter()
            .filter(|(_, e)| e.route.hops()[1..].contains(&via))
            .map(|(&d, _)| d)
            .collect();
        for d in &stale {
            self.remove(*d);
        }
        stale.len()
    }

    /// Greedy-routing lookup: among cached destinations lying on the
    /// clockwise arc `(me, target]`, the one minimizing the remaining
    /// clockwise distance to `target`; ties broken by shorter route. This
    /// is the "virtually closest to the final destination, physically
    /// closest to itself" rule, with the clockwise-progress constraint that
    /// makes greedy routing loop-free.
    pub fn best_toward(&self, target: NodeId) -> Option<(NodeId, &SourceRoute)> {
        let my_gap = cw_dist(self.me, target);
        let mut best: Option<(u64, usize, NodeId)> = None;
        for (&d, e) in &self.entries {
            let progress = cw_dist(self.me, d);
            if progress == 0 || progress > my_gap {
                continue; // not on the clockwise arc toward the target
            }
            let remaining = cw_dist(d, target);
            let key = (remaining, e.route.len());
            if best.map(|(r, l, _)| key < (r, l)).unwrap_or(true) {
                best = Some((remaining, e.route.len(), d));
            }
        }
        best.map(|(_, _, d)| (d, &self.entries[&d].route))
    }

    /// The numerically largest cached destination greater than the owner
    /// (used by clockwise discovery probes seeking the ring's maximum).
    pub fn largest_above_me(&self) -> Option<(NodeId, &SourceRoute)> {
        self.entries
            .range(self.me..)
            .next_back()
            .filter(|(&d, _)| d > self.me)
            .map(|(&d, e)| (d, &e.route))
    }

    /// The numerically smallest cached destination below the owner (used by
    /// counter-clockwise discovery probes seeking the ring's minimum).
    pub fn smallest_below_me(&self) -> Option<(NodeId, &SourceRoute)> {
        self.entries
            .range(..self.me)
            .next()
            .map(|(&d, e)| (d, &e.route))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(ids: &[u64]) -> SourceRoute {
        SourceRoute::from_hops(ids.iter().map(|&i| NodeId(i)).collect())
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

    #[test]
    fn ties_broken_by_route_length() {
        let mut c = RouteCache::new(NodeId(0));
        c.insert(route(&[0, 9, 40]), false);
        c.insert(route(&[0, 40]), false); // replaces with shorter
        let (_, r) = c.best_toward(NodeId(40)).unwrap();
        assert_eq!(r.len(), 1);
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

    #[test]
    fn total_hops_accounts_all_routes() {
        let mut c = RouteCache::new(NodeId(0));
        c.insert(route(&[0, 1]), false);
        c.insert(route(&[0, 1, 2]), true);
        assert_eq!(c.total_hops(), 3);
    }
}
