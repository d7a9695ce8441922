//! Source routes.
//!
//! A source route is an explicit physical path, written as the sequence of
//! node addresses from the route's owner to its destination, both inclusive.
//! Virtual-ring edges *are* source routes ("virtual neighbors are connected
//! by source routes which act as virtual links"), and nodes manufacture new
//! routes by appending cached ones to each other: when `v1` notifies `v2` of
//! `v3`, the notification carries `reverse(v1→v2) ++ (v1→v3)` — a route
//! `v2 → v3` through `v1` — with any incidental cycles pruned.

use ssr_types::NodeId;

/// A physical path `self → destination` as a sequence of addresses,
/// including both endpoints. A single-element route is the trivial route to
/// oneself; a two-element route is a direct physical link.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SourceRoute {
    hops: Vec<NodeId>,
}

impl SourceRoute {
    /// The trivial route from a node to itself.
    pub fn trivial(me: NodeId) -> Self {
        SourceRoute { hops: vec![me] }
    }

    /// A direct one-hop route to a physical neighbor.
    pub fn direct(me: NodeId, neighbor: NodeId) -> Self {
        assert_ne!(me, neighbor, "direct route to self");
        SourceRoute {
            hops: vec![me, neighbor],
        }
    }

    /// Builds a route from an explicit hop sequence.
    ///
    /// # Panics
    /// Panics if `hops` is empty or has equal consecutive entries.
    pub fn from_hops(hops: Vec<NodeId>) -> Self {
        assert!(!hops.is_empty(), "a route has at least its owner");
        for w in hops.windows(2) {
            assert_ne!(w[0], w[1], "route repeats a hop consecutively");
        }
        SourceRoute { hops }
    }

    /// The route's owner (first hop).
    #[inline]
    pub fn src(&self) -> NodeId {
        self.hops[0]
    }

    /// The route's destination (last hop).
    #[inline]
    pub fn dst(&self) -> NodeId {
        *self.hops.last().unwrap()
    }

    /// All hops, owner first.
    #[inline]
    pub fn hops(&self) -> &[NodeId] {
        &self.hops
    }

    /// Number of physical links traversed (`hops - 1`).
    #[inline]
    pub fn len(&self) -> usize {
        self.hops.len() - 1
    }

    /// `true` for the trivial self-route.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hops.len() == 1
    }

    /// The same path seen from the other end — valid because physical links
    /// are bidirectional.
    pub fn reversed(&self) -> SourceRoute {
        let mut hops = self.hops.clone();
        hops.reverse();
        SourceRoute { hops }
    }

    /// Consumes the route into its hop vector, owner first — for moving a
    /// route into a message payload without copying it.
    #[inline]
    pub fn into_hops(self) -> Vec<NodeId> {
        self.hops
    }

    /// Appends `other` (which must start where `self` ends) and prunes
    /// cycles, so the result visits no node twice. This is the paper's
    /// "append (parts of) them to each other to create new source routes".
    ///
    /// # Panics
    /// Panics if `other.src() != self.dst()`.
    pub fn concat(&self, other: &SourceRoute) -> SourceRoute {
        assert_eq!(
            self.dst(),
            other.src(),
            "routes do not share the junction node"
        );
        let mut hops = Vec::with_capacity(self.hops.len() + other.hops.len() - 1);
        hops.extend_from_slice(&self.hops);
        hops.extend_from_slice(&other.hops[1..]);
        erase_loops(&mut hops);
        SourceRoute { hops }
    }

    /// Removes cycles: whenever a node appears twice, everything between
    /// the two occurrences (inclusive of the second) is cut. The result is
    /// a simple path with the same endpoints, never longer than the input.
    pub fn pruned(&self) -> SourceRoute {
        let mut hops = self.hops.clone();
        erase_loops(&mut hops);
        SourceRoute { hops }
    }

    /// Builds the pruned route of a hop sequence taken off the network, in
    /// one pass over the vector it is handed and without copying it: `None`
    /// if `hops` is empty or repeats a hop consecutively (what
    /// [`SourceRoute::from_hops`] would panic on).
    pub(crate) fn pruned_from(mut hops: Vec<NodeId>) -> Option<SourceRoute> {
        (!hops.is_empty() && erase_loops(&mut hops)).then_some(SourceRoute { hops })
    }

    /// `true` iff no node appears twice.
    pub fn is_simple(&self) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        self.hops.iter().all(|h| seen.insert(*h))
    }

    /// The hop after `node` on this route, if `node` is on the route and
    /// not its destination — what a forwarding node looks up.
    pub fn next_hop_after(&self, node: NodeId) -> Option<NodeId> {
        let pos = self.hops.iter().position(|&h| h == node)?;
        self.hops.get(pos + 1).copied()
    }

    /// Checks the route against ground truth: every consecutive pair must
    /// be a physical edge. Used by tests and the observer-side validators
    /// (protocols themselves never see the global topology).
    pub fn valid_in<F: Fn(NodeId, NodeId) -> bool>(&self, has_edge: F) -> bool {
        self.hops.windows(2).all(|w| has_edge(w[0], w[1]))
    }
}

/// Chronological loop erasure, in place: walks `hops` once, keeping the
/// loop-free path so far in `hops[..kept]`; a hop already on that path cuts
/// everything after its first occurrence. Routes are a few dozen hops, so
/// the membership test is a scan of the kept prefix — no tree, no scratch
/// allocation. Returns `false` if two consecutive input hops were equal
/// (the erasure itself treats that as an empty loop and is still exact).
fn erase_loops(hops: &mut Vec<NodeId>) -> bool {
    let mut kept = 0;
    let mut repeat_free = true;
    for i in 0..hops.len() {
        let hop = hops[i];
        match position_of(&hops[..kept], hop) {
            Some(first) => {
                // writes land at or below the read position, so `hops[i - 1]`
                // is still the input's previous hop
                repeat_free &= hops[i - 1] != hop;
                kept = first + 1;
            }
            None => {
                hops[kept] = hop;
                kept += 1;
            }
        }
    }
    hops.truncate(kept);
    repeat_free
}

/// `path.iter().position(|&h| h == hop)`, eight hops at a time: the
/// branch-free fold over a chunk compiles to vector compares, which is what
/// keeps the scan ahead of a tree up to a few hundred hops (B4).
#[inline]
fn position_of(path: &[NodeId], hop: NodeId) -> Option<usize> {
    let mut chunks = path.chunks_exact(8);
    let mut base = 0;
    for chunk in &mut chunks {
        if chunk.iter().fold(false, |hit, &h| hit | (h == hop)) {
            break;
        }
        base += 8;
    }
    path[base..]
        .iter()
        .position(|&h| h == hop)
        .map(|p| base + p)
}

impl std::fmt::Display for SourceRoute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for h in &self.hops {
            if !first {
                write!(f, "→")?;
            }
            write!(f, "{h}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn r(ids: &[u64]) -> SourceRoute {
        SourceRoute::from_hops(ids.iter().map(|&i| NodeId(i)).collect())
    }

    /// Reference model: the tree-based loop erasure `pruned` shipped with
    /// until the per-hop path stopped touching trees — position of every
    /// kept hop in a `BTreeMap`, cut on a revisit. Kept only to say what
    /// [`erase_loops`] must compute.
    fn reference_pruned(hops: &[NodeId]) -> Vec<NodeId> {
        let mut seen: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut out: Vec<NodeId> = Vec::with_capacity(hops.len());
        for &hop in hops {
            if let Some(&pos) = seen.get(&hop) {
                // cut the loop: drop everything after the first occurrence
                for dropped in out.drain(pos + 1..) {
                    seen.remove(&dropped);
                }
            } else {
                seen.insert(hop, out.len());
                out.push(hop);
            }
        }
        out
    }

    /// Strategy: 1–600 hops over an alphabet of 2–64 ids, so cycles nest
    /// and overlap; consecutive repeats are left in.
    fn raw_hops() -> impl Strategy<Value = Vec<NodeId>> {
        (2u64..65, proptest::collection::vec(any::<u64>(), 1..601))
            .prop_map(|(alphabet, v)| v.into_iter().map(|x| NodeId(x % alphabet)).collect())
    }

    fn deduped(mut hops: Vec<NodeId>) -> SourceRoute {
        hops.dedup();
        SourceRoute::from_hops(hops)
    }

    #[test]
    fn construction_and_accessors() {
        let route = r(&[1, 2, 3]);
        assert_eq!(route.src(), NodeId(1));
        assert_eq!(route.dst(), NodeId(3));
        assert_eq!(route.len(), 2);
        assert!(!route.is_empty());
        assert!(SourceRoute::trivial(NodeId(9)).is_empty());
        assert_eq!(SourceRoute::direct(NodeId(1), NodeId(2)).len(), 1);
    }

    #[test]
    fn reversal() {
        let route = r(&[1, 2, 3]);
        let rev = route.reversed();
        assert_eq!(rev.hops(), &[NodeId(3), NodeId(2), NodeId(1)]);
        assert_eq!(rev.reversed(), route);
    }

    #[test]
    fn concat_through_junction() {
        // v2→v1 ++ v1→v3  =  v2→v3 (the paper's update construction)
        let back = r(&[2, 7, 1]); // v2 → v1 via 7
        let fwd = r(&[1, 8, 3]); // v1 → v3 via 8
        let combined = back.concat(&fwd);
        assert_eq!(
            combined.hops(),
            &[NodeId(2), NodeId(7), NodeId(1), NodeId(8), NodeId(3)]
        );
        assert!(combined.is_simple());
    }

    #[test]
    fn concat_prunes_shared_prefix_cycle() {
        // v2 → v1 via 7, then v1 → v3 via 7 again: the detour through v1
        // collapses, leaving v2 → 7 → v3.
        let back = r(&[2, 7, 1]);
        let fwd = r(&[1, 7, 3]);
        let combined = back.concat(&fwd);
        assert_eq!(combined.hops(), &[NodeId(2), NodeId(7), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "junction")]
    fn concat_requires_junction() {
        let _ = r(&[1, 2]).concat(&r(&[3, 4]));
    }

    #[test]
    fn pruning_removes_all_cycles() {
        let looped = SourceRoute {
            hops: vec![1, 2, 3, 4, 2, 5].into_iter().map(NodeId).collect(),
        };
        let pruned = looped.pruned();
        assert_eq!(pruned.hops(), &[NodeId(1), NodeId(2), NodeId(5)]);
        assert!(pruned.is_simple());
        assert_eq!(pruned.src(), looped.src());
        assert_eq!(pruned.dst(), looped.dst());
    }

    #[test]
    fn pruning_handles_nested_cycles() {
        let looped = SourceRoute {
            hops: vec![1, 2, 3, 2, 4, 1, 5].into_iter().map(NodeId).collect(),
        };
        let pruned = looped.pruned();
        assert_eq!(pruned.hops(), &[NodeId(1), NodeId(5)]);
    }

    #[test]
    fn pruning_endpoint_cycle_collapses_to_trivial() {
        let looped = SourceRoute {
            hops: vec![1, 2, 1].into_iter().map(NodeId).collect(),
        };
        assert_eq!(looped.pruned(), SourceRoute::trivial(NodeId(1)));
    }

    #[test]
    fn next_hop_lookup() {
        let route = r(&[1, 2, 3]);
        assert_eq!(route.next_hop_after(NodeId(1)), Some(NodeId(2)));
        assert_eq!(route.next_hop_after(NodeId(2)), Some(NodeId(3)));
        assert_eq!(route.next_hop_after(NodeId(3)), None);
        assert_eq!(route.next_hop_after(NodeId(9)), None);
    }

    #[test]
    fn validity_check() {
        let route = r(&[1, 2, 3]);
        assert!(route.valid_in(|a, b| a.raw() + 1 == b.raw() || b.raw() + 1 == a.raw()));
        assert!(!r(&[1, 3]).valid_in(|a, b| a.raw() + 1 == b.raw() || b.raw() + 1 == a.raw()));
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", r(&[1, 2, 3])), "1→2→3");
    }

    #[test]
    fn pruned_from_rejects_what_from_hops_panics_on() {
        assert!(SourceRoute::pruned_from(vec![]).is_none());
        assert!(SourceRoute::pruned_from(vec![NodeId(1), NodeId(1)]).is_none());
        // a repeat that only becomes adjacent after a cut is a cycle, not a
        // consecutive repeat
        let ok = SourceRoute::pruned_from(vec![NodeId(1), NodeId(2), NodeId(1)]).unwrap();
        assert_eq!(ok, SourceRoute::trivial(NodeId(1)));
        assert_eq!(r(&[1, 2, 3]).into_hops(), r(&[1, 2, 3]).hops().to_vec());
    }

    proptest! {
        /// The scan computes exactly what the tree did, on every input —
        /// consecutive repeats included, which it also reports.
        #[test]
        fn erase_loops_matches_tree_reference(hops in raw_hops()) {
            let mut got = hops.clone();
            let repeat_free = erase_loops(&mut got);
            prop_assert_eq!(&got, &reference_pruned(&hops));
            prop_assert_eq!(repeat_free, hops.windows(2).all(|w| w[0] != w[1]));
            prop_assert_eq!(SourceRoute::pruned_from(hops).is_some(), repeat_free);
        }

        #[test]
        fn pruned_is_the_reference_simple_idempotent_and_keeps_endpoints(hops in raw_hops()) {
            let route = deduped(hops);
            let p = route.pruned();
            prop_assert_eq!(p.hops(), &reference_pruned(route.hops())[..]);
            prop_assert!(p.is_simple());
            prop_assert_eq!((p.src(), p.dst()), (route.src(), route.dst()));
            prop_assert_eq!(p.pruned(), p.clone());
            prop_assert_eq!(SourceRoute::pruned_from(route.into_hops()), Some(p));
        }

        #[test]
        fn concat_is_pruned_append(a in raw_hops(), b in raw_hops()) {
            let a = deduped(a);
            let mut b_hops = vec![a.dst()];
            b_hops.extend(b);
            let b = deduped(b_hops);
            let mut appended = a.hops().to_vec();
            appended.extend_from_slice(&b.hops()[1..]);
            let c = a.concat(&b);
            prop_assert_eq!(c.hops(), &reference_pruned(&appended)[..]);
        }
    }
}
