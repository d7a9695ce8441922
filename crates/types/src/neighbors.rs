//! A node's physical neighbour table: address ↔ link index, learned from
//! link-local hellos. Shared by every message-level protocol (`SsrNode`,
//! `IsprpNode`, `VrrNode`).

use crate::{NodeId, Side};

/// A node's physical neighbours as learned from hellos: address ↔ link
/// index (the simulator index of the peer, which is what `Ctx::send`
/// takes).
///
/// **Invariant:** the table is a bijection — an address is bound to at most
/// one link and a link to at most one address. [`Neighbors::bind`] keeps it
/// by dropping both stale pairs, so a packet for an address that moved away
/// dies here as `fwd.broken` instead of leaving on the link of whoever
/// holds that index now.
///
/// One vector sorted by address: a node has a handful of neighbours, the
/// per-hop question is `index_of`, and the reverse lookup (`id_at`, hellos
/// and link faults only) is a scan.
#[derive(Clone, Debug, Default)]
pub struct Neighbors {
    by_id: Vec<(NodeId, usize)>,
}

impl Neighbors {
    /// The link index `id` is reachable over, if `id` is a neighbour.
    #[inline]
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        let at = self.by_id.binary_search_by_key(&id, |&(i, _)| i).ok()?;
        Some(self.by_id[at].1)
    }

    /// The address bound to link `index`, if its peer has identified
    /// itself.
    pub fn id_at(&self, index: usize) -> Option<NodeId> {
        self.by_id
            .iter()
            .find(|&&(_, i)| i == index)
            .map(|&(id, _)| id)
    }

    /// `true` iff `id` is a current physical neighbour.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.index_of(id).is_some()
    }

    /// Binds `id` to link `index`, dropping whatever either was bound to
    /// before (the old address of this link, the old link of this address).
    /// Returns `false` if exactly this pair was already bound.
    pub fn bind(&mut self, id: NodeId, index: usize) -> bool {
        if self.index_of(id) == Some(index) {
            return false;
        }
        self.by_id.retain(|&(i, x)| i != id && x != index);
        let at = self.by_id.partition_point(|&(i, _)| i < id);
        self.by_id.insert(at, (id, index));
        true
    }

    /// The `(address, link index)` pairs in address order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.by_id.iter().copied()
    }

    /// The line-nearest neighbour on `side` of `me` — the largest address
    /// below it or the smallest above it — with its link index. What the
    /// audit round re-adopts on a side left empty.
    pub fn nearest_on(&self, me: NodeId, side: Side) -> Option<(NodeId, usize)> {
        match side {
            Side::Left => {
                let at = self.by_id.partition_point(|&(id, _)| id < me);
                at.checked_sub(1).map(|i| self.by_id[i])
            }
            Side::Right => {
                let at = self.by_id.partition_point(|&(id, _)| id <= me);
                self.by_id.get(at).copied()
            }
        }
    }

    /// `true` iff no peer has identified itself yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Forgets link `index`; returns the address that was bound to it.
    pub fn unbind_index(&mut self, index: usize) -> Option<NodeId> {
        let at = self.by_id.iter().position(|&(_, i)| i == index)?;
        Some(self.by_id.remove(at).0)
    }

    /// The bound link indices, ascending.
    pub fn indices(&self) -> Vec<usize> {
        let mut indices: Vec<usize> = self.by_id.iter().map(|&(_, i)| i).collect();
        indices.sort_unstable();
        indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn bind_drops_both_stale_pairs() {
        let mut t = Neighbors::default();
        t.bind(NodeId(70), 1);
        t.bind(NodeId(90), 2);
        // link 1 now speaks for 80: 70 is nobody's address any more
        t.bind(NodeId(80), 1);
        assert_eq!(
            (t.index_of(NodeId(70)), t.id_at(1)),
            (None, Some(NodeId(80)))
        );
        // 90 moves to link 1: link 2 is unidentified again, 80 is gone
        t.bind(NodeId(90), 1);
        assert_eq!((t.index_of(NodeId(90)), t.id_at(2)), (Some(1), None));
        assert!(!t.contains(NodeId(80)));
        assert_eq!(t.indices(), vec![1]);
        assert_eq!(t.unbind_index(1), Some(NodeId(90)));
        assert_eq!(t.unbind_index(1), None);
        assert!(t.indices().is_empty());
    }

    #[test]
    fn iter_is_ascending_by_address_and_is_empty_tracks_it() {
        let mut t = Neighbors::default();
        assert!(t.is_empty() && t.iter().next().is_none());
        for (id, index) in [(90, 0), (70, 2), (80, 1)] {
            t.bind(NodeId(id), index);
        }
        let pairs: Vec<(NodeId, usize)> = t.iter().collect();
        assert_eq!(pairs, [(NodeId(70), 2), (NodeId(80), 1), (NodeId(90), 0)]);
        assert!(!t.is_empty());
        for index in 0..3 {
            t.unbind_index(index);
        }
        assert!(t.is_empty());
    }

    #[test]
    fn nearest_on_is_the_closest_address_each_way() {
        let mut t = Neighbors::default();
        assert_eq!(t.nearest_on(NodeId(50), Side::Left), None);
        for (id, index) in [(30, 0), (40, 1), (60, 2), (70, 3)] {
            t.bind(NodeId(id), index);
        }
        assert_eq!(t.nearest_on(NodeId(50), Side::Left), Some((NodeId(40), 1)));
        assert_eq!(t.nearest_on(NodeId(50), Side::Right), Some((NodeId(60), 2)));
        assert_eq!(t.nearest_on(NodeId(20), Side::Left), None);
        assert_eq!(t.nearest_on(NodeId(80), Side::Right), None);
        // `me` itself is never its own neighbour on either side
        assert_eq!(t.nearest_on(NodeId(60), Side::Left), Some((NodeId(40), 1)));
        assert_eq!(t.nearest_on(NodeId(60), Side::Right), Some((NodeId(70), 3)));
    }

    /// Reference model: the two maps the nodes used to carry, with the
    /// bijection kept by hand.
    #[derive(Default)]
    struct TwoMaps {
        nbr_index: BTreeMap<NodeId, usize>,
        nbr_id: BTreeMap<usize, NodeId>,
    }

    impl TwoMaps {
        fn bind(&mut self, id: NodeId, index: usize) {
            if let Some(old_id) = self.nbr_id.insert(index, id) {
                self.nbr_index.remove(&old_id);
            }
            if let Some(old_index) = self.nbr_index.insert(id, index) {
                if old_index != index {
                    self.nbr_id.remove(&old_index);
                }
            }
        }

        fn unbind_index(&mut self, index: usize) -> Option<NodeId> {
            let id = self.nbr_id.remove(&index)?;
            self.nbr_index.remove(&id);
            Some(id)
        }
    }

    proptest! {
        #[test]
        fn neighbors_match_the_two_maps(
            ops in proptest::collection::vec((0u8..4, 0u64..12, 0usize..12), 1..200)
        ) {
            let mut table = Neighbors::default();
            let mut maps = TwoMaps::default();
            for (op, id, index) in ops {
                let id = NodeId(id);
                if op == 0 {
                    prop_assert_eq!(table.unbind_index(index), maps.unbind_index(index));
                } else {
                    let was_bound = maps.nbr_index.get(&id) == Some(&index);
                    prop_assert_eq!(table.bind(id, index), !was_bound);
                    maps.bind(id, index);
                }
                for probe in 0..12 {
                    let (id, index) = (NodeId(probe), probe as usize);
                    prop_assert_eq!(table.index_of(id), maps.nbr_index.get(&id).copied());
                    prop_assert_eq!(table.id_at(index), maps.nbr_id.get(&index).copied());
                    prop_assert_eq!(table.contains(id), maps.nbr_index.contains_key(&id));
                    // the bijection: address → link → address is the identity
                    if let Some(bound) = table.index_of(id) {
                        prop_assert_eq!(table.id_at(bound), Some(id));
                    }
                    if let Some(bound) = table.id_at(index) {
                        prop_assert_eq!(table.index_of(bound), Some(index));
                    }
                }
                prop_assert_eq!(table.indices(), maps.nbr_id.keys().copied().collect::<Vec<_>>());
                // `iter` walks what the address-keyed tree walked, in its order
                let tree: Vec<(NodeId, usize)> =
                    maps.nbr_index.iter().map(|(&id, &index)| (id, index)).collect();
                prop_assert_eq!(table.iter().collect::<Vec<_>>(), tree);
                prop_assert_eq!(table.is_empty(), maps.nbr_index.is_empty());
            }
        }
    }
}
