//! The VRR path table.
//!
//! One entry per virtual path traversing this node. Endpoint nodes hold an
//! entry with one dangling side. Entry count *at every traversed node* is
//! VRR's router-state cost — contrast with SSR, whose source routes cost
//! state only at the endpoints (experiment E10 measures both).

use std::collections::BTreeMap;

use ssr_types::NodeId;

/// One virtual path's state at one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathEntry {
    /// Smaller endpoint address.
    pub ea: NodeId,
    /// Larger endpoint address.
    pub eb: NodeId,
    /// Physical next hop (simulator index) toward `ea`; `None` at `ea`
    /// itself.
    pub toward_a: Option<usize>,
    /// Physical next hop toward `eb`; `None` at `eb` itself.
    pub toward_b: Option<usize>,
}

/// Canonical path key: endpoints in ascending order plus a setup nonce (two
/// setups between the same endpoints stay distinct until one is torn down).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PathId {
    /// Smaller endpoint.
    pub ea: NodeId,
    /// Larger endpoint.
    pub eb: NodeId,
    /// Setup nonce.
    pub nonce: u64,
}

impl PathId {
    /// Builds a canonical id from unordered endpoints.
    pub fn new(x: NodeId, y: NodeId, nonce: u64) -> Self {
        let (ea, eb) = if x <= y { (x, y) } else { (y, x) };
        PathId { ea, eb, nonce }
    }
}

/// All path state at one node.
#[derive(Clone, Debug, Default)]
pub struct PathTable {
    entries: BTreeMap<PathId, PathEntry>,
}

impl PathTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries — this node's router-state cost.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no path traverses this node.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs (or overwrites) an entry.
    pub fn install(&mut self, id: PathId, entry: PathEntry) {
        debug_assert_eq!((entry.ea, entry.eb), (id.ea, id.eb));
        self.entries.insert(id, entry);
    }

    /// Removes an entry, returning it.
    pub fn remove(&mut self, id: &PathId) -> Option<PathEntry> {
        self.entries.remove(id)
    }

    /// Looks up one entry.
    pub fn get(&self, id: &PathId) -> Option<&PathEntry> {
        self.entries.get(id)
    }

    /// Iterates all `(id, entry)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&PathId, &PathEntry)> {
        self.entries.iter()
    }

    /// All endpoints reachable through this node's entries, with the
    /// physical next hop toward each. An endpoint equal to `me` is skipped.
    pub fn endpoints(&self, me: NodeId) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.entries.values().flat_map(move |e| {
            let a = (e.ea != me)
                .then_some(e.toward_a.map(|h| (e.ea, h)))
                .flatten();
            let b = (e.eb != me)
                .then_some(e.toward_b.map(|h| (e.eb, h)))
                .flatten();
            a.into_iter().chain(b)
        })
    }

    /// Drops every entry whose next hop (either direction) is the given
    /// physical neighbor — used when a link dies. Returns the removed ids.
    pub fn purge_via(&mut self, neighbor: usize) -> Vec<PathId> {
        let dead: Vec<PathId> = self
            .entries
            .iter()
            .filter(|(_, e)| e.toward_a == Some(neighbor) || e.toward_b == Some(neighbor))
            .map(|(&id, _)| id)
            .collect();
        for id in &dead {
            self.entries.remove(id);
        }
        dead
    }

    /// The entries of every path between the endpoints `x` and `y`,
    /// whatever its nonce, in key order.
    pub fn between(&self, x: NodeId, y: NodeId) -> impl Iterator<Item = (&PathId, &PathEntry)> {
        let first = PathId::new(x, y, 0);
        let last = PathId {
            nonce: u64::MAX,
            ..first
        };
        self.entries.range(first..=last)
    }

    /// All entries with the given node as an endpoint.
    pub fn paths_with_endpoint(&self, node: NodeId) -> Vec<PathId> {
        self.entries
            .keys()
            .filter(|id| id.ea == node || id.eb == node)
            .copied()
            .collect()
    }
}

impl PathTable {
    /// Removes every entry with the same endpoints as `pid` but a
    /// *different* nonce — used to garbage-collect stale breadcrumb trails
    /// when a fresh probe from the same origin passes. Returns the number
    /// removed.
    pub fn purge_like(&mut self, pid: PathId) -> usize {
        let stale: Vec<PathId> = self
            .between(pid.ea, pid.eb)
            .map(|(&k, _)| k)
            .filter(|k| k.nonce != pid.nonce)
            .collect();
        for k in &stale {
            self.entries.remove(k);
        }
        stale.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ea: u64, eb: u64, ta: Option<usize>, tb: Option<usize>) -> (PathId, PathEntry) {
        let id = PathId::new(NodeId(ea), NodeId(eb), 1);
        (
            id,
            PathEntry {
                ea: id.ea,
                eb: id.eb,
                toward_a: ta,
                toward_b: tb,
            },
        )
    }

    #[test]
    fn path_id_is_canonical() {
        assert_eq!(
            PathId::new(NodeId(5), NodeId(2), 7),
            PathId::new(NodeId(2), NodeId(5), 7)
        );
        assert_ne!(
            PathId::new(NodeId(2), NodeId(5), 7),
            PathId::new(NodeId(2), NodeId(5), 8)
        );
    }

    #[test]
    fn install_lookup_remove() {
        let mut t = PathTable::new();
        let (id, e) = entry(1, 9, Some(3), Some(4));
        t.install(id, e);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&id), Some(&e));
        assert_eq!(t.remove(&id), Some(e));
        assert!(t.is_empty());
    }

    #[test]
    fn endpoints_skip_self_and_dangling() {
        let mut t = PathTable::new();
        // at node 9 (endpoint eb): toward_b = None
        let (id, e) = entry(1, 9, Some(3), None);
        t.install(id, e);
        let eps: Vec<_> = t.endpoints(NodeId(9)).collect();
        assert_eq!(eps, vec![(NodeId(1), 3)]);
        // viewed from an intermediate node, both endpoints visible
        let mut t2 = PathTable::new();
        let (id2, e2) = entry(1, 9, Some(3), Some(4));
        t2.install(id2, e2);
        let eps2: Vec<_> = t2.endpoints(NodeId(5)).collect();
        assert_eq!(eps2, vec![(NodeId(1), 3), (NodeId(9), 4)]);
    }

    #[test]
    fn purge_via_removes_entries_through_link() {
        let mut t = PathTable::new();
        let (id1, e1) = entry(1, 9, Some(3), Some(4));
        let (id2, e2) = entry(2, 8, Some(5), Some(6));
        t.install(id1, e1);
        t.install(id2, e2);
        let dead = t.purge_via(4);
        assert_eq!(dead, vec![id1]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn between_finds_every_nonce_of_one_endpoint_pair() {
        let mut t = PathTable::new();
        let (id1, e1) = entry(1, 9, Some(3), None);
        let (id2, e2) = entry(2, 9, Some(5), None);
        let id3 = PathId {
            nonce: u64::MAX,
            ..id1
        };
        t.install(id1, e1);
        t.install(id2, e2);
        t.install(id3, e1);
        let found: Vec<PathId> = t.between(NodeId(9), NodeId(1)).map(|(&k, _)| k).collect();
        assert_eq!(found, [id1, id3]);
        assert_eq!(t.between(NodeId(1), NodeId(2)).count(), 0);
    }

    #[test]
    fn paths_with_endpoint_filters() {
        let mut t = PathTable::new();
        let (id1, e1) = entry(1, 9, Some(3), None);
        let (id2, e2) = entry(2, 8, Some(5), Some(6));
        t.install(id1, e1);
        t.install(id2, e2);
        assert_eq!(t.paths_with_endpoint(NodeId(9)), vec![id1]);
        assert!(t.paths_with_endpoint(NodeId(7)).is_empty());
    }
}
