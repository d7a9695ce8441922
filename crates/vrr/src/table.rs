//! The VRR path table.
//!
//! One entry per virtual path traversing this node. Endpoint nodes hold an
//! entry with one dangling side. Entry count *at every traversed node* is
//! VRR's router-state cost — contrast with SSR, whose source routes cost
//! state only at the endpoints (experiment E10 measures both).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

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

/// How many ticks a row stands before it may merge with a twin — another
/// row for the same endpoints with the same two hops. A half-lay's second
/// half, passing a node the first half passed, reads the first half's row
/// (`VrrNode`'s pinch lookup), and a row's own hops change when that
/// second half re-lays it; both halves leave the junction on the same tick,
/// so on unit-latency links they pass one node within this many ticks of
/// each other on the paths the experiments lay (measured, DESIGN finding
/// 20).
pub const SETTLE: u64 = 16;

/// One row, the tick it was last laid (installed with other hops), and
/// whether it stands in for twins merged into it.
#[derive(Clone, Copy, Debug)]
struct Row {
    entry: PathEntry,
    laid: u64,
    stands_in: bool,
}

/// All path state at one node.
#[derive(Clone, Debug, Default)]
pub struct PathTable {
    rows: BTreeMap<PathId, Row>,
    /// Rows laid within the last [`SETTLE`] ticks, oldest first, as they
    /// were laid (an entry whose row was laid again since is stale and
    /// skipped).
    fresh: VecDeque<(u64, PathId, PathEntry)>,
    /// The table's clock: the tick of the last [`Self::settle`].
    now: u64,
}

impl PathTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries — this node's router-state cost.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no path traverses this node.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Installs (or overwrites) an entry, laid at the table's clock. A row
    /// re-installed with the hops it has keeps the tick it was laid at.
    pub fn install(&mut self, id: PathId, entry: PathEntry) {
        debug_assert_eq!((entry.ea, entry.eb), (id.ea, id.eb));
        let laid = self.now;
        let row = Row {
            entry,
            laid,
            stands_in: false,
        };
        match self.rows.entry(id) {
            Entry::Occupied(mut old) if old.get().entry != entry => {
                old.insert(row);
            }
            Entry::Occupied(_) => return,
            Entry::Vacant(slot) => {
                slot.insert(row);
            }
        }
        self.fresh.push_back((laid, id, entry));
    }

    /// Advances the table's clock to `now` and merges every row that has
    /// stood [`SETTLE`] ticks into its settled twin, if it has one: of the
    /// two, the row laid later stays (the larger nonce on a tie) and stands
    /// in for the other, which routes nothing it does not. A message still
    /// naming the dropped id finds the stand-in by the link it came in on
    /// ([`Self::stand_in`]), so two stand-ins for one endpoint pair never
    /// share a hop: a merge that would make them is left undone.
    pub fn settle(&mut self, now: u64) {
        self.now = now;
        while let Some(&(laid, id, entry)) = self.fresh.front() {
            if laid + SETTLE > now {
                break;
            }
            self.fresh.pop_front();
            // one walk over the pair: the row itself, as it was laid; its
            // settled twin; and whether another stand-in shares a hop
            let (mut current, mut twin, mut crowded) = (false, None, false);
            for (&k, row) in self.pair(id.ea, id.eb) {
                if k == id {
                    current = row.laid == laid && row.entry == entry;
                } else if twin.is_none() && row.entry == entry && row.laid + SETTLE <= now {
                    twin = Some((row.laid, k));
                } else if row.stands_in
                    && (row.entry.toward_a == entry.toward_a
                        || row.entry.toward_b == entry.toward_b)
                {
                    crowded = true;
                }
            }
            let Some((twin_laid, twin)) = twin.filter(|_| current && !crowded) else {
                continue;
            };
            let (drop, keep) = if (twin_laid, twin.nonce) < (laid, id.nonce) {
                (twin, id)
            } else {
                (id, twin)
            };
            self.rows.remove(&drop);
            if let Some(row) = self.rows.get_mut(&keep) {
                row.stands_in = true;
            }
        }
    }

    /// The row that stands in for `id`'s merged row here: the stand-in for
    /// `id`'s endpoints whose hop toward the endpoint `back` is `came_from`
    /// (`None` where this node is `back`). A message that follows its path
    /// comes in over its row's hop toward the endpoint behind it, and the
    /// twin that row merged into has the same hops.
    pub fn stand_in(
        &self,
        id: PathId,
        back: NodeId,
        came_from: Option<usize>,
    ) -> Option<(&PathId, &PathEntry)> {
        self.pair(id.ea, id.eb)
            .find(|&(&k, row)| row.stands_in && entry_hop_toward(&row.entry, k, back) == came_from)
            .map(|(k, row)| (k, &row.entry))
    }

    /// Removes an entry, returning it.
    pub fn remove(&mut self, id: &PathId) -> Option<PathEntry> {
        self.rows.remove(id).map(|row| row.entry)
    }

    /// Looks up one entry.
    pub fn get(&self, id: &PathId) -> Option<&PathEntry> {
        self.rows.get(id).map(|row| &row.entry)
    }

    /// Iterates all `(id, entry)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&PathId, &PathEntry)> {
        self.rows.iter().map(|(id, row)| (id, &row.entry))
    }

    /// All endpoints reachable through this node's entries, with the
    /// physical next hop toward each. An endpoint equal to `me` is skipped.
    pub fn endpoints(&self, me: NodeId) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.rows.values().map(|row| &row.entry).flat_map(move |e| {
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
    /// physical neighbor — used when a link dies. Returns how many it
    /// removed.
    pub fn purge_via(&mut self, neighbor: usize) -> usize {
        let before = self.rows.len();
        self.rows.retain(|_, row| {
            row.entry.toward_a != Some(neighbor) && row.entry.toward_b != Some(neighbor)
        });
        before - self.rows.len()
    }

    /// The entries of every path between the endpoints `x` and `y`,
    /// whatever its nonce, in key order.
    pub fn between(&self, x: NodeId, y: NodeId) -> impl Iterator<Item = (&PathId, &PathEntry)> {
        self.pair(x, y).map(|(id, row)| (id, &row.entry))
    }

    /// The first path between the endpoints `x` and `y`, in key order,
    /// whose row here has a hop toward the endpoint `toward`: the row a
    /// node rides toward `toward` when it holds no edge to it (a retired
    /// edge's row stays in place), and the row that keeps an edge alive
    /// where its own row was merged or lost.
    pub fn carrier(&self, x: NodeId, y: NodeId, toward: NodeId) -> Option<PathId> {
        self.between(x, y)
            .find(|&(&id, entry)| entry_hop_toward(entry, id, toward).is_some())
            .map(|(&id, _)| id)
    }

    /// The rows of every path between the endpoints `x` and `y`, in key
    /// order: one descent to the first nonce, then a walk while the
    /// endpoints match.
    fn pair(&self, x: NodeId, y: NodeId) -> impl Iterator<Item = (&PathId, &Row)> {
        let first = PathId::new(x, y, 0);
        self.rows
            .range(first..)
            .take_while(move |(k, _)| (k.ea, k.eb) == (first.ea, first.eb))
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
            self.rows.remove(k);
        }
        stale.len()
    }
}

/// The hop of `entry` leading toward the endpoint of `id` that equals
/// `toward`.
pub(crate) fn entry_hop_toward(entry: &PathEntry, id: PathId, toward: NodeId) -> Option<usize> {
    if toward == id.ea {
        entry.toward_a
    } else {
        entry.toward_b
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
        assert_eq!(t.purge_via(4), 1);
        assert_eq!(t.get(&id1), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn between_finds_every_nonce_of_one_endpoint_pair() {
        let mut t = PathTable::new();
        let (id1, e1) = entry(1, 9, Some(3), None);
        let (_, e2) = entry(2, 9, Some(5), None);
        let id3 = PathId::new(NodeId(9), NodeId(1), u64::MAX);
        t.install(id1, e1);
        t.install(PathId::new(NodeId(2), NodeId(9), 1), e2);
        t.install(id3, e1);
        let found: Vec<PathId> = t.between(NodeId(9), NodeId(1)).map(|(&k, _)| k).collect();
        assert_eq!(found, [id1, id3]);
        assert_eq!(t.between(NodeId(1), NodeId(2)).count(), 0);
    }

    /// The carrier is the first row of the pair, in key order, with a hop
    /// toward the asked endpoint: at endpoint 9 nothing leads toward 9,
    /// and toward 1 the row with the smaller nonce wins.
    #[test]
    fn the_carrier_is_the_first_row_of_the_pair_with_a_hop_toward_the_endpoint() {
        let mut t = PathTable::new();
        let (id1, e1) = entry(1, 9, Some(3), None);
        let id0 = PathId { nonce: 0, ..id1 };
        let id2 = PathId { nonce: 2, ..id1 };
        t.install(id2, e1);
        t.install(id1, e1);
        t.install(
            id0,
            PathEntry {
                toward_a: None,
                ..e1
            },
        );
        assert_eq!(t.carrier(NodeId(9), NodeId(1), NodeId(1)), Some(id1));
        assert_eq!(t.carrier(NodeId(1), NodeId(9), NodeId(9)), None);
        assert_eq!(t.carrier(NodeId(1), NodeId(2), NodeId(2)), None);
    }

    #[test]
    fn settled_rows_for_one_pair_with_the_same_hops_merge() {
        let mut t = PathTable::new();
        let (id1, e1) = entry(1, 9, Some(3), Some(4));
        let id2 = PathId { nonce: 0, ..id1 };
        let other = entry(2, 9, Some(3), Some(4));
        t.install(id1, e1);
        t.install(other.0, other.1);
        t.settle(5);
        t.install(id2, e1);
        // both stand until the later one has settled too
        t.settle(5 + SETTLE - 1);
        assert_eq!(t.len(), 3);
        t.settle(5 + SETTLE);
        // the row laid later stays, whatever its nonce; another pair's row
        // with the same hops is kept
        assert_eq!(t.get(&id1), None);
        assert_eq!(t.get(&id2), Some(&e1));
        assert_eq!(t.get(&other.0), Some(&other.1));
        assert_eq!(t.len(), 2);
        // re-installing the same row lays nothing new
        t.install(id2, e1);
        t.settle(5 + 2 * SETTLE);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn the_survivor_stands_in_for_its_twin_by_the_hop_back() {
        let mut t = PathTable::new();
        let (id1, e1) = entry(1, 9, Some(3), Some(4));
        let id2 = PathId { nonce: 2, ..id1 };
        // another path of the pair that comes in over link 3 too
        let (_, e3) = entry(1, 9, Some(3), Some(5));
        let id3 = PathId { nonce: 3, ..id1 };
        t.install(id1, e1);
        t.install(id2, e1);
        t.install(id3, e3);
        t.settle(SETTLE);
        assert_eq!(t.get(&id1), None);
        // toward 9, in over link 3 (the hop back toward 1): the twin's hops
        let found = t.stand_in(id1, NodeId(1), Some(3));
        assert_eq!(found, Some((&id2, &e1)));
        // toward 1, in over link 4 (the hop back toward 9)
        assert_eq!(t.stand_in(id1, NodeId(9), Some(4)), Some((&id2, &e1)));
        // `id3` stands in for nothing
        assert_eq!(t.stand_in(id1, NodeId(9), Some(5)), None);
    }

    #[test]
    fn two_stand_ins_for_one_pair_never_share_a_hop() {
        let mut t = PathTable::new();
        let (id1, e1) = entry(1, 9, Some(3), Some(4));
        let (_, e2) = entry(1, 9, Some(3), Some(5));
        let ids = [1, 2, 3, 4].map(|nonce| PathId { nonce, ..id1 });
        t.install(ids[0], e1);
        t.install(ids[1], e1);
        t.install(ids[2], e2);
        t.install(ids[3], e2);
        t.settle(SETTLE);
        // `ids[1]` stands in for `ids[0]`; merging `ids[2]` into `ids[3]`
        // would make a second stand-in that comes in over link 3
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&ids[0]), None);
        assert_eq!(t.stand_in(ids[0], NodeId(1), Some(3)), Some((&ids[1], &e1)));
    }

    #[test]
    fn a_row_laid_again_with_other_hops_before_it_settles_is_kept() {
        let mut t = PathTable::new();
        let (id1, e1) = entry(1, 9, Some(3), Some(4));
        let (_, e2) = entry(1, 9, Some(3), Some(5));
        let id2 = PathId { nonce: 2, ..id1 };
        t.install(id1, e1);
        t.install(id2, e1);
        // the second half of `id2`'s lay passes and turns its hop toward 9
        t.settle(SETTLE - 1);
        t.install(id2, e2);
        t.settle(3 * SETTLE);
        assert_eq!(t.get(&id1), Some(&e1));
        assert_eq!(t.get(&id2), Some(&e2));
    }

    #[test]
    fn rows_for_one_pair_with_different_hops_are_kept() {
        let mut t = PathTable::new();
        let (id1, e1) = entry(1, 9, Some(3), Some(4));
        let (_, e2) = entry(1, 9, Some(3), Some(5));
        let (_, e3) = entry(1, 9, Some(6), Some(4));
        let id2 = PathId { nonce: 2, ..id1 };
        let id3 = PathId { nonce: 3, ..id1 };
        t.install(id1, e1);
        t.install(id2, e2);
        t.install(id3, e3);
        t.settle(SETTLE);
        assert_eq!(t.between(NodeId(1), NodeId(9)).count(), 3);
    }

    #[test]
    fn crumbs_of_one_origin_are_purged_as_before() {
        let mut t = PathTable::new();
        let (origin, crumb) = (NodeId(4), NodeId(u64::MAX));
        let old = PathId::new(origin, crumb, 1);
        let newer = PathId::new(origin, crumb, 2);
        let hops = |a, b| PathEntry {
            ea: origin,
            eb: crumb,
            toward_a: a,
            toward_b: b,
        };
        let (other, e) = entry(4, 9, Some(1), Some(2));
        t.install(old, hops(Some(1), Some(2)));
        t.install(other, e);
        assert_eq!(t.purge_like(newer), 1);
        t.install(newer, hops(Some(1), Some(3)));
        assert_eq!(t.get(&old), None);
        assert_eq!(t.get(&other), Some(&e));
        assert_eq!(t.len(), 2);
    }
}
