//! The physical world — topology and liveness — and the **live adjacency**
//! derived from them. A module of its own so that the fields are out of the
//! simulator's reach: the only writes are [`World::topo_mut`] and
//! [`World::set_alive`], which is what keeps the derived lists honest.

use ssr_graph::Graph;

/// One node's live adjacency: its alive physical neighbours, sorted by
/// index — a cache of `topo.neighbors(u).filter(alive)`.
#[derive(Clone, Default)]
struct LiveList {
    /// [`World::gen`] when `nbrs` was derived; any other value means
    /// the topology or liveness may have changed since.
    stamp: u64,
    nbrs: Vec<usize>,
}

pub(super) struct World {
    topo: Graph,
    alive: Vec<bool>,
    live: Vec<LiveList>,
    /// Bumped by every write to `topo` or `alive`; starts above the
    /// default stamp so every list is derived at its first use.
    gen: u64,
}

impl World {
    /// Everyone alive, over `topo`.
    pub(super) fn new(topo: Graph) -> Self {
        let n = topo.node_count();
        World {
            topo,
            alive: vec![true; n],
            live: vec![LiveList::default(); n],
            gen: 1,
        }
    }

    pub(super) fn topo(&self) -> &Graph {
        &self.topo
    }

    pub(super) fn alive(&self) -> &[bool] {
        &self.alive
    }

    #[inline]
    pub(super) fn is_alive(&self, node: usize) -> bool {
        self.alive[node]
    }

    /// Write access to the topology. Any write may change some node's
    /// live adjacency, so the generation moves and each list is
    /// re-derived at its next use.
    pub(super) fn topo_mut(&mut self) -> &mut Graph {
        self.gen += 1;
        &mut self.topo
    }

    /// Marks `node` up or down (see [`World::topo_mut`]).
    pub(super) fn set_alive(&mut self, node: usize, up: bool) {
        self.gen += 1;
        self.alive[node] = up;
    }

    /// Node `u`'s alive physical neighbours, sorted by index. What
    /// [`super::Ctx::neighbors`] lends to a callback and what a delivery
    /// checks its link against, so neither walks [`Graph`]'s tree sets
    /// per event: the list is re-derived — here and nowhere else — only
    /// when the world changed since it was last derived.
    #[inline]
    pub(super) fn live(&mut self, u: usize) -> &[usize] {
        let list = &mut self.live[u];
        if list.stamp != self.gen {
            list.nbrs.clear();
            list.nbrs.reserve(self.topo.degree(u));
            list.nbrs
                .extend(self.topo.neighbors(u).filter(|&v| self.alive[v]));
            list.stamp = self.gen;
        }
        // every debug-profile event (each dispatch and delivery comes
        // through here) re-checks the cache against its definition
        debug_assert!(
            list.nbrs
                .iter()
                .copied()
                .eq(self.topo.neighbors(u).filter(|&v| self.alive[v])),
            "live adjacency of node {u} drifted from the topology"
        );
        &list.nbrs
    }
}
