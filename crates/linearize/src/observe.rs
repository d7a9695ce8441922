//! The read side of the control core: what a *converged* and a *safe*
//! population of [`Linearizer`]s is.
//!
//! The paper's argument is an observer's argument — "on the line, local
//! consistency implies global consistency" — so every verdict the
//! experiments report is a predicate over per-node neighbor sets, taken
//! from outside the network (simulation-only omniscience; protocols never
//! get this view). Nothing here cares what carries an edge: a node is
//! anything that can lend its [`Linearizer`] ([`Linearized`]), so SSR, VRR
//! and bare control-core states share one definition of each predicate.
//!
//! The structure is classified exactly as the paper's Section 3 does:
//!
//! * **locally consistent** — every node has at most (line) / exactly
//!   (ring) one neighbor per side;
//! * **loopy** — locally consistent as a ring, yet the successor cycle
//!   winds around the address space more than once (Figure 1);
//! * **partitioned** — the successor relation decomposes into several
//!   disjoint rings (Figure 2);
//! * **the line** — the linear reading: node `i`'s closest right neighbor
//!   is node `i+1` for every consecutive pair in address order;
//! * **the ring** — the line plus the closing edge between the global
//!   extremes.
//!
//! The safety half is the pair of self-stabilization invariants the chaos
//! experiments sample: [`union_components`] (linearization may only
//! *replace* edges, never sever the last path) and
//! [`linearization_potential`].

use std::collections::{BTreeMap, BTreeSet};

use ssr_graph::{Graph, Labeling};
use ssr_types::{NodeId, Side};

use crate::control::Linearizer;

/// A node whose virtual-neighbor state is a [`Linearizer`]. The accessors
/// are written once, here; an implementor only lends its control core.
pub trait Linearized {
    /// The per-edge data of the node's control core.
    type Edge: Copy;

    /// The node's control core.
    fn linearizer(&self) -> &Linearizer<Self::Edge>;

    /// The left virtual-neighbor set (addresses below the node's own), in
    /// address order. Ring-closure edges live in their own slots
    /// ([`Linearized::wrap_pred`] / [`Linearized::wrap_succ`]), never here.
    fn left_set(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        self.linearizer().side(Side::Left).iter().map(|&(p, _)| p)
    }

    /// The right virtual-neighbor set, in address order.
    fn right_set(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        self.linearizer().side(Side::Right).iter().map(|&(p, _)| p)
    }

    /// Closest left neighbor (the largest address below the node's own).
    fn closest_left(&self) -> Option<NodeId> {
        self.linearizer().closest(Side::Left)
    }

    /// Closest right neighbor (the smallest address above the node's own).
    fn closest_right(&self) -> Option<NodeId> {
        self.linearizer().closest(Side::Right)
    }

    /// The ring-closure predecessor edge (only meaningful at the minimum).
    fn wrap_pred(&self) -> Option<NodeId> {
        self.linearizer().wrap(Side::Left).map(|(p, _)| p)
    }

    /// The ring-closure successor edge (only meaningful at the maximum).
    fn wrap_succ(&self) -> Option<NodeId> {
        self.linearizer().wrap(Side::Right).map(|(s, _)| s)
    }

    /// The node this one considers its *ring successor*: the closest right
    /// neighbor, or the ring-closure edge when the right side is empty.
    fn ring_succ(&self) -> Option<NodeId> {
        self.linearizer().ring_neighbor(Side::Right)
    }

    /// The node this one considers its *ring predecessor*.
    fn ring_pred(&self) -> Option<NodeId> {
        self.linearizer().ring_neighbor(Side::Left)
    }

    /// Sizes of the left and right sets.
    fn side_sizes(&self) -> (usize, usize) {
        let lin = self.linearizer();
        (lin.side(Side::Left).len(), lin.side(Side::Right).len())
    }

    /// `true` once the node is locally consistent on the line: at most one
    /// neighbor per side and no handshake in flight.
    fn locally_consistent(&self) -> bool {
        self.linearizer().locally_consistent()
    }
}

impl<E: Copy> Linearized for Linearizer<E> {
    type Edge = E;

    fn linearizer(&self) -> &Linearizer<E> {
        self
    }
}

/// Structure classification of a successor relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RingShape {
    /// Every node is on one cycle that visits all nodes in address order —
    /// the globally consistent virtual ring.
    ConsistentRing,
    /// One cycle over all nodes, but it winds the address space more than
    /// once — Figure 1's loopy state. The winding number is attached.
    Loopy(usize),
    /// Multiple disjoint cycles — Figure 2's separate rings. The cycle
    /// count is attached.
    Partitioned(usize),
    /// Some node has no successor (or points at an unknown node): the
    /// relation is not even a permutation yet.
    Incomplete,
}

impl RingShape {
    /// A stable, machine-readable label — the vocabulary used by run
    /// manifests and the `obs` tooling: `consistent-ring`, `loopy(k)`,
    /// `partitioned(k)`, `incomplete`.
    pub fn label(&self) -> String {
        match self {
            RingShape::ConsistentRing => "consistent-ring".to_string(),
            RingShape::Loopy(w) => format!("loopy({w})"),
            RingShape::Partitioned(c) => format!("partitioned({c})"),
            RingShape::Incomplete => "incomplete".to_string(),
        }
    }
}

/// Outcome of a consistency check over all node states.
#[derive(Clone, Debug)]
pub struct ConsistencyReport {
    /// Nodes with at most one neighbor per side and no handshake pending.
    pub locally_consistent_nodes: usize,
    /// Total nodes inspected.
    pub nodes: usize,
    /// `true` iff the linear reading is globally consistent (sorted line).
    pub line_formed: bool,
    /// `true` iff the line is closed into the ring by the wrap edges.
    pub ring_closed: bool,
    /// Shape of the successor relation.
    pub shape: RingShape,
}

impl ConsistencyReport {
    /// Full global consistency: the line formed and the ring closed.
    pub fn consistent(&self) -> bool {
        self.line_formed && self.ring_closed && self.shape == RingShape::ConsistentRing
    }
}

/// Classifies an arbitrary successor map (also used for the ISPRP baseline).
///
/// `succ` must contain one entry per node. The winding number of the unique
/// cycle is the number of times the address order "wraps" while following
/// successors; 1 = consistent, ≥ 2 = loopy.
pub fn classify_succ_map(succ: &BTreeMap<NodeId, NodeId>) -> RingShape {
    let n = succ.len();
    if n == 0 {
        return RingShape::ConsistentRing;
    }
    // every successor must itself be a node
    if succ.values().any(|s| !succ.contains_key(s)) {
        return RingShape::Incomplete;
    }
    // walk cycles
    let mut visited: BTreeMap<NodeId, bool> = succ.keys().map(|&k| (k, false)).collect();
    let mut cycles = 0usize;
    let mut first_cycle_len = 0usize;
    let mut first_cycle_windings = 0usize;
    for &start in succ.keys() {
        if visited[&start] {
            continue;
        }
        cycles += 1;
        let mut cur = start;
        let mut len = 0usize;
        let mut windings = 0usize;
        loop {
            *visited.get_mut(&cur).unwrap() = true;
            let next = succ[&cur];
            if next <= cur {
                windings += 1; // address order wrapped
            }
            len += 1;
            cur = next;
            if cur == start {
                break;
            }
            if visited[&cur] {
                // entered a previously visited cycle from a tail: the map is
                // not injective — not a permutation
                return RingShape::Incomplete;
            }
            if len > n {
                return RingShape::Incomplete;
            }
        }
        if cycles == 1 {
            first_cycle_len = len;
            first_cycle_windings = windings;
        }
    }
    if cycles > 1 {
        RingShape::Partitioned(cycles)
    } else if first_cycle_len == n && first_cycle_windings <= 1 {
        RingShape::ConsistentRing
    } else {
        RingShape::Loopy(first_cycle_windings)
    }
}

/// Checks the full virtual *ring* over a population: the **line** — every
/// consecutive address pair mutual closest neighbors, the extremes with
/// empty outward sides — plus mutually agreed wrap edges between the global
/// extremes. Single-node networks are trivially closed (but a lone node
/// holding neighbors has not formed the line).
pub fn check_ring<P: Linearized>(nodes: &[P]) -> ConsistencyReport {
    let n = nodes.len();
    let mut sorted: Vec<&Linearizer<P::Edge>> = nodes.iter().map(P::linearizer).collect();
    sorted.sort_by_key(|lin| lin.id());
    let mutual = |w: &[&Linearizer<P::Edge>]| {
        w[0].closest_right() == Some(w[1].id()) && w[1].closest_left() == Some(w[0].id())
    };
    let ends = sorted.first().zip(sorted.last());
    let line_formed = sorted.windows(2).all(mutual)
        && ends
            .is_none_or(|(min, max)| min.closest_left().is_none() && max.closest_right().is_none());
    let ring_closed = n <= 1
        || ends.is_some_and(|(min, max)| {
            min.wrap_pred() == Some(max.id()) && max.wrap_succ() == Some(min.id())
        });
    let shape = if n <= 1 {
        RingShape::ConsistentRing
    } else {
        // a node without a ring successor ends the collection: no permutation
        let succ: Option<BTreeMap<NodeId, NodeId>> = sorted
            .iter()
            .map(|lin| lin.ring_succ().map(|s| (lin.id(), s)))
            .collect();
        succ.map_or(RingShape::Incomplete, |succ| classify_succ_map(&succ))
    };
    ConsistencyReport {
        locally_consistent_nodes: sorted.iter().filter(|lin| lin.locally_consistent()).count(),
        nodes: n,
        line_formed,
        ring_closed,
        shape,
    }
}

/// `true` when every node is locally consistent — the predicate that
/// separates a frozen *crossing* state from a plain stuck state.
pub fn all_locally_consistent<P: Linearized>(nodes: &[P]) -> bool {
    nodes.iter().all(|p| p.locally_consistent())
}

/// The linearization potential: the sum of address spans `|a − b|` over all
/// distinct virtual *line* edges (side-set members) of live nodes. Wrap
/// (ring-closure) edges are excluded — their span is the whole address
/// range by construction, so including them would make the converged ring
/// score worse than a corrupted line. Linearization replaces long line
/// edges by shorter ones, so from a fully-corrupted start this sum shrinks
/// toward the consistent ring's minimum.
pub fn linearization_potential<P: Linearized>(nodes: &[P], alive: &[bool]) -> u128 {
    let mut edges: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    for (i, node) in nodes.iter().enumerate() {
        if !alive.get(i).copied().unwrap_or(true) {
            continue;
        }
        let a = node.linearizer().id();
        for b in node.left_set().chain(node.right_set()) {
            edges.insert((a.min(b), a.max(b)));
        }
    }
    edges.iter().map(|&(a, b)| (b.0 - a.0) as u128).sum()
}

/// Number of connected components of the **union graph** — physical edges
/// plus virtual edges (side sets and wraps, mapped back to simulator
/// indices) — restricted to live nodes. Self-stabilization requires the
/// union graph to stay connected: linearization may only *replace* edges,
/// never sever the last path between two halves.
pub fn union_components<P: Linearized>(
    topo: &Graph,
    alive: &[bool],
    labels: &Labeling,
    nodes: &[P],
) -> usize {
    let n = topo.node_count();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, v) in topo.edges() {
        adj[u].push(v);
        adj[v].push(u);
    }
    for (i, node) in nodes.iter().enumerate() {
        let virt = node
            .left_set()
            .chain(node.right_set())
            .chain(node.wrap_pred())
            .chain(node.wrap_succ());
        for b in virt {
            if let Some(j) = labels.index(b) {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    let mut seen = vec![false; n];
    let mut comps = 0;
    let mut stack = Vec::new();
    for s in 0..n {
        if seen[s] || !alive.get(s).copied().unwrap_or(true) {
            continue;
        }
        comps += 1;
        seen[s] = true;
        stack.push(s);
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] && alive.get(v).copied().unwrap_or(true) {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
    }
    comps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{Input, Timer};
    use proptest::prelude::*;

    /// Bare control cores, one per id, each holding `links(id)` as side-set
    /// members and `wraps(id)` as `(pred, succ)` ring-closure partners.
    fn population<E: Copy>(
        ids: &[u64],
        edge: E,
        links: impl Fn(u64) -> Vec<u64>,
        wraps: impl Fn(u64) -> (Option<u64>, Option<u64>),
    ) -> Vec<Linearizer<E>> {
        ids.iter()
            .map(|&id| {
                let mut lin = Linearizer::new(NodeId(id), true);
                for peer in links(id) {
                    lin.adopt(NodeId(peer), edge);
                }
                let (pred, succ) = wraps(id);
                if let Some(p) = pred {
                    lin.set_wrap(Side::Left, NodeId(p), edge);
                }
                if let Some(s) = succ {
                    lin.set_wrap(Side::Right, NodeId(s), edge);
                }
                lin
            })
            .collect()
    }

    /// The sorted ring over `ids` (ascending): closest neighbors only, wraps
    /// at the two extremes.
    fn sorted_ring<E: Copy>(ids: &[u64], edge: E) -> Vec<Linearizer<E>> {
        let at = |id| ids.iter().position(|&x| x == id).unwrap();
        let (min, max) = (ids.first().copied(), ids.last().copied());
        population(
            ids,
            edge,
            |id| {
                let i = at(id);
                let below = i.checked_sub(1).map(|j| ids[j]);
                below.into_iter().chain(ids.get(i + 1).copied()).collect()
            },
            |id| {
                let closes = ids.len() > 1;
                (
                    max.filter(|_| closes && Some(id) == min),
                    min.filter(|_| closes && Some(id) == max),
                )
            },
        )
    }

    /// `w` interleaved residue classes of the (ascending) `ids`, each an
    /// ascending chain whose last member wraps to the first of the next
    /// class (`wound`: one cycle winding the address space `w` times —
    /// Figure 1) or of its own (`w` disjoint rings — Figure 2).
    fn strided<E: Copy>(ids: &[u64], edge: E, w: usize, wound: bool) -> Vec<Linearizer<E>> {
        let at = |id| ids.iter().position(|&x| x == id).unwrap();
        population(
            ids,
            edge,
            |id| ids.get(at(id) + w).copied().into_iter().collect(),
            |id| {
                let i = at(id);
                let class = if wound { (i % w + 1) % w } else { i % w };
                let first = ids.get(class).copied();
                (None, first.filter(|_| i + w >= ids.len()))
            },
        )
    }

    // -- reference predicates: the three functions `check_ring` replaced ----

    /// `ssr_core::consistency::check_line` as it stood: its own sort.
    fn reference_check_line<P: Linearized>(nodes: &[P]) -> bool {
        let mut sorted: Vec<&P> = nodes.iter().collect();
        sorted.sort_by_key(|n| n.linearizer().id());
        for w in sorted.windows(2) {
            if w[0].closest_right() != Some(w[1].linearizer().id())
                || w[1].closest_left() != Some(w[0].linearizer().id())
            {
                return false;
            }
        }
        if let (Some(first), Some(last)) = (sorted.first(), sorted.last()) {
            if first.closest_left().is_some() || last.closest_right().is_some() {
                return false;
            }
        }
        true
    }

    /// `ssr_core::consistency::check_ring` as it stood: `check_line`, a
    /// second sort for the closure, the successor map over unsorted nodes.
    fn reference_check_ring<P: Linearized>(nodes: &[P]) -> ConsistencyReport {
        let n = nodes.len();
        let id = |x: &P| x.linearizer().id();
        let locally_consistent_nodes = nodes.iter().filter(|x| x.locally_consistent()).count();
        let line_formed = reference_check_line(nodes);
        let ring_closed = if n <= 1 {
            true
        } else {
            let mut sorted: Vec<&P> = nodes.iter().collect();
            sorted.sort_by_key(|x| id(x));
            let min = sorted[0];
            let max = sorted[n - 1];
            min.wrap_pred() == Some(id(max)) && max.wrap_succ() == Some(id(min))
        };
        let shape = if n <= 1 {
            RingShape::ConsistentRing
        } else {
            let succ: BTreeMap<NodeId, NodeId> = nodes
                .iter()
                .filter_map(|x| x.ring_succ().map(|s| (id(x), s)))
                .collect();
            if succ.len() < n {
                RingShape::Incomplete
            } else {
                classify_succ_map(&succ)
            }
        };
        ConsistencyReport {
            locally_consistent_nodes,
            nodes: n,
            line_formed,
            ring_closed,
            shape,
        }
    }

    /// `ssr_vrr::vrr_ring_consistent` as it stood: a bare yes/no, with the
    /// `n <= 1` short-circuit in front.
    fn reference_vrr_ring_consistent<P: Linearized>(nodes: &[P]) -> bool {
        let n = nodes.len();
        if n <= 1 {
            return true;
        }
        let id = |x: &P| x.linearizer().id();
        let mut sorted: Vec<&P> = nodes.iter().collect();
        sorted.sort_by_key(|p| id(p));
        for w in sorted.windows(2) {
            if w[0].closest_right() != Some(id(w[1])) || w[1].closest_left() != Some(id(w[0])) {
                return false;
            }
        }
        if sorted[0].closest_left().is_some() || sorted[n - 1].closest_right().is_some() {
            return false;
        }
        sorted[0].wrap_pred() == Some(id(sorted[n - 1]))
            && sorted[n - 1].wrap_succ() == Some(id(sorted[0]))
    }

    fn fields(r: &ConsistencyReport) -> (usize, usize, bool, bool, RingShape) {
        (
            r.locally_consistent_nodes,
            r.nodes,
            r.line_formed,
            r.ring_closed,
            r.shape.clone(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]
        /// Populations start as the sorted ring, a wound or split ring, or
        /// empty-handed, and take up to eight random edits: a neighbor from the population or a ghost
        /// address outside it, a neighbor lost, a wrap set (right, wrong or
        /// ghost) or unset, an act round that leaves a handshake pending.
        /// `n = 2` from the ring start is the network where one peer is side
        /// member and wrap partner at once.
        #[test]
        fn check_ring_matches_the_predicates_it_replaced(
            ids in proptest::collection::btree_set(1u64..40, 0..13),
            start in 0u8..4,
            stride in 2usize..4,
            edits in proptest::collection::vec((0u8..6, 0usize..12, 0u64..48), 0..9),
            rotate in 0usize..12,
        ) {
            let ids: Vec<u64> = ids.into_iter().collect();
            let mut nodes: Vec<Linearizer<u8>> = match start {
                0 => population(&ids, 7, |_| Vec::new(), |_| (None, None)),
                1 => sorted_ring(&ids, 7),
                _ => strided(&ids, 7, stride, start == 2),
            };
            for (op, at, val) in edits {
                if nodes.is_empty() {
                    break;
                }
                let at = at % nodes.len();
                let lin = &mut nodes[at];
                // `val` is a member of the population about half the time
                let peer = NodeId(ids.get(val as usize % 24).copied().unwrap_or(val + 40));
                match op {
                    0 | 1 => {
                        lin.adopt(peer, 7);
                    }
                    2 => {
                        lin.remove(peer);
                    }
                    3 => lin.set_wrap(Side::Left, peer, 7),
                    4 => lin.set_wrap(Side::Right, peer, 7),
                    _ => {
                        let act = Input::Timer { timer: Timer::Act, routable: false };
                        let _effects = lin.step(act, 100);
                    }
                }
            }
            // the simulator hands nodes over in index order, not address order
            if !nodes.is_empty() {
                let by = rotate % nodes.len();
                nodes.rotate_left(by);
            }

            let report = check_ring(&nodes);
            prop_assert_eq!(fields(&report), fields(&reference_check_ring(&nodes)));
            // line + closure imply the shape, so the yes/no needs no third term
            prop_assert_eq!(report.consistent(), report.line_formed && report.ring_closed);

            // The one disagreement of the old pair: a lone node holding
            // neighbors. VRR's short-circuit called it consistent, SSR's line
            // check did not; SSR's reading stands. No run reaches the state —
            // a lone node has no link to hear an address over.
            let lone_with_ghosts = nodes.len() == 1 && nodes[0].side_sizes() != (0, 0);
            if lone_with_ghosts {
                prop_assert!(!report.consistent() && reference_vrr_ring_consistent(&nodes));
            } else {
                prop_assert_eq!(report.consistent(), reference_vrr_ring_consistent(&nodes));
            }
        }
    }

    #[test]
    fn the_sorted_ring_is_consistent_at_every_size() {
        for n in 0..6u64 {
            let ids: Vec<u64> = (1..=n).map(|i| i * 10).collect();
            let report = check_ring(&sorted_ring(&ids, ()));
            assert!(report.consistent(), "n = {n}: {report:?}");
            assert_eq!(report.locally_consistent_nodes, n as usize);
        }
    }

    #[test]
    fn every_shape_arm_through_check_ring() {
        let ids = [1, 2, 3, 4];
        // 1→3→2→4→1: one cycle, the address order wraps twice
        let wound = check_ring(&strided(&ids, (), 2, true));
        assert_eq!(wound.shape, RingShape::Loopy(2));
        // every node has one neighbor per side at most: only the line
        // reading sees the defect
        assert_eq!(wound.locally_consistent_nodes, 4);
        assert!(!wound.line_formed && !wound.consistent());
        // {1,3} and {2,4} each closed on itself
        let split = check_ring(&strided(&ids, (), 2, false));
        assert_eq!(split.shape, RingShape::Partitioned(2));
        // the line without its closing edge: 4 has no successor
        let mut line = sorted_ring(&ids, ());
        line[3].forget(NodeId(1));
        let open = check_ring(&line);
        assert_eq!(open.shape, RingShape::Incomplete);
        assert!(open.line_formed && !open.ring_closed);
        assert_eq!(
            check_ring(&sorted_ring(&ids, ())).shape,
            RingShape::ConsistentRing
        );
    }

    #[test]
    fn a_pending_handshake_is_not_locally_consistent() {
        let mut nodes = population(&[10, 20, 30], 0u8, |_| Vec::new(), |_| (None, None));
        assert!(all_locally_consistent(&nodes));
        nodes[0].adopt(NodeId(20), 0);
        nodes[0].adopt(NodeId(30), 0);
        assert!(!all_locally_consistent(&nodes));
        assert_eq!(check_ring(&nodes).locally_consistent_nodes, 2);
    }

    /// The form the small-n checker will call: VRR-shaped nodes are bare
    /// `Linearizer`s whose edges carry data (a path id — here a `u64`).
    #[test]
    fn invariants_over_bare_linearizers_with_edge_data() {
        // physical: 0–1 and 2–3; addresses 10, 20, 30, 40 in index order
        let topo = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let labels = Labeling::from_ids([10, 20, 30, 40].map(NodeId).to_vec());
        let alive = [true; 4];
        let bare = |links: fn(u64) -> Vec<u64>, wraps: fn(u64) -> (Option<u64>, Option<u64>)| {
            population(&[10, 20, 30, 40], 0xFEED_u64, links, wraps)
        };
        let physical = |id| match id {
            10 => vec![20],
            20 => vec![10],
            30 => vec![40],
            _ => vec![30],
        };
        let nodes = bare(physical, |_| (None, None));
        assert_eq!(union_components(&topo, &alive, &labels, &nodes), 2);
        // both edges held from both ends count once each
        assert_eq!(linearization_potential(&nodes, &alive), 20);

        // a wrap edge bridges the halves but adds no potential …
        let wrapped = bare(physical, |id| (None, (id == 40).then_some(10)));
        assert_eq!(union_components(&topo, &alive, &labels, &wrapped), 1);
        assert_eq!(linearization_potential(&wrapped, &alive), 20);
        // … a ghost address bridges nothing, and a dead node's edges are not
        // counted while the node itself is not a component
        let ghost = bare(
            |id| if id == 20 { vec![10, 99] } else { vec![] },
            |_| (None, None),
        );
        assert_eq!(union_components(&topo, &alive, &labels, &ghost), 2);
        assert_eq!(linearization_potential(&ghost, &alive), 10 + 79);
        let dead_20 = [true, false, true, true];
        assert_eq!(union_components(&topo, &dead_20, &labels, &ghost), 2);
        assert_eq!(linearization_potential(&ghost, &dead_20), 0);
    }
}
