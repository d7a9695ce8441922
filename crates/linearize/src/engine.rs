//! The synchronous round engine.
//!
//! One round applies every node's linearization action simultaneously, as in
//! the analysis model of Onus et al.: each node `v` sorts its current
//! neighborhood `u_1 < … < u_k < v < u_{k+1} < … < u_d` and *proposes* the
//! chain `{u_1,u_2}, …, {u_k,v}, {v,u_{k+1}}, …, {u_{d-1},u_d}` (star
//! semantics), or delegates just its farthest neighbor per side (pairwise
//! semantics). The next round's edge set is the union of all proposals plus
//! whatever each variant *retains*:
//!
//! * pure — nothing beyond the proposal (which already contains `v`'s
//!   closest neighbor on each side),
//! * memory — every current edge,
//! * LSN — the closest neighbor per exponential interval per side.
//!
//! Union survival is the conservative reading of the paper's handshake (an
//! edge is torn down only once *both* endpoints have acknowledged, so an
//! edge one endpoint still wants stays). Every step preserves
//! connectedness: each dropped edge `{v, u}` is covered by a proposed path
//! from `v` to `u` through nodes between them — that invariant is what makes
//! flooding unnecessary, and the property tests hammer it.
//!
//! The engine works in **rank space** (identifier order = index order); see
//! [`crate::convergence::relabel_to_ranks`].
//!
//! # Gather form
//!
//! [`step_round`] does not walk the proposers and insert their proposals
//! edge by edge; it computes each node's next row as a pure function of the
//! current graph. Every edge of the next round has a *source*: a proposer
//! `v` whose sorted neighborhood puts the two endpoints side by side, or an
//! endpoint that retains it. A proposer only ever pairs members of
//! `N(v) ∪ {v}`, so the sources that can hand node `a` an edge are `a`
//! itself and its current neighbors — exactly the entries of `a`'s row. For
//! each of them `a` reads off what it is handed: its predecessor and
//! successor in `sorted(N(v) ∪ {v})` under star semantics (under pairwise:
//! `v` itself unless `a` is `v`'s farthest neighbor on a side with two, and
//! the other of the two farthest if `a` is one of them), plus `v` when either
//! end retains the edge. That is the same union the scatter form builds: a
//! proposed pair `{x, y}` is seen once from `x`'s row and once from `y`'s,
//! both times through the same proposer, so both rows receive it and the
//! result is symmetric. Finding `a` inside `v`'s row needs no search — nodes
//! are visited in ascending order and rows ascend, so a per-node count of
//! the visits made so far *is* `a`'s position. Candidates are sorted and
//! deduplicated per row, and [`Graph::from_sorted_rows`] re-checks range,
//! order, self-loops and symmetry of the whole result before it becomes a
//! graph.

use std::cmp::Ordering;
use std::ops::Range;

use ssr_graph::Graph;
use ssr_types::{IntervalPartition, NodeId, Side};

use crate::convergence::{chain_edges_present, is_exact_chain, missing_chain_edges, potential};
use crate::variant::{Semantics, Variant};

/// Per-round statistics.
#[derive(Clone, Copy, Debug)]
pub struct RoundStats {
    /// Round index (1-based; round 0 is the initial state).
    pub round: usize,
    /// Edge count after the round.
    pub edges: usize,
    /// Edges added this round.
    pub added: usize,
    /// Edges removed this round.
    pub removed: usize,
    /// Maximum node degree after the round.
    pub max_degree: usize,
    /// Consecutive pairs still missing after the round.
    pub missing_chain: usize,
    /// Potential `Σ (v-u)` after the round.
    pub potential: u64,
}

/// The result of a linearization run.
#[derive(Clone, Debug)]
pub struct LinearizeRun {
    /// Per-round statistics (entry 0 describes the initial graph).
    pub rounds: Vec<RoundStats>,
    /// First round at which all chain edges were present ("the line
    /// formed"), if reached.
    pub line_at: Option<usize>,
    /// First round at which the graph was exactly the chain (pure
    /// linearization's fixpoint), if reached.
    pub exact_at: Option<usize>,
    /// The final virtual graph.
    pub final_graph: Graph,
}

impl LinearizeRun {
    /// Rounds until the line formed; `None` if the run hit its budget.
    pub fn rounds_to_line(&self) -> Option<usize> {
        self.line_at
    }

    /// The largest node degree observed in any round — the state bound the
    /// LSN variant exists to keep small.
    pub fn peak_degree(&self) -> usize {
        self.rounds.iter().map(|r| r.max_degree).max().unwrap_or(0)
    }
}

/// A node's sorted neighborhood with the node in place:
/// `row[..split] < v < row[split..]`.
#[derive(Clone, Copy)]
struct Hood<'a> {
    v: u32,
    row: &'a [u32],
    split: usize,
}

impl Hood<'_> {
    /// Slot `s` of the chain `u_1 … u_k, v, u_{k+1} … u_d`.
    fn chain(&self, s: usize) -> u32 {
        match s.cmp(&self.split) {
            Ordering::Less => self.row[s],
            Ordering::Equal => self.v,
            Ordering::Greater => self.row[s - 1],
        }
    }

    /// Star semantics: what `v`'s chain hands to the member in slot `s`.
    fn push_chain_neighbors(&self, s: usize, out: &mut Vec<u32>) {
        if s > 0 {
            out.push(self.chain(s - 1));
        }
        if s < self.row.len() {
            out.push(self.chain(s + 1));
        }
    }

    /// Pairwise semantics: the row positions whose edge to `v` survives
    /// `v`'s action — all but the farthest neighbor of each side that has at
    /// least two.
    fn pairwise_kept(&self) -> Range<usize> {
        let d = self.row.len();
        usize::from(self.split >= 2)..d - usize::from(d - self.split >= 2)
    }

    /// Pairwise semantics: what `v`'s action hands to its neighbor at row
    /// position `p` — `v` itself unless delegated away, and the bridge
    /// between the two farthest neighbors of a side.
    fn push_pairwise_handed(&self, p: usize, out: &mut Vec<u32>) {
        let d = self.row.len();
        let kept = self.pairwise_kept();
        if kept.contains(&p) {
            out.push(self.v);
        }
        // a side that gives up its farthest neighbor bridges it to the
        // second-farthest: positions 0 and 1 on the left, d-1 and d-2 on the
        // right, each handed the other
        if kept.start == 1 && p < 2 {
            out.push(self.row[1 - p]);
        }
        if kept.end + 1 == d && p + 2 >= d {
            out.push(self.row[2 * d - 3 - p]);
        }
    }

    /// LSN retention: `true` iff the neighbor at row position `p` is the one
    /// closest to `v` within its exponential interval, i.e. the next neighbor
    /// towards `v` on its side is absent or falls into another interval.
    fn keeps(&self, p: usize, partition: IntervalPartition) -> bool {
        let (side, closer) = if p < self.split {
            (Side::Left, self.row[p + 1..self.split].first())
        } else {
            (Side::Right, self.row[self.split..p].last())
        };
        let interval = |u: u32| {
            let (s, idx) = partition
                .index(NodeId(self.v as u64), NodeId(u as u64))
                .expect("neighbor equals self");
            debug_assert_eq!(s, side);
            idx
        };
        let own = interval(self.row[p]);
        closer.is_none_or(|&c| interval(c) != own)
    }
}

/// Computes one synchronous round. Returns the next graph.
pub fn step_round(g: &Graph, variant: Variant, semantics: Semantics) -> Graph {
    let n = g.node_count();
    let splits: Vec<u32> = (0..n)
        .map(|v| g.row(v).partition_point(|&u| (u as usize) < v) as u32)
        .collect();
    let hood = |v: usize| Hood {
        v: v as u32,
        row: g.row(v),
        split: splits[v] as usize,
    };
    // visits[v]: how many neighbors of `v` the loop below has passed. Nodes
    // go by ascending, rows ascend, so when `a` reaches `v` in its row this
    // is `a`'s position in `v`'s row.
    let mut visits = vec![0u32; n];
    let mut rows = Vec::with_capacity(n);
    let mut cand: Vec<u32> = Vec::new();
    for a in 0..n {
        let mine = hood(a);
        cand.clear();
        // a's own action
        match semantics {
            Semantics::Star => mine.push_chain_neighbors(mine.split, &mut cand),
            Semantics::Pairwise => cand.extend(&mine.row[mine.pairwise_kept()]),
        }
        // retention is per edge and symmetric in who asks: memory keeps all
        // of them, LSN those that either endpoint keeps
        if matches!(variant, Variant::Memory) {
            cand.extend(mine.row);
        }
        for (at_mine, &v) in mine.row.iter().enumerate() {
            let theirs = hood(v as usize);
            let at_theirs = visits[v as usize] as usize;
            visits[v as usize] += 1;
            debug_assert_eq!(theirs.row[at_theirs] as usize, a);
            match semantics {
                Semantics::Star => {
                    let slot = at_theirs + usize::from(at_theirs >= theirs.split);
                    theirs.push_chain_neighbors(slot, &mut cand);
                }
                Semantics::Pairwise => theirs.push_pairwise_handed(at_theirs, &mut cand),
            }
            if let Variant::Lsn(partition) = variant {
                if mine.keeps(at_mine, partition) || theirs.keeps(at_theirs, partition) {
                    cand.push(v);
                }
            }
        }
        cand.sort_unstable();
        cand.dedup();
        rows.push(cand.clone()); // exact-size allocation
    }
    Graph::from_sorted_rows(rows)
}

/// Edges of `next` absent from `prev`, and of `prev` absent from `next`:
/// what both graphs share is counted by merge-walking the two rows of each
/// node (each shared edge shows up in two rows).
fn added_removed(prev: &Graph, next: &Graph) -> (usize, usize) {
    let mut shared = 0usize;
    for u in 0..next.node_count() {
        let (old, new) = (prev.row(u), next.row(u));
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < new.len() {
            match old[i].cmp(&new[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    (
        next.edge_count() - shared / 2,
        prev.edge_count() - shared / 2,
    )
}

fn stats_for(round: usize, g: &Graph, prev: Option<&Graph>) -> RoundStats {
    let (added, removed) = prev.map_or((0, 0), |p| added_removed(p, g));
    let (_, max_degree, _) = g.degree_stats();
    RoundStats {
        round,
        edges: g.edge_count(),
        added,
        removed,
        max_degree,
        missing_chain: missing_chain_edges(g),
        potential: potential(g),
    }
}

/// Runs linearization for at most `max_rounds` rounds.
///
/// Stops as soon as the variant's goal is reached: the exact chain for
/// [`Variant::Pure`], the line (all chain edges present) otherwise. Entry 0
/// of `rounds` describes the initial graph.
pub fn run(g0: &Graph, variant: Variant, semantics: Semantics, max_rounds: usize) -> LinearizeRun {
    let mut g = g0.clone();
    let mut rounds = vec![stats_for(0, &g, None)];
    let mut line_at = chain_edges_present(&g).then_some(0);
    let mut exact_at = is_exact_chain(&g).then_some(0);
    let done = |line_at: Option<usize>, exact_at: Option<usize>| match variant {
        Variant::Pure => exact_at.is_some(),
        _ => line_at.is_some(),
    };
    let mut round = 0;
    while !done(line_at, exact_at) && round < max_rounds {
        round += 1;
        let next = step_round(&g, variant, semantics);
        rounds.push(stats_for(round, &next, Some(&g)));
        g = next;
        if line_at.is_none() && chain_edges_present(&g) {
            line_at = Some(round);
        }
        if exact_at.is_none() && is_exact_chain(&g) {
            exact_at = Some(round);
        }
    }
    LinearizeRun {
        rounds,
        line_at,
        exact_at,
        final_graph: g,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssr_graph::{algo, generators};
    use ssr_types::Rng;

    fn all_variants() -> Vec<Variant> {
        vec![Variant::Pure, Variant::Memory, Variant::lsn()]
    }

    /// The scatter form `step_round` had before it became a gather: walk the
    /// proposers, `add_edge` every proposal and every retained edge.
    fn reference_round(g: &Graph, variant: Variant, semantics: Semantics) -> Graph {
        let n = g.node_count();
        let mut next = Graph::new(n);
        let mut nbrs: Vec<usize> = Vec::new();
        for v in 0..n {
            nbrs.clear();
            nbrs.extend(g.neighbors(v)); // ascending == identifier order
            if nbrs.is_empty() {
                continue;
            }
            let k = nbrs.partition_point(|&u| u < v);
            match semantics {
                Semantics::Star => {
                    // Chain through the sorted neighborhood with v in place.
                    let mut prev: Option<usize> = None;
                    for i in 0..=nbrs.len() {
                        // walk u_1..u_k, v, u_{k+1}..u_d
                        let cur = if i < k {
                            nbrs[i]
                        } else if i == k {
                            v
                        } else {
                            nbrs[i - 1]
                        };
                        if let Some(p) = prev {
                            next.add_edge(p, cur);
                        }
                        prev = Some(cur);
                    }
                }
                Semantics::Pairwise => {
                    // Keep v's own edges except the farthest per side; bridge
                    // each dropped one to the second-farthest on its side.
                    if k >= 2 {
                        next.add_edge(nbrs[0], nbrs[1]);
                    }
                    if nbrs.len() - k >= 2 {
                        next.add_edge(nbrs[nbrs.len() - 1], nbrs[nbrs.len() - 2]);
                    }
                    let keep_from = usize::from(k >= 2);
                    let keep_to = nbrs.len() - usize::from(nbrs.len() - k >= 2);
                    for &u in &nbrs[keep_from..keep_to] {
                        next.add_edge(v, u);
                    }
                }
            }
            match variant {
                Variant::Pure => {}
                Variant::Memory => {
                    for &u in &nbrs {
                        next.add_edge(v, u);
                    }
                }
                Variant::Lsn(partition) => {
                    retain_interval_representatives(&mut next, v, &nbrs, k, partition);
                }
            }
        }
        next
    }

    /// LSN retention: for each side, walk the sorted neighbor list and keep the
    /// neighbor *closest to `v`* within each exponential interval.
    fn retain_interval_representatives(
        next: &mut Graph,
        v: usize,
        nbrs: &[usize],
        k: usize,
        partition: IntervalPartition,
    ) {
        let vid = NodeId(v as u64);
        // Left side: nbrs[..k] ascending; the closest-to-v is the *last* in each
        // interval, so walk right-to-left and keep the first of each interval.
        let mut last_interval: Option<u32> = None;
        for &u in nbrs[..k].iter().rev() {
            let (side, idx) = partition
                .index(vid, NodeId(u as u64))
                .expect("neighbor equals self");
            debug_assert_eq!(side, Side::Left);
            if last_interval != Some(idx) {
                next.add_edge(v, u);
                last_interval = Some(idx);
            }
        }
        // Right side: closest-to-v is the first in each interval.
        let mut last_interval: Option<u32> = None;
        for &u in &nbrs[k..] {
            let (side, idx) = partition
                .index(vid, NodeId(u as u64))
                .expect("neighbor equals self");
            debug_assert_eq!(side, Side::Right);
            if last_interval != Some(idx) {
                next.add_edge(v, u);
                last_interval = Some(idx);
            }
        }
    }

    /// `RoundStats::{added, removed}` as `stats_for` counted them before the
    /// merge walk: one `has_edge` probe per edge of either graph.
    fn reference_added_removed(prev: &Graph, next: &Graph) -> (usize, usize) {
        let added = next.edges().filter(|&(u, v)| !prev.has_edge(u, v)).count();
        let removed = prev.edges().filter(|&(u, v)| !next.has_edge(u, v)).count();
        (added, removed)
    }

    /// G(n,p), stars, power-law samples and graphs with isolated nodes, n in
    /// 1..=80.
    fn input_graph() -> impl Strategy<Value = Graph> {
        (0u8..4, 1usize..=80, any::<u64>(), 0.02f64..0.4).prop_map(|(shape, n, seed, p)| {
            let mut rng = Rng::new(seed);
            match shape {
                0 => generators::gnp(n, p, &mut rng),
                1 => {
                    // a star centred on a drawn rank, so both sides are long
                    let centre = rng.below(n as u64) as usize;
                    Graph::from_edges(n, (0..n).filter(|&u| u != centre).map(|u| (centre, u)))
                }
                2 => generators::powerlaw_configuration(n, 2.0, 1, None, &mut rng),
                _ => {
                    // G(n,p) with a drawn third of the nodes cut off
                    let mut g = generators::gnp(n, p, &mut rng);
                    for u in 0..n {
                        if rng.below(3) == 0 {
                            g.isolate(u);
                        }
                    }
                    g
                }
            }
        })
    }

    fn variant() -> impl Strategy<Value = Variant> {
        (0u64..6).prop_map(|i| match i {
            0 => Variant::Pure,
            1 => Variant::Memory,
            2 => Variant::lsn(),
            base => Variant::Lsn(IntervalPartition::new(base)),
        })
    }

    fn semantics() -> impl Strategy<Value = Semantics> {
        any::<bool>().prop_map(|star| {
            if star {
                Semantics::Star
            } else {
                Semantics::Pairwise
            }
        })
    }

    proptest! {
        #[test]
        fn step_round_matches_the_reference_round(
            g0 in input_graph(),
            variant in variant(),
            semantics in semantics(),
        ) {
            // eight rounds, so the later, denser states are covered too
            let mut g = g0;
            for round in 1..=8 {
                let next = step_round(&g, variant, semantics);
                let expect = reference_round(&g, variant, semantics);
                prop_assert_eq!(next.node_count(), expect.node_count());
                prop_assert_eq!(
                    next.edges().collect::<Vec<_>>(),
                    expect.edges().collect::<Vec<_>>(),
                    "round {} under {:?}/{}", round, variant, semantics.name()
                );
                g = next;
            }
        }

        #[test]
        fn round_stats_match_the_probe_count(
            g0 in input_graph(),
            variant in variant(),
            semantics in semantics(),
        ) {
            let r = run(&g0, variant, semantics, 8);
            prop_assert_eq!((r.rounds[0].added, r.rounds[0].removed), (0, 0));
            let mut g = g0;
            for stats in &r.rounds[1..] {
                let next = step_round(&g, variant, semantics);
                prop_assert_eq!(
                    (stats.added, stats.removed),
                    reference_added_removed(&g, &next),
                    "round {}", stats.round
                );
                prop_assert_eq!(stats.edges, next.edge_count());
                g = next;
            }
        }
    }

    #[test]
    fn chain_is_a_fixpoint_for_every_variant() {
        let chain = generators::line(8);
        for variant in all_variants() {
            for semantics in [Semantics::Star, Semantics::Pairwise] {
                let next = step_round(&chain, variant, semantics);
                assert_eq!(
                    next.edges().collect::<Vec<_>>(),
                    chain.edges().collect::<Vec<_>>(),
                    "{}/{}",
                    variant.name(),
                    semantics.name()
                );
            }
        }
    }

    #[test]
    fn star_graph_is_pure_linearizations_slow_case() {
        // A star centered at rank 0: the center's chain proposal sorts the
        // leaves immediately, but every leaf keeps re-proposing its edge to
        // the center, which then walks back one rank per round — linear
        // convergence, exactly the behaviour that motivates the memory/LSN
        // variants.
        let star = generators::star(7);
        let pure = run(&star, Variant::Pure, Semantics::Star, 100);
        let exact = pure.exact_at.expect("must reach the chain");
        assert!((4..=7).contains(&exact), "took {exact} rounds");
        assert!(is_exact_chain(&pure.final_graph));
        // with memory the line is present after a single round
        let mem = run(&star, Variant::Memory, Semantics::Star, 100);
        assert_eq!(mem.line_at, Some(1));
    }

    #[test]
    fn every_variant_linearizes_small_random_graphs() {
        let mut rng = Rng::new(7);
        for trial in 0..10 {
            let mut g = generators::gnp(24, 0.15, &mut rng);
            generators::ensure_connected(&mut g, &mut rng);
            for variant in all_variants() {
                let r = run(&g, variant, Semantics::Star, 1000);
                assert!(
                    r.line_at.is_some(),
                    "trial {trial} variant {} failed to form the line",
                    variant.name()
                );
                assert!(chain_edges_present(&r.final_graph));
                if matches!(variant, Variant::Pure) {
                    assert!(is_exact_chain(&r.final_graph));
                }
            }
        }
    }

    #[test]
    fn pairwise_semantics_converges_under_pure() {
        // Pairwise actions only make progress when the delegated edge is
        // actually dropped (Onus et al.'s original deleting algorithm), so
        // the ablation pairs Pairwise with the Pure variant.
        let mut rng = Rng::new(8);
        for trial in 0..5 {
            let mut g = generators::gnp(16, 0.2, &mut rng);
            generators::ensure_connected(&mut g, &mut rng);
            let r = run(&g, Variant::Pure, Semantics::Pairwise, 5000);
            assert!(r.line_at.is_some(), "trial {trial}");
            assert!(is_exact_chain(&r.final_graph), "trial {trial}");
        }
    }

    #[test]
    fn connectivity_preserved_every_round() {
        let mut rng = Rng::new(9);
        let mut g = generators::gnp(30, 0.12, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        for variant in all_variants() {
            for semantics in [Semantics::Star, Semantics::Pairwise] {
                let mut cur = g.clone();
                for round in 0..50 {
                    cur = step_round(&cur, variant, semantics);
                    assert!(
                        algo::is_connected(&cur),
                        "disconnected after round {round} under {}/{}",
                        variant.name(),
                        semantics.name()
                    );
                }
            }
        }
    }

    #[test]
    fn pure_ends_at_minimal_potential() {
        // The potential can *transiently* rise under synchronous rounds (a
        // stale endpoint re-proposes a delegated edge), e.g. on the star
        // 1–0–2; but the terminal state is the chain with potential n-1.
        let mut rng = Rng::new(10);
        let mut g = generators::gnp(20, 0.2, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        let r = run(&g, Variant::Pure, Semantics::Star, 5000);
        assert!(r.exact_at.is_some());
        assert_eq!(r.rounds.last().unwrap().potential, 19);
    }

    #[test]
    fn potential_can_transiently_rise_under_synchronous_rounds() {
        // regression pin for the counterexample found by proptest: the star
        // 1–0–2 — node 0 delegates {0,2} to {1,2}, but node 2 re-proposes
        // {0,2} in the same round, so Φ goes 3 → 4 before dropping to 2.
        let g = Graph::from_edges(3, [(0, 1), (0, 2)]);
        let r = run(&g, Variant::Pure, Semantics::Star, 10);
        assert_eq!(r.rounds[0].potential, 3);
        assert_eq!(r.rounds[1].potential, 4);
        assert!(r.exact_at.is_some());
        assert_eq!(r.rounds.last().unwrap().potential, 2);
    }

    #[test]
    fn memory_never_removes_edges() {
        let mut rng = Rng::new(11);
        let mut g = generators::gnp(20, 0.2, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        let r = run(&g, Variant::Memory, Semantics::Star, 500);
        for s in &r.rounds[1..] {
            assert_eq!(
                s.removed, 0,
                "memory variant removed edges at round {}",
                s.round
            );
        }
        // the input edges are all still there
        for (u, v) in g.edges() {
            assert!(r.final_graph.has_edge(u, v));
        }
    }

    #[test]
    fn lsn_degree_stays_bounded() {
        let mut rng = Rng::new(12);
        let mut g = generators::gnp(128, 0.06, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        let mem = run(&g, Variant::Memory, Semantics::Star, 200);
        let lsn = run(&g, Variant::lsn(), Semantics::Star, 200);
        assert!(lsn.line_at.is_some() && mem.line_at.is_some());
        // LSN's whole point: peak state well below the memory variant's
        assert!(
            lsn.peak_degree() < mem.peak_degree(),
            "lsn {} !< memory {}",
            lsn.peak_degree(),
            mem.peak_degree()
        );
        // retained-per-interval bound: ≤ 2 per interval per side transiently
        // (own retention + other endpoints'), comfortably under n
        assert!(lsn.peak_degree() <= 2 * 2 * 64);
    }

    #[test]
    fn lsn_converges_faster_than_pure_on_a_path_with_chords() {
        // A long path in scrambled order is pure linearization's bad case;
        // memory/LSN exploit shortcuts.
        let mut rng = Rng::new(13);
        let n = 96;
        // random connected sparse graph
        let mut g = generators::gnm(n, n + 10, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        let pure = run(&g, Variant::Pure, Semantics::Star, 5000);
        let lsn = run(&g, Variant::lsn(), Semantics::Star, 5000);
        let (p, l) = (pure.line_at.unwrap(), lsn.line_at.unwrap());
        assert!(l <= p, "lsn {l} rounds !<= pure {p} rounds");
    }

    #[test]
    fn disconnected_input_stays_disconnected_but_linearizes_components() {
        // two components: ranks 0..4 and 5..9 (component ids interleave in
        // rank space? no — keep them contiguous for a clean check)
        let mut g = Graph::new(10);
        // component A: clique on {0,1,2,3,4}; component B: star at 9 over {5..8}
        for u in 0..5 {
            for v in (u + 1)..5 {
                g.add_edge(u, v);
            }
        }
        for u in 5..9 {
            g.add_edge(9, u);
        }
        let r = run(&g, Variant::Pure, Semantics::Star, 100);
        // full chain never forms (edge 4-5 can never appear)
        assert!(r.line_at.is_none());
        let fg = &r.final_graph;
        // but each component is internally sorted into its own chain
        for i in 1..5 {
            assert!(fg.has_edge(i - 1, i), "A-chain missing {i}");
        }
        for i in 6..10 {
            assert!(fg.has_edge(i - 1, i), "B-chain missing {i}");
        }
        assert!(!fg.has_edge(4, 5));
    }

    #[test]
    fn run_stats_entry_zero_is_initial_state() {
        let g = generators::ring(6);
        let r = run(&g, Variant::Memory, Semantics::Star, 10);
        assert_eq!(r.rounds[0].round, 0);
        assert_eq!(r.rounds[0].edges, 6);
        assert_eq!(r.rounds[0].added, 0);
    }

    #[test]
    fn already_linear_input_converges_at_round_zero() {
        let g = generators::line(5);
        let r = run(&g, Variant::Pure, Semantics::Star, 10);
        assert_eq!(r.line_at, Some(0));
        assert_eq!(r.exact_at, Some(0));
        assert_eq!(r.rounds.len(), 1);
    }

    #[test]
    fn max_rounds_budget_respected() {
        // pure linearization of a scrambled dense graph won't finish in 1 round
        let g = generators::complete(40);
        let r = run(&g, Variant::Pure, Semantics::Pairwise, 1);
        assert!(r.exact_at.is_none());
        assert_eq!(r.rounds.len(), 2); // initial + 1 round
    }
}
