//! Adversarial *state* injection and self-stabilization invariants.
//!
//! The paper's central claim is that linearization converges from **any**
//! initial state over any connected graph. The figure reproductions start
//! from two curated adversarial states (Figure 1's doubly-wound loopy ring,
//! Figure 2's separate rings); this module generalizes those constructors
//! into a scenario library usable from any experiment, plus the
//! global-observer invariant checker that verifies the claim while the
//! protocol runs:
//!
//! * **successor-map builders** — [`wound_ring_succ`] (one cycle winding
//!   the address space `w` times; `w = 2` over the figure-1 ids reproduces
//!   figure 1 exactly), [`split_rings_succ`] (`k` disjoint interleaved
//!   rings; `k = 2` over the figure-2 ids reproduces figure 2 exactly),
//!   [`random_succ`] (uniformly random assignment — not even a
//!   permutation);
//! * **state injectors** — [`apply_succ_corruption`] wires a successor map
//!   into live [`SsrNode`]s as virtual edges routed along physical shortest
//!   paths (mutually, or one-sided for mid-handshake truncation) and
//!   [`inject_stale_cache_routes`] plants fabricated route-cache entries
//!   whose hops need not be physically adjacent;
//! * **invariants** — [`invariant_probe`] checks, between audit rounds:
//!   connectedness of the union graph (physical ∪ virtual edges,
//!   [`union_components`]), the zero-flood invariant, and monotone
//!   non-increase of the [`linearization_potential`] (sum of virtual-edge
//!   address spans) — both measures live in `ssr_linearize::observe`,
//!   generic over the node type, since they read only side sets. Rises
//!   are *counted*, not asserted: DESIGN.md finding 1 shows transient
//!   rises under simultaneous proposals, and ring-closure discovery
//!   legitimately grows the edge set — the experiment reports the counts;
//! * **watchdog glue** — [`ssr_signature`] / [`ssr_all_locally_consistent`]
//!   plug [`SsrNode`]s into the generic freeze watchdog
//!   (`ssr_sim::watchdog`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ssr_graph::{algo, Labeling};
use ssr_linearize::observe::{
    all_locally_consistent, linearization_potential, union_components, Linearized,
};
use ssr_sim::sim::ProbeView;
use ssr_sim::{Simulator, TraceEvent};
use ssr_types::{NodeId, Rng};

use crate::node::SsrNode;
use crate::route::SourceRoute;

// ---------------------------------------------------------------------------
// successor-map builders
// ---------------------------------------------------------------------------

/// One cycle over all `ids` that winds the address space `windings` times:
/// sort the ids, split them into `windings` interleaved residue classes
/// (`j % windings`), and chain the classes into a single cycle. Each class
/// is ascending, so the cycle wraps the address order exactly once per
/// class boundary — `classify_succ_map` reports `Loopy(windings)` (or the
/// consistent ring for `windings == 1`).
///
/// # Panics
/// Panics unless `1 <= windings <= ids.len()`.
pub fn wound_ring_succ(ids: &[NodeId], windings: usize) -> BTreeMap<NodeId, NodeId> {
    assert!(
        windings >= 1 && windings <= ids.len(),
        "need 1 <= windings <= n"
    );
    let mut sorted: Vec<NodeId> = ids.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let order: Vec<NodeId> = (0..windings)
        .flat_map(|r| sorted.iter().skip(r).step_by(windings).copied())
        .collect();
    cycle_of(&order)
}

/// `parts` disjoint rings over interleaved residue classes of the sorted
/// ids: class `r` (every `parts`-th id starting at `r`) closes on itself.
/// `classify_succ_map` reports `Partitioned(parts)` (or the consistent
/// ring for `parts == 1`).
///
/// # Panics
/// Panics unless `1 <= parts <= ids.len()`.
pub fn split_rings_succ(ids: &[NodeId], parts: usize) -> BTreeMap<NodeId, NodeId> {
    assert!(parts >= 1 && parts <= ids.len(), "need 1 <= parts <= n");
    let mut sorted: Vec<NodeId> = ids.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut succ = BTreeMap::new();
    for r in 0..parts {
        let class: Vec<NodeId> = sorted.iter().skip(r).step_by(parts).copied().collect();
        succ.extend(cycle_of(&class));
    }
    succ
}

/// A uniformly random successor assignment: every id points at a uniformly
/// random *other* id. Deliberately not even a permutation — the hardest
/// corrupted start the self-stabilization claim must recover from.
pub fn random_succ(ids: &[NodeId], rng: &mut Rng) -> BTreeMap<NodeId, NodeId> {
    ids.iter()
        .map(|&a| {
            let mut b = a;
            while b == a && ids.len() > 1 {
                b = ids[rng.index(ids.len())];
            }
            (a, b)
        })
        .collect()
}

/// `count` random ordered pairs `(a, b)`, `a != b`, as a successor map —
/// combined with `mutual = false` in [`apply_succ_corruption`] this models
/// mid-handshake truncation: `a` believes the virtual edge exists, `b`
/// never heard of it.
pub fn half_handshake_pairs(
    ids: &[NodeId],
    count: usize,
    rng: &mut Rng,
) -> BTreeMap<NodeId, NodeId> {
    let mut out = BTreeMap::new();
    if ids.len() < 2 {
        return out;
    }
    for _ in 0..count {
        let a = ids[rng.index(ids.len())];
        let mut b = a;
        while b == a {
            b = ids[rng.index(ids.len())];
        }
        out.insert(a, b);
    }
    out
}

/// The cyclic successor map visiting `order` in sequence.
fn cycle_of(order: &[NodeId]) -> BTreeMap<NodeId, NodeId> {
    let n = order.len();
    (0..n).map(|i| (order[i], order[(i + 1) % n])).collect()
}

// ---------------------------------------------------------------------------
// state injectors
// ---------------------------------------------------------------------------

/// What a corruption pass actually wired in.
#[derive(Clone, Copy, Debug, Default)]
pub struct CorruptionReport {
    /// Virtual edges injected (each counted once, mutual or not).
    pub injected: usize,
    /// Map entries skipped: endpoint unknown to the labeling or physically
    /// unreachable.
    pub skipped: usize,
}

/// Wires `succ` into a live SSR simulation as virtual-edge state: for each
/// `a → b`, `b` enters `a`'s side set with a source route along the current
/// physical shortest path (so the corrupted *virtual* structure sits on
/// valid *physical* routes, exactly like the figure constructions). With
/// `mutual` the reverse edge is injected too; without it the state is
/// one-sided — a truncated handshake.
pub fn apply_succ_corruption(
    sim: &mut Simulator<SsrNode>,
    labels: &Labeling,
    succ: &BTreeMap<NodeId, NodeId>,
    mutual: bool,
) -> CorruptionReport {
    let mut report = CorruptionReport::default();
    let mut routes: Vec<(usize, SourceRoute)> = Vec::new();
    {
        let topo = sim.topology();
        for (&a, &b) in succ {
            if a == b {
                report.skipped += 1;
                continue;
            }
            let (Some(ia), Some(ib)) = (labels.index(a), labels.index(b)) else {
                report.skipped += 1;
                continue;
            };
            let Some(path) = algo::shortest_path(topo, ia, ib) else {
                report.skipped += 1;
                continue;
            };
            let hops: Vec<NodeId> = path.iter().map(|&u| labels.id(u)).collect();
            let fwd = SourceRoute::from_hops(hops);
            if mutual {
                routes.push((ib, fwd.reversed()));
            }
            routes.push((ia, fwd));
            report.injected += 1;
        }
    }
    for (idx, route) in routes {
        sim.protocol_mut(idx).inject_neighbor(route);
    }
    report
}

/// Plants `per_node` fabricated, unpinned route-cache entries at every
/// node: each claims a 3-hop route `a → via → dst` whose middle hop is a
/// random id that need not be physically adjacent to either end. Greedy
/// forwarding that trusts such a route must fail over gracefully
/// (`fwd.broken`), never panic. Returns the number of routes planted.
pub fn inject_stale_cache_routes(
    sim: &mut Simulator<SsrNode>,
    labels: &Labeling,
    per_node: usize,
    rng: &mut Rng,
) -> usize {
    let ids = labels.ids().to_vec();
    if ids.len() < 3 {
        return 0;
    }
    let mut planted = 0;
    for ia in 0..ids.len() {
        let a = ids[ia];
        for _ in 0..per_node {
            let mut dst = a;
            while dst == a {
                dst = ids[rng.index(ids.len())];
            }
            let mut via = a;
            while via == a || via == dst {
                via = ids[rng.index(ids.len())];
            }
            sim.protocol_mut(ia)
                .inject_cache_route(SourceRoute::from_hops(vec![a, via, dst]));
            planted += 1;
        }
    }
    planted
}

// ---------------------------------------------------------------------------
// invariants
// ---------------------------------------------------------------------------

/// Counters accumulated by the [`invariant_probe`], shared with the
/// experiment loop.
#[derive(Clone, Debug)]
pub struct InvariantState {
    /// Violations before this tick are ignored (set it past the fault
    /// window — mid-partition the union graph is *expected* to be split).
    pub armed_after: u64,
    /// Probe firings.
    pub samples: u64,
    /// Armed samples where the union graph had more than one component.
    pub union_disconnected: u64,
    /// Armed sample-to-sample rises of the linearization potential.
    pub potential_rises: u64,
    /// Current `msg.flood` counter (must stay 0 for linearized SSR).
    pub flood_msgs: u64,
    /// Potential at the previous armed sample.
    pub last_potential: Option<u128>,
    /// Potential at the most recent sample.
    pub current_potential: u128,
}

/// Shared handle to an [`InvariantState`].
pub type SharedInvariants = Rc<RefCell<InvariantState>>;

/// A fresh invariant state armed after `armed_after` ticks.
pub fn shared_invariants(armed_after: u64) -> SharedInvariants {
    Rc::new(RefCell::new(InvariantState {
        armed_after,
        samples: 0,
        union_disconnected: 0,
        potential_rises: 0,
        flood_msgs: 0,
        last_potential: None,
        current_potential: 0,
    }))
}

/// Builds the invariant-checker probe. Register with
/// `Simulator::add_probe` on the audit-round grid (DESIGN.md finding 1:
/// the potential is *not* monotone per event under simultaneous proposals;
/// between audit rounds is the granularity the claim holds at). Violations
/// increment `probe.invariant.*` counters and emit one structured `diag`
/// trace event per kind; the shared state carries the totals.
pub fn invariant_probe(
    labels: Labeling,
    state: SharedInvariants,
) -> impl FnMut(&mut ProbeView<'_, SsrNode>) {
    let mut diag_disconnect = false;
    let mut diag_rise = false;
    // (state_gen, potential, union components) at the last full audit.
    // When nothing in the simulation changed between firings
    // (`ProbeView::state_gen` unchanged) the audit result is exact and the
    // O(n + m) rescan is skipped; every sample is still *recorded*, so the
    // counters and manifests are byte-identical with or without the cache.
    let mut audited: Option<(u64, u128, usize)> = None;
    move |view: &mut ProbeView<'_, SsrNode>| {
        let now = view.now.ticks();
        let mut st = state.borrow_mut();
        st.samples += 1;
        st.flood_msgs = view.metrics.counter("msg.flood");
        let (phi, comps) = match audited {
            Some((gen, phi, comps)) if gen == view.state_gen => (phi, comps),
            _ => {
                let phi = linearization_potential(view.protocols, view.alive);
                let comps = union_components(view.topology, view.alive, &labels, view.protocols);
                audited = Some((view.state_gen, phi, comps));
                (phi, comps)
            }
        };
        st.current_potential = phi;
        view.metrics.observe("chaos.potential", phi as f64);
        let armed = now >= st.armed_after;
        if comps > 1 && armed {
            st.union_disconnected += 1;
            view.metrics.incr("probe.invariant.union_disconnected");
            if !diag_disconnect && view.trace.enabled() {
                diag_disconnect = true;
                view.trace.record(TraceEvent::Diag {
                    at: view.now,
                    source: "invariant",
                    text: format!("union graph split into {comps} components"),
                });
            }
        }
        if armed {
            if let Some(prev) = st.last_potential {
                if phi > prev {
                    st.potential_rises += 1;
                    view.metrics.incr("probe.invariant.potential_rise");
                    if !diag_rise && view.trace.enabled() {
                        diag_rise = true;
                        view.trace.record(TraceEvent::Diag {
                            at: view.now,
                            source: "invariant",
                            text: format!("potential rose {prev} -> {phi}"),
                        });
                    }
                }
            }
            st.last_potential = Some(phi);
        } else {
            st.last_potential = None;
        }
    }
}

// ---------------------------------------------------------------------------
// watchdog glue
// ---------------------------------------------------------------------------

/// Hash of all convergence-relevant SSR state (side sets, wraps, and the
/// local-consistency bit, which a handshake in flight clears — the pending
/// handshakes themselves are not hashed), for the generic freeze watchdog:
/// if this stops changing without global consistency, the run is frozen.
pub fn ssr_signature(nodes: &[SsrNode]) -> u64 {
    const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = 0u64;
    let mut feed = |x: u64| h = h.rotate_left(9) ^ x.wrapping_mul(MIX);
    for node in nodes {
        feed(node.id().0);
        for b in node.left_set() {
            feed(b.0 ^ 1);
        }
        for b in node.right_set() {
            feed(b.0 ^ 2);
        }
        feed(node.wrap_pred().map_or(3, |b| b.0.rotate_left(17)));
        feed(node.wrap_succ().map_or(5, |b| b.0.rotate_left(29)));
        feed(u64::from(node.locally_consistent()));
    }
    h
}

/// `true` when every node is locally consistent — the predicate that
/// separates a frozen *crossing* state from a plain stuck state.
pub fn ssr_all_locally_consistent(nodes: &[SsrNode]) -> bool {
    all_locally_consistent(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::{make_ssr_nodes, BootstrapConfig};
    use crate::consistency::{check_ring, classify_succ_map, RingShape};
    use ssr_graph::{generators, Graph};
    use ssr_sim::LinkConfig;

    fn ids(raw: &[u64]) -> Vec<NodeId> {
        raw.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn wound_ring_reproduces_figure_1_exactly() {
        let fig1 = ids(&[1, 4, 9, 13, 18, 21, 25, 29]);
        let succ = wound_ring_succ(&fig1, 2);
        // 1→9→18→25→4→13→21→29→1, the paper's Figure 1
        let expect: BTreeMap<NodeId, NodeId> = [
            (1, 9),
            (9, 18),
            (18, 25),
            (25, 4),
            (4, 13),
            (13, 21),
            (21, 29),
            (29, 1),
        ]
        .into_iter()
        .map(|(a, b)| (NodeId(a), NodeId(b)))
        .collect();
        assert_eq!(succ, expect);
        assert_eq!(classify_succ_map(&succ), RingShape::Loopy(2));
    }

    #[test]
    fn split_rings_reproduce_figure_2_exactly() {
        let fig2 = ids(&[1, 4, 9, 13, 18, 21]);
        let succ = split_rings_succ(&fig2, 2);
        // {1,9,18} and {4,13,21} as two disjoint rings
        let expect: BTreeMap<NodeId, NodeId> =
            [(1, 9), (9, 18), (18, 1), (4, 13), (13, 21), (21, 4)]
                .into_iter()
                .map(|(a, b)| (NodeId(a), NodeId(b)))
                .collect();
        assert_eq!(succ, expect);
        assert_eq!(classify_succ_map(&succ), RingShape::Partitioned(2));
    }

    #[test]
    fn wound_ring_winding_number_scales() {
        let many = ids(&(1..=30).map(|i| i * 7).collect::<Vec<_>>());
        for w in 1..=5usize {
            let succ = wound_ring_succ(&many, w);
            let expect = if w == 1 {
                RingShape::ConsistentRing
            } else {
                RingShape::Loopy(w)
            };
            assert_eq!(classify_succ_map(&succ), expect, "windings {w}");
        }
    }

    #[test]
    fn split_rings_part_count_scales() {
        let many = ids(&(1..=24).map(|i| i * 5 + 1).collect::<Vec<_>>());
        for k in 2..=4usize {
            let succ = split_rings_succ(&many, k);
            assert_eq!(classify_succ_map(&succ), RingShape::Partitioned(k));
        }
    }

    #[test]
    fn random_succ_covers_all_ids_without_self_loops() {
        let mut rng = Rng::new(11);
        let all = ids(&(1..=40).map(|i| i * 3).collect::<Vec<_>>());
        let succ = random_succ(&all, &mut rng);
        assert_eq!(succ.len(), all.len());
        for (&a, &b) in &succ {
            assert_ne!(a, b);
            assert!(all.contains(&b));
        }
    }

    #[test]
    fn corrupted_start_converges_with_zero_floods() {
        // end-to-end: wound-ring corruption over a physical ring, linearized
        // SSR stabilizes out of it without flooding — the paper's claim.
        let n = 12;
        let topo = generators::ring(n);
        let mut rng = Rng::new(5);
        let labels = Labeling::random(n, &mut rng);
        let cfg = BootstrapConfig::default();
        let nodes = make_ssr_nodes(&labels, cfg.ssr);
        let mut sim = Simulator::new(topo, nodes, LinkConfig::ideal(), 77);
        let succ = wound_ring_succ(labels.ids(), 3);
        let report = apply_succ_corruption(&mut sim, &labels, &succ, true);
        assert_eq!(report.injected, n);
        assert_eq!(report.skipped, 0);
        let inv = shared_invariants(0);
        sim.add_probe(48, invariant_probe(labels.clone(), Rc::clone(&inv)));
        let phi0 = linearization_potential(sim.protocols(), &vec![true; n]);
        assert!(phi0 > 0);
        let outcome = sim.run_until_stable(8, 100_000, |nodes, _| check_ring(nodes).consistent());
        assert!(outcome.is_quiescent(), "did not converge: {outcome:?}");
        assert_eq!(sim.metrics().counter("msg.flood"), 0);
        let inv = inv.borrow();
        assert_eq!(inv.union_disconnected, 0, "union graph must stay connected");
        assert!(inv.samples > 0);
        assert_eq!(inv.flood_msgs, 0);
        // the corrupted start's long edges are gone
        let phi1 = linearization_potential(sim.protocols(), &vec![true; n]);
        assert!(phi1 < phi0, "potential did not shrink: {phi0} -> {phi1}");
    }

    #[test]
    fn one_sided_corruption_models_truncated_handshake() {
        let n = 8;
        let topo = generators::complete(n);
        let mut rng = Rng::new(9);
        let labels = Labeling::random(n, &mut rng);
        let cfg = BootstrapConfig::default();
        let nodes = make_ssr_nodes(&labels, cfg.ssr);
        let mut sim = Simulator::new(topo, nodes, LinkConfig::ideal(), 3);
        let pairs = half_handshake_pairs(labels.ids(), 5, &mut rng);
        assert!(!pairs.is_empty());
        apply_succ_corruption(&mut sim, &labels, &pairs, false);
        // one side knows the edge, the other does not
        let mut asymmetric = 0;
        for (&a, &b) in &pairs {
            let ia = labels.index(a).unwrap();
            let ib = labels.index(b).unwrap();
            let knows =
                |node: &SsrNode, peer| node.left_set().chain(node.right_set()).any(|v| v == peer);
            let a_knows = knows(sim.protocol(ia), b);
            let b_knows = knows(sim.protocol(ib), a);
            assert!(a_knows);
            if !b_knows {
                asymmetric += 1;
            }
        }
        assert!(asymmetric > 0, "no truncation took effect");
        // audits must still repair this to the consistent ring
        let outcome = sim.run_until_stable(8, 100_000, |nodes, _| check_ring(nodes).consistent());
        assert!(outcome.is_quiescent(), "{outcome:?}");
        assert_eq!(sim.metrics().counter("msg.flood"), 0);
    }

    #[test]
    fn stale_cache_routes_never_panic_forwarding() {
        let n = 10;
        let topo = generators::ring(n);
        let mut rng = Rng::new(13);
        let labels = Labeling::random(n, &mut rng);
        let cfg = BootstrapConfig::default();
        let nodes = make_ssr_nodes(&labels, cfg.ssr);
        let mut sim = Simulator::new(topo, nodes, LinkConfig::ideal(), 21);
        let planted = inject_stale_cache_routes(&mut sim, &labels, 2, &mut rng);
        assert_eq!(planted, 2 * n);
        let outcome = sim.run_until_stable(8, 100_000, |nodes, _| check_ring(nodes).consistent());
        assert!(outcome.is_quiescent(), "{outcome:?}");
    }

    #[test]
    fn union_components_sees_virtual_bridges() {
        // two physical components, bridged only by a virtual edge
        let mut topo = Graph::new(4);
        topo.add_edge(0, 1);
        topo.add_edge(2, 3);
        let labels = Labeling::from_ids(vec![NodeId(10), NodeId(20), NodeId(30), NodeId(40)]);
        let mut nodes: Vec<SsrNode> = labels.ids().iter().map(|&i| SsrNode::new(i)).collect();
        let alive = vec![true; 4];
        assert_eq!(union_components(&topo, &alive, &labels, &nodes), 2);
        nodes[1].inject_neighbor(SourceRoute::direct(NodeId(20), NodeId(30)));
        assert_eq!(union_components(&topo, &alive, &labels, &nodes), 1);
    }

    #[test]
    fn signature_tracks_state_changes() {
        let mut nodes = vec![SsrNode::new(NodeId(10)), SsrNode::new(NodeId(20))];
        let s0 = ssr_signature(&nodes);
        nodes[0].inject_neighbor(SourceRoute::direct(NodeId(10), NodeId(20)));
        let s1 = ssr_signature(&nodes);
        assert_ne!(s0, s1);
        assert_eq!(s1, ssr_signature(&nodes), "signature must be pure");
        assert!(ssr_all_locally_consistent(&nodes));
    }

    #[test]
    #[should_panic(expected = "windings")]
    fn wound_ring_rejects_zero_windings() {
        let _ = wound_ring_succ(&ids(&[1, 2, 3]), 0);
    }
}
