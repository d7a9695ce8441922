//! Experiment drivers for the VRR bootstrap, including the *watched*
//! variant that fail-fasts on the crossing-state freeze (DESIGN.md
//! finding 7) instead of burning the tick budget. "Converged" and "locally
//! consistent" are `ssr_linearize::observe`'s predicates, the ones SSR is
//! judged by.

#![warn(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

use std::rc::Rc;

use ssr_graph::{Graph, Labeling};
use ssr_linearize::observe::{all_locally_consistent, check_ring, Linearized};
use ssr_sim::{shared_watchdog, watchdog_probe, LinkConfig, Simulator, Verdict};
use ssr_types::NodeId;

use crate::node::{VrrConfig, VrrMode, VrrNode};

/// What a VRR bootstrap run cost and achieved.
#[derive(Clone, Debug)]
pub struct VrrBootstrapReport {
    /// `true` iff the virtual ring became globally consistent.
    pub converged: bool,
    /// Ticks until convergence (or budget).
    pub ticks: u64,
    /// Per-kind message counts.
    pub messages: Vec<(String, u64)>,
    /// Total link-layer transmissions.
    pub total_messages: u64,
    /// Largest path table across nodes.
    pub max_state: usize,
    /// Mean path-table entries per node.
    pub mean_state: f64,
}

/// Global ring consistency over VRR node states: the one ring predicate,
/// [`check_ring`], read as a yes/no.
pub fn vrr_ring_consistent(nodes: &[VrrNode]) -> bool {
    check_ring(nodes).consistent()
}

/// Builds a VRR node per label.
pub fn make_vrr_nodes(labels: &Labeling, config: VrrConfig) -> Vec<VrrNode> {
    labels
        .ids()
        .iter()
        .map(|&id| VrrNode::with_config(id, config))
        .collect()
}

/// Runs a VRR bootstrap to global ring consistency.
pub fn run_vrr_bootstrap(
    topo: &Graph,
    labels: &Labeling,
    mode: VrrMode,
    link: LinkConfig,
    seed: u64,
    max_ticks: u64,
) -> (VrrBootstrapReport, Simulator<VrrNode>) {
    assert_eq!(topo.node_count(), labels.len());
    let nodes = make_vrr_nodes(labels, VrrConfig { mode });
    let mut sim = Simulator::new(topo.clone(), nodes, link, seed);
    let outcome = sim.run_until_stable(8, max_ticks, |nodes, _| vrr_ring_consistent(nodes));
    let converged = vrr_ring_consistent(sim.protocols());
    let messages: Vec<(String, u64)> = sim
        .metrics()
        .counters()
        .filter(|(k, _)| k.starts_with("msg."))
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let states: Vec<usize> = sim.protocols().iter().map(|p| p.table().len()).collect();
    let max_state = states.iter().copied().max().unwrap_or(0);
    let mean_state = if states.is_empty() {
        0.0
    } else {
        states.iter().sum::<usize>() as f64 / states.len() as f64
    };
    let report = VrrBootstrapReport {
        converged,
        ticks: outcome.time().ticks(),
        messages,
        total_messages: sim.metrics().counter("tx.total"),
        max_state,
        mean_state,
    };
    (report, sim)
}

/// Hash of all ring-relevant VRR state (closest side neighbors, wraps,
/// local consistency) for the freeze watchdog. Deliberately excludes
/// beacon sequence numbers and other periodically churning fields: in the
/// crossing state those keep ticking while the ring structure — hashed
/// here — never changes again.
pub fn vrr_signature(nodes: &[VrrNode]) -> u64 {
    const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = 0u64;
    let mut feed = |x: u64| h = h.rotate_left(9) ^ x.wrapping_mul(MIX);
    for node in nodes {
        feed(node.id().0);
        feed(node.closest_left().map_or(1, |b| b.0.rotate_left(11)));
        feed(node.closest_right().map_or(2, |b| b.0.rotate_left(13)));
        feed(node.wrap_pred().map_or(3, |b| b.0.rotate_left(17)));
        feed(node.wrap_succ().map_or(5, |b| b.0.rotate_left(29)));
        let (l, r) = node.side_sizes();
        feed((l as u64) << 32 | r as u64);
        feed(u64::from(node.locally_consistent()));
    }
    h
}

/// Outcome of a watched VRR bootstrap.
#[derive(Clone, Debug)]
pub struct VrrWatchReport {
    /// `true` iff the virtual ring became globally consistent.
    pub converged: bool,
    /// Watchdog classification label: `converged`, `frozen_crossing`,
    /// `frozen_stuck`, or `active` (budget ran out while still moving).
    pub verdict: &'static str,
    /// Ticks until convergence, freeze classification, or budget.
    pub ticks: u64,
    /// Total link-layer transmissions.
    pub total_messages: u64,
    /// Tick at which the freeze was classified, if it was.
    pub frozen_at: Option<u64>,
}

/// Like [`run_vrr_bootstrap`], but with the freeze watchdog wired in: the
/// run stops as soon as the ring is globally consistent **or** the
/// ring-relevant state has not changed for `freeze_window` ticks without
/// consistency — the crossing state (two non-adjacent mutual virtual
/// edges, every node locally consistent) is then classified
/// `frozen_crossing` instead of silently burning `max_ticks`.
pub fn run_vrr_bootstrap_watched(
    topo: &Graph,
    labels: &Labeling,
    mode: VrrMode,
    link: LinkConfig,
    seed: u64,
    max_ticks: u64,
    freeze_window: u64,
) -> (VrrWatchReport, Simulator<VrrNode>) {
    assert_eq!(topo.node_count(), labels.len());
    let nodes = make_vrr_nodes(labels, VrrConfig { mode });
    let sim = Simulator::new(topo.clone(), nodes, link, seed);
    watch(sim, max_ticks, freeze_window)
}

/// Runs `sim` to the consistent ring or a classified freeze, as
/// [`run_vrr_bootstrap_watched`] does from a cold start.
fn watch(
    mut sim: Simulator<VrrNode>,
    max_ticks: u64,
    freeze_window: u64,
) -> (VrrWatchReport, Simulator<VrrNode>) {
    let state = shared_watchdog();
    sim.add_probe(
        8,
        watchdog_probe(
            freeze_window,
            Rc::clone(&state),
            vrr_signature,
            vrr_ring_consistent,
            all_locally_consistent,
        ),
    );
    let stop = Rc::clone(&state);
    let outcome = sim.run_until_stable(8, max_ticks, move |nodes, _| {
        vrr_ring_consistent(nodes) || stop.borrow().is_frozen()
    });
    let converged = vrr_ring_consistent(sim.protocols());
    let st = state.borrow();
    let verdict = if converged {
        Verdict::Converged.label()
    } else {
        st.verdict.label()
    };
    let report = VrrWatchReport {
        converged,
        verdict,
        ticks: outcome.time().ticks(),
        total_messages: sim.metrics().counter("tx.total"),
        frozen_at: st.frozen_at,
    };
    drop(st);
    (report, sim)
}

/// The ring successor map (for shape classification in experiments).
pub fn vrr_succ_map(nodes: &[VrrNode]) -> std::collections::BTreeMap<NodeId, NodeId> {
    nodes
        .iter()
        .filter_map(|p| p.ring_succ().map(|s| (p.id(), s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::BEACON_INTERVAL;
    use ssr_graph::generators;
    use ssr_types::{Rng, Side};

    fn topo_and_labels(n: usize, seed: u64) -> (Graph, Labeling) {
        let mut rng = Rng::new(seed);
        let (g, _) = generators::unit_disk_connected(n, 1.3, &mut rng);
        let labels = Labeling::random(n, &mut rng);
        (g, labels)
    }

    #[test]
    fn linearized_vrr_converges_on_a_line() {
        let topo = generators::line(5);
        let labels = Labeling::sequential(5, 10);
        let (report, _) = run_vrr_bootstrap(
            &topo,
            &labels,
            VrrMode::Linearized,
            LinkConfig::ideal(),
            1,
            50_000,
        );
        assert!(report.converged, "{report:?}");
        assert!(!report.messages.iter().any(|(k, _)| k == "msg.flood"));
    }

    #[test]
    fn linearized_vrr_converges_on_unit_disk() {
        // every run converges, and no message along a virtual edge ever
        // circles until its TTL runs out (DESIGN.md finding 7)
        for seed in 0..4 {
            let (topo, labels) = topo_and_labels(20, seed);
            let (report, sim) = run_vrr_bootstrap(
                &topo,
                &labels,
                VrrMode::Linearized,
                LinkConfig::ideal(),
                seed,
                100_000,
            );
            assert!(report.converged, "seed {seed}: {report:?}");
            assert_eq!(sim.metrics().counter("fwd.ttl_expired"), 0, "seed {seed}");
        }
    }

    #[test]
    fn baseline_vrr_beacons_and_converges_sometimes() {
        // The beacon/representative baseline is the *costly* mechanism the
        // paper replaces: once the ring is consistent its beacons go on,
        // one hello per link end every beacon period, where linearized VRR
        // sends none. Counted over a fixed window after convergence, so
        // how fast a run converges does not change the count. Every run
        // converges, on these seeds and in E10.
        let window = 10 * BEACON_INTERVAL;
        for seed in 0..3 {
            let (topo, labels) = topo_and_labels(14, 50 + seed);
            let hellos_at_rest = |mode| {
                let (report, mut sim) =
                    run_vrr_bootstrap(&topo, &labels, mode, LinkConfig::ideal(), seed, 60_000);
                assert!(report.converged, "seed {seed} {mode:?}: {report:?}");
                let before = sim.metrics().counter("msg.hello");
                sim.run_until(sim.now() + window);
                sim.metrics().counter("msg.hello") - before
            };
            let beacons = 2 * topo.edge_count() as u64 * (window / BEACON_INTERVAL);
            assert_eq!(hellos_at_rest(VrrMode::Baseline), beacons, "seed {seed}");
            assert_eq!(hellos_at_rest(VrrMode::Linearized), 0, "seed {seed}");
        }
    }

    #[test]
    fn crossing_state_freeze_is_classified_not_silently_timed_out() {
        // The crossing state of DESIGN.md finding 7, injected: the ring
        // 10 → 30 → 20 → 40 → 10 over the physical 4-cycle it names. The
        // line edges 10–30 and 20–40 are mutual and non-adjacent, the
        // ring-closure edges 30–20 and 40–10 close it: every node locally
        // consistent, no empty side with a physical neighbour on it or an
        // empty wrap slot behind it, the global ring crossed, periodic
        // timers still firing. The watched runner must classify it
        // `frozen_crossing` and stop shortly after the freeze window,
        // never burning the full tick budget.
        let ids = [10, 30, 20, 40].map(NodeId);
        let topo = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut nodes: Vec<VrrNode> = ids.iter().map(|&id| VrrNode::new(id)).collect();
        for (u, v) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            nodes[u].inject_edge(ids[v], v);
        }
        for (u, v, side) in [(1, 2, Side::Right), (2, 1, Side::Left)] {
            nodes[u].inject_wrap(side, ids[v], v);
        }
        for (u, v, side) in [(3, 0, Side::Right), (0, 3, Side::Left)] {
            nodes[u].inject_wrap(side, ids[v], v);
        }
        let sim = Simulator::new(topo, nodes, LinkConfig::ideal(), 9);
        let (report, sim) = watch(sim, 200_000, 2_000);
        assert!(
            report.converged || report.verdict == "frozen_crossing",
            "silent non-convergence: {report:?}"
        );
        assert!(!report.converged, "the crossing state resolved itself");
        assert_eq!(report.verdict, "frozen_crossing");
        assert!(report.frozen_at.is_some());
        assert!(
            report.ticks < 10_000,
            "fail-fast did not stop early: {report:?}"
        );
        assert_eq!(sim.metrics().counter("probe.watchdog_frozen"), 1);
        // every node *is* locally consistent — that is what makes the
        // crossing state invisible to purely local checks
        assert!(sim.protocols().iter().all(|p| p.locally_consistent()));
    }

    #[test]
    fn watched_runner_converges_like_unwatched_on_good_seed() {
        let (topo, labels) = topo_and_labels(20, 0);
        let (report, _) = run_vrr_bootstrap_watched(
            &topo,
            &labels,
            VrrMode::Linearized,
            LinkConfig::ideal(),
            0,
            100_000,
            2_000,
        );
        assert!(report.converged, "{report:?}");
        assert_eq!(report.verdict, "converged");
        assert!(report.frozen_at.is_none());
    }

    /// Graph 93 of `vrr_bootstrap`'s recipe at n = 50 (unit disk at scale
    /// 1.3, its budget and freeze window) used to end as an open ring: the
    /// origin's re-probes purged the crumbs its closure retraces followed,
    /// so every retrace died at the same relay and the minimum never held
    /// its wrap predecessor (DESIGN.md finding 7).
    #[test]
    fn graph_93_closes_its_ring() {
        let (topo, labels) = topo_and_labels(50, 93);
        let (report, sim) = run_vrr_bootstrap_watched(
            &topo,
            &labels,
            VrrMode::Linearized,
            LinkConfig::ideal(),
            93,
            20_000,
            3_000,
        );
        assert!(report.converged, "{report:?}");
        assert_eq!(sim.metrics().counter("fwd.ttl_expired"), 0);
    }

    /// Over ideal links no handshake needs a second try. Graph 7 of
    /// `vrr_bootstrap`'s recipe at n = 50 re-sent 70 introduction halves
    /// when a retry fired 24 ticks after its notifications whatever their
    /// paths' lengths; with each retry armed at a round trip over its
    /// longer path it re-sends none, and no path message runs out of hops.
    #[test]
    fn graph_7_re_sends_no_handshake() {
        let (topo, labels) = topo_and_labels(50, 7);
        let (report, sim) = run_vrr_bootstrap_watched(
            &topo,
            &labels,
            VrrMode::Linearized,
            LinkConfig::ideal(),
            7,
            20_000,
            3_000,
        );
        assert!(report.converged, "{report:?}");
        assert_eq!(sim.metrics().counter("e2e.retry"), 0);
        assert_eq!(sim.metrics().counter("fwd.ttl_expired"), 0);
    }

    /// `census vrr 7 7`'s `path_x` column: the edges graph 7 of
    /// `vrr_bootstrap`'s recipe holds at consistency, walked as a path
    /// message goes, take 1.157 times the hops of the shortest paths
    /// between their ends. It read 1.089 while every delegation sent a
    /// `Retire` and every mirror introduction went out; without them
    /// graph 7 is consistent at tick 128, not 240.
    #[test]
    fn graph_7_holds_its_edges_at_its_census_path_stretch() {
        let (topo, labels) = topo_and_labels(50, 7);
        let (report, sim) = run_vrr_bootstrap_watched(
            &topo,
            &labels,
            VrrMode::Linearized,
            LinkConfig::ideal(),
            7,
            20_000,
            3_000,
        );
        assert!(report.converged, "{report:?}");
        let path_x = crate::VrrRoutingView::new(sim.protocols()).path_x(&topo);
        assert_eq!(format!("{path_x:.3}"), "1.157");
    }

    #[test]
    fn two_node_ring() {
        let topo = generators::line(2);
        let labels = Labeling::sequential(2, 7);
        let (report, sim) = run_vrr_bootstrap(
            &topo,
            &labels,
            VrrMode::Linearized,
            LinkConfig::ideal(),
            3,
            50_000,
        );
        assert!(report.converged, "{report:?}");
        let a = &sim.protocols()[0];
        let b = &sim.protocols()[1];
        assert_eq!(a.ring_succ(), Some(b.id()));
        assert_eq!(b.ring_succ(), Some(a.id()));
    }

    #[test]
    fn intermediate_nodes_carry_path_state() {
        // On a line topology the extremes' wrap edge must traverse the
        // middle: state at interior nodes strictly exceeds what SSR would
        // keep there — the E10 contrast.
        let topo = generators::line(5);
        let labels = Labeling::sequential(5, 10);
        let (report, sim) = run_vrr_bootstrap(
            &topo,
            &labels,
            VrrMode::Linearized,
            LinkConfig::ideal(),
            1,
            50_000,
        );
        assert!(report.converged);
        // the middle node carries the wrap path 10↔50 plus its own edges
        let middle = &sim.protocols()[2];
        assert!(
            middle.table().len() >= 3,
            "middle state {}",
            middle.table().len()
        );
    }
}
