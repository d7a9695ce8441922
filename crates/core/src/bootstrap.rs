//! One-call experiment drivers: build a simulator over a labeled topology,
//! run a bootstrap protocol to convergence, and report what it cost.

use ssr_graph::{Graph, Labeling};
use ssr_sim::{LinkConfig, Simulator};
use ssr_types::NodeId;

use crate::consistency::{self, ConsistencyReport, Linearized, RingShape};
use crate::isprp::{IsprpConfig, IsprpNode};
use crate::node::{SsrConfig, SsrNode};

/// Consistency-check cadence of the one-call runners (ticks).
pub const CHECK_EVERY: u64 = 8;

/// Common experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct BootstrapConfig {
    /// Link model.
    pub link: LinkConfig,
    /// Simulation seed.
    pub seed: u64,
    /// Give up after this many ticks.
    pub max_ticks: u64,
    /// SSR protocol tuning (linearized runs; ISPRP runs use
    /// [`IsprpConfig::default`]).
    pub ssr: SsrConfig,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        BootstrapConfig {
            link: LinkConfig::ideal(),
            seed: 0,
            max_ticks: 100_000,
            ssr: SsrConfig::default(),
        }
    }
}

/// One probe sample of the convergence trajectory, taken every
/// [`CHECK_EVERY`] ticks during a bootstrap run.
#[derive(Clone, Debug)]
pub struct ConvergencePoint {
    /// Sample time.
    pub tick: u64,
    /// Successor-structure classification at that time.
    pub shape: RingShape,
    /// Nodes that were locally consistent.
    pub locally_consistent: usize,
    /// Total nodes.
    pub nodes: usize,
    /// Nodes whose ring successor changed since the previous sample
    /// (0 at the first sample).
    pub succ_churn: usize,
}

/// What a bootstrap run cost and achieved.
#[derive(Clone, Debug)]
pub struct BootstrapReport {
    /// `true` iff global consistency was reached within the budget.
    pub converged: bool,
    /// Ticks until convergence (or the budget).
    pub ticks: u64,
    /// Per-kind message counts (`msg.*` keys from the simulator).
    pub messages: Vec<(String, u64)>,
    /// Total link-layer transmissions.
    pub total_messages: u64,
    /// Largest route cache (entries) across nodes at the end.
    pub max_state: usize,
    /// Mean route-cache entries per node at the end.
    pub mean_state: f64,
    /// Final consistency classification (linearized runs; for ISPRP only
    /// `shape` is meaningful).
    pub consistency: ConsistencyReport,
    /// Convergence trajectory sampled every [`CHECK_EVERY`] ticks.
    pub timeline: Vec<ConvergencePoint>,
}

impl BootstrapReport {
    /// First sample time at which every node was locally consistent
    /// (stayed so or not — this is the *first* crossing, matching how the
    /// paper reports "local consistency is quickly restored").
    pub fn time_to_local_consistency(&self) -> Option<u64> {
        self.timeline
            .iter()
            .find(|p| p.nodes > 0 && p.locally_consistent == p.nodes)
            .map(|p| p.tick)
    }

    /// First sample time at which the successor structure classified as the
    /// globally consistent ring.
    pub fn time_to_global_consistency(&self) -> Option<u64> {
        self.timeline
            .iter()
            .find(|p| p.shape == RingShape::ConsistentRing)
            .map(|p| p.tick)
    }

    fn from_metrics(
        converged: bool,
        ticks: u64,
        metrics: &ssr_sim::Metrics,
        states: impl Iterator<Item = usize>,
        consistency: ConsistencyReport,
        timeline: Vec<ConvergencePoint>,
    ) -> Self {
        let messages: Vec<(String, u64)> = metrics
            .counters()
            .filter(|(k, _)| k.starts_with("msg."))
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let total_messages = metrics.counter("tx.total");
        let mut max_state = 0usize;
        let mut sum = 0usize;
        let mut count = 0usize;
        for s in states {
            max_state = max_state.max(s);
            sum += s;
            count += 1;
        }
        BootstrapReport {
            converged,
            ticks,
            messages,
            total_messages,
            max_state,
            mean_state: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            consistency,
            timeline,
        }
    }
}

/// Shared timeline recorder: a probe closure samples the successor map via
/// `succ_of`, classifies it with `shape_of`, and appends one
/// [`ConvergencePoint`] per firing. The recorder also feeds the canonical
/// `probe.*` metrics (`probe.samples` counter, `probe.locally_consistent`
/// gauge) so the series sampler picks convergence up too.
fn timeline_probe<P, FS, FH, FL>(
    out: std::rc::Rc<std::cell::RefCell<Vec<ConvergencePoint>>>,
    succ_of: FS,
    shape_of: FH,
    locally_consistent: FL,
) -> impl FnMut(&mut ssr_sim::ProbeView<'_, P>) + 'static
where
    P: ssr_sim::Protocol,
    FS: Fn(&P) -> Option<(NodeId, NodeId)> + 'static,
    FH: Fn(&[P]) -> RingShape + 'static,
    FL: Fn(&P) -> bool + 'static,
{
    let mut prev: Option<std::collections::BTreeMap<NodeId, NodeId>> = None;
    move |view| {
        let succ: std::collections::BTreeMap<NodeId, NodeId> =
            view.protocols.iter().filter_map(&succ_of).collect();
        let succ_churn = match &prev {
            None => 0,
            Some(old) => {
                let changed = succ.iter().filter(|(k, v)| old.get(*k) != Some(*v)).count();
                let vanished = old.keys().filter(|k| !succ.contains_key(*k)).count();
                changed + vanished
            }
        };
        let local = view
            .protocols
            .iter()
            .filter(|p| locally_consistent(p))
            .count();
        view.metrics.incr("probe.samples");
        view.metrics
            .observe("probe.locally_consistent", local as f64);
        out.borrow_mut().push(ConvergencePoint {
            tick: view.now.ticks(),
            shape: shape_of(view.protocols),
            locally_consistent: local,
            nodes: view.protocols.len(),
            succ_churn,
        });
        prev = Some(succ);
    }
}

/// A ready-made convergence recorder for linearized-SSR simulators built
/// outside the one-call runners (the churn experiment drives its own
/// three-phase simulation): install with [`ssr_sim::Simulator::add_probe`]
/// and every firing appends one [`ConvergencePoint`] to `out`.
pub fn ssr_timeline_probe(
    out: std::rc::Rc<std::cell::RefCell<Vec<ConvergencePoint>>>,
) -> impl FnMut(&mut ssr_sim::ProbeView<'_, SsrNode>) + 'static {
    timeline_probe(
        out,
        |n: &SsrNode| n.ring_succ().map(|s| (n.id(), s)),
        |nodes| consistency::check_ring(nodes).shape,
        |n| n.locally_consistent(),
    )
}

/// Builds the linearized-SSR node set for a labeled topology.
pub fn make_ssr_nodes(labels: &Labeling, config: SsrConfig) -> Vec<SsrNode> {
    labels
        .ids()
        .iter()
        .map(|&id| SsrNode::with_config(id, config))
        .collect()
}

/// Builds the ISPRP node set for a labeled topology.
pub fn make_isprp_nodes(labels: &Labeling, config: IsprpConfig) -> Vec<IsprpNode> {
    labels
        .ids()
        .iter()
        .map(|&id| IsprpNode::with_config(id, config))
        .collect()
}

/// Runs the **linearized** bootstrap (the paper's contribution) to global
/// ring consistency. Returns the report and the simulator (for follow-up
/// routing experiments over the converged state).
pub fn run_linearized_bootstrap(
    topo: &Graph,
    labels: &Labeling,
    cfg: &BootstrapConfig,
) -> (BootstrapReport, Simulator<SsrNode>) {
    assert_eq!(topo.node_count(), labels.len());
    let nodes = make_ssr_nodes(labels, cfg.ssr);
    let mut sim = Simulator::new(topo.clone(), nodes, cfg.link, cfg.seed);
    let timeline = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    sim.add_probe(
        CHECK_EVERY,
        timeline_probe(
            std::rc::Rc::clone(&timeline),
            |n: &SsrNode| n.ring_succ().map(|s| (n.id(), s)),
            |nodes| consistency::check_ring(nodes).shape,
            |n| n.locally_consistent(),
        ),
    );
    let outcome = sim.run_until_stable(CHECK_EVERY, cfg.max_ticks, |nodes, _| {
        consistency::check_ring(nodes).consistent()
    });
    let report = consistency::check_ring(sim.protocols());
    let converged = report.consistent();
    let ticks = outcome.time().ticks();
    let states: Vec<usize> = sim.protocols().iter().map(|n| n.cache().len()).collect();
    for &s in &states {
        sim.metrics_mut().observe_hist("state.entries", s as u64);
    }
    let report = BootstrapReport::from_metrics(
        converged,
        ticks,
        sim.metrics(),
        states.into_iter(),
        report,
        timeline.borrow().clone(),
    );
    (report, sim)
}

/// Runs the **ISPRP + representative flood** baseline to global ring
/// consistency (single all-node successor cycle).
pub fn run_isprp_bootstrap(
    topo: &Graph,
    labels: &Labeling,
    cfg: &BootstrapConfig,
) -> (BootstrapReport, Simulator<IsprpNode>) {
    assert_eq!(topo.node_count(), labels.len());
    let nodes = make_isprp_nodes(labels, IsprpConfig::default());
    let mut sim = Simulator::new(topo.clone(), nodes, cfg.link, cfg.seed);
    let timeline = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    sim.add_probe(
        CHECK_EVERY,
        timeline_probe(
            std::rc::Rc::clone(&timeline),
            |n: &IsprpNode| n.succ().map(|s| (n.id(), s)),
            isprp_shape,
            |n| n.locally_consistent(),
        ),
    );
    let outcome = sim.run_until_stable(CHECK_EVERY, cfg.max_ticks, |nodes, _| {
        isprp_consistent(nodes)
    });
    let shape = isprp_shape(sim.protocols());
    let converged = shape == RingShape::ConsistentRing;
    let n = sim.protocols().len();
    let consistency = ConsistencyReport {
        locally_consistent_nodes: sim
            .protocols()
            .iter()
            .filter(|p| p.locally_consistent())
            .count(),
        nodes: n,
        line_formed: false,
        ring_closed: converged,
        shape,
    };
    let ticks = outcome.time().ticks();
    let states: Vec<usize> = sim.protocols().iter().map(|p| p.cache().len()).collect();
    for &s in &states {
        sim.metrics_mut().observe_hist("state.entries", s as u64);
    }
    let report = BootstrapReport::from_metrics(
        converged,
        ticks,
        sim.metrics(),
        states.into_iter(),
        consistency,
        timeline.borrow().clone(),
    );
    (report, sim)
}

/// The ISPRP convergence predicate: successor pointers form one
/// address-ordered cycle over all nodes.
pub fn isprp_consistent(nodes: &[IsprpNode]) -> bool {
    isprp_shape(nodes) == RingShape::ConsistentRing
}

/// Classifies the ISPRP successor structure.
pub fn isprp_shape(nodes: &[IsprpNode]) -> RingShape {
    if nodes.len() <= 1 {
        return RingShape::ConsistentRing;
    }
    let succ: std::collections::BTreeMap<NodeId, NodeId> = nodes
        .iter()
        .filter_map(|p| p.succ().map(|s| (p.id(), s)))
        .collect();
    if succ.len() < nodes.len() {
        return RingShape::Incomplete;
    }
    consistency::classify_succ_map(&succ)
}

/// A connected unit-disk graph with random addresses — the instance the
/// in-crate tests bootstrap on.
#[cfg(test)]
pub(crate) fn topo_and_labels(n: usize, seed: u64) -> (Graph, Labeling) {
    let mut rng = ssr_types::Rng::new(seed);
    let (g, _) = ssr_graph::generators::unit_disk_connected(n, 1.3, &mut rng);
    let labels = Labeling::random(n, &mut rng);
    (g, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_graph::generators;

    #[test]
    fn linearized_bootstrap_converges_on_a_line_topology() {
        let topo = generators::line(6);
        let labels = Labeling::sequential(6, 10);
        let (report, _) = run_linearized_bootstrap(&topo, &labels, &BootstrapConfig::default());
        assert!(report.converged, "{report:?}");
        assert_eq!(report.consistency.shape, RingShape::ConsistentRing);
        assert_eq!(report.messages.iter().find(|(k, _)| k == "msg.flood"), None);
    }

    #[test]
    fn linearized_bootstrap_converges_on_unit_disk() {
        for seed in 0..3 {
            let (topo, labels) = topo_and_labels(40, seed);
            let (report, _) = run_linearized_bootstrap(&topo, &labels, &BootstrapConfig::default());
            assert!(report.converged, "seed {seed}: {report:?}");
            assert!(report.total_messages > 0);
            assert!(report.max_state >= 2);
        }
    }

    #[test]
    fn linearized_bootstrap_never_floods() {
        let (topo, labels) = topo_and_labels(30, 7);
        let (report, _) = run_linearized_bootstrap(&topo, &labels, &BootstrapConfig::default());
        assert!(report.converged);
        assert!(!report.messages.iter().any(|(k, _)| k == "msg.flood"));
    }

    #[test]
    fn isprp_bootstrap_converges_with_flood() {
        for seed in 0..3 {
            let (topo, labels) = topo_and_labels(30, 100 + seed);
            let (report, _) = run_isprp_bootstrap(&topo, &labels, &BootstrapConfig::default());
            assert!(report.converged, "seed {seed}: {report:?}");
            // the flood must have happened
            assert!(
                report
                    .messages
                    .iter()
                    .any(|(k, v)| k == "msg.flood" && *v > 0),
                "no flood messages: {:?}",
                report.messages
            );
        }
    }

    #[test]
    fn two_node_network_closes_its_ring() {
        let topo = generators::line(2);
        let labels = Labeling::sequential(2, 5);
        let (report, sim) = run_linearized_bootstrap(&topo, &labels, &BootstrapConfig::default());
        assert!(report.converged, "{report:?}");
        let a = &sim.protocols()[0];
        let b = &sim.protocols()[1];
        assert_eq!(a.ring_succ(), Some(b.id()));
        assert_eq!(b.ring_succ(), Some(a.id()));
    }

    #[test]
    fn timeline_tracks_convergence() {
        let (topo, labels) = topo_and_labels(30, 3);
        let (report, sim) = run_linearized_bootstrap(&topo, &labels, &BootstrapConfig::default());
        assert!(report.converged);
        assert!(!report.timeline.is_empty());
        // the first sample (t=0) is pre-convergence, the last is consistent
        let first = &report.timeline[0];
        assert_eq!(first.tick, 0);
        assert_ne!(first.shape, RingShape::ConsistentRing);
        assert_eq!(first.succ_churn, 0);
        let last = report.timeline.last().unwrap();
        assert_eq!(last.shape, RingShape::ConsistentRing);
        // local consistency also requires settled handshakes, so it can
        // trail the ring shape — but most nodes must have it by the end
        assert!(last.locally_consistent * 2 > last.nodes, "{last:?}");
        // pointers moved at some point
        assert!(report.timeline.iter().any(|p| p.succ_churn > 0));
        let t_global = report.time_to_global_consistency().expect("global");
        assert!(t_global <= report.ticks);
        if let Some(t_local) = report.time_to_local_consistency() {
            assert!(t_local <= report.ticks);
        }
        // probe metrics fed alongside
        assert_eq!(
            sim.metrics().counter("probe.samples"),
            report.timeline.len() as u64
        );
        assert!(sim.metrics().hist("state.entries").is_some());
        assert!(sim.metrics().hist("latency.ticks").is_some());
    }

    #[test]
    fn isprp_timeline_also_records() {
        let (topo, labels) = topo_and_labels(20, 42);
        let (report, _) = run_isprp_bootstrap(&topo, &labels, &BootstrapConfig::default());
        assert!(report.converged);
        assert!(!report.timeline.is_empty());
        assert_eq!(
            report.timeline.last().unwrap().shape,
            RingShape::ConsistentRing
        );
    }

    #[test]
    fn single_node_is_trivially_consistent() {
        let topo = Graph::new(1);
        let labels = Labeling::sequential(1, 1);
        let (report, _) = run_linearized_bootstrap(&topo, &labels, &BootstrapConfig::default());
        assert!(report.converged);
        assert_eq!(report.ticks, 0);
    }
}
