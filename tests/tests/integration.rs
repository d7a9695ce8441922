//! Workspace-level integration tests: full bootstrap → consistency →
//! routing pipelines across every crate, on each topology family.

use ssr_core::bootstrap::{run_isprp_bootstrap, run_linearized_bootstrap, BootstrapConfig};
use ssr_core::consistency::{self, Linearized, RingShape};
use ssr_core::routing::RoutingView;
use ssr_graph::algo;
use ssr_sim::faults::poisson_crash_rejoin_trace;
use ssr_sim::{LinkConfig, Simulator, Time};
use ssr_types::{NodeId, Rng};
use ssr_vrr::bootstrap::run_vrr_bootstrap;
use ssr_vrr::node::VrrMode;
use ssr_workloads::scenario::traffic_pairs;
use ssr_workloads::Topology;

/// The linearized bootstrap converges and routes on every topology family.
#[test]
fn bootstrap_and_route_on_every_family() {
    let topos = [
        Topology::UnitDisk { n: 40, scale: 1.3 },
        Topology::Regular { n: 40, d: 4 },
        Topology::Gnp { n: 40, c: 2.0 },
        Topology::PowerLaw { n: 40, alpha: 2.0 },
        Topology::PreferentialAttachment { n: 40, m: 2 },
        Topology::SmallWorld {
            n: 40,
            k: 4,
            beta: 0.2,
        },
        Topology::Ring { n: 40 },
        Topology::Grid { n: 36 },
    ];
    for topo in topos {
        let (g, labels) = topo.instance(11);
        let n = g.node_count();
        let cfg = BootstrapConfig {
            max_ticks: 200_000,
            ..Default::default()
        };
        let (report, sim) = run_linearized_bootstrap(&g, &labels, &cfg);
        assert!(
            report.converged,
            "{} did not converge: {report:?}",
            topo.family()
        );
        assert!(
            !report.messages.iter().any(|(k, _)| k == "msg.flood"),
            "{} flooded!",
            topo.family()
        );
        // route a sample of pairs
        let view = RoutingView::new(sim.protocols());
        let mut rng = Rng::new(99);
        for (a, b) in traffic_pairs(n, 50, &mut rng) {
            let out = view.route(labels.id(a), labels.id(b), 4 * n as u32);
            assert!(out.delivered(), "{}: {} -> {} failed", topo.family(), a, b);
        }
    }
}

/// Over ideal links nothing is lost, so nothing needs re-sending: the retry
/// timer waits out the round trip of the route it guards, and a bootstrap
/// whose routes grow past `retry_interval / 2` hops sends no retry at all
/// (≈ 300 of them with the fixed 24-tick timer).
#[test]
fn an_ideal_link_bootstrap_sends_no_retries() {
    let (g, labels) = Topology::UnitDisk { n: 150, scale: 1.3 }.instance(1);
    let cfg = BootstrapConfig {
        seed: 1,
        ..Default::default()
    };
    let (report, sim) = run_linearized_bootstrap(&g, &labels, &cfg);
    assert!(report.converged, "{report:?}");
    let m = sim.metrics();
    assert!(m.counter("e2e.sent") > 0);
    assert_eq!(m.counter("e2e.retry"), 0);
}

/// `e2e.sent` split by payload: for both protocols the per-class counters
/// sum to it, and nothing is delivered end to end that was not sent. The
/// linearized run goes on one audit period past convergence, so its
/// heartbeat's class is counted too.
#[test]
fn the_per_class_e2e_counters_sum_to_e2e_sent() {
    let (g, labels) = Topology::UnitDisk { n: 30, scale: 1.3 }.instance(5);
    let cfg = BootstrapConfig {
        max_ticks: 200_000,
        ..Default::default()
    };
    let (lin, mut lin_sim) = run_linearized_bootstrap(&g, &labels, &cfg);
    let (isp, isp_sim) = run_isprp_bootstrap(&g, &labels, &cfg);
    assert!(lin.converged && isp.converged);
    let audited = lin_sim.now().ticks() + ssr_linearize::control::AUDIT_INTERVAL;
    lin_sim.run_until(Time(audited));
    let classes = [
        "e2e.notify",
        "e2e.announce",
        "e2e.ack",
        "e2e.teardown",
        "e2e.discover",
        "e2e.succ",
        "e2e.update",
        "e2e.data",
    ];
    for m in [lin_sim.metrics(), isp_sim.metrics()] {
        let sent = m.counter("e2e.sent");
        assert!(sent > 0);
        assert_eq!(classes.iter().map(|&k| m.counter(k)).sum::<u64>(), sent);
        assert!((1..=sent).contains(&m.counter("e2e.delivered")));
    }
    assert!(lin_sim.metrics().counter("e2e.announce") > 0);
    assert!(isp_sim.metrics().counter("e2e.succ") > 0);
}

/// ISPRP with the flood also converges — and the two mechanisms agree on
/// the final ring (it is unique: the sorted order).
#[test]
fn isprp_and_linearized_agree_on_the_ring() {
    let topo = Topology::UnitDisk { n: 30, scale: 1.3 };
    let (g, labels) = topo.instance(5);
    let cfg = BootstrapConfig {
        max_ticks: 200_000,
        ..Default::default()
    };
    let (lin, lin_sim) = run_linearized_bootstrap(&g, &labels, &cfg);
    let (isp, isp_sim) = run_isprp_bootstrap(&g, &labels, &cfg);
    assert!(lin.converged && isp.converged);
    // successor maps must be identical
    let lin_succ: Vec<(NodeId, NodeId)> = {
        let mut v: Vec<_> = lin_sim
            .protocols()
            .iter()
            .map(|p| (p.id(), p.ring_succ().unwrap()))
            .collect();
        v.sort();
        v
    };
    let isp_succ: Vec<(NodeId, NodeId)> = {
        let mut v: Vec<_> = isp_sim
            .protocols()
            .iter()
            .map(|p| (p.id(), p.succ().unwrap()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(lin_succ, isp_succ);
}

/// The linearized VRR bootstrap reaches the same ring as linearized SSR.
#[test]
fn vrr_and_ssr_build_the_same_ring() {
    let topo = Topology::UnitDisk { n: 16, scale: 1.4 };
    let (g, labels) = topo.instance(3);
    let cfg = BootstrapConfig {
        max_ticks: 200_000,
        ..Default::default()
    };
    let (ssr, ssr_sim) = run_linearized_bootstrap(&g, &labels, &cfg);
    let (vrr, vrr_sim) = run_vrr_bootstrap(
        &g,
        &labels,
        VrrMode::Linearized,
        LinkConfig::ideal(),
        3,
        200_000,
    );
    assert!(ssr.converged, "{ssr:?}");
    assert!(vrr.converged, "{vrr:?}");
    let mut ssr_succ: Vec<_> = ssr_sim
        .protocols()
        .iter()
        .map(|p| (p.id(), p.ring_succ().unwrap()))
        .collect();
    let mut vrr_succ: Vec<_> = vrr_sim
        .protocols()
        .iter()
        .map(|p| (p.id(), p.ring_succ().unwrap()))
        .collect();
    ssr_succ.sort();
    vrr_succ.sort();
    assert_eq!(ssr_succ, vrr_succ);
}

/// Full determinism across the crate stack: identical seeds give identical
/// reports.
#[test]
fn end_to_end_determinism() {
    let run = || {
        let topo = Topology::UnitDisk { n: 35, scale: 1.3 };
        let (g, labels) = topo.instance(77);
        let cfg = BootstrapConfig {
            seed: 123,
            ..Default::default()
        };
        let (report, _) = run_linearized_bootstrap(&g, &labels, &cfg);
        (report.ticks, report.total_messages, report.messages.clone())
    };
    assert_eq!(run(), run());
}

/// Churn: crash/rejoin bursts are absorbed without flooding.
#[test]
fn churn_recovery_without_flooding() {
    let topo = Topology::UnitDisk { n: 40, scale: 1.4 };
    let (g, labels) = topo.instance(21);
    let cfg = BootstrapConfig::default();
    let nodes = ssr_core::bootstrap::make_ssr_nodes(&labels, cfg.ssr);
    let mut sim = Simulator::new(g.clone(), nodes, LinkConfig::ideal(), 9);
    let outcome = sim.run_until_stable(8, 200_000, |nodes, _| {
        consistency::check_ring(nodes).consistent()
    });
    assert!(outcome.is_quiescent(), "initial bootstrap failed");
    let t0 = sim.now();
    let mut frng = Rng::new(4242);
    let trace = poisson_crash_rejoin_trace(
        40,
        t0 + 1,
        Time(t0.ticks() + 200),
        0.02,
        30,
        |u| g.neighbors(u).collect(),
        &mut frng,
    );
    assert!(!trace.is_empty());
    for f in trace {
        sim.schedule_fault(f.at, f.fault);
    }
    sim.run_until(Time(t0.ticks() + 260));
    let outcome = sim.run_until_stable(8, 200_000, |nodes, _| {
        consistency::check_ring(nodes).consistent()
    });
    let report = consistency::check_ring(sim.protocols());
    assert!(
        report.consistent(),
        "no re-convergence: {report:?} ({outcome:?})"
    );
    assert_eq!(sim.metrics().counter("msg.flood"), 0);
}

/// Lossy links: the handshake retries and audits still converge the ring.
#[test]
fn lossy_links_still_converge() {
    let topo = Topology::UnitDisk { n: 25, scale: 1.4 };
    let (g, labels) = topo.instance(13);
    let cfg = BootstrapConfig {
        link: LinkConfig::lossy(0.05),
        max_ticks: 400_000,
        seed: 5,
        ..Default::default()
    };
    let (report, _) = run_linearized_bootstrap(&g, &labels, &cfg);
    assert!(report.converged, "{report:?}");
}

/// Jittered latency (asynchronous timing) does not break convergence.
#[test]
fn jittered_latency_converges() {
    let topo = Topology::UnitDisk { n: 30, scale: 1.3 };
    let (g, labels) = topo.instance(17);
    let cfg = BootstrapConfig {
        link: LinkConfig::jittered(1, 5),
        max_ticks: 400_000,
        ..Default::default()
    };
    let (report, _) = run_linearized_bootstrap(&g, &labels, &cfg);
    assert!(report.converged, "{report:?}");
}

/// The observer checkers recognize the adversarial states of Figures 1–2
/// end to end (duplicating the figure experiments as tests).
#[test]
fn figure_states_classify_correctly() {
    // loopy ring over the Figure-1 addresses
    let ids = [1u64, 4, 9, 13, 18, 21, 25, 29];
    let order = [0usize, 2, 4, 6, 1, 3, 5, 7];
    let succ: std::collections::BTreeMap<NodeId, NodeId> = (0..8)
        .map(|i| (NodeId(ids[order[i]]), NodeId(ids[order[(i + 1) % 8]])))
        .collect();
    assert_eq!(consistency::classify_succ_map(&succ), RingShape::Loopy(2));
    // two disjoint rings (Figure 2)
    let succ2: std::collections::BTreeMap<NodeId, NodeId> =
        [(1u64, 9), (9, 18), (18, 1), (4, 13), (13, 21), (21, 4)]
            .iter()
            .map(|&(a, b)| (NodeId(a), NodeId(b)))
            .collect();
    assert_eq!(
        consistency::classify_succ_map(&succ2),
        RingShape::Partitioned(2)
    );
}

/// Abstract engine and protocol agree: the protocol's final line order is
/// the identifier sort, which is what the engine converges to as well.
#[test]
fn engine_and_protocol_agree_on_the_line() {
    let topo = Topology::Gnp { n: 24, c: 2.0 };
    let (g, labels) = topo.instance(2);
    // engine (rank space)
    let (rg, _) = ssr_linearize::convergence::relabel_to_ranks(&g, &labels);
    let engine_run = ssr_linearize::run(
        &rg,
        ssr_linearize::Variant::lsn(),
        ssr_linearize::Semantics::Star,
        4000,
    );
    assert!(engine_run.line_at.is_some());
    // protocol
    let cfg = BootstrapConfig {
        max_ticks: 200_000,
        ..Default::default()
    };
    let (report, sim) = run_linearized_bootstrap(&g, &labels, &cfg);
    assert!(report.converged);
    // the protocol's ring successor order must be the sorted id order
    let mut sorted: Vec<NodeId> = labels.ids().to_vec();
    sorted.sort();
    let mut cur = sorted[0];
    for expected in sorted.iter().skip(1) {
        let node = sim.protocols().iter().find(|p| p.id() == cur).unwrap();
        let next = node.ring_succ().unwrap();
        assert_eq!(next, *expected);
        cur = next;
    }
    // sanity on the physical graph
    assert!(algo::is_connected(&g));
}
