//! `chaos_recovery`: the same `sim` and `core::node` layers as
//! `ssr_bootstrap`, used differently — recovery to the consistent ring
//! from random successor corruption, over links that drop, duplicate and
//! reorder, through a partition and a window of asymmetric loss, under the
//! freeze watchdog.
//!
//! It reaches what the ideal-link bootstrap never touches: loss, dup and
//! reorder sampling, the `link_overrides` probe on every transmit, fault
//! events, retry and backoff timers, and the watchdog probe path. It
//! guards robustness when acknowledgements are cut.

use std::rc::Rc;

use ssr_core::bootstrap::make_ssr_nodes;
use ssr_core::chaos;
use ssr_core::consistency::check_ring;
use ssr_core::node::{SsrConfig, SsrNode};
use ssr_graph::Graph;
use ssr_sim::faults::{partition_groups, Fault};
use ssr_sim::{shared_watchdog, watchdog_probe, LinkConfig, SharedWatchdog, Simulator, Time};
use ssr_types::Rng;
use ssr_workloads::Topology;

use crate::common::{measure, Config, Report, BUDGET, GRID};
use crate::protocol::{check_outcomes, report_costs, report_messages, Outcome, SimLayer};
use crate::span::Tracer;

/// The adversary is active over ticks `[FAULT_START, FAULT_END]`.
const FAULT_START: u64 = 2;
const FAULT_END: u64 = 402;
const FREEZE_WINDOW: u64 = 3_000;
/// Share of physical links that get a lossy direction, and its loss rate.
const LOSSY_LINKS: f64 = 0.25;
const LOSSY_DROP: f64 = 0.30;

fn adversarial() -> LinkConfig {
    LinkConfig::adversarial(0.05, 0.10, 0.15, 6)
}

fn cache_entries(node: &SsrNode) -> usize {
    node.cache().len()
}

/// One corpus graph, corrupted and armed: everything up to tick 0.
struct Armed {
    sim: Simulator<SsrNode>,
    topo: Graph,
    watchdog: SharedWatchdog,
    /// Draws the lossy links when the fault window opens.
    rng: Rng,
}

/// Set-up, with a span around each layer's share.
fn arm(n: usize, graph_seed: u64, tr: &mut Tracer) -> Armed {
    let (topo, labels) = tr.within("graph.instance", |_| {
        Topology::UnitDisk { n, scale: 1.4 }.instance(graph_seed)
    });
    let nodes = tr.within("core.bootstrap.make_nodes", |_| {
        make_ssr_nodes(&labels, SsrConfig::default())
    });
    let mut sim = tr.within("sim.new", |_| {
        Simulator::new(topo.clone(), nodes, adversarial(), graph_seed)
    });
    let mut rng = Rng::new(graph_seed ^ 0x00C4_A05C);
    let succ = chaos::random_succ(labels.ids(), &mut rng);
    chaos::apply_succ_corruption(&mut sim, &labels, &succ, true);

    let watchdog = shared_watchdog();
    let mut probe = watchdog_probe(
        FREEZE_WINDOW,
        Rc::clone(&watchdog),
        chaos::ssr_signature,
        |nodes: &[SsrNode]| check_ring(nodes).consistent(),
        chaos::ssr_all_locally_consistent,
    );
    sim.add_probe(GRID, move |view| {
        view.metrics.incr("probe.fired");
        probe(view);
    });
    let groups = partition_groups(n, 2, &mut rng);
    sim.schedule_fault(Time(FAULT_START), Fault::Partition { groups });
    sim.schedule_fault(Time(FAULT_END), Fault::Heal);
    Armed {
        sim,
        topo,
        watchdog,
        rng,
    }
}

/// The timed section, a span around each of its two phases; returns their
/// host seconds.
fn recover(armed: &mut Armed, tr: &mut Tracer) -> (f64, f64, Outcome) {
    let Armed {
        sim,
        topo,
        watchdog,
        rng,
    } = armed;
    let (_, fault_window) = tr.span("sim.run.fault_window", |_| {
        // the hello exchange at ticks 0 and 1 runs over the base links; a
        // hello lost for good on a dead-on-arrival link is a different
        // experiment
        sim.run_until(Time(FAULT_START));
        for (u, v) in topo.edges() {
            if rng.chance(LOSSY_LINKS) {
                // one direction only: asymmetric loss
                sim.set_link_override(u, v, adversarial().with_drop(LOSSY_DROP));
            }
        }
        sim.run_until(Time(FAULT_END));
        sim.clear_link_overrides();
    });
    let frozen = Rc::clone(watchdog);
    let (_, recovery) = tr.span("sim.run.recovery", |_| {
        sim.run_until_stable(GRID, BUDGET, move |nodes, _| {
            check_ring(nodes).consistent() || frozen.borrow().is_frozen()
        })
    });
    let consistent = check_ring(sim.protocols()).consistent();
    let seconds = |span| tr.get(span).ns() as f64 / 1e9;
    (
        seconds(fault_window),
        seconds(recovery),
        Outcome::of(sim, consistent, cache_entries),
    )
}

pub fn untraced(cfg: &Config) -> Report {
    let n = cfg.sizes.chaos_n;
    let graphs = cfg.corpus..cfg.corpus + cfg.sizes.chaos_graphs;
    let m = measure::<_, Vec<Outcome>>(
        cfg.seconds,
        true,
        || {
            graphs
                .clone()
                .map(|g| arm(n, g, &mut Tracer::new()))
                .collect::<Vec<_>>()
        },
        |armed| {
            armed
                .iter_mut()
                .map(|a| {
                    let (fault_window, recovery, outcome) = recover(a, &mut Tracer::new());
                    (fault_window + recovery, outcome)
                })
                .unzip()
        },
    );
    let mut report = Report::default();
    m.report(&mut report);
    report_costs(&mut report, &m.first, false);
    check_outcomes(&mut report, &m.first, m.passes());
    report
}

pub fn traced(cfg: &Config, tr: &mut Tracer) -> Report {
    let n = cfg.sizes.chaos_n;
    let graphs = cfg.corpus..cfg.corpus + cfg.sizes.chaos_graphs;
    let mut report = Report::default();

    let mut untraced_wall = 0.0;
    let mut reference = Vec::new();
    for g in graphs.clone() {
        let untraced = &mut Tracer::new();
        let (fault_window, recovery, outcome) = recover(&mut arm(n, g, untraced), untraced);
        untraced_wall += fault_window + recovery;
        reference.push(outcome);
    }
    check_outcomes(&mut report, &reference, 1);

    // `apply_succ_corruption` and `ssr_signature` take `Simulator<SsrNode>`
    // concretely, so there is no `Timed` replay here: phase spans and
    // counters only
    let mut layer = SimLayer::default();
    let mut link = [0u64; 4];
    let mut probes_fired = 0;
    for (g, expect) in graphs.clone().zip(&reference) {
        tr.within("graph", |tr| {
            let mut armed = arm(n, g, tr);
            let (_, _, outcome) = tr.within("sim.run_until", |tr| recover(&mut armed, tr));
            report.determinism_breaks += u64::from(outcome != *expect);
            layer.absorb(&armed.sim);
            let m = armed.sim.metrics();
            for (total, key) in
                link.iter_mut()
                    .zip(["tx.dropped", "tx.dup", "tx.reordered", "tx.lost_in_flight"])
            {
                *total += m.counter(key);
            }
            probes_fired += m.counter("probe.fired");
        });
    }
    layer.run_s = tr.total_s("sim.run_until");
    layer.report(&mut report);
    report_messages(&mut report, "core.node", &reference);
    for (name, total) in ["dropped", "dup", "reordered", "lost_in_flight"]
        .iter()
        .zip(link)
    {
        report.set(&format!("sim.link.{name}"), total as f64);
    }
    report.set("sim.run_s.fault_window", tr.total_s("sim.run.fault_window"));
    report.set("sim.run_s.recovery", tr.total_s("sim.run.recovery"));
    report.set("sim.watchdog.probes_fired", probes_fired as f64);
    report.set("graph.instance_ms", tr.total_s("graph.instance") * 1e3);
    report.set(
        "core.bootstrap.make_nodes_ms",
        tr.total_s("core.bootstrap.make_nodes") * 1e3,
    );
    report.set("sim.new_ms", tr.total_s("sim.new") * 1e3);
    report.set(
        "trace.overhead_pct",
        (layer.run_s - untraced_wall) / untraced_wall * 100.0,
    );
    report
}
