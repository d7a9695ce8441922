//! `ssr_bootstrap`: the paper's headline — linearized SSR from a cold
//! start to the globally consistent ring, on connected unit-disk graphs
//! over ideal links.
//!
//! Every hot layer does real work here: the `core::node` handlers, the
//! simulator's queue, dispatch and transmit path, and (for a few percent)
//! the `check_ring` observer. It is the write side of `core::cache`.

use std::time::Instant;

use ssr_core::bootstrap::{make_ssr_nodes, run_isprp_bootstrap, BootstrapConfig};
use ssr_core::consistency::check_ring;
use ssr_core::message::{encode_to_bytes, SsrMsg};
use ssr_core::node::{SsrConfig, SsrNode};
use ssr_sim::{LinkConfig, Simulator, Time};
use ssr_workloads::Topology;

use crate::common::{measure, secs_since, Config, Report, BUDGET, GRID};
use crate::protocol::{
    check_outcomes, replay_sliced, replay_timed, report_costs, report_handlers, report_messages,
    Outcome, SimLayer,
};
use crate::span::Tracer;
use crate::stats;
use crate::timed::{Tally, Timed};

/// Ticks the traced run keeps a converged ring running to meter what the
/// protocol costs at rest.
const REST_TICKS: u64 = 2_000;

fn topology(n: usize) -> Topology {
    Topology::UnitDisk { n, scale: 1.3 }
}

fn ring_consistent(nodes: &[SsrNode]) -> bool {
    check_ring(nodes).consistent()
}

fn cache_entries(node: &SsrNode) -> usize {
    node.cache().len()
}

fn wire_len(msg: &SsrMsg) -> usize {
    encode_to_bytes(msg).len()
}

/// Builds the simulator of one corpus graph (all of it is set-up).
fn build(n: usize, graph_seed: u64) -> Simulator<SsrNode> {
    let (g, labels) = topology(n).instance(graph_seed);
    let nodes = make_ssr_nodes(&labels, SsrConfig::default());
    Simulator::new(g, nodes, LinkConfig::ideal(), graph_seed)
}

/// The timed section: one bootstrap to global consistency.
fn bootstrap(sim: &mut Simulator<SsrNode>) -> (f64, Outcome) {
    let start = Instant::now();
    let outcome = sim.run_until_stable(GRID, BUDGET, |nodes, _| ring_consistent(nodes));
    let wall = secs_since(start);
    let consistent = outcome.is_quiescent() && ring_consistent(sim.protocols());
    (wall, Outcome::of(sim, consistent, cache_entries))
}

/// One untimed pass over `graphs` at size `n`.
fn outcomes_at(n: usize, graphs: impl Iterator<Item = u64>) -> Vec<Outcome> {
    graphs.map(|g| bootstrap(&mut build(n, g)).1).collect()
}

pub fn untraced(cfg: &Config) -> Report {
    let n = cfg.sizes.ssr_n;
    let graphs = cfg.corpus..cfg.corpus + cfg.sizes.ssr_graphs;
    let m = measure::<_, Vec<Outcome>>(
        cfg.seconds,
        true,
        || graphs.clone().map(|g| build(n, g)).collect::<Vec<_>>(),
        |sims| sims.iter_mut().map(bootstrap).unzip(),
    );
    let mut report = Report::default();
    m.report(&mut report);
    report_costs(&mut report, &m.first, true);
    check_outcomes(&mut report, &m.first, m.passes());
    report
}

pub fn traced(cfg: &Config, tr: &mut Tracer) -> Report {
    let n = cfg.sizes.ssr_n;
    let graphs = cfg.corpus..cfg.corpus + cfg.sizes.ssr_graphs;
    let mut report = Report::default();

    // the untraced reference the replays must reproduce
    let mut untraced_wall = 0.0;
    let mut reference = Vec::new();
    for g in graphs.clone() {
        let (wall, outcome) = bootstrap(&mut build(n, g));
        untraced_wall += wall;
        reference.push(outcome);
    }
    check_outcomes(&mut report, &reference, 1);

    let mut layer = SimLayer::default();
    let mut handlers = Tally::default();
    let mut rest_msgs_per_node = 0.0;
    for (g, expect) in graphs.clone().zip(&reference) {
        let until = expect.counters.ticks;
        tr.within("graph", |tr| {
            let (topo, labels) = tr.within("graph.instance", |_| topology(n).instance(g));

            // replay A: where the observer's time goes
            let nodes = tr.within("core.bootstrap.make_nodes", |_| {
                make_ssr_nodes(&labels, SsrConfig::default())
            });
            let mut sim = tr.within("sim.new", |_| {
                Simulator::new(topo.clone(), nodes, LinkConfig::ideal(), g)
            });
            let ok = replay_sliced(
                tr,
                &mut sim,
                until,
                "core.consistency.check_ring",
                ring_consistent,
            );
            let replayed = Outcome::of(&sim, ok, cache_entries);
            report.determinism_breaks += u64::from(replayed != *expect);
            let before = sim.metrics().counter("tx.total");
            tr.within("sim.rest", |_| sim.run_until(Time(until + REST_TICKS)));
            rest_msgs_per_node += (sim.metrics().counter("tx.total") - before) as f64 / n as f64;

            // replay B: handler time against simulator self time
            let nodes = make_ssr_nodes(&labels, SsrConfig::default());
            let (sim, tally) = replay_timed(
                tr,
                topo,
                Timed::wrap(nodes, Some(wire_len)),
                LinkConfig::ideal(),
                g,
                until,
                "core.node.handler",
            );
            report.determinism_breaks += u64::from(
                crate::common::Counters::of(&sim) != expect.counters
                    || sim.metrics().counter("rx.wasted") != expect.wasted,
            );
            layer.absorb(&sim);
            handlers.absorb(&tally);
        });
    }
    layer.run_s = tr.total_s("sim.run_until");
    layer.self_s = Some(tr.total_self_s("sim.run_until"));
    layer.report(&mut report);
    report_handlers(&mut report, "core.node", &handlers, true);
    report_messages(&mut report, "core.node", &reference);
    report.set(
        "core.node.rest_msgs_per_node_per_kilotick",
        rest_msgs_per_node / reference.len() as f64 * 1000.0 / REST_TICKS as f64,
    );
    report.set(
        "core.message.wire_bytes_per_msg",
        handlers.wire_bytes as f64 / handlers.wire_msgs.max(1) as f64,
    );

    let check_s = tr.total_s("core.consistency.check_ring");
    let checks = tr.calls("core.consistency.check_ring");
    report.set("core.consistency.check_s", check_s);
    report.set("core.consistency.checks", checks as f64);
    report.set(
        "core.consistency.check_ring_us",
        check_s * 1e6 / checks.max(1) as f64,
    );

    isprp_baseline(cfg, tr, &mut report, &reference[0]);
    scaling(cfg, tr, &mut report, &reference);

    let over = |f: fn(&Outcome) -> f64| reference.iter().map(f).fold(0.0, f64::max);
    report.set(
        "ticks_to_consistent.max",
        over(Outcome::ticks_to_consistent),
    );
    report.set("msgs_per_node.max", over(Outcome::msgs_per_node));

    report.set("graph.instance_ms", tr.total_s("graph.instance") * 1e3);
    report.set(
        "core.bootstrap.make_nodes_ms",
        tr.total_s("core.bootstrap.make_nodes") * 1e3,
    );
    report.set("sim.new_ms", tr.total_s("sim.new") * 1e3);
    // what the untraced run spends in the same calls: replay B's run plus
    // replay A's checks
    let traced_wall = layer.run_s + check_s;
    report.set(
        "trace.overhead_pct",
        (traced_wall - untraced_wall) / untraced_wall * 100.0,
    );
    report
}

/// The paper's E6 comparison on the first corpus graph: what ISPRP with its
/// representative flood costs relative to the linearized bootstrap.
fn isprp_baseline(cfg: &Config, tr: &mut Tracer, report: &mut Report, linearized: &Outcome) {
    let (topo, labels) = topology(cfg.sizes.ssr_n).instance(cfg.corpus);
    let config = BootstrapConfig {
        seed: cfg.corpus,
        max_ticks: BUDGET,
        ..BootstrapConfig::default()
    };
    let (isprp, _) = tr.within("core.isprp.bootstrap", |_| {
        run_isprp_bootstrap(&topo, &labels, &config)
    });
    report.attempted += 1;
    report.failed += u64::from(!isprp.converged);
    let floods = isprp
        .messages
        .iter()
        .find(|(kind, _)| kind == "msg.flood")
        .map_or(0, |&(_, count)| count);
    report.set(
        "core.isprp.msgs_ratio",
        isprp.total_messages as f64 / linearized.counters.tx as f64,
    );
    report.set(
        "core.isprp.ticks_ratio",
        isprp.ticks as f64 / linearized.counters.ticks as f64,
    );
    report.set("core.isprp.flood_msgs", floods as f64);
}

/// Log-log slope of messages and ticks against n, over the two smaller
/// sizes and the corpus size, each point the median over the corpus seeds.
fn scaling(cfg: &Config, tr: &mut Tracer, report: &mut Report, at_n: &[Outcome]) {
    let graphs = cfg.corpus..cfg.corpus + cfg.sizes.ssr_graphs;
    let mut msgs = Vec::new();
    let mut ticks = Vec::new();
    let mut point = |n: usize, outcomes: &[Outcome]| {
        let med =
            |f: fn(&Outcome) -> f64| stats::median(&outcomes.iter().map(f).collect::<Vec<_>>());
        msgs.push((n as f64, med(|o| o.counters.tx as f64)));
        ticks.push((n as f64, med(|o| o.counters.ticks as f64)));
    };
    for n in cfg.sizes.scaling_n {
        let outcomes = tr.within("scaling.bootstraps", |_| outcomes_at(n, graphs.clone()));
        report.attempted += outcomes.len() as u64;
        report.failed += outcomes.iter().filter(|o| o.failed()).count() as u64;
        point(n, &outcomes);
    }
    point(cfg.sizes.ssr_n, at_n);
    report.set("scaling.msgs_exponent", stats::loglog_slope(&msgs));
    report.set("scaling.ticks_exponent", stats::loglog_slope(&ticks));
}
