//! `vrr_bootstrap`: the second protocol on the shared simulator —
//! linearized VRR to the consistent ring under the freeze watchdog.
//!
//! It guards the planned extraction of the handshake core both protocols
//! duplicate, and it keeps DESIGN finding 7 (the crossing-state freeze) in
//! view: the gated graphs all converge at the commit that defined the
//! benchmark, so a freeze among them is a failed operation, and the traced
//! run adds a census over more graphs that counts the freezes there are.
//! The 20 000-tick budget bounds a run that never converges.

use std::time::Instant;

use ssr_sim::{LinkConfig, Simulator};
use ssr_vrr::bootstrap::make_vrr_nodes;
use ssr_vrr::{run_vrr_bootstrap_watched, vrr_ring_consistent, VrrConfig, VrrMode, VrrNode};
use ssr_workloads::Topology;

use crate::common::{measure, secs_since, Config, Counters, Report};
use crate::protocol::{
    check_outcomes, replay_sliced, replay_timed, report_costs, report_handlers, report_messages,
    Outcome, SimLayer,
};
use crate::span::Tracer;
use crate::timed::{Tally, Timed};

const MAX_TICKS: u64 = 20_000;
const FREEZE_WINDOW: u64 = 3_000;
/// Verdict labels of `ssr_sim::Verdict` other than `converged`.
const FREEZE_VERDICTS: [&str; 3] = ["frozen_crossing", "frozen_stuck", "active"];
/// The gated graphs start this far into the corpus: with the default corpus
/// they are seeds 7 to 16, the first ten consecutive ones on which
/// linearized VRR converges at the commit that defined the benchmark (seed
/// 6 ends `frozen_crossing`). The census takes the thirty seeds after them.
const FIRST_GRAPH: u64 = 6;

fn gated(cfg: &Config) -> std::ops::Range<u64> {
    let first = cfg.corpus + FIRST_GRAPH;
    first..first + cfg.sizes.vrr_graphs
}

fn topology(n: usize) -> Topology {
    Topology::UnitDisk { n, scale: 1.3 }
}

fn table_entries(node: &VrrNode) -> usize {
    node.table().len()
}

fn linearized() -> VrrConfig {
    VrrConfig {
        mode: VrrMode::Linearized,
        ..VrrConfig::default()
    }
}

/// The timed section: the one-call watched bootstrap (it builds its own
/// nodes and simulator, so only graph generation is set-up here).
fn bootstrap(topo: &ssr_graph::Graph, labels: &ssr_graph::Labeling, seed: u64) -> Run {
    let start = Instant::now();
    let (watch, sim) = run_vrr_bootstrap_watched(
        topo,
        labels,
        VrrMode::Linearized,
        LinkConfig::ideal(),
        seed,
        MAX_TICKS,
        FREEZE_WINDOW,
    );
    let wall = secs_since(start);
    Run {
        wall,
        verdict: watch.verdict,
        outcome: Outcome::of(&sim, watch.converged, table_entries),
    }
}

struct Run {
    wall: f64,
    verdict: &'static str,
    outcome: Outcome,
}

pub fn untraced(cfg: &Config) -> Report {
    let n = cfg.sizes.vrr_n;
    let graphs = gated(cfg);
    let m = measure::<_, Vec<Outcome>>(
        cfg.seconds,
        false,
        || {
            graphs
                .clone()
                .map(|g| (g, topology(n).instance(g)))
                .collect::<Vec<_>>()
        },
        |inputs| {
            inputs
                .iter()
                .map(|(g, (topo, labels))| {
                    let run = bootstrap(topo, labels, *g);
                    (run.wall, run.outcome)
                })
                .unzip()
        },
    );
    let mut report = Report::default();
    m.report(&mut report);
    report_costs(&mut report, &m.first, true);
    check_outcomes(&mut report, &m.first, m.passes());
    report
}

pub fn traced(cfg: &Config, tr: &mut Tracer) -> Report {
    let n = cfg.sizes.vrr_n;
    let graphs = gated(cfg);
    let mut report = Report::default();

    let mut untraced_wall = 0.0;
    let mut reference = Vec::new();
    for g in graphs.clone() {
        let (topo, labels) = topology(n).instance(g);
        let run = bootstrap(&topo, &labels, g);
        untraced_wall += run.wall;
        reference.push(run.outcome);
    }
    check_outcomes(&mut report, &reference, 1);

    let mut layer = SimLayer::default();
    let mut handlers = Tally::default();
    for (g, expect) in graphs.clone().zip(&reference) {
        let until = expect.counters.ticks;
        tr.within("graph", |tr| {
            let (topo, labels) = tr.within("graph.instance", |_| topology(n).instance(g));

            // replay A: plain nodes in 8-tick slices against the observer
            let nodes = make_vrr_nodes(&labels, linearized());
            let mut sim = tr.within("sim.new", |_| {
                Simulator::new(topo.clone(), nodes, LinkConfig::ideal(), g)
            });
            let ok = replay_sliced(
                tr,
                &mut sim,
                until,
                "vrr.ring_consistent",
                vrr_ring_consistent,
            );
            let replayed = Outcome::of(&sim, ok, table_entries);
            report.determinism_breaks += u64::from(replayed != *expect);

            // replay B: handler time against simulator self time
            let nodes = make_vrr_nodes(&labels, linearized());
            let (sim, tally) = replay_timed(
                tr,
                topo,
                Timed::wrap(nodes, None),
                LinkConfig::ideal(),
                g,
                until,
                "vrr.node.handler",
            );
            report.determinism_breaks += u64::from(Counters::of(&sim) != expect.counters);
            layer.absorb(&sim);
            handlers.absorb(&tally);
        });
    }
    layer.run_s = tr.total_s("sim.run_until");
    layer.self_s = Some(tr.total_self_s("sim.run_until"));
    layer.report(&mut report);
    report_handlers(&mut report, "vrr.node", &handlers, false);
    report_messages(&mut report, "vrr.node", &reference);
    let mean = reference.iter().map(|o| o.state_mean).sum::<f64>() / reference.len() as f64;
    let max = reference.iter().map(|o| o.state_max).max().unwrap_or(0);
    report.set("vrr.table.entries_mean", mean);
    report.set("vrr.table.entries_max", max as f64);

    census(cfg, tr, &mut report);

    report.set("graph.instance_ms", tr.total_s("graph.instance") * 1e3);
    report.set("sim.new_ms", tr.total_s("sim.new") * 1e3);
    // the untraced run also pays for the watchdog probe and the
    // consistency closure; replay A's checks stand in for both
    let traced_wall = layer.run_s + tr.total_s("vrr.ring_consistent");
    report.set(
        "trace.overhead_pct",
        (traced_wall - untraced_wall) / untraced_wall * 100.0,
    );
    report
}

/// How often linearized VRR freezes: the watched bootstrap over the graphs
/// that follow the gated ones, counted by watchdog verdict. These runs are
/// not operations of the workload — a freeze here is the finding being
/// measured, not a failure of the benchmark's inputs.
fn census(cfg: &Config, tr: &mut Tracer, report: &mut Report) {
    let first = gated(cfg).end;
    let mut verdicts = [0u64; FREEZE_VERDICTS.len()];
    tr.within("vrr.census", |_| {
        for g in first..first + cfg.sizes.vrr_census {
            let (topo, labels) = topology(cfg.sizes.vrr_n).instance(g);
            let run = bootstrap(&topo, &labels, g);
            if let Some(v) = FREEZE_VERDICTS.iter().position(|&v| v == run.verdict) {
                verdicts[v] += 1;
            }
        }
    });
    for (verdict, count) in FREEZE_VERDICTS.iter().zip(verdicts) {
        report.set(&format!("vrr.verdict.{verdict}"), count as f64);
    }
}
