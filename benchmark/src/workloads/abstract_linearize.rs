//! `abstract_linearize`: the round-based engine on its own — LSN with star
//! semantics on power-law graphs, the setting of the "fewer than 39 rounds"
//! datapoint.
//!
//! It exercises `linearize::engine` and `graph` and bypasses `sim`, `core`
//! and `vrr` entirely, so only an engine or graph change may move it.

use std::time::Instant;

use ssr_graph::Graph;
use ssr_linearize::convergence::relabel_to_ranks;
use ssr_linearize::{chain_edges_present, run, step_round, Semantics, Variant};
use ssr_workloads::Topology;

use crate::common::{measure, secs_since, Config, Report};
use crate::span::Tracer;
use crate::stats;

/// Round budget of one run; far above anything LSN needs.
const MAX_ROUNDS: usize = 2_000;
/// The bound quoted for this setting: the line forms in fewer rounds.
const ROUND_BOUND: usize = 39;

fn topology(n: usize) -> Topology {
    Topology::PowerLaw { n, alpha: 2.0 }
}

/// What one run computed.
#[derive(Clone, Debug, PartialEq)]
struct Lined {
    /// Round at which every chain edge was present; `None` on budget.
    line_at: Option<usize>,
    chain_present: bool,
    final_edges: usize,
    peak_degree: usize,
    peak_edges: usize,
}

impl Lined {
    fn failed(&self) -> bool {
        !self.chain_present || self.line_at.is_none_or(|rounds| rounds >= ROUND_BOUND)
    }

    fn rounds(&self) -> f64 {
        self.line_at.map_or(f64::INFINITY, |rounds| rounds as f64)
    }
}

/// The timed section: relabel to ranks, then linearize to the line.
fn linearize(g: &Graph, labels: &ssr_graph::Labeling) -> (f64, Lined) {
    let start = Instant::now();
    let (ranked, _) = relabel_to_ranks(g, labels);
    let result = run(&ranked, Variant::lsn(), Semantics::Star, MAX_ROUNDS);
    let wall = secs_since(start);
    let lined = Lined {
        line_at: result.line_at,
        chain_present: chain_edges_present(&result.final_graph),
        final_edges: result.final_graph.edge_count(),
        peak_degree: result.peak_degree(),
        peak_edges: result.rounds.iter().map(|r| r.edges).max().unwrap_or(0),
    };
    (wall, lined)
}

/// Counts the runs of `passes` passes as operations and checks their outputs.
fn check_runs(report: &mut Report, runs: &[Lined], passes: u64) {
    report.attempted += runs.len() as u64 * passes;
    report.failed += runs.iter().filter(|r| r.failed()).count() as u64 * passes;
    for (i, r) in runs.iter().enumerate() {
        report.check(r.chain_present, || {
            format!("graph {i}: chain edges missing from the final graph")
        });
    }
}

pub fn untraced(cfg: &Config) -> Report {
    let n = cfg.sizes.lin_n;
    let graphs = cfg.corpus..cfg.corpus + cfg.sizes.lin_graphs;
    let m = measure::<_, Vec<Lined>>(
        cfg.seconds,
        false,
        || {
            graphs
                .clone()
                .map(|g| topology(n).instance(g))
                .collect::<Vec<_>>()
        },
        |inputs| {
            inputs
                .iter()
                .map(|(g, labels)| linearize(g, labels))
                .unzip()
        },
    );
    let mut report = Report::default();
    m.report(&mut report);
    report.set(
        "rounds_to_line",
        stats::median(&m.first.iter().map(Lined::rounds).collect::<Vec<_>>()),
    );
    check_runs(&mut report, &m.first, m.passes());
    report
}

pub fn traced(cfg: &Config, tr: &mut Tracer) -> Report {
    let n = cfg.sizes.lin_n;
    let graphs = cfg.corpus..cfg.corpus + cfg.sizes.lin_graphs;
    let mut report = Report::default();

    let mut untraced_wall = 0.0;
    let mut reference = Vec::new();
    for g in graphs.clone() {
        let (topo, labels) = topology(n).instance(g);
        let (wall, lined) = linearize(&topo, &labels);
        untraced_wall += wall;
        reference.push(lined);
    }
    check_runs(&mut report, &reference, 1);

    // the same runs round by round: `run` is `step_round` until the line
    let mut edge_rounds = 0u64;
    for (g, expect) in graphs.clone().zip(&reference) {
        tr.within("graph", |tr| {
            let (topo, labels) = tr.within("graph.instance", |_| topology(n).instance(g));
            tr.within("linearize.run", |tr| {
                let (mut current, _) =
                    tr.within("linearize.relabel", |_| relabel_to_ranks(&topo, &labels));
                let mut rounds = 0;
                let mut peak_edges = current.edge_count();
                let mut peak_degree = current.degree_stats().1;
                while !chain_edges_present(&current) && rounds < MAX_ROUNDS {
                    rounds += 1;
                    edge_rounds += current.edge_count() as u64;
                    current = tr.within("linearize.step_round", |_| {
                        step_round(&current, Variant::lsn(), Semantics::Star)
                    });
                    peak_edges = peak_edges.max(current.edge_count());
                    peak_degree = peak_degree.max(current.degree_stats().1);
                }
                let replayed = Lined {
                    line_at: chain_edges_present(&current).then_some(rounds),
                    chain_present: chain_edges_present(&current),
                    final_edges: current.edge_count(),
                    peak_degree,
                    peak_edges,
                };
                report.determinism_breaks += u64::from(replayed != *expect);
            });
        });
    }
    let round_ms = tr.each_ms("linearize.step_round");
    report.set(
        "linearize.relabel_ms",
        tr.total_s("linearize.relabel") * 1e3,
    );
    report.set(
        "linearize.round_ms.mean",
        round_ms.iter().sum::<f64>() / round_ms.len().max(1) as f64,
    );
    report.set(
        "linearize.round_ms.max",
        round_ms.iter().copied().fold(0.0, f64::max),
    );
    report.set(
        "linearize.ns_per_edge_round",
        tr.total_s("linearize.step_round") * 1e9 / edge_rounds.max(1) as f64,
    );
    let peak = |f: fn(&Lined) -> usize| reference.iter().map(f).max().unwrap_or(0) as f64;
    report.set("linearize.peak_degree", peak(|r| r.peak_degree));
    report.set("linearize.peak_edges", peak(|r| r.peak_edges));
    report.set("graph.instance_ms", tr.total_s("graph.instance") * 1e3);
    report.set(
        "trace.overhead_pct",
        (tr.total_s("linearize.run") - untraced_wall) / untraced_wall * 100.0,
    );
    report
}
