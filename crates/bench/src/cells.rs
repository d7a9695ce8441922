//! The cells more than one experiment runs, one function each: the
//! abstract-engine run with its histogram and round-timeline recording
//! (E3, E4, E5, E9), the unit-disk linearized bootstrap and its
//! representative-run epilogue (E6, E7, E9, E10), the SSR simulator run to
//! a consistent ring (E8, E11), the overlay-only world run and its table
//! (E4, E5, E6), and the message-kind lookup.

use ssr_core::bootstrap::{
    make_ssr_nodes, run_linearized_bootstrap, BootstrapConfig, BootstrapReport,
};
use ssr_core::consistency;
use ssr_core::node::{SsrConfig, SsrNode};
use ssr_graph::{Graph, Labeling};
use ssr_linearize::world::{Faults, World, WorldRun};
use ssr_linearize::{LinearizeRun, Semantics, Variant};
use ssr_obs::{Manifest, TimelinePoint};
use ssr_sim::{LinkConfig, Metrics, RunOutcome, Simulator, TraceSink};
use ssr_workloads::{Matrix, Summary, SweepOutcome, Table, Topology};

use crate::Shell;

/// Tick budget of every run to the consistent ring.
pub const RING_BUDGET: u64 = 300_000;

/// The topology-instance seed of run `seed` at size `n`. Each experiment
/// passes its own `salt`, which keeps the experiments' instance streams
/// disjoint.
pub fn instance_seed(seed: u64, salt: u64, n: usize) -> u64 {
    seed.wrapping_mul(salt) ^ n as u64
}

/// The count of one message kind (`msg.*` key) in a bootstrap report's
/// per-kind list; zero when the kind never occurred.
pub fn message_count(messages: &[(String, u64)], kind: &str) -> u64 {
    messages
        .iter()
        .find(|(k, _)| k == kind)
        .map_or(0, |(_, v)| *v)
}

/// One abstract-engine run on the `topo` instance drawn from
/// `instance_seed`, rank-relabelled so index order = identifier order.
pub fn abstract_run(
    topo: Topology,
    instance_seed: u64,
    variant: Variant,
    semantics: Semantics,
    budget: usize,
) -> LinearizeRun {
    let (g, labels) = topo.instance(instance_seed);
    let (rg, _) = ssr_linearize::convergence::relabel_to_ranks(&g, &labels);
    ssr_linearize::run(&rg, variant, semantics, budget)
}

/// What a sweep keeps of one abstract run.
#[derive(Clone, Copy)]
pub struct Rounds {
    /// Rounds until the line formed; `None` if the run hit its budget.
    pub to_line: Option<usize>,
    /// Largest node degree observed in any round.
    pub peak_degree: usize,
}

impl From<&LinearizeRun> for Rounds {
    fn from(run: &LinearizeRun) -> Rounds {
        Rounds {
            to_line: run.line_at,
            peak_degree: run.peak_degree(),
        }
    }
}

/// One (scenario, n) cell of an abstract sweep, folded over its seeds.
pub struct RoundsCell {
    /// Rounds-to-line over the runs that converged.
    pub rounds: Summary,
    /// How many runs reached the line within their budget.
    pub converged: usize,
    /// How many runs the cell holds.
    pub runs: usize,
    /// Largest peak degree over all runs.
    pub peak: usize,
}

impl RoundsCell {
    /// Folds a cell's per-seed results, feeding the sweep-wide run
    /// counters and the `rounds.to_line` / `state.peak_degree` histograms.
    pub fn fold(results: &[Rounds], metrics: &mut Metrics) -> RoundsCell {
        let mut rounds = Vec::new();
        for r in results {
            metrics.incr("runs.total");
            if let Some(at) = r.to_line {
                metrics.incr("runs.converged");
                metrics.observe_hist("rounds.to_line", at as u64);
                rounds.push(at as f64);
            }
            metrics.observe_hist("state.peak_degree", r.peak_degree as u64);
        }
        RoundsCell {
            rounds: Summary::of(&rounds),
            converged: rounds.len(),
            runs: results.len(),
            peak: results.iter().map(|r| r.peak_degree).max().unwrap_or(0),
        }
    }

    /// The cell's `(log₂ n, log₂ mean rounds)` point for a growth fit;
    /// `None` when the mean is zero (nothing converged, or the input was
    /// already a line), where the logarithm is undefined.
    pub fn fit_point(&self, n: usize) -> Option<(f64, f64)> {
        (self.rounds.mean > 0.0).then(|| ((n as f64).log2(), self.rounds.mean.log2()))
    }

    /// The three table cells every abstract sweep ends its rows with:
    /// `rounds (mean ± ci)`, `max`, `peak degree`.
    pub fn columns(&self) -> [String; 3] {
        [
            self.rounds.fmt(1),
            format!("{:.0}", self.rounds.max),
            self.peak.to_string(),
        ]
    }
}

/// The scenarios of `matrix` that `keep` accepts, as a matrix of their
/// own; `None` if it accepts none. An experiment whose rows come from two
/// kinds of run sweeps each part on its own.
pub fn part(matrix: &Matrix, keep: impl Fn(&str) -> bool) -> Option<Matrix> {
    let mut part = matrix.clone();
    part.scenarios.retain(|s| keep(s));
    (!part.scenarios.is_empty()).then_some(part)
}

/// The overlay-only world (`ssr_linearize::world`, FIFO ticks, the
/// counter-clockwise probes on) on `g`, to the consistent ring or
/// [`RING_BUDGET`].
pub fn world_run(g: &Graph, labels: &Labeling) -> WorldRun {
    World::new(g, labels, Faults::NONE).run(RING_BUDGET)
}

/// One (scenario, n) cell of world runs, folded over its seeds.
pub struct WorldCell {
    /// Ticks to the ring over the runs that converged.
    pub ticks: Summary,
    /// How many runs reached the ring within the budget.
    pub converged: usize,
    /// How many runs the cell holds.
    pub runs: usize,
    /// Overlay messages per node, mean over the runs.
    pub msgs_per_node: f64,
    /// Largest physical degree over the runs.
    pub max_degree: usize,
    /// Most handshakes one node started, over the runs.
    pub max_handshakes: u64,
}

impl WorldCell {
    /// The world table's columns after its label columns.
    pub const HEADERS: [&'static str; 6] = [
        "conv",
        "ticks (mean ± ci)",
        "max",
        "msgs/node",
        "max degree",
        "handshakes/node (max)",
    ];

    /// Folds a cell's per-seed runs over `n` nodes.
    pub fn fold(runs: &[WorldRun], n: usize) -> WorldCell {
        let ticks: Vec<f64> = (runs.iter().filter(|r| r.converged))
            .map(|r| r.ticks as f64)
            .collect();
        let messages: u64 = runs.iter().map(WorldRun::messages).sum();
        WorldCell {
            ticks: Summary::of(&ticks),
            converged: ticks.len(),
            runs: runs.len(),
            msgs_per_node: messages as f64 / (n * runs.len()).max(1) as f64,
            max_degree: runs.iter().map(|r| r.max_degree).max().unwrap_or(0),
            max_handshakes: runs.iter().map(|r| r.max_handshakes).max().unwrap_or(0),
        }
    }

    /// The cells under [`WorldCell::HEADERS`].
    pub fn columns(&self) -> [String; 6] {
        [
            format!("{}/{}", self.converged, self.runs),
            self.ticks.fmt(0),
            format!("{:.0}", self.ticks.max),
            format!("{:.1}", self.msgs_per_node),
            self.max_degree.to_string(),
            self.max_handshakes.to_string(),
        ]
    }
}

/// The world rows of an engine experiment (E4, E5) as a table printed
/// after its notes: `labels` name the leading columns, each row gives
/// their cells and its folded [`WorldCell`]. A run that does not reach
/// the ring fails the experiment.
pub fn world_table(
    sh: &mut Shell,
    title: &str,
    labels: &[&str],
    rows: Vec<(Vec<String>, WorldCell)>,
) {
    let headers: Vec<&str> = labels.iter().copied().chain(WorldCell::HEADERS).collect();
    let mut table = Table::new(title, &headers);
    for (mut cells, cell) in rows {
        if cell.converged < cell.runs {
            sh.fail(format!("world: {} did not reach the ring", cells.join(" ")));
        }
        cells.extend(cell.columns());
        table.row(&cells);
    }
    sh.note(format!("\n{}", table.render().trim_end()));
}

/// Records one abstract run over `n` nodes as the manifest's round-by-round
/// timeline (tick = round).
pub fn record_round_timeline(man: &mut Manifest, run: &LinearizeRun, n: usize) {
    for rs in &run.rounds {
        let formed = run.line_at.is_some_and(|at| rs.round >= at);
        man.timeline_point(TimelinePoint {
            tick: rs.round as u64,
            shape: if formed { "line" } else { "line-forming" }.to_string(),
            locally_consistent: (n.saturating_sub(rs.missing_chain)) as u64,
            nodes: n as u64,
            churn: (rs.added + rs.removed) as u64,
        });
    }
}

/// The connected unit-disk network (the MANET substrate SSR targets, at
/// the density the bootstrap experiments share) drawn from `instance_seed`.
pub fn unit_disk(n: usize, instance_seed: u64) -> (Graph, Labeling) {
    Topology::UnitDisk { n, scale: 1.3 }.instance(instance_seed)
}

/// The linearized SSR bootstrap over [`unit_disk`].
pub fn unit_disk_bootstrap(
    n: usize,
    instance_seed: u64,
    cfg: &BootstrapConfig,
) -> (Graph, Labeling, BootstrapReport, Simulator<SsrNode>) {
    let (g, labels) = unit_disk(n, instance_seed);
    let (report, sim) = run_linearized_bootstrap(&g, &labels, cfg);
    (g, labels, report, sim)
}

/// The "representative linearized run" epilogue: re-runs the first matrix
/// seed at the largest n and dumps its full metric registry and
/// convergence timeline into the manifest (the sweep's own numbers ride
/// along as extras).
pub fn record_representative_bootstrap(
    sh: &mut Shell,
    matrix: &Matrix,
    salt: u64,
    mut cfg: BootstrapConfig,
) -> BootstrapReport {
    let n = *matrix.sizes.last().expect("matrix has a size");
    cfg.seed = matrix.seeds[0];
    let (_, _, report, sim) = unit_disk_bootstrap(n, instance_seed(cfg.seed, salt, n), &cfg);
    sh.man.config("timeline_n", n).record_metrics(sim.metrics());
    sh.timeline(&report.timeline);
    report
}

/// The run a sweep's manifest timeline comes from — first seed of the last
/// (largest) size — with that size. Cells capture their timeline only on
/// the first matrix seed, so this is where it is.
pub fn representative<O>(sweep: &SweepOutcome<O>) -> Option<(usize, &O)> {
    let (_, n, results) = sweep.cells().last()?;
    Some((n, results.first()?))
}

/// An SSR simulator over `g`, with the causal ledger on when `ledger` is
/// set (it never touches the RNG, so the run is the same either way).
pub fn ssr_sim(
    g: &Graph,
    labels: &Labeling,
    config: SsrConfig,
    link: LinkConfig,
    seed: u64,
    ledger: bool,
) -> Simulator<SsrNode> {
    let nodes = make_ssr_nodes(labels, config);
    if ledger {
        Simulator::instrumented(g.clone(), nodes, link, seed, TraceSink::disabled())
    } else {
        Simulator::new(g.clone(), nodes, link, seed)
    }
}

/// Runs `sim` until the virtual ring is globally consistent and stays so
/// (checked every 8 ticks), or [`RING_BUDGET`] runs out.
pub fn run_to_ring(sim: &mut Simulator<SsrNode>) -> RunOutcome {
    sim.run_until_stable(8, RING_BUDGET, |nodes, _| {
        consistency::check_ring(nodes).consistent()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_count_defaults_to_zero() {
        let messages = vec![("msg.hello".to_string(), 7)];
        assert_eq!(message_count(&messages, "msg.hello"), 7);
        assert_eq!(message_count(&messages, "msg.flood"), 0);
    }

    #[test]
    fn fit_point_needs_a_positive_mean() {
        let mut m = Metrics::new();
        let none = RoundsCell::fold(
            &[Rounds {
                to_line: None,
                peak_degree: 3,
            }],
            &mut m,
        );
        assert_eq!((none.converged, none.runs, none.peak), (0, 1, 3));
        assert_eq!(none.fit_point(64), None);
        let some = RoundsCell::fold(
            &[Rounds {
                to_line: Some(4),
                peak_degree: 5,
            }],
            &mut m,
        );
        assert_eq!(some.fit_point(64), Some((6.0, 2.0)));
        assert_eq!(m.counter("runs.total"), 2);
        assert_eq!(m.counter("runs.converged"), 1);
    }
}
