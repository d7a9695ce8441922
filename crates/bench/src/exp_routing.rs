//! **E7 — routing over the converged ring.**
//!
//! "If the virtual ring has been formed consistently, this routing
//! algorithm is guaranteed to succeed for any source and destination
//! pair." This experiment bootstraps linearized SSR on unit-disk networks,
//! then routes `10·n` random pairs over the converged state: success rate
//! (must be 100%), mean virtual hops (polylog thanks to the cached LSN
//! shortcuts), and physical path stretch versus BFS shortest paths. It
//! also measures mid-convergence success (stopping the bootstrap early) to
//! show the guarantee is really about *consistency*, not luck.
//!
//! The interval base of the caches routed over is ROADMAP item 10(a)'s
//! trade-off: a second table puts the converged rows beside the same runs
//! at LSN base 4 (`ssr-cache-base4`, E9's ablation, on E7's graphs and
//! pairs) — entries per cache, the nodes they reach (every hop of every
//! cached route is a greedy candidate), virtual hops, stretch, and the
//! cached routes' own stretch (`route_x`, as `census` reads it).
//!
//! The n × seed sweep runs through the deterministic orchestrator
//! (docs/SWEEPS.md): output bytes never depend on `--workers`. The base-4
//! sweep takes the resolved matrix's sizes and seeds, recorded as
//! `matrix_base4`.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- exp_routing`
//! Flags: `--seeds K` (default 5), `--workers N`, `--matrix SPEC` (e.g.
//! `n=100,200;seeds=3`), `--csv PATH`.

use std::collections::BTreeSet;

use ssr_core::bootstrap::{make_ssr_nodes, BootstrapConfig};
use ssr_core::routing::{RoutingStats, RoutingView};
use ssr_core::{BootstrapReport, SsrNode};
use ssr_graph::{algo, Labeling};
use ssr_sim::{LinkConfig, Metrics, Simulator, Time};
use ssr_types::{NodeId, Rng};
use ssr_workloads::{scenario::traffic_pairs, Matrix, Summary, Table};

use crate::cells::{instance_seed, representative, unit_disk_bootstrap};
use crate::exp_state::{base, SSR_SCENARIOS};
use crate::Shell;

/// What routing read on a converged ring, and the caches it read.
struct Converged {
    stats: RoutingStats,
    /// Mean cache entries per node.
    entries: f64,
    /// Mean distinct nodes per cache its routes pass, owner excluded.
    reach: f64,
    /// Cached routes' hops over the BFS distance between their ends,
    /// summed over every entry before dividing.
    route_x: f64,
}

struct SeedResult {
    converged: Converged,
    early: RoutingStats,
    metrics: Metrics,
    // representative seed only
    timeline: Option<Vec<ssr_core::ConvergencePoint>>,
}

/// One run to the consistent ring on E7's instance, with its ground truth
/// and traffic.
struct Run {
    labels: Labeling,
    /// `dist[u]`: BFS hop distances from node `u`.
    dist: Vec<Vec<u32>>,
    /// The run's `10·n` seed-drawn pairs.
    pairs: Vec<(usize, usize)>,
    cfg: BootstrapConfig,
    report: BootstrapReport,
    sim: Simulator<SsrNode>,
}

impl Run {
    /// Run `seed` at size `n` with the LSN interval base of `cache`, one of
    /// E9's [`SSR_SCENARIOS`].
    fn converge(n: usize, seed: u64, cache: &str) -> Run {
        let mut cfg = BootstrapConfig {
            seed,
            max_ticks: 300_000,
            ..Default::default()
        };
        cfg.ssr.partition_base = base(cache).expect("an SSR cache has an interval base");
        let (g, labels, report, sim) = unit_disk_bootstrap(n, instance_seed(seed, 7919, n), &cfg);
        assert!(report.converged, "bootstrap failed for n={n} seed={seed} cache={cache}");
        Run {
            labels,
            dist: (0..n).map(|u| algo::bfs_distances(&g, u)).collect(),
            pairs: traffic_pairs(n, 10 * n, &mut Rng::new(seed ^ 0xABCD)),
            cfg,
            report,
            sim,
        }
    }

    /// Routes the run's pairs over its converged nodes, feeding `metrics`'
    /// route histograms, and reads the caches.
    fn converged(&self, metrics: &mut Metrics) -> Converged {
        let (nodes, labels, dist) = (self.sim.protocols(), &self.labels, &self.dist);
        let view = RoutingView::new(nodes);
        let budget = 4 * nodes.len() as u32;
        let mut stats = RoutingStats::default();
        for &(a, b) in &self.pairs {
            let out = view.route(labels.id(a), labels.id(b), budget);
            stats.record_observed(out, dist[a][b], metrics);
        }
        let (mut hops, mut shortest, mut reach) = (0, 0, 0);
        for (u, node) in nodes.iter().enumerate() {
            let mut passed: BTreeSet<NodeId> = BTreeSet::new();
            for (dst, route) in node.cache().iter() {
                passed.extend(route.hops()[1..].iter().filter(|&&h| h != node.id()));
                if let Some(v) = labels.index(dst) {
                    hops += route.len() as u64;
                    shortest += u64::from(dist[u][v]);
                }
            }
            reach += passed.len();
        }
        let per_node = |x: usize| x as f64 / nodes.len() as f64;
        Converged {
            stats,
            entries: per_node(nodes.iter().map(|node| node.cache().len()).sum()),
            reach: per_node(reach),
            route_x: hops as f64 / shortest.max(1) as f64,
        }
    }
}

/// The E7 body.
pub fn run(sh: &mut Shell) {
    sh.man.seed(0);
    let matrix = sh.matrix(Matrix::new(
        ["unit-disk"],
        vec![50, 100, 200, 400],
        sh.seeds(5),
    ));
    let rep_seed = matrix.seeds[0];

    let sweep = sh.sweep(&matrix, |job| {
        let (n, seed) = (job.n, job.seed);
        let run = Run::converge(n, seed, SSR_SCENARIOS[0]);
        // mid-convergence snapshot: run the same system for only a few
        // ticks and measure routability
        let mut early_sim = Simulator::new(
            run.sim.topology().clone(),
            make_ssr_nodes(&run.labels, run.cfg.ssr),
            LinkConfig::ideal(),
            seed,
        );
        early_sim.run_until(Time(6));
        let mut early = RoutingStats::default();
        let early_view = RoutingView::new(early_sim.protocols());
        for &(a, b) in &run.pairs {
            let out = early_view.route(run.labels.id(a), run.labels.id(b), 4 * n as u32);
            early.record(out, run.dist[a][b]);
        }
        // converged-phase routes feed the route.len / route.stretch_milli
        // histograms; registries merge across seeds after the sweep
        let mut metrics = Metrics::new();
        SeedResult {
            converged: run.converged(&mut metrics),
            early,
            metrics,
            timeline: (seed == rep_seed).then_some(run.report.timeline),
        }
    });
    // the same runs at LSN interval base 4
    let base4 = Matrix {
        scenarios: vec![SSR_SCENARIOS[1].to_string()],
        ..matrix.clone()
    };
    sh.man.config("matrix_base4", base4.describe());
    // their histograms stay out of the manifest, which the main rows own
    let base4_sweep = sh.sweep(&base4, |job| {
        Run::converge(job.n, job.seed, base4.name(job)).converged(&mut Metrics::new())
    });

    sh.table(
        "E7: greedy routing after the linearized bootstrap (unit-disk)",
        &[
            "n",
            "phase",
            "success rate",
            "virt hops (mean)",
            "stretch (mean)",
        ],
    );
    for (_, n, results) in sweep.cells() {
        type Phase = fn(&SeedResult) -> &RoutingStats;
        let phases: [(&str, Phase); 2] = [
            ("converged", |r| &r.converged.stats),
            ("t = 6 (mid-bootstrap)", |r| &r.early),
        ];
        for (phase, stats) in phases {
            let mean = |of: fn(&RoutingStats) -> f64| {
                Summary::of(&results.iter().map(|r| of(stats(r))).collect::<Vec<_>>()).mean
            };
            sh.row(&[
                n.to_string(),
                phase.into(),
                format!("{:.1}%", mean(|s| s.success_rate() * 100.0)),
                format!("{:.2}", mean(RoutingStats::mean_virtual_hops)),
                format!("{:.2}", mean(RoutingStats::stretch)),
            ]);
        }
    }

    sh.note("\npaper claim: 100% delivery once the ring is globally consistent; the");
    sh.note("mid-bootstrap row shows the guarantee comes from consistency, not chance.");
    let base2 = sweep.cells().map(|(_, n, results)| {
        let converged: Vec<&Converged> = results.iter().map(|r| &r.converged).collect();
        (n, converged)
    });
    let base4 = base4_sweep.cells().map(|(_, _, results)| results.iter().collect());
    sh.note(format!("\n{}", base_table(base2.zip(base4)).render().trim_end()));
    sh.note("entries: cached routes per node; reach: the nodes they pass, each a greedy");
    sh.note("candidate; route_x: the cached routes' hops over BFS. Graphs, seeds and pairs");
    sh.note("are the main table's.");

    // Manifest: route.len / route.stretch_milli histograms merged across
    // every seed and size; timeline from the representative-seed run at the
    // last (largest) n.
    sh.man.record_metrics(&sweep.merge_metrics(|r| &r.metrics));
    if let Some((n, Some(tl))) = representative(&sweep).map(|(n, r)| (n, &r.timeline)) {
        sh.man.config("timeline_n", n);
        sh.timeline(tl);
    }
}

/// The converged rows at each n by interval base: each column a mean over
/// the seeds, as the main table's.
fn base_table<'a>(cells: impl Iterator<Item = ((usize, Vec<&'a Converged>), Vec<&'a Converged>)>) -> Table {
    let mut table = Table::new(
        "E7 by LSN interval base: the converged caches routed over (base 4 = E9's ssr-cache-base4)",
        &["n", "cache", "entries", "reach", "virt hops", "stretch", "route_x"],
    );
    for ((n, base2), base4) in cells {
        for (name, runs) in SSR_SCENARIOS.into_iter().zip([base2, base4]) {
            let mean = |of: fn(&Converged) -> f64| {
                Summary::of(&runs.iter().map(|r| of(r)).collect::<Vec<_>>()).mean
            };
            table.row(&[
                n.to_string(),
                name.to_string(),
                format!("{:.1}", mean(|r| r.entries)),
                format!("{:.1}", mean(|r| r.reach)),
                format!("{:.2}", mean(|r| r.stats.mean_virtual_hops())),
                format!("{:.2}", mean(|r| r.stats.stretch())),
                format!("{:.2}", mean(|r| r.route_x)),
            ]);
        }
    }
    table
}
