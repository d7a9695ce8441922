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
//! The n × seed sweep runs through the deterministic orchestrator
//! (docs/SWEEPS.md): output bytes never depend on `--workers`.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- exp_routing`
//! Flags: `--seeds K` (default 5), `--workers N`, `--matrix SPEC` (e.g.
//! `n=100,200;seeds=3`), `--csv PATH`.

use ssr_core::bootstrap::{make_ssr_nodes, BootstrapConfig};
use ssr_core::routing::{RoutingStats, RoutingView};
use ssr_graph::algo;
use ssr_sim::{LinkConfig, Metrics, Simulator, Time};
use ssr_types::Rng;
use ssr_workloads::{scenario::traffic_pairs, Matrix, Summary};

use crate::cells::{instance_seed, representative, unit_disk_bootstrap};
use crate::Shell;

struct SeedResult {
    converged: RoutingStats,
    early: RoutingStats,
    metrics: Metrics,
    // representative seed only
    timeline: Option<Vec<ssr_core::ConvergencePoint>>,
}

/// This experiment's own flags, beyond the shared `--seeds`, `--workers`,
/// `--matrix` and `--csv`; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &[];

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
        let cfg = BootstrapConfig {
            seed,
            max_ticks: 300_000,
            ..Default::default()
        };
        let (g, labels, report, sim) = unit_disk_bootstrap(n, instance_seed(seed, 7919, n), &cfg);
        assert!(report.converged, "bootstrap failed for n={n} seed={seed}");
        // mid-convergence snapshot: run the same system for only a few
        // ticks and measure routability
        let mut early_sim = Simulator::new(
            g.clone(),
            make_ssr_nodes(&labels, cfg.ssr),
            LinkConfig::ideal(),
            seed,
        );
        early_sim.run_until(Time(6));
        let mut rng = Rng::new(seed ^ 0xABCD);
        let pairs = traffic_pairs(n, 10 * n, &mut rng);
        let mut converged = RoutingStats::default();
        let mut early = RoutingStats::default();
        // converged-phase routes feed the route.len / route.stretch_milli
        // histograms; registries merge across seeds after the sweep
        let mut metrics = Metrics::new();
        let view = RoutingView::new(sim.protocols());
        let early_view = RoutingView::new(early_sim.protocols());
        // ground truth: one BFS per distinct source, on its first pair —
        // 10·n pairs draw at most n sources
        let mut dist_from: Vec<Option<Vec<u32>>> = vec![None; n];
        for &(a, b) in &pairs {
            let (src, dst) = (labels.id(a), labels.id(b));
            let shortest = dist_from[a].get_or_insert_with(|| algo::bfs_distances(&g, a))[b];
            converged.record_observed(view.route(src, dst, 4 * n as u32), shortest, &mut metrics);
            early.record(early_view.route(src, dst, 4 * n as u32), shortest);
        }
        SeedResult {
            converged,
            early,
            metrics,
            timeline: (seed == rep_seed).then_some(report.timeline),
        }
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
            ("converged", |r| &r.converged),
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

    // Manifest: route.len / route.stretch_milli histograms merged across
    // every seed and size; timeline from the representative-seed run at the
    // last (largest) n.
    sh.man.record_metrics(&sweep.merge_metrics(|r| &r.metrics));
    if let Some((n, Some(tl))) = representative(&sweep).map(|(n, r)| (n, &r.timeline)) {
        sh.man.config("timeline_n", n);
        sh.timeline(tl);
    }
}
