//! **E9 — router state: the LSN memory bound.**
//!
//! "Keeping all edges may require significant memory at the nodes.
//! Therefore, Onus et al. propose linearization with shortcut neighbors" —
//! at most one remembered edge per exponentially growing interval, so state
//! stays `O(log n)` per side while convergence stays polylogarithmic. This
//! experiment measures per-node state versus `n`:
//!
//! * abstract engine: peak degree under memory vs LSN retention;
//! * SSR protocol: cache entries at the end of the bootstrap (the cache
//!   *is* the LSN structure), with the interval base as ablation
//!   (`--base 4`).
//!
//! Both sweeps run through the deterministic orchestrator (docs/SWEEPS.md):
//! output bytes never depend on `--workers`. `--matrix` governs the SSR
//! cache sweep (the protocol-level measurement); the engine comparison
//! keeps its fixed size ladder, recorded as `matrix_engine`.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- exp_state`
//! Flags: `--seeds K` (default 5), `--base B` (default 2), `--workers N`,
//! `--matrix SPEC` (e.g. `n=100,200;seeds=3`), `--csv PATH`.

use ssr_core::bootstrap::BootstrapConfig;
use ssr_linearize::{Semantics, Variant};
use ssr_sim::Metrics;
use ssr_types::IntervalPartition;
use ssr_workloads::{stats::percentile, Matrix, Summary, Topology};

use crate::cells::{abstract_run, instance_seed, representative, unit_disk_bootstrap};
use crate::Shell;

/// This experiment's own flags, beyond the shared `--seeds`, `--workers`,
/// `--matrix` and `--csv`; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &["base"];

/// The E9 body.
pub fn run(sh: &mut Shell) {
    let base: u64 = sh.args.get("base", 2);
    let seeds = sh.seeds(5);
    sh.man.seed(0).config("base", base);
    let ssr_matrix = sh.matrix(Matrix::new(["ssr-cache"], vec![50, 100, 200, 400], seeds));
    let engine_matrix = Matrix::new(
        ["engine/memory", "engine/lsn"],
        vec![64, 256, 1024, 4096],
        seeds,
    );
    sh.man.config("matrix_engine", engine_matrix.describe());
    let rep_seed = ssr_matrix.seeds[0];

    sh.table(
        format!("E9: per-node state (LSN interval base {base})"),
        &["n", "system", "peak degree / max cache", "mean", "p99"],
    );
    let mut merged = Metrics::new();

    // abstract engine: memory vs LSN peak degree
    let engine = sh.sweep(&engine_matrix, |job| {
        let variant = if engine_matrix.name(job) == "engine/memory" {
            Variant::Memory
        } else {
            Variant::Lsn(IntervalPartition::new(base))
        };
        let topo = Topology::Gnp { n: job.n, c: 2.0 };
        let instance = job.seed.wrapping_mul(3);
        abstract_run(topo, instance, variant, Semantics::Star, 4000).peak_degree() as f64
    });
    for (scenario, n, peaks) in engine.cells() {
        let s = Summary::of(peaks);
        for &p in peaks {
            merged.observe_hist("state.peak_degree", p as u64);
        }
        sh.row(&[
            n.to_string(),
            scenario.into(),
            format!("{:.0}", s.max),
            format!("{:.1}", s.mean),
            "-".into(),
        ]);
    }

    // SSR protocol: cache entries at the end of the bootstrap
    let sweep = sh.sweep(&ssr_matrix, |job| {
        let (n, seed) = (job.n, job.seed);
        let mut cfg = BootstrapConfig {
            seed,
            max_ticks: 300_000,
            ..Default::default()
        };
        cfg.ssr.partition_base = base;
        let (_, _, report, sim) = unit_disk_bootstrap(n, instance_seed(seed, 11, n), &cfg);
        assert!(report.converged, "n={n} seed={seed}");
        let entries: Vec<f64> = sim
            .protocols()
            .iter()
            .map(|p| p.cache().len() as f64)
            .collect();
        // the bootstrap runner already observed state.entries into the
        // sim's registry; carry it (and the timeline, on the
        // representative seed) out
        let timeline = (seed == rep_seed).then_some(report.timeline);
        (entries, sim.metrics().clone(), timeline)
    });
    for (_, n, all) in sweep.cells() {
        for (_, m, _) in all {
            merged.merge(m);
        }
        let mut flat: Vec<f64> = all.iter().flat_map(|(e, _, _)| e.iter().copied()).collect();
        let s = Summary::of(&flat);
        let p99 = percentile(&mut flat, 99.0);
        sh.row(&[
            n.to_string(),
            "ssr cache".into(),
            format!("{:.0}", s.max),
            format!("{:.1}", s.mean),
            format!("{p99:.0}"),
        ]);
    }

    sh.note("\npaper claim: with-memory state grows with n; LSN state stays O(log n) per");
    sh.note("side — the SSR route cache realizes the same bound (compare rows across n).");

    // Manifest: state.entries / state.peak_degree histograms merged across
    // every seed and size; timeline from the representative-seed run at the
    // last (largest) n.
    sh.man.record_metrics(&merged);
    if let Some((n, (_, _, Some(tl)))) = representative(&sweep) {
        sh.man.config("timeline_n", n);
        sh.timeline(tl);
    }
}
