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
//!   *is* the LSN structure).
//!
//! The interval base is the ablation: `engine/lsn` and `ssr-cache` use the
//! paper's base 2, their `-base4` rows base 4 (`engine/memory` keeps every
//! edge and has no base).
//!
//! Both sweeps run through the deterministic orchestrator (docs/SWEEPS.md):
//! output bytes never depend on `--workers`. `--matrix` governs the SSR
//! cache sweep (the protocol-level measurement); the engine comparison
//! keeps its fixed size ladder, recorded as `matrix_engine`.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- exp_state`
//! Flags: `--seeds K` (default 5), `--workers N`, `--matrix SPEC` (e.g.
//! `scenario=ssr-cache;n=100,200;seeds=3`), `--csv PATH`.

use ssr_core::bootstrap::BootstrapConfig;
use ssr_linearize::{Semantics, Variant};
use ssr_sim::Metrics;
use ssr_types::IntervalPartition;
use ssr_workloads::{stats::percentile, Matrix, Summary, Topology};

use crate::cells::{abstract_run, instance_seed, unit_disk_bootstrap};
use crate::Shell;

/// The abstract-engine rows: with-memory retention, then LSN at the
/// paper's interval base and at base 4.
const ENGINE_SCENARIOS: [&str; 3] = ["engine/memory", "engine/lsn", "engine/lsn-base4"];

/// The SSR route-cache rows, at interval base 2 and 4.
const SSR_SCENARIOS: [&str; 2] = ["ssr-cache", "ssr-cache-base4"];

/// The SSR scenario whose bootstrap timeline the manifest records (at the
/// largest n and the first seed).
const TIMELINE_SCENARIO: &str = "ssr-cache";

/// Scenario → the LSN interval base it runs with; `None` for
/// `engine/memory`, which keeps every edge.
fn base(scenario: &str) -> Option<u64> {
    match scenario {
        "engine/memory" => None,
        "engine/lsn" | "ssr-cache" => Some(2),
        "engine/lsn-base4" | "ssr-cache-base4" => Some(4),
        other => panic!("unknown scenario {other}"),
    }
}

/// The E9 body.
pub fn run(sh: &mut Shell) {
    let seeds = sh.seeds(5);
    sh.man.seed(0);
    let ssr_matrix = sh.matrix(Matrix::new(SSR_SCENARIOS, vec![50, 100, 200, 400], seeds));
    let engine_matrix = Matrix::new(ENGINE_SCENARIOS, vec![64, 256, 1024, 4096], seeds);
    sh.man.config("matrix_engine", engine_matrix.describe());
    let rep_seed = ssr_matrix.seeds[0];

    sh.table(
        "E9: per-node state (LSN interval base 2; -base4 rows: base 4)",
        &["n", "system", "peak degree / max cache", "mean", "p99"],
    );
    let mut merged = Metrics::new();

    // abstract engine: memory vs LSN peak degree
    let engine = sh.sweep(&engine_matrix, |job| {
        let variant = base(engine_matrix.name(job))
            .map_or(Variant::Memory, |b| Variant::Lsn(IntervalPartition::new(b)));
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
        let (n, seed, name) = (job.n, job.seed, ssr_matrix.name(job));
        let mut cfg = BootstrapConfig {
            seed,
            max_ticks: 300_000,
            ..Default::default()
        };
        cfg.ssr.partition_base = base(name).expect("an SSR cache has an interval base");
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
        let timeline = (seed == rep_seed && name == TIMELINE_SCENARIO).then_some(report.timeline);
        (entries, sim.metrics().clone(), timeline)
    });
    for (name, n, all) in sweep.cells() {
        for (_, m, _) in all {
            merged.merge(m);
        }
        let mut flat: Vec<f64> = all.iter().flat_map(|(e, _, _)| e.iter().copied()).collect();
        let s = Summary::of(&flat);
        let p99 = percentile(&mut flat, 99.0);
        sh.row(&[
            n.to_string(),
            name.replace('-', " "),
            format!("{:.0}", s.max),
            format!("{:.1}", s.mean),
            format!("{p99:.0}"),
        ]);
    }

    sh.note("\npaper claim: with-memory state grows with n; LSN state stays O(log n) per");
    sh.note("side — the SSR route cache realizes the same bound (compare rows across n).");

    // Manifest: state.entries / state.peak_degree histograms merged across
    // every row; timeline from the base-2 cache's representative-seed run at
    // the last (largest) n.
    sh.man.record_metrics(&merged);
    let rep = sweep.cells().filter(|&(name, _, _)| name == TIMELINE_SCENARIO).last();
    if let Some((_, n, [(_, _, Some(tl)), ..])) = rep {
        sh.man.config("timeline_n", n);
        sh.timeline(tl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_scenario_sets_its_interval_base() {
        let table = [
            ("engine/memory", None),
            ("engine/lsn", Some(2)),
            ("engine/lsn-base4", Some(4)),
            ("ssr-cache", Some(2)),
            ("ssr-cache-base4", Some(4)),
        ];
        let scenarios: Vec<&str> = ENGINE_SCENARIOS.into_iter().chain(SSR_SCENARIOS).collect();
        assert_eq!(table.map(|(s, _)| s).to_vec(), scenarios);
        for (scenario, want) in table {
            assert_eq!(base(scenario), want, "{scenario}");
        }
        // the SSR rows always have a base; the timeline's row is base 2
        assert!(SSR_SCENARIOS.iter().all(|s| base(s).is_some()));
        assert_eq!(base(TIMELINE_SCENARIO), Some(2));
    }
}
