//! **E4 — convergence class of the linearization variants.**
//!
//! Onus et al. (as summarized in the paper's Section 2): *pure*
//! linearization "may require many iterations for some graphs" (average
//! runtime linear), while *linearization with memory* and *LSN* converge in
//! polylogarithmically many rounds on average for random graphs. This sweep
//! measures rounds-to-line versus `n` for all three variants over four
//! topology families, and reports the fitted growth exponent
//! `slope(log₂ rounds / log₂ n)` — ≈ 1 means linear, ≪ 1 (with rounds ~
//! polylog) means the memory/LSN class.
//!
//! The sweep matrix is `family/variant` scenarios × n × seed, dispatched
//! through the deterministic orchestrator (docs/SWEEPS.md): output bytes
//! never depend on `--workers`.
//!
//! Ablation: the scenarios `<family>/pure-pairwise` run Onus et al.'s
//! original one-pair actions on pure linearization instead of the paper's
//! star rule — rows of the same table, with their own fit line.
//!
//! The scenarios `<family>/world` run the same graphs in the overlay-only
//! world (`ssr_linearize::world`): the message-level control core, one
//! handshake per side at a time, one tick per message. Ticks are not
//! rounds, so their rows are a table of their own, printed after the
//! notes, with each run's maximum degree and the most handshakes one node
//! started. They stop at [`WORLD_MAX_N`].
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- exp_convergence`
//! Flags: `--seeds K` (default 10), `--workers N`, `--matrix SPEC` (e.g.
//! `scenario=ring/pure,ring/pure-pairwise;n=256;seeds=3`), `--csv PATH`.

use std::collections::BTreeMap;

use ssr_linearize::{LinearizeRun, Semantics, Variant};
use ssr_obs::Value;
use ssr_sim::Metrics;
use ssr_workloads::{stats, Matrix, Topology};

use crate::cells::{
    abstract_run, instance_seed, part, record_round_timeline, world_run, world_table, Rounds,
    RoundsCell, WorldCell,
};
use crate::Shell;

/// Topology families swept (the scrambled ring — random labels over a
/// cycle — is where pure linearization's ≈ linear behaviour shows; random
/// graphs are "nice" for every variant).
const FAMILIES: [&str; 4] = ["ring", "regular", "gnp", "small-world"];

/// The variants every family runs under the paper's star rule; the
/// `pure-pairwise` ablation follows them for every family.
const STAR_VARIANTS: [&str; 3] = ["pure", "memory", "lsn"];

/// The scenario whose round-by-round timeline the manifest records (at the
/// smallest n and the first seed).
const TIMELINE_SCENARIO: &str = "ring/lsn";

fn topo_for(family: &str, n: usize) -> Topology {
    match family {
        "ring" => Topology::Ring { n },
        "regular" => Topology::Regular { n, d: 4 },
        "gnp" => Topology::Gnp { n, c: 2.0 },
        "small-world" => Topology::SmallWorld { n, k: 4, beta: 0.2 },
        other => panic!("unknown family {other}"),
    }
}

/// The matrix's `family/variant` scenarios: every family under the star
/// rule's three variants, then every family's `pure-pairwise` ablation,
/// then every family in the world.
fn scenarios() -> Vec<String> {
    let star = FAMILIES
        .iter()
        .flat_map(|f| STAR_VARIANTS.iter().map(move |v| format!("{f}/{v}")));
    let pairwise = FAMILIES.iter().map(|f| format!("{f}/pure-pairwise"));
    let world = FAMILIES.iter().map(|f| format!("{f}/{WORLD}"));
    star.chain(pairwise).chain(world).collect()
}

/// The variant label of the world's scenarios.
const WORLD: &str = "world";

fn is_world(name: &str) -> bool {
    name.split_once('/').is_some_and(|(_, variant)| variant == WORLD)
}

/// The largest n the world rows run at: on the scrambled ring a world run
/// takes ticks linear in n, and n = 2 048 and 4 096 would cost the golden
/// gate about ten seconds more.
pub const WORLD_MAX_N: usize = 1_024;

/// The topology-instance salt of E4's graphs, engine and world alike.
const SALT: u64 = 0x9E37;

/// Scenario `family/variant` → the family, the variant and the action
/// semantics it runs.
fn scenario(name: &str) -> (&str, Variant, Semantics) {
    let (family, variant) = name.split_once('/').expect("family/variant");
    let (variant, semantics) = match variant {
        "pure" => (Variant::Pure, Semantics::Star),
        "memory" => (Variant::Memory, Semantics::Star),
        "lsn" => (Variant::lsn(), Semantics::Star),
        "pure-pairwise" => (Variant::Pure, Semantics::Pairwise),
        other => panic!("unknown variant {other}"),
    };
    (family, variant, semantics)
}

/// One E4 run; pure linearization gets a budget linear in n, the
/// polylogarithmic variants a flat one.
fn run_one(scenario_name: &str, n: usize, seed: u64) -> LinearizeRun {
    let (family, variant, semantics) = scenario(scenario_name);
    let budget = if matches!(variant, Variant::Pure) {
        80 * n
    } else {
        4000
    };
    let instance = instance_seed(seed, SALT, n);
    abstract_run(topo_for(family, n), instance, variant, semantics, budget)
}

/// The E4 body.
pub fn run(sh: &mut Shell) {
    sh.man.seed(0);
    let matrix = sh.matrix(Matrix::new(
        scenarios(),
        vec![64, 128, 256, 512, 1024, 2048, 4096],
        sh.seeds(10),
    ));

    let engine = part(&matrix, |s| !is_world(s));
    let world = part(&matrix, is_world).and_then(|mut world| {
        world.sizes.retain(|&n| n <= WORLD_MAX_N);
        (!world.sizes.is_empty()).then_some(world)
    });
    let engine_outcome = engine.as_ref().map(|engine| {
        sh.sweep(engine, |job| {
            Rounds::from(&run_one(engine.name(job), job.n, job.seed))
        })
    });
    let world_outcome = world.as_ref().map(|world| {
        sh.sweep(world, |job| {
            let (family, _) = world.name(job).split_once('/').expect("family/world");
            let instance = instance_seed(job.seed, SALT, job.n);
            let (g, labels) = topo_for(family, job.n).instance(instance);
            world_run(&g, &labels)
        })
    });

    sh.table(
        "E4: rounds to the sorted line (star semantics; pure-pairwise: one-pair actions)",
        &[
            "family",
            "variant",
            "n",
            "rounds (mean ± ci)",
            "max",
            "peak degree",
        ],
    );
    // per family/variant: (log2 n, log2 mean rounds) series for the fit
    type Series = (Vec<f64>, Vec<f64>);
    let mut fits: BTreeMap<(&str, &str), Series> = BTreeMap::new();
    let mut metrics = Metrics::new();
    for (name, n, results) in engine_outcome.iter().flat_map(|o| o.cells()) {
        let (family, vname) = name.split_once('/').expect("family/variant");
        let cell = RoundsCell::fold(results, &mut metrics);
        let [rounds, max, peak] = cell.columns();
        sh.row(&[
            family.into(),
            vname.into(),
            n.to_string(),
            rounds,
            max,
            peak,
        ]);
        let series = fits.entry((family, vname)).or_default();
        if let Some((x, y)) = cell.fit_point(n) {
            series.0.push(x);
            series.1.push(y);
        }
    }

    sh.note("\nfitted growth exponents (slope of log2 rounds vs log2 n; 1 ≈ linear):");
    let mut fit_values: Vec<(String, Value)> = Vec::new();
    for ((family, variant), (xs, ys)) in &fits {
        let slope = stats::slope(xs, ys);
        sh.note(format!("  {family:<12} {variant:<7}: {slope:.2}"));
        fit_values.push((format!("{family}/{variant}"), slope.into()));
    }
    sh.note("\npaper claim: pure ≈ linear; memory/LSN polylogarithmic (exponent ≪ 1).");
    if let Some(outcome) = &world_outcome {
        let rows = outcome.cells().map(|(name, n, runs)| {
            let (family, _) = name.split_once('/').expect("family/world");
            (
                vec![family.to_string(), n.to_string()],
                WorldCell::fold(runs, n),
            )
        });
        world_table(
            sh,
            &format!(
                "E4 world: ticks to the ring, one message per tick, n ≤ {WORLD_MAX_N} (FIFO ticks, one handshake per side)"
            ),
            &["family", "n"],
            rows.collect(),
        );
    }

    // Manifest: the sweep's merged histograms plus one representative run's
    // round-by-round convergence timeline (first matrix seed, smallest
    // scrambled ring, LSN).
    let rep_n = matrix.sizes[0];
    let rep = run_one(TIMELINE_SCENARIO, rep_n, matrix.seeds[0]);
    record_round_timeline(&mut sh.man, &rep, rep_n);
    sh.man
        .config("timeline_variant", scenario(TIMELINE_SCENARIO).1.name())
        .config("timeline_n", rep_n)
        .record_metrics(&metrics)
        .extra("fit_exponent", Value::Obj(fit_values));
    if let Some(at) = rep.line_at {
        sh.man.extra("timeline_line_at", (at as u64).into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_scenario_sets_its_variant_and_semantics() {
        // variant label → (variant, semantics)
        let table = [
            ("pure", "pure", Semantics::Star),
            ("memory", "memory", Semantics::Star),
            ("lsn", "lsn", Semantics::Star),
            ("pure-pairwise", "pure", Semantics::Pairwise),
        ];
        let all = scenarios();
        assert_eq!(all.len(), FAMILIES.len() * (table.len() + 1));
        for name in all.iter().filter(|s| !is_world(s)) {
            let (family, label) = name.split_once('/').unwrap();
            let (_, variant, semantics) = table.iter().find(|(l, ..)| *l == label).unwrap();
            let got = scenario(name);
            assert_eq!((got.0, got.1.name(), got.2), (family, *variant, *semantics));
        }
        // the pairwise rows follow every star row, the world rows them
        let star_rows = FAMILIES.len() * STAR_VARIANTS.len();
        let (pairwise, world) = all[star_rows..].split_at(FAMILIES.len());
        assert!(pairwise.iter().all(|s| s.ends_with("/pure-pairwise")));
        assert!(world.iter().all(|s| is_world(s)));
        assert!(all[..star_rows + FAMILIES.len()].iter().all(|s| !is_world(s)));
        assert!(all.contains(&TIMELINE_SCENARIO.to_string()));
        assert_eq!(scenario(TIMELINE_SCENARIO).2, Semantics::Star);
    }
}
