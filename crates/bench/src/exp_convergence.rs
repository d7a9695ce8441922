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
//! Ablation: `--semantics pairwise` runs Onus et al.'s original one-pair
//! actions (pure variant only) instead of the paper's star rule.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- exp_convergence`
//! Flags: `--seeds K` (default 10), `--semantics star|pairwise`,
//! `--workers N`, `--matrix SPEC` (e.g. `scenario=ring/pure;n=256;seeds=3`),
//! `--csv PATH`.

use std::collections::BTreeMap;

use ssr_linearize::{LinearizeRun, Semantics, Variant};
use ssr_obs::Value;
use ssr_sim::Metrics;
use ssr_workloads::{stats, Matrix, Topology};

use crate::cells::{abstract_run, instance_seed, record_round_timeline, Rounds, RoundsCell};
use crate::Shell;

/// Topology families swept (the scrambled ring — random labels over a
/// cycle — is where pure linearization's ≈ linear behaviour shows; random
/// graphs are "nice" for every variant).
const FAMILIES: [&str; 4] = ["ring", "regular", "gnp", "small-world"];

fn topo_for(family: &str, n: usize) -> Topology {
    match family {
        "ring" => Topology::Ring { n },
        "regular" => Topology::Regular { n, d: 4 },
        "gnp" => Topology::Gnp { n, c: 2.0 },
        "small-world" => Topology::SmallWorld { n, k: 4, beta: 0.2 },
        other => panic!("unknown family {other}"),
    }
}

fn variant_for(name: &str) -> Variant {
    match name {
        "pure" => Variant::Pure,
        "memory" => Variant::Memory,
        "lsn" => Variant::lsn(),
        other => panic!("unknown variant {other}"),
    }
}

/// One E4 run; pure linearization gets a budget linear in n, the
/// polylogarithmic variants a flat one.
fn run_one(family: &str, vname: &str, semantics: Semantics, n: usize, seed: u64) -> LinearizeRun {
    let variant = variant_for(vname);
    let budget = if matches!(variant, Variant::Pure) {
        80 * n
    } else {
        4000
    };
    let instance = instance_seed(seed, 0x9E37, n);
    abstract_run(topo_for(family, n), instance, variant, semantics, budget)
}

/// This experiment's own flags, beyond the shared `--seeds`, `--workers`,
/// `--matrix` and `--csv`; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &["semantics"];

/// The E4 body.
pub fn run(sh: &mut Shell) {
    let semantics = match sh.args.opt("semantics").unwrap_or("star") {
        "star" => Semantics::Star,
        "pairwise" => Semantics::Pairwise,
        other => panic!("unknown semantics {other}"),
    };
    let variants: &[&str] = if semantics == Semantics::Pairwise {
        &["pure"]
    } else {
        &["pure", "memory", "lsn"]
    };
    sh.man.seed(0).config("semantics", semantics.name());
    let scenarios = FAMILIES
        .iter()
        .flat_map(|f| variants.iter().map(move |v| format!("{f}/{v}")));
    let matrix = sh.matrix(Matrix::new(
        scenarios,
        vec![64, 128, 256, 512, 1024, 2048, 4096],
        sh.seeds(10),
    ));

    let sweep = sh.sweep(&matrix, |job| {
        let (family, vname) = matrix.name(job).split_once('/').expect("family/variant");
        Rounds::from(&run_one(family, vname, semantics, job.n, job.seed))
    });

    sh.table(
        format!(
            "E4: rounds to the sorted line ({} semantics)",
            semantics.name()
        ),
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
    for (scenario, n, results) in sweep.cells() {
        let (family, vname) = scenario.split_once('/').expect("family/variant");
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

    // Manifest: the sweep's merged histograms plus one representative run's
    // round-by-round convergence timeline (first matrix seed, smallest
    // scrambled ring, last variant in the sweep).
    let rep_n = matrix.sizes[0];
    let rep_variant = matrix
        .scenarios
        .last()
        .and_then(|s| s.split_once('/'))
        .map_or("lsn", |(_, v)| v);
    let rep = run_one("ring", rep_variant, semantics, rep_n, matrix.seeds[0]);
    record_round_timeline(&mut sh.man, &rep, rep_n);
    sh.man
        .config("timeline_variant", variant_for(rep_variant).name())
        .config("timeline_n", rep_n)
        .record_metrics(&metrics)
        .extra("fit_exponent", Value::Obj(fit_values));
    if let Some(at) = rep.line_at {
        sh.man.extra("timeline_line_at", (at as u64).into());
    }
}
