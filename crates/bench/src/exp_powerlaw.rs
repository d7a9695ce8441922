//! **E5 — the power-law datapoint: "α = 2 converges in less than 39
//! rounds".**
//!
//! The paper quotes Onus et al.: LSN linearization on "a power law graph
//! with [100 000] nodes and α = 2 converges in less than 39 rounds". This
//! sweep runs LSN (and the with-memory variant for reference) on erased
//! configuration-model power-law graphs with α = 2 for n up to 100 000 and
//! checks (a) the absolute bound at the largest n and (b) the polylog
//! shape of the growth.
//!
//! The variant × n × seed sweep runs through the deterministic
//! orchestrator (docs/SWEEPS.md): output bytes never depend on `--workers`.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- exp_powerlaw`
//! Flags: `--seeds K` (default 5), `--alpha A`, `--workers N`,
//! `--matrix SPEC` (e.g. `scenario=lsn;n=1000,10000`), `--csv PATH`.

use ssr_linearize::{LinearizeRun, Semantics, Variant};
use ssr_sim::Metrics;
use ssr_workloads::{stats, Matrix, Topology};

use crate::cells::{abstract_run, instance_seed, record_round_timeline, Rounds, RoundsCell};
use crate::Shell;

fn run_one(variant: Variant, alpha: f64, n: usize, seed: u64) -> LinearizeRun {
    let topo = Topology::PowerLaw { n, alpha };
    abstract_run(
        topo,
        instance_seed(seed, 31, n),
        variant,
        Semantics::Star,
        2000,
    )
}

/// The "< 39 rounds" verdict over the LSN cell at the largest n. The bound
/// is only measured when *every* run there reached the line: a run that
/// burned its budget took more than 39 rounds, whatever the others did.
fn verdict(n: usize, largest: Option<&RoundsCell>) -> String {
    let claim = "paper datapoint: < 39 rounds at the largest size;";
    match largest {
        Some(c) if c.runs > 0 && c.converged == c.runs => format!(
            "{claim} measured max at n = {n}: {:.0} rounds — {}",
            c.rounds.max,
            if c.rounds.max < 39.0 {
                "HOLDS"
            } else {
                "EXCEEDED"
            }
        ),
        other => format!(
            "{claim} only {}/{} LSN runs at n = {n} reached the line — NOT MEASURED",
            other.map_or(0, |c| c.converged),
            other.map_or(0, |c| c.runs),
        ),
    }
}

/// This experiment's own flags, beyond the shared `--seeds`, `--workers`,
/// `--matrix` and `--csv`; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &["alpha"];

/// The E5 body.
pub fn run(sh: &mut Shell) {
    let alpha: f64 = sh.args.get("alpha", 2.0);
    sh.man.config("alpha", alpha);
    let matrix = sh.matrix(Matrix::new(
        ["lsn", "memory"],
        vec![1_000, 3_000, 10_000, 30_000, 100_000],
        sh.seeds(5),
    ));

    let sweep = sh.sweep(&matrix, |job| {
        let variant = if matrix.name(job) == "lsn" {
            Variant::lsn()
        } else {
            Variant::Memory
        };
        Rounds::from(&run_one(variant, alpha, job.n, job.seed))
    });

    sh.table(
        format!("E5: LSN on power-law graphs (alpha = {alpha})"),
        &["variant", "n", "rounds (mean ± ci)", "max", "peak degree"],
    );
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    let largest_n = *matrix.sizes.last().expect("matrix has a size");
    let mut largest: Option<RoundsCell> = None;
    let mut metrics = Metrics::new();
    for (variant, n, results) in sweep.cells() {
        let cell = RoundsCell::fold(results, &mut metrics);
        let [rounds, max, peak] = cell.columns();
        sh.row(&[variant.into(), n.to_string(), rounds, max, peak]);
        if variant == "lsn" {
            if let Some((x, y)) = cell.fit_point(n) {
                xs.push(x);
                ys.push(y);
            }
            if n == largest_n {
                largest = Some(cell);
            }
        }
    }

    let exponent = stats::slope(&xs, &ys);
    sh.note(format!(
        "\nLSN growth exponent (log2 rounds vs log2 n): {exponent:.2} — polylog expected (≪ 1)"
    ));
    sh.note(verdict(largest_n, largest.as_ref()));

    // Manifest: merged round/degree histograms plus one representative LSN
    // run's round-by-round timeline (first matrix seed, smallest n).
    let rep_n = matrix.sizes[0];
    let rep_seed = matrix.seeds[0];
    sh.man.seed(rep_seed).config("timeline_n", rep_n);
    let rep = run_one(Variant::lsn(), alpha, rep_n, rep_seed);
    record_round_timeline(&mut sh.man, &rep, rep_n);
    sh.man
        .record_metrics(&metrics)
        .extra("lsn_growth_exponent", exponent.into())
        .extra(
            "largest_max_rounds",
            largest.map_or(0.0, |c| c.rounds.max).into(),
        );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(to_line: &[Option<usize>]) -> RoundsCell {
        let results: Vec<Rounds> = to_line
            .iter()
            .map(|&to_line| Rounds {
                to_line,
                peak_degree: 1,
            })
            .collect();
        RoundsCell::fold(&results, &mut Metrics::new())
    }

    #[test]
    fn verdict_requires_every_run_at_the_largest_n_to_converge() {
        assert!(verdict(100, Some(&cell(&[Some(7), Some(6)]))).ends_with("7 rounds — HOLDS"));
        assert!(verdict(100, Some(&cell(&[Some(7), Some(40)]))).ends_with("40 rounds — EXCEEDED"));
        // nothing converged: the old code read the all-zero summary as
        // "0 rounds — HOLDS"
        let empty = verdict(100, Some(&cell(&[None, None])));
        assert!(
            empty.ends_with("only 0/2 LSN runs at n = 100 reached the line — NOT MEASURED"),
            "{empty}"
        );
        // partially converged: the run that burned its budget is not
        // filtered out of the max
        let partial = verdict(100, Some(&cell(&[Some(7), None])));
        assert!(partial.contains("only 1/2") && partial.ends_with("NOT MEASURED"));
        // `--matrix scenario=memory`: no LSN cell at all
        assert!(verdict(100, None).ends_with("only 0/0 LSN runs at n = 100 reached the line — NOT MEASURED"));
    }
}
