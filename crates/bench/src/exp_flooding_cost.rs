//! **E6 — the headline: consistency without flooding.**
//!
//! ISPRP "achieves global consistency by having one node flood the network
//! with its identifier"; the paper's contribution is that linearization
//! "does not require any flooding at all". This experiment bootstraps both
//! mechanisms on connected unit-disk networks (the MANET substrate SSR
//! targets) and meters every link-layer transmission by kind, plus
//! convergence time and end-state router state.
//!
//! The mechanism × n × seed sweep runs through the deterministic
//! orchestrator (docs/SWEEPS.md): output bytes never depend on `--workers`.
//!
//! Ablations: `--no-ccw` disables the redundant counter-clockwise probes;
//! `--keep-edges` keeps the routes of delegated edges pinned (the
//! with-memory variant: more state; no tear-down is sent either way).
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- exp_flooding_cost`
//! Flags: `--seeds K` (default 5), `--no-ccw`, `--keep-edges`,
//! `--workers N`, `--matrix SPEC` (e.g. `scenario=linearized;n=200`),
//! `--csv PATH`.

use ssr_core::bootstrap::{run_isprp_bootstrap, run_linearized_bootstrap, BootstrapConfig};
use ssr_obs::Value;
use ssr_workloads::{summarize_counts, Matrix};

use crate::cells::{instance_seed, message_count, record_representative_bootstrap, unit_disk};
use crate::{fmt_count, Shell};

/// Salt of E6's topology-instance stream.
const SALT: u64 = 101;

struct Row {
    converged: bool,
    ticks: u64,
    total: u64,
    flood: u64,
    notify: u64,
    max_state: usize,
}

/// This experiment's own flags, beyond the shared `--seeds`, `--workers`,
/// `--matrix` and `--csv`; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &["no-ccw", "keep-edges"];

/// The E6 body.
pub fn run(sh: &mut Shell) {
    let mut cfg = BootstrapConfig {
        max_ticks: 300_000,
        ..Default::default()
    };
    cfg.ssr.ccw_redundancy = !sh.args.flag("no-ccw");
    cfg.ssr.unpin_delegated = !sh.args.flag("keep-edges");
    sh.man
        .seed(0)
        .config("no-ccw", sh.args.flag("no-ccw"))
        .config("keep-edges", sh.args.flag("keep-edges"));
    let matrix = sh.matrix(Matrix::new(
        ["linearized", "isprp"],
        vec![50, 100, 200, 400, 800],
        sh.seeds(5),
    ));

    let sweep = sh.sweep(&matrix, |job| {
        let (g, labels) = unit_disk(job.n, instance_seed(job.seed, SALT, job.n));
        let mut cfg = cfg;
        cfg.seed = job.seed;
        let report = if matrix.name(job) == "linearized" {
            run_linearized_bootstrap(&g, &labels, &cfg).0
        } else {
            run_isprp_bootstrap(&g, &labels, &cfg).0
        };
        let kind = |k| message_count(&report.messages, k);
        Row {
            converged: report.converged,
            ticks: report.ticks,
            total: report.total_messages,
            flood: kind("msg.flood"),
            notify: kind("msg.notify") + kind("msg.succ"),
            max_state: report.max_state,
        }
    });

    sh.table(
        "E6: bootstrap cost — ISPRP + flood vs linearized SSR (unit-disk)",
        &[
            "n",
            "mechanism",
            "conv",
            "ticks (mean)",
            "msgs total (mean)",
            "flood msgs",
            "notify msgs",
            "max state",
        ],
    );
    let mut sweep_means: Vec<(String, Value)> = Vec::new();
    for (mech, n, rows) in sweep.cells() {
        let runs = rows.len() as u64;
        let conv = rows.iter().filter(|r| r.converged).count();
        let ticks = summarize_counts(rows.iter().map(|r| r.ticks));
        let total = summarize_counts(rows.iter().map(|r| r.total));
        let flood: u64 = rows.iter().map(|r| r.flood).sum::<u64>() / runs.max(1);
        let notify: u64 = rows.iter().map(|r| r.notify).sum::<u64>() / runs.max(1);
        let max_state = rows.iter().map(|r| r.max_state).max().unwrap_or(0);
        sweep_means.push((
            format!("{mech}/n={n}"),
            Value::Obj(vec![
                ("msgs_mean".into(), total.mean.into()),
                ("ticks_mean".into(), ticks.mean.into()),
                ("flood_mean".into(), flood.into()),
                ("converged".into(), (conv as u64).into()),
            ]),
        ));
        sh.row(&[
            n.to_string(),
            mech.into(),
            format!("{conv}/{runs}"),
            format!("{:.0}", ticks.mean),
            fmt_count(total.mean as u64),
            fmt_count(flood),
            fmt_count(notify),
            max_state.to_string(),
        ]);
    }

    sh.note("\npaper claim: the linearized bootstrap reaches the same globally consistent");
    sh.note("ring with zero flood messages; ISPRP's flood costs ≈ 2·|E_p| transmissions");
    sh.note("plus the claim/update cascade it triggers.");

    // Manifest: one representative linearized run for the full
    // metric/timeline dump; the sweep means ride along as extras.
    let report = record_representative_bootstrap(sh, &matrix, SALT, cfg);
    sh.man.extra("rep_converged", Value::Bool(report.converged));
    sh.man.extra("rep_ticks", report.ticks.into());
    sh.man.extra("rep_msgs_total", report.total_messages.into());
    sh.man.extra("sweep", Value::Obj(sweep_means));
}
