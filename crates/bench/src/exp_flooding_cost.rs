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
//! Ablations are mechanisms of the same table: `linearized-no-ccw`
//! disables the redundant counter-clockwise probes; `linearized-keep-edges`
//! keeps the routes of delegated edges pinned (the with-memory variant:
//! more state; no tear-down is sent either way).
//!
//! The `world` mechanism runs the same graphs in the overlay-only world
//! (`ssr_linearize::world`): the control core with one tick per message
//! and no routes, so its messages are end-to-end messages and its ticks
//! the core's own. A second table, printed after the notes, splits the
//! linearized and world bootstraps' end-to-end messages per node by class
//! (`e2e.*`) and gives the underlay's share: linearized ÷ world.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- exp_flooding_cost`
//! Flags: `--seeds K` (default 5), `--workers N`, `--matrix SPEC` (e.g.
//! `scenario=linearized,linearized-no-ccw;n=200`), `--csv PATH`.

use std::collections::BTreeMap;

use ssr_core::bootstrap::{run_isprp_bootstrap, run_linearized_bootstrap, BootstrapConfig};
use ssr_linearize::world::CLASSES;
use ssr_obs::Value;
use ssr_workloads::{summarize_counts, Matrix, Table};

use crate::cells::{
    instance_seed, message_count, record_representative_bootstrap, unit_disk, world_run,
};
use crate::{fmt_count, Shell};

/// Salt of E6's topology-instance stream.
const SALT: u64 = 101;

struct Row {
    converged: bool,
    ticks: u64,
    /// Link-layer transmissions; in the world, where a message is one hop,
    /// its messages.
    total: u64,
    flood: u64,
    notify: u64,
    /// Largest route cache; the world has none.
    max_state: Option<usize>,
    /// End-to-end messages by class, in [`CLASSES`] order.
    e2e: [u64; 5],
}

/// The mechanisms compared: the paper's two and the world, then the
/// linearized bootstrap's ablations.
const MECHANISMS: [&str; 5] = [
    "linearized",
    "isprp",
    "world",
    "linearized-no-ccw",
    "linearized-keep-edges",
];

/// Scenario (mechanism) → the bootstrap config it runs: `isprp` and
/// `linearized` take the defaults, each `linearized-*` ablation switches
/// one [`ssr_core::node::SsrConfig`] knob off.
fn config_for(mechanism: &str) -> BootstrapConfig {
    let mut cfg = BootstrapConfig {
        max_ticks: 300_000,
        ..Default::default()
    };
    match mechanism {
        "linearized" | "isprp" | "world" => {}
        "linearized-no-ccw" => cfg.ssr.ccw_redundancy = false,
        "linearized-keep-edges" => cfg.ssr.unpin_delegated = false,
        other => panic!("unknown mechanism {other}"),
    }
    cfg
}

/// The E6 body.
pub fn run(sh: &mut Shell) {
    sh.man.seed(0);
    let matrix = sh.matrix(Matrix::new(
        MECHANISMS,
        vec![50, 100, 200, 400, 800],
        sh.seeds(5),
    ));

    let sweep = sh.sweep(&matrix, |job| {
        let (g, labels) = unit_disk(job.n, instance_seed(job.seed, SALT, job.n));
        let mechanism = matrix.name(job);
        let cfg = BootstrapConfig {
            seed: job.seed,
            ..config_for(mechanism)
        };
        if mechanism == "world" {
            let run = world_run(&g, &labels);
            return Row {
                converged: run.converged,
                ticks: run.ticks,
                total: run.messages(),
                flood: 0,
                notify: run.sent[0] + run.sent[1],
                max_state: None,
                e2e: run.sent,
            };
        }
        let (report, e2e) = if mechanism == "isprp" {
            (run_isprp_bootstrap(&g, &labels, &cfg).0, [0; 5])
        } else {
            let (report, sim) = run_linearized_bootstrap(&g, &labels, &cfg);
            (report, CLASSES.map(|class| sim.metrics().counter(class)))
        };
        let kind = |k| message_count(&report.messages, k);
        Row {
            converged: report.converged,
            ticks: report.ticks,
            total: report.total_messages,
            flood: kind("msg.flood"),
            notify: kind("msg.notify") + kind("msg.succ"),
            max_state: Some(report.max_state),
            e2e,
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
    // per n: the linearized and world cells, for the per-class table
    let mut split: BTreeMap<usize, [Cell; 2]> = BTreeMap::new();
    for (mech, n, rows) in sweep.cells() {
        let runs = rows.len() as u64;
        let conv = rows.iter().filter(|r| r.converged).count();
        let ticks = summarize_counts(rows.iter().map(|r| r.ticks));
        let total = summarize_counts(rows.iter().map(|r| r.total));
        let flood: u64 = rows.iter().map(|r| r.flood).sum::<u64>() / runs.max(1);
        let notify: u64 = rows.iter().map(|r| r.notify).sum::<u64>() / runs.max(1);
        let max_state = rows.iter().filter_map(|r| r.max_state).max();
        let cell = Cell::of(rows, n);
        let mut means = vec![("msgs_mean".to_string(), total.mean.into())];
        if mech != "isprp" {
            let classes = CLASSES.iter().zip(cell.e2e);
            let classes = classes.map(|(class, mean)| (class.to_string(), mean.into()));
            means.push(("e2e_per_node".into(), Value::Obj(classes.collect())));
        }
        means.extend([
            ("ticks_mean".into(), ticks.mean.into()),
            ("flood_mean".into(), flood.into()),
            ("converged".into(), (conv as u64).into()),
        ]);
        sweep_means.push((format!("{mech}/n={n}"), Value::Obj(means)));
        sh.row(&[
            n.to_string(),
            mech.into(),
            format!("{conv}/{runs}"),
            format!("{:.0}", ticks.mean),
            fmt_count(total.mean as u64),
            fmt_count(flood),
            fmt_count(notify),
            max_state.map_or("-".into(), |s| s.to_string()),
        ]);
        let slot = match mech {
            "linearized" => 0,
            "world" => 1,
            _ => continue,
        };
        split.entry(n).or_default()[slot] = cell;
    }

    sh.note("\npaper claim: the linearized bootstrap reaches the same globally consistent");
    sh.note("ring with zero flood messages; ISPRP's flood costs ≈ 2·|E_p| transmissions");
    sh.note("plus the claim/update cascade it triggers.");
    sh.note("ablations: linearized-no-ccw sends no counter-clockwise probes;");
    sh.note("linearized-keep-edges keeps delegated edges' routes pinned.");
    sh.note("world: the control core alone, one tick and one hop per message, no routes");
    sh.note("(its msgs total counts overlay messages; it keeps no route cache).");
    if !split.is_empty() {
        sh.note(format!("\n{}", class_table(&split).render().trim_end()));
        sh.note("(per node, mean over seeds; e2e = end-to-end messages, hops = link-layer");
        sh.note("transmissions, one per world message; ÷ world: linearized over world, the");
        sh.note("underlay's multiple on the control core's ticks and messages)");
    }

    // Manifest: one representative default-config linearized run for the
    // full metric/timeline dump; the sweep means ride along as extras.
    let report = record_representative_bootstrap(sh, &matrix, SALT, config_for("linearized"));
    sh.man.extra("rep_converged", Value::Bool(report.converged));
    sh.man.extra("rep_ticks", report.ticks.into());
    sh.man.extra("rep_msgs_total", report.total_messages.into());
    sh.man.extra("sweep", Value::Obj(sweep_means));
}

/// One mechanism's cell of the per-class table, per node and mean over
/// its seeds.
#[derive(Clone, Copy, Default)]
struct Cell {
    runs: usize,
    ticks: f64,
    hops: f64,
    e2e: [f64; 5],
}

impl Cell {
    fn of(rows: &[Row], n: usize) -> Cell {
        let per_node = (n * rows.len()).max(1) as f64;
        let mut e2e = [0.0; 5];
        for (i, mean) in e2e.iter_mut().enumerate() {
            *mean = rows.iter().map(|r| r.e2e[i]).sum::<u64>() as f64 / per_node;
        }
        Cell {
            runs: rows.len(),
            ticks: summarize_counts(rows.iter().map(|r| r.ticks)).mean,
            hops: rows.iter().map(|r| r.total).sum::<u64>() as f64 / per_node,
            e2e,
        }
    }

    fn e2e_total(&self) -> f64 {
        self.e2e.iter().sum()
    }
}

/// Where the messages go: the linearized and world cells at each n, by
/// class, with the linearized row's multiple of the world's.
fn class_table(split: &BTreeMap<usize, [Cell; 2]>) -> Table {
    let mut headers = vec!["n", "mechanism", "ticks", "hops/node", "e2e/node"];
    headers.extend(CLASSES.iter().map(|c| c.trim_start_matches("e2e.")));
    headers.extend(["ticks ÷ world", "e2e ÷ world", "hops ÷ world"]);
    let mut table = Table::new(
        "E6: where the messages go — linearized SSR vs the overlay-only world, per node",
        &headers,
    );
    for (n, [linearized, world]) in split {
        for (mech, cell) in [("linearized", linearized), ("world", world)] {
            if cell.runs == 0 {
                continue;
            }
            let mut row = vec![
                n.to_string(),
                mech.to_string(),
                format!("{:.0}", cell.ticks),
                format!("{:.1}", cell.hops),
                format!("{:.1}", cell.e2e_total()),
            ];
            row.extend(cell.e2e.iter().map(|m| format!("{m:.1}")));
            let ratio = |a: f64, b: f64| {
                if mech == "world" || world.runs == 0 || b == 0.0 {
                    "-".to_string()
                } else {
                    format!("{:.2}", a / b)
                }
            };
            row.push(ratio(cell.ticks, world.ticks));
            row.push(ratio(cell.e2e_total(), world.e2e_total()));
            row.push(ratio(cell.hops, world.hops));
            table.row(&row);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_mechanism_sets_its_config() {
        // (mechanism, ccw_redundancy, unpin_delegated)
        let table = [
            ("linearized", true, true),
            ("isprp", true, true),
            ("world", true, true),
            ("linearized-no-ccw", false, true),
            ("linearized-keep-edges", true, false),
        ];
        assert_eq!(table.map(|(m, ..)| m), MECHANISMS);
        for (mechanism, ccw, unpin) in table {
            let cfg = config_for(mechanism);
            assert_eq!(cfg.ssr.ccw_redundancy, ccw, "{mechanism}");
            assert_eq!(cfg.ssr.unpin_delegated, unpin, "{mechanism}");
            assert_eq!(cfg.ssr.partition_base, 2, "{mechanism}");
            assert_eq!(cfg.max_ticks, 300_000, "{mechanism}");
        }
    }
}
