//! **E10 — the VRR transfer: "the proposed mechanism also applies to other
//! routing mechanisms such as Virtual Ring Routing".**
//!
//! Runs the *same* linearized bootstrap over both protocols on the same
//! topologies and compares: convergence, message cost, and — the structural
//! contrast — per-node router state, which for VRR includes path state at
//! every *intermediate* node, not just the endpoints. Also runs VRR's
//! baseline (hello beacons carrying the representative) to show the
//! standing dissemination cost linearization removes.
//!
//! The system × n × seed sweep runs through the deterministic orchestrator
//! (docs/SWEEPS.md): output bytes never depend on `--workers`. Each cell's
//! manifest entry also sums its runs' end-to-end messages by class
//! (`e2e_total`), and a VRR cell its runs' transport and receive counters
//! (`vrr_total`), which `obs diff` compares leaf by leaf.
//!
//! Known limitation (see DESIGN.md): VRR's hop-by-hop path state is more
//! fragile than SSR's source routes; a small fraction of runs at larger n
//! freeze in a crossing state, reported honestly in the `conv` column.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- exp_vrr_compare`
//! Flags: `--seeds K` (default 5), `--workers N`, `--matrix SPEC` (e.g.
//! `scenario=ssr,vrr-linearized;n=30`), `--csv PATH`.

use ssr_core::bootstrap::BootstrapConfig;
use ssr_obs::Value;
use ssr_sim::LinkConfig;
use ssr_vrr::bootstrap::run_vrr_bootstrap;
use ssr_vrr::node::VrrMode;
use ssr_workloads::{summarize_counts, Matrix};

use crate::cells::{
    instance_seed, message_count, record_representative_bootstrap, unit_disk, unit_disk_bootstrap,
};
use crate::{fmt_count, Shell};

/// Salt of E10's topology-instance stream.
const SALT: u64 = 53;

/// End-to-end messages, all and by class, summed over a cell's runs into
/// the manifest's `e2e_total`.
const E2E: [&str; 7] = [
    "e2e.sent",
    "e2e.notify",
    "e2e.announce",
    "e2e.ack",
    "e2e.teardown",
    "e2e.discover",
    "e2e.succ",
];

/// VRR's transport and receive counters, summed over a VRR cell's runs
/// into the manifest's `vrr_total`: messages with no path state or no hops
/// left, hops handed straight to a bound endpoint or to a physical
/// neighbour of it, hops that took another row for the same endpoint pair,
/// hops back over the link they came in on, and notifications whose news
/// the receiver already held.
const VRR: [&str; 8] = [
    "fwd.no_path",
    "fwd.ttl_expired",
    "fwd.shortcut",
    "fwd.two_hop",
    "fwd.rerouted",
    "fwd.uturn",
    "rx.notify_known",
    "rx.announce_known",
];

struct Row {
    converged: bool,
    ticks: u64,
    msgs: u64,
    hello: u64,
    max_state: usize,
    mean_state: f64,
    e2e: [u64; E2E.len()],
    vrr: [u64; VRR.len()],
}

/// The two protocols' bootstrap reports are distinct types with the same
/// fields; a row is built from either, and the run's metrics.
macro_rules! row {
    ($report:expr, $metrics:expr) => {{
        let (r, m) = ($report, $metrics);
        Row {
            converged: r.converged,
            ticks: r.ticks,
            msgs: r.total_messages,
            hello: message_count(&r.messages, "msg.hello"),
            max_state: r.max_state,
            mean_state: r.mean_state,
            e2e: E2E.map(|key| m.counter(key)),
            vrr: VRR.map(|key| m.counter(key)),
        }
    }};
}

/// The E10 body.
pub fn run(sh: &mut Shell) {
    sh.man.seed(0);
    let systems = ["ssr", "vrr-linearized", "vrr-baseline"];
    let matrix = sh.matrix(Matrix::new(systems, vec![16, 30, 50], sh.seeds(5)));
    let ssr_cfg = BootstrapConfig {
        max_ticks: 200_000,
        ..Default::default()
    };

    let sweep = sh.sweep(&matrix, |job| {
        let (n, seed) = (job.n, job.seed);
        let instance = instance_seed(seed, SALT, n);
        match matrix.name(job) {
            "ssr" => {
                let cfg = BootstrapConfig { seed, ..ssr_cfg };
                let (_, _, report, sim) = unit_disk_bootstrap(n, instance, &cfg);
                row!(report, sim.metrics())
            }
            mode => {
                // non-convergent VRR runs burn their whole budget at
                // high message rates; cap it so the sweep stays
                // tractable (convergent runs finish far earlier)
                let (vmode, budget) = if mode == "vrr-linearized" {
                    (VrrMode::Linearized, 60_000)
                } else {
                    (VrrMode::Baseline, 30_000)
                };
                let (g, labels) = unit_disk(n, instance);
                let (report, sim) =
                    run_vrr_bootstrap(&g, &labels, vmode, LinkConfig::ideal(), seed, budget);
                row!(report, sim.metrics())
            }
        }
    });

    sh.table(
        "E10: linearized SSR vs linearized/baseline VRR (unit-disk)",
        &[
            "n",
            "system",
            "conv",
            "ticks (mean)",
            "msgs (mean)",
            "hello msgs",
            "state max",
            "state mean",
        ],
    );
    let mut sweep_means: Vec<(String, Value)> = Vec::new();
    for (system, n, rows) in sweep.cells() {
        let runs = rows.len();
        let conv = rows.iter().filter(|r| r.converged).count();
        let ticks = summarize_counts(rows.iter().filter(|r| r.converged).map(|r| r.ticks));
        let msgs = summarize_counts(rows.iter().map(|r| r.msgs));
        let hello = summarize_counts(rows.iter().map(|r| r.hello));
        let max_state = rows.iter().map(|r| r.max_state).max().unwrap_or(0);
        let mean_state: f64 =
            rows.iter().map(|r| r.mean_state).sum::<f64>() / rows.len().max(1) as f64;
        let mut cell = vec![
            ("converged".into(), (conv as u64).into()),
            ("ticks_mean".into(), ticks.mean.into()),
            ("msgs_mean".into(), msgs.mean.into()),
            ("e2e_total".into(), totals(rows, &E2E, |r| &r.e2e)),
        ];
        if system != "ssr" {
            cell.push(("vrr_total".into(), totals(rows, &VRR, |r| &r.vrr)));
        }
        cell.extend([
            ("hello_mean".into(), hello.mean.into()),
            ("state_max".into(), (max_state as u64).into()),
            ("state_mean".into(), mean_state.into()),
        ]);
        sweep_means.push((format!("{system}/n={n}"), Value::Obj(cell)));
        sh.row(&[
            n.to_string(),
            system.into(),
            format!("{conv}/{runs}"),
            format!("{:.0}", ticks.mean),
            fmt_count(msgs.mean as u64),
            fmt_count(hello.mean as u64),
            max_state.to_string(),
            format!("{mean_state:.1}"),
        ]);
    }

    sh.note("\nexpected shape: both linearized systems converge without flooding; the VRR");
    sh.note("baseline's hello volume dwarfs the others (beacons never stop); VRR's state");
    sh.note("exceeds SSR's because intermediate nodes hold path entries.");

    // Manifest: one representative SSR run for the full metric/timeline
    // dump; the three-system sweep means ride as extras.
    record_representative_bootstrap(sh, &matrix, SALT, ssr_cfg);
    sh.man.extra("sweep", Value::Obj(sweep_means));
}

/// A cell's counters `keys` (read from each run by `of`) summed over its
/// runs: `e2e.*` keyed by class (`sent` and the classes it splits into),
/// any other key by its full name.
fn totals(rows: &[Row], keys: &[&str], of: impl Fn(&Row) -> &[u64]) -> Value {
    let total = |i: usize| rows.iter().map(|r| of(r)[i]).sum::<u64>();
    let name = |key: &str| key.trim_start_matches("e2e.").to_string();
    Value::Obj(keys.iter().enumerate().map(|(i, key)| (name(key), total(i).into())).collect())
}
