//! **E8 — self-stabilization under churn, without flooding.**
//!
//! Linearization is self-stabilizing: it converges from *any* state, which
//! in a live network means after node crashes, rejoins, and link flaps.
//! This experiment converges a linearized-SSR network, injects a churn
//! burst (Poisson crash/rejoin plus link flaps), and measures the time and
//! messages to **re**-converge — still with zero flood messages.
//!
//! The n × seed sweep runs through the deterministic orchestrator
//! (docs/SWEEPS.md): output bytes never depend on `--workers`.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- exp_churn`
//! Flags: `--seeds K` (default 5), `--workers N`, `--matrix SPEC` (e.g.
//! `n=100;seeds=3`), `--csv PATH`. The burst is fixed: crashes at 0.02
//! per tick (link flaps at half that) over 400 ticks, recorded as the
//! manifest's `rate` and `churn_window`.

use ssr_core::bootstrap::{ssr_timeline_probe, BootstrapConfig};
use ssr_core::consistency;
use ssr_sim::faults::{poisson_crash_rejoin_trace, poisson_link_flap_trace};
use ssr_sim::{LinkConfig, Metrics, Time};
use ssr_types::Rng;
use ssr_workloads::{summarize_counts, Matrix, Topology};

use crate::cells::{instance_seed, representative, run_to_ring, ssr_sim};
use crate::{fmt_count, Shell};

struct Outcome {
    reconverged: bool,
    recovery_ticks: u64,
    recovery_msgs: u64,
    floods: u64,
    // representative-seed observability capture: the full converge → churn
    // → re-converge timeline plus the final metrics registry
    observed: Option<(Vec<ssr_core::ConvergencePoint>, Metrics)>,
}

/// Crash rate per tick during the burst; link flaps run at half of it.
const RATE: f64 = 0.02;
/// Length of the churn burst in ticks.
const CHURN_WINDOW: u64 = 400;

/// The E8 body.
pub fn run(sh: &mut Shell) {
    sh.man
        .seed(0)
        .config("rate", RATE)
        .config("churn_window", CHURN_WINDOW);
    let matrix = sh.matrix(Matrix::new(
        ["churn-burst"],
        vec![50, 100, 200],
        sh.seeds(5),
    ));
    let rep_seed = matrix.seeds[0];

    let sweep = sh.sweep(&matrix, |job| {
        let (n, seed) = (job.n, job.seed);
        let topo = Topology::UnitDisk { n, scale: 1.4 };
        let (g, labels) = topo.instance(instance_seed(seed, 577, n));
        let ssr = BootstrapConfig::default().ssr;
        let mut sim = ssr_sim(&g, &labels, ssr, LinkConfig::ideal(), seed, false);
        let timeline = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        if seed == rep_seed {
            sim.add_probe(8, ssr_timeline_probe(std::rc::Rc::clone(&timeline)));
        }
        // phase 1: converge
        assert!(
            run_to_ring(&mut sim).is_quiescent(),
            "initial bootstrap failed"
        );
        let t0 = sim.now();
        // phase 2: churn burst
        let mut frng = Rng::new(seed ^ 0xC0FFEE);
        let edges: Vec<(usize, usize)> = g.edges().collect();
        let crash_trace = poisson_crash_rejoin_trace(
            n,
            t0 + 1,
            Time(t0.ticks() + CHURN_WINDOW),
            RATE,
            40,
            |u| g.neighbors(u).collect(),
            &mut frng,
        );
        let flap_trace = poisson_link_flap_trace(
            &edges,
            t0 + 1,
            Time(t0.ticks() + CHURN_WINDOW),
            RATE / 2.0,
            30,
            &mut frng,
        );
        for f in crash_trace.into_iter().chain(flap_trace) {
            sim.schedule_fault(f.at, f.fault);
        }
        let msgs_before = sim.metrics().counter("tx.total");
        // phase 3: let the churn play out, then measure recovery
        sim.run_until(Time(t0.ticks() + CHURN_WINDOW + 50));
        let recover_from = sim.now();
        let outcome = run_to_ring(&mut sim);
        Outcome {
            reconverged: consistency::check_ring(sim.protocols()).consistent(),
            recovery_ticks: outcome.time() - recover_from,
            recovery_msgs: sim.metrics().counter("tx.total") - msgs_before,
            floods: sim.metrics().counter("msg.flood"),
            observed: (seed == rep_seed)
                .then(|| (timeline.borrow().clone(), sim.metrics().clone())),
        }
    });

    sh.table(
        format!("E8: churn recovery (crash rate {RATE}/tick over {CHURN_WINDOW} ticks)"),
        &[
            "n",
            "reconverged",
            "recovery ticks (mean)",
            "recovery msgs (mean)",
            "flood msgs",
        ],
    );
    for (_, n, outcomes) in sweep.cells() {
        let runs = outcomes.len();
        let ok = outcomes.iter().filter(|o| o.reconverged).count();
        let ticks = summarize_counts(
            outcomes
                .iter()
                .filter(|o| o.reconverged)
                .map(|o| o.recovery_ticks),
        );
        let msgs = summarize_counts(outcomes.iter().map(|o| o.recovery_msgs));
        let floods: u64 = outcomes.iter().map(|o| o.floods).sum();
        sh.row(&[
            n.to_string(),
            format!("{ok}/{runs}"),
            format!("{:.0}", ticks.mean),
            fmt_count(msgs.mean as u64),
            floods.to_string(),
        ]);
    }

    sh.note("\npaper claim: self-stabilization means churn recovery needs no flooding —");
    sh.note("the flood column must be zero; recovery is local repair plus re-discovery.");

    // Manifest: the representative-seed run at the last (largest) n, whose
    // timeline shows the full dip — converged ring, churn burst,
    // re-convergence.
    if let Some((n, Some((tl, m)))) = representative(&sweep).map(|(n, o)| (n, &o.observed)) {
        sh.man.config("timeline_n", n).record_metrics(m);
        sh.timeline(tl);
    }
}
