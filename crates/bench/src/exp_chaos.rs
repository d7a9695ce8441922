//! **E11 — chaos matrix: self-stabilization under an adversarial network.**
//!
//! The paper's central robustness claim is that linearization is
//! *self-stabilizing*: from any initial state, over any connected topology,
//! the protocol converges to the sorted virtual ring — without flooding.
//! This experiment attacks that claim from every direction at once: lossy
//! asymmetric links, message duplication, bounded-delay reordering,
//! scheduled partitions with heals, churn bursts, and corrupted starting
//! states (wound rings, split rings, random successors, truncated
//! handshakes with stale cache routes). Every run carries the freeze
//! watchdog and the invariant checker (union-graph connectedness, zero
//! floods, linearization-potential audit); verdicts and recovery costs go
//! into the `chaos` section of the run manifest, and every SSR scenario
//! runs with the causal ledger on, so the manifest also carries the
//! merged `provenance` section (schema `ssr-obs/3`) that `obs flame` and
//! `obs top` profile — see docs/PROFILING.md.
//!
//! A final block runs the *watched* VRR bootstrap on seeds known to hit
//! DESIGN.md finding 7, demonstrating that the crossing-state freeze is
//! classified `frozen_crossing` in the manifest instead of silently
//! burning the tick budget.
//!
//! The whole scenario × n × seed cross product runs as one flat job list
//! on the sweep orchestrator (`ssr_workloads::run_matrix`): `--workers N`
//! sets the fan-out, `--matrix scenario=loss,dup;n=100;seeds=5` reshapes
//! the matrix, and the merged manifest is byte-identical for any worker
//! count (docs/SWEEPS.md).
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- exp_chaos`
//! Flags: `--seeds K` (default 3), `--workers N`, `--matrix SPEC` (e.g.
//! `scenario=loss;n=50` for one scenario), `--csv PATH`.

use std::rc::Rc;

use ssr_core::bootstrap::BootstrapConfig;
use ssr_core::{chaos, consistency};
use ssr_graph::{generators, Labeling};
use ssr_sim::faults::{partition_groups, poisson_crash_rejoin_trace, Fault};
use ssr_sim::{
    shared_watchdog, watchdog_probe, LinkConfig, Metrics, ProvenanceSummary, Time, Verdict,
};
use ssr_types::Rng;
use ssr_vrr::{run_vrr_bootstrap_watched, VrrMode};
use ssr_workloads::{summarize_counts, Matrix, Topology};

use crate::cells::{instance_seed, run_to_ring, ssr_sim, RING_BUDGET};
use crate::{fmt_count, Shell};

/// How a scenario corrupts the initial virtual-ring state.
#[derive(Clone, Copy)]
enum Corrupt {
    None,
    /// Wound ring with w windings (generalized Figure 1).
    Wound(usize),
    /// k disjoint sub-rings (generalized Figure 2).
    Split(usize),
    /// Uniformly random successor per node, mutually adopted.
    Random,
    /// One-sided successor edges (mid-handshake truncation) plus stale
    /// unpinned cache routes.
    Handshake,
}

/// One cell of the chaos matrix: which adversary knobs are on.
#[derive(Clone, Copy)]
struct Spec {
    name: &'static str,
    corrupt: Corrupt,
    dup: f64,
    reorder: f64,
    /// Asymmetric per-link loss overrides during the fault window.
    loss_links: bool,
    /// Partition into k components for the fault window, then heal.
    partition: Option<usize>,
    /// Poisson crash/rejoin burst during the fault window.
    churn: bool,
}

impl Spec {
    const fn clean(name: &'static str, corrupt: Corrupt) -> Spec {
        Spec {
            name,
            corrupt,
            dup: 0.0,
            reorder: 0.0,
            loss_links: false,
            partition: None,
            churn: false,
        }
    }

    fn has_fault_window(&self) -> bool {
        self.loss_links || self.partition.is_some() || self.churn
    }
}

fn scenarios() -> Vec<Spec> {
    vec![
        Spec::clean("baseline", Corrupt::None),
        Spec {
            loss_links: true,
            ..Spec::clean("loss", Corrupt::None)
        },
        Spec {
            dup: 0.15,
            ..Spec::clean("dup", Corrupt::None)
        },
        Spec {
            reorder: 0.2,
            ..Spec::clean("reorder", Corrupt::None)
        },
        Spec {
            partition: Some(3),
            ..Spec::clean("partition", Corrupt::None)
        },
        Spec {
            churn: true,
            ..Spec::clean("churn", Corrupt::None)
        },
        Spec::clean("corrupt-wound", Corrupt::Wound(3)),
        Spec::clean("corrupt-split", Corrupt::Split(3)),
        Spec::clean("corrupt-random", Corrupt::Random),
        Spec::clean("corrupt-handshake", Corrupt::Handshake),
        Spec {
            dup: 0.1,
            reorder: 0.15,
            loss_links: true,
            partition: Some(2),
            churn: true,
            ..Spec::clean("all-on", Corrupt::Random)
        },
    ]
}

struct Outcome {
    converged: bool,
    verdict: &'static str,
    recovery_ticks: u64,
    recovery_msgs: u64,
    floods: u64,
    union_disconnected: u64,
    potential_rises: u64,
    metrics: Metrics,
    provenance: ProvenanceSummary,
}

/// Fault window length in ticks: adversary knobs are active over
/// `[2, 2 + WINDOW]`, recovery is measured from `2 + WINDOW + 50`.
const WINDOW: u64 = 400;
const FREEZE_WINDOW: u64 = 3_000;

fn run_scenario(spec: &Spec, n: usize, seed: u64) -> Outcome {
    let topo = Topology::UnitDisk { n, scale: 1.4 };
    let (g, labels) = topo.instance(instance_seed(seed, 577, n));
    let mut link = LinkConfig::ideal();
    if spec.dup > 0.0 {
        link = link.with_dup(spec.dup);
    }
    if spec.reorder > 0.0 {
        link = link.with_reorder(spec.reorder, 6);
    }
    // the causal ledger is on for every chaos run: it never touches the
    // RNG, so verdicts and recovery costs are identical to an
    // uninstrumented run, and the merged summary feeds `obs flame`/`obs top`
    let mut sim = ssr_sim(&g, &labels, BootstrapConfig::default().ssr, link, seed, true);
    let mut frng = Rng::new(seed ^ 0x00C4_A05C);

    match spec.corrupt {
        Corrupt::None => {}
        Corrupt::Wound(w) => {
            let succ = chaos::wound_ring_succ(labels.ids(), w.min(n));
            chaos::apply_succ_corruption(&mut sim, &labels, &succ, true);
        }
        Corrupt::Split(k) => {
            let succ = chaos::split_rings_succ(labels.ids(), k.min(n));
            chaos::apply_succ_corruption(&mut sim, &labels, &succ, true);
        }
        Corrupt::Random => {
            let succ = chaos::random_succ(labels.ids(), &mut frng);
            chaos::apply_succ_corruption(&mut sim, &labels, &succ, true);
        }
        Corrupt::Handshake => {
            let pairs = chaos::half_handshake_pairs(labels.ids(), n / 3, &mut frng);
            chaos::apply_succ_corruption(&mut sim, &labels, &pairs, false);
            chaos::inject_stale_cache_routes(&mut sim, &labels, 2, &mut frng);
        }
    }

    let wd = shared_watchdog();
    sim.add_probe(
        8,
        watchdog_probe(
            FREEZE_WINDOW,
            Rc::clone(&wd),
            chaos::ssr_signature,
            |nodes| consistency::check_ring(nodes).consistent(),
            chaos::ssr_all_locally_consistent,
        ),
    );

    // Partition and churn measure *re*-convergence (the E8 shape):
    // converge first, then open the fault window. Loss stresses the
    // bootstrap itself (a quiescent converged ring sends nothing to drop),
    // and corrupted starts — alone or combined with faults (all-on) —
    // measure convergence from the bad state, adversary active from the
    // beginning.
    let preconverge =
        matches!(spec.corrupt, Corrupt::None) && (spec.partition.is_some() || spec.churn);
    if preconverge {
        assert!(
            run_to_ring(&mut sim).is_quiescent(),
            "initial bootstrap failed"
        );
    }
    let fault_start = if preconverge {
        sim.now().ticks() + 1
    } else {
        2
    };
    let fault_end = fault_start + WINDOW;
    // the invariant checker arms once the adversary is done (a partition
    // legitimately disconnects the union graph while it lasts)
    let armed_after = if spec.has_fault_window() {
        fault_end + 50
    } else {
        0
    };
    let inv = chaos::shared_invariants(armed_after);
    sim.add_probe(16, chaos::invariant_probe(labels.clone(), Rc::clone(&inv)));

    // Recovery is measured from fault onset (tick 0 for corrupted starts):
    // the time and messages from "the adversary begins" to stable global
    // consistency. Windowed scenarios therefore carry the window length as
    // a floor — the fight happens inside it.
    let recover_from = if spec.has_fault_window() {
        Time(fault_start)
    } else {
        Time(0)
    };
    let msgs_before = sim.metrics().counter("tx.total");

    if spec.has_fault_window() {
        if let Some(k) = spec.partition {
            let groups = partition_groups(n, k.min(n), &mut frng);
            sim.schedule_fault(Time(fault_start), Fault::Partition { groups });
            sim.schedule_fault(Time(fault_end), Fault::Heal);
        }
        if spec.churn {
            let trace = poisson_crash_rejoin_trace(
                n,
                Time(fault_start),
                Time(fault_end),
                0.01,
                40,
                |u| g.neighbors(u).collect(),
                &mut frng,
            );
            for f in trace {
                sim.schedule_fault(f.at, f.fault);
            }
        }
        if spec.loss_links {
            // installed only after the one-shot hello exchange at tick 0/1:
            // a hello permanently lost on a dead-on-arrival link is a
            // different experiment (bootstrap over a sparser graph)
            sim.run_until(Time(fault_start));
            for (u, v) in g.edges().collect::<Vec<_>>() {
                if frng.chance(0.25) {
                    // one direction only — asymmetric loss
                    sim.set_link_override(u, v, LinkConfig::ideal().with_drop(0.3));
                }
            }
            sim.run_until(Time(fault_end));
            sim.clear_link_overrides();
        }
        sim.run_until(Time(fault_end + 50));
    }

    let stop = Rc::clone(&wd);
    let outcome = sim.run_until_stable(8, RING_BUDGET, move |nodes, _| {
        consistency::check_ring(nodes).consistent() || stop.borrow().is_frozen()
    });
    let converged = consistency::check_ring(sim.protocols()).consistent();
    let verdict = if converged {
        Verdict::Converged.label()
    } else {
        wd.borrow().verdict.label()
    };
    let inv = inv.borrow();
    let provenance = sim.causal_summary().expect("chaos sims are instrumented");
    let mut metrics = sim.metrics().clone();
    provenance.record_metrics(&mut metrics);
    Outcome {
        converged,
        verdict,
        recovery_ticks: outcome.time() - recover_from,
        recovery_msgs: sim.metrics().counter("tx.total") - msgs_before,
        floods: sim.metrics().counter("msg.flood"),
        union_disconnected: inv.union_disconnected,
        potential_rises: inv.potential_rises,
        metrics,
        provenance,
    }
}

/// This experiment's own flags, beyond the shared `--seeds`, `--workers`,
/// `--matrix` and `--csv`; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &[];

/// The E11 body.
pub fn run(sh: &mut Shell) {
    let specs = scenarios();
    let matrix = sh.matrix(Matrix::new(
        specs.iter().map(|s| s.name),
        vec![50, 100],
        sh.seeds(3),
    ));
    sh.man
        .seed(0)
        .config("window", WINDOW)
        .config("freeze_window", FREEZE_WINDOW);

    // The full scenario × n × seed cross product as one flat job list on
    // the orchestrator pool. Results come back in canonical job order, so
    // the merged registries and the manifest below are byte-identical for
    // any --workers value.
    let sweep = sh.sweep(&matrix, |job| {
        let spec = specs
            .iter()
            .find(|s| s.name == matrix.name(job))
            .expect("matrix scenarios come from the spec library");
        run_scenario(spec, job.n, job.seed)
    });

    sh.table(
        "E11: chaos matrix (adversarial links, partitions, churn, corrupted starts)",
        &[
            "scenario",
            "n",
            "converged",
            "recovery ticks (mean)",
            "recovery msgs (mean)",
            "floods",
            "frozen",
            "union disc",
            "phi rises",
        ],
    );
    let mut agg = Metrics::new();
    let mut agg_prov = ProvenanceSummary::default();
    let seeds = matrix.seeds.len();
    for (name, n, outcomes) in sweep.cells() {
        for (o, &seed) in outcomes.iter().zip(&matrix.seeds) {
            sh.man.chaos_scenario(ssr_obs::ChaosScenario {
                name: name.to_string(),
                n: n as u64,
                seed,
                verdict: o.verdict.to_string(),
                recovery_ticks: o.recovery_ticks,
                recovery_msgs: o.recovery_msgs,
                floods: o.floods,
                union_disconnected: o.union_disconnected,
                potential_rises: o.potential_rises,
            });
            agg.merge(&o.metrics);
            agg_prov.merge(&o.provenance);
            if o.converged {
                agg.observe_hist("chaos.recovery_ticks", o.recovery_ticks);
                agg.observe_hist("chaos.recovery_msgs", o.recovery_msgs);
            }
        }
        let converged = || outcomes.iter().filter(|o| o.converged);
        let ok = converged().count();
        let frozen = outcomes
            .iter()
            .filter(|o| o.verdict.starts_with("frozen"))
            .count();
        let ticks = summarize_counts(converged().map(|o| o.recovery_ticks));
        let msgs = summarize_counts(converged().map(|o| o.recovery_msgs));
        let floods: u64 = outcomes.iter().map(|o| o.floods).sum();
        let union_disc: u64 = outcomes.iter().map(|o| o.union_disconnected).sum();
        let rises: u64 = outcomes.iter().map(|o| o.potential_rises).sum();
        // CI gate: every SSR scenario must self-stabilize (converge without
        // freezing or flooding, union graph connected). Violations are
        // recorded with the shell, so the table and manifest still come
        // out before the process fails.
        if ok != seeds || floods != 0 || union_disc != 0 {
            sh.fail(format!(
                "self-stabilization violated — {name} n={n}: converged {ok}/{seeds}, \
                 floods {floods}, union disc {union_disc}"
            ));
        }
        sh.row(&[
            name.to_string(),
            n.to_string(),
            format!("{ok}/{seeds}"),
            format!("{:.0}", ticks.mean),
            fmt_count(msgs.mean as u64),
            floods.to_string(),
            frozen.to_string(),
            union_disc.to_string(),
            rises.to_string(),
        ]);
    }

    sh.note("\npaper claim: linearization self-stabilizes — every SSR scenario must");
    sh.note("end converged (frozen = 0) with floods = 0 and the union graph never");
    sh.note("disconnected after the fault window; transient phi rises during");
    sh.note("discovery are expected (DESIGN.md finding 1) and only counted.");

    // VRR crossing-state rows (DESIGN.md finding 7): seeds pinned to runs
    // known to freeze, plus one healthy control. The watchdog verdict —
    // not a burned tick budget — is the recorded outcome. Pinned (n, seed)
    // pairs are not a cross product, so they ride the pool via `map`;
    // reports come back in pin order.
    let vrr_runs: Vec<(usize, u64)> = vec![(28, 9), (28, 12), (30, 2), (20, 0)];
    let vrr_reports = sh.map(vrr_runs, |&(n, seed)| {
        let mut rng = Rng::new(seed);
        let (g, _) = generators::unit_disk_connected(n, 1.3, &mut rng);
        let labels = Labeling::random(n, &mut rng);
        let (report, _) = run_vrr_bootstrap_watched(
            &g,
            &labels,
            VrrMode::Linearized,
            LinkConfig::ideal(),
            seed,
            200_000,
            2_000,
        );
        (n, seed, report)
    });
    sh.note("\nVRR crossing-state classification (watched bootstrap):");
    for (n, seed, report) in &vrr_reports {
        sh.note(format!(
            "  n={n:<4} seed={seed:<4} verdict={:<16} ticks={} msgs={}",
            report.verdict,
            report.ticks,
            fmt_count(report.total_messages)
        ));
        sh.man.chaos_scenario(ssr_obs::ChaosScenario {
            name: "vrr-bootstrap".to_string(),
            n: *n as u64,
            seed: *seed,
            verdict: report.verdict.to_string(),
            recovery_ticks: report.ticks,
            recovery_msgs: report.total_messages,
            floods: 0,
            union_disconnected: 0,
            potential_rises: 0,
        });
    }

    sh.man.record_metrics(&agg);
    sh.man.record_provenance(&agg_prov);
}
