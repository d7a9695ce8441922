//! Integration-test host crate (tests live in `tests/tests/`), plus the
//! one chaos-run helper the equivalence and provenance suites share.

use std::rc::Rc;

use ssr_core::bootstrap::{make_ssr_nodes, BootstrapConfig};
use ssr_core::node::SsrNode;
use ssr_core::{chaos, consistency};
use ssr_sim::faults::Fault;
use ssr_sim::{LinkConfig, RunOutcome, Simulator, Time, TraceEvent, TraceSink};
use ssr_types::Rng;
use ssr_workloads::Topology;

/// One E11-style scenario: which corruption seeds the virtual state and
/// whether a partition window interrupts recovery.
#[derive(Clone, Copy, Debug)]
pub enum Scenario {
    /// Wound ring with three windings.
    WoundRing,
    /// Uniformly random successor per node.
    RandomSucc,
    /// Clean start, two-way partition over ticks 40–400.
    PartitionHeal,
}

impl Scenario {
    /// Stable label for manifests and messages.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::WoundRing => "wound-ring",
            Scenario::RandomSucc => "random-succ",
            Scenario::PartitionHeal => "partition-heal",
        }
    }
}

/// A finished chaos run: the simulator at its end state, the full
/// in-memory trace, and how the final `run_until_stable` ended.
pub struct ChaosRun {
    /// The simulator after the run.
    pub sim: Simulator<SsrNode>,
    /// Every trace record, in emission order.
    pub trace: Vec<TraceEvent>,
    /// Outcome of the closing run to ring consistency.
    pub outcome: RunOutcome,
}

/// Runs `scenario` at size `n` with a full in-memory trace, the causal
/// ledger on when `ledger` is set. Mirrors the `exp_chaos` run shape:
/// adverse links, corrupted starts, scheduled faults, invariant probe on
/// its grid.
pub fn run_chaos(scenario: Scenario, n: usize, seed: u64, ledger: bool) -> ChaosRun {
    // wall-clock manifests can never be byte-identical; omit the field
    std::env::set_var("SSR_OBS_OMIT_WALL", "1");
    let (g, labels) = Topology::UnitDisk { n, scale: 1.4 }.instance(seed ^ 0xA5A5);
    let nodes = make_ssr_nodes(&labels, BootstrapConfig::default().ssr);
    // duplication + reordering stress equal-tick delivery order — exactly
    // where a queue rewrite would diverge first
    let link = LinkConfig::ideal().with_dup(0.1).with_reorder(0.15, 4);
    let sink = TraceSink::memory();
    let mut sim = if ledger {
        Simulator::instrumented(g, nodes, link, seed, sink.clone())
    } else {
        Simulator::with_trace(g, nodes, link, seed, sink.clone())
    };

    let mut frng = Rng::new(seed ^ 0x00C4);
    match scenario {
        Scenario::WoundRing => {
            let succ = chaos::wound_ring_succ(labels.ids(), 3.min(n));
            chaos::apply_succ_corruption(&mut sim, &labels, &succ, true);
        }
        Scenario::RandomSucc => {
            let succ = chaos::random_succ(labels.ids(), &mut frng);
            chaos::apply_succ_corruption(&mut sim, &labels, &succ, true);
        }
        Scenario::PartitionHeal => {
            let groups = ssr_sim::faults::partition_groups(n, 2, &mut frng);
            sim.schedule_fault(Time(40), Fault::Partition { groups });
            sim.schedule_fault(Time(400), Fault::Heal);
        }
    }

    let inv = chaos::shared_invariants(500);
    sim.add_probe(16, chaos::invariant_probe(labels.clone(), Rc::clone(&inv)));

    if matches!(scenario, Scenario::PartitionHeal) {
        sim.run_until(Time(450));
    }
    let outcome = sim.run_until_stable(8, 100_000, |nodes, _| {
        consistency::check_ring(nodes).consistent()
    });
    ChaosRun {
        sim,
        trace: sink.take(),
        outcome,
    }
}
