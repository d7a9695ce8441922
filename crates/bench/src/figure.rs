//! The story Figures 1 and 2 share: a *locally* consistent but globally
//! wrong virtual ring is injected as the starting condition (the
//! self-stabilization setting — it may arise from a network merge or stale
//! state), then three mechanisms get to resolve it:
//!
//! 1. **ISPRP without the flood** — stays stuck forever (local consistency
//!    cannot detect the global defect);
//! 2. **ISPRP with the representative flood** — detects and repairs it;
//! 3. **linearized SSR** — resolves it with *zero* flood messages.
//!
//! This is a *narrative replay* of one fixed small instance, not a sweep:
//! the three sections run serially in story order, so the orchestrator's
//! `--workers`/`--matrix` flags do not apply (see docs/SWEEPS.md for the
//! sweep experiments).

use std::collections::BTreeMap;

use ssr_core::bootstrap::{
    isprp_shape, make_isprp_nodes, run_linearized_bootstrap, BootstrapConfig,
};
use ssr_core::consistency::{classify_succ_map, Linearized, RingShape};
use ssr_core::isprp::{IsprpConfig, IsprpNode};
use ssr_core::route::SourceRoute;
use ssr_graph::{Graph, Labeling};
use ssr_obs::Value;
use ssr_sim::{LinkConfig, Simulator, Time, TraceSink};
use ssr_types::NodeId;

use crate::cells::message_count;
use crate::Shell;

/// One figure's fixed world and what is specific to telling its story.
pub struct Figure {
    /// Results-table title.
    pub title: &'static str,
    /// The physical topology.
    pub topo: Graph,
    /// Node addresses.
    pub labels: Labeling,
    /// The injected successor pointers; every edge is a physical link, so
    /// the state is a genuine fixpoint of flood-free ISPRP.
    pub succ: BTreeMap<NodeId, NodeId>,
    /// The global defect the injected state has and flood-free ISPRP keeps.
    pub stuck: RingShape,
    /// Prints the flood-free end state (after 5000 ticks).
    pub show_stuck: fn(&[IsprpNode], &RingShape),
    /// Where to stream the ISPRP-with-flood run's event trace as JSONL.
    pub trace_jsonl: Option<String>,
}

/// ISPRP nodes starting from the figure's injected state. Injection
/// precedes the first protocol action — otherwise transient hello-phase
/// claims can leak cross-ring knowledge through redirects and dissolve the
/// defect by accident.
fn injected_isprp(fig: &Figure, cfg: IsprpConfig, trace: TraceSink) -> Simulator<IsprpNode> {
    let mut nodes = make_isprp_nodes(&fig.labels, cfg);
    for (&a, &b) in &fig.succ {
        let ia = fig.labels.index(a).expect("succ map is over the labels");
        nodes[ia].inject_succ(SourceRoute::direct(a, b));
    }
    Simulator::with_trace(fig.topo.clone(), nodes, LinkConfig::ideal(), 1, trace)
}

/// Runs the three mechanisms over `fig`, narrating to stdout and filling
/// the shell's table and manifest.
pub fn isprp_vs_linearized(sh: &mut Shell, fig: &Figure) {
    assert_eq!(
        classify_succ_map(&fig.succ),
        fig.stuck,
        "scenario library must reproduce the figure's state"
    );
    sh.man.seed(1);
    sh.table(
        fig.title,
        &[
            "mechanism",
            "converged",
            "final shape",
            "ticks",
            "flood msgs",
            "total msgs",
        ],
    );

    // -- ISPRP without flood --------------------------------------------
    {
        let cfg = IsprpConfig {
            enable_flood: false,
        };
        let mut sim = injected_isprp(fig, cfg, TraceSink::disabled());
        sim.run_until(Time(5_000));
        let shape = isprp_shape(sim.protocols());
        (fig.show_stuck)(sim.protocols(), &shape);
        assert_eq!(shape, fig.stuck, "expected the injected state to persist");
        sh.row(&[
            "ISPRP, no flood".into(),
            "no".into(),
            format!("{shape:?}"),
            "5000+".into(),
            sim.metrics().counter("msg.flood").to_string(),
            sim.metrics().counter("tx.total").to_string(),
        ]);
        sh.man.extra(
            "isprp_no_flood_tx",
            sim.metrics().counter("tx.total").into(),
        );
        sh.man
            .extra("isprp_no_flood_shape", Value::Str(shape.label()));
    }

    // -- ISPRP with flood (same injected start) -------------------------
    {
        let sink = match &fig.trace_jsonl {
            Some(path) => TraceSink::jsonl_file(path).expect("open trace file"),
            None => TraceSink::disabled(),
        };
        let mut sim = injected_isprp(fig, IsprpConfig::default(), sink.clone());
        let outcome = sim.run_until_stable(8, 20_000, |nodes, _| {
            isprp_shape(nodes) == RingShape::ConsistentRing
        });
        let shape = isprp_shape(sim.protocols());
        let floods = sim.metrics().counter("msg.flood");
        let ticks = outcome.time().ticks();
        println!("ISPRP (with flood): {shape:?} at t={ticks} (flood msgs: {floods})");
        assert_eq!(shape, RingShape::ConsistentRing);
        sh.row(&[
            "ISPRP + flood".into(),
            "yes".into(),
            format!("{shape:?}"),
            ticks.to_string(),
            floods.to_string(),
            sim.metrics().counter("tx.total").to_string(),
        ]);
        sh.man
            .extra("isprp_flood_tx", sim.metrics().counter("tx.total").into());
        sh.man.extra("isprp_flood_msgs", floods.into());
        sh.man.extra("isprp_flood_ticks", ticks.into());
        sink.flush().expect("flush trace");
        if let Some(path) = &fig.trace_jsonl {
            println!("({} trace events streamed to {path})", sink.len());
        }
    }

    // -- linearized SSR -------------------------------------------------
    {
        let cfg = BootstrapConfig {
            max_ticks: 20_000,
            ..Default::default()
        };
        let (report, sim) = run_linearized_bootstrap(&fig.topo, &fig.labels, &cfg);
        println!(
            "linearized SSR: converged={} at t={} with zero floods",
            report.converged, report.ticks
        );
        println!("final ring (successor walk from node 1):");
        let mut cur = NodeId(1);
        for _ in 0..fig.labels.len() {
            let node = sim.protocols().iter().find(|p| p.id() == cur).unwrap();
            let next = node.ring_succ().unwrap();
            println!("  {cur} → {next}");
            cur = next;
        }
        assert!(report.converged);
        assert_eq!(
            message_count(&report.messages, "msg.flood"),
            0,
            "the linearized bootstrap must not flood"
        );
        sh.row(&[
            "linearized SSR".into(),
            "yes".into(),
            format!("{:?}", report.consistency.shape),
            report.ticks.to_string(),
            "0".into(),
            report.total_messages.to_string(),
        ]);
        // the manifest's full metrics + timeline come from the paper's
        // mechanism (the linearized run); the baselines are extras above
        sh.man.record_metrics(sim.metrics());
        sh.timeline(&report.timeline);
        sh.man.extra("linearized_tx", report.total_messages.into());
        sh.man.extra("linearized_ticks", report.ticks.into());
    }
    println!();
}
