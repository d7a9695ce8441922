//! **E1 — Figure 1: the loopy state.**
//!
//! The paper's Figure 1 shows a virtual ring over the addresses
//! {1, 4, 9, 13, 18, 21, 25, 29} that is *locally* consistent — every node
//! has exactly one successor and one predecessor — yet winds the address
//! space twice: 1 → 9 → 18 → 25 → 4 → 13 → 21 → 29 → 1. Read on the line
//! instead, the inconsistency becomes locally visible: nodes 1 and 4 have
//! two right neighbors, nodes 21 and 25 two left neighbors.
//!
//! This experiment reproduces the figure operationally. The physical topology
//! *is* the doubly-wound cycle and the loopy pointers are injected as the
//! initial condition (the self-stabilization setting — each loopy successor
//! is the clockwise-closest physical neighbor, so the state is a genuine
//! flood-free fixpoint):
//!
//! 1. **ISPRP without the flood** — stays loopy forever (local consistency
//!    cannot detect the winding);
//! 2. **ISPRP with the representative flood** — detects and unwinds it;
//! 3. **linearized SSR** — resolves it with *zero* flood messages.
//!
//! The three-mechanism story itself is [`crate::figure`], shared with
//! Figure 2; it is a *narrative replay* of one fixed 8-node instance, so
//! the orchestrator's `--workers`/`--matrix` flags do not apply here.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- fig1_loopy [--csv out.csv]`
//! Flags: `--trace-jsonl PATH` streams the ISPRP-with-flood run's event
//! trace to PATH as JSONL (one object per line; see `ssr_sim::trace`).

use std::collections::BTreeMap;

use ssr_core::chaos;
use ssr_core::consistency::RingShape;
use ssr_core::isprp::IsprpNode;
use ssr_graph::{Graph, Labeling};
use ssr_types::NodeId;

use crate::figure::{isprp_vs_linearized, Figure};
use crate::Shell;

/// Figure 1's addresses.
const IDS: [u64; 8] = [1, 4, 9, 13, 18, 21, 25, 29];

/// The figure's world: the doubly-wound successor map comes from the chaos
/// scenario library (`wound_ring_succ` with 2 windings reproduces exactly
/// the figure's order 1,9,18,25,4,13,21,29), and the physical cycle *is*
/// that loopy order — each loopy successor is the clockwise-closest
/// physical neighbor, so the state is a fixpoint of flood-free ISPRP.
fn loopy_world() -> (Graph, Labeling, BTreeMap<NodeId, NodeId>) {
    let ids: Vec<NodeId> = IDS.iter().map(|&i| NodeId(i)).collect();
    let succ = chaos::wound_ring_succ(&ids, 2);
    let labels = Labeling::from_ids(ids);
    let mut g = Graph::new(IDS.len());
    for (&a, &b) in &succ {
        g.add_edge(labels.index(a).unwrap(), labels.index(b).unwrap());
    }
    (g, labels, succ)
}

fn show_stuck(nodes: &[IsprpNode], shape: &RingShape) {
    let succ: BTreeMap<NodeId, NodeId> = nodes
        .iter()
        .filter_map(|p| p.succ().map(|s| (p.id(), s)))
        .collect();
    println!("ISPRP (no flood) successor pointers after 5000 ticks:");
    for (a, b) in &succ {
        println!("  {a} → {b}");
    }
    println!("  shape: {shape:?}  (locally consistent, globally loopy)\n");
}

/// This experiment's own flags, beyond the shared `--seeds`, `--workers`,
/// `--matrix` and `--csv`; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &["trace-jsonl"];

/// The E1 body.
pub fn run(sh: &mut Shell) {
    let (topo, labels, succ) = loopy_world();
    let trace_jsonl = sh.args.opt("trace-jsonl").map(str::to_string);
    if let Some(path) = &trace_jsonl {
        sh.man.config("trace-jsonl", path);
    }
    println!("Figure 1 reproduction — the loopy state");
    println!("addresses: {IDS:?}");
    println!("physical cycle (= initial virtual ring): 1–9–18–25–4–13–21–29–1\n");
    let fig = Figure {
        title: "E1: resolving the loopy state",
        topo,
        labels,
        succ,
        stuck: RingShape::Loopy(2),
        show_stuck,
        trace_jsonl,
    };
    isprp_vs_linearized(sh, &fig);
}
