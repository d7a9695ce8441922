//! **E2 — Figure 2: separate rings.**
//!
//! The paper's Figure 2 shows nodes {1, 9, 18} and {4, 13, 21} forming two
//! *disjoint* virtual rings — a second class of global inconsistency that
//! local ring maintenance cannot detect: every node has exactly one
//! successor and one predecessor, all claims are locally consistent, yet
//! the virtual graph is partitioned even though the physical network is
//! connected.
//!
//! Construction: two physical triangles bridged by the single link 18–4
//! (chosen so that *neither* bridge endpoint sees a better successor across
//! the bridge — the disjoint rings are then a genuine fixpoint of
//! flood-free ISPRP). The two-ring state is injected, then:
//!
//! 1. **ISPRP without flood** — the two rings persist forever;
//! 2. **ISPRP with flood** — the representative (21) floods, ring A's
//!    members claim toward it, and the rings merge;
//! 3. **linearized SSR** — merges them with zero floods: linearization
//!    "preserves the connectedness of the input graph", so a connected
//!    physical network can never stay partitioned.
//!
//! The three-mechanism story itself is [`crate::figure`], shared with
//! Figure 1; it is a *narrative replay* of one fixed 6-node instance, so
//! the orchestrator's `--workers`/`--matrix` flags do not apply here.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- fig2_rings [--csv out.csv]`

use std::collections::BTreeMap;

use ssr_core::chaos;
use ssr_core::consistency::RingShape;
use ssr_core::isprp::IsprpNode;
use ssr_graph::{Graph, Labeling};
use ssr_types::NodeId;

use crate::figure::{isprp_vs_linearized, Figure};
use crate::Shell;

/// Figure 2's addresses: ring A = {1, 9, 18}, ring B = {4, 13, 21}.
const IDS: [u64; 6] = [1, 9, 18, 4, 13, 21];

/// The figure's world. The two-ring successor map comes from the chaos
/// scenario library: `split_rings_succ` with 2 parts closes each
/// interleaved residue class of the sorted addresses on itself, which is
/// exactly the figure's rings 1→9→18→1 and 4→13→21→4. The physical
/// topology mirrors them as two triangles plus the single bridge 18–4
/// (chosen so neither bridge endpoint sees a better successor across it —
/// the disjoint rings are a genuine fixpoint of flood-free ISPRP).
fn world() -> (Graph, Labeling, BTreeMap<NodeId, NodeId>) {
    let ids: Vec<NodeId> = IDS.iter().map(|&i| NodeId(i)).collect();
    let succ = chaos::split_rings_succ(&ids, 2);
    let labels = Labeling::from_ids(ids);
    let mut g = Graph::new(IDS.len());
    // each ring's edges are physical triangle links
    for (&a, &b) in &succ {
        g.add_edge(labels.index(a).unwrap(), labels.index(b).unwrap());
    }
    // the bridge 18–4 (see above for why this pair)
    g.add_edge(
        labels.index(NodeId(18)).unwrap(),
        labels.index(NodeId(4)).unwrap(),
    );
    (g, labels, succ)
}

fn show_stuck(nodes: &[IsprpNode], shape: &RingShape) {
    println!("ISPRP (no flood) after 5000 ticks: {shape:?}");
    for p in nodes {
        println!("  {} → {:?}", p.id(), p.succ());
    }
    println!();
}

/// This experiment's own flags, beyond the shared `--seeds`, `--workers`,
/// `--matrix` and `--csv`; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &[];

/// The E2 body.
pub fn run(sh: &mut Shell) {
    let (topo, labels, succ) = world();
    println!("Figure 2 reproduction — separate rings over a connected physical network");
    println!("ring A: 1→9→18→1   ring B: 4→13→21→4   bridge: 18–4\n");
    let fig = Figure {
        title: "E2: merging separate rings",
        topo,
        labels,
        succ,
        stuck: RingShape::Partitioned(2),
        show_stuck,
        trace_jsonl: None,
    };
    isprp_vs_linearized(sh, &fig);
}
