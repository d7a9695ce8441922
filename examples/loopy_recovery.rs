//! Self-stabilization from an adversarial state: the paper's loopy ring
//! (Figure 1), dissolved by linearization without any flooding.
//!
//! ```text
//! cargo run --release -p ssr-core --example loopy_recovery
//! ```
//!
//! The physical network is a cycle wired in the doubly-wound order, so the
//! initial virtual ring (E_v := E_p) *is* the loopy state: every node
//! locally consistent, the ring globally wound twice. The linearized
//! protocol reads the address space as a line, which makes the winding
//! locally visible, and sorts it out.

use ssr_core::bootstrap::{make_ssr_nodes, BootstrapConfig};
use ssr_core::consistency::{self, Linearized, RingShape};
use ssr_graph::{Graph, Labeling};
use ssr_sim::{LinkConfig, Simulator};
use ssr_types::NodeId;

fn main() {
    // Figure 1's addresses and winding order.
    let ids = [1u64, 4, 9, 13, 18, 21, 25, 29];
    let order = [0usize, 2, 4, 6, 1, 3, 5, 7]; // 1,9,18,25,4,13,21,29
    let mut topo = Graph::new(8);
    for i in 0..8 {
        topo.add_edge(order[i], order[(i + 1) % 8]);
    }
    let labels = Labeling::from_ids(ids.iter().map(|&i| NodeId(i)).collect());

    // the initial successor relation (physical ring order) is loopy
    let succ: std::collections::BTreeMap<NodeId, NodeId> = (0..8)
        .map(|i| (NodeId(ids[order[i]]), NodeId(ids[order[(i + 1) % 8]])))
        .collect();
    println!("initial virtual ring (from the physical cycle):");
    for (a, b) in &succ {
        println!("  {a} -> {b}");
    }
    println!("shape: {:?}\n", consistency::classify_succ_map(&succ));
    assert_eq!(consistency::classify_succ_map(&succ), RingShape::Loopy(2));

    // run the linearized bootstrap
    let cfg = BootstrapConfig::default();
    let nodes = make_ssr_nodes(&labels, cfg.ssr);
    let mut sim = Simulator::new(topo, nodes, LinkConfig::ideal(), 1);
    let outcome = sim.run_until_stable(4, 50_000, |nodes, _| {
        consistency::check_ring(nodes).consistent()
    });
    let report = consistency::check_ring(sim.protocols());
    println!(
        "linearized bootstrap: consistent={} at t={} — floods sent: {}",
        report.consistent(),
        outcome.time().ticks(),
        sim.metrics().counter("msg.flood")
    );
    assert!(report.consistent());
    assert_eq!(sim.metrics().counter("msg.flood"), 0);

    println!("\nfinal ring (successor walk):");
    let mut cur = NodeId(1);
    for _ in 0..8 {
        let node = sim.protocols().iter().find(|p| p.id() == cur).unwrap();
        let next = node.ring_succ().unwrap();
        println!("  {cur} -> {next}");
        cur = next;
    }
}
