//! **E3 — Figure 3: the linearization algorithm at work.**
//!
//! The paper's Figure 3 walks the running example through linearization
//! rounds until the sorted line emerges. This experiment replays that process
//! with the abstract round engine on the Figure-1 example (the doubly-wound
//! ring over eight addresses), printing the full virtual edge set and each
//! node's left/right neighbor sets per round, for all three variants.
//!
//! This is a pure narrative replay of one fixed 8-node instance — it runs
//! serially and the orchestrator's `--workers`/`--matrix` flags do not
//! apply (see docs/SWEEPS.md for the sweep experiments).
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- fig3_trace [--variant pure|memory|lsn]`

use ssr_graph::Graph;
use ssr_linearize::{chain_edges_present, is_exact_chain, step_round, Semantics, Variant};
use ssr_obs::Value;

use crate::cells::record_round_timeline;
use crate::Shell;

/// The Figure-1 example in rank space: ranks 0..8 stand for addresses
/// 1, 4, 9, 13, 18, 21, 25, 29; the initial virtual graph is the doubly
/// wound ring 0–2–4–6–1–3–5–7–0.
fn example() -> (Graph, [u64; 8]) {
    let order = [0usize, 2, 4, 6, 1, 3, 5, 7];
    let mut g = Graph::new(8);
    for i in 0..8 {
        g.add_edge(order[i], order[(i + 1) % 8]);
    }
    (g, [1, 4, 9, 13, 18, 21, 25, 29])
}

fn show(g: &Graph, ids: &[u64; 8]) {
    let edges: Vec<String> = g
        .edges()
        .map(|(u, v)| format!("{}–{}", ids[u], ids[v]))
        .collect();
    println!("  edges: {}", edges.join(", "));
    for v in 0..8 {
        let left: Vec<u64> = g.neighbors(v).filter(|&u| u < v).map(|u| ids[u]).collect();
        let right: Vec<u64> = g.neighbors(v).filter(|&u| u > v).map(|u| ids[u]).collect();
        println!("    node {:>2}: left {:?} right {:?}", ids[v], left, right);
    }
}

/// This experiment's own flags, beyond the shared `--seeds`, `--workers`,
/// `--matrix` and `--csv`; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &["variant"];

/// The E3 body.
pub fn run(sh: &mut Shell) {
    let variant = match sh.args.opt("variant").unwrap_or("pure") {
        "pure" => Variant::Pure,
        "memory" => Variant::Memory,
        "lsn" => Variant::lsn(),
        other => panic!("unknown variant {other}"),
    };
    let (g0, ids) = example();

    println!(
        "Figure 3 reproduction — linearization at work ({})",
        variant.name()
    );
    println!("initial virtual graph (the loopy state, drawn as edges):");
    show(&g0, &ids);

    let mut g = g0.clone();
    let mut round = 0;
    while !chain_edges_present(&g) || (matches!(variant, Variant::Pure) && !is_exact_chain(&g)) {
        round += 1;
        g = step_round(&g, variant, Semantics::Star);
        println!("\nafter round {round}:");
        show(&g, &ids);
        if round > 100 {
            println!("(stopping at 100 rounds)");
            break;
        }
    }
    println!(
        "\nline formed after {round} round(s); exact chain: {}",
        is_exact_chain(&g)
    );

    // summary across variants for the same example
    sh.man.config("variant", variant.name());
    println!("\nrounds to the line, by variant (star semantics):");
    let mut by_variant: Vec<(String, Value)> = Vec::new();
    for v in [Variant::Pure, Variant::Memory, Variant::lsn()] {
        let r = ssr_linearize::run(&g0, v, Semantics::Star, 1000);
        println!(
            "  {:<6}: line at round {:?}, exact chain at {:?}, peak degree {}",
            v.name(),
            r.line_at,
            r.exact_at,
            r.peak_degree()
        );
        let round = |at: Option<usize>| at.map_or(Value::Null, |x| Value::from(x as u64));
        by_variant.push((
            v.name().to_string(),
            Value::Obj(vec![
                ("line_at".into(), round(r.line_at)),
                ("exact_at".into(), round(r.exact_at)),
                ("peak_degree".into(), (r.peak_degree() as u64).into()),
            ]),
        ));
    }

    // Manifest: the traced variant's per-round timeline plus the summary.
    let traced = ssr_linearize::run(&g0, variant, Semantics::Star, 1000);
    record_round_timeline(&mut sh.man, &traced, 8);
    sh.man.extra("by_variant", Value::Obj(by_variant));
}
