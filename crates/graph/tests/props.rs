//! Property-based tests for the graph substrate.

use std::collections::BTreeSet;

use proptest::prelude::*;
use ssr_graph::{algo, generators, Graph};
use ssr_types::Rng;

/// Strategy: a random edge list over `n` nodes.
fn edge_list(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..(3 * n));
        (Just(n), edges)
    })
}

proptest! {
    #[test]
    fn graph_edge_symmetry((n, edges) in edge_list(40)) {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            if u != v {
                g.add_edge(u, v);
            }
        }
        for u in 0..n {
            for v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u));
            }
        }
        // handshake lemma
        let degree_sum: usize = (0..n).map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn rows_match_the_set_model(
        n0 in 1usize..12,
        ops in proptest::collection::vec((0u8..8, any::<usize>(), any::<usize>()), 0..120),
    ) {
        // the representation `Graph` had before sorted rows, as the model
        let mut model: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n0];
        let mut g = Graph::new(n0);
        for (op, a, b) in ops {
            let n = model.len();
            let (u, v) = (a % n, b % n);
            match op {
                // adds outnumber removals so rows grow long enough to shift
                0..=3 if u != v => {
                    let fresh = model[u].insert(v as u32);
                    model[v].insert(u as u32);
                    prop_assert_eq!(g.add_edge(u, v), fresh);
                }
                4 | 5 => {
                    let present = model[u].remove(&(v as u32));
                    model[v].remove(&(u as u32));
                    prop_assert_eq!(g.remove_edge(u, v), present);
                }
                6 => {
                    let former: Vec<usize> = model[u].iter().map(|&w| w as usize).collect();
                    for &w in &former {
                        model[w].remove(&(u as u32));
                    }
                    model[u].clear();
                    prop_assert_eq!(g.isolate(u), former);
                }
                7 => {
                    model.push(BTreeSet::new());
                    prop_assert_eq!(g.add_node(), n);
                }
                _ => {}
            }
            let n = model.len();
            prop_assert_eq!(g.node_count(), n);
            let mut edges = Vec::new();
            for (u, set) in model.iter().enumerate() {
                let expect: Vec<usize> = set.iter().map(|&w| w as usize).collect();
                prop_assert_eq!(g.neighbors(u).collect::<Vec<_>>(), expect.clone());
                prop_assert_eq!(g.row(u).to_vec(), set.iter().copied().collect::<Vec<u32>>());
                prop_assert_eq!(g.degree(u), set.len());
                for v in 0..n + 2 {
                    prop_assert_eq!(g.has_edge(u, v), set.contains(&(v as u32)));
                }
                edges.extend(expect.into_iter().filter(|&w| u < w).map(|w| (u, w)));
            }
            prop_assert_eq!(g.edge_count(), edges.len());
            prop_assert_eq!(g.edges().collect::<Vec<_>>(), edges);
            let degrees = model.iter().map(BTreeSet::len);
            let expect_stats = (
                degrees.clone().min().unwrap(),
                degrees.clone().max().unwrap(),
                degrees.sum::<usize>() as f64 / n as f64,
            );
            prop_assert_eq!(g.degree_stats(), expect_stats);
            // what `add_edge`/`remove_edge` leave is what the bulk path accepts
            let rows: Vec<Vec<u32>> = (0..n).map(|u| g.row(u).to_vec()).collect();
            prop_assert_eq!(Graph::from_sorted_rows(rows).edge_count(), g.edge_count());
        }
    }

    #[test]
    fn components_partition((n, edges) in edge_list(40)) {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            if u != v {
                g.add_edge(u, v);
            }
        }
        let (label, count) = algo::components(&g);
        // label is idempotent: the label of a label is itself
        for u in 0..n {
            prop_assert_eq!(label[label[u]], label[u]);
        }
        // neighbors share labels
        for (u, v) in g.edges() {
            prop_assert_eq!(label[u], label[v]);
        }
        // count matches distinct labels
        let distinct: BTreeSet<_> = label.iter().collect();
        prop_assert_eq!(distinct.len(), count);
        prop_assert_eq!(count == 1, algo::is_connected(&g));
    }

    #[test]
    fn shortest_path_is_shortest((n, edges) in edge_list(30), src_k: usize, dst_k: usize) {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            if u != v {
                g.add_edge(u, v);
            }
        }
        let src = src_k % n;
        let dst = dst_k % n;
        let dist = algo::bfs_distances(&g, src);
        match algo::shortest_path(&g, src, dst) {
            None => prop_assert_eq!(dist[dst], algo::UNREACHABLE),
            Some(p) => {
                prop_assert_eq!(p.len() as u32 - 1, dist[dst]);
                prop_assert_eq!(p[0], src);
                prop_assert_eq!(*p.last().unwrap(), dst);
                for w in p.windows(2) {
                    prop_assert!(g.has_edge(w[0], w[1]));
                }
            }
        }
    }

    #[test]
    fn ensure_connected_always_connects(n in 2usize..60, seed: u64, p in 0.0f64..0.08) {
        let mut rng = Rng::new(seed);
        let mut g = generators::gnp(n, p, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        prop_assert!(algo::is_connected(&g));
    }

    #[test]
    fn random_regular_degrees(seed: u64, half_n in 4usize..30, d in 1usize..5) {
        let n = 2 * half_n; // n*d always even
        let mut rng = Rng::new(seed);
        let g = generators::random_regular(n, d, &mut rng);
        for u in 0..n {
            prop_assert_eq!(g.degree(u), d);
        }
    }

    #[test]
    fn unit_disk_connected_property(seed: u64, n in 10usize..150) {
        let mut rng = Rng::new(seed);
        let (g, pts) = generators::unit_disk_connected(n, 1.0, &mut rng);
        prop_assert!(algo::is_connected(&g));
        prop_assert_eq!(pts.len(), n);
    }

    #[test]
    fn eccentricity_bounds_diameter((n, edges) in edge_list(25)) {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            if u != v {
                g.add_edge(u, v);
            }
        }
        let mut rng = Rng::new(0);
        generators::ensure_connected(&mut g, &mut rng);
        let d = algo::diameter_exact(&g).unwrap();
        let sweep = algo::diameter_double_sweep(&g, 0).unwrap();
        prop_assert!(sweep <= d);
        prop_assert!(algo::eccentricity(&g, 0).unwrap() <= d);
        // double sweep is at least half the diameter (standard bound: it
        // returns an eccentricity, and every eccentricity >= d/2)
        prop_assert!(2 * sweep >= d);
    }
}
