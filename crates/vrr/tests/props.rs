//! Property-based tests for VRR's path-table invariants and the bootstrap.

use proptest::prelude::*;
use ssr_types::NodeId;
use ssr_vrr::table::{PathEntry, PathId, PathTable};

fn entry_for(id: PathId, ta: Option<usize>, tb: Option<usize>) -> PathEntry {
    PathEntry {
        ea: id.ea,
        eb: id.eb,
        toward_a: ta,
        toward_b: tb,
    }
}

proptest! {
    #[test]
    fn path_id_canonicalization(a: u64, b: u64, nonce: u64) {
        prop_assume!(a != b);
        let id1 = PathId::new(NodeId(a), NodeId(b), nonce);
        let id2 = PathId::new(NodeId(b), NodeId(a), nonce);
        prop_assert_eq!(id1, id2);
        prop_assert!(id1.ea < id1.eb);
    }

    #[test]
    fn endpoints_reflect_installed_entries(
        pairs in proptest::collection::vec((any::<u64>(), any::<u64>(), 0usize..16, 0usize..16), 1..40)
    ) {
        let me = NodeId(500);
        let mut t = PathTable::new();
        let mut expected = std::collections::BTreeSet::new();
        for (i, (a, b, ha, hb)) in pairs.into_iter().enumerate() {
            if a == b || NodeId(a) == me || NodeId(b) == me {
                continue;
            }
            let id = PathId::new(NodeId(a), NodeId(b), i as u64);
            t.install(id, entry_for(id, Some(ha), Some(hb)));
            expected.insert(id.ea);
            expected.insert(id.eb);
        }
        let seen: std::collections::BTreeSet<NodeId> =
            t.endpoints(me).map(|(ep, _)| ep).collect();
        prop_assert_eq!(seen, expected);
    }

    #[test]
    fn purge_via_removes_exactly_matching_links(
        links in proptest::collection::vec((0usize..8, 0usize..8), 1..30),
        dead in 0usize..8
    ) {
        let mut t = PathTable::new();
        for (i, (ha, hb)) in links.iter().enumerate() {
            let id = PathId::new(NodeId(2 * i as u64 + 1), NodeId(2 * i as u64 + 2), i as u64);
            t.install(id, entry_for(id, Some(*ha), Some(*hb)));
        }
        let before = t.len();
        let removed = t.purge_via(dead);
        prop_assert_eq!(before - t.len(), removed);
        // nothing remaining touches the dead link
        for (_, e) in t.iter() {
            prop_assert!(e.toward_a != Some(dead) && e.toward_b != Some(dead));
        }
        // everything removed did touch it
        let expected = links.iter().filter(|(a, b)| *a == dead || *b == dead).count();
        prop_assert_eq!(removed, expected);
    }

    #[test]
    fn purge_like_keeps_only_the_given_nonce(count in 1usize..10) {
        let mut t = PathTable::new();
        let (x, y) = (NodeId(1), NodeId(2));
        for nonce in 0..count as u64 {
            let id = PathId::new(x, y, nonce);
            t.install(id, entry_for(id, Some(0), Some(1)));
        }
        let keep = PathId::new(x, y, 0);
        let removed = t.purge_like(keep);
        prop_assert_eq!(removed, count - 1);
        prop_assert_eq!(t.len(), 1);
        prop_assert!(t.get(&keep).is_some());
    }
}

/// Linearized VRR converges on small random connected graphs and agrees
/// with the identifier sort (sampled, not exhaustive — full sweeps live in
/// E10).
#[test]
fn linearized_vrr_samples_converge_and_sort() {
    use ssr_graph::{generators, Labeling};
    use ssr_sim::LinkConfig;
    use ssr_types::Rng;
    use ssr_vrr::bootstrap::{run_vrr_bootstrap, vrr_succ_map};
    use ssr_vrr::node::VrrMode;

    let mut converged = 0;
    for seed in 0..4u64 {
        let mut rng = Rng::new(seed * 3 + 1);
        let mut g = generators::gnp(12, 0.25, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        let labels = Labeling::random(12, &mut rng);
        let (report, sim) = run_vrr_bootstrap(
            &g,
            &labels,
            VrrMode::Linearized,
            LinkConfig::ideal(),
            seed,
            100_000,
        );
        if !report.converged {
            continue;
        }
        converged += 1;
        // the successor map is the sorted cycle
        let succ = vrr_succ_map(sim.protocols());
        let mut sorted: Vec<NodeId> = labels.ids().to_vec();
        sorted.sort();
        for w in sorted.windows(2) {
            assert_eq!(succ.get(&w[0]), Some(&w[1]));
        }
        assert_eq!(succ.get(sorted.last().unwrap()), Some(&sorted[0]));
    }
    assert!(converged >= 3, "only {converged}/4 converged");
}
