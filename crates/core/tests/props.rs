//! Property-based tests for the SSR core: source-route algebra, cache
//! retention invariants, and end-to-end bootstrap properties on arbitrary
//! connected topologies.

use proptest::prelude::*;
use ssr_core::bootstrap::{run_linearized_bootstrap, BootstrapConfig};
use ssr_core::cache::RouteCache;
use ssr_core::node_util::{refresh_behind, shorten};
use ssr_core::route::SourceRoute;
use ssr_core::routing::{RouteOutcome, RoutingView};
use ssr_graph::{algo, generators, Graph, Labeling};
use ssr_types::{IntervalPartition, Neighbors, NodeId, Rng};

/// Strategy: a route as a list of distinct ids (simple path).
fn simple_path(max_len: usize) -> impl Strategy<Value = Vec<NodeId>> {
    proptest::collection::btree_set(any::<u64>(), 1..max_len)
        .prop_map(|s| s.into_iter().map(NodeId).collect::<Vec<_>>())
        .prop_shuffle()
}

/// Strategy: a hop list that may contain repeats (cycles), consecutive
/// duplicates removed.
fn loopy_path(max_len: usize) -> impl Strategy<Value = Vec<NodeId>> {
    proptest::collection::vec(0u64..24, 1..max_len).prop_map(|v| {
        let mut hops: Vec<NodeId> = v.into_iter().map(NodeId).collect();
        hops.dedup();
        hops
    })
}

proptest! {
    #[test]
    fn reverse_is_involutive(hops in simple_path(20)) {
        let r = SourceRoute::from_hops(hops);
        prop_assert_eq!(r.reversed().reversed(), r);
    }

    #[test]
    fn pruning_yields_simple_path_with_same_endpoints(hops in loopy_path(30)) {
        let r = SourceRoute::from_hops(hops);
        let p = r.pruned();
        prop_assert!(p.is_simple());
        prop_assert_eq!(p.src(), r.src());
        prop_assert_eq!(p.dst(), r.dst());
        prop_assert!(p.len() <= r.len());
        // idempotent
        prop_assert_eq!(p.pruned(), p.clone());
    }

    #[test]
    fn pruning_preserves_link_validity(hops in loopy_path(30)) {
        // every consecutive pair of the pruned route was consecutive
        // somewhere in the original (so physical validity is preserved)
        let r = SourceRoute::from_hops(hops);
        let orig_pairs: std::collections::BTreeSet<(NodeId, NodeId)> = r
            .hops()
            .windows(2)
            .flat_map(|w| [(w[0], w[1]), (w[1], w[0])])
            .collect();
        for w in r.pruned().hops().windows(2) {
            prop_assert!(orig_pairs.contains(&(w[0], w[1])));
        }
    }

    #[test]
    fn concat_endpoints(a in simple_path(10), b in simple_path(10)) {
        // join the two paths at a shared node
        let a = SourceRoute::from_hops(a);
        let mut hops_b = vec![a.dst()];
        hops_b.extend(b.into_iter().filter(|&h| h != a.dst()));
        let b = SourceRoute::from_hops(hops_b);
        let c = a.concat(&b);
        prop_assert_eq!(c.src(), a.src());
        prop_assert_eq!(c.dst(), b.dst());
        prop_assert!(c.is_simple());
    }

    #[test]
    fn cache_interval_invariant(owner: u64, dests in proptest::collection::vec(any::<u64>(), 1..80), base in 2u64..5) {
        // at most one unpinned entry per (side, interval)
        let owner = NodeId(owner);
        let mut cache = RouteCache::with_partition(owner, IntervalPartition::new(base));
        for d in dests {
            if d != owner.raw() {
                cache.insert(SourceRoute::direct(owner, NodeId(d)), false);
            }
        }
        let partition = IntervalPartition::new(base);
        let mut seen = std::collections::BTreeSet::new();
        for (d, _) in cache.iter() {
            let slot = partition.index(owner, d).unwrap();
            prop_assert!(seen.insert(slot), "two unpinned entries in {slot:?}");
        }
    }

    #[test]
    fn cache_best_toward_makes_cw_progress(owner: u64, dests in proptest::collection::vec(any::<u64>(), 1..40), target: u64) {
        let owner = NodeId(owner);
        let target = NodeId(target);
        let mut cache = RouteCache::new(owner);
        for d in dests {
            if d != owner.raw() {
                cache.insert(SourceRoute::direct(owner, NodeId(d)), false);
            }
        }
        if let Some((next, _)) = cache.best_toward(target) {
            // strict progress: next is on the clockwise arc and closer
            prop_assert!(ssr_types::cw_dist(next, target) < ssr_types::cw_dist(owner, target));
        }
    }

    /// The greedy pick over multi-hop routes, ids from a 64-wide window
    /// (anywhere on the ring) so that routes share hops: the pick lies on
    /// the clockwise arc `(owner, target]` and is not the owner, the prefix
    /// returned is a cached route's and the shortest cached prefix to the
    /// pick, and no hop of any cached route is strictly closer to the
    /// target. With no pick, no hop lies on the arc.
    #[test]
    fn cache_best_toward_picks_the_closest_hop_over_its_shortest_prefix(
        base: u64,
        owner in 0u64..64,
        routes in proptest::collection::vec(proptest::collection::vec(0u64..64, 1..6), 1..24),
        target in 0u64..64,
    ) {
        let id = |x: u64| NodeId(base.wrapping_add(x));
        let (owner, target) = (id(owner), id(target));
        let mut cache = RouteCache::new(owner);
        for relays in routes {
            let mut hops: Vec<NodeId> = std::iter::once(owner).chain(relays.into_iter().map(id)).collect();
            hops.dedup();
            cache.insert(SourceRoute::from_hops(hops).pruned(), false);
        }
        let gap = ssr_types::cw_dist(owner, target);
        let on_arc = |h: NodeId| h != owner && ssr_types::cw_dist(owner, h) <= gap;
        // every (hop, prefix length) a cached route offers
        let offered: Vec<(NodeId, usize)> = cache
            .iter()
            .flat_map(|(_, r)| r.hops().iter().copied().zip(0..).skip(1))
            .collect();
        let Some((pick, prefix)) = cache.best_toward(target) else {
            prop_assert!(offered.iter().all(|&(h, _)| !on_arc(h)));
            return Ok(());
        };
        prop_assert!(on_arc(pick), "{:?} off the arc", pick);
        prop_assert_eq!((prefix.first(), prefix.last()), (Some(&owner), Some(&pick)));
        prop_assert!(cache.iter().any(|(_, r)| r.hops().starts_with(prefix)));
        let shortest = offered.iter().filter(|&&(h, _)| h == pick).map(|&(_, k)| k).min();
        prop_assert_eq!(Some(prefix.len() - 1), shortest);
        let left = |h: NodeId| ssr_types::cw_dist(h, target);
        prop_assert!(offered.iter().all(|&(h, _)| left(h) >= left(pick)));
    }

    /// Relay shortcut and first-hop cut ([`shorten`] with no cache, at a
    /// relay's `pos` and at 0): over a random connected graph and a random valid
    /// route, what any holder makes of the route is a subsequence of it
    /// that keeps both endpoints and every hop up to the holder, every
    /// consecutive pair is still a physical edge, and no neighbor of the
    /// holder is left beyond its next hop.
    #[test]
    fn a_spliced_route_is_a_valid_subsequence_with_the_same_endpoints(
        n in 2usize..40, p in 0.0f64..0.3, seed: u64, steps in 1usize..60, at: usize,
    ) {
        let mut rng = Rng::new(seed);
        let mut g = generators::gnp(n, p, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        let labels = Labeling::random(n, &mut rng);
        // a random walk, loop-erased: a valid simple route
        let mut walk = vec![rng.index(n)];
        for _ in 0..steps {
            let here = *walk.last().unwrap();
            let next: Vec<usize> = g.neighbors(here).collect();
            walk.push(next[rng.index(next.len())]);
        }
        let hops = walk.iter().map(|&u| labels.id(u)).collect();
        let before = SourceRoute::from_hops(hops).pruned();
        let has_edge = |a, b| g.has_edge(labels.index(a).unwrap(), labels.index(b).unwrap());
        prop_assert!(before.valid_in(has_edge));

        let pos = at % before.hops().len();
        let holder = before.hops()[pos];
        let mut nbrs = Neighbors::default();
        for v in g.neighbors(labels.index(holder).unwrap()) {
            nbrs.bind(labels.id(v), v);
        }
        let mut after = before.hops().to_vec();
        let spliced = shorten(None, &nbrs, &mut after, pos);
        prop_assert_eq!(spliced.is_some(), after.len() < before.hops().len());
        prop_assert_eq!(&after[..=pos], &before.hops()[..=pos]);
        let mut rest = before.hops().iter();
        prop_assert!(after.iter().all(|h| rest.any(|b| b == h)), "not a subsequence");
        let after = SourceRoute::from_hops(after);
        prop_assert_eq!((after.src(), after.dst()), (before.src(), before.dst()));
        prop_assert!(after.valid_in(has_edge));
        prop_assert!(after.hops().iter().skip(pos + 2).all(|&h| !nbrs.contains(h)));
    }

    /// Cache splice ([`shorten`] with a cache, at a relay's `pos` and at
    /// 0): over a random connected graph, a holder caching loop-erased
    /// random walks from itself as travelled, fabricated two-hop routes
    /// that no message travelled, and a random valid route through it, the
    /// spliced route keeps every hop up to the holder and both endpoints,
    /// is simple and still a physical path, and is strictly shorter exactly
    /// when the splice says it spliced.
    #[test]
    fn a_cache_spliced_route_is_a_shorter_simple_valid_route(
        n in 2usize..40, p in 0.0f64..0.3, seed: u64, steps in 1usize..60, at: usize,
        walks in proptest::collection::vec(1usize..30, 0..24),
        fabricated in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..8),
    ) {
        let mut rng = Rng::new(seed);
        let mut g = generators::gnp(n, p, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        let labels = Labeling::random(n, &mut rng);
        let walk = |rng: &mut Rng, from: usize, steps: usize| {
            let mut walk = vec![from];
            for _ in 0..steps {
                let here = *walk.last().unwrap();
                let next: Vec<usize> = g.neighbors(here).collect();
                walk.push(next[rng.index(next.len())]);
            }
            let hops = walk.iter().map(|&u| labels.id(u)).collect();
            SourceRoute::from_hops(hops).pruned()
        };
        let start = rng.index(n);
        let before = walk(&mut rng, start, steps);
        let has_edge = |a, b| g.has_edge(labels.index(a).unwrap(), labels.index(b).unwrap());
        prop_assert!(before.valid_in(has_edge) && before.is_simple());

        let pos = at % before.hops().len();
        let holder = before.hops()[pos];
        let u = labels.index(holder).unwrap();
        let mut nbrs = Neighbors::default();
        for v in g.neighbors(u) {
            nbrs.bind(labels.id(v), v);
        }
        let mut cache = RouteCache::new(holder);
        for len in walks {
            let route = walk(&mut rng, u, len);
            if !route.is_empty() {
                cache.insert_travelled(route, rng.chance(0.5));
            }
        }
        // what the chaos harness plants: a neighbour, then any node
        let first: Vec<usize> = g.neighbors(u).collect();
        for (via, dst) in fabricated {
            let (via, dst) = (first[via % first.len()], dst % n);
            if dst != u && dst != via {
                let hops = [u, via, dst].map(|w| labels.id(w)).to_vec();
                cache.insert(SourceRoute::from_hops(hops), rng.chance(0.5));
            }
        }
        let mut after = before.hops().to_vec();
        let spliced = shorten(Some(&cache), &nbrs, &mut after, pos);
        prop_assert_eq!(spliced.is_some(), after.len() < before.hops().len());
        prop_assert!(after.len() <= before.hops().len());
        prop_assert_eq!(&after[..=pos], &before.hops()[..=pos]);
        let after = SourceRoute::from_hops(after);
        prop_assert_eq!((after.src(), after.dst()), (before.src(), before.dst()));
        prop_assert!(after.is_simple(), "{} from {}", after, before);
        prop_assert!(after.valid_in(has_edge));
        // the saving is the largest any one candidate offers
        let h = before.hops();
        let candidate = |j: usize| {
            if nbrs.contains(h[j]) {
                return Some(1);
            }
            let r = cache.travelled(h[j])?.hops();
            let clash = |x: &NodeId| h[..pos].contains(x) || h[j + 1..].contains(x);
            (nbrs.contains(r[1]) && !r[1..r.len() - 1].iter().any(clash)).then_some(r.len() - 1)
        };
        let most = (pos + 2..h.len())
            .filter_map(|j| (j - pos).checked_sub(candidate(j)?))
            .max();
        prop_assert_eq!(before.len() - after.len(), most.unwrap_or(0));
    }

    /// Cache refresh ([`refresh_behind`]) at a node an envelope reached:
    /// over a random connected graph, a holder caching loop-erased random
    /// walks from itself, travelled or not, and a random walk ending at the
    /// holder as the way the envelope came, the destination set does not
    /// change and every entry is still a simple physical path from the
    /// holder, no longer than before. The count says whether any got
    /// shorter, and is at least how many did.
    #[test]
    fn a_refreshed_cache_keeps_its_destinations_and_only_shortens(
        n in 2usize..40, p in 0.0f64..0.3, seed: u64, steps in 1usize..60,
        walks in proptest::collection::vec((1usize..30, any::<bool>()), 0..24),
    ) {
        let mut rng = Rng::new(seed);
        let mut g = generators::gnp(n, p, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        let labels = Labeling::random(n, &mut rng);
        let walk = |rng: &mut Rng, from: usize, steps: usize| {
            let mut walk = vec![from];
            for _ in 0..steps {
                let here = *walk.last().unwrap();
                let next: Vec<usize> = g.neighbors(here).collect();
                walk.push(next[rng.index(next.len())]);
            }
            walk.iter().map(|&u| labels.id(u)).collect::<Vec<_>>()
        };
        let u = rng.index(n);
        let holder = labels.id(u);
        let mut nbrs = Neighbors::default();
        for v in g.neighbors(u) {
            nbrs.bind(labels.id(v), v);
        }
        let mut cache = RouteCache::new(holder);
        for (len, travelled) in walks {
            let route = SourceRoute::from_hops(walk(&mut rng, u, len)).pruned();
            let pinned = rng.chance(0.5);
            if route.is_empty() {
                continue;
            } else if travelled {
                cache.insert_travelled(route, pinned);
            } else {
                cache.insert(route, pinned);
            }
        }
        let mut came = walk(&mut rng, u, steps);
        came.reverse();
        let before: Vec<(NodeId, SourceRoute)> =
            cache.iter().map(|(d, r)| (d, r.clone())).collect();
        let refreshed = refresh_behind(&mut cache, &nbrs, &came);
        let has_edge = |a, b| g.has_edge(labels.index(a).unwrap(), labels.index(b).unwrap());
        prop_assert_eq!(cache.len(), before.len());
        let mut shorter = 0;
        for ((dst, old), (now_dst, now)) in before.iter().zip(cache.iter()) {
            prop_assert_eq!(*dst, now_dst);
            prop_assert_eq!((now.src(), now.dst()), (holder, now_dst));
            prop_assert!(now.len() <= old.len(), "{} replaced {}", now, old);
            prop_assert!(now.is_simple() && now.valid_in(has_edge), "{}", now);
            shorter += usize::from(now.len() < old.len());
        }
        prop_assert!(refreshed >= shorter && (refreshed == 0) == (shorter == 0));
    }

    #[test]
    #[ignore = "slow: full bootstrap per case; run with --ignored"]
    fn bootstrap_converges_and_routes_on_arbitrary_connected_graphs(
        n in 4usize..24, seed: u64, p in 0.0f64..0.3
    ) {
        let mut rng = Rng::new(seed);
        let mut g = generators::gnp(n, p, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        let labels = Labeling::random(n, &mut rng);
        let cfg = BootstrapConfig {
            seed,
            max_ticks: 60_000,
            ..Default::default()
        };
        let (report, sim) = run_linearized_bootstrap(&g, &labels, &cfg);
        prop_assert!(report.converged, "no convergence: {report:?}");
        // no flooding ever
        prop_assert!(!report.messages.iter().any(|(k, _)| k == "msg.flood"));
        // greedy routing delivers between all pairs
        let view = RoutingView::new(sim.protocols());
        for a in 0..n {
            for b in 0..n {
                let (src, dst) = (labels.id(a), labels.id(b));
                prop_assert!(
                    view.route(src, dst, 4 * n as u32).delivered(),
                    "{src} -> {dst} failed"
                );
            }
        }
    }
}

/// Greedy routing walked over the caches themselves: the holder asks its
/// own `best_toward`, then every relay on the prefix it picked does, in
/// order, and the first whose pick is strictly closer to `dst` than the
/// prefix's end takes the packet over. Checks that every decision strictly
/// shrinks the clockwise distance left — its pick is closer to `dst` than
/// the decision before picked, wherever the relay itself lies — and
/// returns (decisions, physical hops), or `None` where a holder has no
/// pick.
fn walk_the_caches(
    caches: &std::collections::BTreeMap<NodeId, &RouteCache>,
    src: NodeId,
    dst: NodeId,
) -> Result<Option<(u32, u32)>, TestCaseError> {
    let pick = |at: &NodeId| caches.get(at).and_then(|c| c.best_toward(dst));
    let left = |h: NodeId| ssr_types::cw_dist(h, dst);
    let (mut cur, mut decisions, mut physical) = (src, 0u32, 0u32);
    let mut last = left(src);
    while cur != dst {
        let Some((next, prefix)) = pick(&cur) else {
            return Ok(None);
        };
        prop_assert!(left(next) < last, "{cur} picked {next} toward {dst}");
        last = left(next);
        let end = prefix.len() - 1;
        let closer = |r: &NodeId| *r == dst || pick(r).is_some_and(|(g, _)| left(g) < last);
        let k = (1..end).find(|&k| closer(&prefix[k])).unwrap_or(end);
        decisions += 1;
        physical += k as u32;
        cur = prefix[k];
    }
    Ok(Some((decisions, physical)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random converged graphs, [`RoutingView::route`] replays the
    /// cache walk with every relay deciding ([`walk_the_caches`]) pair for
    /// pair, each decision strictly shrinks the clockwise distance left,
    /// and every pair arrives.
    #[test]
    fn the_view_routes_like_every_relay_deciding(n in 8usize..48, seed: u64, p in 0.0f64..0.12) {
        let mut rng = Rng::new(seed);
        let mut g = generators::gnp(n, p, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        let labels = Labeling::random(n, &mut rng);
        let cfg = BootstrapConfig {
            seed,
            max_ticks: 60_000,
            ..Default::default()
        };
        let (report, sim) = run_linearized_bootstrap(&g, &labels, &cfg);
        prop_assert!(report.converged, "no convergence: {report:?}");
        let view = RoutingView::new(sim.protocols());
        let caches = sim.protocols().iter().map(|node| (node.id(), node.cache())).collect();
        for &src in labels.ids() {
            for &dst in labels.ids() {
                let walked = walk_the_caches(&caches, src, dst)?;
                let (virtual_hops, physical_hops) = walked.expect("a converged ring delivers");
                let routed = RouteOutcome::Delivered { virtual_hops, physical_hops };
                prop_assert_eq!(view.route(src, dst, 4 * n as u32), routed, "{} -> {}", src, dst);
            }
        }
    }
}

/// A smaller, always-run version of the bootstrap property.
#[test]
fn bootstrap_converges_on_a_handful_of_connected_graphs() {
    for seed in 0..8u64 {
        let mut rng = Rng::new(seed);
        let n = 6 + (seed as usize % 10);
        let mut g = generators::gnp(n, 0.2, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        let labels = Labeling::random(n, &mut rng);
        let cfg = BootstrapConfig {
            seed,
            max_ticks: 60_000,
            ..Default::default()
        };
        let (report, sim) = run_linearized_bootstrap(&g, &labels, &cfg);
        assert!(report.converged, "seed {seed}: {report:?}");
        let view = RoutingView::new(sim.protocols());
        let mut pairs = 0;
        for a in 0..n {
            for b in 0..n {
                assert!(
                    view.route(labels.id(a), labels.id(b), 4 * n as u32)
                        .delivered(),
                    "seed {seed}: {} -> {} failed",
                    labels.id(a),
                    labels.id(b)
                );
                pairs += 1;
            }
        }
        assert_eq!(pairs, n * n);
        // sanity: the physical graph was connected (bootstrap needs it)
        assert!(algo::is_connected(&g));
    }
}

/// What the first-hop cut leaves behind: on a converged ring every cached
/// route is a physical path, and none passes a physical neighbor of its
/// owner after its first hop — it would have left over that neighbor.
#[test]
fn converged_caches_hold_valid_routes_cut_at_the_first_hop() {
    let n = 40;
    let mut rng = Rng::new(3);
    let (g, _) = generators::unit_disk_connected(n, 1.3, &mut rng);
    let labels = Labeling::random(n, &mut rng);
    let (report, sim) = run_linearized_bootstrap(&g, &labels, &BootstrapConfig::default());
    assert!(report.converged, "{report:?}");
    let index = |id| labels.index(id).unwrap();
    let mut routes = 0;
    for node in sim.protocols() {
        for (dst, route) in node.cache().iter() {
            assert!(route.valid_in(|a, b| g.has_edge(index(a), index(b))));
            assert_eq!((route.src(), route.dst()), (node.id(), dst));
            let late_neighbor = route.hops()[2..]
                .iter()
                .find(|&&h| g.has_edge(index(node.id()), index(h)));
            assert_eq!(late_neighbor, None, "{route} at {}", node.id());
            routes += 1;
        }
    }
    assert!(routes > 2 * n, "{routes} cached routes");
}

/// Deterministic replay: same seed, same message counts.
#[test]
fn bootstrap_is_deterministic() {
    let run = || {
        let mut rng = Rng::new(33);
        let (g, _) = generators::unit_disk_connected(25, 1.3, &mut rng);
        let labels = Labeling::random(25, &mut rng);
        let cfg = BootstrapConfig {
            seed: 99,
            ..Default::default()
        };
        let (report, _) = run_linearized_bootstrap(&g, &labels, &cfg);
        (report.ticks, report.total_messages, report.messages.clone())
    };
    assert_eq!(run(), run());
}

/// The graph stays unused if not connected — documents the precondition.
#[test]
fn disconnected_graph_cannot_fully_converge() {
    let g = Graph::new(4); // four isolated nodes
    let labels = Labeling::sequential(4, 10);
    let cfg = BootstrapConfig {
        max_ticks: 2_000,
        ..Default::default()
    };
    let (report, _) = run_linearized_bootstrap(&g, &labels, &cfg);
    assert!(!report.converged);
}

proptest! {
    /// The wire decoder is total: arbitrary bytes either decode or error,
    /// never panic — on their own, and after a well-formed envelope header
    /// and each payload tag, so every payload decoder reads garbage too.
    #[test]
    fn decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        tag in 0u8..9,
    ) {
        let mut buf = bytes::Bytes::from(bytes.clone());
        let _ = ssr_core::message::decode(&mut buf);
        // a forward (tag 1) over the route [7] at position 0, no trace
        let mut framed = vec![1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, tag];
        framed.extend(bytes);
        let _ = ssr_core::message::decode(&mut bytes::Bytes::from(framed));
    }

    /// Every payload that carries routes round-trips, whatever they hold.
    #[test]
    fn encoded_messages_roundtrip(
        route in proptest::collection::vec(any::<u64>(), 2..20),
        target in proptest::collection::vec(any::<u64>(), 1..20),
        pos in 0usize..10,
        seq: u32,
        cw: bool,
    ) {
        use bytes::Buf;
        use ssr_core::message::{decode, encode_to_bytes, Direction, ForwardEnvelope, Payload, SsrMsg};
        let ids = |v: &[u64]| v.iter().copied().map(NodeId).collect::<Vec<_>>();
        let dir = if cw { Direction::Cw } else { Direction::Ccw };
        let payloads = [
            Payload::Notify {
                target_route: ids(&target),
                seq: ssr_types::SeqNo(seq),
            },
            Payload::Teardown,
            Payload::CloseRing { dir, route: ids(&target) },
            Payload::SuccNotify { reply_route: ids(&target) },
        ];
        for payload in payloads {
            let msg = SsrMsg::Forward(Box::new(ForwardEnvelope {
                route: ids(&route),
                pos,
                trace: vec![],
                payload,
            }));
            let mut buf = encode_to_bytes(&msg);
            prop_assert_eq!(decode(&mut buf).unwrap(), msg);
            prop_assert_eq!(buf.remaining(), 0);
        }
    }
}
