//! Helpers shared by the protocol implementations: route validation and the
//! source-routed transport over the physical neighbour table
//! ([`ssr_types::Neighbors`]).
//!
//! Incoming routes are untrusted data from the network: they may be empty,
//! not anchored at the receiver, or contain consecutive duplicates from a
//! buggy/adversarial peer. The validation helpers normalize them or reject
//! them.

use ssr_sim::Ctx;
use ssr_types::{cw_dist, Neighbors, NodeId};

use crate::cache::RouteCache;
use crate::message::{ForwardEnvelope, Payload, SsrMsg};
use crate::route::SourceRoute;

/// Sends `payload` source-routed along `route` (which must start at `me`)
/// over the physical neighbours `nbrs`. This is where a packet is born: the
/// one envelope allocation of its life. Trivial routes are ignored.
pub fn send_payload(
    ctx: &mut Ctx<'_, SsrMsg>,
    me: NodeId,
    nbrs: &Neighbors,
    route: &SourceRoute,
    payload: Payload,
) {
    debug_assert_eq!(route.src(), me);
    if route.is_empty() {
        return;
    }
    // one end-to-end message; every hop it then takes counts under `tx.*`
    ctx.metrics().incr("e2e.sent");
    ctx.metrics().incr(payload.e2e_key(me));
    ctx.metrics().observe_hist("route.len", route.len() as u64);
    let trace = if payload.wants_trace() {
        vec![me]
    } else {
        Vec::new()
    };
    let env = Box::new(ForwardEnvelope {
        route: route.hops().to_vec(),
        pos: 0,
        trace,
        payload,
    });
    forward_env(ctx, nbrs, None, env);
}

/// Shortens the rest of a route at its holder (`hops[pos]`, with physical
/// table `nbrs`): the stretch `hops[pos..=j]`, `j ≥ pos + 2`, is swapped for
/// a shorter route to `hops[j]` the holder knows. A physical neighbour is
/// one hop away — the *shortcut* — and with a `cache` a route it holds that
/// a message has travelled ([`RouteCache::travelled`]) is a candidate too,
/// if it leaves over a bound neighbour (what [`forward_env`] checks one
/// step later) and has no interior hop in `hops[..pos]` or `hops[j + 1..]`,
/// so a simple route stays simple. The largest saving wins, the earliest
/// `j` on a tie; without a cache that is the farthest neighbour. Hops up to
/// the holder are never touched and the route never grows. Returns the
/// length of the route spliced in, if any: 1 for a neighbour.
pub fn shorten(
    cache: Option<&RouteCache>,
    nbrs: &Neighbors,
    hops: &mut Vec<NodeId>,
    pos: usize,
) -> Option<usize> {
    debug_assert!(cache.is_none_or(|cache| Some(&cache.owner()) == hops.get(pos)));
    // (saving, j, the cached route to hops[j] — none over a neighbour)
    let mut best: Option<(usize, usize, Option<&SourceRoute>)> = None;
    // farthest first: no hop saves more than a neighbour there would, so
    // the scan ends where no earlier hop can match the best, and a match
    // found later is an earlier hop, which wins the tie
    for j in (pos + 2..hops.len()).rev() {
        let floor = best.map_or(1, |(most, ..)| most);
        if j - pos - 1 < floor {
            break;
        }
        if nbrs.contains(hops[j]) {
            best = Some((j - pos - 1, j, None));
            continue;
        }
        // a hop that is no neighbour is two hops away at least
        if j - pos - 2 < floor {
            continue;
        }
        let Some(cached) = cache.and_then(|cache| cache.travelled(hops[j])) else {
            continue;
        };
        let saving = (j - pos).saturating_sub(cached.len());
        if saving < floor {
            continue;
        }
        let r = cached.hops();
        let clash = |h: &NodeId| hops[..pos].contains(h) || hops[j + 1..].contains(h);
        if nbrs.contains(r[1]) && !r[1..r.len() - 1].iter().any(clash) {
            best = Some((saving, j, Some(cached)));
        }
    }
    let (_, j, cached) = best?;
    let Some(cached) = cached else {
        hops.drain(pos + 1..j);
        return Some(1);
    };
    hops.splice(pos..=j, cached.hops().iter().copied());
    Some(cached.len())
}

/// Caches `route` (its owner → someone) [`shorten`]ed at the owner: cut to
/// leave over the *last* of its hops that is a physical neighbour, `[me,
/// h_far, …]`, or spliced onto a shorter travelled route the owner caches
/// to a later hop, whichever saves more. A route a message has just
/// `travelled` is stored as travelled: what the splice puts in was
/// travelled too.
pub fn learn(
    cache: &mut RouteCache,
    nbrs: &Neighbors,
    route: SourceRoute,
    pinned: bool,
    travelled: bool,
) {
    let mut hops = route.into_hops();
    shorten(Some(cache), nbrs, &mut hops, 0);
    let route = SourceRoute::from_hops(hops);
    if travelled {
        cache.insert_travelled(route, pinned);
    } else {
        cache.insert(route, pinned);
    }
}

/// Shortens the holder's cached routes to the nodes an envelope passed on
/// its way here. `came` is the route up to the holder, `route[..=pos]`:
/// exactly the path the envelope took, since [`shorten`] never touches hops
/// up to the holder. Wherever the holder caches a route to an earlier hop
/// `came[i]` longer than the `pos − i` hops back over that path, it
/// [`learn`]s the reversed, loop-erased path, marked travelled. The hop
/// before the holder is a physical neighbour, one hop away already. Only
/// existing entries change, only to shorter routes, and pins stay as they
/// are. Returns how many routes it swapped in.
pub fn refresh_behind(cache: &mut RouteCache, nbrs: &Neighbors, came: &[NodeId]) -> usize {
    let pos = came.len() - 1;
    let mut refreshed = 0;
    for i in 0..pos.saturating_sub(1) {
        if cache.get(came[i]).is_none_or(|r| r.len() <= pos - i) {
            continue;
        }
        let back = came[i..].iter().rev().copied().collect();
        if let Some(back) = SourceRoute::pruned_from(back) {
            learn(cache, nbrs, back, false, true);
            refreshed += 1;
        }
    }
    refreshed
}

/// Advances an envelope one physical hop (from `pos` to `pos + 1`), after
/// the holder has [`shorten`]ed the rest of its route: over a physical
/// neighbour (`fwd.shortcut`) or, handed its `cache`, over a travelled
/// route it holds (`fwd.spliced`).
pub fn forward_env(
    ctx: &mut Ctx<'_, SsrMsg>,
    nbrs: &Neighbors,
    cache: Option<&RouteCache>,
    mut env: Box<ForwardEnvelope>,
) {
    match shorten(cache, nbrs, &mut env.route, env.pos) {
        Some(1) => ctx.metrics().incr("fwd.shortcut"),
        Some(_) => ctx.metrics().incr("fwd.spliced"),
        None => {}
    }
    let next_pos = env.pos + 1;
    let Some(&next_id) = env.route.get(next_pos) else {
        ctx.metrics().incr("fwd.truncated");
        return;
    };
    let Some(next_idx) = nbrs.index_of(next_id) else {
        // the physical link vanished under the route
        ctx.metrics().incr("fwd.broken");
        return;
    };
    env.pos = next_pos;
    ctx.send(next_idx, SsrMsg::Forward(env));
}

/// Takes a forwarded envelope in at `me`: rejects it unless `me` is the
/// hop it is addressed to, extends the trace if the payload keeps one, and
/// passes it on unless it ends here — in which case it is returned for
/// end-to-end handling, a data probe's hop count raised by the hops it
/// travelled. An envelope ends where its route does; a data probe ends
/// sooner at its target, and at a relay whose `cache` holds a node strictly
/// closer (clockwise) to the target than the route's end: the relay takes
/// the greedy decision over (`fwd.redecided`). A relay that hands in its
/// `cache` also [`shorten`]s the rest of the route with it.
pub fn receive_forward(
    ctx: &mut Ctx<'_, SsrMsg>,
    me: NodeId,
    nbrs: &Neighbors,
    cache: Option<&RouteCache>,
    mut env: Box<ForwardEnvelope>,
) -> Option<Box<ForwardEnvelope>> {
    if env.route.get(env.pos) != Some(&me) {
        ctx.metrics().incr("fwd.misrouted");
        return None;
    }
    if env.payload.wants_trace() && env.trace.last() != Some(&me) {
        env.trace.push(me);
    }
    if env.pos + 1 == env.route.len() || takes_probe_over(ctx, me, cache, &env) {
        // a discovery ends at every virtual hop in a fresh envelope that
        // `send_payload` never counted; everything else was one `e2e.sent`
        if !matches!(env.payload, Payload::Discover { .. }) {
            ctx.metrics().incr("e2e.delivered");
        }
        // the route up to here is the way the envelope came, whatever the
        // relays shortcut or spliced: a probe counts those hops
        if let Payload::DataProbe { hops, .. } = &mut env.payload {
            *hops += env.pos as u32;
        }
        return Some(env);
    }
    forward_env(ctx, nbrs, cache, env);
    None
}

/// Whether the relay `me` ends a data probe it holds: it is the probe's
/// target, or its `cache` picks a node strictly closer (clockwise) to the
/// target than the route's end, and it decides in the end's stead.
fn takes_probe_over(
    ctx: &mut Ctx<'_, SsrMsg>,
    me: NodeId,
    cache: Option<&RouteCache>,
    env: &ForwardEnvelope,
) -> bool {
    let Payload::DataProbe { target, .. } = env.payload else {
        return false;
    };
    if target == me {
        return true;
    }
    let left = cw_dist(env.route[env.route.len() - 1], target);
    let pick = cache.and_then(|cache| cache.best_toward(target));
    let closer = pick.is_some_and(|(hop, _)| cw_dist(hop, target) < left);
    if closer {
        ctx.metrics().incr("fwd.redecided");
    }
    closer
}

/// Validates an incoming route: non-empty, starts at `me`, no consecutive
/// duplicates. Returns the cycle-pruned route.
pub fn checked_route(me: NodeId, hops: Vec<NodeId>) -> Option<SourceRoute> {
    if hops.first() != Some(&me) {
        return None;
    }
    SourceRoute::pruned_from(hops)
}

/// Validates a flood/discovery *trace* (`origin → … → me`) and returns the
/// reversed, pruned route `me → origin`.
pub fn checked_route_rev(me: NodeId, trace: &[NodeId], origin: NodeId) -> Option<SourceRoute> {
    if trace.first() != Some(&origin) || trace.last() != Some(&me) {
        return None;
    }
    let mut hops: Vec<NodeId> = trace.to_vec();
    hops.reverse();
    hops.dedup();
    if hops.len() < 2 {
        return None;
    }
    SourceRoute::pruned_from(hops)
}

/// Test rig shared by the `SsrNode` and `IsprpNode` regression tests: one
/// node under test next to scripted peers that claim whatever address the
/// test tells them to — the only way a hello can arrive carrying an address
/// other than its sender's own.
#[cfg(test)]
pub(crate) mod rig {
    use super::*;
    use ssr_graph::Graph;
    use ssr_sim::faults::Fault;
    use ssr_sim::{LinkConfig, Protocol, Simulator, Time};

    pub(crate) enum Rig<P> {
        Node(P),
        /// Broadcasts a hello claiming `.1` at tick `.0`, entry by entry.
        Forger(Vec<(u64, NodeId)>),
    }

    impl<P: Protocol<Msg = SsrMsg>> Protocol for Rig<P> {
        type Msg = SsrMsg;

        fn on_init(&mut self, ctx: &mut Ctx<'_, SsrMsg>) {
            match self {
                Rig::Node(p) => p.on_init(ctx),
                Rig::Forger(script) => {
                    for (token, &(at, _)) in script.iter().enumerate() {
                        ctx.set_timer(at, token as u64);
                    }
                }
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, SsrMsg>, from: usize, msg: SsrMsg) {
            if let Rig::Node(p) = self {
                p.on_message(ctx, from, msg);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, SsrMsg>, token: u64) {
            match self {
                Rig::Node(p) => p.on_timer(ctx, token),
                Rig::Forger(script) => ctx.broadcast(SsrMsg::Hello {
                    id: script[token as usize].1,
                    probe: false,
                }),
            }
        }

        fn on_neighbor_up(&mut self, ctx: &mut Ctx<'_, SsrMsg>, neighbor: usize) {
            if let Rig::Node(p) = self {
                p.on_neighbor_up(ctx, neighbor);
            }
        }

        fn on_neighbor_down(&mut self, ctx: &mut Ctx<'_, SsrMsg>, neighbor: usize) {
            if let Rig::Node(p) = self {
                p.on_neighbor_down(ctx, neighbor);
            }
        }

        fn reset(&mut self) {}

        fn kind(msg: &SsrMsg) -> &'static str {
            msg.kind()
        }
    }

    /// Drives `node` (simulator index 0, links 1 and 2 to forgers) through
    /// both rebinds and a link loss after each, checking after every step
    /// that its neighbour table is still a bijection.
    pub(crate) fn rebinds_keep_the_bijection<P>(node: impl Fn() -> P, nbrs: fn(&P) -> &Neighbors)
    where
        P: Protocol<Msg = SsrMsg>,
    {
        let (old, new) = (NodeId(70), NodeId(80));
        let run = |script1: Vec<(u64, NodeId)>, script2: Vec<(u64, NodeId)>| {
            let topo = Graph::from_edges(3, [(0, 1), (0, 2)]);
            let protocols = vec![
                Rig::Node(node()),
                Rig::Forger(script1),
                Rig::Forger(script2),
            ];
            let mut sim = Simulator::new(topo, protocols, LinkConfig::ideal(), 1);
            sim.schedule_fault(Time(30), Fault::LinkDown { a: 0, b: 1 });
            sim
        };
        let table = |sim: &Simulator<Rig<P>>| match sim.protocol(0) {
            Rig::Node(p) => nbrs(p).clone(),
            Rig::Forger(_) => unreachable!("index 0 is the node under test"),
        };

        // one link, two addresses in turn: the old address must not keep
        // pointing at the link, before or after the link goes down
        let mut sim = run(vec![(10, old), (20, new)], vec![]);
        sim.run_until(Time(15));
        assert_eq!(table(&sim).index_of(old), Some(1));
        sim.run_until(Time(25));
        let t = table(&sim);
        assert_eq!((t.index_of(old), t.index_of(new)), (None, Some(1)));
        assert_eq!(t.id_at(1), Some(new));
        sim.run_until(Time(35));
        let t = table(&sim);
        assert!(!t.contains(old) && !t.contains(new));
        assert_eq!(t.id_at(1), None);

        // one address, two links in turn: the old link must not keep naming
        // the address, so losing it leaves the live binding alone
        let mut sim = run(vec![(10, old)], vec![(20, old)]);
        sim.run_until(Time(25));
        let t = table(&sim);
        assert_eq!(
            (t.index_of(old), t.id_at(1), t.id_at(2)),
            (Some(2), None, Some(old))
        );
        sim.run_until(Time(35));
        let t = table(&sim);
        assert_eq!((t.index_of(old), t.id_at(2)), (Some(2), Some(old)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    /// A neighbour table naming `v`, bound to link indices `1..`.
    fn table(v: &[u64]) -> Neighbors {
        let mut nbrs = Neighbors::default();
        for (&id, link) in v.iter().zip(1..) {
            nbrs.bind(NodeId(id), link);
        }
        nbrs
    }

    #[test]
    fn shortcut_table() {
        let route = [1, 2, 3, 4, 5, 6];
        // (holder's neighbours, pos, what the route becomes)
        let cases: [(&[u64], usize, &[u64]); 7] = [
            // the farthest later neighbour wins, not the first
            (&[2, 3, 5], 0, &[1, 5, 6]),
            // the destination is adjacent: one hop
            (&[2, 4, 6], 0, &[1, 6]),
            // hops at or before `pos` are never touched, neighbours or not
            (&[1, 2, 4, 6], 2, &[1, 2, 3, 6]),
            (&[1, 2, 3], 3, &route),
            // no later neighbour: unchanged — the next hop alone is none,
            // and a route with a dead next hop still dies as `fwd.broken`
            (&[2], 0, &route),
            (&[], 0, &route),
            // the last holder has nothing after it
            (&[1, 2, 3, 4, 5], 5, &route),
        ];
        for (nbrs, pos, want) in cases {
            let mut hops = ids(&route);
            let spliced = shorten(None, &table(nbrs), &mut hops, pos);
            assert_eq!(hops, ids(want), "neighbours {nbrs:?} at pos {pos}");
            assert_eq!(spliced, (want.len() < route.len()).then_some(1));
        }
    }

    #[test]
    fn shorten_table() {
        let route = [1, 2, 3, 4, 5, 6, 7, 8];
        // (pos, the holder's travelled cached routes, its neighbours, what
        // the route becomes); the holder is `route[pos]`
        type Case<'a> = (usize, &'a [&'a [u64]], &'a [u64], &'a [u64]);
        let cases: [Case; 12] = [
            // the largest saving wins: 3 hops to 8 beat 1 hop to 6
            (2, &[&[3, 9, 6], &[3, 9, 8]], &[9], &[1, 2, 3, 9, 8]),
            // a tie goes to the earliest hop: 6 before 7, one hop saved each
            (
                2,
                &[&[3, 9, 10, 7], &[3, 9, 6]],
                &[9],
                &[1, 2, 3, 9, 6, 7, 8],
            ),
            // the hops it replaces may reappear in the cached route
            (2, &[&[3, 4, 9, 7]], &[4], &[1, 2, 3, 4, 9, 7, 8]),
            // the destination itself, from the sender
            (0, &[&[1, 9, 8]], &[9], &[1, 9, 8]),
            // no saving: as long as the stretch it would replace
            (2, &[&[3, 9, 10, 6]], &[9], &route),
            // an interior hop already in the prefix, or in the suffix
            (2, &[&[3, 9, 1, 7]], &[9], &route),
            (2, &[&[3, 9, 8, 7]], &[9], &route),
            // the first hop is no bound neighbour
            (2, &[&[3, 9, 8]], &[10], &route),
            // nothing later than the next hop is cached, or nothing is left
            (2, &[&[3, 4], &[3, 9, 1]], &[4, 9], &route),
            (6, &[&[7, 9, 8]], &[9], &route),
            // a physical neighbour is a one-hop candidate: 7 saves three
            // hops, the cached route to 6 one; the cached route to 8 saves
            // three, the neighbour 5 one
            (2, &[&[3, 9, 6]], &[9, 7], &[1, 2, 3, 7, 8]),
            (2, &[&[3, 9, 8]], &[9, 5], &[1, 2, 3, 9, 8]),
        ];
        for (pos, cached, nbrs, want) in cases {
            let mut cache = RouteCache::new(NodeId(route[pos]));
            for r in cached {
                cache.insert_travelled(SourceRoute::from_hops(ids(r)), true);
            }
            let mut hops = ids(&route);
            let spliced = shorten(Some(&cache), &table(nbrs), &mut hops, pos);
            assert_eq!(hops, ids(want), "cache {cached:?} at pos {pos}");
            assert_eq!(spliced.is_some(), want.len() < route.len());
        }
        // a route no message has travelled is no candidate, however short
        let mut cache = RouteCache::new(NodeId(3));
        cache.insert(SourceRoute::from_hops(ids(&[3, 9, 8])), true);
        let mut hops = ids(&route);
        assert_eq!(shorten(Some(&cache), &table(&[9]), &mut hops, 2), None);
        assert_eq!(hops, ids(&route));
    }

    /// A relay over a hand-bound neighbour table that logs the route of
    /// every envelope ending at it; `send` (a route, and the target of the
    /// data probe sent along it) goes out at boot. With a `cache` it
    /// splices and takes probes over as an SSR relay does.
    struct Relay {
        me: NodeId,
        nbrs: Neighbors,
        cache: Option<RouteCache>,
        send: Option<(SourceRoute, NodeId)>,
        /// The routes of the envelopes that ended here, and each data
        /// probe's hop count on arrival.
        arrived: Vec<Vec<NodeId>>,
        probe_hops: Vec<u32>,
    }

    impl ssr_sim::Protocol for Relay {
        type Msg = SsrMsg;

        fn on_init(&mut self, ctx: &mut Ctx<'_, SsrMsg>) {
            if let Some((route, target)) = self.send.take() {
                let probe = Payload::DataProbe { target, hops: 0 };
                send_payload(ctx, self.me, &self.nbrs, &route, probe);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, SsrMsg>, _from: usize, msg: SsrMsg) {
            let SsrMsg::Forward(env) = msg else {
                unreachable!("relays only forward");
            };
            let cache = self.cache.as_ref();
            if let Some(env) = receive_forward(ctx, self.me, &self.nbrs, cache, env) {
                if let Payload::DataProbe { hops, .. } = env.payload {
                    self.probe_hops.push(hops);
                }
                self.arrived.push(env.route);
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, SsrMsg>, _token: u64) {}

        fn reset(&mut self) {}
    }

    /// Node `u` of `edges` is address `u + 1`. Node 1 sends a data probe
    /// toward `target` along `route`; relay 2 caches `cached` as travelled,
    /// if any. Runs to quiescence.
    fn relay_line(
        n: usize,
        edges: &[(usize, usize)],
        route: &[u64],
        target: u64,
        cached: Option<&[u64]>,
    ) -> ssr_sim::Simulator<Relay> {
        let topo = ssr_graph::Graph::from_edges(n, edges.iter().copied());
        let relays = (0..n)
            .map(|u| {
                let me = NodeId(u as u64 + 1);
                let mut nbrs = Neighbors::default();
                for v in topo.neighbors(u) {
                    nbrs.bind(NodeId(v as u64 + 1), v);
                }
                let cache = cached.filter(|_| u == 1).map(|r| {
                    let mut cache = RouteCache::new(me);
                    cache.insert_travelled(SourceRoute::from_hops(ids(r)), true);
                    cache
                });
                Relay {
                    me,
                    nbrs,
                    cache,
                    send: (u == 0).then(|| (SourceRoute::from_hops(ids(route)), NodeId(target))),
                    arrived: Vec::new(),
                    probe_hops: Vec::new(),
                }
            })
            .collect();
        let mut sim = ssr_sim::Simulator::new(topo, relays, ssr_sim::LinkConfig::ideal(), 1);
        assert!(sim.run_to_quiescence(100).is_quiescent());
        sim
    }

    /// Path 1–2–3–4–5 with chords 2–4 and 2–5: node 1 sends along the
    /// path, relay 2 forwards straight to 5 — the farthest of its two later
    /// neighbours — and the envelope arrives with the route it travelled.
    #[test]
    fn a_relay_forwards_to_its_farthest_later_neighbour() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (1, 4)];
        let sim = relay_line(5, &edges, &[1, 2, 3, 4, 5], 5, None);
        assert_eq!(sim.protocol(4).arrived, vec![ids(&[1, 2, 5])]);
        assert_eq!(sim.protocol(4).probe_hops, vec![2]);
        let m = sim.metrics();
        assert_eq!((m.counter("tx.total"), m.counter("fwd.shortcut")), (2, 1));
        assert_eq!((m.counter("e2e.sent"), m.counter("fwd.broken")), (1, 0));
        assert_eq!((m.counter("e2e.data"), m.counter("e2e.delivered")), (1, 1));
        assert_eq!(m.hist("route.len").map(|h| h.max()), Some(Some(4)));
    }

    /// Path 1–…–6 with a detour 2–7–6 that relay 2 caches: it forwards
    /// over the cached two hops instead of the path's four, and counts the
    /// splice; the probe arrives saying it travelled the spliced three hops,
    /// not the five it was sent along. Without the cache the envelope walks
    /// the path.
    #[test]
    fn a_relay_splices_in_its_own_shorter_cached_route() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (6, 5)];
        let route = [1, 2, 3, 4, 5, 6];
        let sim = relay_line(7, &edges, &route, 6, Some(&[2, 7, 6]));
        assert_eq!(sim.protocol(5).arrived, vec![ids(&[1, 2, 7, 6])]);
        assert_eq!(sim.protocol(5).probe_hops, vec![3]);
        let m = sim.metrics();
        assert_eq!((m.counter("tx.total"), m.counter("fwd.spliced")), (3, 1));
        let sim = relay_line(7, &edges, &route, 6, None);
        assert_eq!(sim.protocol(5).arrived, vec![ids(&route)]);
        assert_eq!(sim.protocol(5).probe_hops, vec![5]);
        assert_eq!(sim.metrics().counter("fwd.spliced"), 0);
    }

    /// Path 1–…–5: node 1 sends a probe for 3 along the whole path, as a
    /// splice can leave a route that passes its target. Relay 3 takes the
    /// probe where it meets it, two hops on, and 4 and 5 see nothing. No
    /// relay decided anything.
    #[test]
    fn a_relay_that_is_the_probes_target_takes_it() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4)];
        let sim = relay_line(5, &edges, &[1, 2, 3, 4, 5], 3, None);
        assert_eq!(sim.protocol(2).arrived, vec![ids(&[1, 2, 3, 4, 5])]);
        assert_eq!(sim.protocol(2).probe_hops, vec![2]);
        assert!(sim.protocol(3).arrived.is_empty() && sim.protocol(4).arrived.is_empty());
        let m = sim.metrics();
        assert_eq!((m.counter("tx.total"), m.counter("e2e.delivered")), (2, 1));
        assert_eq!(m.counter("fwd.redecided"), 0);
    }

    /// Path 1–…–6: node 1 sends a probe for 6 along the path to 4. Relay
    /// 2 caches a route to 5, strictly closer to the target than 4, and
    /// takes the probe over after one hop; with a route only to 4 it
    /// forwards. A relay without a cache never decides.
    #[test]
    fn a_relay_with_a_closer_node_takes_the_probe_over() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)];
        let route = [1, 2, 3, 4];
        let sim = relay_line(6, &edges, &route, 6, Some(&[2, 3, 4, 5]));
        assert_eq!(sim.protocol(1).arrived, vec![ids(&route)]);
        assert_eq!(sim.protocol(1).probe_hops, vec![1]);
        assert!(sim.protocol(3).arrived.is_empty());
        let m = sim.metrics();
        assert_eq!((m.counter("tx.total"), m.counter("fwd.redecided")), (1, 1));
        for cached in [Some(&[2, 3, 4][..]), None] {
            let sim = relay_line(6, &edges, &route, 6, cached);
            assert_eq!(sim.protocol(3).probe_hops, vec![3]);
            assert_eq!(sim.metrics().counter("fwd.redecided"), 0);
        }
    }

    #[test]
    fn checked_route_accepts_valid() {
        let r = checked_route(NodeId(1), ids(&[1, 2, 3])).unwrap();
        assert_eq!(r.dst(), NodeId(3));
    }

    #[test]
    fn checked_route_rejects_bad_anchor_and_dups() {
        assert!(checked_route(NodeId(1), ids(&[])).is_none());
        assert!(checked_route(NodeId(1), ids(&[2, 3])).is_none());
        assert!(checked_route(NodeId(1), ids(&[1, 1, 2])).is_none());
    }

    #[test]
    fn checked_route_prunes_cycles() {
        let r = checked_route(NodeId(1), ids(&[1, 2, 3, 2, 4])).unwrap();
        assert_eq!(r.hops(), &[NodeId(1), NodeId(2), NodeId(4)]);
    }

    #[test]
    fn rev_trace_roundtrip() {
        let r = checked_route_rev(NodeId(5), &ids(&[9, 3, 5]), NodeId(9)).unwrap();
        assert_eq!(r.src(), NodeId(5));
        assert_eq!(r.dst(), NodeId(9));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn rev_trace_rejects_mismatched_ends() {
        assert!(checked_route_rev(NodeId(5), &ids(&[9, 3]), NodeId(9)).is_none());
        assert!(checked_route_rev(NodeId(5), &ids(&[8, 3, 5]), NodeId(9)).is_none());
        assert!(checked_route_rev(NodeId(5), &[], NodeId(9)).is_none());
        // origin == me: a one-element trace has no edge
        assert!(checked_route_rev(NodeId(5), &ids(&[5]), NodeId(5)).is_none());
    }
}
