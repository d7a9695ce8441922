//! Helpers shared by the protocol implementations: route validation and the
//! source-routed transport over the physical neighbour table
//! ([`ssr_types::Neighbors`]).
//!
//! Incoming routes are untrusted data from the network: they may be empty,
//! not anchored at the receiver, or contain consecutive duplicates from a
//! buggy/adversarial peer. The validation helpers normalize them or reject
//! them.

use ssr_sim::Ctx;
use ssr_types::{Neighbors, NodeId};

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
    forward_env(ctx, nbrs, env);
}

/// Relay shortcut: if a hop of `route` later than the one after `pos` is a
/// physical neighbour of the holder (`route[pos]`, whose table `nbrs` is),
/// the *farthest* such hop becomes the next one — everything in between is
/// drained out of the route. Hops at or before `pos` are never touched, so
/// the result is a subsequence of the input with both endpoints kept, and
/// its one new consecutive pair is a link the holder knows first-hand.
/// Returns whether anything was drained.
pub fn shortcut(nbrs: &Neighbors, route: &mut Vec<NodeId>, pos: usize) -> bool {
    let later = pos + 2..route.len();
    let Some(far) = later.rev().find(|&i| nbrs.contains(route[i])) else {
        return false;
    };
    route.drain(pos + 1..far);
    true
}

/// Advances an envelope one physical hop (from `pos` to `pos + 1`), past
/// every hop the holder can [`shortcut`].
pub fn forward_env(ctx: &mut Ctx<'_, SsrMsg>, nbrs: &Neighbors, mut env: Box<ForwardEnvelope>) {
    if shortcut(nbrs, &mut env.route, env.pos) {
        ctx.metrics().incr("fwd.shortcut");
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
/// passes it on unless its route ends here — in which case it is returned
/// for end-to-end handling.
pub fn receive_forward(
    ctx: &mut Ctx<'_, SsrMsg>,
    me: NodeId,
    nbrs: &Neighbors,
    mut env: Box<ForwardEnvelope>,
) -> Option<Box<ForwardEnvelope>> {
    if env.route.get(env.pos) != Some(&me) {
        ctx.metrics().incr("fwd.misrouted");
        return None;
    }
    if env.payload.wants_trace() && env.trace.last() != Some(&me) {
        env.trace.push(me);
    }
    if env.pos + 1 == env.route.len() {
        return Some(env);
    }
    forward_env(ctx, nbrs, env);
    None
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
            let spliced = shortcut(&table(nbrs), &mut hops, pos);
            assert_eq!(hops, ids(want), "neighbours {nbrs:?} at pos {pos}");
            assert_eq!(spliced, want.len() < route.len());
        }
    }

    /// A relay over a hand-bound neighbour table that logs the route of
    /// every envelope ending at it; `send` goes out at boot.
    struct Relay {
        me: NodeId,
        nbrs: Neighbors,
        send: Option<SourceRoute>,
        arrived: Vec<Vec<NodeId>>,
    }

    impl ssr_sim::Protocol for Relay {
        type Msg = SsrMsg;

        fn on_init(&mut self, ctx: &mut Ctx<'_, SsrMsg>) {
            if let Some(route) = self.send.take() {
                let probe = Payload::DataProbe {
                    target: route.dst(),
                    hops: 0,
                };
                send_payload(ctx, self.me, &self.nbrs, &route, probe);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, SsrMsg>, _from: usize, msg: SsrMsg) {
            let SsrMsg::Forward(env) = msg else {
                unreachable!("relays only forward");
            };
            if let Some(env) = receive_forward(ctx, self.me, &self.nbrs, env) {
                self.arrived.push(env.route);
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, SsrMsg>, _token: u64) {}

        fn reset(&mut self) {}
    }

    /// Path 1–2–3–4–5 with chords 2–4 and 2–5: node 1 sends along the
    /// path, relay 2 forwards straight to 5 — the farthest of its two later
    /// neighbours — and the envelope arrives with the route it travelled.
    #[test]
    fn a_relay_forwards_to_its_farthest_later_neighbour() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (1, 4)];
        let topo = ssr_graph::Graph::from_edges(5, edges);
        let relays = (0..5)
            .map(|u| {
                let mut nbrs = Neighbors::default();
                for v in topo.neighbors(u) {
                    nbrs.bind(NodeId(v as u64 + 1), v);
                }
                Relay {
                    me: NodeId(u as u64 + 1),
                    nbrs,
                    send: (u == 0).then(|| SourceRoute::from_hops(ids(&[1, 2, 3, 4, 5]))),
                    arrived: Vec::new(),
                }
            })
            .collect();
        let mut sim = ssr_sim::Simulator::new(topo, relays, ssr_sim::LinkConfig::ideal(), 1);
        assert!(sim.run_to_quiescence(100).is_quiescent());
        assert_eq!(sim.protocol(4).arrived, vec![ids(&[1, 2, 5])]);
        let m = sim.metrics();
        assert_eq!((m.counter("tx.total"), m.counter("fwd.shortcut")), (2, 1));
        assert_eq!((m.counter("e2e.sent"), m.counter("fwd.broken")), (1, 0));
        assert_eq!(m.hist("route.len").map(|h| h.max()), Some(Some(4)));
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
