//! Helpers shared by the protocol implementations: the physical neighbour
//! table, route validation and the source-routed transport over it.
//!
//! Incoming routes are untrusted data from the network: they may be empty,
//! not anchored at the receiver, or contain consecutive duplicates from a
//! buggy/adversarial peer. The validation helpers normalize them or reject
//! them.

use ssr_sim::Ctx;
use ssr_types::NodeId;

use crate::message::{ForwardEnvelope, Payload, SsrMsg};
use crate::route::SourceRoute;

/// A node's physical neighbours as learned from hellos: address ↔ link
/// index (the simulator index of the peer, which is what `Ctx::send`
/// takes).
///
/// **Invariant:** the table is a bijection — an address is bound to at most
/// one link and a link to at most one address. [`Neighbors::bind`] keeps it
/// by dropping both stale pairs, so a packet for an address that moved away
/// dies here as `fwd.broken` instead of leaving on the link of whoever
/// holds that index now.
///
/// One vector sorted by address: a node has a handful of neighbours, the
/// per-hop question is `index_of`, and the reverse lookup (`id_at`, hellos
/// and link faults only) is a scan.
#[derive(Clone, Debug, Default)]
pub struct Neighbors {
    by_id: Vec<(NodeId, usize)>,
}

impl Neighbors {
    /// The link index `id` is reachable over, if `id` is a neighbour.
    #[inline]
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        let at = self.by_id.binary_search_by_key(&id, |&(i, _)| i).ok()?;
        Some(self.by_id[at].1)
    }

    /// The address bound to link `index`, if its peer has identified
    /// itself.
    pub fn id_at(&self, index: usize) -> Option<NodeId> {
        self.by_id
            .iter()
            .find(|&&(_, i)| i == index)
            .map(|&(id, _)| id)
    }

    /// `true` iff `id` is a current physical neighbour.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.index_of(id).is_some()
    }

    /// Binds `id` to link `index`, dropping whatever either was bound to
    /// before (the old address of this link, the old link of this address).
    /// Returns `false` if exactly this pair was already bound.
    pub fn bind(&mut self, id: NodeId, index: usize) -> bool {
        if self.index_of(id) == Some(index) {
            return false;
        }
        self.by_id.retain(|&(i, x)| i != id && x != index);
        let at = self.by_id.partition_point(|&(i, _)| i < id);
        self.by_id.insert(at, (id, index));
        true
    }

    /// Forgets link `index`; returns the address that was bound to it.
    pub fn unbind_index(&mut self, index: usize) -> Option<NodeId> {
        let at = self.by_id.iter().position(|&(_, i)| i == index)?;
        Some(self.by_id.remove(at).0)
    }

    /// The bound link indices, ascending.
    pub fn indices(&self) -> Vec<usize> {
        let mut indices: Vec<usize> = self.by_id.iter().map(|&(_, i)| i).collect();
        indices.sort_unstable();
        indices
    }
}

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

/// Advances an envelope one physical hop (from `pos` to `pos + 1`).
pub fn forward_env(ctx: &mut Ctx<'_, SsrMsg>, nbrs: &Neighbors, mut env: Box<ForwardEnvelope>) {
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
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn ids(v: &[u64]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn bind_drops_both_stale_pairs() {
        let mut t = Neighbors::default();
        t.bind(NodeId(70), 1);
        t.bind(NodeId(90), 2);
        // link 1 now speaks for 80: 70 is nobody's address any more
        t.bind(NodeId(80), 1);
        assert_eq!(
            (t.index_of(NodeId(70)), t.id_at(1)),
            (None, Some(NodeId(80)))
        );
        // 90 moves to link 1: link 2 is unidentified again, 80 is gone
        t.bind(NodeId(90), 1);
        assert_eq!((t.index_of(NodeId(90)), t.id_at(2)), (Some(1), None));
        assert!(!t.contains(NodeId(80)));
        assert_eq!(t.indices(), vec![1]);
        assert_eq!(t.unbind_index(1), Some(NodeId(90)));
        assert_eq!(t.unbind_index(1), None);
        assert!(t.indices().is_empty());
    }

    /// Reference model: the two maps the nodes used to carry, with the
    /// bijection kept by hand.
    #[derive(Default)]
    struct TwoMaps {
        nbr_index: BTreeMap<NodeId, usize>,
        nbr_id: BTreeMap<usize, NodeId>,
    }

    impl TwoMaps {
        fn bind(&mut self, id: NodeId, index: usize) {
            if let Some(old_id) = self.nbr_id.insert(index, id) {
                self.nbr_index.remove(&old_id);
            }
            if let Some(old_index) = self.nbr_index.insert(id, index) {
                if old_index != index {
                    self.nbr_id.remove(&old_index);
                }
            }
        }

        fn unbind_index(&mut self, index: usize) -> Option<NodeId> {
            let id = self.nbr_id.remove(&index)?;
            self.nbr_index.remove(&id);
            Some(id)
        }
    }

    proptest! {
        #[test]
        fn neighbors_match_the_two_maps(
            ops in proptest::collection::vec((0u8..4, 0u64..12, 0usize..12), 1..200)
        ) {
            let mut table = Neighbors::default();
            let mut maps = TwoMaps::default();
            for (op, id, index) in ops {
                let id = NodeId(id);
                if op == 0 {
                    prop_assert_eq!(table.unbind_index(index), maps.unbind_index(index));
                } else {
                    let was_bound = maps.nbr_index.get(&id) == Some(&index);
                    prop_assert_eq!(table.bind(id, index), !was_bound);
                    maps.bind(id, index);
                }
                for probe in 0..12 {
                    let (id, index) = (NodeId(probe), probe as usize);
                    prop_assert_eq!(table.index_of(id), maps.nbr_index.get(&id).copied());
                    prop_assert_eq!(table.id_at(index), maps.nbr_id.get(&index).copied());
                    prop_assert_eq!(table.contains(id), maps.nbr_index.contains_key(&id));
                    // the bijection: address → link → address is the identity
                    if let Some(bound) = table.index_of(id) {
                        prop_assert_eq!(table.id_at(bound), Some(id));
                    }
                    if let Some(bound) = table.id_at(index) {
                        prop_assert_eq!(table.index_of(bound), Some(index));
                    }
                }
                prop_assert_eq!(table.indices(), maps.nbr_id.keys().copied().collect::<Vec<_>>());
            }
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
