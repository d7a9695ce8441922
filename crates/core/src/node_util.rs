//! Helpers shared by the protocol implementations: route validation and
//! the source-routed transport over the physical adjacency map.
//!
//! Incoming routes are untrusted data from the network: they may be empty,
//! not anchored at the receiver, or contain consecutive duplicates from a
//! buggy/adversarial peer. The validation helpers normalize them or reject
//! them.

use std::collections::BTreeMap;

use ssr_sim::Ctx;
use ssr_types::NodeId;

use crate::message::{ForwardEnvelope, Payload, SsrMsg};
use crate::route::SourceRoute;

/// Sends `payload` source-routed along `route` (which must start at `me`)
/// over the physical neighbors `nbr_index` (address → simulator index).
/// Trivial routes are ignored.
pub fn send_payload(
    ctx: &mut Ctx<'_, SsrMsg>,
    me: NodeId,
    nbr_index: &BTreeMap<NodeId, usize>,
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
    let env = ForwardEnvelope {
        route: route.hops().to_vec(),
        pos: 0,
        trace,
        payload,
    };
    forward_env(ctx, nbr_index, env);
}

/// Advances an envelope one physical hop (from `pos` to `pos + 1`).
pub fn forward_env(
    ctx: &mut Ctx<'_, SsrMsg>,
    nbr_index: &BTreeMap<NodeId, usize>,
    mut env: ForwardEnvelope,
) {
    let next_pos = env.pos + 1;
    let Some(&next_id) = env.route.get(next_pos) else {
        ctx.metrics().incr("fwd.truncated");
        return;
    };
    let Some(&next_idx) = nbr_index.get(&next_id) else {
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
    nbr_index: &BTreeMap<NodeId, usize>,
    mut env: ForwardEnvelope,
) -> Option<ForwardEnvelope> {
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
    forward_env(ctx, nbr_index, env);
    None
}

/// Validates an incoming route: non-empty, starts at `me`, no consecutive
/// duplicates. Returns the cycle-pruned route.
pub fn checked_route(me: NodeId, hops: Vec<NodeId>) -> Option<SourceRoute> {
    if hops.is_empty() || hops[0] != me {
        return None;
    }
    if hops.windows(2).any(|w| w[0] == w[1]) {
        return None;
    }
    Some(SourceRoute::from_hops(hops).pruned())
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
    Some(SourceRoute::from_hops(hops).pruned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
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
