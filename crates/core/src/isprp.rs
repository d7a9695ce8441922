//! ISPRP — the Iterative Successor Pointer Rewiring Protocol, SSR's
//! original bootstrap and the paper's baseline.
//!
//! Every node maintains a *successor pointer* toward the clockwise-closest
//! node it knows and notifies that presumed successor. A node receiving
//! several successor claims arbitrates: it keeps the claimant that is its
//! best (clockwise-closest) predecessor and sends the other an *update*
//! pointing it at the better claimant, with a source route built by
//! concatenation (`B→A ++ A→C`). Iterating this achieves **local**
//! consistency: one successor, one predecessor each.
//!
//! Local consistency is not global consistency: loopy states and disjoint
//! rings survive it (Figures 1 and 2). ISPRP therefore has one node — the
//! *representative*, in practice the numerically largest address — **flood
//! the network** with its identifier. Here every node that still believes
//! itself the representative after a settle delay floods; floods from
//! smaller origins are absorbed by nodes that know better, so in the steady
//! state one flood (the true maximum's) traverses every link. Receivers
//! then claim toward the representative, and the ordinary rewiring cascade
//! ("your successor is C") walks each claim down to the node's true
//! successor, merging rings and unwinding loops.
//!
//! The flood is exactly the cost linearization removes; experiment E6
//! meters both protocols' messages by kind.

#![warn(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

use ssr_sim::{Ctx, Protocol};
use ssr_types::{cw_dist, Neighbors, NodeId};

use crate::cache::RouteCache;
use crate::message::{Payload, SsrMsg};
use crate::node_util::{self, checked_route, checked_route_rev};
use crate::route::SourceRoute;

const TOKEN_ACT: u64 = 0;
const TOKEN_FLOOD: u64 = 1;
const TOKEN_STABILIZE: u64 = 2;

/// Delay before the first rewiring action.
const ACT_DELAY: u64 = 2;

/// Settle delay before a node that still believes itself the representative
/// floods.
const FLOOD_DELAY: u64 = 32;

/// Period of the stabilization re-claim: each round a node re-notifies its
/// successor, so improved predecessor knowledge keeps percolating — the
/// "iterative" in ISPRP. Like Chord's stabilize loop it never stops, because
/// a node has no local way to know the global ring is consistent (that
/// inability is precisely the paper's argument); experiment drivers stop
/// the simulation when the global check passes.
const STABILIZE_INTERVAL: u64 = 8;

/// What the experiments vary about the ISPRP baseline.
#[derive(Clone, Copy, Debug)]
pub struct IsprpConfig {
    /// The flood switch — disabling it demonstrates why ISPRP needs it
    /// (loopy/partitioned states then persist forever).
    pub enable_flood: bool,
}

impl Default for IsprpConfig {
    fn default() -> Self {
        IsprpConfig { enable_flood: true }
    }
}

/// Per-node ISPRP state.
#[derive(Clone, Debug)]
pub struct IsprpNode {
    id: NodeId,
    config: IsprpConfig,
    /// Physical neighbors: address ↔ simulator index, learned from hellos.
    nbrs: Neighbors,
    cache: RouteCache,
    /// Current successor pointer (clockwise-closest known node).
    succ: Option<NodeId>,
    /// The successor we last notified (suppresses duplicate notifications).
    notified: Option<NodeId>,
    /// Best predecessor claimant seen so far.
    pred: Option<NodeId>,
    /// Largest address this node knows of (itself at start).
    rep: NodeId,
    /// The farthest target this node has probed with a claim (the descent
    /// cursor of the ring-merge cascade).
    probe: Option<NodeId>,
    /// Whether this node has flooded.
    flooded: bool,
    /// Largest flood origin this node has forwarded (its own address at
    /// start). Propagation suppression must be tracked separately from
    /// `rep`: a node whose *physical neighbor* is the representative
    /// already has `rep` raised by the hello exchange, but it still has to
    /// forward the representative's flood or the flood dies after one hop.
    flood_forwarded: NodeId,
    /// Whether the stabilization round timer is queued.
    stabilize_armed: bool,
}

impl IsprpNode {
    /// A fresh node with default configuration.
    pub fn new(id: NodeId) -> Self {
        Self::with_config(id, IsprpConfig::default())
    }

    /// A fresh node with explicit tuning.
    pub fn with_config(id: NodeId, config: IsprpConfig) -> Self {
        IsprpNode {
            id,
            config,
            nbrs: Neighbors::default(),
            cache: RouteCache::new(id),
            succ: None,
            notified: None,
            pred: None,
            rep: id,
            probe: None,
            flooded: false,
            flood_forwarded: id,
            stabilize_armed: false,
        }
    }

    fn schedule_stabilize(&mut self, ctx: &mut Ctx<'_, SsrMsg>) {
        if !std::mem::replace(&mut self.stabilize_armed, true) {
            ctx.set_timer(STABILIZE_INTERVAL, TOKEN_STABILIZE);
        }
    }

    /// This node's address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current successor pointer.
    pub fn succ(&self) -> Option<NodeId> {
        self.succ
    }

    /// The current best predecessor claimant.
    pub fn pred(&self) -> Option<NodeId> {
        self.pred
    }

    /// The representative this node currently believes in.
    pub fn rep(&self) -> NodeId {
        self.rep
    }

    /// The route cache (read-only).
    pub fn cache(&self) -> &RouteCache {
        &self.cache
    }

    /// Locally consistent: has a successor and a predecessor claimant.
    pub fn locally_consistent(&self) -> bool {
        self.succ.is_some() && self.pred.is_some()
    }

    /// Injects a successor pointer plus route — used by the figure
    /// reproductions to start from adversarial (loopy / partitioned)
    /// states.
    pub fn inject_succ(&mut self, route: SourceRoute) {
        let s = route.dst();
        assert_ne!(s, self.id);
        self.cache.insert(route, true);
        self.succ = Some(s);
        self.notified = Some(s); // pretend the notification already happened
    }

    // -- internals ----------------------------------------------------------

    fn send_payload(&self, ctx: &mut Ctx<'_, SsrMsg>, route: &SourceRoute, payload: Payload) {
        node_util::send_payload(ctx, self.id, &self.nbrs, route, payload);
    }

    /// Picks the clockwise-closest cached node as successor and notifies it
    /// if the pointer changed.
    fn act(&mut self, ctx: &mut Ctx<'_, SsrMsg>) {
        let best = self
            .cache
            .destinations()
            .min_by_key(|&d| cw_dist(self.id, d));
        let Some(best) = best else {
            return;
        };
        if self.succ != Some(best) {
            if let Some(old) = self.succ {
                self.cache.unpin(old);
            }
            self.succ = Some(best);
        }
        if self.notified != Some(best) {
            if let Some(route) = self.cache.get(best).cloned() {
                self.cache.insert(route.clone(), true); // pin the successor
                let payload = Payload::SuccNotify {
                    reply_route: route.reversed().into_hops(),
                };
                self.send_payload(ctx, &route, payload);
                self.notified = Some(best);
            }
        }
    }

    /// The clockwise-closest cached node strictly between `from` and this
    /// node — the best successor this node can recommend to `from`.
    fn best_between(&self, from: NodeId) -> Option<NodeId> {
        self.cache
            .destinations()
            .filter(|&d| d != from && d != self.id)
            .filter(|&d| ssr_types::ring_between_cw(from, d, self.id))
            .min_by_key(|&d| cw_dist(from, d))
    }

    /// Sends `to` an update pointing it at the best successor candidate we
    /// know between `to` and us (if any improvement exists). This is the
    /// paper's "A sends an update to B pointing it to C" generalized over
    /// the whole route cache — C need not be a claimant, any cached node
    /// between B and A will do, and each redirect strictly shrinks B's
    /// clockwise gap. `route_to` is our route to `to`, passed explicitly
    /// because `to` may have just been unpinned (and interval retention may
    /// evict its cache entry at any moment).
    fn redirect_via(&self, ctx: &mut Ctx<'_, SsrMsg>, to: NodeId, route_to: &SourceRoute) {
        let Some(better) = self.best_between(to) else {
            return;
        };
        let Some(r_better) = self.cache.get(better) else {
            return;
        };
        // route to→better = reverse(me→to) ++ me→better
        let to_better = route_to.reversed().concat(r_better);
        if to_better.is_empty() {
            return;
        }
        let payload = Payload::SuccUpdate {
            better,
            route_to_better: to_better.into_hops(),
        };
        self.send_payload(ctx, route_to, payload);
    }

    /// A claim "you are my successor" arrived from `claimant`.
    fn handle_claim(
        &mut self,
        ctx: &mut Ctx<'_, SsrMsg>,
        claimant: NodeId,
        reply_route: Vec<NodeId>,
    ) {
        let Some(route_back) = checked_route(self.id, reply_route) else {
            ctx.metrics().incr("fwd.bad_trace");
            return;
        };
        if route_back.is_empty() {
            return;
        }
        // claimants enter as ordinary (evictable) knowledge; only the
        // winning predecessor gets pinned below
        self.cache.insert(route_back.clone(), false);
        match self.pred {
            None => {
                self.pred = Some(claimant);
            }
            Some(cur) if cur == claimant => {}
            Some(cur) => {
                // keep the clockwise-closer predecessor; redirect the loser
                // *before* unpinning it (eviction could drop its route)
                let (winner, loser) = if cw_dist(claimant, self.id) < cw_dist(cur, self.id) {
                    (claimant, cur)
                } else {
                    (cur, claimant)
                };
                self.pred = Some(winner);
                if let Some(r_loser) = self.cache.get(loser).cloned() {
                    self.redirect_via(ctx, loser, &r_loser);
                }
                self.cache.unpin(loser);
            }
        }
        if self.pred == Some(claimant) {
            self.cache.insert(route_back.clone(), true);
        }
        // even an accepted claimant may have a better successor in our
        // cache (a node between it and us that never claimed us); use the
        // reply route in hand — the claimant's cache entry may already be
        // unpinned and evicted
        self.redirect_via(ctx, claimant, &route_back);
        self.act(ctx);
    }

    /// A redirect "your successor is `better`" arrived.
    fn handle_update(&mut self, ctx: &mut Ctx<'_, SsrMsg>, better: NodeId, route: Vec<NodeId>) {
        if better == self.id {
            return;
        }
        let Some(route) = checked_route(self.id, route) else {
            ctx.metrics().incr("fwd.bad_trace");
            return;
        };
        if route.is_empty() || route.dst() != better {
            return;
        }
        // continue the descent: if the redirect target is clockwise-closer
        // than anything we have probed, claim it (this is what merges rings
        // after a flood)
        let closer_than_probe = self
            .probe
            .map(|p| cw_dist(self.id, better) < cw_dist(self.id, p))
            .unwrap_or(true);
        let closer_than_succ = self
            .succ
            .map(|s| cw_dist(self.id, better) < cw_dist(self.id, s))
            .unwrap_or(true);
        // NOTE: a successor candidate must be inserted *pinned*. The
        // cache's interval retention is line-metric (right for LSN
        // shortcuts), but the ring successor across the wrap is the
        // line-FARTHEST node — retention would evict exactly the entry the
        // extremes need and the ring could never close.
        self.cache.insert(route.clone(), closer_than_succ);
        if closer_than_succ {
            // normal adoption path — act() will re-point and notify
            self.act(ctx);
        } else if closer_than_probe {
            self.probe = Some(better);
            let payload = Payload::SuccNotify {
                reply_route: route.reversed().into_hops(),
            };
            self.send_payload(ctx, &route, payload);
        }
    }

    /// A representative flood arrived over the physical link from
    /// `from_idx`.
    fn handle_flood(
        &mut self,
        ctx: &mut Ctx<'_, SsrMsg>,
        from_idx: usize,
        origin: NodeId,
        mut trace: Vec<NodeId>,
    ) {
        if origin <= self.flood_forwarded || origin == self.id {
            return; // absorbed: we already forwarded this or a better flood
        }
        if trace.last() != Some(&self.id) {
            trace.push(self.id);
        }
        self.flood_forwarded = origin;
        self.rep = self.rep.max(origin);
        // the trace gives us a route to the representative
        let Some(path) = checked_route_rev(self.id, &trace, origin) else {
            ctx.metrics().incr("fwd.bad_trace");
            return;
        };
        // pinned iff the representative becomes our successor candidate —
        // see the retention note in `handle_update`
        let rep_closer = self
            .succ
            .map(|s| cw_dist(self.id, origin) < cw_dist(self.id, s))
            .unwrap_or(true);
        self.cache.insert(path.clone(), rep_closer);
        // propagate to every other physical neighbor
        for t in self.nbrs.indices().into_iter().filter(|&i| i != from_idx) {
            ctx.send(
                t,
                SsrMsg::Flood {
                    origin,
                    trace: trace.clone(),
                },
            );
        }
        // claim toward the representative: the rewiring cascade from there
        // walks us down to our true successor
        let closer_than_succ = self
            .succ
            .map(|s| cw_dist(self.id, origin) < cw_dist(self.id, s))
            .unwrap_or(true);
        if closer_than_succ {
            self.act(ctx);
        } else {
            self.probe = Some(origin);
            let payload = Payload::SuccNotify {
                reply_route: path.reversed().into_hops(),
            };
            self.send_payload(ctx, &path, payload);
        }
    }

    fn handle_hello(
        &mut self,
        ctx: &mut Ctx<'_, SsrMsg>,
        from_idx: usize,
        id: NodeId,
        probe: bool,
    ) {
        let known = !self.nbrs.bind(id, from_idx);
        self.cache.insert(SourceRoute::direct(self.id, id), false);
        if id > self.rep {
            self.rep = id; // suppresses our own flood
        }
        if !known || probe {
            ctx.send(
                from_idx,
                SsrMsg::Hello {
                    id: self.id,
                    probe: false,
                },
            );
        }
        if !known {
            self.act(ctx);
        }
    }
}

impl Protocol for IsprpNode {
    type Msg = SsrMsg;

    fn on_init(&mut self, ctx: &mut Ctx<'_, SsrMsg>) {
        ctx.broadcast(SsrMsg::Hello {
            id: self.id,
            probe: true,
        });
        ctx.set_timer(ACT_DELAY, TOKEN_ACT);
        if self.config.enable_flood {
            ctx.set_timer(FLOOD_DELAY, TOKEN_FLOOD);
        }
        self.schedule_stabilize(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SsrMsg>, from: usize, msg: SsrMsg) {
        match msg {
            SsrMsg::Hello { id, probe } => {
                self.handle_hello(ctx, from, id, probe);
                self.schedule_stabilize(ctx);
            }
            SsrMsg::Flood { origin, trace } => {
                self.handle_flood(ctx, from, origin, trace);
                self.schedule_stabilize(ctx);
            }
            SsrMsg::Forward(env) => {
                // the baseline's relays do not splice in their cached routes
                let Some(env) = node_util::receive_forward(ctx, self.id, &self.nbrs, None, env)
                else {
                    return;
                };
                // the claimant is the envelope's sender
                let sender = env.route[0];
                match env.payload {
                    Payload::SuccNotify { reply_route } => {
                        self.handle_claim(ctx, sender, reply_route);
                        self.schedule_stabilize(ctx);
                    }
                    Payload::SuccUpdate {
                        better,
                        route_to_better,
                    } => {
                        self.handle_update(ctx, better, route_to_better);
                        self.schedule_stabilize(ctx);
                    }
                    Payload::Notify { .. }
                    | Payload::NotifyAck { .. }
                    | Payload::Teardown
                    | Payload::Discover { .. }
                    | Payload::CloseRing { .. }
                    | Payload::DataProbe { .. } => {
                        // linearized-bootstrap messages are not part of
                        // ISPRP; listing them keeps this match honest — a
                        // new payload variant must decide its fate here
                        ctx.metrics().incr("fwd.unexpected");
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SsrMsg>, token: u64) {
        match token {
            TOKEN_ACT => self.act(ctx),
            TOKEN_FLOOD if self.config.enable_flood && !self.flooded && self.rep == self.id => {
                self.flooded = true;
                ctx.broadcast(SsrMsg::Flood {
                    origin: self.id,
                    trace: vec![self.id],
                });
            }
            TOKEN_STABILIZE => {
                self.stabilize_armed = false;
                // re-claim the successor so improved predecessor knowledge
                // keeps flowing back as redirects
                if let Some(s) = self.succ {
                    if let Some(route) = self.cache.get(s).cloned() {
                        let payload = Payload::SuccNotify {
                            reply_route: route.reversed().into_hops(),
                        };
                        self.send_payload(ctx, &route, payload);
                    }
                }
                self.schedule_stabilize(ctx);
            }
            _ => {}
        }
    }

    fn on_neighbor_up(&mut self, ctx: &mut Ctx<'_, SsrMsg>, neighbor: usize) {
        ctx.send(
            neighbor,
            SsrMsg::Hello {
                id: self.id,
                probe: true,
            },
        );
    }

    fn on_neighbor_down(&mut self, ctx: &mut Ctx<'_, SsrMsg>, neighbor: usize) {
        let Some(id) = self.nbrs.unbind_index(neighbor) else {
            return;
        };
        self.cache.purge_via(id);
        if self.succ.is_some_and(|s| !self.cache.contains(s)) {
            self.succ = None;
            self.notified = None;
        }
        if self.pred.is_some_and(|p| !self.cache.contains(p)) {
            self.pred = None;
        }
        self.act(ctx);
    }

    fn reset(&mut self) {
        *self = IsprpNode::with_config(self.id, self.config);
    }

    fn kind(msg: &SsrMsg) -> &'static str {
        msg.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_node_believes_itself_representative() {
        let n = IsprpNode::new(NodeId(9));
        assert_eq!(n.rep(), NodeId(9));
        assert!(n.succ().is_none());
        assert!(!n.locally_consistent());
    }

    #[test]
    fn inject_succ_sets_pointer() {
        let mut n = IsprpNode::new(NodeId(9));
        n.inject_succ(SourceRoute::direct(NodeId(9), NodeId(15)));
        assert_eq!(n.succ(), Some(NodeId(15)));
    }

    #[test]
    fn reset_keeps_identity() {
        let mut n = IsprpNode::new(NodeId(9));
        n.inject_succ(SourceRoute::direct(NodeId(9), NodeId(15)));
        n.reset();
        assert_eq!(n.id(), NodeId(9));
        assert!(n.succ().is_none());
        assert_eq!(n.rep(), NodeId(9));
    }

    #[test]
    fn hello_rebinds_keep_address_and_link_a_bijection() {
        node_util::rig::rebinds_keep_the_bijection(|| IsprpNode::new(NodeId(50)), |n| &n.nbrs);
    }
}
