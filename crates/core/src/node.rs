//! The linearized SSR node — Section 4 of the paper, as a message-level
//! protocol.
//!
//! Upon initialization the virtual edge set is the physical edge set
//! (`E_v := E_p`, learned through link-local hellos). Each node keeps its
//! virtual neighbors split into a **left** and a **right** set by linear
//! address order. Whenever a side holds more than one neighbor, the node
//! linearizes the two *farthest* on that side (the paper's `v2 < v3` with
//! all other right neighbors below both): it sends each a *neighbor
//! notification* carrying a source route to the other, waits for both
//! acknowledgments, then retires its own edge to the farthest, whose route
//! may survive in the route cache as an LSN shortcut. The paper has it tear
//! that edge down; here no message goes. The farthest has just acknowledged
//! an introduction to a node closer than this one, so its own next act
//! retires its half of the edge — the one-way edge lasts until then, and
//! the union graph never loses it early. Repeating this transforms the
//! virtual graph into the sorted line while never disconnecting it.
//! Nobody waits for a round trip that carries nothing:
//! a handshake is re-sent no earlier than its acknowledgment can be back
//! over the routes it was sent along, and the audit heartbeat — a node
//! announcing *itself* along its ring edges — is not acknowledged at all.
//!
//! To complete the virtual ring, a node with an empty left set sends a
//! *clockwise discovery* routed greedily toward ever-larger addresses until
//! it reaches a node with an empty right set, which accepts and
//! acknowledges — that edge closes the ring. A node with an empty right set
//! symmetrically probes counter-clockwise "for sake of redundancy".
//! Premature closures (a node that merely *believed* itself an extreme) are
//! self-correcting: discovery claims are themselves linearized — the
//! acceptor introduces competing claimants to each other, and a node whose
//! supposedly-empty side gains a neighbor demotes its ring edge and tears
//! it down.
//!
//! Source routes are made by concatenation, so they start out several times
//! longer than the physical distance they cover, and every notification,
//! acknowledgment and audit pays for each hop. Local rules shorten them,
//! none with a message of its own ([`node_util::shorten`]): a holder
//! forwards an envelope straight to the *farthest* later hop of its route
//! that is its own physical neighbor (sender and relays alike); a relay
//! may instead swap the stretch up to a later hop for a shorter route to
//! that hop from its own cache, if a message has travelled that route —
//! whichever saves more; every route a node caches is first shortened the
//! same way at the node itself; the route a notification or acknowledgment
//! actually *travelled* — never longer than the one it was sent along — is
//! the one its receiver answers over and learns; and every node an envelope
//! reaches, relays included, swaps the way the envelope came in for any
//! longer route it already caches to a node the envelope passed
//! ([`node_util::refresh_behind`]). Only the endpoints add destinations to
//! a cache; the nodes on the path refresh the entries they have.
//!
//! **No message in this protocol floods the network.**

#![warn(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

use ssr_linearize::control::{Effect, Input, Linearizer, Timer, WrapVerdict, ACT_INTERVAL};
use ssr_linearize::observe::Linearized;
use ssr_sim::{CauseClass, Ctx, Protocol};
use ssr_types::{IntervalPartition, Neighbors, NodeId, SeqNo, Side};

use crate::cache::RouteCache;
use crate::message::{Direction, ForwardEnvelope, Payload, SsrMsg};
use crate::node_util::{self, checked_route};
use crate::route::SourceRoute;

/// Hello re-probe sweep — the one timer that is not the control core's.
const TOKEN_HELLO: u64 = Timer::FIRST_FREE_TOKEN;

/// Re-probe attempts for links whose peer never identified itself. A single
/// lost hello (or lost reply) would otherwise leave physical adjacency
/// *asymmetric* forever: the peer, already satisfied, treats the link as
/// ground truth while this side cannot route over it.
const HELLO_RETRIES: u32 = 5;

/// Base interval between hello re-probes (backs off exponentially).
const HELLO_RETRY_INTERVAL: u64 = 16;

/// What the experiments vary about the linearized bootstrap. The timer
/// schedule is the control core's own (`ssr_linearize::control`'s
/// `ACT_INTERVAL`, `RETRY_INTERVAL`, … constants).
#[derive(Clone, Copy, Debug)]
pub struct SsrConfig {
    /// Interval base of the route cache's LSN retention.
    pub partition_base: u64,
    /// Launch counter-clockwise probes too (the paper's redundancy
    /// suggestion; E6's `linearized-no-ccw` ablation switches it off).
    pub ccw_redundancy: bool,
    /// Unpin a delegated edge's route, so the cache's LSN retention may
    /// evict it. Either way no message is sent: the delegated end retires
    /// its half of the edge with its own handshake. Off = the with-memory
    /// ablation: the delegating end keeps every route it delegated pinned.
    pub unpin_delegated: bool,
}

impl Default for SsrConfig {
    fn default() -> Self {
        SsrConfig {
            partition_base: 2,
            ccw_redundancy: true,
            unpin_delegated: true,
        }
    }
}

/// Per-node state of the linearized SSR bootstrap: the shared control core
/// plus what an SSR edge *is* — a source route, pinned in the route cache
/// while the edge is a virtual neighbor or ring edge.
#[derive(Clone, Debug)]
pub struct SsrNode {
    /// This node's address.
    id: NodeId,
    config: SsrConfig,
    /// Physical neighbors: address ↔ simulator index, learned from hellos.
    nbrs: Neighbors,
    /// Virtual neighbor sets, ring-closure edges, handshakes and timers.
    /// Edges carry no data of their own: their routes live in `cache`.
    lin: Linearizer<()>,
    /// The route cache (pinned entries = virtual neighbors + ring edges).
    cache: RouteCache,
    /// Hello re-probe rounds used so far (reset when a link comes up).
    hello_round: u32,
    /// Data probes that reached this node: `(target, physical hops)`, the
    /// target being this node's own address — a probe carries no source.
    delivered_probes: Vec<(NodeId, u32)>,
}

impl SsrNode {
    /// A fresh node with the given address and default configuration.
    pub fn new(id: NodeId) -> Self {
        Self::with_config(id, SsrConfig::default())
    }

    /// A fresh node with explicit tuning.
    pub fn with_config(id: NodeId, config: SsrConfig) -> Self {
        SsrNode {
            id,
            config,
            nbrs: Neighbors::default(),
            // The audit is the virtual-neighbor heartbeat: a node
            // re-announces itself along each ring edge so a peer that lost
            // the edge (crashed and purged, or rejoined fresh) re-adopts it
            // and edges stay *mutual*. It never stops: a crashed-and-rejoined
            // peer leaves no local signal at the surviving endpoint (about
            // one message per node per period at rest: an announcement is
            // not answered, and an edge whose peer announced it since the
            // last round is skipped).
            lin: Linearizer::new(id, config.ccw_redundancy),
            cache: RouteCache::with_partition(id, IntervalPartition::new(config.partition_base)),
            hello_round: 0,
            delivered_probes: Vec::new(),
        }
    }

    /// This node's address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The route cache (read-only).
    pub fn cache(&self) -> &RouteCache {
        &self.cache
    }

    /// Data probes that terminated here, in arrival order: `(target,
    /// physical hops)` with `target` this node's address.
    pub fn delivered_probes(&self) -> &[(NodeId, u32)] {
        &self.delivered_probes
    }

    // -- state injection (experiments & self-stabilization tests) ----------

    /// Injects a virtual neighbor (experiment-side state setup: the figure
    /// reproductions start from adversarial states — loopy rings, separate
    /// rings — and watch the protocol stabilize out of them).
    pub fn inject_neighbor(&mut self, route: SourceRoute) {
        self.adopt_neighbor(route);
    }

    /// Injects a ring-closure predecessor edge.
    pub fn inject_wrap_pred(&mut self, other: NodeId, route: SourceRoute) {
        self.inject_wrap(Side::Left, other, route);
    }

    /// Injects a ring-closure successor edge.
    pub fn inject_wrap_succ(&mut self, other: NodeId, route: SourceRoute) {
        self.inject_wrap(Side::Right, other, route);
    }

    fn inject_wrap(&mut self, side: Side, other: NodeId, route: SourceRoute) {
        assert_eq!(route.src(), self.id);
        assert_eq!(route.dst(), other);
        self.cache.insert(route, true);
        self.lin.set_wrap(side, other, ());
    }

    /// Injects an arbitrary *unpinned* route-cache entry — chaos-harness
    /// setup for stale or fabricated cache routes (the hops need not be
    /// physically adjacent; forwarding over them must degrade gracefully,
    /// never panic).
    ///
    /// # Panics
    /// Panics unless the route starts at this node.
    pub fn inject_cache_route(&mut self, route: SourceRoute) {
        assert_eq!(route.src(), self.id, "cache route must start here");
        self.cache.insert(route, false);
    }

    // -- internals ---------------------------------------------------------

    /// Records `route` (me → someone) as a *virtual neighbor*: pinned cache
    /// entry plus membership in the proper side set. Returns `true` if the
    /// node was new to the side set.
    fn adopt_neighbor(&mut self, route: SourceRoute) -> bool {
        let other = route.dst();
        if other == self.id {
            return false;
        }
        self.learn(route, true, false);
        self.lin.adopt(other, ())
    }

    /// Caches `route` (me → someone) [`node_util::learn`]ed: shortened at
    /// this node first, and marked if a message has just `travelled` it.
    /// Every route this node learns goes through here, except what
    /// [`node_util::refresh_behind`] swaps in as an envelope passes.
    fn learn(&mut self, route: SourceRoute, pinned: bool, travelled: bool) {
        node_util::learn(&mut self.cache, &self.nbrs, route, pinned, travelled);
    }

    /// Removes `other` from the side sets and lets the cache's LSN
    /// retention decide whether its route survives as a shortcut.
    fn drop_neighbor(&mut self, other: NodeId) {
        self.lin.remove(other);
        self.unpin_unless_phys(other);
    }

    /// Unpins `other`'s cached route unless `other` is a current physical
    /// neighbor — where an edge is *lost*: a tear-down received, a ghost
    /// dropped, a ring claimant displaced. The delegating end unpins
    /// regardless (`Effect::Delegated`), so a delegated physical neighbor
    /// holds an ordinary, evictable cache entry. Nothing rests on a pin
    /// here: `E_v ⊇ E_p` is repaired from `nbrs`, not from the cache
    /// ([`Self::audit_empty_sides`], `Effect::Abandon`).
    fn unpin_unless_phys(&mut self, other: NodeId) {
        if !self.nbrs.contains(other) {
            self.cache.unpin(other);
        }
    }

    fn send_payload(&self, ctx: &mut Ctx<'_, SsrMsg>, route: &SourceRoute, payload: Payload) {
        node_util::send_payload(ctx, self.id, &self.nbrs, route, payload);
    }

    /// Feeds `input` to the control core and carries out what it asks for,
    /// in order.
    fn drive(&mut self, ctx: &mut Ctx<'_, SsrMsg>, input: Input) {
        for effect in self.lin.step(input, ctx.now().ticks()) {
            self.apply(ctx, effect);
        }
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, SsrMsg>, effect: Effect<()>) {
        match effect {
            Effect::SetTimer { delay, timer } => {
                let delay = match timer {
                    Timer::Retry(side, _) => delay.max(self.retry_floor(side)),
                    Timer::Act | Timer::Discover | Timer::Audit => delay,
                };
                ctx.set_timer(delay, timer.token());
            }
            Effect::Introduce {
                keep,
                drop,
                seq,
                to_keep,
                to_drop,
            } => {
                if to_keep {
                    self.introduce(ctx, keep, drop, seq);
                }
                if to_drop {
                    self.introduce(ctx, drop, keep, seq);
                }
            }
            Effect::Delegated { peer, .. } => {
                // no tear-down: `peer` has just acknowledged an introduction
                // to a node between us, so its own act retires its half of
                // the edge. Ours becomes an evictable shortcut — unless the
                // with-memory ablation keeps it pinned
                if self.config.unpin_delegated {
                    self.cache.unpin(peer);
                }
            }
            Effect::WrapDemoted { peer, .. } => self.teardown_to(ctx, peer),
            Effect::Abandon { peer } => {
                // the handshake cannot complete — after churn, a set member's
                // source route may silently be dead. Drop the unresponsive
                // endpoint (its route too): live nodes re-enter via hellos
                // and fresh notifications; ghosts stay gone.
                //
                // Exception: a *current physical neighbor* is never a ghost —
                // the link is up, so a one-hop direct route cannot be dead.
                // Forgetting it here would violate the E_p ⊆ knowledge
                // invariant the linearization convergence argument rests on:
                // a burst of loss exhausting the retries could then sever the
                // only knowledge bridge across an address gap and freeze the
                // whole system short of consistency. Re-adopt the direct edge
                // instead and let the next act linearize it again once the
                // burst ends.
                if self.nbrs.contains(peer) {
                    self.adopt_neighbor(SourceRoute::direct(self.id, peer));
                } else {
                    self.drop_neighbor(peer);
                    self.cache.remove(peer);
                }
            }
            Effect::Probe { toward } => {
                self.route_discovery(ctx, self.id, toward.into(), vec![self.id]);
            }
            Effect::Announce { peer, seq, .. } => {
                let Some(route) = self.cache.get(peer) else {
                    return;
                };
                let payload = Payload::Notify {
                    target_route: route.reversed().into_hops(),
                    seq,
                };
                let prev = ctx.set_cause(CauseClass::Audit);
                self.send_payload(ctx, route, payload);
                ctx.set_cause(prev);
            }
        }
    }

    /// The earliest a retry on `side` can tell loss from latency: a round
    /// trip over the longer of the two cached routes of the handshake in
    /// flight (links take a tick a hop, and a source-routed sender knows
    /// its hop count) plus the receiver's batching window. Earlier than
    /// that a re-send is no loss detection, it is a duplicate on exactly
    /// the longest routes. A peer with no cached route contributes nothing,
    /// so below 12 hops the control core's own schedule stands.
    fn retry_floor(&self, side: Side) -> u64 {
        let peers = self.lin.pending(side).into_iter().flatten();
        let routes = peers.filter_map(|peer| self.cache.get(peer));
        let longest = routes.map(SourceRoute::len).max().unwrap_or(0);
        2 * longest as u64 + ACT_INTERVAL
    }

    /// Introduces `about` to `to`: sends `to` a notification with a source
    /// route `to → about` built by concatenation through this node.
    fn introduce(&self, ctx: &mut Ctx<'_, SsrMsg>, to: NodeId, about: NodeId, seq: SeqNo) {
        if to == about || to == self.id || about == self.id {
            return;
        }
        // pinned, so always present while the neighbor is in a set
        let (Some(r_to), Some(r_about)) = (self.cache.get(to), self.cache.get(about)) else {
            ctx.metrics().incr("fwd.no_route");
            return;
        };
        let target = r_to.reversed().concat(r_about);
        if target.is_empty() {
            return;
        }
        let payload = Payload::Notify {
            target_route: target.into_hops(),
            seq,
        };
        self.send_payload(ctx, r_to, payload);
    }

    /// Tells `other` its edge to this node is gone; the route may survive
    /// in the cache as an LSN shortcut. Only a demoted ring-closure edge is
    /// torn down by message: its partner's slot has no handshake to retire
    /// it.
    fn teardown_to(&mut self, ctx: &mut Ctx<'_, SsrMsg>, other: NodeId) {
        let prev = ctx.set_cause(CauseClass::LinearizationStep);
        if let Some(route) = self.cache.get(other) {
            self.send_payload(ctx, route, Payload::Teardown);
        }
        self.cache.unpin(other);
        ctx.set_cause(prev);
    }

    /// A discovery probe is at this virtual node: forward it greedily along
    /// the line, or accept it if this node is a believed extreme.
    fn route_discovery(
        &mut self,
        ctx: &mut Ctx<'_, SsrMsg>,
        origin: NodeId,
        dir: Direction,
        trace: Vec<NodeId>,
    ) {
        let next = match dir {
            Direction::Cw => self.cache.largest_above_me(),
            Direction::Ccw => self.cache.smallest_below_me(),
        };
        match next {
            Some((_, route)) => {
                // keep traveling toward the extreme
                let fresh = Box::new(ForwardEnvelope {
                    route: route.hops().to_vec(),
                    pos: 0,
                    trace,
                    payload: Payload::Discover { origin, dir },
                });
                node_util::forward_env(ctx, &self.nbrs, None, fresh);
            }
            None => self.accept_discovery(ctx, origin, dir, trace),
        }
    }

    /// Offers the node `route` leads to for the ring-closure slot of
    /// `slot`; `true` if it holds the slot afterwards. Competing claimants
    /// are linearized: whoever loses the slot is introduced to the winner.
    fn claim_wrap(&mut self, ctx: &mut Ctx<'_, SsrMsg>, slot: Side, route: SourceRoute) -> bool {
        let claimant = route.dst();
        match self.lin.offer_wrap(slot, claimant, ()) {
            // first claim, or a duplicate of the standing one
            WrapVerdict::Installed => {
                self.learn(route, true, false);
                true
            }
            WrapVerdict::Replaced { old, .. } => {
                let seq = self.lin.next_seq();
                self.learn(route, true, false);
                // the displaced claimant learns about the better one
                self.introduce(ctx, old, claimant, seq);
                self.unpin_unless_phys(old);
                true
            }
            WrapVerdict::Redirect { holder } => {
                // the claimant is not the extreme it believes itself to be:
                // point it at the better claimant instead of accepting
                self.learn(route, false, false);
                let seq = self.lin.next_seq();
                self.introduce(ctx, claimant, holder, seq);
                false
            }
        }
    }

    /// This node is a believed extreme: accept (or arbitrate) the probe. A
    /// clockwise probe comes from a believed minimum and claims the slot of
    /// ring successor here, at the believed maximum — and vice versa.
    fn accept_discovery(
        &mut self,
        ctx: &mut Ctx<'_, SsrMsg>,
        origin: NodeId,
        dir: Direction,
        trace: Vec<NodeId>,
    ) {
        if origin == self.id {
            return; // alone in the network (or the probe looped home)
        }
        let path = SourceRoute::from_hops(dedup_consecutive(trace)).pruned();
        if path.src() != origin || path.dst() != self.id {
            ctx.metrics().incr("fwd.bad_trace");
            return;
        }
        let to_origin = path.reversed();
        if self.claim_wrap(ctx, dir.toward(), to_origin.clone()) {
            let payload = Payload::CloseRing {
                dir,
                route: path.into_hops(),
            };
            self.send_payload(ctx, &to_origin, payload);
        }
    }

    /// A closure acknowledgment arrived back at the probe's origin from
    /// its `acceptor`, who claims the slot the probe was sent to fill.
    fn handle_close_ring(
        &mut self,
        ctx: &mut Ctx<'_, SsrMsg>,
        acceptor: NodeId,
        dir: Direction,
        route: Vec<NodeId>,
    ) {
        if acceptor == self.id {
            return;
        }
        let Some(path) = checked_route(self.id, route).filter(|p| p.dst() == acceptor) else {
            ctx.metrics().incr("fwd.bad_trace");
            return;
        };
        self.lin.probe_answered(dir.toward());
        let slot = dir.toward().opposite();
        let held = self.lin.wrap(slot);
        self.claim_wrap(ctx, slot, path);
        // an answer that names the standing holder — what an audit probe
        // gets at rest — moves nothing: no act to queue, and a node whose
        // audits went quiet stays quiet
        if self.lin.wrap(slot) != held {
            self.drive(ctx, Input::Changed);
        }
    }

    /// End-to-end payload arrived at this node from the envelope route's
    /// first hop.
    fn handle_payload(&mut self, ctx: &mut Ctx<'_, SsrMsg>, env: ForwardEnvelope) {
        let ForwardEnvelope {
            route,
            trace,
            payload,
            ..
        } = env;
        let sender = route[0];
        match payload {
            Payload::Discover { origin, dir } => self.route_discovery(ctx, origin, dir, trace),
            Payload::Notify { target_route, seq } => {
                // the way the notification came is the way back to its
                // sender: answered over and learned
                let (Some(target), Some(back)) = (
                    checked_route(self.id, target_route),
                    travelled(self.id, route),
                ) else {
                    ctx.metrics().incr("fwd.bad_trace");
                    return;
                };
                let pointed_at = target.dst();
                let known = !target.is_empty() && !self.adopt_neighbor(target);
                // an introduction — a notification naming a *third* node —
                // is half of a handshake its sender waits on; an audit
                // announcement names its sender, who acts on no answer, so
                // it gets none
                if pointed_at != sender {
                    // `about` names the node we were pointed to, so the
                    // sender can tell which of its two notifications this
                    // acknowledges
                    let ack = Payload::NotifyAck {
                        about: pointed_at,
                        seq,
                    };
                    self.send_payload(ctx, &back, ack);
                    if known {
                        ctx.metrics().incr("rx.notify_known");
                    }
                } else {
                    // one announcement per mutual edge per audit interval
                    self.lin.announced_by(sender);
                    if known {
                        ctx.metrics().incr("rx.announce_known");
                    }
                }
                // the sender itself is shortcut knowledge
                self.learn(back, false, true);
                self.drive(ctx, Input::Changed);
            }
            Payload::NotifyAck { about, seq } => {
                // the acknowledgment just travelled a route to its sender:
                // refresh the cached one (the shorter stays, pins untouched)
                let back = travelled(self.id, route);
                if let Some(back) = back.filter(|b| self.cache.contains(b.dst())) {
                    self.learn(back, false, true);
                }
                self.drive(ctx, Input::Ack { about, seq });
            }
            Payload::Teardown => {
                self.lin.forget(sender);
                self.unpin_unless_phys(sender);
                self.drive(ctx, Input::Changed);
            }
            Payload::CloseRing { dir, route } => self.handle_close_ring(ctx, sender, dir, route),
            Payload::DataProbe { target, hops } => self.handle_probe(ctx, target, hops),
            Payload::SuccNotify { .. } | Payload::SuccUpdate { .. } => {
                // ISPRP messages are not part of the linearized protocol
                ctx.metrics().incr("fwd.unexpected");
            }
        }
    }

    /// Greedy forwarding of an application probe, along the cached prefix
    /// to the node [`RouteCache::best_toward`] picks — at the source, at
    /// the end of a prefix, or at a relay that took the probe over
    /// (`node_util::receive_forward`); `hops` is the physical hops it has
    /// travelled so far.
    fn handle_probe(&mut self, ctx: &mut Ctx<'_, SsrMsg>, target: NodeId, hops: u32) {
        if target == self.id {
            self.delivered_probes.push((target, hops));
            ctx.metrics().incr("probe.delivered");
            return;
        }
        let prev = ctx.set_cause(CauseClass::Routing);
        match self.cache.best_toward(target) {
            Some((_, prefix)) => {
                // the hops count on arrival, as the relays leave the route
                let route = SourceRoute::from_hops(prefix.to_vec());
                self.send_payload(ctx, &route, Payload::DataProbe { target, hops });
            }
            None => {
                ctx.metrics().incr("probe.stuck");
            }
        }
        ctx.set_cause(prev);
    }

    /// The audit round's look at an *empty* side — the state nothing else
    /// re-examines: the control core probes only while the side's wrap slot
    /// is empty too, and announces along side-set edges only.
    ///
    /// * A physical neighbor lies on the side: `E_v ⊇ E_p` has lapsed (both
    ///   ends of the last virtual edge over that link gave it up, e.g. by
    ///   exhausting their retries in the same window). Re-adopt the
    ///   line-nearest such neighbor and let the next act linearize it.
    /// * None does and a wrap edge stands in for the side: the edge may be
    ///   stale (its tear-down is one unacknowledged message), so re-send
    ///   the probe that claimed it; the true extreme's `offer_wrap`
    ///   answers `Installed` (nothing moves) or `Replaced` (repair).
    ///
    /// In a converged ring only the two extremes have an empty side, with
    /// no neighbor beyond it: two probes per period network-wide.
    fn audit_empty_sides(&mut self, ctx: &mut Ctx<'_, SsrMsg>) {
        let mut readopted = false;
        for side in [Side::Left, Side::Right] {
            if !self.lin.side(side).is_empty() {
                continue;
            }
            // a probe toward one side seeks the ring neighbor of the other
            let toward = side.opposite();
            if let Some((nbr, _)) = self.nbrs.nearest_on(self.id, side) {
                readopted |= self.adopt_neighbor(SourceRoute::direct(self.id, nbr));
            } else if self.lin.wrap(side).is_some()
                && (toward == Side::Right || self.config.ccw_redundancy)
            {
                let prev = ctx.set_cause(CauseClass::Audit);
                self.route_discovery(ctx, self.id, toward.into(), vec![self.id]);
                ctx.set_cause(prev);
            }
        }
        if readopted {
            self.drive(ctx, Input::Changed);
        }
    }

    /// Handles a link-local hello: learn the neighbor, adopt it as a
    /// virtual neighbor (`E_v ⊇ E_p`), and reply if it is new *or* the
    /// sender asked (a probe means the sender may still be blind to us —
    /// staying silent would leave the adjacency asymmetric for good).
    fn handle_hello(
        &mut self,
        ctx: &mut Ctx<'_, SsrMsg>,
        from_idx: usize,
        id: NodeId,
        probe: bool,
    ) {
        let known = !self.nbrs.bind(id, from_idx);
        self.adopt_neighbor(SourceRoute::direct(self.id, id));
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
            self.drive(ctx, Input::Changed);
        }
    }

    /// Re-probes every link whose peer has not identified itself yet, with
    /// exponential backoff up to [`HELLO_RETRIES`] rounds. Lossy links can
    /// swallow both the initial broadcast and the solicited reply; without
    /// this sweep the resulting one-way adjacency view never heals and
    /// source routes built over it by the peer are dead on arrival.
    fn hello_sweep(&mut self, ctx: &mut Ctx<'_, SsrMsg>) {
        let unidentified: Vec<usize> = ctx
            .neighbors()
            .iter()
            .copied()
            .filter(|&idx| self.nbrs.id_at(idx).is_none())
            .collect();
        if unidentified.is_empty() || self.hello_round >= HELLO_RETRIES {
            return;
        }
        let prev = ctx.set_cause(CauseClass::HelloSweep);
        for idx in unidentified {
            ctx.send(
                idx,
                SsrMsg::Hello {
                    id: self.id,
                    probe: true,
                },
            );
        }
        self.hello_round += 1;
        ctx.set_timer(HELLO_RETRY_INTERVAL << self.hello_round, TOKEN_HELLO);
        ctx.set_cause(prev);
    }
}

/// The travelled route is the learned route: what an end-to-end message
/// arrived over (`sender → … → me`), reversed and validated — a route back
/// to the sender. Relays only ever shorten the route ahead of them, so it
/// is never longer than the route it was sent along.
fn travelled(me: NodeId, mut route: Vec<NodeId>) -> Option<SourceRoute> {
    route.reverse();
    checked_route(me, route)
}

/// Collapses consecutive duplicate hops (a trace records the holder at both
/// ends of a virtual-hop boundary).
fn dedup_consecutive(mut hops: Vec<NodeId>) -> Vec<NodeId> {
    hops.dedup();
    hops
}

/// The observer's view of the node — side sets, wraps, ring neighbors,
/// local consistency — is the control core's, read through
/// [`Linearized`]'s accessors.
impl Linearized for SsrNode {
    type Edge = ();

    fn linearizer(&self) -> &Linearizer<()> {
        &self.lin
    }
}

impl Protocol for SsrNode {
    type Msg = SsrMsg;

    fn on_init(&mut self, ctx: &mut Ctx<'_, SsrMsg>) {
        ctx.broadcast(SsrMsg::Hello {
            id: self.id,
            probe: true,
        });
        // the first act waits one batching window, so the hellos land
        ctx.set_timer(ACT_INTERVAL, Timer::Act.token());
        ctx.set_timer(HELLO_RETRY_INTERVAL, TOKEN_HELLO);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SsrMsg>, from: usize, msg: SsrMsg) {
        match msg {
            SsrMsg::Hello { id, probe } => self.handle_hello(ctx, from, id, probe),
            SsrMsg::Forward(env) => {
                // the way the envelope came is a route back to every node
                // it passed: relays and the endpoint alike refresh theirs
                if env.route.get(env.pos) == Some(&self.id) {
                    let came = &env.route[..=env.pos];
                    let refreshed = node_util::refresh_behind(&mut self.cache, &self.nbrs, came);
                    if refreshed > 0 {
                        ctx.metrics().add("fwd.refreshed", refreshed as u64);
                    }
                }
                let cache = Some(&self.cache);
                if let Some(env) = node_util::receive_forward(ctx, self.id, &self.nbrs, cache, env)
                {
                    // the end of the packet's life: unbox it
                    self.handle_payload(ctx, *env);
                }
            }
            SsrMsg::Flood(_) => {
                // the linearized protocol never floods; ignore strays
                ctx.metrics().incr("fwd.unexpected");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SsrMsg>, token: u64) {
        if token == TOKEN_HELLO {
            self.hello_sweep(ctx);
        } else if let Some(timer) = Timer::from_token(token) {
            // with an empty cache a probe has nowhere to go
            let routable = !self.cache.is_empty();
            // act, retry and discovery rounds are linearization steps
            // wholesale, the timers they arm included; an audit round (like
            // message handlers) re-tags only the messages it sends
            let prev = ctx.cause();
            if timer == Timer::Audit {
                // a shortcut this node cannot send over is no shortcut
                self.cache.flush_unsendable(&self.nbrs);
                self.audit_empty_sides(ctx);
            } else {
                ctx.set_cause(CauseClass::LinearizationStep);
            }
            // what a retry round sends is a re-sent introduction
            let sent = matches!(timer, Timer::Retry(..)).then(|| ctx.metrics().counter("e2e.sent"));
            self.drive(ctx, Input::Timer { timer, routable });
            if let Some(before) = sent {
                let resent = ctx.metrics().counter("e2e.sent") - before;
                ctx.metrics().add("e2e.retry", resent);
            }
            ctx.set_cause(prev);
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
        // a fresh link restarts the identification sweep: its hello (or the
        // reply) can be lost just like the boot-time broadcast
        self.hello_round = 0;
        ctx.set_timer(HELLO_RETRY_INTERVAL, TOKEN_HELLO);
    }

    fn on_neighbor_down(&mut self, ctx: &mut Ctx<'_, SsrMsg>, neighbor: usize) {
        let Some(id) = self.nbrs.unbind_index(neighbor) else {
            return;
        };
        // every route whose next hop (or any hop) crossed the dead link's
        // peer is gone; set members and ring edges whose routes died are
        // dropped too
        self.cache.purge_via(id);
        let cache = &self.cache;
        self.lin.retain(|v, ()| cache.contains(v));
        self.drive(ctx, Input::Changed);
    }

    fn reset(&mut self) {
        *self = SsrNode::with_config(self.id, self.config);
    }

    fn kind(msg: &SsrMsg) -> &'static str {
        msg.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::{check_ring, ConsistencyReport};
    use ssr_linearize::control::AUDIT_INTERVAL;
    use ssr_linearize::observe::RingShape;

    #[test]
    fn construction_and_accessors() {
        let n = SsrNode::new(NodeId(50));
        assert_eq!(n.id(), NodeId(50));
        assert!(n.left_set().next().is_none() && n.right_set().next().is_none());
        assert!(n.ring_succ().is_none() && n.ring_pred().is_none());
        assert!(n.locally_consistent());
        assert_eq!(n.cache().len(), 0);
    }

    #[test]
    fn adopt_and_drop_neighbors() {
        let mut n = SsrNode::new(NodeId(50));
        assert!(n.adopt_neighbor(SourceRoute::direct(NodeId(50), NodeId(70))));
        assert!(n.adopt_neighbor(SourceRoute::direct(NodeId(50), NodeId(30))));
        assert!(!n.adopt_neighbor(SourceRoute::direct(NodeId(50), NodeId(70))));
        assert_eq!(n.closest_right(), Some(NodeId(70)));
        assert_eq!(n.closest_left(), Some(NodeId(30)));
        n.drop_neighbor(NodeId(70));
        assert!(n.closest_right().is_none());
        // the route may survive in the cache as an unpinned shortcut
    }

    #[test]
    fn ring_succ_prefers_right_set_over_wrap() {
        let mut n = SsrNode::new(NodeId(50));
        n.lin.set_wrap(Side::Right, NodeId(1), ());
        assert_eq!(n.ring_succ(), Some(NodeId(1)));
        n.adopt_neighbor(SourceRoute::direct(NodeId(50), NodeId(70)));
        assert_eq!(n.ring_succ(), Some(NodeId(70)));
    }

    #[test]
    fn checked_route_rejects_garbage() {
        assert!(checked_route(NodeId(1), vec![]).is_none());
        assert!(checked_route(NodeId(1), vec![NodeId(2), NodeId(3)]).is_none());
        assert!(checked_route(NodeId(1), vec![NodeId(1), NodeId(1)]).is_none());
        let ok = checked_route(NodeId(1), vec![NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(ok.dst(), NodeId(2));
    }

    #[test]
    fn reset_clears_state_but_keeps_identity() {
        let mut n = SsrNode::new(NodeId(50));
        n.adopt_neighbor(SourceRoute::direct(NodeId(50), NodeId(70)));
        n.lin.set_wrap(Side::Right, NodeId(3), ());
        n.reset();
        assert_eq!(n.id(), NodeId(50));
        assert!(n.right_set().next().is_none());
        assert!(n.wrap_succ().is_none());
        assert_eq!(n.cache().len(), 0);
    }

    proptest::proptest! {
        /// What makes the envelope the way back: any hop sequence without
        /// a consecutive repeat that ends at `me` — what a delivered
        /// envelope's route is — travelled back is a route from `me` to its
        /// first hop, the sender.
        #[test]
        fn the_travelled_route_leads_back_to_the_first_hop(
            raw in proptest::collection::vec(0u64..8, 1..24),
        ) {
            let me = NodeId(3);
            let mut hops = dedup_consecutive(raw.into_iter().map(NodeId).collect());
            if hops.last() != Some(&me) {
                hops.push(me);
            }
            let back = travelled(me, hops.clone());
            proptest::prop_assert!(back.is_some(), "{hops:?}");
            let back = back.unwrap();
            proptest::prop_assert_eq!((back.src(), back.dst()), (me, hops[0]));
        }
    }

    #[test]
    fn dedup_consecutive_collapses_boundaries() {
        let hops: Vec<NodeId> = [1, 2, 2, 3, 3, 3, 4].iter().map(|&i| NodeId(i)).collect();
        let out = dedup_consecutive(hops);
        assert_eq!(out, vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn hello_rebinds_keep_address_and_link_a_bijection() {
        node_util::rig::rebinds_keep_the_bijection(|| SsrNode::new(NodeId(50)), |n| &n.nbrs);
    }

    /// Runs one callback of `node` as a step at tick `now` over links 1 and
    /// 2, with `rng` lent, and returns what it queued.
    fn step(
        node: &mut SsrNode,
        rng: &mut ssr_types::Rng,
        now: u64,
        f: impl FnOnce(&mut SsrNode, &mut Ctx<'_, SsrMsg>),
    ) -> Vec<ssr_sim::Action<SsrMsg>> {
        let (mut out, mut metrics) = (Vec::new(), ssr_sim::Metrics::new());
        let now = ssr_sim::Time::ZERO + now;
        let cause = CauseClass::Bootstrap;
        f(
            node,
            &mut Ctx::new(0, now, &[1, 2], &mut out, rng, &mut metrics, cause),
        );
        out
    }

    /// `SsrNode` outside the simulator: `on_init`, then a `Hello` from link
    /// 1, as two steps. The neighbour is bound, the outbox holds the hellos
    /// and timers in queue order, and the lent `Rng` is never drawn from —
    /// a step is a function of the node's state and its input.
    #[test]
    fn a_node_steps_outside_the_simulator_without_drawing_randomness() {
        use ssr_sim::Action;
        let send = |to, probe| Action::Send {
            to,
            msg: SsrMsg::Hello {
                id: NodeId(50),
                probe,
            },
            cause: CauseClass::Bootstrap,
        };
        let timer = |delay, timer: Timer| Action::Timer {
            delay,
            token: timer.token(),
            cause: CauseClass::Bootstrap,
        };
        let hello = Action::Timer {
            delay: HELLO_RETRY_INTERVAL,
            token: TOKEN_HELLO,
            cause: CauseClass::Bootstrap,
        };
        let mut node = SsrNode::new(NodeId(50));
        let mut rng = ssr_types::Rng::new(7);
        let mut untouched = rng.clone();

        let out = step(&mut node, &mut rng, 0, |p, ctx| p.on_init(ctx));
        assert_eq!(
            out,
            [
                send(1, true),
                send(2, true),
                timer(ACT_INTERVAL, Timer::Act),
                hello
            ]
        );

        let from_30 = SsrMsg::Hello {
            id: NodeId(30),
            probe: true,
        };
        let out = step(&mut node, &mut rng, 1, |p, ctx| {
            p.on_message(ctx, 1, from_30)
        });
        assert_eq!(
            (node.nbrs.id_at(1), node.nbrs.id_at(2)),
            (Some(NodeId(30)), None)
        );
        assert_eq!(node.closest_left(), Some(NodeId(30)));
        // the probe is answered; the new neighbour arms an act and an audit
        assert_eq!(
            out,
            [
                send(1, false),
                timer(ACT_INTERVAL, Timer::Act),
                timer(AUDIT_INTERVAL, Timer::Audit)
            ]
        );

        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    fn route(ids: &[u64]) -> SourceRoute {
        SourceRoute::from_hops(ids.iter().map(|&i| NodeId(i)).collect())
    }

    #[test]
    fn learned_routes_leave_over_the_last_hop_that_is_a_physical_neighbor() {
        let mut n = SsrNode::new(NodeId(50));
        for (id, link) in [(60, 1), (70, 2)] {
            n.nbrs.bind(NodeId(id), link);
        }
        // the farthest neighbor on the route, not the first
        n.learn(route(&[50, 60, 65, 70, 80, 90]), true, false);
        assert_eq!(n.cache.get(NodeId(90)), Some(&route(&[50, 70, 80, 90])));
        // an adjacent destination is one hop away, whatever the route says
        assert!(n.adopt_neighbor(route(&[50, 60, 65, 70])));
        assert_eq!(n.cache.get(NodeId(70)), Some(&route(&[50, 70])));
        // no neighbor past hop 1: cached as it came
        n.learn(route(&[50, 60, 65, 85]), false, false);
        assert_eq!(n.cache.get(NodeId(85)), Some(&route(&[50, 60, 65, 85])));
        // a route that is still longer after the cut changes nothing
        n.learn(route(&[50, 60, 70, 75, 80, 90]), false, false);
        assert_eq!(n.cache.get(NodeId(90)), Some(&route(&[50, 70, 80, 90])));
        // once a message has travelled the route to 85, a later route
        // through 85 is spliced onto it
        let past_85 = route(&[50, 60, 66, 67, 68, 85, 40]);
        n.learn(past_85.clone(), false, false);
        assert_eq!(n.cache.get(NodeId(40)), Some(&past_85));
        n.learn(route(&[50, 60, 65, 85]), false, true);
        n.learn(past_85, false, false);
        assert_eq!(n.cache.get(NodeId(40)), Some(&route(&[50, 60, 65, 85, 40])));
    }

    /// A node that, at tick 1, starts one data probe toward
    /// every address in `targets` and sends every payload of `sends`; it
    /// never boots the node under it, so nothing else is in flight.
    struct Prober {
        node: SsrNode,
        targets: Vec<NodeId>,
        sends: Vec<(SourceRoute, Payload)>,
    }

    impl Protocol for Prober {
        type Msg = SsrMsg;

        fn on_init(&mut self, ctx: &mut Ctx<'_, SsrMsg>) {
            ctx.set_timer(1, 0);
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, SsrMsg>, from: usize, msg: SsrMsg) {
            self.node.on_message(ctx, from, msg);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, SsrMsg>, _token: u64) {
            for &target in &self.targets {
                self.node.handle_probe(ctx, target, 0);
            }
            for (route, payload) in self.sends.drain(..) {
                self.node.send_payload(ctx, &route, payload);
            }
        }

        fn reset(&mut self) {}

        fn kind(msg: &SsrMsg) -> &'static str {
            msg.kind()
        }
    }

    /// The message-level reader of `best_toward` (`handle_probe` at the
    /// source and at every relay that takes a probe over, hop by hop
    /// through the simulator) and the snapshot reader (`RoutingView::route`)
    /// agree. Each of the n² probes over a converged n = 40 ring runs alone,
    /// from a fresh copy of the converged nodes, and arrives. A probe takes
    /// the view's decisions over the view's prefixes as long as no relay
    /// changes the route ahead (`fwd.shortcut`, `fwd.spliced`) and no node
    /// it reaches refreshes a cached route ([`node_util::refresh_behind`]):
    /// a shortcut may skip a relay that would have decided, and a refresh
    /// may swap a route for a shorter one that no longer passes the best
    /// candidate. Where none of the three moved, the probe arrives with the
    /// view's hop count exactly; that is 95 % of the probes at least, and
    /// some relay takes a probe over (`fwd.redecided`) on the way.
    #[test]
    fn probes_arrive_with_the_hop_count_the_routing_view_reports() {
        use crate::bootstrap::{run_linearized_bootstrap, topo_and_labels, BootstrapConfig};
        use crate::routing::{RouteOutcome, RoutingView};
        let n = 40;
        let (g, labels) = topo_and_labels(n, 3);
        let (report, done) = run_linearized_bootstrap(&g, &labels, &BootstrapConfig::default());
        assert!(report.converged, "{report:?}");
        let view = RoutingView::new(done.protocols());
        let (mut exact, mut redecided) = (0, 0);
        for (s, &src) in labels.ids().iter().enumerate() {
            for (d, &dst) in labels.ids().iter().enumerate() {
                let probers = (done.protocols().iter().enumerate())
                    .map(|(u, node)| Prober {
                        node: node.clone(),
                        targets: if u == s { vec![dst] } else { Vec::new() },
                        sends: Vec::new(),
                    })
                    .collect();
                let mut sim =
                    ssr_sim::Simulator::new(g.clone(), probers, ssr_sim::LinkConfig::ideal(), 1);
                assert!(sim.run_to_quiescence(10_000).is_quiescent());
                let &[(target, hops)] = sim.protocol(d).node.delivered_probes() else {
                    panic!("{src:?}→{dst:?} did not arrive once");
                };
                assert_eq!(target, dst);
                let RouteOutcome::Delivered { physical_hops, .. } =
                    view.route(src, dst, 4 * n as u32)
                else {
                    panic!("{src:?}→{dst:?} does not route over the snapshot");
                };
                let m = sim.metrics();
                redecided += m.counter("fwd.redecided");
                let moved = ["fwd.shortcut", "fwd.spliced", "fwd.refreshed"];
                if moved.iter().all(|&key| m.counter(key) == 0) {
                    assert_eq!(hops, physical_hops, "{src:?}→{dst:?}");
                    exact += 1;
                }
            }
        }
        assert!(100 * exact >= 95 * n * n, "{exact} of {} exact", n * n);
        assert!(redecided > 0, "no relay took a probe over");
    }

    /// Physical ring 10–20–30–40–50–10, every node's neighbor table bound
    /// by hand. Node 10 notifies 30 over `10→20→30` while 30 caches the
    /// three-hop route `30→40→50→10`: the acknowledgment takes the two hops
    /// the notification travelled instead, 30 caches those, and at 10 —
    /// which held a three-hop route to 30 — the acknowledgment's own
    /// journey replaces it.
    #[test]
    fn a_notify_is_answered_and_an_ack_learned_along_the_travelled_route() {
        let n = 5;
        let topo = ssr_graph::Graph::from_edges(n, (0..n).map(|u| (u, (u + 1) % n)));
        let id = |u: usize| NodeId(10 * (u as u64 + 1));
        let mut probers: Vec<Prober> = (0..n)
            .map(|u| {
                let mut node = SsrNode::new(id(u));
                for v in topo.neighbors(u) {
                    node.nbrs.bind(id(v), v);
                }
                Prober {
                    node,
                    targets: Vec::new(),
                    sends: Vec::new(),
                }
            })
            .collect();
        probers[0].node.inject_cache_route(route(&[10, 50, 40, 30]));
        probers[2].node.inject_cache_route(route(&[30, 40, 50, 10]));
        let notify = Payload::Notify {
            target_route: vec![NodeId(30)],
            seq: SeqNo(1),
        };
        probers[0].sends.push((route(&[10, 20, 30]), notify));
        let mut sim = ssr_sim::Simulator::new(topo, probers, ssr_sim::LinkConfig::ideal(), 1);
        sim.run_until(ssr_sim::Time(6));
        assert_eq!(sim.metrics().counter("msg.notify"), 2);
        assert_eq!(sim.metrics().counter("msg.ack"), 2, "not the cached 3");
        let cached = |u: usize, dst| sim.protocol(u).node.cache.get(NodeId(dst)).cloned();
        assert_eq!(cached(2, 10), Some(route(&[30, 20, 10])));
        assert_eq!(cached(0, 30), Some(route(&[10, 20, 30])));
    }

    /// Physical line 10–…–60 with the chord 60–10, every neighbor table
    /// bound by hand. Node 10 sends a data probe along the line to 50.
    /// Relay 30 holds a pinned four-hop route to 10 around the chord: the
    /// two hops the probe came replace it, marked travelled, still pinned.
    /// Relay 40 holds no route to the sender and gains none; its unpinned
    /// route to 20 around the chord is refreshed the same way and stays
    /// unpinned.
    #[test]
    fn a_relay_refreshes_its_longer_route_to_the_sender_and_adds_none() {
        let n = 6;
        let topo = ssr_graph::Graph::from_edges(n, (0..n).map(|u| (u, (u + 1) % n)));
        let id = |u: usize| NodeId(10 * (u as u64 + 1));
        let mut probers: Vec<Prober> = (0..n)
            .map(|u| {
                let mut node = SsrNode::new(id(u));
                for v in topo.neighbors(u) {
                    node.nbrs.bind(id(v), v);
                }
                Prober {
                    node,
                    targets: Vec::new(),
                    sends: Vec::new(),
                }
            })
            .collect();
        probers[2]
            .node
            .cache
            .insert(route(&[30, 40, 50, 60, 10]), true);
        probers[3]
            .node
            .cache
            .insert(route(&[40, 50, 60, 10, 20]), false);
        let probe = Payload::DataProbe {
            target: NodeId(50),
            hops: 0,
        };
        probers[0].sends.push((route(&[10, 20, 30, 40, 50]), probe));
        let mut sim = ssr_sim::Simulator::new(topo, probers, ssr_sim::LinkConfig::ideal(), 1);
        assert!(sim.run_to_quiescence(100).is_quiescent());
        assert_eq!(sim.metrics().counter("probe.delivered"), 1);
        assert_eq!(sim.metrics().counter("fwd.refreshed"), 2);
        let thirty = &sim.protocol(2).node.cache;
        assert_eq!(thirty.travelled(NodeId(10)), Some(&route(&[30, 20, 10])));
        assert!(thirty.is_pinned(NodeId(10)));
        let forty = &sim.protocol(3).node.cache;
        assert_eq!((forty.len(), forty.contains(NodeId(10))), (1, false));
        assert_eq!(forty.travelled(NodeId(20)), Some(&route(&[40, 30, 20])));
        assert!(!forty.is_pinned(NodeId(20)));
    }

    fn line_nodes(n: u64) -> Vec<SsrNode> {
        (1..=n).map(|i| SsrNode::new(NodeId(10 * i))).collect()
    }

    /// `nodes` over the physical line `10–20–…`, ideal links.
    fn line_sim(nodes: Vec<SsrNode>) -> ssr_sim::Simulator<SsrNode> {
        let n = nodes.len();
        let topo = ssr_graph::Graph::from_edges(n, (1..n).map(|u| (u - 1, u)));
        ssr_sim::Simulator::new(topo, nodes, ssr_sim::LinkConfig::ideal(), 1)
    }

    /// Runs until the ring is consistent or `budget` ticks are gone.
    fn settle(sim: &mut ssr_sim::Simulator<SsrNode>, budget: u64) -> ConsistencyReport {
        sim.run_until_stable(8, budget, |nodes, _| check_ring(nodes).consistent());
        check_ring(sim.protocols())
    }

    type Rig = node_util::rig::Rig<SsrNode>;

    /// Node 50 between two scripted peers that say hello (60 and 70) and
    /// never anything else, so its handshake `keep` 60 / `drop` 70 is never
    /// acknowledged. With `far_hops` only 60 says hello and the route to 70
    /// is injected, that many hops long, through nodes that do not exist.
    /// Returns the tick of the act that starts the handshake, the tick it
    /// is abandoned at, and the simulator stopped there.
    fn silent_handshake(far_hops: Option<u64>) -> (u64, u64, ssr_sim::Simulator<Rig>) {
        let mut node = SsrNode::new(NodeId(50));
        let mut second = vec![(1, NodeId(70))];
        if let Some(hops) = far_hops {
            let via = [50, 60].into_iter().chain(101..99 + hops).chain([70]);
            node.inject_neighbor(route(&via.collect::<Vec<_>>()));
            second.clear();
        }
        let topo = ssr_graph::Graph::from_edges(3, [(0, 1), (0, 2)]);
        let peers = vec![
            Rig::Node(node),
            Rig::Forger(vec![(1, NodeId(60))]),
            Rig::Forger(second),
        ];
        let mut sim = ssr_sim::Simulator::new(topo, peers, ssr_sim::LinkConfig::ideal(), 1);
        let mut tick = 0;
        let mut run_while = |in_flight: bool| loop {
            sim.run_until(ssr_sim::Time(tick));
            if under_test(&sim).lin.pending(Side::Right).is_some() != in_flight {
                return tick;
            }
            tick += 1;
        };
        let (started, abandoned) = (run_while(false), run_while(true));
        (started, abandoned, sim)
    }

    fn under_test(sim: &ssr_sim::Simulator<Rig>) -> &SsrNode {
        match sim.protocol(0) {
            Rig::Node(node) => node,
            Rig::Forger(_) => unreachable!("index 0 is the node under test"),
        }
    }

    /// Rule 1 leaves the control core's retry schedule standing — same-`seq`
    /// re-sends, `MAX_RETRIES`, the abandon — and only keeps each timer from
    /// firing before the acknowledgment can be back: Σ max(24 << k, 2L + 2)
    /// ticks from the act, which for short routes is the core's own 744.
    #[test]
    fn a_silent_handshake_is_abandoned_on_the_route_aware_schedule() {
        // both ends adjacent (L = 1): 24 + 48 + 96 + 192 + 384
        let (started, abandoned, sim) = silent_handshake(None);
        assert_eq!(abandoned - started, 744);
        assert_eq!(sim.metrics().counter("e2e.retry"), 8, "4 re-sends a half");
        // a current physical neighbour is no ghost: both are re-adopted
        let right: Vec<NodeId> = under_test(&sim).right_set().collect();
        assert_eq!(right, vec![NodeId(60), NodeId(70)]);

        // `drop` 20 hops away: 42 + 48 + 96 + 192 + 384
        let (started, abandoned, sim) = silent_handshake(Some(20));
        assert_eq!(abandoned - started, 762);
        assert_eq!(sim.metrics().counter("e2e.retry"), 8);
        // the silent far end is dropped, route and all; the neighbour stays
        let right: Vec<NodeId> = under_test(&sim).right_set().collect();
        assert_eq!(right, vec![NodeId(60)]);
        assert!(!under_test(&sim).cache.contains(NodeId(70)));
    }

    /// The physical line 10–20–30–50–40 closed into the ring 10 → 20 → 30 →
    /// 40 → 50, settled and then run four audit periods to rest. The
    /// virtual edge 30–40 rides no physical link.
    fn ring_at_rest() -> (ssr_sim::Simulator<SsrNode>, u64) {
        let nodes = [10, 20, 30, 50, 40].map(|id| SsrNode::new(NodeId(id)));
        let mut sim = line_sim(nodes.into_iter().collect());
        assert!(settle(&mut sim, 5_000).consistent());
        let rest = sim.now().ticks() + 4 * AUDIT_INTERVAL;
        sim.run_until(ssr_sim::Time(rest));
        (sim, rest)
    }

    /// Ticks from now until the ring is consistent, at most `budget`.
    fn heal(sim: &mut ssr_sim::Simulator<SsrNode>, budget: u64) -> u64 {
        let from = sim.now().ticks();
        while !check_ring(sim.protocols()).consistent() && sim.now().ticks() < from + budget {
            sim.run_until(ssr_sim::Time(sim.now().ticks() + 1));
        }
        sim.now().ticks() - from
    }

    /// Rule 2 at rest: two audit periods cost two announcements per mutual
    /// line edge — eight, not sixteen — and not one answer (ends whose
    /// rounds fall on the same tick both announce in one period and both
    /// skip in the next). An edge that is
    /// no longer mutual is re-announced within one period: node 40 drops
    /// 30 at a moment it has sent 30 nothing since 30's last round, so 30's
    /// next round announces, and nothing but that announcement can restore
    /// the edge (40 has no physical neighbour below it).
    #[test]
    fn a_non_mutual_edge_is_re_announced_within_one_interval() {
        let (mut sim, rest) = ring_at_rest();
        let count = |sim: &ssr_sim::Simulator<SsrNode>, key| sim.metrics().counter(key);
        let (announce, ack) = (count(&sim, "e2e.announce"), count(&sim, "msg.ack"));
        sim.run_until(ssr_sim::Time(rest + 2 * AUDIT_INTERVAL));
        assert_eq!(count(&sim, "e2e.announce"), announce + 2 * 4);
        assert_eq!(count(&sim, "msg.ack"), ack);

        let (thirty, forty) = (2, 4);
        while sim.protocol(thirty).lin.announced(Side::Right).is_some() {
            sim.run_until(ssr_sim::Time(sim.now().ticks() + 1));
        }
        sim.protocol_mut(forty).lin.remove(NodeId(30));
        assert!(!check_ring(sim.protocols()).consistent());
        let ticks = heal(&mut sim, 4 * AUDIT_INTERVAL);
        assert!(ticks <= AUDIT_INTERVAL + 2, "healed after {ticks} ticks");
        assert_eq!(count(&sim, "msg.ack"), ack);
    }

    /// A member whose state is wiped at rest is back in the ring within two
    /// periods, re-adopted from its neighbours' announcements. Not within
    /// one: both neighbours heard its announcement in the period before the
    /// wipe, so each skips its next round.
    #[test]
    fn a_wiped_node_heals_within_two_intervals() {
        let (mut sim, rest) = ring_at_rest();
        sim.run_until(ssr_sim::Time(rest + AUDIT_INTERVAL));
        let ack = sim.metrics().counter("msg.ack");
        sim.protocol_mut(2).reset();
        assert!(!check_ring(sim.protocols()).consistent());
        let ticks = heal(&mut sim, 4 * AUDIT_INTERVAL);
        assert!(
            AUDIT_INTERVAL < ticks && ticks <= 2 * AUDIT_INTERVAL,
            "healed after {ticks} ticks"
        );
        assert_eq!(sim.metrics().counter("msg.ack"), ack);
    }

    /// The delegating end unpins a physical neighbor's route. On the line
    /// 10–20–30–40 with the chord 10–30, node 10 starts with 20 and 30 on
    /// its right, introduces them to each other and delegates its edge to
    /// 30: the ring forms, 30 is still in 10's physical table, and 10's
    /// one-hop route to it is an ordinary, unpinned cache entry.
    #[test]
    fn a_delegated_physical_neighbor_is_unpinned_and_stays_a_neighbor() {
        let topo = ssr_graph::Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)]);
        let mut sim = ssr_sim::Simulator::new(topo, line_nodes(4), ssr_sim::LinkConfig::ideal(), 1);
        let report = settle(&mut sim, 5_000);
        assert!(report.consistent(), "{report:?}");
        let ten = sim.protocol(0);
        assert!(ten.nbrs.contains(NodeId(30)));
        assert_eq!(ten.right_set().collect::<Vec<_>>(), vec![NodeId(20)]);
        assert_eq!(ten.cache.get(NodeId(30)), Some(&route(&[10, 30])));
        assert!(!ten.cache.is_pinned(NodeId(30)));
        assert!(ten.cache.is_pinned(NodeId(20)) && ten.cache.is_pinned(NodeId(40)));
    }

    /// A completed delegation sends nothing. On the line 10–…–50 with the
    /// chords 10–40 and 20–40, node 20 introduces 30 and 40 and delegates
    /// its edge to 40, while 40's own first handshake retires 10 and keeps
    /// 20. So 40 holds 20 one-way until its next handshake retires it too;
    /// no tear-down is sent either time, and at convergence every side-set
    /// edge is held at both ends.
    #[test]
    fn a_delegation_sends_nothing_and_the_delegated_end_retires_the_edge_itself() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3), (1, 3)];
        let topo = ssr_graph::Graph::from_edges(5, edges);
        let mut sim = ssr_sim::Simulator::new(topo, line_nodes(5), ssr_sim::LinkConfig::ideal(), 1);
        let holds = |sim: &ssr_sim::Simulator<SsrNode>, u: usize, v| {
            sim.protocol(u).lin.edge(NodeId(v)).is_some()
        };
        // the hellos are in: both ends hold the chord 20–40
        let mut tick = 1;
        sim.run_until(ssr_sim::Time(tick));
        assert!(holds(&sim, 1, 40) && holds(&sim, 3, 20));
        let mut run_while = |sim: &mut ssr_sim::Simulator<SsrNode>, u, v| {
            while holds(sim, u, v) {
                tick += 1;
                sim.run_until(ssr_sim::Time(tick));
                assert!(tick < 1_000, "{} never retired {v}", sim.protocol(u).id());
            }
        };
        run_while(&mut sim, 1, 40);
        assert!(holds(&sim, 3, 20), "40 must still hold 20, one-way");
        assert_eq!(sim.metrics().counter("e2e.teardown"), 0);
        run_while(&mut sim, 3, 20);
        assert_eq!(sim.metrics().counter("e2e.teardown"), 0);
        let report = settle(&mut sim, 5_000);
        assert!(report.consistent(), "{report:?}");
        for node in sim.protocols() {
            for peer in node.left_set().chain(node.right_set()) {
                let other = sim.protocols().iter().find(|p| p.id() == peer);
                let mutual = other.is_some_and(|p| p.lin.edge(node.id()).is_some());
                assert!(mutual, "{peer:?} does not hold {:?}", node.id());
            }
        }
    }

    /// The audit round flushes a shortcut nothing can be sent over. Node 10
    /// of the line 10–20–30 boots caching, besides what the protocol
    /// learns, an unpinned route whose first hop is no neighbour, a pinned
    /// one like it, and an unpinned one over its neighbour 20: after the
    /// first audit round only the first is gone.
    #[test]
    fn an_unpinned_route_over_no_neighbour_is_flushed_by_the_audit_round() {
        let mut nodes = line_nodes(3);
        let (dead, pinned, live) = (NodeId(500), NodeId(700), NodeId(600));
        nodes[0].inject_cache_route(route(&[10, 99, 500]));
        nodes[0].cache.insert(route(&[10, 98, 700]), true);
        nodes[0].inject_cache_route(route(&[10, 20, 600]));
        let mut sim = line_sim(nodes);
        let audit = ssr_linearize::control::AUDIT_INTERVAL;
        sim.run_until(ssr_sim::Time(audit - 1));
        let cache = &sim.protocol(0).cache;
        assert!(cache.contains(dead) && cache.contains(pinned) && cache.contains(live));
        sim.run_until(ssr_sim::Time(2 * audit));
        let cache = &sim.protocol(0).cache;
        assert!(!cache.contains(dead));
        assert!(cache.is_pinned(pinned) && cache.contains(live));
    }

    /// A held stale ring edge is re-arbitrated. Both true extremes boot
    /// holding a wrap edge to a non-extreme: neither slot is empty, so the
    /// control core never probes, and an audit announces along side-set
    /// edges only — the line forms and the ring stays open for good unless
    /// the audit round re-sends the probe that claims the slot.
    #[test]
    fn a_stale_wrap_edge_at_both_extremes_is_repaired_by_the_audit_probe() {
        let mut nodes = line_nodes(5);
        nodes[0].inject_wrap_pred(NodeId(40), route(&[10, 20, 30, 40]));
        nodes[4].inject_wrap_succ(NodeId(20), route(&[50, 40, 30, 20]));
        let report = settle(&mut line_sim(nodes), 5_000);
        assert!(report.consistent(), "{report:?}");
    }

    /// `E_v ⊇ E_p` is restored after it lapsed. The converged line
    /// 10–20–30–40 loses the virtual edge 20–30 at both ends (what two
    /// handshakes abandoned in the same window leave behind) and each half
    /// closes a ring of its own: every node is locally consistent, no slot
    /// is empty, and the live link 20–30 is nobody's virtual edge.
    #[test]
    fn a_lapsed_physical_edge_is_readopted_by_the_audit_round() {
        let mut sim = line_sim(line_nodes(4));
        assert!(settle(&mut sim, 5_000).consistent());
        sim.protocol_mut(1).lin.remove(NodeId(30));
        sim.protocol_mut(2).lin.remove(NodeId(20));
        for (min, max) in [(0, 1), (2, 3)] {
            let (lo, hi) = (sim.protocol(min).id(), sim.protocol(max).id());
            sim.protocol_mut(min)
                .inject_wrap_pred(hi, SourceRoute::direct(lo, hi));
            sim.protocol_mut(max)
                .inject_wrap_succ(lo, SourceRoute::direct(hi, lo));
        }
        let split = check_ring(sim.protocols());
        assert_eq!(split.shape, RingShape::Partitioned(2), "{split:?}");
        let healed = settle(&mut sim, 10_000);
        assert!(healed.consistent(), "{healed:?}");
    }
}
