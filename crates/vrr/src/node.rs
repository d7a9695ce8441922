//! The VRR node: hop-by-hop path state plus the two bootstrap modes.
//!
//! **Transport model.** VRR has no source routes, so control traffic moves
//! two ways only:
//!
//! * **along installed paths** ([`VrrMsg::AlongPath`]) — every message to a
//!   known virtual neighbor follows that edge's path state. In particular,
//!   *neighbor notifications lay the new virtual edge as they travel*: when
//!   `v1` introduces `v2 ↔ v3`, it sends each a notification along its own
//!   path to them, and the two half-walks install the path state of the new
//!   edge `v2 – … – v1 – … – v3` hop by hop (with `v1`'s entry joining the
//!   halves). This realizes the paper's remark that for VRR "the
//!   notification messages set up state along their forwarding path". A
//!   node on the path whose destination endpoint is a bound physical
//!   neighbour hands the message straight to it, even where it holds no
//!   row for the path; one whose row's next hop is not a neighbour of the
//!   endpoint hands the message to a physical neighbour that is, which
//!   hands it on to the endpoint. A half-lay lays the new edge over the
//!   one link or the two, so paths shorten as they are laid. The
//!   neighbours of a neighbour come from its hellos, which carry the
//!   sender's bound neighbours: a node answers a new neighbour's hello a
//!   tick later, once every neighbour whose first hello arrived with it is
//!   bound, so the answer lists them all, and a node that loses a link
//!   sends its hello again to every neighbour still bound, so none goes on
//!   handing it messages for the far end of that link;
//! * **greedily toward larger/smaller addresses** ([`VrrMsg::Routed`]) —
//!   only for walks whose destination is *unknown* (ring-closure discovery)
//!   or not yet connected (baseline claims toward the representative).
//!   Discovery walks drop breadcrumb state so the closure acknowledgment
//!   can retrace and solidify the wrap edge.
//!
//! **Linearized mode** mirrors the SSR bootstrap exactly: farthest-pair
//! introductions with a two-ACK handshake, plus CW/CCW discovery. A
//! delegation costs no message on its normal path. The delegated peer is
//! not told, as SSR's is not: it drops the delegator by its own
//! farthest-pair rule. That rule's introduction is the mirror of the
//! delegator's own handshake — the delegator keeps the node it introduced
//! this one to — so a node settles it without a message, feeding the
//! control core both acknowledgments itself.
//! **Baseline mode** adds VRR's own mechanism: periodic hello
//! beacons piggy-backing the *representative*, claim walks toward it, and
//! redirects — the standing dissemination cost that linearization removes.

#![warn(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

use std::collections::BTreeMap;

use ssr_linearize::control::{Effect, Input, Linearizer, Timer, WrapVerdict, ACT_INTERVAL};
use ssr_linearize::observe::Linearized;
use ssr_sim::{CauseClass, Ctx, Protocol};
use ssr_types::{cw_dist, ring_between_cw, Neighbors, NodeId, SeqNo, Side};

use crate::table::{entry_hop_toward, PathEntry, PathId, PathTable};

/// Baseline beacon — a timer that is not the control core's.
const TOKEN_BEACON: u64 = Timer::FIRST_FREE_TOKEN;

/// The answers to new neighbours' hellos, sent a tick after the first of
/// them arrived — the other timer that is not the control core's.
const TOKEN_HELLO: u64 = Timer::FIRST_FREE_TOKEN + 1;

/// Breadcrumb placeholder endpoints (no real node may use them; the id
/// space is random 64-bit, so the extremes are assumed free — asserted at
/// node construction).
const CRUMB_CW: NodeId = NodeId::MAX;
const CRUMB_CCW: NodeId = NodeId::MIN;

/// Which consistency mechanism the node runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VrrMode {
    /// Hello beacons carrying the representative (VRR's original scheme).
    Baseline,
    /// The paper's linearization — no representative, no periodic beacons.
    Linearized,
}

/// Beacon period (baseline mode only).
pub(crate) const BEACON_INTERVAL: u64 = 16;

/// Hop budget of every walk and path message a node originates.
const TTL: u16 = 512;

/// What the experiments vary about a VRR node. The timer schedule is the
/// control core's own (`ssr_linearize::control`'s `ACT_INTERVAL`, …
/// constants).
#[derive(Clone, Copy, Debug)]
pub struct VrrConfig {
    /// Bootstrap mode.
    pub mode: VrrMode,
}

impl Default for VrrConfig {
    fn default() -> Self {
        VrrConfig {
            mode: VrrMode::Linearized,
        }
    }
}

/// Payloads of greedy [`VrrMsg::Routed`] walks.
#[derive(Clone, Debug, PartialEq)]
pub enum RoutedPayload {
    /// Ring-closure probe; installs breadcrumb state as it walks, accepted
    /// where no further progress is possible.
    Discover {
        /// Probe origin.
        origin: NodeId,
        /// Travel direction: toward larger ([`Side::Right`], clockwise) or
        /// smaller addresses.
        toward: Side,
        /// Breadcrumb nonce.
        nonce: u64,
    },
    /// Baseline: claim toward the representative; installs real path state
    /// (the target is known), so the representative can answer.
    Claim {
        /// Claimant (origin of the walk).
        from: NodeId,
        /// The representative (walk target).
        to: NodeId,
        /// Path nonce.
        nonce: u64,
    },
}

impl RoutedPayload {
    fn target(&self) -> NodeId {
        match *self {
            RoutedPayload::Discover { toward, .. } => match toward {
                Side::Right => NodeId::MAX,
                Side::Left => NodeId::MIN,
            },
            RoutedPayload::Claim { to, .. } => to,
        }
    }
}

/// Payloads that follow path state.
#[derive(Clone, Debug, PartialEq)]
pub enum PathPayload {
    /// Neighbor notification: "adopt `other` as a virtual neighbor". While
    /// traveling along the carrier path it installs the *half-path* of the
    /// new edge `new_pid` (oriented so the far side leads back through the
    /// initiator).
    Notify {
        /// The new virtual edge being laid.
        new_pid: PathId,
        /// The introduced node (the new edge's far endpoint).
        other: NodeId,
        /// The introducing node (handshake bookkeeping).
        from: NodeId,
        /// Handshake correlation.
        seq: SeqNo,
        /// The introducer's hop bound on its path to `other` (0 where
        /// `other` is the sender): the receiver's bound for `other` is the
        /// hops this message took plus this.
        hops: u16,
    },
    /// Handshake acknowledgment back to the initiator along the carrier
    /// path.
    Ack {
        /// The node the sender was pointed to.
        about: NodeId,
        /// Handshake correlation.
        seq: SeqNo,
    },
    /// Retires a virtual edge *without* removing path state: the recipient
    /// drops the sender from its neighbor sets. Sent for a demoted
    /// ring-closure edge and an abandoned handshake's silent peer; a
    /// delegation sends none. The installed path
    /// survives as router state at every node it traverses. Nothing collects
    /// it later — only a lost link (`PathTable::purge_via`) and breadcrumb
    /// cleanup (`PathTable::purge_like`) remove entries, so most of the
    /// table at consistency is retired paths (DESIGN finding 15). Tearing
    /// the path down as this message passes would cut in-flight half-lays
    /// and introductions that still ride on it.
    Retire {
        /// The node retiring the edge.
        from: NodeId,
    },
    /// Ring-closure acceptance: retraces a discovery's breadcrumbs toward
    /// the origin, rewriting them into the final wrap edge `final_pid`.
    CloseRing {
        /// The accepting extreme.
        acceptor: NodeId,
        /// The solidified wrap edge.
        final_pid: PathId,
        /// Travel direction of the probe answered.
        toward: Side,
    },
}

impl PathPayload {
    /// The `e2e.*` counter a node originating this payload counts it under:
    /// a notification naming its own sender is an announcement (the audit's,
    /// or a baseline claim answered), any other one half of an introduction.
    fn e2e_key(&self) -> &'static str {
        match self {
            PathPayload::Notify { other, from, .. } if other == from => "e2e.announce",
            PathPayload::Notify { .. } => "e2e.notify",
            PathPayload::Ack { .. } => "e2e.ack",
            PathPayload::Retire { .. } => "e2e.teardown",
            PathPayload::CloseRing { .. } => "e2e.discover",
        }
    }
}

/// All VRR messages.
#[derive(Clone, Debug, PartialEq)]
pub enum VrrMsg {
    /// Link-local beacon: own address, (baseline) the representative, and
    /// the sender's bound physical neighbours.
    Hello {
        /// Sender address.
        id: NodeId,
        /// Largest address the sender knows.
        rep: NodeId,
        /// The sender's bound physical neighbours, in address order.
        nbrs: Vec<NodeId>,
    },
    /// Greedily routed walk.
    Routed {
        /// Remaining hop budget.
        ttl: u16,
        /// Content.
        payload: RoutedPayload,
    },
    /// Message following installed path state toward one endpoint.
    AlongPath {
        /// Carrier path.
        id: PathId,
        /// Destination endpoint of the carrier path.
        toward: NodeId,
        /// Remaining hop budget (guards against loops from corrupted or
        /// half-rewritten path state).
        ttl: u16,
        /// Content.
        payload: PathPayload,
    },
}

impl VrrMsg {
    /// Metrics kind.
    pub fn kind(&self) -> &'static str {
        match self {
            VrrMsg::Hello { .. } => "hello",
            VrrMsg::Routed { payload, .. } => match payload {
                RoutedPayload::Discover { .. } => "discover",
                RoutedPayload::Claim { .. } => "succ",
            },
            VrrMsg::AlongPath { payload, .. } => match payload {
                PathPayload::Notify { .. } => "notify",
                PathPayload::Ack { .. } => "ack",
                PathPayload::Retire { .. } => "teardown",
                PathPayload::CloseRing { .. } => "discover",
            },
        }
    }
}

/// Per-node VRR state: the shared control core plus what a VRR edge *is* —
/// hop-by-hop path state, named by its [`PathId`].
#[derive(Clone, Debug)]
pub struct VrrNode {
    id: NodeId,
    config: VrrConfig,
    /// Physical neighbors: address ↔ simulator index, learned from hellos.
    nbrs: Neighbors,
    /// The neighbours' own bound neighbours, as `(address, link to the
    /// neighbour that holds it)`, sorted: the link a path message may take
    /// toward an endpoint two hops away. Replaced per link by each hello
    /// and purged with the link.
    two_hop: Vec<(NodeId, usize)>,
    /// Links whose new neighbour's hello is yet to be answered
    /// ([`TOKEN_HELLO`]).
    replies: Vec<usize>,
    table: PathTable,
    /// Virtual neighbor sets, ring-closure edges, handshakes and timers;
    /// every edge carries the id of the path installed for it.
    lin: Linearizer<PathId>,
    /// Baseline: largest known address.
    rep: NodeId,
    /// Baseline: the representative we last claimed toward.
    claimed: Option<NodeId>,
    /// Baseline: paths established by claims (claimant → path).
    claim_paths: BTreeMap<NodeId, PathId>,
    /// Hop bound per held peer: the hops the last message from it took,
    /// plus the introducer's bound where it was introduced. Dropped with
    /// the peer ([`Self::drive`]).
    bounds: BTreeMap<NodeId, u16>,
    /// Held peer `x` → the node `k` that `x`'s own introduction named,
    /// between this node and `x`: `x` keeps `k`, so this node's own
    /// introduction of `k` to `x` would be its mirror, and is settled
    /// without a message. Dropped when `x` announces itself, with the
    /// peer, or when used.
    mirrors: BTreeMap<NodeId, NodeId>,
}

impl VrrNode {
    /// A node in linearized mode.
    pub fn new(id: NodeId) -> Self {
        Self::with_config(id, VrrConfig::default())
    }

    /// A node with explicit configuration.
    pub fn with_config(id: NodeId, config: VrrConfig) -> Self {
        assert!(
            id != CRUMB_CW && id != CRUMB_CCW,
            "the extreme addresses are reserved as breadcrumb placeholders"
        );
        VrrNode {
            id,
            config,
            nbrs: Neighbors::default(),
            two_hop: Vec::new(),
            replies: Vec::new(),
            table: PathTable::new(),
            // VRR probes both ways; its audit — each round a node
            // re-announces itself along its ring edges, so a peer that
            // silently dropped the edge (garbage collection, lost half-lay)
            // re-adopts it and edges stay *mutual* — never stops
            lin: Linearizer::new(id, true),
            rep: id,
            claimed: None,
            claim_paths: BTreeMap::new(),
            bounds: BTreeMap::new(),
            mirrors: BTreeMap::new(),
        }
    }

    /// This node's address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Test set-up: holds the physical neighbor `peer` on `link` as a
    /// side-set neighbor over the one-hop path. The peer's first hello
    /// binds it and, as for any new neighbor, queues an act and arms the
    /// audit.
    #[cfg(test)]
    pub(crate) fn inject_edge(&mut self, peer: NodeId, link: usize) {
        let pid = PathId::new(self.id, peer, 0);
        self.install_walk_hop(pid, self.id, None, Some(link));
        self.lin.adopt(peer, pid);
    }

    /// Test set-up: holds the physical neighbor `peer` on `link` as the
    /// ring-closure partner on `side` over the one-hop path. It is bound
    /// already, so its hello is no news and adopts nothing.
    #[cfg(test)]
    pub(crate) fn inject_wrap(&mut self, side: Side, peer: NodeId, link: usize) {
        self.nbrs.bind(peer, link);
        let pid = PathId::new(self.id, peer, 0);
        self.install_walk_hop(pid, self.id, None, Some(link));
        self.lin.set_wrap(side, peer, pid);
    }

    /// The path table (router state): every path traversing this node —
    /// held edges, retired ones nothing collected, and transient discovery
    /// breadcrumbs. Its `len()` is the state E10 and the benchmark count.
    pub fn table(&self) -> &PathTable {
        &self.table
    }

    /// The representative (baseline mode).
    pub fn rep(&self) -> NodeId {
        self.rep
    }

    // -- transport -------------------------------------------------------------

    /// The addresses a greedy walk may step to, with the link toward
    /// each: physical neighbours first, then real path endpoints.
    fn candidates(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        let real =
            |&(cand, _): &(NodeId, usize)| cand != self.id && cand != CRUMB_CW && cand != CRUMB_CCW;
        self.nbrs
            .iter()
            .chain(self.table.endpoints(self.id))
            .filter(real)
    }

    /// Best physical next hop toward `target` (clockwise-progress greedy
    /// over physical neighbors and real path endpoints) — VRR's one
    /// forwarding rule, which [`crate::VrrRoutingView`] replays too.
    pub(crate) fn greedy_next(&self, target: NodeId) -> Option<usize> {
        self.candidates()
            .filter(|&(cand, _)| ring_between_cw(self.id, cand, target))
            .min_by_key(|&(cand, _)| cw_dist(cand, target))
            .map(|(_, link)| link)
    }

    /// The next hop of a greedy walk: a ring-closure probe toward smaller
    /// addresses steps to the least address below this node (clockwise
    /// progress toward `NodeId::MIN` would climb to larger ones), every
    /// other walk by [`Self::greedy_next`].
    fn walk_next(&self, payload: &RoutedPayload) -> Option<usize> {
        match payload {
            RoutedPayload::Discover {
                toward: Side::Left, ..
            } => self
                .candidates()
                .filter(|&(cand, _)| cand < self.id)
                .min_by_key(|&(cand, _)| cand)
                .map(|(_, link)| link),
            RoutedPayload::Discover {
                toward: Side::Right,
                ..
            }
            | RoutedPayload::Claim { .. } => self.greedy_next(payload.target()),
        }
    }

    /// Relays a payload that came in over the link `came_from` on `id`
    /// toward its endpoint `toward`, over the hop [`Self::carry`] finds for
    /// it (a metric where there is none).
    fn send_along(
        &mut self,
        ctx: &mut Ctx<'_, VrrMsg>,
        id: PathId,
        toward: NodeId,
        payload: PathPayload,
        ttl: u16,
        came_from: usize,
    ) {
        match self.carry(id, toward, Some(came_from)) {
            Some(hop) => send_hop(ctx, hop, toward, payload, ttl, Some(came_from)),
            None => ctx.metrics().incr("fwd.no_path"),
        }
    }

    /// Originates `payload` along installed path state toward `toward`: one
    /// end-to-end message with a full hop budget, counted under `e2e.sent`
    /// and its class once it leaves. A relay forwards with
    /// [`Self::send_along`] and counts nothing.
    fn originate(
        &mut self,
        ctx: &mut Ctx<'_, VrrMsg>,
        id: PathId,
        toward: NodeId,
        payload: PathPayload,
    ) {
        match self.carry(id, toward, None) {
            Some(hop) => originate_over(ctx, hop, toward, payload),
            None => ctx.metrics().incr("fwd.no_path"),
        }
    }

    // -- virtual-neighbor management --------------------------------------------

    /// *Retires* the edge to `other` held over `path`: the peer is told to
    /// drop us from its sets, but the path state is left in place — eager
    /// teardown would cut carrier paths out from under in-flight half-lays
    /// (see `PathPayload::Retire`).
    fn retire(&mut self, ctx: &mut Ctx<'_, VrrMsg>, other: NodeId, path: PathId) {
        let payload = PathPayload::Retire { from: self.id };
        self.originate(ctx, path, other, payload);
    }

    // -- linearization -------------------------------------------------------------

    /// Feeds `input` to the control core and carries out what it asks for,
    /// in order, then settles the mirror introductions among it and drops
    /// what it keeps per peer for the peers it no longer holds.
    fn drive(&mut self, ctx: &mut Ctx<'_, VrrMsg>, input: Input) {
        let mut mirrored = Vec::new();
        for effect in self.lin.step(input, ctx.now().ticks()) {
            if let Effect::Introduce {
                keep, drop, seq, ..
            } = effect
            {
                // the mirror of `drop`'s own handshake: `drop` keeps
                // `keep`, and `keep` adopted this node from `drop`'s
                // introduction, so both halves stand acknowledged already
                if self.mirrors.get(&drop) == Some(&keep) {
                    self.mirrors.remove(&drop);
                    mirrored.push((keep, drop, seq));
                    continue;
                }
            }
            if let Effect::SetTimer {
                timer: Timer::Retry(_, seq),
                ..
            } = effect
            {
                // its handshake is settled below, so nothing is retried
                if mirrored.iter().any(|&(.., settled)| settled == seq) {
                    continue;
                }
            }
            self.apply(ctx, effect);
        }
        for (keep, drop, seq) in mirrored {
            self.drive(ctx, Input::Ack { about: drop, seq });
            self.drive(ctx, Input::Ack { about: keep, seq });
        }
        let lin = &self.lin;
        let held = |peer: NodeId| lin.edge(peer).is_some() || lin.wrap_edge(peer).is_some();
        self.bounds.retain(|&peer, _| held(peer));
        self.mirrors.retain(|&peer, _| held(peer));
    }

    /// The hop bound of `peer`'s path, 0 where none is known.
    fn bound(&self, peer: NodeId) -> u16 {
        self.bounds.get(&peer).copied().unwrap_or(0)
    }

    /// The earliest a retry on `side` can tell loss from latency: a round
    /// trip over the longer of the two paths of the handshake in flight
    /// (links take a tick a hop) plus the receiver's batching window, as
    /// `SsrNode` floors it. A peer with no known bound contributes nothing,
    /// so below 12 hops the control core's own schedule stands.
    fn retry_floor(&self, side: Side) -> u64 {
        let peers = self.lin.pending(side).into_iter().flatten();
        let longest = peers.map(|peer| self.bound(peer)).max().unwrap_or(0);
        2 * u64::from(longest) + ACT_INTERVAL
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, VrrMsg>, effect: Effect<PathId>) {
        match effect {
            Effect::SetTimer { delay, timer } => {
                let delay = match timer {
                    Timer::Retry(side, _) => delay.max(self.retry_floor(side)),
                    Timer::Act | Timer::Discover | Timer::Audit => delay,
                };
                ctx.set_timer(delay, timer.token());
            }
            // a VRR edge is laid by its two half-walks jointly, so a retry
            // relaunches the full introduction (fresh edge nonce) whichever
            // half went unacknowledged
            Effect::Introduce {
                keep, drop, seq, ..
            } => self.introduce_pair(ctx, keep, drop, seq),
            // the delegated peer learns of it from its own linearization,
            // as SSR's does
            Effect::Delegated { .. } => {}
            Effect::WrapDemoted { peer, edge } => self.retire(ctx, peer, edge),
            Effect::Abandon { peer } => {
                // some endpoint is unreachable over the state we hold for
                // it. Garbage-collect the silent endpoint — if it is alive
                // it will be re-introduced over fresh paths.
                if let Some(path) = self.lin.remove(peer) {
                    self.retire(ctx, peer, path);
                }
            }
            Effect::Probe { toward } => self.start_discover(ctx, toward),
            Effect::Announce { peer, edge, seq } => {
                let payload = PathPayload::Notify {
                    new_pid: edge,
                    other: self.id,
                    from: self.id,
                    seq,
                    hops: 0,
                };
                let prev = ctx.set_cause(CauseClass::Audit);
                self.originate(ctx, edge, peer, payload);
                ctx.set_cause(prev);
            }
        }
    }

    /// Lays the new virtual edge `x ↔ y` through this node: installs the
    /// junction entry and sends both half-laying notifications.
    fn introduce_pair(&mut self, ctx: &mut Ctx<'_, VrrMsg>, x: NodeId, y: NodeId, seq: SeqNo) {
        let (Some(px), Some(py)) = (self.path_to(x), self.path_to(y)) else {
            ctx.metrics().incr("fwd.no_path");
            return;
        };
        self.introduce_pair_via(ctx, x, px, y, py, seq);
    }

    /// Like [`Self::introduce_pair`], with explicit carrier paths (used by
    /// discovery arbitration, where one carrier is a breadcrumb trail).
    fn introduce_pair_via(
        &mut self,
        ctx: &mut Ctx<'_, VrrMsg>,
        x: NodeId,
        px: PathId,
        y: NodeId,
        py: PathId,
        seq: SeqNo,
    ) {
        if x == y || x == self.id || y == self.id {
            return;
        }
        let nonce = ctx.rng().next_u64();
        let new_pid = PathId::new(x, y, nonce);
        // junction entry at this node: toward x via px's first hop, toward
        // y via py's first hop, and each half leaves over that hop
        let (Some(hop_x), Some(hop_y)) = (self.carry(px, x, None), self.carry(py, y, None)) else {
            ctx.metrics().incr("fwd.no_path");
            return;
        };
        self.install_walk_hop(new_pid, x, Some(hop_x.link), Some(hop_y.link));
        originate_over(
            ctx,
            hop_x,
            x,
            PathPayload::Notify {
                new_pid,
                other: y,
                from: self.id,
                seq,
                hops: self.bound(y),
            },
        );
        originate_over(
            ctx,
            hop_y,
            y,
            PathPayload::Notify {
                new_pid,
                other: x,
                from: self.id,
                seq,
                hops: self.bound(x),
            },
        );
    }

    /// The path this node reaches `other` over: the edge it holds to it,
    /// else any path between the two in the table — a retired edge's state
    /// stays in place (`PathPayload::Retire`), so a handshake retry whose
    /// party was forgotten meanwhile still rides it.
    fn path_to(&self, other: NodeId) -> Option<PathId> {
        self.lin
            .edge(other)
            .or_else(|| self.claim_paths.get(&other).copied())
            .or_else(|| self.lin.wrap_edge(other))
            .or_else(|| self.table.carrier(self.id, other, other))
    }

    /// This node's own hello: its address, the representative and its
    /// bound physical neighbours.
    fn hello(&self) -> VrrMsg {
        VrrMsg::Hello {
            id: self.id,
            rep: self.rep,
            nbrs: self.nbrs.iter().map(|(id, _)| id).collect(),
        }
    }

    /// The hop back toward the endpoint `toward` that a walk laying `pid`
    /// keeps here, having come in over `came_from`: where it passed before,
    /// or the other half of a half-lay did, the hop the row already has
    /// ([`hop_on`]), else `came_from`. Keeping the first hop makes a
    /// walk's loop a spur of its path and lets a half-lay's second half
    /// join the first (the pinch merge) instead of closing a cycle.
    fn back_hop(&self, pid: PathId, toward: NodeId, came_from: usize) -> usize {
        let direct = self.nbrs.index_of(toward);
        self.table
            .get(&pid)
            .and_then(|entry| hop_on(entry, pid, toward, direct))
            .map_or(came_from, |(link, _)| link)
    }

    /// The hop a message on `id` toward its endpoint `toward` takes here,
    /// `came_from` being the link it came in on (`None` where it starts):
    /// over `id`'s own row ([`hop_on`]); else, where that row
    /// merged into its twin (`PathTable::settle`), over the hop the twin
    /// has — the stand-in whose hop back is `came_from`
    /// (`PathTable::stand_in`) — keeping its own id; else, where the row was
    /// lost, over the first row for the same endpoints with a hop toward
    /// `toward`, whose id the message then carries on. The loop guard: that
    /// last fallback never goes back over `came_from`, so two nodes whose
    /// rows for the pair point at each other cannot bounce it between them.
    /// Where no row leads on but `toward` is a bound physical neighbour, the
    /// message is handed straight to it under its own id; where a row leads
    /// on and `toward` is not a neighbour, [`Self::via_neighbour`] may hand
    /// it to one of `toward`'s. [`crate::VrrRoutingView::walk`] walks whole
    /// paths by this rule.
    pub(crate) fn carry(
        &self,
        id: PathId,
        toward: NodeId,
        came_from: Option<usize>,
    ) -> Option<Hop> {
        let direct = self.nbrs.index_of(toward);
        let over = |(&row, entry): (&PathId, &PathEntry), carrier: PathId| {
            hop_on(entry, row, toward, direct).map(|(link, via)| Hop {
                carrier,
                link,
                via,
                rerouted: row != id,
            })
        };
        let back = if toward == id.ea { id.eb } else { id.ea };
        let own = self.table.get(&id).map(|entry| (&id, entry));
        let hop = own
            .and_then(|row| over(row, id))
            .or_else(|| over(self.table.stand_in(id, back, came_from)?, id))
            .or_else(|| {
                self.table
                    .between(id.ea, id.eb)
                    .filter_map(|row| over(row, *row.0))
                    .find(|hop| Some(hop.link) != came_from)
            });
        match (hop, direct) {
            (Some(hop), None) => Some(self.via_neighbour(hop, toward, came_from)),
            (None, Some(link)) if Some(link) != came_from => Some(Hop {
                carrier: id,
                link,
                via: Via::Endpoint,
                rerouted: false,
            }),
            (hop, _) => hop,
        }
    }

    /// The hop a message toward `toward`, not a physical neighbour, takes
    /// in place of the row's `hop`: `hop` itself where its link leads to a
    /// neighbour of `toward` ([`Self::two_hop`]) or no link does; else the
    /// first link that does, `came_from` aside, and the neighbour there
    /// hands the message straight on to `toward`.
    fn via_neighbour(&self, hop: Hop, toward: NodeId, came_from: Option<usize>) -> Hop {
        let from = self.two_hop.partition_point(|&(far, _)| far < toward);
        let near = self.two_hop[from..]
            .iter()
            .take_while(|&&(far, _)| far == toward);
        let mut other = None;
        for &(_, link) in near {
            if link == hop.link {
                return hop;
            }
            if other.is_none() && Some(link) != came_from {
                other = Some(link);
            }
        }
        match other {
            Some(link) => Hop {
                link,
                via: Via::Neighbour,
                ..hop
            },
            None => hop,
        }
    }

    /// Learns the bound neighbours `far` of the neighbour on `link` from
    /// its hello, in place of what that link's hellos said before.
    fn learn_two_hop(&mut self, link: usize, far: &[NodeId]) {
        self.two_hop.retain(|&(_, over)| over != link);
        if far.is_empty() {
            return;
        }
        // both sorted: one merge (a sort per hello, stable or not, costs
        // the benchmark's VRR run about 2.5 % of its wall time)
        let me = self.id;
        let mut learned = far
            .iter()
            .filter(|&&id| id != me)
            .map(|&id| (id, link))
            .peekable();
        let mut merged = Vec::with_capacity(self.two_hop.len() + far.len());
        for &entry in &self.two_hop {
            while let Some(next) = learned.next_if(|&next| next < entry) {
                merged.push(next);
            }
            merged.push(entry);
        }
        merged.extend(learned);
        self.two_hop = merged;
    }

    // -- discovery ---------------------------------------------------------------------

    /// Breadcrumb path id for a discovery walk.
    fn crumb_pid(origin: NodeId, toward: Side, nonce: u64) -> PathId {
        match toward {
            Side::Right => PathId::new(origin, CRUMB_CW, nonce),
            Side::Left => PathId::new(CRUMB_CCW, origin, nonce),
        }
    }

    fn start_discover(&mut self, ctx: &mut Ctx<'_, VrrMsg>, toward: Side) {
        let nonce = ctx.rng().next_u64();
        let payload = RoutedPayload::Discover {
            origin: self.id,
            toward,
            nonce,
        };
        let Some(next) = self.walk_next(&payload) else {
            return; // we are the believed extreme ourselves: nothing to do
        };
        let pid = Self::crumb_pid(self.id, toward, nonce);
        self.install_walk_hop(pid, self.id, None, Some(next));
        ctx.send(next, VrrMsg::Routed { ttl: TTL, payload });
        count_sent(ctx, "e2e.discover");
    }

    /// Installs one hop of a walk that lays state: `from` leads back toward
    /// `origin`, `to` onward.
    fn install_walk_hop(
        &mut self,
        id: PathId,
        origin: NodeId,
        from: Option<usize>,
        to: Option<usize>,
    ) {
        let (toward_a, toward_b) = if origin == id.ea {
            (from, to)
        } else {
            (to, from)
        };
        self.table.install(
            id,
            PathEntry {
                ea: id.ea,
                eb: id.eb,
                toward_a,
                toward_b,
            },
        );
    }

    /// A discovery probe stalled here — this node is a believed extreme, and
    /// the origin claims the ring-closure slot on the side the probe was
    /// travelling toward.
    fn accept_discovery(
        &mut self,
        ctx: &mut Ctx<'_, VrrMsg>,
        origin: NodeId,
        toward: Side,
        nonce: u64,
        came_from: usize,
    ) {
        if origin == self.id {
            return;
        }
        let crumb = Self::crumb_pid(origin, toward, nonce);
        self.table.purge_like(crumb);
        self.install_walk_hop(crumb, origin, Some(came_from), None);
        let final_pid = PathId::new(self.id, origin, nonce);
        match self.lin.offer_wrap(toward, origin, final_pid) {
            WrapVerdict::Redirect { holder } => {
                // arbitrate: introduce the lesser claimant to the better one
                // — the breadcrumb trail is the carrier back to the origin,
                // and our vnbr path carries the other half. This is what
                // fills a mid-chain node's empty side (it probed believing
                // itself an extreme; the introduction hands it its true
                // neighbor side).
                if let Some(pcur) = self.path_to(holder) {
                    let seq = self.lin.next_seq();
                    self.introduce_pair_via(ctx, origin, crumb, holder, pcur, seq);
                }
                return;
            }
            // solidify our end: the crumb entry's origin-side hop becomes
            // the wrap edge's
            WrapVerdict::Installed => {
                self.install_walk_hop(final_pid, origin, Some(came_from), None);
            }
            WrapVerdict::Replaced { old, old_edge } => {
                self.install_walk_hop(final_pid, origin, Some(came_from), None);
                self.retire(ctx, old, old_edge);
            }
        }
        // retrace the breadcrumbs, rewriting them into the final edge: the
        // retrace passes every crumb, so it leaves over the link the probe
        // came in on, never handed straight to a bound origin
        let hop = Hop {
            carrier: crumb,
            link: came_from,
            via: Via::Row,
            rerouted: false,
        };
        let close = PathPayload::CloseRing {
            acceptor: self.id,
            final_pid,
            toward,
        };
        originate_over(ctx, hop, origin, close);
        self.table.remove(&crumb);
        self.drive(ctx, Input::Changed);
    }

    /// A closure retrace passes through: rewrites this hop's breadcrumb into
    /// the final edge and returns the next hop toward the origin `toward`.
    /// The origin re-probes while it waits, and a newer probe passing here
    /// purged this trail's crumb for its own: the retrace then follows the
    /// newer trail toward the same origin and leaves its crumb in place for
    /// its own retrace. A greedy walk may pass a node twice, so a trail
    /// can close a cycle; a retrace that comes back to a node where it
    /// already laid `final_pid` stops there and drops that entry, so what
    /// is later sent along the edge ends here instead of circling.
    fn rewrite_crumb(
        &mut self,
        crumb: PathId,
        toward: NodeId,
        final_pid: PathId,
        came_from: usize,
    ) -> Option<usize> {
        let entry = match self.table.remove(&crumb) {
            Some(entry) => entry,
            None if self.table.get(&final_pid).is_none() => {
                *self.table.between(crumb.ea, crumb.eb).next()?.1
            }
            None => {
                self.table.remove(&final_pid);
                return None;
            }
        };
        // same physical hops, new identity
        let toward_origin = entry_hop_toward(&entry, crumb, toward);
        self.install_walk_hop(final_pid, toward, toward_origin, Some(came_from));
        toward_origin
    }

    /// A closure retrace arrived back at this node, the probe's origin: the
    /// acceptor claims the slot the probe was sent to fill.
    fn handle_close_ring(
        &mut self,
        ctx: &mut Ctx<'_, VrrMsg>,
        crumb: PathId,
        acceptor: NodeId,
        final_pid: PathId,
        toward: Side,
        came_from: usize,
    ) {
        self.table.remove(&crumb);
        self.install_walk_hop(final_pid, self.id, None, Some(came_from));
        self.lin.probe_answered(toward);
        match self.lin.offer_wrap(toward.opposite(), acceptor, final_pid) {
            WrapVerdict::Installed => {}
            WrapVerdict::Replaced { old, old_edge } => self.retire(ctx, old, old_edge),
            WrapVerdict::Redirect { holder } => {
                // keep the better closure and introduce the redundant
                // acceptor to it (final_pid is a working carrier to the
                // acceptor)
                if let Some(pcur) = self.path_to(holder) {
                    let seq = self.lin.next_seq();
                    self.introduce_pair_via(ctx, acceptor, final_pid, holder, pcur, seq);
                }
            }
        }
        self.drive(ctx, Input::Changed);
    }

    /// The audit round's look at an *empty* side with a physical neighbor on
    /// it: `E_v ⊇ E_p` has lapsed (an abandoned handshake garbage-collected
    /// the last edge over that link). Re-adopt the line-nearest such
    /// neighbor over the hello path — its entry re-installed, so the edge
    /// never names a path this node holds no state for — and let the next
    /// act linearize it. The first branch of `SsrNode`'s audit-time repair.
    fn audit_empty_sides(&mut self, ctx: &mut Ctx<'_, VrrMsg>) {
        let mut readopted = false;
        for side in [Side::Left, Side::Right] {
            if !self.lin.side(side).is_empty() {
                continue;
            }
            if let Some((nbr, link)) = self.nbrs.nearest_on(self.id, side) {
                let pid = PathId::new(self.id, nbr, 0);
                self.install_walk_hop(pid, self.id, None, Some(link));
                readopted |= self.lin.adopt(nbr, pid);
            }
        }
        if readopted {
            self.drive(ctx, Input::Changed);
        }
    }

    // -- baseline mode ---------------------------------------------------------------

    fn baseline_learn_rep(&mut self, ctx: &mut Ctx<'_, VrrMsg>, rep: NodeId) {
        if rep > self.rep {
            self.rep = rep;
            if self.claimed != Some(rep) && rep != self.id {
                self.claimed = Some(rep);
                let nonce = ctx.rng().next_u64();
                let payload = RoutedPayload::Claim {
                    from: self.id,
                    to: rep,
                    nonce,
                };
                let Some(next) = self.greedy_next(rep) else {
                    return;
                };
                let pid = PathId::new(self.id, rep, nonce);
                self.install_walk_hop(pid, self.id, None, Some(next));
                ctx.send(next, VrrMsg::Routed { ttl: TTL, payload });
                count_sent(ctx, "e2e.succ");
            }
        }
    }

    /// Baseline claim toward `to` arrived, or stalled here short of it: the
    /// claim's walk installed the path `(claimant, to, nonce)` at every
    /// relay it passed, and that path is the carrier back to the claimant
    /// either way. Adopt the claimant if it is our best ring predecessor
    /// candidate, laying our own edge to it as a half-lay along the
    /// carrier; otherwise introduce it to the best node we know between it
    /// and us.
    fn handle_claim_arrival(
        &mut self,
        ctx: &mut Ctx<'_, VrrMsg>,
        claimant: NodeId,
        to: NodeId,
        nonce: u64,
        came_from: usize,
    ) {
        if claimant == self.id {
            return;
        }
        let carrier = PathId::new(claimant, to, nonce);
        // where the walk passed before, the hop back it laid first
        let back = self.back_hop(carrier, claimant, came_from);
        self.install_walk_hop(carrier, claimant, Some(back), None);
        self.claim_paths.insert(claimant, carrier);
        let best_between = self
            .left_set()
            .chain(self.right_set())
            .chain(self.claim_paths.keys().copied())
            .filter(|&d| d != claimant && d != self.id)
            .filter(|&d| ring_between_cw(claimant, d, self.id))
            .min_by_key(|&d| cw_dist(claimant, d));
        match best_between {
            Some(better) => {
                let seq = self.lin.next_seq();
                self.introduce_pair(ctx, claimant, better, seq);
            }
            None => {
                // direct ring-predecessor candidate: adopt mutually by
                // laying a notify back along the claim path
                let pid = PathId::new(claimant, self.id, nonce);
                if to != self.id {
                    // stalled short of `to`: our own edge is a half-lay
                    // along the carrier
                    self.install_walk_hop(pid, claimant, Some(back), None);
                }
                self.lin.adopt(claimant, pid);
                let seq = self.lin.next_seq();
                let payload = PathPayload::Notify {
                    new_pid: pid,
                    other: self.id,
                    from: self.id,
                    seq,
                    hops: 0,
                };
                self.originate(ctx, carrier, claimant, payload);
            }
        }
        self.drive(ctx, Input::Changed);
    }

    // -- hello --------------------------------------------------------------------

    fn handle_hello(
        &mut self,
        ctx: &mut Ctx<'_, VrrMsg>,
        from_idx: usize,
        id: NodeId,
        rep: NodeId,
        nbrs: &[NodeId],
    ) {
        let known = !self.nbrs.bind(id, from_idx);
        self.learn_two_hop(from_idx, nbrs);
        if !known {
            // E_v := E_p — a physical link is a trivially installed path
            let pid = PathId::new(self.id, id, 0);
            self.install_walk_hop(pid, self.id, None, Some(from_idx));
            self.lin.adopt(id, pid);
            self.bounds.insert(id, 1);
            // answered a tick later, listing every neighbour bound by then
            if self.replies.is_empty() {
                ctx.set_timer(1, TOKEN_HELLO);
            }
            if !self.replies.contains(&from_idx) {
                self.replies.push(from_idx);
            }
            self.drive(ctx, Input::Changed);
        }
        if self.config.mode == VrrMode::Baseline {
            self.baseline_learn_rep(ctx, rep);
            self.baseline_learn_rep(ctx, id);
        }
    }
}

/// Test set-up: lays `pid` over the simulator indices `walk`, first
/// endpoint to last: each node's entry leads to its two neighbours on the
/// walk (a node the walk passes twice keeps the second pass's hops).
#[cfg(test)]
pub(crate) fn lay_path(nodes: &mut [VrrNode], pid: PathId, walk: &[usize]) {
    let origin = nodes[walk[0]].id;
    for (i, &u) in walk.iter().enumerate() {
        let back = i.checked_sub(1).map(|j| walk[j]);
        nodes[u].install_walk_hop(pid, origin, back, walk.get(i + 1).copied());
    }
}

/// The physical next hop toward the endpoint `toward` of `pid` over its
/// row `entry`: `direct`, the link to `toward` where it is a bound
/// physical neighbour, else the path's own hop. [`Via::Endpoint`] where
/// the direct link is not the path's hop — the message is handed straight
/// to its endpoint, and a half-lay lays the new edge over that link.
fn hop_on(
    entry: &PathEntry,
    pid: PathId,
    toward: NodeId,
    direct: Option<usize>,
) -> Option<(usize, Via)> {
    let on_path = entry_hop_toward(entry, pid, toward);
    match direct {
        Some(link) if on_path != Some(link) => Some((link, Via::Endpoint)),
        Some(link) => Some((link, Via::Row)),
        None => on_path.map(|link| (link, Via::Row)),
    }
}

/// Whom a path message's link leads to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Via {
    /// The next node on the row's path.
    Row,
    /// Its destination endpoint, a bound physical neighbour off the path
    /// (`fwd.shortcut`).
    Endpoint,
    /// A physical neighbour of its destination endpoint, off the path
    /// (`fwd.two_hop`).
    Neighbour,
}

/// Where a path message leaves a node: the id it carries on from here,
/// the link, whom that link leads to, and whether it leaves over a row
/// other than its own (`fwd.rerouted`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Hop {
    pub(crate) carrier: PathId,
    pub(crate) link: usize,
    via: Via,
    rerouted: bool,
}

/// Sends `payload` toward `toward` over `hop` with `ttl` hops left before
/// this one, under the hop's carrier id; a relay passes the link it came
/// in on as `came_from`, and a hop back over it counts as `fwd.uturn`.
/// `ttl` is never 0: a relay drops a message whose budget ran out before
/// it looks for a hop.
fn send_hop(
    ctx: &mut Ctx<'_, VrrMsg>,
    hop: Hop,
    toward: NodeId,
    payload: PathPayload,
    ttl: u16,
    came_from: Option<usize>,
) {
    if came_from == Some(hop.link) {
        ctx.metrics().incr("fwd.uturn");
    }
    match hop.via {
        Via::Row => {}
        Via::Endpoint => ctx.metrics().incr("fwd.shortcut"),
        Via::Neighbour => ctx.metrics().incr("fwd.two_hop"),
    }
    if hop.rerouted {
        ctx.metrics().incr("fwd.rerouted");
    }
    ctx.send(
        hop.link,
        VrrMsg::AlongPath {
            id: hop.carrier,
            toward,
            ttl: ttl - 1,
            payload,
        },
    );
}

/// Originates `payload` toward `toward` over `hop` with a full hop budget,
/// counted under `e2e.sent` and its class.
fn originate_over(ctx: &mut Ctx<'_, VrrMsg>, hop: Hop, toward: NodeId, payload: PathPayload) {
    let key = payload.e2e_key();
    send_hop(ctx, hop, toward, payload, TTL, None);
    count_sent(ctx, key);
}

/// Counts one end-to-end message this node originated, under `e2e.sent` and
/// its class `key`.
fn count_sent(ctx: &mut Ctx<'_, VrrMsg>, key: &'static str) {
    ctx.metrics().incr("e2e.sent");
    ctx.metrics().incr(key);
}

/// The observer's view of the node — side sets, wraps, ring neighbors,
/// local consistency — is the control core's, read through
/// [`Linearized`]'s accessors.
impl Linearized for VrrNode {
    type Edge = PathId;

    fn linearizer(&self) -> &Linearizer<PathId> {
        &self.lin
    }
}

impl Protocol for VrrNode {
    type Msg = VrrMsg;

    fn on_init(&mut self, ctx: &mut Ctx<'_, VrrMsg>) {
        ctx.broadcast(self.hello());
        ctx.set_timer(ACT_INTERVAL, Timer::Act.token());
        if self.config.mode == VrrMode::Baseline {
            ctx.set_timer(BEACON_INTERVAL, TOKEN_BEACON);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, VrrMsg>, from: usize, msg: VrrMsg) {
        self.table.settle(ctx.now().ticks());
        match msg {
            VrrMsg::Hello { id, rep, nbrs } => self.handle_hello(ctx, from, id, rep, &nbrs),
            VrrMsg::Routed { ttl, payload } => {
                // the walk's next hop: none where it arrived, stalled or ran
                // out of hops, and there it ends
                let target = payload.target();
                let next = (ttl > 0 && target != self.id)
                    .then(|| self.walk_next(&payload))
                    .flatten();
                let Some(next) = next else {
                    match payload {
                        RoutedPayload::Discover {
                            origin,
                            toward,
                            nonce,
                        } => self.accept_discovery(ctx, origin, toward, nonce, from),
                        // arrived, or stalled: this node is the best
                        // reachable representative-ward point
                        RoutedPayload::Claim {
                            from: claimant,
                            to,
                            nonce,
                        } => self.handle_claim_arrival(ctx, claimant, to, nonce, from),
                    }
                    return;
                };
                match payload {
                    RoutedPayload::Discover {
                        origin,
                        toward,
                        nonce,
                    } => {
                        let pid = Self::crumb_pid(origin, toward, nonce);
                        // only the freshest probe's crumbs are kept: stale
                        // trails from abandoned walks would leak
                        self.table.purge_like(pid);
                        self.install_walk_hop(pid, origin, Some(from), Some(next));
                    }
                    // a walk back at a node it passed keeps the hop back it
                    // laid there first, so the loop it took becomes a spur
                    // of its path (as a half-lay's pinch merge)
                    RoutedPayload::Claim {
                        from: claimant,
                        to,
                        nonce,
                    } => {
                        let pid = PathId::new(claimant, to, nonce);
                        let back = self.back_hop(pid, claimant, from);
                        self.install_walk_hop(pid, claimant, Some(back), Some(next));
                    }
                }
                let ttl = ttl - 1;
                ctx.send(next, VrrMsg::Routed { ttl, payload });
            }
            VrrMsg::AlongPath {
                id,
                toward,
                ttl,
                payload,
            } => {
                if ttl == 0 {
                    ctx.metrics().incr("fwd.ttl_expired");
                    return;
                }
                let at_end = toward == self.id;
                match payload {
                    PathPayload::Notify {
                        new_pid,
                        other,
                        from: initiator,
                        seq,
                        hops,
                    } => {
                        // lay the half-path: `from` link leads back toward
                        // the initiator (and on to `other`) — unless the
                        // other half already passed here on its way out (our
                        // carrier path to the far end runs through us):
                        // merge as a relay does and keep its forward hop,
                        // or the two hops close a forwarding loop
                        //
                        // a notify that travels between the endpoints of
                        // the edge it names (an audit announcement) re-lays
                        // that edge's row only where it rides the row
                        // under the edge's own id: laying it over a
                        // stand-in's or another path's hops would splice two
                        // paths into one
                        let along_edge = (id.ea, id.eb) == (new_pid.ea, new_pid.eb);
                        if at_end {
                            // here: its row is in place, or nothing else
                            // leads back to the sender
                            let own_row = id == new_pid
                                && (self.table.get(&new_pid).is_some()
                                    || self.table.carrier(new_pid.ea, new_pid.eb, other).is_none());
                            if !along_edge || own_row {
                                let back = self.back_hop(new_pid, other, from);
                                self.install_walk_hop(new_pid, self.id, None, Some(back));
                            }
                            let known = !self.lin.adopt(other, new_pid);
                            self.bounds.insert(other, (TTL - ttl).saturating_add(hops));
                            // an introduction — naming a *third* node — is
                            // half of a handshake its sender waits on; an
                            // announcement names its sender, who acts on no
                            // answer, so it gets none
                            if other != initiator {
                                let ack = PathPayload::Ack { about: other, seq };
                                self.originate(ctx, id, initiator, ack);
                                if known {
                                    ctx.metrics().incr("rx.notify_known");
                                }
                                // the initiator keeps `other` and hands this
                                // node to it: introducing the two in turn
                                // would be the mirror of that handshake
                                let (lo, hi) = (self.id.min(initiator), self.id.max(initiator));
                                if lo < other && other < hi {
                                    self.mirrors.insert(initiator, other);
                                }
                            } else {
                                // one announcement per mutual edge per
                                // audit interval; the announcer holds this
                                // node, so no handshake of its delegates it
                                self.lin.announced_by(other);
                                self.mirrors.remove(&other);
                                if known {
                                    ctx.metrics().incr("rx.announce_known");
                                }
                            }
                            self.drive(ctx, Input::Changed);
                        } else {
                            // orientation: this hop leads toward `toward`
                            // (the target endpoint); the reverse side leads
                            // toward `other` through the initiator
                            let Some(hop) = self.carry(id, toward, Some(from)) else {
                                ctx.metrics().incr("fwd.no_path");
                                return;
                            };
                            if along_edge && (id != new_pid || hop.rerouted) {
                                send_hop(ctx, hop, toward, payload, ttl, Some(from));
                                return;
                            }
                            // pinch merge: if the other half of this new
                            // edge already laid state here (the two carrier
                            // paths share this node), keep its *forward*
                            // hop toward `other` — the merged entry
                            // shortcuts the detour through the initiator
                            // and prevents forwarding loops
                            let back = self.back_hop(new_pid, other, from);
                            self.install_walk_hop(new_pid, other, Some(back), Some(hop.link));
                            send_hop(ctx, hop, toward, payload, ttl, Some(from));
                        }
                    }
                    PathPayload::Ack { about, seq } => {
                        if at_end {
                            // the acknowledging end of the carrier
                            let peer = if id.ea == self.id { id.eb } else { id.ea };
                            self.bounds.insert(peer, TTL - ttl);
                            self.drive(ctx, Input::Ack { about, seq });
                        } else {
                            let ack = PathPayload::Ack { about, seq };
                            self.send_along(ctx, id, toward, ack, ttl, from);
                        }
                    }
                    PathPayload::Retire { from: retiree } => {
                        if at_end {
                            self.lin.forget(retiree);
                            self.drive(ctx, Input::Changed);
                        } else {
                            let retire = PathPayload::Retire { from: retiree };
                            self.send_along(ctx, id, toward, retire, ttl, from);
                        }
                    }
                    PathPayload::CloseRing {
                        acceptor,
                        final_pid,
                        toward: dir,
                    } => {
                        if at_end {
                            self.handle_close_ring(ctx, id, acceptor, final_pid, dir, from);
                        } else if let Some(next) = self.rewrite_crumb(id, toward, final_pid, from) {
                            if next == from {
                                ctx.metrics().incr("fwd.uturn");
                            }
                            // keep forwarding under the *crumb* id —
                            // downstream nodes have not been rewritten yet
                            ctx.send(
                                next,
                                VrrMsg::AlongPath {
                                    id,
                                    toward,
                                    ttl: ttl - 1,
                                    payload,
                                },
                            );
                        } else {
                            ctx.metrics().incr("fwd.no_path");
                        }
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, VrrMsg>, token: u64) {
        self.table.settle(ctx.now().ticks());
        if token == TOKEN_BEACON {
            if self.config.mode == VrrMode::Baseline {
                ctx.broadcast(self.hello());
                ctx.set_timer(BEACON_INTERVAL, TOKEN_BEACON);
            }
        } else if token == TOKEN_HELLO {
            for link in std::mem::take(&mut self.replies) {
                ctx.send(link, self.hello());
            }
        } else if let Some(timer) = Timer::from_token(token) {
            if timer == Timer::Audit {
                self.audit_empty_sides(ctx);
            }
            // without a physical neighbor a probe has nowhere to go
            let routable = !self.nbrs.is_empty();
            // what a retry round sends is a re-sent introduction
            let sent = matches!(timer, Timer::Retry(..)).then(|| ctx.metrics().counter("e2e.sent"));
            self.drive(ctx, Input::Timer { timer, routable });
            if let Some(before) = sent {
                let resent = ctx.metrics().counter("e2e.sent") - before;
                ctx.metrics().add("e2e.retry", resent);
            }
        }
    }

    fn on_neighbor_down(&mut self, ctx: &mut Ctx<'_, VrrMsg>, neighbor: usize) {
        self.table.settle(ctx.now().ticks());
        // path state is keyed by link, not by peer: it is purged even when
        // no identified peer was bound to the link (its hello was lost, or
        // its address moved to another link), or a later send along it
        // would leave over a link that is down
        self.nbrs.unbind_index(neighbor);
        self.two_hop.retain(|&(_, link)| link != neighbor);
        self.replies.retain(|&link| link != neighbor);
        // the neighbours still bound learn that the far end is no longer
        // behind this node, or they would go on handing it messages for
        // that end (`Self::via_neighbour`) that it cannot carry
        let hello = self.hello();
        for (_, link) in self.nbrs.iter() {
            ctx.send(link, hello.clone());
        }
        // edges whose path state crossed the dead link are gone, unless
        // another row for the same endpoints still carries them
        self.table.purge_via(neighbor);
        let table = &self.table;
        self.lin
            .retain(|peer, path| table.carrier(path.ea, path.eb, peer).is_some());
        self.claim_paths
            .retain(|&claimant, path| table.carrier(path.ea, path.eb, claimant).is_some());
        self.drive(ctx, Input::Changed);
    }

    fn on_neighbor_up(&mut self, ctx: &mut Ctx<'_, VrrMsg>, neighbor: usize) {
        ctx.send(neighbor, self.hello());
    }

    fn reset(&mut self) {
        *self = VrrNode::with_config(self.id, self.config);
    }

    fn kind(msg: &VrrMsg) -> &'static str {
        msg.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::SETTLE;

    impl VrrNode {
        /// The link a message on `pid` toward its endpoint `toward` leaves
        /// over here, where this node holds `pid`'s own row.
        fn first_hop(&self, pid: PathId, toward: NodeId) -> Option<usize> {
            hop_on(
                self.table.get(&pid)?,
                pid,
                toward,
                self.nbrs.index_of(toward),
            )
            .map(|(link, _)| link)
        }
    }

    #[test]
    fn fresh_node_state() {
        let n = VrrNode::new(NodeId(5));
        assert_eq!(n.id(), NodeId(5));
        assert_eq!(n.side_sizes(), (0, 0));
        assert!(n.locally_consistent());
        assert!(n.table().is_empty());
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn extreme_addresses_rejected() {
        VrrNode::new(NodeId::MAX);
    }

    #[test]
    fn payload_targets() {
        assert_eq!(
            RoutedPayload::Discover {
                origin: NodeId(4),
                toward: Side::Right,
                nonce: 0
            }
            .target(),
            NodeId::MAX
        );
        assert_eq!(
            RoutedPayload::Discover {
                origin: NodeId(4),
                toward: Side::Left,
                nonce: 0
            }
            .target(),
            NodeId::MIN
        );
        assert_eq!(
            RoutedPayload::Claim {
                from: NodeId(1),
                to: NodeId(9),
                nonce: 0
            }
            .target(),
            NodeId(9)
        );
    }

    #[test]
    fn message_kinds() {
        assert_eq!(
            VrrMsg::Hello {
                id: NodeId(0),
                rep: NodeId(0),
                nbrs: Vec::new(),
            }
            .kind(),
            "hello"
        );
        let pid = PathId::new(NodeId(1), NodeId(2), 0);
        assert_eq!(
            VrrMsg::AlongPath {
                id: pid,
                toward: NodeId(1),
                ttl: 8,
                payload: PathPayload::Retire { from: NodeId(2) }
            }
            .kind(),
            "teardown"
        );
        assert_eq!(
            VrrMsg::Routed {
                ttl: 1,
                payload: RoutedPayload::Claim {
                    from: NodeId(1),
                    to: NodeId(2),
                    nonce: 0
                }
            }
            .kind(),
            "succ"
        );
    }

    #[test]
    fn crumb_pids_use_placeholders() {
        let cw = VrrNode::crumb_pid(NodeId(9), Side::Right, 7);
        assert_eq!(cw.eb, NodeId::MAX);
        let ccw = VrrNode::crumb_pid(NodeId(9), Side::Left, 7);
        assert_eq!(ccw.ea, NodeId::MIN);
    }

    #[test]
    fn reset_keeps_identity() {
        let mut n = VrrNode::new(NodeId(5));
        n.lin
            .set_wrap(Side::Right, NodeId(1), PathId::new(NodeId(5), NodeId(1), 0));
        n.reset();
        assert_eq!(n.id(), NodeId(5));
        assert!(n.wrap_succ().is_none());
    }

    /// The node under test (simulator index 2, links 0 and 1) next to peers
    /// that claim whatever address the script says — the only way a hello
    /// can arrive carrying an address other than its sender's own.
    enum Rig {
        Node(Box<VrrNode>),
        /// Broadcasts a hello claiming `.1` at tick `.0`, entry by entry.
        Forger(Vec<(u64, NodeId)>),
    }

    impl Protocol for Rig {
        type Msg = VrrMsg;

        fn on_init(&mut self, ctx: &mut Ctx<'_, VrrMsg>) {
            match self {
                Rig::Node(p) => p.on_init(ctx),
                Rig::Forger(script) => {
                    for (token, &(at, _)) in script.iter().enumerate() {
                        ctx.set_timer(at, token as u64);
                    }
                }
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, VrrMsg>, from: usize, msg: VrrMsg) {
            if let Rig::Node(p) = self {
                p.on_message(ctx, from, msg);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, VrrMsg>, token: u64) {
            match self {
                Rig::Node(p) => p.on_timer(ctx, token),
                Rig::Forger(script) => {
                    let id = script[token as usize].1;
                    ctx.broadcast(VrrMsg::Hello {
                        id,
                        rep: id,
                        nbrs: Vec::new(),
                    });
                }
            }
        }

        fn on_neighbor_up(&mut self, ctx: &mut Ctx<'_, VrrMsg>, neighbor: usize) {
            if let Rig::Node(p) = self {
                p.on_neighbor_up(ctx, neighbor);
            }
        }

        fn on_neighbor_down(&mut self, ctx: &mut Ctx<'_, VrrMsg>, neighbor: usize) {
            if let Rig::Node(p) = self {
                p.on_neighbor_down(ctx, neighbor);
            }
        }

        fn reset(&mut self) {}

        fn kind(msg: &VrrMsg) -> &'static str {
            msg.kind()
        }
    }

    #[test]
    fn hello_rebinds_keep_address_and_link_a_bijection() {
        use ssr_graph::Graph;
        use ssr_sim::faults::Fault;
        use ssr_sim::{LinkConfig, Simulator, Time};

        // 50 routes clockwise toward 70 over 70 itself, never over 80
        let (me, a, b) = (NodeId(50), NodeId(70), NodeId(80));
        let run = |script0: Vec<(u64, NodeId)>, script1: Vec<(u64, NodeId)>| {
            let topo = Graph::from_edges(3, [(2, 0), (2, 1)]);
            let protocols = vec![
                Rig::Forger(script0),
                Rig::Forger(script1),
                Rig::Node(Box::new(VrrNode::new(me))),
            ];
            let mut sim = Simulator::new(topo, protocols, LinkConfig::ideal(), 1);
            sim.schedule_fault(Time(30), Fault::LinkDown { a: 2, b: 0 });
            sim
        };
        // what the neighbour table alone offers: path state keeps its own
        // (link-indexed) memory of a peer, so it is set aside
        let offered = |sim: &Simulator<Rig>, target: NodeId| match sim.protocol(2) {
            Rig::Node(p) => {
                let mut p = p.clone();
                p.table = PathTable::new();
                p.greedy_next(target)
            }
            Rig::Forger(_) => unreachable!("index 2 is the node under test"),
        };

        // one link, two addresses in turn: the old address has no link left
        let mut sim = run(vec![(10, a), (20, b)], vec![]);
        sim.run_until(Time(15));
        assert_eq!(offered(&sim, a), Some(0));
        sim.run_until(Time(25));
        assert_eq!((offered(&sim, a), offered(&sim, b)), (None, Some(0)));

        // one address, two links in turn: losing the old link leaves the
        // live binding alone
        let mut sim = run(vec![(10, a)], vec![(20, a)]);
        sim.run_until(Time(25));
        assert_eq!(offered(&sim, a), Some(1));
        sim.run_until(Time(35));
        assert_eq!(offered(&sim, a), Some(1));
    }

    /// VRR's twin of SSR's `a_silent_handshake_is_abandoned_on_the_route_aware_schedule`:
    /// node 50 between forgers 60 and 70 that say hello and nothing else,
    /// so its handshake `keep` 60 / `drop` 70 is never acknowledged. The
    /// control core abandons it on the same 24 + 48 + 96 + 192 + 384 = 744
    /// tick schedule SSR runs on (its routes are one hop). The abandon
    /// garbage-collects both silent endpoints although they are live,
    /// identified physical neighbours; the next audit round finds the right
    /// side empty and re-adopts the line-nearest of them, 60, over the hello
    /// path (`E_v ⊇ E_p`, as SSR's audit restores it).
    #[test]
    fn a_silent_handshake_is_abandoned_and_the_nearest_neighbour_readopted() {
        use ssr_graph::Graph;
        use ssr_linearize::control::AUDIT_INTERVAL;
        use ssr_sim::{LinkConfig, Simulator, Time};

        let topo = Graph::from_edges(3, [(2, 0), (2, 1)]);
        let protocols = vec![
            Rig::Forger(vec![(1, NodeId(60))]),
            Rig::Forger(vec![(1, NodeId(70))]),
            Rig::Node(Box::new(VrrNode::new(NodeId(50)))),
        ];
        let mut sim = Simulator::new(topo, protocols, LinkConfig::ideal(), 1);
        let under_test = |sim: &Simulator<Rig>| match sim.protocol(2) {
            Rig::Node(p) => p.clone(),
            Rig::Forger(_) => unreachable!("index 2 is the node under test"),
        };
        let mut tick = 0;
        let mut run_while = |in_flight: bool| loop {
            sim.run_until(Time(tick));
            if under_test(&sim).lin.pending(Side::Right).is_some() != in_flight {
                return tick;
            }
            tick += 1;
        };
        let (started, abandoned) = (run_while(false), run_while(true));
        assert_eq!((started, abandoned), (4, 748));
        assert_eq!(under_test(&sim).right_set().count(), 0);
        sim.run_until(Time(abandoned + AUDIT_INTERVAL));
        let node = under_test(&sim);
        assert!(node.nbrs.contains(NodeId(60)) && node.nbrs.contains(NodeId(70)));
        assert_eq!(node.right_set().collect::<Vec<_>>(), [NodeId(60)]);
        assert_eq!(
            node.lin.edge(NodeId(60)),
            Some(PathId::new(NodeId(50), NodeId(60), 0))
        );
    }

    /// The announcement rule of SSR's `a_non_mutual_edge_is_re_announced_…`
    /// and `a_wiped_node_heals_…` for VRR, on the physical line 10–…–50
    /// closed into a ring, at rest: two audit periods cost two
    /// announcements per line edge — eight, not sixteen — and not one
    /// answer (ends whose rounds fall on the same tick both announce in one
    /// period and both skip in the next), and a member whose state was
    /// wiped is back in the ring within two periods, re-adopted from its
    /// neighbours' announcements.
    #[test]
    fn an_announcement_is_not_answered_and_still_restores_a_wiped_edge() {
        use crate::bootstrap::vrr_ring_consistent;
        use ssr_graph::Graph;
        use ssr_linearize::control::AUDIT_INTERVAL;
        use ssr_sim::{LinkConfig, Protocol, Simulator, Time};

        let topo = Graph::from_edges(5, (1..5).map(|u| (u - 1, u)));
        let nodes = (1..=5).map(|i| VrrNode::new(NodeId(10 * i))).collect();
        let mut sim = Simulator::new(topo, nodes, LinkConfig::ideal(), 1);
        sim.run_until_stable(8, 5_000, |nodes, _| vrr_ring_consistent(nodes));
        assert!(vrr_ring_consistent(sim.protocols()));
        let rest = sim.now().ticks() + 4 * AUDIT_INTERVAL;
        sim.run_until(Time(rest));
        let count = |sim: &Simulator<VrrNode>, key| sim.metrics().counter(key);
        let before = ["e2e.announce", "msg.notify", "msg.ack"].map(|k| count(&sim, k));
        sim.run_until(Time(rest + 2 * AUDIT_INTERVAL));
        let after = ["e2e.announce", "msg.notify", "msg.ack"].map(|k| count(&sim, k));
        // each of the four one-hop line edges announced once a period
        let periods = [0, 1, 2].map(|i| after[i] - before[i]);
        assert_eq!(periods, [8, 8, 0]);

        sim.protocol_mut(2).reset();
        assert!(!vrr_ring_consistent(sim.protocols()));
        sim.run_until(Time(rest + 4 * AUDIT_INTERVAL));
        assert!(vrr_ring_consistent(sim.protocols()));
        assert_eq!(count(&sim, "msg.ack"), after[2]);
    }

    /// The forwarding loop of DESIGN finding 7, by injection. 10 holds 20
    /// over a detour through 50 and 30 over a path through 20, so its
    /// introduction `keep` 20 / `drop` 30 sends the half toward 30 past 20
    /// a tick before the half toward 20 arrives there. The endpoint 20 must
    /// keep the forward hop the passing half laid: pointing the new edge
    /// back toward 10 instead sends what 20 addresses to 30 around the
    /// cycle 20 → 50 → 10 → 20.
    #[test]
    fn a_half_lay_endpoint_keeps_the_other_halfs_forward_hop() {
        use ssr_graph::Graph;
        use ssr_sim::{LinkConfig, Simulator, Time};

        let (u, a, keep, drop) = (0, 1, 2, 3);
        let ids = [10, 50, 20, 30].map(NodeId);
        let topo = Graph::from_edges(4, [(u, a), (a, keep), (u, keep), (keep, drop)]);
        let mut nodes: Vec<VrrNode> = ids.iter().map(|&id| VrrNode::new(id)).collect();
        for (x, y) in topo.edges() {
            nodes[x].nbrs.bind(ids[y], y);
            nodes[y].nbrs.bind(ids[x], x);
        }
        let to_keep = PathId::new(ids[u], ids[keep], 1);
        let to_drop = PathId::new(ids[u], ids[drop], 2);
        let hello = PathId::new(ids[keep], ids[drop], 0);
        lay_path(&mut nodes, to_keep, &[u, a, keep]);
        lay_path(&mut nodes, to_drop, &[u, keep, drop]);
        lay_path(&mut nodes, hello, &[keep, drop]);
        nodes[u].lin.adopt(ids[keep], to_keep);
        nodes[u].lin.adopt(ids[drop], to_drop);
        nodes[keep].lin.adopt(ids[u], to_keep);
        nodes[keep].lin.adopt(ids[drop], hello);
        nodes[drop].lin.adopt(ids[keep], hello);

        let mut sim = Simulator::new(topo, nodes, LinkConfig::ideal(), 1);
        sim.run_until(Time(20));
        let node = sim.protocol(keep);
        let laid = node.lin.edge(ids[drop]).expect("20 holds 30");
        assert_ne!(laid, hello, "the introduction laid no new edge");
        assert_eq!(node.first_hop(laid, ids[drop]), Some(drop));
        // the audit rounds announce along the new edge
        sim.run_until(Time(2_000));
        assert_eq!(sim.metrics().counter("fwd.ttl_expired"), 0);
    }

    /// A partition over lossy links takes down links whose peer never
    /// identified itself (its hello was lost). The path state over such a
    /// link must go with it: the next audit announcement along it would
    /// otherwise leave over a link that is down ("node 22 tried to send to
    /// non-neighbor 18" before the fix).
    #[test]
    fn a_link_down_purges_its_path_state_even_with_no_peer_bound() {
        use ssr_graph::{generators, Labeling};
        use ssr_sim::faults::{partition_groups, Fault};
        use ssr_sim::{LinkConfig, Simulator, Time};
        use ssr_types::Rng;

        let n = 36;
        let mut rng = Rng::new(3);
        let (topo, _) = generators::unit_disk_connected(n, 1.4, &mut rng);
        let labels = Labeling::random(n, &mut rng);
        let nodes = labels.ids().iter().map(|&id| VrrNode::new(id)).collect();
        let mut sim = Simulator::new(topo, nodes, LinkConfig::lossy(0.05), 3);
        let groups = partition_groups(n, 2, &mut Rng::new(3 ^ 0xC0FFEE));
        sim.schedule_fault(Time(50), Fault::Partition { groups });
        sim.schedule_fault(Time(450), Fault::Heal);
        for t in (100..=3_000).step_by(100) {
            sim.run_until(Time(t));
            for (u, node) in sim.protocols().iter().enumerate() {
                for (id, entry) in node.table().iter() {
                    for hop in [entry.toward_a, entry.toward_b].into_iter().flatten() {
                        assert!(
                            sim.topology().has_edge(u, hop),
                            "tick {t}: node {u} holds {id:?} over dead link to {hop}"
                        );
                    }
                }
            }
        }
    }

    /// Runs one callback of `node` as a step at tick `now` over `links`,
    /// and returns what it queued.
    fn step(
        node: &mut VrrNode,
        now: u64,
        links: &[usize],
        f: impl FnOnce(&mut VrrNode, &mut Ctx<'_, VrrMsg>),
    ) -> Vec<ssr_sim::Action<VrrMsg>> {
        let (mut out, mut metrics) = (Vec::new(), ssr_sim::Metrics::new());
        let mut rng = ssr_types::Rng::new(7);
        let now = ssr_sim::Time::ZERO + now;
        let cause = CauseClass::Bootstrap;
        f(
            node,
            &mut Ctx::new(0, now, links, &mut out, &mut rng, &mut metrics, cause),
        );
        out
    }

    /// A hello from `id` listing the bound neighbours `nbrs`.
    fn hello_from(id: u64, nbrs: &[u64]) -> VrrMsg {
        VrrMsg::Hello {
            id: NodeId(id),
            rep: NodeId(id),
            nbrs: nbrs.iter().copied().map(NodeId).collect(),
        }
    }

    /// `VrrNode` outside the simulator: `on_init`, then a `Hello` from link
    /// 1, as two steps. `on_init` arms the first act itself, behind the
    /// control core's back, so the new neighbour's `Input::Changed` arms a
    /// second one: by tick 1 the outbox holds two `Timer::Act`s and the node
    /// runs its first act twice, as `SsrNode` does (ROADMAP item 11(c)).
    /// The answer to the hello is not sent in that step: its timer is armed
    /// first.
    #[test]
    fn a_node_steps_outside_the_simulator_and_arms_its_first_act_twice() {
        use ssr_linearize::control::AUDIT_INTERVAL;
        use ssr_sim::Action;
        let hello = |to| Action::Send {
            to,
            msg: hello_from(50, &[]),
            cause: CauseClass::Bootstrap,
        };
        let timer = |delay, token| Action::Timer {
            delay,
            token,
            cause: CauseClass::Bootstrap,
        };
        let act = || timer(ACT_INTERVAL, Timer::Act.token());
        let mut node = VrrNode::new(NodeId(50));
        let mut out = step(&mut node, 0, &[1, 2], |p, ctx| p.on_init(ctx));
        assert_eq!(out, [hello(1), hello(2), act()]);

        let second = step(&mut node, 1, &[1, 2], |p, ctx| {
            p.on_message(ctx, 1, hello_from(30, &[]))
        });
        assert_eq!(node.left_set().collect::<Vec<_>>(), [NodeId(30)]);
        assert_eq!(
            second,
            [
                timer(1, TOKEN_HELLO),
                act(),
                timer(AUDIT_INTERVAL, Timer::Audit.token())
            ]
        );
        out.extend(second);
        assert_eq!(out.iter().filter(|&a| *a == act()).count(), 2);
    }

    /// The answer to a new neighbour's hello leaves a tick later and lists
    /// every neighbour bound by then: 30's and 70's first hellos reach 50
    /// on one tick and arm one answer timer, and when it fires 50 answers
    /// both over their links, listing both.
    #[test]
    fn a_hello_is_answered_a_tick_later_with_every_neighbour_bound_by_then() {
        use ssr_sim::Action;
        let mut node = VrrNode::new(NodeId(50));
        let links = [1, 2];
        let mut out = Vec::new();
        for (id, link) in [(30, 1), (70, 2)] {
            out.extend(step(&mut node, 1, &links, |p, ctx| {
                p.on_message(ctx, link, hello_from(id, &[]))
            }));
        }
        let answers = |out: &[Action<VrrMsg>]| {
            out.iter()
                .filter_map(|a| match a {
                    Action::Send { to, msg, .. } => Some((*to, msg.clone())),
                    Action::Timer { .. } => None,
                })
                .collect::<Vec<_>>()
        };
        let armed = |out: &[Action<VrrMsg>]| {
            out.iter()
                .filter(|a| {
                    matches!(
                        a,
                        Action::Timer {
                            token: TOKEN_HELLO,
                            delay: 1,
                            ..
                        }
                    )
                })
                .count()
        };
        assert!(answers(&out).is_empty());
        assert_eq!(armed(&out), 1);
        let out = step(&mut node, 2, &links, |p, ctx| p.on_timer(ctx, TOKEN_HELLO));
        let listed = hello_from(50, &[30, 70]);
        assert_eq!(answers(&out), [(1, listed.clone()), (2, listed)]);
        assert_eq!(armed(&out), 0);
    }

    /// Node 50 with one physical neighbour per link `1..`, in the order of
    /// `ids`, each adopted over its one-hop path from its hello.
    fn stepped_node(ids: &[u64]) -> (VrrNode, Vec<usize>) {
        let mut node = VrrNode::new(NodeId(50));
        let links: Vec<usize> = (1..=ids.len()).collect();
        for (&id, &link) in ids.iter().zip(&links) {
            step(&mut node, 1, &links, |p, ctx| {
                p.on_message(ctx, link, hello_from(id, &[]))
            });
        }
        (node, links)
    }

    /// `peer`'s audit announcement to node 50 over their one-hop path,
    /// arriving on `link`.
    fn announcement(
        node: &mut VrrNode,
        links: &[usize],
        peer: u64,
        link: usize,
    ) -> Vec<ssr_sim::Action<VrrMsg>> {
        let pid = PathId::new(NodeId(50), NodeId(peer), 0);
        let msg = VrrMsg::AlongPath {
            id: pid,
            toward: NodeId(50),
            ttl: TTL - 1,
            payload: PathPayload::Notify {
                new_pid: pid,
                other: NodeId(peer),
                from: NodeId(peer),
                seq: SeqNo(1),
                hops: 0,
            },
        };
        step(node, 2, links, |p, ctx| p.on_message(ctx, link, msg))
    }

    /// The links an audit round at node 50 announces over.
    fn audit_links(node: &mut VrrNode, links: &[usize]) -> Vec<usize> {
        let token = Timer::Audit.token();
        let out = step(node, 48, links, |p, ctx| p.on_timer(ctx, token));
        out.iter()
            .filter_map(|a| match a {
                ssr_sim::Action::Send { to, msg, cause } => {
                    assert_eq!(*cause, CauseClass::Audit);
                    assert!(matches!(
                        msg,
                        VrrMsg::AlongPath {
                            payload: PathPayload::Notify { other, from, .. },
                            ..
                        } if *other == NodeId(50) && *from == NodeId(50)
                    ));
                    Some(*to)
                }
                ssr_sim::Action::Timer { .. } => None,
            })
            .collect()
    }

    /// A retrace at relay 50 whose crumb a newer probe from the same origin
    /// 10 replaced: it follows the newer trail's hop toward 10 (link 1),
    /// lays the wrap edge over that hop and the one it came in on (link 2),
    /// and leaves the newer crumb for that probe's own retrace. Should the
    /// trail lead it back here, it has gone round a cycle: it stops and
    /// drops the wrap edge's entry, so nothing sent along the edge circles.
    #[test]
    fn a_retrace_whose_crumb_was_replaced_follows_the_newer_trail() {
        let (origin, acceptor) = (NodeId(10), NodeId(90));
        let mut node = VrrNode::new(NodeId(50));
        let old = VrrNode::crumb_pid(origin, Side::Right, 1);
        let newer = VrrNode::crumb_pid(origin, Side::Right, 2);
        node.install_walk_hop(newer, origin, Some(1), Some(3));
        let newer_entry = *node.table().get(&newer).unwrap();
        let final_pid = PathId::new(acceptor, origin, 1);
        let close = |ttl| VrrMsg::AlongPath {
            id: old,
            toward: origin,
            ttl,
            payload: PathPayload::CloseRing {
                acceptor,
                final_pid,
                toward: Side::Right,
            },
        };
        let out = step(&mut node, 60, &[1, 2, 3], |p, ctx| {
            p.on_message(ctx, 2, close(TTL - 1))
        });
        let forwarded = ssr_sim::Action::Send {
            to: 1,
            msg: close(TTL - 2),
            cause: CauseClass::Bootstrap,
        };
        assert_eq!(out, [forwarded]);
        assert_eq!(node.first_hop(final_pid, origin), Some(1));
        assert_eq!(node.first_hop(final_pid, acceptor), Some(2));
        assert_eq!(node.table().get(&newer), Some(&newer_entry));
        assert_eq!(node.table().get(&old), None);

        let again = step(&mut node, 70, &[1, 2, 3], |p, ctx| {
            p.on_message(ctx, 1, close(TTL - 9))
        });
        assert!(again.is_empty());
        assert_eq!(node.table().get(&final_pid), None);
        assert_eq!(node.table().get(&newer), Some(&newer_entry));
    }

    /// The path-following messages `out` sends, as `(link, id, payload)`.
    fn along(out: &[ssr_sim::Action<VrrMsg>]) -> Vec<(usize, PathId, PathPayload)> {
        out.iter()
            .filter_map(|a| match a {
                ssr_sim::Action::Send {
                    to,
                    msg: VrrMsg::AlongPath { id, payload, .. },
                    ..
                } => Some((*to, *id, payload.clone())),
                ssr_sim::Action::Send { .. } | ssr_sim::Action::Timer { .. } => None,
            })
            .collect()
    }

    /// The links `out` sends greedy walks over.
    fn routed(out: &[ssr_sim::Action<VrrMsg>]) -> Vec<usize> {
        out.iter()
            .filter_map(|a| match a {
                ssr_sim::Action::Send {
                    to,
                    msg: VrrMsg::Routed { .. },
                    ..
                } => Some(*to),
                ssr_sim::Action::Send { .. } | ssr_sim::Action::Timer { .. } => None,
            })
            .collect()
    }

    /// Relay 50 holds the carrier 10 – 70 with its hop toward 70 on link 3,
    /// a detour: 70 itself is a bound neighbour on link 1. 10's
    /// introduction of 30 to 70 is handed straight to 70 over link 1, and
    /// the half it lays here leads to 70 over that link and back toward 30
    /// over the link it came in on.
    #[test]
    fn a_relay_hands_a_notify_to_a_bound_endpoint_and_lays_the_edge_over_that_link() {
        let (mut node, _) = stepped_node(&[70]);
        let links = [1, 2, 3];
        let carrier = PathId::new(NodeId(10), NodeId(70), 5);
        node.install_walk_hop(carrier, NodeId(10), Some(2), Some(3));
        let new_pid = PathId::new(NodeId(30), NodeId(70), 9);
        let notify = PathPayload::Notify {
            new_pid,
            other: NodeId(30),
            from: NodeId(10),
            seq: SeqNo(1),
            hops: 0,
        };
        let msg = VrrMsg::AlongPath {
            id: carrier,
            toward: NodeId(70),
            ttl: TTL - 3,
            payload: notify.clone(),
        };
        let out = step(&mut node, 5, &links, |p, ctx| p.on_message(ctx, 2, msg));
        assert_eq!(along(&out), [(1, carrier, notify)]);
        assert_eq!(node.first_hop(new_pid, NodeId(70)), Some(1));
        assert_eq!(node.first_hop(new_pid, NodeId(30)), Some(2));
        // the carrier's own entry is left as it was
        assert_eq!(node.table().get(&carrier).unwrap().toward_b, Some(3));
    }

    /// Relay 50 holds the carrier 10 – 70 with its hop toward 70 on link 3,
    /// toward 60, which is no neighbour of 70; 40 (link 1) is, as its hello
    /// said. 10's introduction of 30 to 70 is handed to 40 over link 1, and
    /// the half it lays here leads to 70 over that link and back toward 30
    /// over the link it came in on.
    #[test]
    fn a_relay_hands_a_notify_to_a_neighbour_of_its_endpoint_and_lays_the_edge_over_that_link() {
        let (mut node, _) = stepped_node(&[40, 60]);
        let links = [1, 2, 3];
        step(&mut node, 2, &links, |p, ctx| {
            p.on_message(ctx, 1, hello_from(40, &[50, 70]))
        });
        let carrier = PathId::new(NodeId(10), NodeId(70), 5);
        node.install_walk_hop(carrier, NodeId(10), Some(3), Some(2));
        let hop = node.carry(carrier, NodeId(70), Some(3)).unwrap();
        assert_eq!((hop.link, hop.via), (1, Via::Neighbour));
        let new_pid = PathId::new(NodeId(30), NodeId(70), 9);
        let notify = PathPayload::Notify {
            new_pid,
            other: NodeId(30),
            from: NodeId(10),
            seq: SeqNo(1),
            hops: 0,
        };
        let msg = VrrMsg::AlongPath {
            id: carrier,
            toward: NodeId(70),
            ttl: TTL - 3,
            payload: notify.clone(),
        };
        let out = step(&mut node, 5, &links, |p, ctx| p.on_message(ctx, 3, msg));
        assert_eq!(along(&out), [(1, carrier, notify)]);
        assert_eq!(node.first_hop(new_pid, NodeId(70)), Some(1));
        assert_eq!(node.first_hop(new_pid, NodeId(30)), Some(3));
        assert_eq!(node.table().get(&carrier).unwrap().toward_b, Some(2));
    }

    /// Node 40, the neighbour a two-hop hand-off reached, holds no row for
    /// the carrier 10 – 70 and none for its endpoints, but 70 is bound on
    /// link 2: the introduction goes straight to 70 under its own id, and
    /// the half it lays leads to 70 over link 2 and back over link 1.
    #[test]
    fn a_node_with_no_row_hands_a_notify_to_its_bound_endpoint() {
        let mut node = VrrNode::new(NodeId(40));
        let links = [1, 2];
        step(&mut node, 1, &links, |p, ctx| {
            p.on_message(ctx, 2, hello_from(70, &[]))
        });
        let carrier = PathId::new(NodeId(10), NodeId(70), 5);
        assert!(node
            .table()
            .between(NodeId(10), NodeId(70))
            .next()
            .is_none());
        let new_pid = PathId::new(NodeId(30), NodeId(70), 9);
        let notify = PathPayload::Notify {
            new_pid,
            other: NodeId(30),
            from: NodeId(10),
            seq: SeqNo(1),
            hops: 0,
        };
        let msg = VrrMsg::AlongPath {
            id: carrier,
            toward: NodeId(70),
            ttl: TTL - 4,
            payload: notify.clone(),
        };
        let out = step(&mut node, 5, &links, |p, ctx| p.on_message(ctx, 1, msg));
        assert_eq!(along(&out), [(2, carrier, notify)]);
        assert_eq!(node.first_hop(new_pid, NodeId(70)), Some(2));
        assert_eq!(node.first_hop(new_pid, NodeId(30)), Some(1));
        // nothing comes back over the link it came in on
        assert!(node.carry(carrier, NodeId(70), Some(2)).is_none());
    }

    /// A link that goes down takes what its hellos said with it: node 50
    /// learned 70 behind 40 (link 1) and 60 (link 2), and its row for the
    /// carrier 10 – 70 leads on over link 4. A message toward 70 leaves
    /// over link 1, over link 2 once link 1 is down, and over the row's own
    /// link once link 2 is down too. The answer still owed to 40's hello
    /// goes with its link.
    #[test]
    fn a_link_down_drops_the_neighbours_learned_over_it() {
        let (mut node, _) = stepped_node(&[40, 60]);
        let mut links = vec![1, 2, 3, 4];
        for (id, link) in [(40, 1), (60, 2)] {
            step(&mut node, 2, &links, |p, ctx| {
                p.on_message(ctx, link, hello_from(id, &[70]))
            });
        }
        let carrier = PathId::new(NodeId(10), NodeId(70), 5);
        node.install_walk_hop(carrier, NodeId(10), Some(3), Some(4));
        let leaves = |node: &VrrNode| node.carry(carrier, NodeId(70), Some(3)).map(|h| h.link);
        assert_eq!(leaves(&node), Some(1));
        for (down, then) in [(1, 2), (2, 4)] {
            links.retain(|&l| l != down);
            step(&mut node, 3, &links, |p, ctx| p.on_neighbor_down(ctx, down));
            assert_eq!(leaves(&node), Some(then));
            assert!(node.two_hop.iter().all(|&(_, link)| link != down));
            assert!(!node.replies.contains(&down));
        }
        let out = step(&mut node, 4, &links, |p, ctx| p.on_timer(ctx, TOKEN_HELLO));
        assert!(out.is_empty(), "{out:?}");
    }

    /// A link that goes down is news to the neighbours still bound: relay
    /// 50 learned 70 behind 40 (its link 1) from 40's answer, and hands a
    /// message on the carrier 10 – 70 to 40 instead of over its row's link
    /// 4. 40's link to 70 goes down; 40 sends its new hello to 50, its only
    /// neighbour left, and 50's next message toward 70 follows the row.
    #[test]
    fn a_link_down_tells_the_neighbours_left_and_their_messages_follow_the_row() {
        use ssr_sim::Action;
        let sends = |out: &[Action<VrrMsg>]| {
            out.iter()
                .filter_map(|a| match a {
                    Action::Send { to, msg, .. } => Some((*to, msg.clone())),
                    Action::Timer { .. } => None,
                })
                .collect::<Vec<_>>()
        };
        let mut near = VrrNode::new(NodeId(40));
        let near_links = [1, 2];
        for (id, link) in [(50, 1), (70, 2)] {
            step(&mut near, 1, &near_links, |p, ctx| {
                p.on_message(ctx, link, hello_from(id, &[]))
            });
        }
        let out = step(&mut near, 2, &near_links, |p, ctx| {
            p.on_timer(ctx, TOKEN_HELLO)
        });
        let answer = hello_from(40, &[50, 70]);
        assert!(sends(&out).contains(&(1, answer.clone())));
        let (mut relay, _) = stepped_node(&[40, 60]);
        let links = [1, 2, 3, 4];
        step(&mut relay, 3, &links, |p, ctx| p.on_message(ctx, 1, answer));
        let carrier = PathId::new(NodeId(10), NodeId(70), 5);
        relay.install_walk_hop(carrier, NodeId(10), Some(3), Some(4));
        let leaves = |node: &VrrNode| {
            let hop = node.carry(carrier, NodeId(70), Some(3)).unwrap();
            (hop.link, hop.via)
        };
        assert_eq!(leaves(&relay), (1, Via::Neighbour));
        let out = step(&mut near, 4, &[1], |p, ctx| p.on_neighbor_down(ctx, 2));
        let told = hello_from(40, &[50]);
        assert_eq!(sends(&out), [(1, told.clone())]);
        step(&mut relay, 5, &links, |p, ctx| p.on_message(ctx, 1, told));
        assert_eq!(leaves(&relay), (4, Via::Row));
    }

    /// A closure retrace never takes the hand-off: it rewrites the crumb at
    /// every hop, so it keeps to the trail. Acceptor 50 holds the origin 10
    /// as a bound neighbour on link 1, yet answers 10's probe, which came
    /// in from 30 on link 2, over link 2; relay 50 forwards a retrace over
    /// its crumb's hop, link 3, not over link 1.
    #[test]
    fn a_closure_retrace_keeps_to_its_crumbs_when_the_origin_is_a_bound_neighbour() {
        let origin = NodeId(10);
        let (mut node, _) = stepped_node(&[10, 30]);
        let links = [1, 2, 3];
        let probe = VrrMsg::Routed {
            ttl: TTL - 1,
            payload: RoutedPayload::Discover {
                origin,
                toward: Side::Right,
                nonce: 4,
            },
        };
        let out = step(&mut node, 5, &links, |p, ctx| p.on_message(ctx, 2, probe));
        let crumb = VrrNode::crumb_pid(origin, Side::Right, 4);
        let final_pid = PathId::new(NodeId(50), origin, 4);
        let close = PathPayload::CloseRing {
            acceptor: NodeId(50),
            final_pid,
            toward: Side::Right,
        };
        assert_eq!(along(&out), [(2, crumb, close)]);

        let (mut node, _) = stepped_node(&[10]);
        let crumb = VrrNode::crumb_pid(origin, Side::Right, 6);
        node.install_walk_hop(crumb, origin, Some(3), Some(2));
        let close = PathPayload::CloseRing {
            acceptor: NodeId(90),
            final_pid: PathId::new(NodeId(90), origin, 6),
            toward: Side::Right,
        };
        let msg = VrrMsg::AlongPath {
            id: crumb,
            toward: origin,
            ttl: TTL - 2,
            payload: close.clone(),
        };
        let out = step(&mut node, 5, &links, |p, ctx| p.on_message(ctx, 2, msg));
        assert_eq!(along(&out), [(3, crumb, close)]);
    }

    /// Node 50 retired its edge to 90, so the control core's retry of the
    /// introduction 40 / 90 names a party it no longer holds. The retired
    /// path's state is still in the table, and the half toward 90 rides
    /// it (link 2); the half toward 40 takes the hello path (link 1).
    #[test]
    fn an_introduction_naming_a_forgotten_party_rides_the_retired_path() {
        let (mut node, _) = stepped_node(&[40]);
        let links = [1, 2];
        let retired = PathId::new(NodeId(50), NodeId(90), 7);
        node.install_walk_hop(retired, NodeId(50), None, Some(2));
        assert_eq!(node.lin.edge(NodeId(90)), None);
        let retry = Effect::Introduce {
            keep: NodeId(40),
            drop: NodeId(90),
            seq: SeqNo(3),
            to_keep: true,
            to_drop: false,
        };
        let out = step(&mut node, 30, &links, |p, ctx| p.apply(ctx, retry));
        let sent: Vec<(usize, PathId)> =
            along(&out).into_iter().map(|(l, id, _)| (l, id)).collect();
        assert_eq!(
            sent,
            [(1, PathId::new(NodeId(50), NodeId(40), 0)), (2, retired)]
        );
    }

    /// Relay 50 holds the carrier 10 – 70 as `merged`, the row of a later
    /// path between the same endpoints over the same two links,
    /// `survivor`, and a third path's row, `other`, that comes in over the
    /// same link but leaves toward 70 over another. Once both twins have
    /// settled, the first message merges `merged` into `survivor`, which
    /// stands in for it: 10's introduction of 30 to 70, still sent along
    /// `merged`, leaves over the stand-in's hop (link 3), not `other`'s,
    /// and keeps its id. The half it lays here leads to 70 over that link
    /// and back toward 30 over the link it came in on.
    #[test]
    fn a_relay_whose_carrier_row_was_merged_forwards_over_its_stand_in() {
        let mut node = VrrNode::new(NodeId(50));
        let other = PathId::new(NodeId(10), NodeId(70), 1);
        let merged = PathId::new(NodeId(10), NodeId(70), 5);
        let survivor = PathId::new(NodeId(10), NodeId(70), 6);
        node.install_walk_hop(other, NodeId(10), Some(2), Some(4));
        node.install_walk_hop(merged, NodeId(10), Some(2), Some(3));
        node.table.settle(1);
        node.install_walk_hop(survivor, NodeId(10), Some(2), Some(3));
        let new_pid = PathId::new(NodeId(30), NodeId(70), 9);
        let notify = PathPayload::Notify {
            new_pid,
            other: NodeId(30),
            from: NodeId(10),
            seq: SeqNo(1),
            hops: 0,
        };
        let msg = VrrMsg::AlongPath {
            id: merged,
            toward: NodeId(70),
            ttl: TTL - 3,
            payload: notify.clone(),
        };
        let out = step(&mut node, 1 + SETTLE, &[2, 3, 4], |p, ctx| {
            p.on_message(ctx, 2, msg)
        });
        assert_eq!(node.table().get(&merged), None);
        assert_eq!(along(&out), [(3, merged, notify)]);
        assert_eq!(node.first_hop(new_pid, NodeId(70)), Some(3));
        assert_eq!(node.first_hop(new_pid, NodeId(30)), Some(2));
    }

    /// The pinch: 10 introduces 30 to 70, and both halves of `new_pid` pass
    /// relay 50 — the half toward 70 first, over the carrier 10 – 70, then
    /// the half toward 30 over the carrier 10 – 30. Between them a retry of
    /// the introduction lays `retry` here over the same two links as the
    /// first half. The second half still finds the first half's row and
    /// joins the new edge here: toward 70 over link 3, where the first half
    /// went, not back over link 4 toward 10, which would close a cycle
    /// through 10.
    #[test]
    fn a_second_half_finds_the_first_halfs_row_though_a_twin_was_laid_since() {
        let mut node = VrrNode::new(NodeId(50));
        let to_70 = PathId::new(NodeId(10), NodeId(70), 5);
        let to_30 = PathId::new(NodeId(10), NodeId(30), 6);
        node.install_walk_hop(to_70, NodeId(10), Some(2), Some(3));
        node.install_walk_hop(to_30, NodeId(10), Some(4), Some(5));
        let half = |id, toward, new_pid, other| VrrMsg::AlongPath {
            id,
            toward,
            ttl: TTL - 2,
            payload: PathPayload::Notify {
                new_pid,
                other,
                from: NodeId(10),
                seq: SeqNo(1),
                hops: 0,
            },
        };
        let links = [2, 3, 4, 5];
        let new_pid = PathId::new(NodeId(30), NodeId(70), 9);
        let retry = PathId::new(NodeId(30), NodeId(70), 11);
        let first = half(to_70, NodeId(70), new_pid, NodeId(30));
        step(&mut node, 1, &links, |p, ctx| p.on_message(ctx, 2, first));
        let again = half(to_70, NodeId(70), retry, NodeId(30));
        step(&mut node, 3, &links, |p, ctx| p.on_message(ctx, 2, again));
        let second = half(to_30, NodeId(30), new_pid, NodeId(70));
        step(&mut node, 9, &links, |p, ctx| p.on_message(ctx, 4, second));
        assert_eq!(node.first_hop(new_pid, NodeId(70)), Some(3));
        assert_eq!(node.first_hop(new_pid, NodeId(30)), Some(5));
    }

    /// An announcement riding a stand-in lays nothing: 10's edge `edge` to
    /// 70 merged at relay 50 into `twin`, which stands in for it. 10's
    /// announcement along `edge` leaves over the stand-in's hop under its
    /// own id, and 50 holds no row for `edge` after it; at 70, whose row
    /// for `edge` merged too, the announcement adopts 10 and lays nothing.
    #[test]
    fn an_announcement_riding_a_stand_in_lays_nothing() {
        let edge = PathId::new(NodeId(10), NodeId(70), 5);
        let twin = PathId::new(NodeId(10), NodeId(70), 6);
        let announce = PathPayload::Notify {
            new_pid: edge,
            other: NodeId(10),
            from: NodeId(10),
            seq: SeqNo(1),
            hops: 0,
        };
        let msg = VrrMsg::AlongPath {
            id: edge,
            toward: NodeId(70),
            ttl: TTL - 3,
            payload: announce.clone(),
        };
        let mut relay = VrrNode::new(NodeId(50));
        relay.install_walk_hop(edge, NodeId(10), Some(2), Some(3));
        relay.install_walk_hop(twin, NodeId(10), Some(2), Some(3));
        let out = step(&mut relay, SETTLE, &[2, 3], |p, ctx| {
            p.on_message(ctx, 2, msg.clone())
        });
        assert_eq!(along(&out), [(3, edge, announce)]);
        assert_eq!(relay.table().get(&edge), None);
        let mut end = VrrNode::new(NodeId(70));
        end.install_walk_hop(edge, NodeId(10), Some(1), None);
        end.install_walk_hop(twin, NodeId(10), Some(1), None);
        step(&mut end, SETTLE, &[1], |p, ctx| p.on_message(ctx, 1, msg));
        assert_eq!(end.table().get(&edge), None);
        assert_eq!(end.lin.edge(NodeId(10)), Some(edge));
    }

    /// The loop guard: relay 50 holds no row for `gone` and one other row
    /// for the endpoints 10 – 70, `other`, whose hop toward 70 is link 2.
    /// An acknowledgment on `gone` that came in over link 2 is not sent
    /// back over it: it is dropped. The same acknowledgment coming in over
    /// link 4 rides `other` over link 2.
    #[test]
    fn the_loop_guard_never_falls_back_onto_the_link_a_message_came_in_on() {
        let mut node = VrrNode::new(NodeId(50));
        let gone = PathId::new(NodeId(10), NodeId(70), 5);
        let other = PathId::new(NodeId(10), NodeId(70), 6);
        node.install_walk_hop(other, NodeId(10), Some(3), Some(2));
        let ack = PathPayload::Ack {
            about: NodeId(30),
            seq: SeqNo(2),
        };
        let msg = VrrMsg::AlongPath {
            id: gone,
            toward: NodeId(70),
            ttl: TTL - 3,
            payload: ack.clone(),
        };
        let links = [2, 3, 4];
        let bounced = step(&mut node, 5, &links, |p, ctx| {
            p.on_message(ctx, 2, msg.clone())
        });
        assert!(bounced.is_empty());
        let out = step(&mut node, 6, &links, |p, ctx| p.on_message(ctx, 4, msg));
        assert_eq!(along(&out), [(2, other, ack)]);
    }

    /// Baseline mode: 10's claim toward the representative 90 passes relay
    /// 50, which reaches 80 (closer to 90) over link 2, and comes back to
    /// 50 over link 3 after a detour. The second pass keeps the hop back
    /// toward 10 that the first laid (link 1): the detour becomes a spur of
    /// the claim's path instead of a cycle on its way back to 10.
    #[test]
    fn a_claim_back_at_a_relay_keeps_the_hop_back_it_laid_first() {
        let config = VrrConfig {
            mode: VrrMode::Baseline,
        };
        let mut node = VrrNode::with_config(NodeId(50), config);
        let to_80 = PathId::new(NodeId(50), NodeId(80), 1);
        node.install_walk_hop(to_80, NodeId(50), None, Some(2));
        let claim = VrrMsg::Routed {
            ttl: TTL - 4,
            payload: RoutedPayload::Claim {
                from: NodeId(10),
                to: NodeId(90),
                nonce: 3,
            },
        };
        let links = [1, 2, 3];
        step(&mut node, 1, &links, |p, ctx| {
            p.on_message(ctx, 1, claim.clone())
        });
        let out = step(&mut node, 9, &links, |p, ctx| p.on_message(ctx, 3, claim));
        let walk = PathId::new(NodeId(10), NodeId(90), 3);
        assert_eq!(node.first_hop(walk, NodeId(10)), Some(1));
        assert_eq!(node.first_hop(walk, NodeId(90)), Some(2));
        assert!(matches!(
            out.as_slice(),
            [ssr_sim::Action::Send { to: 2, .. }]
        ));
    }

    /// Baseline mode: 10's claim toward the representative 90 stalls at 50,
    /// which knows no node closer to 90. Every relay the claim passed holds
    /// its walk as `(10, 90, nonce)`, so 50 answers over that path: it
    /// keeps it as the claim path and as its row toward 10 over the link the
    /// claim came in on, and lays its own edge `(10, 50, nonce)` to 10 as a
    /// half-lay along it.
    #[test]
    fn a_stalled_claim_is_answered_over_the_path_its_relays_hold() {
        let config = VrrConfig {
            mode: VrrMode::Baseline,
        };
        let mut node = VrrNode::with_config(NodeId(50), config);
        let claim = VrrMsg::Routed {
            ttl: TTL - 4,
            payload: RoutedPayload::Claim {
                from: NodeId(10),
                to: NodeId(90),
                nonce: 3,
            },
        };
        let out = step(&mut node, 9, &[1], |p, ctx| p.on_message(ctx, 1, claim));
        let carrier = PathId::new(NodeId(10), NodeId(90), 3);
        let edge = PathId::new(NodeId(10), NodeId(50), 3);
        assert_eq!(node.claim_paths.get(&NodeId(10)), Some(&carrier));
        assert_eq!(node.first_hop(carrier, NodeId(10)), Some(1));
        assert_eq!(node.lin.edge(NodeId(10)), Some(edge));
        let announce = PathPayload::Notify {
            new_pid: edge,
            other: NodeId(50),
            from: NodeId(50),
            seq: SeqNo(1),
            hops: 0,
        };
        assert_eq!(along(&out), [(1, carrier, announce)]);
    }

    /// A greedy walk ends where its hop budget does: node 50 reaches 70
    /// (closer to the top of the ring) over link 2, yet 10's probe
    /// arriving over link 1 with no hops left is accepted here — nothing is
    /// routed on, and its breadcrumb leads nowhere onward. With one hop
    /// left the same probe is forwarded over link 2.
    #[test]
    fn a_discovery_out_of_hops_is_accepted_where_it_is() {
        let probe = |ttl| VrrMsg::Routed {
            ttl,
            payload: RoutedPayload::Discover {
                origin: NodeId(10),
                toward: Side::Right,
                nonce: 4,
            },
        };
        let crumb = VrrNode::crumb_pid(NodeId(10), Side::Right, 4);
        let (mut node, links) = stepped_node(&[10, 70]);
        assert_eq!(node.greedy_next(NodeId::MAX), Some(2));
        let out = step(&mut node, 5, &links, |p, ctx| {
            p.on_message(ctx, 1, probe(0))
        });
        assert!(routed(&out).is_empty());
        assert!(node
            .table()
            .get(&crumb)
            .is_none_or(|e| e.toward_b.is_none()));

        let (mut node, links) = stepped_node(&[10, 70]);
        let out = step(&mut node, 5, &links, |p, ctx| {
            p.on_message(ctx, 1, probe(1))
        });
        let forwarded = ssr_sim::Action::Send {
            to: 2,
            msg: probe(0),
            cause: CauseClass::Bootstrap,
        };
        assert_eq!(out, [forwarded]);
        assert_eq!(node.first_hop(crumb, NodeId::MAX), Some(2));
    }

    /// Baseline mode: 10's claim reaches its target 50, which has a greedy
    /// next hop (70 on link 2) but routes nothing on. It is handled as an
    /// arrival: 50 keeps the claim's path as its row toward 10 over the
    /// link the claim came in on and answers along it.
    #[test]
    fn a_claim_at_its_target_is_an_arrival() {
        let config = VrrConfig {
            mode: VrrMode::Baseline,
        };
        let mut node = VrrNode::with_config(NodeId(50), config);
        step(&mut node, 1, &[1, 2], |p, ctx| {
            p.on_message(ctx, 2, hello_from(70, &[]))
        });
        assert_eq!(node.greedy_next(NodeId(50)), Some(2));
        let claim = VrrMsg::Routed {
            ttl: TTL - 4,
            payload: RoutedPayload::Claim {
                from: NodeId(10),
                to: NodeId(50),
                nonce: 3,
            },
        };
        let out = step(&mut node, 9, &[1, 2], |p, ctx| p.on_message(ctx, 1, claim));
        let carrier = PathId::new(NodeId(10), NodeId(50), 3);
        assert_eq!(node.claim_paths.get(&NodeId(10)), Some(&carrier));
        assert_eq!(node.first_hop(carrier, NodeId(10)), Some(1));
        let announce = PathPayload::Notify {
            new_pid: carrier,
            other: NodeId(50),
            from: NodeId(50),
            seq: SeqNo(1),
            hops: 0,
        };
        assert_eq!(along(&out), [(1, carrier, announce)]);
        assert!(routed(&out).is_empty());
    }

    /// One announcement per mutual edge per audit interval: 60's
    /// announcement reaches 50, which answers nothing and skips 60 at its
    /// next round; 40, which it has not heard from, is still announced to.
    #[test]
    fn an_announcement_from_the_closest_peer_skips_it_at_the_next_round() {
        let (mut node, links) = stepped_node(&[40, 60]);
        assert!(announcement(&mut node, &links, 60, 2).is_empty());
        assert_eq!(node.lin.announced(Side::Right), Some(NodeId(60)));
        assert_eq!(audit_links(&mut node, &links), [1]);
        assert_eq!(audit_links(&mut node, &links), [1, 2]);
    }

    /// An announcement from a side-set member that is not the closest on
    /// its side suppresses nothing: 70's announcement leaves 50's round
    /// announcing to both closest peers, 40 and 60.
    #[test]
    fn an_announcement_from_a_farther_peer_suppresses_nothing() {
        let (mut node, links) = stepped_node(&[30, 40, 60, 70]);
        assert!(announcement(&mut node, &links, 70, 4).is_empty());
        assert_eq!(node.lin.announced(Side::Right), Some(NodeId(70)));
        assert_eq!(audit_links(&mut node, &links), [2, 3]);
    }

    /// The retry timers `out` arms, as `(delay, side, seq)`.
    fn retries(out: &[ssr_sim::Action<VrrMsg>]) -> Vec<(u64, Side, SeqNo)> {
        out.iter()
            .filter_map(|a| match a {
                ssr_sim::Action::Timer { delay, token, .. } => match Timer::from_token(*token)? {
                    Timer::Retry(side, seq) => Some((*delay, side, seq)),
                    Timer::Act | Timer::Discover | Timer::Audit => None,
                },
                ssr_sim::Action::Send { .. } => None,
            })
            .collect()
    }

    /// Node 50 holds 60 over their one-hop path (link 1) and is introduced
    /// to 70 by 10 over the carrier 10 – 50: the notify took 10 hops and
    /// names 10's bound of 20 hops on its path to 70. Its act then hands
    /// 60 and 70 to each other and arms the handshake's retry at the round
    /// trip over the longer path plus the batching window, 2 · 30 + 2 = 62
    /// ticks, not the control core's 24. Returns the node and the
    /// handshake's sequence number.
    fn introduced_to_70() -> (VrrNode, SeqNo) {
        let (mut node, _) = stepped_node(&[60]);
        let links = [1, 2];
        let carrier = PathId::new(NodeId(10), NodeId(50), 3);
        node.install_walk_hop(carrier, NodeId(10), Some(2), None);
        let new_pid = PathId::new(NodeId(50), NodeId(70), 9);
        let notify = VrrMsg::AlongPath {
            id: carrier,
            toward: NodeId(50),
            ttl: TTL - 10,
            payload: PathPayload::Notify {
                new_pid,
                other: NodeId(70),
                from: NodeId(10),
                seq: SeqNo(4),
                hops: 20,
            },
        };
        step(&mut node, 3, &links, |p, ctx| p.on_message(ctx, 2, notify));
        assert_eq!(node.bound(NodeId(70)), 30);
        let act = Timer::Act.token();
        let out = step(&mut node, 5, &links, |p, ctx| p.on_timer(ctx, act));
        assert_eq!(
            node.lin.pending(Side::Right),
            Some([NodeId(60), NodeId(70)])
        );
        let [(delay, Side::Right, seq)] = retries(&out)[..] else {
            panic!("one retry on the right: {out:?}");
        };
        assert_eq!(delay, 2 * 30 + ACT_INTERVAL);
        (node, seq)
    }

    #[test]
    fn a_notifys_hop_bound_arms_the_retry_at_a_round_trip_over_its_path() {
        let (node, _) = introduced_to_70();
        // a hello's bound is one hop, and it arms nothing past the core's
        assert_eq!(node.bound(NodeId(60)), 1);
    }

    /// 70's acknowledgment arrives over the new edge after 40 hops: 70's
    /// bound is now 40, and the retry that re-sends 60's unacknowledged
    /// half waits 2 · 40 + 2 = 82 ticks where the core's back-off says 48.
    #[test]
    fn an_ack_refreshes_the_hop_bound_of_its_sender() {
        let (mut node, seq) = introduced_to_70();
        let links = [1, 2];
        let ack = VrrMsg::AlongPath {
            id: PathId::new(NodeId(50), NodeId(70), 9),
            toward: NodeId(50),
            ttl: TTL - 40,
            payload: PathPayload::Ack {
                about: NodeId(60),
                seq,
            },
        };
        step(&mut node, 20, &links, |p, ctx| p.on_message(ctx, 2, ack));
        assert_eq!(node.bound(NodeId(70)), 40);
        let retry = Timer::Retry(Side::Right, seq).token();
        let out = step(&mut node, 70, &links, |p, ctx| p.on_timer(ctx, retry));
        assert_eq!(retries(&out), [(2 * 40 + ACT_INTERVAL, Side::Right, seq)]);
    }

    /// The floor delays the retries, never drops one: a handshake neither
    /// peer answers is re-sent four times, each retry armed at the larger
    /// of the core's back-off and the floor, and the fifth firing abandons
    /// it. Both silent peers are garbage-collected, and their bounds with
    /// them.
    #[test]
    fn a_silent_peer_is_still_abandoned_after_the_last_retry() {
        let (mut node, seq) = introduced_to_70();
        let (links, retry) = ([1, 2], Timer::Retry(Side::Right, seq).token());
        let mut armed = Vec::new();
        for k in 0..5 {
            let out = step(&mut node, 100 + 200 * k, &links, |p, ctx| {
                p.on_timer(ctx, retry)
            });
            armed.extend(retries(&out));
        }
        let floor = 2 * 30 + ACT_INTERVAL;
        let backoff = [48, 96, 192, 384].map(|d: u64| (d.max(floor), Side::Right, seq));
        assert_eq!(armed, backoff);
        assert_eq!(node.lin.pending(Side::Right), None);
        assert_eq!(node.right_set().count(), 0);
        assert!(node.bounds.is_empty());
    }

    /// Node 50's act over the right side it holds, at tick 5.
    fn act(node: &mut VrrNode, links: &[usize]) -> Vec<ssr_sim::Action<VrrMsg>> {
        let token = Timer::Act.token();
        step(node, 5, links, |p, ctx| p.on_timer(ctx, token))
    }

    /// The one handshake on the right whose retry `out` arms.
    fn handshake(out: &[ssr_sim::Action<VrrMsg>]) -> SeqNo {
        let [(_, Side::Right, seq)] = retries(out)[..] else {
            panic!("one handshake on the right: {out:?}");
        };
        seq
    }

    /// `peer`'s acknowledgment of the handshake `seq`, naming `about`,
    /// over their one-hop path, arriving on `link` at tick `now`.
    fn ack_from(
        node: &mut VrrNode,
        links: &[usize],
        now: u64,
        (peer, link): (u64, usize),
        about: u64,
        seq: SeqNo,
    ) -> Vec<(usize, PathId, PathPayload)> {
        let msg = VrrMsg::AlongPath {
            id: PathId::new(NodeId(50), NodeId(peer), 0),
            toward: NodeId(50),
            ttl: TTL - 1,
            payload: PathPayload::Ack {
                about: NodeId(about),
                seq,
            },
        };
        along(&step(node, now, links, |p, ctx| {
            p.on_message(ctx, link, msg)
        }))
    }

    /// Node 50 hands 70 to 60 and both acknowledge the first try: the
    /// delegation sends nothing, and 70 has left the right side.
    #[test]
    fn a_delegation_whose_handshake_went_through_first_time_sends_nothing() {
        let (mut node, links) = stepped_node(&[60, 70]);
        let out = act(&mut node, &links);
        let seq = handshake(&out);
        assert_eq!(along(&out).len(), 2);
        assert!(ack_from(&mut node, &links, 7, (60, 1), 70, seq).is_empty());
        assert!(ack_from(&mut node, &links, 7, (70, 2), 60, seq).is_empty());
        assert_eq!(node.right_set().collect::<Vec<_>>(), [NodeId(60)]);
        assert_eq!(node.lin.pending(Side::Right), None);
    }

    /// The same handshake with no answer before its retry, which re-sends
    /// both halves: once both acknowledge, the delegation sends nothing
    /// either.
    #[test]
    fn a_delegation_after_a_re_sent_handshake_sends_nothing_either() {
        let (mut node, links) = stepped_node(&[60, 70]);
        let seq = handshake(&act(&mut node, &links));
        let retry = Timer::Retry(Side::Right, seq).token();
        let out = step(&mut node, 30, &links, |p, ctx| p.on_timer(ctx, retry));
        assert_eq!(along(&out).len(), 2);
        assert!(ack_from(&mut node, &links, 32, (60, 1), 70, seq).is_empty());
        assert!(ack_from(&mut node, &links, 32, (70, 2), 60, seq).is_empty());
        assert_eq!(node.right_set().collect::<Vec<_>>(), [NodeId(60)]);
    }

    /// Node 50 holds 70 over their one-hop path (link 1), and 70's own
    /// handshake introduces it to 60, which lies between them; 50 answers
    /// and adopts 60. Returns the node and its links.
    fn introduced_to_60_by_70() -> (VrrNode, Vec<usize>) {
        let (mut node, links) = stepped_node(&[70]);
        let notify = VrrMsg::AlongPath {
            id: PathId::new(NodeId(50), NodeId(70), 0),
            toward: NodeId(50),
            ttl: TTL - 1,
            payload: PathPayload::Notify {
                new_pid: PathId::new(NodeId(50), NodeId(60), 9),
                other: NodeId(60),
                from: NodeId(70),
                seq: SeqNo(4),
                hops: 1,
            },
        };
        let out = step(&mut node, 2, &links, |p, ctx| p.on_message(ctx, 1, notify));
        let [(1, _, PathPayload::Ack { .. })] = along(&out)[..] else {
            panic!("one ack to 70: {out:?}");
        };
        let right: Vec<_> = node.right_set().collect();
        assert_eq!(right, [NodeId(60), NodeId(70)]);
        (node, links)
    }

    /// The act that would introduce 60 and 70 to each other is the mirror
    /// of 70's own handshake: it sends nothing, the control core takes both
    /// halves as acknowledged and delegates 70, and no handshake is left
    /// in flight, nor a retry timer armed for it.
    #[test]
    fn the_mirror_introduction_sends_nothing_and_delegates_its_drop() {
        let (mut node, links) = introduced_to_60_by_70();
        let out = act(&mut node, &links);
        assert!(along(&out).is_empty(), "{out:?}");
        assert!(retries(&out).is_empty(), "{out:?}");
        assert_eq!(node.right_set().collect::<Vec<_>>(), [NodeId(60)]);
        assert_eq!(node.lin.pending(Side::Right), None);
        assert!(node.mirrors.is_empty());
    }

    /// 70 announces itself to 50 after its introduction of 60: it holds
    /// 50 still, so 50's own introduction of 60 and 70 is sent, both
    /// halves over link 1, and 70 stays until they are acknowledged.
    #[test]
    fn an_announcement_clears_the_mirror_so_the_introduction_is_sent() {
        let (mut node, links) = introduced_to_60_by_70();
        assert!(announcement(&mut node, &links, 70, 1).is_empty());
        let out = act(&mut node, &links);
        handshake(&out);
        let halves: Vec<usize> = along(&out).iter().map(|&(link, _, _)| link).collect();
        assert_eq!(halves, [1, 1]);
        let right: Vec<_> = node.right_set().collect();
        assert_eq!(right, [NodeId(60), NodeId(70)]);
    }

    /// Node 50 with physical neighbours 30 (link 1) and 40 (link 2)
    /// believes itself the maximum. Its counter-clockwise probe, which
    /// seeks its ring successor across the wrap, leaves toward the least
    /// address below it, 30, and lays its crumb over that link; clockwise
    /// progress toward `NodeId::MIN` would find no address above 50 and
    /// send nothing. A relay passes the probe on the same way: 40, between
    /// 30 and 50, forwards 50's probe to 30.
    #[test]
    fn the_maximums_ccw_probe_leaves_toward_a_smaller_neighbour() {
        let (mut node, links) = stepped_node(&[30, 40]);
        let probe = Effect::Probe { toward: Side::Left };
        let out = step(&mut node, 8, &links, |p, ctx| p.apply(ctx, probe));
        assert_eq!(routed(&out), [1]);
        let Some(ssr_sim::Action::Send {
            msg:
                VrrMsg::Routed {
                    payload: RoutedPayload::Discover { nonce, .. },
                    ..
                },
            ..
        }) = out.first()
        else {
            panic!("a probe: {out:?}");
        };
        let crumb = VrrNode::crumb_pid(NodeId(50), Side::Left, *nonce);
        assert_eq!(node.first_hop(crumb, NodeId::MIN), Some(1));

        let mut relay = VrrNode::new(NodeId(40));
        for (id, link) in [(30, 1), (50, 2), (45, 3)] {
            step(&mut relay, 1, &[1, 2, 3], |p, ctx| {
                p.on_message(ctx, link, hello_from(id, &[]))
            });
        }
        let probe = VrrMsg::Routed {
            ttl: TTL - 1,
            payload: RoutedPayload::Discover {
                origin: NodeId(50),
                toward: Side::Left,
                nonce: 4,
            },
        };
        let out = step(&mut relay, 9, &[1, 2, 3], |p, ctx| {
            p.on_message(ctx, 2, probe)
        });
        assert_eq!(routed(&out), [1]);
    }
}
