//! The overlay-only world: bare [`Linearizer`]s on a physical [`Graph`],
//! with no simulator and no routes.
//!
//! Every message travels one overlay edge in one tick, so what a run costs
//! here is what the control core itself decides; the message-level
//! protocols add the underlay (routes, hellos, caches) on top. Each rule
//! mirrors `ssr-core`'s `SsrNode` with the route removed:
//!
//! * five messages ([`Msg`]), each delivered one tick after it is sent,
//!   FIFO within a tick (the scheduler under [`Faults::NONE`]);
//! * physical neighbours are adopted at tick 0 — there is no hello round;
//! * a node's knowledge is every id it has heard from or of, never
//!   evicted, and a discovery probe goes to the largest (clockwise) or
//!   smallest (counter-clockwise) known id — so the extremes are all a node
//!   keeps of it;
//! * `Effect::Abandon` and the audit's look at an empty side re-adopt
//!   physical neighbours, as `SsrNode` does;
//! * an audit announcement (a `Notify` naming its sender) is reported to
//!   the control core (`Linearizer::announced_by`), as `SsrNode` and
//!   `VrrNode` report it, so a mutual edge is announced from one end per
//!   interval;
//! * the retry delay has a floor of [`RETRY_FLOOR`], `SsrNode`'s floor for
//!   a one-hop route;
//! * the ring is checked every [`CHECK_EVERY`] ticks.
//!
//! Other [`Faults`] make the scheduler seeded-random: it drops, duplicates
//! and delays overlay messages with the probabilities `ssr-core`'s chaos
//! matrix gives its links. Timers are never disturbed.

use std::collections::{BTreeMap, VecDeque};

use ssr_graph::{Graph, Labeling};
use ssr_types::{NodeId, Rng, SeqNo, Side};

use crate::check::{legitimate, union_connected, Property};
use crate::control::{Effect, Input, Linearizer, Timer, WrapVerdict, ACT_INTERVAL};
use crate::observe::{check_ring, Linearized};

/// Floor of a handshake's retry delay: a round trip over one hop plus the
/// receiver's batching window.
pub const RETRY_FLOOR: u64 = 2 + ACT_INTERVAL;

/// Ticks between two ring checks.
pub const CHECK_EVERY: u64 = 8;

/// An overlay message.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Msg {
    /// "You have a neighbour `about`": half of a handshake, or an audit
    /// announcement when `about` is the sender itself.
    Notify {
        /// The node the receiver is pointed to.
        about: NodeId,
        /// Handshake correlation.
        seq: SeqNo,
    },
    /// Acknowledges the introduction to `about`.
    Ack {
        /// The node the acknowledging receiver was pointed to.
        about: NodeId,
        /// Handshake correlation.
        seq: SeqNo,
    },
    /// The sender retired its edge to the receiver.
    Teardown,
    /// A ring-closure probe from `origin`, travelling toward `toward`.
    Discover {
        /// The believed extreme that launched the probe.
        origin: NodeId,
        /// [`Side::Right`] is clockwise, toward the maximum.
        toward: Side,
    },
    /// The answer to a probe that travelled toward `toward`: the sender
    /// holds the receiver as its ring-closure partner.
    CloseRing {
        /// The direction the answered probe travelled.
        toward: Side,
    },
}

/// Message classes, in [`WorldRun::sent`] order, named as `ssr-core`
/// counts the same classes end to end.
pub const CLASSES: [&str; 5] = [
    "e2e.notify",
    "e2e.announce",
    "e2e.ack",
    "e2e.teardown",
    "e2e.discover",
];

impl Msg {
    /// Index of the message's class in [`CLASSES`], sent by `from`.
    fn class(self, from: NodeId) -> usize {
        match self {
            Msg::Notify { about, .. } if about == from => 1,
            Msg::Notify { .. } => 0,
            Msg::Ack { .. } => 2,
            Msg::Teardown => 3,
            Msg::Discover { .. } | Msg::CloseRing { .. } => 4,
        }
    }
}

/// What the scheduler does to a sent message: drop it, duplicate it or
/// delay it, each with its probability.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Faults {
    /// Seed of the scheduler's own random stream.
    pub seed: u64,
    /// Probability a message is lost.
    pub drop: f64,
    /// Probability a message arrives twice.
    pub dup: f64,
    /// Probability a copy is delayed by 1 to `window` extra ticks.
    pub reorder: f64,
    /// Longest extra delay.
    pub window: u64,
}

impl Faults {
    /// No faults: every message is delivered one tick after it is sent,
    /// FIFO within a tick.
    pub const NONE: Faults = Faults {
        seed: 0,
        drop: 0.0,
        dup: 0.0,
        reorder: 0.0,
        window: 0,
    };
}

/// What a run to the ring cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorldRun {
    /// The ring was consistent at a check within the budget.
    pub converged: bool,
    /// The first check at which it was (or the budget).
    pub ticks: u64,
    /// Messages sent by class, in [`CLASSES`] order.
    pub sent: [u64; 5],
    /// Messages the random scheduler lost.
    pub dropped: u64,
    /// The largest physical degree.
    pub max_degree: usize,
    /// The most handshakes one node started.
    pub max_handshakes: u64,
}

impl WorldRun {
    /// All messages sent.
    pub fn messages(&self) -> u64 {
        self.sent.iter().sum()
    }
}

/// What one node's rules act on: its control core and what it knows.
/// The exhaustive checker ([`crate::check`]) hashes exactly this.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Core {
    pub(crate) lin: Linearizer<()>,
    /// The smallest and largest id heard from or of.
    pub(crate) known: Option<(NodeId, NodeId)>,
}

impl Linearized for Core {
    type Edge = ();

    fn linearizer(&self) -> &Linearizer<()> {
        &self.lin
    }
}

impl Core {
    /// Node `id` at tick 0: every physical neighbour (`phys`, ascending)
    /// adopted and known.
    pub(crate) fn new(id: NodeId, phys: &[NodeId]) -> Core {
        Core::holding(id, phys, phys, [None; 2])
    }

    /// Node `id` holding `members` in its side sets and `wraps` in its
    /// ring-closure slots, and knowing those and its physical neighbours.
    pub(crate) fn holding(
        id: NodeId,
        phys: &[NodeId],
        members: &[NodeId],
        wraps: [Option<NodeId>; 2],
    ) -> Core {
        let mut core = Core {
            lin: Linearizer::new(id, true),
            known: None,
        };
        for &p in members {
            core.lin.adopt(p, ());
        }
        for (side, wrap) in [Side::Left, Side::Right].into_iter().zip(wraps) {
            if let Some(peer) = wrap {
                core.lin.set_wrap(side, peer, ());
            }
        }
        let wrapped = wraps.iter().flatten();
        for &p in phys.iter().chain(members).chain(wrapped) {
            core.learn(p);
        }
        core
    }

    fn id(&self) -> NodeId {
        self.lin.id()
    }

    /// Hears from or of `id`.
    fn learn(&mut self, id: NodeId) {
        self.known = Some(match self.known {
            None => (id, id),
            Some((lo, hi)) => (lo.min(id), hi.max(id)),
        });
    }

    /// Where a probe travelling toward `toward` goes next: the largest or
    /// smallest known id beyond this node, if any.
    fn probe_next(&self, toward: Side) -> Option<NodeId> {
        let (lo, hi) = self.known?;
        let me = self.id();
        match toward {
            Side::Right => (hi > me).then_some(hi),
            Side::Left => (lo < me).then_some(lo),
        }
    }

    /// Whether `peer` is a node this one holds or knows of: a side-set
    /// member, a ring-closure partner, an endpoint of a handshake in
    /// flight or a known extreme.
    fn knows(&self, peer: NodeId) -> bool {
        let lin = &self.lin;
        lin.edge(peer).is_some()
            || lin.wrap_edge(peer).is_some()
            || [Side::Left, Side::Right]
                .iter()
                .any(|&side| lin.pending(side).is_some_and(|ends| ends.contains(&peer)))
            || self.known.is_some_and(|(lo, hi)| peer == lo || peer == hi)
    }
}

/// The adapter's three repair rules, each on unless a test reverts it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Repairs {
    /// `Effect::Abandon` re-adopts a current physical neighbour instead of
    /// forgetting it (DESIGN finding 3's exception).
    pub(crate) abandon_keeps_phys: bool,
    /// The audit re-adopts the nearest physical neighbour on an empty side
    /// (finding 9(b)).
    pub(crate) audit_adopts_phys: bool,
    /// The audit re-sends the probe that claimed a held ring-closure slot
    /// standing in for an empty side (finding 9(a)).
    pub(crate) audit_reprobes_wrap: bool,
}

impl Repairs {
    /// The rules `SsrNode` and the world run.
    pub(crate) const SHIPPED: Repairs = Repairs {
        abandon_keeps_phys: true,
        audit_adopts_phys: true,
        audit_reprobes_wrap: true,
    };
}

/// What one node's step asks of the scheduler, in order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Action {
    /// Send `msg` to `to`.
    Send(NodeId, Msg),
    /// Fire `timer` after `delay` ticks.
    Timer(u64, Timer),
}

/// The output of one node's step.
#[derive(Default, Debug)]
pub(crate) struct Out {
    pub(crate) actions: Vec<Action>,
    /// Handshakes the step started.
    pub(crate) handshakes: u64,
    /// A message went to a node the sender neither holds, knows as an
    /// extreme, nor answers.
    pub(crate) flooded: bool,
}

/// One node's rules for one step: what its control core asks for, carried
/// out over one-tick overlay messages. Each rule mirrors `SsrNode`'s with
/// the route removed.
pub(crate) struct Rules<'a> {
    pub(crate) core: &'a mut Core,
    /// Physical neighbours, ascending.
    pub(crate) phys: &'a [NodeId],
    pub(crate) repairs: Repairs,
    pub(crate) now: u64,
    pub(crate) out: &'a mut Out,
    /// The sender of the message being handled, which may be answered.
    answering: Option<NodeId>,
}

impl<'a> Rules<'a> {
    pub(crate) fn new(
        core: &'a mut Core,
        phys: &'a [NodeId],
        repairs: Repairs,
        now: u64,
        out: &'a mut Out,
    ) -> Self {
        Rules {
            core,
            phys,
            repairs,
            now,
            out,
            answering: None,
        }
    }

    fn send(&mut self, to: NodeId, msg: Msg) {
        if self.answering != Some(to) && !self.core.knows(to) {
            self.out.flooded = true;
        }
        self.out.actions.push(Action::Send(to, msg));
    }

    /// Sends to a ring-closure partner this very step released, which the
    /// node held until now.
    fn send_released(&mut self, to: NodeId, msg: Msg) {
        self.out.actions.push(Action::Send(to, msg));
    }

    /// The physical neighbour nearest on `side` of the node's own id.
    fn nearest_phys(&self, side: Side) -> Option<NodeId> {
        let at = self.phys.partition_point(|&p| p < self.core.id());
        match side {
            Side::Left => at.checked_sub(1).map(|i| self.phys[i]),
            Side::Right => self.phys.get(at).copied(),
        }
    }

    /// Feeds `input` to the control core and carries out what it asks for,
    /// in order.
    pub(crate) fn drive(&mut self, input: Input) {
        let acting = matches!(
            input,
            Input::Timer {
                timer: Timer::Act,
                ..
            }
        );
        for effect in self.core.lin.step(input, self.now) {
            if acting && matches!(effect, Effect::Introduce { .. }) {
                self.out.handshakes += 1;
            }
            self.apply(effect);
        }
    }

    fn apply(&mut self, effect: Effect<()>) {
        let me = self.core.id();
        match effect {
            Effect::SetTimer { delay, timer } => {
                let delay = match timer {
                    Timer::Retry(..) => delay.max(RETRY_FLOOR),
                    Timer::Act | Timer::Discover | Timer::Audit => delay,
                };
                self.out.actions.push(Action::Timer(delay, timer));
            }
            Effect::Introduce {
                keep,
                drop,
                seq,
                to_keep,
                to_drop,
            } => {
                if to_keep {
                    self.send(keep, Msg::Notify { about: drop, seq });
                }
                if to_drop {
                    self.send(drop, Msg::Notify { about: keep, seq });
                }
            }
            // the delegated end retires its half of the edge itself
            Effect::Delegated { .. } => {}
            Effect::WrapDemoted { peer, .. } => self.send_released(peer, Msg::Teardown),
            Effect::Abandon { peer } => {
                if self.repairs.abandon_keeps_phys && self.phys.binary_search(&peer).is_ok() {
                    self.core.lin.adopt(peer, ());
                } else {
                    self.core.lin.remove(peer);
                }
            }
            Effect::Probe { toward } => self.route_discovery(me, toward),
            Effect::Announce { peer, seq, .. } => self.send(peer, Msg::Notify { about: me, seq }),
        }
    }

    /// `msg` from `from` arrived.
    pub(crate) fn receive(&mut self, from: NodeId, msg: Msg) {
        self.answering = Some(from);
        self.core.learn(from);
        match msg {
            Msg::Notify { about, seq } => {
                self.core.learn(about);
                self.core.lin.adopt(about, ());
                // an announcement names its sender, who waits on no answer
                if about != from {
                    self.send(from, Msg::Ack { about, seq });
                } else {
                    self.core.lin.announced_by(from);
                }
                self.drive(Input::Changed);
            }
            Msg::Ack { about, seq } => self.drive(Input::Ack { about, seq }),
            Msg::Teardown => {
                self.core.lin.forget(from);
                self.drive(Input::Changed);
            }
            Msg::Discover { origin, toward } => {
                self.core.learn(origin);
                self.answering = Some(origin);
                self.route_discovery(origin, toward);
            }
            Msg::CloseRing { toward } => {
                self.core.lin.probe_answered(toward);
                let slot = toward.opposite();
                let held = self.core.lin.wrap(slot);
                self.claim_wrap(slot, from);
                if self.core.lin.wrap(slot) != held {
                    self.drive(Input::Changed);
                }
            }
        }
        self.answering = None;
    }

    /// A probe from `origin` is here: pass it on toward the extreme, or
    /// accept it.
    fn route_discovery(&mut self, origin: NodeId, toward: Side) {
        match self.core.probe_next(toward) {
            Some(next) => self.send(next, Msg::Discover { origin, toward }),
            None => {
                // a believed extreme: the probe's origin claims the slot
                if origin != self.core.id() && self.claim_wrap(toward, origin) {
                    self.send(origin, Msg::CloseRing { toward });
                }
            }
        }
    }

    /// Offers `claimant` for the ring-closure slot `slot`; `true` if it
    /// holds the slot afterwards. The loser of a contest is introduced to
    /// the winner.
    fn claim_wrap(&mut self, slot: Side, claimant: NodeId) -> bool {
        self.core.learn(claimant);
        match self.core.lin.offer_wrap(slot, claimant, ()) {
            WrapVerdict::Installed => true,
            WrapVerdict::Replaced { old, .. } => {
                let seq = self.core.lin.next_seq();
                let about = claimant;
                self.send_released(old, Msg::Notify { about, seq });
                true
            }
            WrapVerdict::Redirect { holder } => {
                let seq = self.core.lin.next_seq();
                self.send(claimant, Msg::Notify { about: holder, seq });
                false
            }
        }
    }

    /// `timer` fired. The audit round first looks at empty sides: a
    /// physical neighbour on one is re-adopted; with none, a held
    /// ring-closure edge is re-probed.
    pub(crate) fn fire(&mut self, timer: Timer) {
        if timer == Timer::Audit {
            let mut readopted = false;
            for side in [Side::Left, Side::Right] {
                if !self.core.lin.side(side).is_empty() {
                    continue;
                }
                if let Some(nbr) = self.nearest_phys(side) {
                    if self.repairs.audit_adopts_phys {
                        readopted |= self.core.lin.adopt(nbr, ());
                    }
                } else if self.repairs.audit_reprobes_wrap && self.core.lin.wrap(side).is_some() {
                    self.route_discovery(self.core.id(), side.opposite());
                }
            }
            if readopted {
                self.drive(Input::Changed);
            }
        }
        let routable = self.core.known.is_some();
        self.drive(Input::Timer { timer, routable });
    }
}

/// One node: its control core and what it knows, its physical neighbours,
/// and the handshakes it started.
#[derive(Clone, Debug)]
struct Node {
    core: Core,
    /// Physical neighbours, ascending.
    phys: Vec<NodeId>,
    handshakes: u64,
}

impl Linearized for Node {
    type Edge = ();

    fn linearizer(&self) -> &Linearizer<()> {
        &self.core.lin
    }
}

enum Event {
    Deliver { to: usize, from: NodeId, msg: Msg },
    Timer { node: usize, timer: Timer },
}

/// The physical neighbours of every node, ascending, and the `(id, index)`
/// pairs ascending by id.
pub(crate) fn adjacency(
    graph: &Graph,
    labels: &Labeling,
) -> (Vec<Vec<NodeId>>, Vec<(NodeId, usize)>) {
    let n = graph.node_count();
    assert_eq!(labels.len(), n, "one id per node");
    let phys = (0..n)
        .map(|u| {
            let mut phys: Vec<NodeId> = graph.neighbors(u).map(|v| labels.id(v)).collect();
            phys.sort_unstable();
            phys
        })
        .collect();
    let mut index: Vec<(NodeId, usize)> = (0..n).map(|u| (labels.id(u), u)).collect();
    index.sort_unstable();
    (phys, index)
}

/// The world: nodes, the pending events by tick, and the bill.
pub struct World {
    nodes: Vec<Node>,
    /// `(id, index)` ascending by id.
    index: Vec<(NodeId, usize)>,
    wheel: BTreeMap<u64, VecDeque<Event>>,
    now: u64,
    rng: Rng,
    faults: Faults,
    repairs: Repairs,
    sent: [u64; 5],
    dropped: u64,
    /// The scratch output of one step, kept for its capacity.
    out: Out,
    /// What a replay of a checker's violation plans and watches; a plain
    /// run has none.
    replay: Option<Replay>,
}

/// The faults a replay places, and what it watches for.
#[derive(Default)]
struct Replay {
    /// Sends so far, and the fate planned for some of them by ordinal:
    /// `false` loses the message, `true` delivers it twice.
    sends: u64,
    fates: BTreeMap<u64, bool>,
    /// A planned burst of loss: every message from the first id to the
    /// second sent in the tick range is lost.
    burst: Option<(NodeId, NodeId, std::ops::Range<u64>)>,
    /// Some step sent to a node it neither held, knew nor answered.
    flooded: bool,
}

impl Replay {
    /// The planned fate of the next send, from `from` to `to` at `now`.
    fn fate(&mut self, from: NodeId, to: NodeId, now: u64) -> Option<bool> {
        let fate = self.fates.get(&self.sends).copied();
        self.sends += 1;
        let burst = self.burst.as_ref();
        if burst.is_some_and(|(a, b, ticks)| (*a, *b) == (from, to) && ticks.contains(&now)) {
            return Some(false);
        }
        fate
    }
}

impl World {
    /// A world over `graph`, node `u` carrying `labels.id(u)`, with every
    /// physical neighbour adopted at tick 0 and messages scheduled under
    /// `faults`.
    pub fn new(graph: &Graph, labels: &Labeling, faults: Faults) -> World {
        let (phys, _) = adjacency(graph, labels);
        let cores = (0..phys.len())
            .map(|u| Core::new(labels.id(u), &phys[u]))
            .collect();
        World::from_cores(graph, labels, cores, faults, Repairs::SHIPPED)
    }

    /// A world over `graph` whose node `u` starts as `cores[u]`.
    pub(crate) fn from_cores(
        graph: &Graph,
        labels: &Labeling,
        cores: Vec<Core>,
        faults: Faults,
        repairs: Repairs,
    ) -> World {
        let (phys, index) = adjacency(graph, labels);
        let nodes = phys
            .into_iter()
            .zip(cores)
            .map(|(phys, core)| Node {
                core,
                phys,
                handshakes: 0,
            })
            .collect();
        let mut world = World {
            nodes,
            index,
            wheel: BTreeMap::new(),
            now: 0,
            rng: Rng::new(faults.seed),
            faults,
            repairs,
            sent: [0; 5],
            dropped: 0,
            out: Out::default(),
            replay: None,
        };
        for u in 0..world.nodes.len() {
            world.step(u, |rules| rules.drive(Input::Changed));
        }
        world
    }

    /// The nodes' control cores, in index order.
    pub fn linearizers(&self) -> impl Iterator<Item = &Linearizer<()>> + '_ {
        self.nodes.iter().map(|node| &node.core.lin)
    }

    /// Plans the fate of sends by ordinal (`false` loses the message,
    /// `true` delivers it twice) and a burst of loss, and starts watching
    /// for floods: the run is a replay.
    pub(crate) fn plan(
        &mut self,
        fates: BTreeMap<u64, bool>,
        burst: Option<(NodeId, NodeId, std::ops::Range<u64>)>,
    ) {
        self.replay = Some(Replay {
            fates,
            burst,
            ..Replay::default()
        });
    }

    /// Whether a run of `budget` ticks violates `property`: no ring at the
    /// end, a legitimate state ([`legitimate`]) whose ring breaks again, a
    /// send to a node its sender does not know, or a virtual union graph
    /// that splits after starting connected.
    pub(crate) fn violates(&mut self, property: Property, budget: u64) -> bool {
        let mut settled = false;
        let mut connected = self.connected();
        while self.now < budget {
            self.tick();
            match property {
                Property::Convergence | Property::NoFlood => {}
                Property::Closure => {
                    if settled && !check_ring(&self.nodes).consistent() {
                        return true;
                    }
                    settled |= legitimate(&self.nodes, &self.index, self.in_flight());
                }
                Property::Connectivity => {
                    let was = std::mem::replace(&mut connected, self.connected());
                    if was && !connected {
                        return true;
                    }
                }
            }
            if property == Property::NoFlood && self.replay.as_ref().is_some_and(|r| r.flooded) {
                return true;
            }
        }
        property == Property::Convergence && !check_ring(&self.nodes).consistent()
    }

    /// The messages in flight: receiver index, sender and message.
    fn in_flight(&self) -> impl Iterator<Item = (usize, NodeId, Msg)> + '_ {
        self.wheel
            .values()
            .flatten()
            .filter_map(|event| match *event {
                Event::Deliver { to, from, msg } => Some((to, from, msg)),
                Event::Timer { .. } => None,
            })
    }

    /// The virtual union graph, with the notifications in flight.
    fn connected(&self) -> bool {
        let cores: Vec<&Core> = self.nodes.iter().map(|n| &n.core).collect();
        let notifies = self.in_flight().filter_map(|(to, _, msg)| match msg {
            Msg::Notify { about, .. } => Some((to, about)),
            Msg::Ack { .. } | Msg::Teardown | Msg::Discover { .. } | Msg::CloseRing { .. } => None,
        });
        union_connected(&cores, &self.index, notifies)
    }

    /// Runs until the ring is consistent at a check, or `budget` ticks.
    pub fn run(&mut self, budget: u64) -> WorldRun {
        let converged = loop {
            if self.now.is_multiple_of(CHECK_EVERY) && check_ring(&self.nodes).consistent() {
                break true;
            }
            if self.now >= budget {
                break false;
            }
            self.tick();
        };
        WorldRun {
            converged,
            ticks: self.now,
            sent: self.sent,
            dropped: self.dropped,
            max_degree: self.nodes.iter().map(|n| n.phys.len()).max().unwrap_or(0),
            max_handshakes: self.nodes.iter().map(|n| n.handshakes).max().unwrap_or(0),
        }
    }

    /// Carries out every event due at the current tick, then advances it.
    fn tick(&mut self) {
        while let Some(event) = self.wheel.get_mut(&self.now).and_then(VecDeque::pop_front) {
            match event {
                Event::Deliver { to, from, msg } => self.step(to, |rules| rules.receive(from, msg)),
                Event::Timer { node, timer } => self.step(node, |rules| rules.fire(timer)),
            }
        }
        self.wheel.remove(&self.now);
        self.now += 1;
    }

    fn at(&mut self, tick: u64, event: Event) {
        self.wheel.entry(tick).or_default().push_back(event);
    }

    /// Runs one step of node `u`'s rules and schedules what it asks for,
    /// in order.
    fn step(&mut self, u: usize, rules: impl FnOnce(&mut Rules<'_>)) {
        let mut out = std::mem::take(&mut self.out);
        let node = &mut self.nodes[u];
        rules(&mut Rules::new(
            &mut node.core,
            &node.phys,
            self.repairs,
            self.now,
            &mut out,
        ));
        node.handshakes += std::mem::take(&mut out.handshakes);
        let flooded = std::mem::take(&mut out.flooded);
        if let Some(replay) = &mut self.replay {
            replay.flooded |= flooded;
        }
        for action in out.actions.drain(..) {
            match action {
                Action::Send(to, msg) => self.send(u, to, msg),
                Action::Timer(delay, timer) => {
                    self.at(self.now + delay, Event::Timer { node: u, timer });
                }
            }
        }
        self.out = out;
    }

    fn send(&mut self, from: usize, to: NodeId, msg: Msg) {
        let sender = self.nodes[from].core.id();
        self.sent[msg.class(sender)] += 1;
        let fate = self
            .replay
            .as_mut()
            .and_then(|r| r.fate(sender, to, self.now));
        let at = self.index.binary_search_by_key(&to, |&(id, _)| id);
        let to = self.index[at.expect("messages go to known nodes")].1;
        let (rng, faults) = (&mut self.rng, self.faults);
        if rng.chance(faults.drop) || fate == Some(false) {
            self.dropped += 1;
            return;
        }
        // one tick each, plus any reorder delay; a duplicate is a second copy
        let mut delays = [1; 2];
        let copies = if rng.chance(faults.dup) || fate == Some(true) {
            2
        } else {
            1
        };
        for delay in &mut delays[..copies] {
            if rng.chance(faults.reorder) {
                *delay += rng.range(1, faults.window.max(1) + 1);
            }
        }
        for delay in &delays[..copies] {
            self.at(
                self.now + delay,
                Event::Deliver {
                    to,
                    from: sender,
                    msg,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssr_graph::generators;

    fn unit_disk(n: usize, seed: u64) -> (Graph, Labeling) {
        let mut rng = Rng::new(seed);
        let (mut g, _) = generators::unit_disk_connected(n, 1.3, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        let labels = Labeling::random(n, &mut rng);
        (g, labels)
    }

    fn power_law(n: usize, seed: u64) -> (Graph, Labeling) {
        let mut rng = Rng::new(seed);
        let mut g = generators::powerlaw_configuration(n, 2.0, 2, None, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        let labels = Labeling::random(n, &mut rng);
        (g, labels)
    }

    fn converges(g: &Graph, labels: &Labeling, faults: Faults, budget: u64) -> WorldRun {
        let mut world = World::new(g, labels, faults);
        let run = world.run(budget);
        assert!(run.converged, "no ring within {budget} ticks: {run:?}");
        assert_eq!(run.ticks % CHECK_EVERY, 0);
        run
    }

    #[test]
    fn it_converges_on_unit_disk_graphs() {
        for n in [16, 50, 200] {
            for seed in 1..=5 {
                let (g, labels) = unit_disk(n, seed);
                let run = converges(&g, &labels, Faults::NONE, 20_000);
                assert_eq!(run.dropped, 0);
                assert!(run.sent[0] > 0 && run.sent[2] > 0, "{run:?}");
            }
        }
    }

    #[test]
    fn it_converges_on_power_law_graphs() {
        for n in [50, 200] {
            for seed in 1..=5 {
                let (g, labels) = power_law(n, seed);
                let run = converges(&g, &labels, Faults::NONE, 20_000);
                assert!(run.max_handshakes > 0);
            }
        }
    }

    #[test]
    fn a_run_is_a_function_of_its_inputs() {
        let (g, labels) = unit_disk(50, 3);
        let faults = Faults {
            seed: 9,
            drop: 0.05,
            dup: 0.1,
            reorder: 0.15,
            window: 6,
        };
        for faults in [Faults::NONE, faults] {
            let a = World::new(&g, &labels, faults).run(20_000);
            let b = World::new(&g, &labels, faults).run(20_000);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn two_nodes_close_the_ring_over_their_link() {
        let g = generators::line(2);
        let labels = Labeling::from_ids(vec![NodeId(7), NodeId(3)]);
        let mut world = World::new(&g, &labels, Faults::NONE);
        let run = world.run(1_000);
        assert!(run.converged);
        let lins: Vec<_> = world.linearizers().collect();
        assert_eq!(lins[0].ring_neighbor(Side::Right), Some(NodeId(3)));
        assert_eq!(lins[1].ring_neighbor(Side::Left), Some(NodeId(7)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Lost, duplicated and delayed messages slow the core down; they
        /// never stop it reaching the ring.
        #[test]
        fn drop_dup_reorder_schedules_converge(
            n in 3usize..60,
            power_law_graph in any::<bool>(),
            graph_seed in any::<u64>(),
            seed in any::<u64>(),
            drop in 0.0f64..0.3,
            dup in 0.0f64..0.3,
            reorder in 0.0f64..0.4,
            window in 1u64..10,
        ) {
            let (g, labels) = if power_law_graph {
                power_law(n, graph_seed)
            } else {
                unit_disk(n, graph_seed)
            };
            let faults = Faults { seed, drop, dup, reorder, window };
            let run = World::new(&g, &labels, faults).run(200_000);
            prop_assert!(run.converged, "{:?}", run);
        }
    }
}
