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

/// One node: its control core, its physical neighbours and what it knows.
#[derive(Clone, Debug)]
struct Node {
    lin: Linearizer<()>,
    /// Physical neighbours, ascending.
    phys: Vec<NodeId>,
    /// The smallest and largest id heard from or of.
    known: Option<(NodeId, NodeId)>,
    /// Handshakes this node started.
    handshakes: u64,
}

impl Linearized for Node {
    type Edge = ();

    fn linearizer(&self) -> &Linearizer<()> {
        &self.lin
    }
}

impl Node {
    fn id(&self) -> NodeId {
        self.lin.id()
    }

    /// The physical neighbour nearest on `side` of the node's own id.
    fn nearest_phys(&self, side: Side) -> Option<NodeId> {
        let at = self.phys.partition_point(|&p| p < self.id());
        match side {
            Side::Left => at.checked_sub(1).map(|i| self.phys[i]),
            Side::Right => self.phys.get(at).copied(),
        }
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
}

enum Event {
    Deliver { to: usize, from: NodeId, msg: Msg },
    Timer { node: usize, timer: Timer },
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
    sent: [u64; 5],
    dropped: u64,
}

impl World {
    /// A world over `graph`, node `u` carrying `labels.id(u)`, with every
    /// physical neighbour adopted at tick 0 and messages scheduled under
    /// `faults`.
    pub fn new(graph: &Graph, labels: &Labeling, faults: Faults) -> World {
        let n = graph.node_count();
        assert_eq!(labels.len(), n, "one id per node");
        let nodes = (0..n)
            .map(|u| {
                let mut phys: Vec<NodeId> = graph.neighbors(u).map(|v| labels.id(v)).collect();
                phys.sort_unstable();
                let mut lin = Linearizer::new(labels.id(u), true);
                for &p in &phys {
                    lin.adopt(p, ());
                }
                Node {
                    lin,
                    known: phys.first().zip(phys.last()).map(|(&lo, &hi)| (lo, hi)),
                    phys,
                    handshakes: 0,
                }
            })
            .collect();
        let mut index: Vec<(NodeId, usize)> = (0..n).map(|u| (labels.id(u), u)).collect();
        index.sort_unstable();
        let mut world = World {
            nodes,
            index,
            wheel: BTreeMap::new(),
            now: 0,
            rng: Rng::new(faults.seed),
            faults,
            sent: [0; 5],
            dropped: 0,
        };
        for u in 0..n {
            world.drive(u, Input::Changed);
        }
        world
    }

    /// The nodes' control cores, in index order.
    pub fn linearizers(&self) -> impl Iterator<Item = &Linearizer<()>> + '_ {
        self.nodes.iter().map(|node| &node.lin)
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
                Event::Deliver { to, from, msg } => self.receive(to, from, msg),
                Event::Timer { node, timer } => self.fire(node, timer),
            }
        }
        self.wheel.remove(&self.now);
        self.now += 1;
    }

    fn at(&mut self, tick: u64, event: Event) {
        self.wheel.entry(tick).or_default().push_back(event);
    }

    fn send(&mut self, from: usize, to: NodeId, msg: Msg) {
        let sender = self.nodes[from].id();
        self.sent[msg.class(sender)] += 1;
        let at = self.index.binary_search_by_key(&to, |&(id, _)| id);
        let to = self.index[at.expect("messages go to known nodes")].1;
        let (rng, faults) = (&mut self.rng, self.faults);
        if rng.chance(faults.drop) {
            self.dropped += 1;
            return;
        }
        // one tick each, plus any reorder delay; a duplicate is a second copy
        let mut delays = [1; 2];
        let copies = if rng.chance(faults.dup) { 2 } else { 1 };
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

    /// Feeds `input` to node `u`'s control core and carries out what it
    /// asks for, in order.
    fn drive(&mut self, u: usize, input: Input) {
        let acting = matches!(
            input,
            Input::Timer {
                timer: Timer::Act,
                ..
            }
        );
        for effect in self.nodes[u].lin.step(input, self.now) {
            if acting && matches!(effect, Effect::Introduce { .. }) {
                self.nodes[u].handshakes += 1;
            }
            self.apply(u, effect);
        }
    }

    fn apply(&mut self, u: usize, effect: Effect<()>) {
        let me = self.nodes[u].id();
        match effect {
            Effect::SetTimer { delay, timer } => {
                let delay = match timer {
                    Timer::Retry(..) => delay.max(RETRY_FLOOR),
                    Timer::Act | Timer::Discover | Timer::Audit => delay,
                };
                self.at(self.now + delay, Event::Timer { node: u, timer });
            }
            Effect::Introduce {
                keep,
                drop,
                seq,
                to_keep,
                to_drop,
            } => {
                if to_keep {
                    self.send(u, keep, Msg::Notify { about: drop, seq });
                }
                if to_drop {
                    self.send(u, drop, Msg::Notify { about: keep, seq });
                }
            }
            // the delegated end retires its half of the edge itself
            Effect::Delegated { .. } => {}
            Effect::WrapDemoted { peer, .. } => self.send(u, peer, Msg::Teardown),
            Effect::Abandon { peer } => {
                let node = &mut self.nodes[u];
                if node.phys.binary_search(&peer).is_ok() {
                    node.lin.adopt(peer, ());
                } else {
                    node.lin.remove(peer);
                }
            }
            Effect::Probe { toward } => self.route_discovery(u, me, toward),
            Effect::Announce { peer, seq, .. } => {
                self.send(u, peer, Msg::Notify { about: me, seq });
            }
        }
    }

    fn receive(&mut self, u: usize, from: NodeId, msg: Msg) {
        let node = &mut self.nodes[u];
        node.learn(from);
        match msg {
            Msg::Notify { about, seq } => {
                node.learn(about);
                node.lin.adopt(about, ());
                // an announcement names its sender, who waits on no answer
                if about != from {
                    self.send(u, from, Msg::Ack { about, seq });
                }
                self.drive(u, Input::Changed);
            }
            Msg::Ack { about, seq } => self.drive(u, Input::Ack { about, seq }),
            Msg::Teardown => {
                node.lin.forget(from);
                self.drive(u, Input::Changed);
            }
            Msg::Discover { origin, toward } => {
                node.learn(origin);
                self.route_discovery(u, origin, toward);
            }
            Msg::CloseRing { toward } => {
                node.lin.probe_answered(toward);
                let slot = toward.opposite();
                let held = node.lin.wrap(slot);
                self.claim_wrap(u, slot, from);
                if self.nodes[u].lin.wrap(slot) != held {
                    self.drive(u, Input::Changed);
                }
            }
        }
    }

    /// A probe from `origin` is at node `u`: pass it on toward the extreme,
    /// or accept it here.
    fn route_discovery(&mut self, u: usize, origin: NodeId, toward: Side) {
        match self.nodes[u].probe_next(toward) {
            Some(next) => self.send(u, next, Msg::Discover { origin, toward }),
            None => {
                // a believed extreme: the probe's origin claims the slot
                if origin != self.nodes[u].id() && self.claim_wrap(u, toward, origin) {
                    self.send(u, origin, Msg::CloseRing { toward });
                }
            }
        }
    }

    /// Offers `claimant` for node `u`'s ring-closure slot `slot`; `true` if
    /// it holds the slot afterwards. The loser of a contest is introduced
    /// to the winner.
    fn claim_wrap(&mut self, u: usize, slot: Side, claimant: NodeId) -> bool {
        let node = &mut self.nodes[u];
        node.learn(claimant);
        match node.lin.offer_wrap(slot, claimant, ()) {
            WrapVerdict::Installed => true,
            WrapVerdict::Replaced { old, .. } => {
                let seq = node.lin.next_seq();
                self.send(
                    u,
                    old,
                    Msg::Notify {
                        about: claimant,
                        seq,
                    },
                );
                true
            }
            WrapVerdict::Redirect { holder } => {
                let seq = node.lin.next_seq();
                self.send(u, claimant, Msg::Notify { about: holder, seq });
                false
            }
        }
    }

    /// A timer of node `u` fired. The audit round first looks at empty
    /// sides: a physical neighbour on one is re-adopted; with none, a held
    /// ring-closure edge is re-probed.
    fn fire(&mut self, u: usize, timer: Timer) {
        if timer == Timer::Audit {
            let mut readopted = false;
            for side in [Side::Left, Side::Right] {
                let node = &mut self.nodes[u];
                if !node.lin.side(side).is_empty() {
                    continue;
                }
                if let Some(nbr) = node.nearest_phys(side) {
                    readopted |= node.lin.adopt(nbr, ());
                } else if node.lin.wrap(side).is_some() {
                    let me = node.id();
                    self.route_discovery(u, me, side.opposite());
                }
            }
            if readopted {
                self.drive(u, Input::Changed);
            }
        }
        let routable = self.nodes[u].known.is_some();
        self.drive(u, Input::Timer { timer, routable });
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
