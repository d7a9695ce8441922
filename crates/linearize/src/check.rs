//! The exhaustive checker: every schedule of a small [`world`](crate::world),
//! explored state by state (ROADMAP item 1(b)).
//!
//! A global state is the world's nodes — bare `Linearizer<()>`s and what
//! each knows — plus the overlay messages in flight and what is left of the
//! fault budget. It runs the world's own rules ([`World`] and the checker
//! share them), from a [`Start`]: the tick-0 state of a physical graph, or
//! any overlay, since self-stabilization promises the ring from any state.
//! From each state the checker branches on every way the next step can go:
//!
//! * **delivery order** — any message in flight may arrive next (a channel
//!   is a bag, not a queue);
//! * **drop** and **duplicate** — any message in flight may be lost or
//!   copied, while the budget ([`Bounds::drops`], [`Bounds::dups`]) lasts;
//! * **timer firing** — an armed retry timer may fire at any point, so a
//!   handshake can run out of retries before its first answer is back; the
//!   audit timer may fire while nothing but announcements is in flight, so
//!   a round can run before a peer's announcement is in, and two ends can
//!   both announce in one interval and both skip the next; the act and
//!   discovery timers fire, in any order, once no message is in flight.
//!   Timers are untimed: no tick is kept, and the checker sees
//!   schedules the real timers never produce. A violation is therefore
//!   replayed under FIFO-ticks timing (the [`World`], with drops and
//!   duplicates placed on chosen sends or one link losing everything for a
//!   while) and counts as [`Violation::confirmed`] only if a replay shows
//!   it too. Firing every timer at any point multiplies the states by about
//!   120 on three nodes (1 536 834 against 12 792 from the fresh starts,
//!   before the announcement records) and found only livelocks no replay
//!   confirms.
//!
//! Channels are bounded: a step that sends on a directed pair already
//! holding [`CHANNEL`] messages is not enabled until the pair drains.
//!
//! States are canonical before they are hashed. Sequence numbers grow
//! without bound, so each node's live ones — those of its handshakes in
//! flight — are renumbered by rank and every other one becomes 0
//! (`Linearizer::renumber_seqs`); in-flight messages are renumbered with
//! them. A stale retry timer, whose firing does nothing, is not part of the
//! state: the armed timers are read off the control core's flags. A state
//! is kept as a 128-bit fingerprint of its canonical form, so a collision,
//! with probability about `states² / 2¹²⁸`, would merge two states.
//!
//! The properties are the two halves of self-stabilization and two safety
//! invariants ([`Property`]). There is no terminal state — the audit timer
//! never stops — so convergence is checked as "no fair cycle of non-ring
//! states", over the strongly connected components of the state graph. A
//! cycle is fair when every delivery or timer enabled somewhere on it is
//! taken on it: strong fairness, because a bounded channel can disable a
//! step now and then. A timer held back until the network drains counts as
//! enabled: a real one fires within its delay, so a cycle that keeps
//! announcements in flight for ever and never lets an armed act timer fire
//! is not fair. Faults are never on a cycle: each one spends budget.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use ssr_graph::{Graph, Labeling};
use ssr_types::{NodeId, Side};

use crate::control::{Input, Timer, DISCOVER_DELAY};
use crate::observe::{all_locally_consistent, check_ring, Linearized};
use crate::world::{adjacency, Action, Core, Faults, Msg, Out, Repairs, Rules, World};

/// The tick an untimed step runs at: past the settle delay, so an act may
/// probe.
const UNTIMED_NOW: u64 = DISCOVER_DELAY;

/// Tick budget of a FIFO-ticks replay.
const REPLAY_BUDGET: u64 = 5_000;

/// Length of a replayed burst of loss: longer than a handshake's whole
/// retry schedule (744 ticks), so it is abandoned.
const BURST: u64 = 1_000;

/// Bursts are replayed starting at every fourth tick below this.
const BURST_STARTS: u64 = 120;

/// Most messages in flight on one directed pair of nodes. Without a bound
/// an audit timer, which never stops, could fire ahead of every delivery
/// for ever.
pub const CHANNEL: usize = 1;

/// How many faults one check allows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Bounds {
    /// Messages that may be lost over a whole schedule.
    pub drops: u8,
    /// Messages that may arrive twice over a whole schedule.
    pub dups: u8,
}

/// What the checker checks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Property {
    /// Every fault-free step from a legitimate state — the ring, every
    /// node locally consistent, no tear-down in flight — leads to a ring
    /// state.
    Closure,
    /// No fair strongly connected component of non-ring states: every fair
    /// schedule reaches the ring.
    Convergence,
    /// No step sends to a node its sender neither holds, knows as an
    /// extreme, nor answers.
    NoFlood,
    /// The virtual union graph — side sets, ring-closure slots and the
    /// edges notifications in flight introduce — stays connected if it
    /// starts connected. Physical links are left out: they connect every
    /// start, so with them the property could not fail.
    Connectivity,
}

/// One violated property on one start.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// What was violated.
    pub property: Property,
    /// Drops on the witness schedule.
    pub drops: u8,
    /// Duplicates on the witness schedule.
    pub dups: u8,
    /// A FIFO-ticks run from the same start, with no more drops and
    /// duplicates than the witness, violates the property too.
    pub confirmed: bool,
}

/// What one check found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Distinct canonical states reached.
    pub states: u64,
    /// States in which the ring is consistent.
    pub ring_states: u64,
    /// At most one violation per property.
    pub violations: Vec<Violation>,
}

impl Report {
    /// Violations a FIFO-ticks replay confirmed.
    pub fn confirmed(&self) -> usize {
        self.violations.iter().filter(|v| v.confirmed).count()
    }

    fn absorb(&mut self, other: Report) {
        self.states += other.states;
        self.ring_states += other.ring_states;
        self.violations.extend(other.violations);
    }
}

/// What one node holds: its side-set members and its (left, right)
/// ring-closure partners.
pub type Held = (Vec<NodeId>, [Option<NodeId>; 2]);

/// Where the checked schedules begin: the world's nodes on a physical
/// graph, each holding its physical neighbours as at tick 0, or holding a
/// given overlay — self-stabilization promises the ring from any state.
#[derive(Clone, Debug)]
pub struct Start {
    /// The physical graph.
    pub graph: Graph,
    /// Node `u` carries `labels.id(u)`.
    pub labels: Labeling,
    /// What each node holds, in index order; `None` is tick 0.
    pub overlay: Option<Vec<Held>>,
}

impl Start {
    /// Tick 0 on `graph`.
    pub fn fresh(graph: Graph, labels: Labeling) -> Start {
        Start {
            graph,
            labels,
            overlay: None,
        }
    }

    fn cores(&self) -> Vec<Core> {
        let (phys, _) = adjacency(&self.graph, &self.labels);
        (0..phys.len())
            .map(|u| {
                let id = self.labels.id(u);
                match &self.overlay {
                    None => Core::new(id, &phys[u]),
                    Some(held) => Core::holding(id, &phys[u], &held[u].0, held[u].1),
                }
            })
            .collect()
    }

    fn world(&self, repairs: Repairs) -> World {
        let cores = self.cores();
        World::from_cores(&self.graph, &self.labels, cores, Faults::NONE, repairs)
    }
}

/// A message in flight.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Flight {
    /// Index of the receiver.
    to: usize,
    from: NodeId,
    msg: Msg,
}

impl Flight {
    /// The sort key of the canonical bag.
    fn key(&self) -> (usize, NodeId, u8, NodeId, u32) {
        let (tag, id, seq) = match self.msg {
            Msg::Notify { about, seq } => (0, about, seq.0),
            Msg::Ack { about, seq } => (1, about, seq.0),
            Msg::Teardown => (2, NodeId(0), 0),
            Msg::Discover { origin, toward } => (3 + toward as u8, origin, 0),
            Msg::CloseRing { toward } => (5 + toward as u8, NodeId(0), 0),
        };
        (self.to, self.from, tag, id, seq)
    }

    /// An audit announcement: a notification naming its sender.
    fn announces(&self) -> bool {
        matches!(self.msg, Msg::Notify { about, .. } if about == self.from)
    }

    /// The fairness task of delivering it: the message with its seq left
    /// out, so a message keeps its task while other seqs are renumbered.
    fn task(&self) -> Task {
        let (to, from, tag, id, _) = self.key();
        Task::Deliver(to, from, tag, id)
    }
}

/// A delivery or a timer: what fairness promises to take eventually.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Task {
    Deliver(usize, NodeId, u8, NodeId),
    Fire(usize, u8),
}

fn timer_tag(timer: Timer) -> u8 {
    match timer {
        Timer::Act => 0,
        Timer::Retry(side, _) => 1 + side as u8,
        Timer::Discover => 3,
        Timer::Audit => 4,
    }
}

/// One step of a schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Move {
    Deliver(usize),
    Drop(usize),
    Dup(usize),
    Fire(usize, Timer),
}

/// A global state.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    cores: Vec<Core>,
    /// Messages in flight, sorted by [`Flight::key`].
    flights: Vec<Flight>,
    drops: u8,
    dups: u8,
}

/// The fixed part of a check: the start and the rules.
struct Model<'a> {
    start: &'a Start,
    phys: Vec<Vec<NodeId>>,
    index: Vec<(NodeId, usize)>,
    repairs: Repairs,
    bounds: Bounds,
}

/// What a step did besides moving to its successor.
struct Stepped {
    state: State,
    flooded: bool,
}

impl Model<'_> {
    fn index_of(&self, id: NodeId) -> usize {
        let at = self.index.binary_search_by_key(&id, |&(id, _)| id);
        self.index[at.expect("messages go to known nodes")].1
    }

    fn start(&self) -> State {
        let mut state = State {
            cores: self.start.cores(),
            flights: Vec::new(),
            drops: self.bounds.drops,
            dups: self.bounds.dups,
        };
        for u in 0..state.cores.len() {
            let stepped = self.run(&state, u, |rules| rules.drive(Input::Changed));
            state = stepped.expect("a change sends nothing").state;
        }
        state
    }

    /// Runs one step of node `u`'s rules on a copy of `state`; `None` if it
    /// sends on a pair that is already full.
    fn run(&self, state: &State, u: usize, rules: impl FnOnce(&mut Rules<'_>)) -> Option<Stepped> {
        let mut next = state.clone();
        let mut out = Out::default();
        rules(&mut Rules::new(
            &mut next.cores[u],
            &self.phys[u],
            self.repairs,
            UNTIMED_NOW,
            &mut out,
        ));
        let from = next.cores[u].lin.id();
        for action in out.actions {
            // the armed timers are read off the core's flags
            if let Action::Send(to, msg) = action {
                let to = self.index_of(to);
                if self.in_flight(state, to, from) >= CHANNEL {
                    return None;
                }
                next.flights.push(Flight { to, from, msg });
            }
        }
        Some(Stepped {
            state: next,
            flooded: out.flooded,
        })
    }

    /// Messages in flight from `from` to node `to`.
    fn in_flight(&self, state: &State, to: usize, from: NodeId) -> usize {
        let pair = |f: &&Flight| f.to == to && f.from == from;
        state.flights.iter().filter(pair).count()
    }

    /// Every step enabled in `state`, with its fairness task (`None` for a
    /// fault), and the tasks of the armed timers held back.
    fn moves(&self, state: &State) -> (Vec<(Move, Option<Task>)>, Vec<Task>) {
        let (mut moves, mut held) = (Vec::new(), Vec::new());
        for (i, flight) in state.flights.iter().enumerate() {
            if i > 0 && state.flights[i - 1] == *flight {
                continue; // an identical copy: the same successors
            }
            moves.push((Move::Deliver(i), Some(flight.task())));
            if state.drops > 0 {
                moves.push((Move::Drop(i), None));
            }
            if state.dups > 0 {
                moves.push((Move::Dup(i), None));
            }
        }
        let quiet = state.flights.is_empty();
        let announcing = state.flights.iter().all(Flight::announces);
        for (u, core) in state.cores.iter().enumerate() {
            for timer in core.lin.armed_timers() {
                let task = Task::Fire(u, timer_tag(timer));
                let enabled = match timer {
                    Timer::Retry(..) => true,
                    Timer::Audit => announcing,
                    Timer::Act | Timer::Discover => quiet,
                };
                if enabled {
                    moves.push((Move::Fire(u, timer), Some(task)));
                } else {
                    held.push(task);
                }
            }
        }
        (moves, held)
    }

    /// The canonical successor of `state` under `mv`, if it is enabled.
    fn apply(&self, state: &State, mv: Move) -> Option<Stepped> {
        let stepped = match mv {
            Move::Deliver(i) => {
                let flight = state.flights[i];
                let mut rest = state.clone();
                rest.flights.remove(i);
                self.run(&rest, flight.to, |rules| {
                    rules.receive(flight.from, flight.msg)
                })?
            }
            Move::Drop(i) => {
                let mut next = state.clone();
                next.flights.remove(i);
                next.drops -= 1;
                Stepped {
                    state: next,
                    flooded: false,
                }
            }
            Move::Dup(i) => {
                let mut next = state.clone();
                next.flights.push(state.flights[i]);
                next.dups -= 1;
                Stepped {
                    state: next,
                    flooded: false,
                }
            }
            Move::Fire(u, timer) => self.run(state, u, |rules| rules.fire(timer))?,
        };
        Some(Stepped {
            state: self.canonical(stepped.state),
            flooded: stepped.flooded,
        })
    }

    /// Renumbers every node's seqs by rank and sorts the bag.
    fn canonical(&self, mut state: State) -> State {
        let maps: Vec<_> = state
            .cores
            .iter_mut()
            .map(|core| core.lin.renumber_seqs())
            .collect();
        for flight in &mut state.flights {
            match &mut flight.msg {
                // a notification carries its sender's seq, an ack its
                // receiver's
                Msg::Notify { seq, .. } => *seq = maps[self.index_of(flight.from)](*seq),
                Msg::Ack { seq, .. } => *seq = maps[flight.to](*seq),
                Msg::Teardown | Msg::Discover { .. } | Msg::CloseRing { .. } => {}
            }
        }
        state.flights.sort_by_key(Flight::key);
        state
    }

    fn ring(&self, state: &State) -> bool {
        check_ring(&state.cores).consistent()
    }

    fn legitimate(&self, state: &State) -> bool {
        let flights = state.flights.iter().map(|f| (f.to, f.from, f.msg));
        legitimate(&state.cores, &self.index, flights)
    }

    /// The union graph is connected.
    fn connected(&self, state: &State) -> bool {
        let notifies = state.flights.iter().filter_map(|f| match f.msg {
            Msg::Notify { about, .. } => Some((f.to, about)),
            Msg::Ack { .. } | Msg::Teardown | Msg::Discover { .. } | Msg::CloseRing { .. } => None,
        });
        let cores: Vec<&Core> = state.cores.iter().collect();
        union_connected(&cores, &self.index, notifies)
    }
}

/// Whether `nodes` (in index order; `index` is `(id, index)` ascending) are
/// the ring at rest: consistent, every node locally consistent, and nothing
/// in flight but what the ring itself sends at rest — an announcement from
/// a ring neighbour, or the extremes' re-probe and its answer. `flights` are
/// `(receiver index, sender, message)`. The checker and the world's replays
/// both judge closure from such states.
pub(crate) fn legitimate<P: Linearized>(
    nodes: &[P],
    index: &[(NodeId, usize)],
    mut flights: impl Iterator<Item = (usize, NodeId, Msg)>,
) -> bool {
    if !check_ring(nodes).consistent() || !all_locally_consistent(nodes) {
        return false;
    }
    let (min, max) = (index[0].0, index[index.len() - 1].0);
    flights.all(|(to, from, msg)| {
        let to = nodes[to].linearizer();
        let neighbour = to.ring_neighbor(Side::Left) == Some(from)
            || to.ring_neighbor(Side::Right) == Some(from);
        let extremes = [from, to.id()] == [min, max] || [from, to.id()] == [max, min];
        match msg {
            Msg::Notify { about, .. } => about == from && neighbour,
            Msg::Discover { origin, .. } => extremes && origin == from,
            Msg::CloseRing { .. } => extremes,
            Msg::Ack { .. } | Msg::Teardown => false,
        }
    })
}

/// Whether the virtual union graph is connected: every side-set member and
/// ring-closure partner of `cores` (in index order), and the `(receiver,
/// about)` edges of notifications in flight.
pub(crate) fn union_connected(
    cores: &[&Core],
    index: &[(NodeId, usize)],
    notifies: impl Iterator<Item = (usize, NodeId)>,
) -> bool {
    let n = cores.len();
    let index_of = |id: NodeId| {
        index[index
            .binary_search_by_key(&id, |&(id, _)| id)
            .expect("a node")]
        .1
    };
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut link = |a: usize, b: usize| {
        adj[a].push(b);
        adj[b].push(a);
    };
    for (u, core) in cores.iter().enumerate() {
        let lin = &core.lin;
        for side in [Side::Left, Side::Right] {
            let members = lin.side(side).iter().map(|&(p, _)| p);
            for peer in members.chain(lin.wrap(side).map(|(p, _)| p)) {
                link(u, index_of(peer));
            }
        }
    }
    for (to, about) in notifies {
        link(to, index_of(about));
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0];
    seen[0] = true;
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !std::mem::replace(&mut seen[v], true) {
                stack.push(v);
            }
        }
    }
    seen.iter().all(|&s| s)
}

fn fingerprint(state: &State) -> u128 {
    let half = |salt: u64| {
        let mut hasher = DefaultHasher::new();
        salt.hash(&mut hasher);
        state.hash(&mut hasher);
        hasher.finish()
    };
    (u128::from(half(0)) << 64) | u128::from(half(1))
}

/// The task id of a fault, which no fairness promise covers.
const FAULT: u32 = u32::MAX;

/// One explored state.
struct Node {
    ring: bool,
    legitimate: bool,
    /// `(successor, task id)` per enabled step; a fault's task is [`FAULT`].
    edges: Box<[(u32, u32)]>,
    /// The task ids of the armed timers held back until the network
    /// drains. Real timers would fire, so fairness counts them as enabled.
    held: Box<[u32]>,
    /// The state it was first reached from, and how.
    parent: Option<(u32, Move)>,
}

/// The explored state graph of one start.
struct Explored {
    nodes: Vec<Node>,
    /// The first state a step that floods starts from.
    flood: Option<u32>,
    /// The first state whose virtual union graph is split.
    split: Option<u32>,
}

fn explore(model: &Model<'_>) -> Explored {
    let start = model.canonical(model.start());
    let mut ids: BTreeMap<u128, u32> = BTreeMap::new();
    ids.insert(fingerprint(&start), 0);
    // each task numbered once, so an edge is eight bytes
    let mut tasks: BTreeMap<Task, u32> = BTreeMap::new();
    let mut nodes = vec![Node {
        ring: model.ring(&start),
        legitimate: model.legitimate(&start),
        edges: Box::new([]),
        held: Box::new([]),
        parent: None,
    }];
    let mut explored = Explored {
        nodes: Vec::new(),
        flood: None,
        split: None,
    };
    // a start split from the outset has nothing to preserve
    let mut split = !model.connected(&start);
    let mut stack = vec![(0u32, start)];
    while let Some((id, state)) = stack.pop() {
        if !split && !model.connected(&state) {
            split = true;
            explored.split = Some(id);
        }
        let mut edges = Vec::new();
        let (moves, held) = model.moves(&state);
        let mut number = |task: Task| {
            let count = tasks.len() as u32;
            *tasks.entry(task).or_insert(count)
        };
        nodes[id as usize].held = held.into_iter().map(&mut number).collect();
        for (mv, task) in moves {
            let Some(stepped) = model.apply(&state, mv) else {
                continue;
            };
            if stepped.flooded && explored.flood.is_none() {
                explored.flood = Some(id);
            }
            let next = ids.len() as u32;
            let to = *ids.entry(fingerprint(&stepped.state)).or_insert(next);
            if to == next {
                nodes.push(Node {
                    ring: model.ring(&stepped.state),
                    legitimate: model.legitimate(&stepped.state),
                    edges: Box::new([]),
                    held: Box::new([]),
                    parent: Some((id, mv)),
                });
                stack.push((to, stepped.state));
            }
            edges.push((to, task.map_or(FAULT, &mut number)));
        }
        nodes[id as usize].edges = edges.into_boxed_slice();
    }
    explored.nodes = nodes;
    explored
}

/// Strongly connected components of the subgraph on `members` (sorted),
/// each as a list of state ids (Tarjan, without recursion).
fn components(nodes: &[Node], members: &[u32]) -> Vec<Vec<u32>> {
    const NONE: u32 = u32::MAX;
    let local = |w: u32| members.binary_search(&w).ok();
    let m = members.len();
    let mut index = vec![NONE; m];
    let mut low = vec![0u32; m];
    let mut on_stack = vec![false; m];
    let mut stack: Vec<usize> = Vec::new();
    let mut found = Vec::new();
    let mut counter = 0u32;
    for root in 0..m {
        if index[root] != NONE {
            continue;
        }
        // (member, next edge to look at)
        let mut work: Vec<(usize, usize)> = vec![(root, 0)];
        index[root] = counter;
        low[root] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut at)) = work.last_mut() {
            if let Some(&(w, _)) = nodes[members[v] as usize].edges.get(*at) {
                *at += 1;
                let Some(w) = local(w) else {
                    continue;
                };
                if index[w] == NONE {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            work.pop();
            if let Some(&(parent, _)) = work.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut component = Vec::new();
                loop {
                    let w = stack.pop().expect("the root is on the stack");
                    on_stack[w] = false;
                    component.push(members[w]);
                    if w == v {
                        break;
                    }
                }
                component.sort_unstable();
                found.push(component);
            }
        }
    }
    found
}

/// A fair cycle inside `component` (sorted state ids), if one exists; one
/// of its states. A cycle is fair when every delivery or timer enabled
/// somewhere on it is taken on it (strong fairness: a bounded channel can
/// disable a step now and then, so "enabled for ever" is too weak); a timer
/// held back counts as enabled. States enabling a step the component never
/// takes cannot lie on a fair cycle;
/// they are removed and what is left is examined again (the Streett
/// refinement).
fn fair_cycle(nodes: &[Node], component: Vec<u32>) -> Option<u32> {
    let mut work = vec![component];
    while let Some(members) = work.pop() {
        let inside = |w: u32| members.binary_search(&w).is_ok();
        let mut taken: Vec<u32> = members
            .iter()
            .flat_map(|&v| nodes[v as usize].edges.iter())
            .filter(|&&(w, task)| inside(w) && task != FAULT)
            .map(|&(_, task)| task)
            .collect();
        if taken.is_empty() {
            continue; // no step inside: no cycle at all
        }
        taken.sort_unstable();
        let starved = |v: &u32| {
            let node = &nodes[*v as usize];
            let mut enabled = node
                .edges
                .iter()
                .map(|e| e.1)
                .chain(node.held.iter().copied());
            enabled.any(|t| t != FAULT && taken.binary_search(&t).is_err())
        };
        let kept: Vec<u32> = members.iter().copied().filter(|v| !starved(v)).collect();
        if kept.len() == members.len() {
            return members.first().copied();
        }
        work.extend(components(nodes, &kept));
    }
    None
}

/// The drops and duplicates on the path from the start to state `id`.
fn witness(nodes: &[Node], mut id: u32) -> (u8, u8) {
    let (mut drops, mut dups) = (0, 0);
    while let Some((parent, mv)) = nodes[id as usize].parent {
        match mv {
            Move::Drop(_) => drops += 1,
            Move::Dup(_) => dups += 1,
            Move::Deliver(_) | Move::Fire(..) => {}
        }
        id = parent;
    }
    (drops, dups)
}

/// Checks every schedule from `start` within `bounds`.
pub fn check(start: &Start, bounds: Bounds) -> Report {
    check_with(start, bounds, Repairs::SHIPPED)
}

pub(crate) fn check_with(start: &Start, bounds: Bounds, repairs: Repairs) -> Report {
    let (phys, index) = adjacency(&start.graph, &start.labels);
    let model = Model {
        start,
        phys,
        index,
        repairs,
        bounds,
    };
    let explored = explore(&model);
    let nodes = &explored.nodes;
    let mut found: Vec<(Property, u32)> = Vec::new();
    let closure = nodes.iter().enumerate().find_map(|(v, node)| {
        let broken = node.legitimate
            && node
                .edges
                .iter()
                .any(|&(w, task)| task != FAULT && !nodes[w as usize].ring);
        broken.then_some(v as u32)
    });
    if let Some(v) = closure {
        found.push((Property::Closure, v));
    }
    let non_ring: Vec<u32> = (0..nodes.len() as u32)
        .filter(|&v| !nodes[v as usize].ring)
        .collect();
    let cycle = components(nodes, &non_ring)
        .into_iter()
        .find_map(|c| fair_cycle(nodes, c));
    if let Some(v) = cycle {
        found.push((Property::Convergence, v));
    }
    if let Some(v) = explored.flood {
        found.push((Property::NoFlood, v));
    }
    if let Some(v) = explored.split {
        found.push((Property::Connectivity, v));
    }
    let violations = found
        .into_iter()
        .map(|(property, v)| {
            let (drops, dups) = witness(nodes, v);
            Violation {
                property,
                drops,
                dups,
                confirmed: replay(&model, property, drops, dups),
            }
        })
        .collect();
    Report {
        states: nodes.len() as u64,
        ring_states: nodes.iter().filter(|n| n.ring).count() as u64,
        violations,
    }
}

/// Whether some FIFO-ticks run from the model's start violates `property`,
/// with at most `drops` lost and `dups` duplicated messages placed on its
/// first sends, or with one link losing everything for [`BURST`] ticks —
/// the burst of loss that exhausts a handshake's retries, which the
/// untimed checker reaches by firing a retry timer before the answer.
fn replay(model: &Model<'_>, property: Property, drops: u8, dups: u8) -> bool {
    let world = || model.start.world(model.repairs);
    // the sends a fault-free run makes before it settles bound the places
    // worth trying
    let sends = world().run(REPLAY_BUDGET).messages().min(64);
    let mut plans: Vec<Vec<(u64, bool)>> = vec![Vec::new()];
    for (count, dup) in [(drops, false), (dups, true)] {
        for _ in 0..count {
            let mut longer = Vec::new();
            for plan in &plans {
                let after = plan.last().map_or(0, |&(at, _)| at + 1);
                for at in after..sends {
                    let mut next = plan.clone();
                    next.push((at, dup));
                    longer.push(next);
                }
            }
            plans = longer;
        }
    }
    let single = plans.iter().any(|plan| {
        let mut world = world();
        world.plan(plan.iter().copied().collect(), None);
        world.violates(property, REPLAY_BUDGET)
    });
    let ids: Vec<NodeId> = model.index.iter().map(|&(id, _)| id).collect();
    let bursts = ids.iter().flat_map(|&a| ids.iter().map(move |&b| (a, b)));
    single
        || bursts.filter(|(a, b)| a != b).any(|(a, b)| {
            (0..BURST_STARTS).step_by(4).any(|start| {
                let mut world = world();
                world.plan(BTreeMap::new(), Some((a, b, start..start + BURST)));
                world.violates(property, REPLAY_BUDGET)
            })
        })
}

/// Every connected graph on `n` nodes, node `u` carrying id `u + 1`: each
/// arrangement of ids over each shape.
pub fn connected_graphs(n: usize) -> Vec<(Graph, Labeling)> {
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    let labels = Labeling::from_ids((1..=n as u64).map(NodeId).collect());
    (0u64..1 << pairs.len())
        .map(|mask| {
            let edges = pairs
                .iter()
                .enumerate()
                .filter(|&(bit, _)| mask >> bit & 1 == 1)
                .map(|(_, &e)| e);
            Graph::from_edges(n, edges)
        })
        .filter(ssr_graph::algo::is_connected)
        .map(|g| (g, labels.clone()))
        .collect()
}

/// Checks every connected graph on `n` nodes; the sum of their reports.
pub fn sweep(n: usize, bounds: Bounds) -> Report {
    sweep_with(n, bounds, Repairs::SHIPPED)
}

pub(crate) fn sweep_with(n: usize, bounds: Bounds, repairs: Repairs) -> Report {
    let mut total = Report::default();
    for (graph, labels) in connected_graphs(n) {
        total.absorb(check_with(&Start::fresh(graph, labels), bounds, repairs));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One message per pair, no faults: the tier-1 bound.
    const TIGHT: Bounds = Bounds { drops: 0, dups: 0 };

    /// The physical line 1–2–…–n, node `i` holding `overlay[i - 1]`: its
    /// side-set members and its (left, right) ring-closure partners.
    fn line(overlay: &[(&[u64], [Option<u64>; 2])]) -> Start {
        let n = overlay.len();
        let held = overlay
            .iter()
            .map(|(members, wraps)| {
                let members = members.iter().map(|&p| NodeId(p)).collect();
                (members, wraps.map(|w| w.map(NodeId)))
            })
            .collect();
        Start {
            graph: ssr_graph::generators::line(n),
            labels: Labeling::from_ids((1..=n as u64).map(NodeId).collect()),
            overlay: Some(held),
        }
    }

    /// Finding 9(a): the line is formed, but both true extremes hold a
    /// ring-closure edge to a non-extreme.
    fn stale_wraps() -> Start {
        line(&[
            (&[2], [Some(3), None]),
            (&[1, 3], [None, None]),
            (&[2, 4], [None, None]),
            (&[3], [None, Some(2)]),
        ])
    }

    /// The paper's Figure 2: two interleaved rings, {1, 4} and {2, 3}, each
    /// locally consistent, and no node holding the line's links 1–2 and 3–4.
    fn interleaved_rings() -> Start {
        line(&[
            (&[4], [Some(4), None]),
            (&[3], [Some(3), None]),
            (&[2], [None, Some(2)]),
            (&[1], [None, Some(1)]),
        ])
    }

    fn clean(report: &Report) {
        assert!(report.states > 0 && report.ring_states > 0, "{report:?}");
        assert_eq!(report.violations, vec![], "{report:?}");
    }

    /// The shipped rules from every start on two nodes and from finding
    /// 9(a)'s start; the full sweep below covers more in release.
    #[test]
    fn the_shipped_core_is_clean_on_small_starts() {
        clean(&sweep(2, TIGHT));
        clean(&check(&stale_wraps(), TIGHT));
    }

    /// Each audit-time repair, reverted, leaves a start the checker names,
    /// and a FIFO-ticks run from it confirms the ring never forms.
    #[test]
    fn a_reverted_repair_is_found() {
        let reverted = [
            (
                stale_wraps(),
                Repairs {
                    audit_reprobes_wrap: false,
                    ..Repairs::SHIPPED
                },
            ),
            (
                interleaved_rings(),
                Repairs {
                    audit_adopts_phys: false,
                    ..Repairs::SHIPPED
                },
            ),
        ];
        for (start, repairs) in reverted {
            let report = check_with(&start, TIGHT, repairs);
            let found = &report.violations;
            assert!(found
                .iter()
                .any(|v| v.property == Property::Convergence && v.confirmed));
        }
    }

    /// Every fresh start on three nodes and the Figure 2 start, in
    /// release: about 5 minutes and 4.4 GB resident, nearly all of it the
    /// Figure 2 start (22.4 million states). `census check 2 3 1 1` adds a
    /// drop and a duplicate per schedule (22.8 million states).
    #[test]
    #[ignore]
    fn the_full_sweep_is_clean() {
        clean(&sweep(3, TIGHT));
        clean(&check(&interleaved_rings(), TIGHT));
    }
}
