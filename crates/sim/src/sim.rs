//! The simulator core: one protocol step ([`Ctx::new`], [`Action`]) and the
//! event loop that drives it. Child modules hold the live adjacency (`world`),
//! the adversary (`fault`) and the experiment's read side (`observe`).

use std::collections::BTreeMap;

use ssr_graph::Graph;
use ssr_types::Rng;

use crate::event::{CauseClass, EventKind, EventQueue, Provenance};
use crate::ledger::CausalLedger;
use crate::link::LinkConfig;
use crate::metrics::Metrics;
use crate::registry::CounterId;
use crate::time::Time;
use crate::trace::{TraceEvent, TraceSink};

mod fault;
mod observe;
mod world;

use observe::Probe;
pub use observe::ProbeView;
use world::World;

/// A per-node protocol state machine.
///
/// One instance runs at every node. All interaction with the network goes
/// through the [`Ctx`]: a node can only message its current **physical
/// neighbors** — multi-hop dissemination (source routes, floods, path setup)
/// must be implemented as explicit per-hop forwarding, which is exactly what
/// the message-cost experiments meter.
pub trait Protocol: Sized {
    /// The protocol's message type.
    type Msg: Clone;

    /// Called once when the node starts (simulation start, or rejoin after a
    /// crash).
    fn on_init(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called for every delivered message. `from` is the physical neighbor
    /// that transmitted the final hop.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: usize, msg: Self::Msg);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called when a physical link to `neighbor` appears (join/link-up).
    fn on_neighbor_up(&mut self, ctx: &mut Ctx<'_, Self::Msg>, neighbor: usize) {
        let _ = (ctx, neighbor);
    }

    /// Called when a physical link to `neighbor` disappears (crash or
    /// link-down). Protocols should drop direct state derived from it.
    fn on_neighbor_down(&mut self, ctx: &mut Ctx<'_, Self::Msg>, neighbor: usize) {
        let _ = (ctx, neighbor);
    }

    /// Drops all protocol state — the node forgot everything (crash).
    /// Called before `on_init` when the node rejoins.
    fn reset(&mut self);

    /// Classifies a message for the metrics breakdown (e.g. `"notify"`,
    /// `"flood"`). Counted per link-layer transmission under
    /// `msg.<kind>`.
    fn kind(msg: &Self::Msg) -> &'static str {
        let _ = msg;
        "msg"
    }
}

/// A side effect a callback queued through its [`Ctx`], kept in queue order
/// in the buffer the `Ctx` was built over, with the cause class in force when
/// it was queued (see [`Ctx::set_cause`]).
#[derive(Debug, PartialEq)]
pub enum Action<M> {
    /// A message for a physical neighbour ([`Ctx::send`], [`Ctx::broadcast`]).
    Send {
        /// The neighbour it goes to.
        to: usize,
        /// The message.
        msg: M,
        /// The cause class it is attributed to.
        cause: CauseClass,
    },
    /// A timer ([`Ctx::set_timer`]).
    Timer {
        /// Ticks until [`Protocol::on_timer`] runs; at least 1.
        delay: u64,
        /// The token that call receives.
        token: u64,
        /// The cause class it is attributed to.
        cause: CauseClass,
    },
}

/// The world as seen from inside a protocol callback.
pub struct Ctx<'a, M> {
    /// The node this callback runs at.
    pub node: usize,
    now: Time,
    neighbors: &'a [usize],
    actions: &'a mut Vec<Action<M>>,
    rng: &'a mut Rng,
    metrics: &'a mut Metrics,
    cause: CauseClass,
}

impl<'a, M> Ctx<'a, M> {
    /// One callback's context at `node`, over buffers the caller owns: it
    /// appends sends and timers to `actions`, draws from `rng` and counts
    /// into `metrics`. `neighbors` are its physical neighbours, sorted; its
    /// actions start as `cause`. [`Simulator`] builds every `Ctx` here.
    #[inline]
    pub fn new(
        node: usize,
        now: Time,
        neighbors: &'a [usize],
        actions: &'a mut Vec<Action<M>>,
        rng: &'a mut Rng,
        metrics: &'a mut Metrics,
        cause: CauseClass,
    ) -> Self {
        debug_assert!(neighbors.is_sorted(), "neighbours must be sorted");
        Ctx {
            node,
            now,
            neighbors,
            actions,
            rng,
            metrics,
            cause,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The node's current physical neighbors (sorted by index).
    #[inline]
    pub fn neighbors(&self) -> &[usize] {
        self.neighbors
    }

    /// Queues `msg` for transmission to physical neighbor `to`.
    ///
    /// # Panics
    /// Panics if `to` is not currently a physical neighbor — protocols must
    /// not assume links they do not have.
    pub fn send(&mut self, to: usize, msg: M) {
        assert!(
            self.neighbors.binary_search(&to).is_ok(),
            "node {} tried to send to non-neighbor {}",
            self.node,
            to
        );
        self.actions.push(Action::Send {
            to,
            msg,
            cause: self.cause,
        });
    }

    /// Queues `msg` to every physical neighbor.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for &to in self.neighbors {
            self.actions.push(Action::Send {
                to,
                msg: msg.clone(),
                cause: self.cause,
            });
        }
    }

    /// Schedules [`Protocol::on_timer`] with `token` after `delay` ticks
    /// (minimum 1).
    pub fn set_timer(&mut self, delay: u64, token: u64) {
        self.actions.push(Action::Timer {
            delay: delay.max(1),
            token,
            cause: self.cause,
        });
    }

    /// The [`CauseClass`] that actions queued from here on are attributed
    /// to. The callback starts with the class inherited from the event
    /// being processed ([`CauseClass::Bootstrap`] for `on_init`,
    /// [`CauseClass::FaultRepair`] for fault-triggered callbacks).
    #[inline]
    pub fn cause(&self) -> CauseClass {
        self.cause
    }

    /// Re-tags the cause class for subsequently queued actions and returns
    /// the previous one, so protocol phases can save/restore around
    /// sub-steps. Affects only provenance attribution — never delivery
    /// order, metrics outside the `prov.*`/`rx.wasted` families, or RNG
    /// draws.
    #[inline]
    pub fn set_cause(&mut self, cause: CauseClass) -> CauseClass {
        std::mem::replace(&mut self.cause, cause)
    }

    /// The run's metrics registry.
    #[inline]
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// The run's deterministic RNG.
    #[inline]
    pub fn rng(&mut self) -> &mut Rng {
        self.rng
    }
}

/// Why a run loop returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The event queue drained — no protocol has anything left to do.
    Quiescent(Time),
    /// The time budget was exhausted with events still pending.
    Budget(Time),
}

impl RunOutcome {
    /// The time at which the loop stopped.
    pub fn time(self) -> Time {
        match self {
            RunOutcome::Quiescent(t) | RunOutcome::Budget(t) => t,
        }
    }

    /// `true` if the network went quiescent.
    pub fn is_quiescent(self) -> bool {
        matches!(self, RunOutcome::Quiescent(_))
    }
}

/// The discrete-event simulator.
///
/// Execution is **event-driven end to end**: pending work lives in a
/// deterministic tick-wheel [`EventQueue`], so quiescent nodes cost zero
/// work and the run loops fast-forward simulated time straight to the next
/// occupied tick (or the next probe-grid point, whichever is earlier)
/// instead of idling tick by tick. Alongside the wheel the simulator keeps
/// monotone activation/state-generation counters, which probes use to skip O(n)
/// state scans across idle ranges (see [`ProbeView::state_gen`]) and which
/// the benchmark harness reports as its work metrics
/// ([`Simulator::node_activations`], [`Simulator::messages_delivered`],
/// [`Simulator::peak_pending_events`]).
pub struct Simulator<P: Protocol> {
    world: World,
    protocols: Vec<P>,
    queue: EventQueue<P::Msg>,
    now: Time,
    cfg: LinkConfig,
    /// Per-direction link overrides: `(from, to)` → config. Directed, so
    /// asymmetric loss/latency is expressed by overriding one direction.
    link_overrides: BTreeMap<(usize, usize), LinkConfig>,
    /// Edges cut by every `Fault::Partition` since the last `Fault::Heal`,
    /// which restores them and empties the list.
    severed: Vec<(usize, usize)>,
    rng: Rng,
    metrics: Metrics,
    trace: TraceSink,
    action_buf: Vec<Action<P::Msg>>,
    events_processed: u64,
    probes: Vec<Probe<P>>,
    /// Total protocol callback invocations.
    activations: u64,
    /// Bumped on every dispatch, fault, and experiment-side injection.
    state_gen: u64,
    /// Messages actually delivered to a protocol (post loss/liveness).
    deliveries: u64,
    /// Next dense provenance id (enqueue order).
    next_prov: u64,
    /// Provenance of the event currently being processed; `None` between
    /// events (`on_init` at construction, `schedule_fault`), whose ids are roots.
    frame: Option<Provenance>,
    /// Full provenance stamps of *pending* events, keyed by id — present
    /// only when a trace sink or the causal ledger is attached. The queue
    /// itself carries just the 8-byte id, so the uninstrumented hot path
    /// pays one counter increment per event; entries are inserted at
    /// enqueue and removed at pop (or at link drop), keeping the table's
    /// size bounded by the queue depth.
    prov_meta: Option<BTreeMap<u64, Provenance>>,
    /// The causal ledger ([`Simulator::instrumented`]); `None` — costing
    /// one never-taken branch per record site — on the default path.
    ledger: Option<Box<CausalLedger>>,
}

impl<P: Protocol> Simulator<P> {
    /// Builds a simulator over `topo` with one protocol instance per node
    /// and runs every node's `on_init` at time 0 (in index order).
    ///
    /// # Panics
    /// Panics if `protocols.len() != topo.node_count()`, or if the node
    /// count does not fit the event wheel's `u32` indices.
    pub fn new(topo: Graph, protocols: Vec<P>, cfg: LinkConfig, seed: u64) -> Self {
        Self::with_trace(topo, protocols, cfg, seed, TraceSink::disabled())
    }

    /// Like [`Simulator::new`] with an explicit trace sink.
    pub fn with_trace(
        topo: Graph,
        protocols: Vec<P>,
        cfg: LinkConfig,
        seed: u64,
        trace: TraceSink,
    ) -> Self {
        Self::build(topo, protocols, cfg, seed, trace, false)
    }

    /// Like [`Simulator::with_trace`] with the [`CausalLedger`]
    /// enabled from before the `on_init` dispatches, so even bootstrap
    /// sends are attributed. Instrumentation never samples the RNG and
    /// never reorders events: an instrumented run is byte-identical to an
    /// uninstrumented one in every other observable.
    pub fn instrumented(
        topo: Graph,
        protocols: Vec<P>,
        cfg: LinkConfig,
        seed: u64,
        trace: TraceSink,
    ) -> Self {
        Self::build(topo, protocols, cfg, seed, trace, true)
    }

    fn build(
        topo: Graph,
        protocols: Vec<P>,
        cfg: LinkConfig,
        seed: u64,
        trace: TraceSink,
        instrumented: bool,
    ) -> Self {
        assert_eq!(
            protocols.len(),
            topo.node_count(),
            "one protocol instance per node required"
        );
        let n = topo.node_count();
        assert!(u32::try_from(n).is_ok(), "node indices are u32 in events");
        let observing = trace.enabled() || instrumented;
        let mut sim = Simulator {
            world: World::new(topo),
            protocols,
            queue: EventQueue::new(),
            now: Time::ZERO,
            cfg,
            link_overrides: BTreeMap::new(),
            severed: Vec::new(),
            rng: Rng::new(seed),
            metrics: Metrics::new(),
            trace,
            action_buf: Vec::new(),
            events_processed: 0,
            probes: Vec::new(),
            activations: 0,
            state_gen: 0,
            deliveries: 0,
            next_prov: 1,
            frame: None,
            prov_meta: observing.then(BTreeMap::new),
            ledger: instrumented.then(|| Box::new(CausalLedger::new(n))),
        };
        for node in 0..n {
            sim.dispatch(node, |p, ctx| p.on_init(ctx));
        }
        sim
    }

    /// Allocates the next dense provenance id as a child of the event
    /// being processed, or as a fresh root between events (`frame` is
    /// `None`). When observing (trace or ledger attached), the stamp is
    /// parked in the side table until the event pops.
    fn alloc_prov(&mut self, cause: CauseClass) -> Provenance {
        let id = self.next_prov;
        self.next_prov += 1;
        let prov = match &self.frame {
            Some(parent) => Provenance::child(parent, id, cause),
            None => Provenance::root(id, cause),
        };
        if let Some(meta) = self.prov_meta.as_mut() {
            meta.insert(id, prov);
        }
        prov
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    ///
    /// Simulated time jumps directly to the event's tick — empty tick
    /// ranges are fast-forwarded over, never iterated. Only nodes with an
    /// event to process do any work; a quiescent node costs nothing.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.events_processed += 1;
        // Rehydrate the full stamp from the side table; without observers
        // the lineage is unobservable, so a synthetic root frame suffices
        // (and keeps the hot path free of map traffic).
        let prov = match self.prov_meta.as_mut() {
            Some(meta) => meta
                .remove(&ev.pid)
                .expect("queued event is missing its provenance stamp"),
            None => Provenance::root(ev.pid, CauseClass::Bootstrap),
        };
        if let Some(ledger) = self.ledger.as_deref_mut() {
            ledger.record_event(&prov);
        }
        self.frame = Some(prov);
        match ev.kind {
            EventKind::Deliver { dst, from, msg } => self.deliver(dst as usize, from as usize, msg),
            EventKind::Timer { node, token } => {
                if self.trace.enabled() {
                    self.trace.record(TraceEvent::TimerFired {
                        at: self.now,
                        node,
                        token,
                        prov,
                    });
                }
                if self.world.is_alive(node) {
                    self.dispatch(node, |p, ctx| p.on_timer(ctx, token));
                }
            }
            EventKind::Fault(fault) => self.apply_fault(*fault),
        }
        self.frame = None;
        true
    }

    /// Runs until the queue drains or simulated time reaches `deadline`.
    /// Registered probes fire on their tick grids, interleaved with event
    /// processing in deterministic order (all events strictly before a
    /// probe's deadline run first).
    ///
    /// Time advances by fast-forward only: to the next occupied tick of
    /// the event wheel, or to the next probe-grid point, whichever is
    /// earlier. A tick range containing neither costs nothing, and once
    /// the queue drains the clock stops — probes do not keep firing on
    /// their grids out to the deadline.
    pub fn run_until(&mut self, deadline: Time) -> RunOutcome {
        loop {
            // Fire any probe due before (or at the same tick as) the next
            // event, so probes observe the state *at* their deadline. Once
            // the queue drains nothing can change, so only already-due
            // probes fire — the clock does not advance on empty ticks.
            if let Some(due) = self.next_probe_due() {
                let gate = match self.queue.peek_time() {
                    Some(t) => t.min(deadline),
                    None => self.now,
                };
                if due <= gate {
                    self.now = due.max(self.now);
                    self.fire_due_probes();
                    continue;
                }
            }
            match self.queue.peek_time() {
                None => return RunOutcome::Quiescent(self.now),
                Some(t) if t > deadline => {
                    self.now = self.now.max(deadline);
                    return RunOutcome::Budget(self.now);
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Runs until quiescence, but at most `max_ticks` further ticks.
    pub fn run_to_quiescence(&mut self, max_ticks: u64) -> RunOutcome {
        let deadline = self.now.saturating_add(max_ticks);
        self.run_until(deadline)
    }

    /// Runs in `check_every`-tick slices until `stable` returns `true` (its
    /// arguments are the protocol states and the current time), the queue
    /// drains, or `max_ticks` elapse. Use this for protocols with periodic
    /// timers that never go quiescent on their own (e.g. VRR hello beacons).
    pub fn run_until_stable(
        &mut self,
        check_every: u64,
        max_ticks: u64,
        mut stable: impl FnMut(&[P], Time) -> bool,
    ) -> RunOutcome {
        let deadline = self.now.saturating_add(max_ticks);
        loop {
            if stable(&self.protocols, self.now) {
                return RunOutcome::Quiescent(self.now);
            }
            if self.now >= deadline {
                return RunOutcome::Budget(self.now);
            }
            let slice_end = self.now.saturating_add(check_every.max(1)).min(deadline);
            if self.run_until(slice_end).is_quiescent() {
                let ok = stable(&self.protocols, self.now);
                return if ok {
                    RunOutcome::Quiescent(self.now)
                } else {
                    // Quiescent but not stable: nothing more will happen.
                    RunOutcome::Budget(self.now)
                };
            }
        }
    }

    /// Runs `node`'s callback as one step ([`Ctx::new`] over the simulator's
    /// buffers), then applies the actions it queued. Returns how many it
    /// queued — zero means the event produced no onward work, which is what
    /// tags a delivery as *wasted* in the causal ledger.
    fn dispatch(&mut self, node: usize, f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>)) -> usize {
        self.activations += 1;
        self.state_gen += 1;
        let mut actions = std::mem::take(&mut self.action_buf);
        actions.clear();
        let cause = self.frame.map_or(CauseClass::Bootstrap, |p| p.cause);
        f(
            &mut self.protocols[node],
            &mut Ctx::new(
                node,
                self.now,
                self.world.live(node),
                &mut actions,
                &mut self.rng,
                &mut self.metrics,
                cause,
            ),
        );
        let queued = actions.len();
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg, cause } => self.transmit(node, to, msg, cause),
                Action::Timer {
                    delay,
                    token,
                    cause,
                } => {
                    let prov = self.alloc_prov(cause);
                    self.queue
                        .push(self.now + delay, EventKind::Timer { node, token }, prov.id);
                }
            }
        }
        self.action_buf = actions;
        queued
    }

    /// Link-layer transmission: applies the effective per-direction config
    /// (the override for `from → to`, else the global one) — duplication
    /// first (each copy is a metered, independent transmission), then
    /// per-copy loss, latency, and bounded-delay reordering.
    fn transmit(&mut self, from: usize, to: usize, msg: P::Msg, cause: CauseClass) {
        let cfg = *self.link_overrides.get(&(from, to)).unwrap_or(&self.cfg);
        if cfg.dup_prob > 0.0 && self.rng.chance(cfg.dup_prob) {
            self.metrics.incr("tx.dup");
            self.transmit_copy(from, to, msg.clone(), &cfg, cause);
        }
        self.transmit_copy(from, to, msg, &cfg, cause);
    }

    /// Transmits one copy: meters the hop (kinds are counted *before* loss
    /// sampling, so `msg.` sums to `tx.total`), samples loss, latency and
    /// reorder delay. Each copy consumes one provenance id *before* loss
    /// sampling, so `Send`/`Lost` trace records always carry a `pid` and
    /// a dropped copy appears in the lineage as a leaf.
    fn transmit_copy(
        &mut self,
        from: usize,
        to: usize,
        msg: P::Msg,
        cfg: &LinkConfig,
        cause: CauseClass,
    ) {
        let kind = P::kind(&msg);
        let prov = self.alloc_prov(cause);
        self.metrics.bump(CounterId::TX_TOTAL);
        self.metrics.bump(CounterId::of_kind(kind));
        if let Some(ledger) = self.ledger.as_deref_mut() {
            ledger.record_send(cause, kind, from);
        }
        if self.trace.enabled() {
            self.trace.record(TraceEvent::Send {
                at: self.now,
                from,
                to,
                kind,
                prov,
            });
        }
        if cfg.drop_prob > 0.0 && self.rng.chance(cfg.drop_prob) {
            self.metrics.incr("tx.dropped");
            if self.trace.enabled() {
                self.trace.record(TraceEvent::Lost {
                    at: self.now,
                    from,
                    to,
                    reason: "link-drop",
                    prov,
                });
            }
            // the copy never enters the queue, so its parked stamp would
            // otherwise leak in the side table
            if let Some(meta) = self.prov_meta.as_mut() {
                meta.remove(&prov.id);
            }
            return;
        }
        let mut latency = cfg.latency.sample(&mut self.rng);
        if cfg.reorder_prob > 0.0 && self.rng.chance(cfg.reorder_prob) {
            latency += self.rng.range(1, cfg.reorder_window.max(1) + 1);
            self.metrics.incr("tx.reordered");
        }
        self.metrics.observe_hist("latency.ticks", latency);
        self.queue.push(
            self.now + latency,
            EventKind::Deliver {
                dst: to as u32,
                from: from as u32,
                msg,
            },
            prov.id,
        );
    }

    /// Delivery-time checks: the receiver must still be alive, and so must
    /// the sender and the link (mobility may have severed it in flight) —
    /// that is, `from` must be in `dst`'s live adjacency.
    fn deliver(&mut self, dst: usize, from: usize, msg: P::Msg) {
        let prov = self.frame.expect("delivery outside an event frame");
        if !self.world.is_alive(dst) || self.world.live(dst).binary_search(&from).is_err() {
            self.metrics.incr("tx.lost_in_flight");
            if self.trace.enabled() {
                self.trace.record(TraceEvent::Lost {
                    at: self.now,
                    from,
                    to: dst,
                    reason: "stale-link",
                    prov,
                });
            }
            return;
        }
        let kind = P::kind(&msg);
        if self.trace.enabled() {
            self.trace.record(TraceEvent::Deliver {
                at: self.now,
                from,
                to: dst,
                kind,
                prov,
            });
        }
        self.metrics.bump(CounterId::RX_TOTAL);
        self.deliveries += 1;
        if let Some(ledger) = self.ledger.as_deref_mut() {
            ledger.record_delivery(prov.cause, kind, dst, prov.depth);
        }
        let queued = self.dispatch(dst, |p, ctx| p.on_message(ctx, from, msg));
        if queued == 0 {
            // Wasted work: the delivery triggered no onward action — the
            // receiver already knew everything the message told it.
            self.metrics.bump(CounterId::RX_WASTED);
            if let Some(ledger) = self.ledger.as_deref_mut() {
                ledger.record_wasted(prov.cause, kind, dst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Fault;
    use ssr_graph::generators;

    /// A toy protocol: floods a token through the network once, recording
    /// the hop count at which it first arrived.
    #[derive(Clone, Debug)]
    struct Flood {
        seen: bool,
        first_hops: Option<u64>,
        origin: bool,
    }

    #[derive(Clone, Debug)]
    struct FloodMsg {
        hops: u64,
    }

    impl Protocol for Flood {
        type Msg = FloodMsg;

        fn on_init(&mut self, ctx: &mut Ctx<'_, FloodMsg>) {
            if self.origin {
                self.seen = true;
                self.first_hops = Some(0);
                ctx.broadcast(FloodMsg { hops: 1 });
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, FloodMsg>, _from: usize, msg: FloodMsg) {
            if !self.seen {
                self.seen = true;
                self.first_hops = Some(msg.hops);
                ctx.broadcast(FloodMsg { hops: msg.hops + 1 });
            }
        }

        fn reset(&mut self) {
            self.seen = false;
            self.first_hops = None;
        }

        fn kind(_msg: &FloodMsg) -> &'static str {
            "flood"
        }
    }

    fn flood_sim(n: usize, seed: u64) -> Simulator<Flood> {
        let topo = generators::ring(n);
        let protocols: Vec<Flood> = (0..n)
            .map(|u| Flood {
                seen: false,
                first_hops: None,
                origin: u == 0,
            })
            .collect();
        Simulator::new(topo, protocols, LinkConfig::ideal(), seed)
    }

    #[test]
    fn flood_reaches_everyone_with_bfs_hops() {
        let mut sim = flood_sim(10, 1);
        let outcome = sim.run_to_quiescence(1_000);
        assert!(outcome.is_quiescent());
        for u in 0..10 {
            let hops = sim.protocol(u).first_hops.expect("node not reached");
            let expected = u.min(10 - u) as u64;
            assert_eq!(hops, expected, "node {u}");
        }
    }

    #[test]
    fn unit_latency_makes_time_equal_eccentricity() {
        let mut sim = flood_sim(10, 2);
        let outcome = sim.run_to_quiescence(1_000);
        // On a 10-ring, the farthest node is 5 hops out; the final wasted
        // re-broadcasts take one more tick.
        assert!(outcome.time().ticks() >= 5);
        assert!(outcome.time().ticks() <= 7);
    }

    #[test]
    fn messages_are_metered() {
        let mut sim = flood_sim(8, 3);
        sim.run_to_quiescence(1_000);
        // every node broadcasts exactly once on a degree-2 ring
        assert_eq!(sim.metrics().counter("tx.total"), 16);
        assert_eq!(sim.metrics().counter("msg.flood"), 16);
        assert_eq!(sim.metrics().counter_sum("msg."), 16);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let topo = generators::gnp(30, 0.15, &mut Rng::new(9));
            let protocols: Vec<Flood> = (0..30)
                .map(|u| Flood {
                    seen: false,
                    first_hops: None,
                    origin: u == 0,
                })
                .collect();
            let trace = TraceSink::memory();
            let mut sim = Simulator::with_trace(
                topo,
                protocols,
                LinkConfig::jittered(1, 4),
                seed,
                trace.clone(),
            );
            sim.run_to_quiescence(10_000);
            // drain, don't clone: the trace is consumed exactly once
            trace.take()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    /// Canonical-namespace invariant (see the metrics module doc): every
    /// link-layer transmission is counted under exactly one `msg.<kind>`
    /// key *before* loss sampling, so the `msg.` sum always equals
    /// `tx.total` — even on lossy links.
    #[test]
    fn msg_namespace_sums_to_tx_total() {
        let topo = generators::complete(8);
        let protocols: Vec<Flood> = (0..8)
            .map(|u| Flood {
                seen: false,
                first_hops: None,
                origin: u == 0,
            })
            .collect();
        let mut sim = Simulator::new(topo, protocols, LinkConfig::lossy(0.3), 21);
        sim.run_to_quiescence(10_000);
        let m = sim.metrics();
        assert!(m.counter("tx.dropped") > 0, "want losses in this run");
        assert_eq!(m.counter_sum("msg."), m.counter("tx.total"));
    }

    #[test]
    fn probes_fire_on_their_grid_and_see_consistent_state() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut sim = flood_sim(10, 6);
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        let log2 = Rc::clone(&log);
        sim.add_probe(2, move |view| {
            let reached = view.protocols.iter().filter(|p| p.seen).count();
            log2.borrow_mut().push((view.now.ticks(), reached));
        });
        sim.run_to_quiescence(1_000);
        let log = log.borrow();
        // fires at 0, 2, 4, ... while events remain
        assert!(log.len() >= 3, "probe fired {} times", log.len());
        for (i, &(tick, _)) in log.iter().enumerate() {
            assert_eq!(tick, 2 * i as u64);
        }
        // monotone spread, ending with everyone reached
        for w in log.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(log.last().unwrap().1, 10);
    }

    #[test]
    fn probes_can_record_metrics_and_stop_at_quiescence() {
        let mut sim = flood_sim(6, 12);
        sim.add_probe(1, |view| {
            view.metrics.incr("probe.fired");
            view.metrics
                .observe_hist("probe.pending", view.pending_events as u64);
        });
        let outcome = sim.run_to_quiescence(1_000);
        assert!(outcome.is_quiescent());
        let fired = sim.metrics().counter("probe.fired");
        assert!(fired > 0);
        // the probe grid must not run past quiescence to the deadline
        assert!(fired < 100, "probe kept firing after quiescence: {fired}");
        assert_eq!(sim.metrics().hist("probe.pending").unwrap().count(), fired);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_probe_interval_panics() {
        let mut sim = flood_sim(3, 1);
        sim.add_probe(0, |_| {});
    }

    #[test]
    fn lossy_links_drop_messages() {
        let topo = generators::complete(6);
        let protocols: Vec<Flood> = (0..6)
            .map(|u| Flood {
                seen: false,
                first_hops: None,
                origin: u == 0,
            })
            .collect();
        let mut sim = Simulator::new(topo, protocols, LinkConfig::lossy(0.5), 7);
        sim.run_to_quiescence(1_000);
        assert!(sim.metrics().counter("tx.dropped") > 0);
    }

    #[test]
    fn crash_stops_participation_and_join_restarts() {
        let mut sim = flood_sim(6, 5);
        sim.schedule_fault(Time(0), Fault::Crash { node: 3 });
        sim.run_to_quiescence(1_000);
        // crash at t=0 happens after init broadcasts but before delivery:
        // node 3 must not have flooded on
        assert!(!sim.is_alive(3));
        // rejoin with its old links
        sim.schedule_fault(
            Time(100),
            Fault::Join {
                node: 3,
                links: vec![2, 4],
            },
        );
        sim.run_to_quiescence(1_000);
        assert!(sim.is_alive(3));
        assert!(sim.topology().has_edge(3, 2));
        assert!(sim.topology().has_edge(3, 4));
        // protocol state was reset; non-origin node stays unseen (flood over)
        assert!(!sim.protocol(3).seen);
    }

    /// Ping floods back and forth forever between timer fires — a steady
    /// message source for the adversarial-link tests.
    #[derive(Clone)]
    struct Chatter {
        received: u64,
    }
    impl Protocol for Chatter {
        type Msg = u64;
        fn on_init(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.set_timer(1, 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: usize, _: u64) {
            self.received += 1;
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _: u64) {
            ctx.broadcast(1);
            if ctx.now().ticks() < 200 {
                ctx.set_timer(1, 0);
            }
        }
        fn reset(&mut self) {
            self.received = 0;
        }
    }

    #[test]
    fn duplication_preserves_metering_invariant() {
        let topo = generators::line(2);
        let cfg = LinkConfig::ideal().with_dup(0.4);
        let mut sim = Simulator::new(topo, vec![Chatter { received: 0 }; 2], cfg, 17);
        sim.run_to_quiescence(10_000);
        let m = sim.metrics();
        assert!(m.counter("tx.dup") > 0, "want duplicated transmissions");
        // each duplicate is a full transmission: metered under msg.* too
        assert_eq!(m.counter_sum("msg."), m.counter("tx.total"));
        // every non-dropped copy is delivered (no loss configured)
        assert_eq!(m.counter("rx.total"), m.counter("tx.total"));
        // 2 nodes × 200 timer broadcasts = 400 originals, plus duplicates
        assert_eq!(m.counter("tx.total"), 400 + m.counter("tx.dup"));
    }

    #[test]
    fn reordering_delays_within_window_and_is_metered() {
        let topo = generators::line(2);
        let cfg = LinkConfig::ideal().with_reorder(0.5, 6);
        let mut sim = Simulator::new(topo, vec![Chatter { received: 0 }; 2], cfg, 23);
        sim.run_to_quiescence(10_000);
        let m = sim.metrics();
        assert!(m.counter("tx.reordered") > 0);
        assert_eq!(m.counter("rx.total"), m.counter("tx.total"));
        // latency = base 1 + extra in 1..=6, so the histogram max is ≤ 7
        let max = m.hist("latency.ticks").unwrap().max().unwrap();
        assert!(max <= 7, "reorder delay exceeded window: {max}");
        assert!(max >= 2, "no reordered sample observed");
    }

    #[test]
    fn per_link_override_gives_asymmetric_loss() {
        // 0 → 1 loses everything short of certainty; 1 → 0 is clean.
        let topo = generators::line(2);
        let mut sim = Simulator::new(
            topo,
            vec![Chatter { received: 0 }; 2],
            LinkConfig::ideal(),
            31,
        );
        sim.set_link_override(0, 1, LinkConfig::lossy(0.99));
        sim.run_to_quiescence(10_000);
        // node 0 hears everything from 1; node 1 hears almost nothing
        assert_eq!(sim.protocol(0).received, 200);
        assert!(
            sim.protocol(1).received < 50,
            "lossy direction delivered {}",
            sim.protocol(1).received
        );
        assert!(sim.metrics().counter("tx.dropped") > 150);
    }

    #[test]
    fn partition_splits_and_heal_restores() {
        let topo = generators::complete(6);
        let edge_count = topo.edge_count();
        let mut sim = Simulator::new(
            topo,
            vec![Chatter { received: 0 }; 6],
            LinkConfig::ideal(),
            37,
        );
        sim.schedule_fault(
            Time(10),
            Fault::Partition {
                groups: vec![vec![0, 1, 2], vec![3, 4], vec![5]],
            },
        );
        sim.run_until(Time(11));
        // only intra-group edges survive: 0-1,0-2,1-2,3-4
        assert_eq!(sim.topology().edge_count(), 4);
        let (_, comps) = ssr_graph::algo::components(sim.topology());
        assert_eq!(comps, 3);
        assert_eq!(sim.metrics().counter("fault.partition"), 1);
        assert_eq!(sim.metrics().counter("fault.partition_cut"), 11);
        sim.schedule_fault(Time(20), Fault::Heal);
        sim.run_until(Time(21));
        assert_eq!(sim.topology().edge_count(), edge_count);
        let (_, comps) = ssr_graph::algo::components(sim.topology());
        assert_eq!(comps, 1);
        assert_eq!(sim.metrics().counter("fault.heal_link"), 11);
    }

    #[test]
    fn heal_skips_edges_to_dead_nodes() {
        let topo = generators::complete(4);
        let mut sim = Simulator::new(
            topo,
            vec![Chatter { received: 0 }; 4],
            LinkConfig::ideal(),
            41,
        );
        sim.schedule_fault(
            Time(5),
            Fault::Partition {
                groups: vec![vec![0, 1], vec![2, 3]],
            },
        );
        sim.schedule_fault(Time(6), Fault::Crash { node: 3 });
        sim.schedule_fault(Time(7), Fault::Heal);
        sim.run_until(Time(8));
        // 0-3 and 1-3 stay down (3 is dead); 0-2 and 1-2 come back
        assert!(sim.topology().has_edge(0, 2));
        assert!(sim.topology().has_edge(1, 2));
        assert!(!sim.topology().has_edge(0, 3));
        assert_eq!(sim.metrics().counter("fault.heal_link"), 2);
    }

    #[test]
    fn join_to_dead_peer_is_counted_and_recovers_on_peer_rejoin() {
        let topo = generators::line(3); // 0-1-2
        let mut sim = Simulator::new(
            topo,
            vec![Chatter { received: 0 }; 3],
            LinkConfig::ideal(),
            43,
        );
        sim.schedule_fault(Time(5), Fault::Crash { node: 1 });
        sim.schedule_fault(Time(6), Fault::Crash { node: 2 });
        // 1 rejoins while 2 is still down: the 1-2 link is requested but
        // cannot come up — it must be counted, not silently dropped.
        sim.schedule_fault(
            Time(10),
            Fault::Join {
                node: 1,
                links: vec![0, 2],
            },
        );
        sim.run_until(Time(11));
        assert!(sim.is_alive(1));
        assert!(sim.topology().has_edge(0, 1));
        assert!(!sim.topology().has_edge(1, 2));
        assert_eq!(sim.metrics().counter("fault.join_dead_link"), 1);
        // the peer rejoining restores the link
        sim.schedule_fault(
            Time(20),
            Fault::Join {
                node: 2,
                links: vec![1],
            },
        );
        sim.run_until(Time(21));
        assert!(sim.topology().has_edge(1, 2));
        assert_eq!(sim.metrics().counter("fault.join_dead_link"), 1);
    }

    #[test]
    fn link_down_blocks_direct_delivery() {
        let topo = generators::line(3); // 0-1-2
        let protocols: Vec<Flood> = (0..3)
            .map(|u| Flood {
                seen: false,
                first_hops: None,
                origin: u == 0,
            })
            .collect();
        let mut sim = Simulator::new(topo, protocols, LinkConfig::ideal(), 11);
        // Cut 0-1 immediately: nothing can reach 1 or 2 (fault at t=0 is
        // processed after init's sends are queued but before delivery at t=1;
        // in-flight messages over the cut link are lost).
        sim.schedule_fault(Time(0), Fault::LinkDown { a: 0, b: 1 });
        sim.run_to_quiescence(1_000);
        assert!(!sim.protocol(1).seen);
        assert!(!sim.protocol(2).seen);
        assert!(sim.metrics().counter("tx.lost_in_flight") > 0);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn sending_to_non_neighbor_panics() {
        #[derive(Clone)]
        struct Bad;
        impl Protocol for Bad {
            type Msg = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.send(2, ()); // 0 and 2 are not adjacent on a line
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: usize, _: ()) {}
            fn reset(&mut self) {}
        }
        let topo = generators::line(3);
        let _ = Simulator::new(topo, vec![Bad, Bad, Bad], LinkConfig::ideal(), 0);
    }

    /// Node 3 of a step with physical neighbours 2 and 4: `on_init` queues a
    /// send, a zero-delay timer and a broadcast under a re-tagged cause,
    /// then a timer under the restored one; `on_message` echoes to the
    /// sender.
    struct Stepper;

    impl Protocol for Stepper {
        type Msg = u8;
        fn on_init(&mut self, ctx: &mut Ctx<'_, u8>) {
            ctx.send(4, 1);
            let prev = ctx.set_cause(CauseClass::HelloSweep);
            ctx.set_timer(0, 7);
            ctx.broadcast(2);
            ctx.set_cause(prev);
            ctx.set_timer(5, 8);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u8>, from: usize, msg: u8) {
            ctx.send(from, msg);
        }
        fn reset(&mut self) {}
    }

    /// Runs one `Stepper` callback through [`Ctx::new`] over buffers the
    /// test owns and returns the actions it queued.
    fn step_once(f: impl FnOnce(&mut Stepper, &mut Ctx<'_, u8>)) -> Vec<Action<u8>> {
        let (mut actions, mut rng, mut metrics) = (Vec::new(), Rng::new(1), Metrics::new());
        let neighbors = [2, 4];
        let mut ctx = Ctx::new(
            3,
            Time::ZERO,
            &neighbors,
            &mut actions,
            &mut rng,
            &mut metrics,
            CauseClass::Bootstrap,
        );
        f(&mut Stepper, &mut ctx);
        actions
    }

    #[test]
    fn a_step_leaves_its_actions_in_queue_order_with_their_causes() {
        use CauseClass::{Bootstrap, HelloSweep};
        let actions = step_once(|p, ctx| p.on_init(ctx));
        assert_eq!(
            actions,
            [
                Action::Send {
                    to: 4,
                    msg: 1,
                    cause: Bootstrap
                },
                // the retag applies to what is queued after it; a zero
                // delay is stored as one tick
                Action::Timer {
                    delay: 1,
                    token: 7,
                    cause: HelloSweep
                },
                // one send per neighbour, in index order
                Action::Send {
                    to: 2,
                    msg: 2,
                    cause: HelloSweep
                },
                Action::Send {
                    to: 4,
                    msg: 2,
                    cause: HelloSweep
                },
                Action::Timer {
                    delay: 5,
                    token: 8,
                    cause: Bootstrap
                },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "node 3 tried to send to non-neighbor 5")]
    fn a_step_that_sends_to_a_non_neighbour_panics() {
        step_once(|p, ctx| p.on_message(ctx, 5, 0));
    }

    /// Edge case: a delivery scheduled *exactly on* a probe-grid tick. The
    /// probe must observe the state strictly before the same-tick events —
    /// on line(3) the tick-1 delivery to node 1 is invisible to the tick-1
    /// probe and visible to the tick-2 probe.
    #[test]
    fn probe_on_a_delivery_tick_sees_pre_delivery_state() {
        let topo = generators::line(3);
        let protocols: Vec<Flood> = (0..3)
            .map(|u| Flood {
                seen: false,
                first_hops: None,
                origin: u == 0,
            })
            .collect();
        let mut sim = Simulator::new(topo, protocols, LinkConfig::ideal(), 1);
        use std::cell::RefCell;
        use std::rc::Rc;
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        let log2 = Rc::clone(&log);
        sim.add_probe(1, move |view| {
            let reached = view.protocols.iter().filter(|p| p.seen).count();
            log2.borrow_mut().push((view.now.ticks(), reached));
        });
        assert!(sim.run_to_quiescence(1_000).is_quiescent());
        // t=0: only the origin (its init broadcast is queued, not delivered).
        // t=1: the delivery to node 1 lands *at* this grid tick — the probe
        // still sees reached=1.
        // t=2: node 1's tick-1 activation is now visible.
        // t=3: node 2's tick-2 activation.
        let log = log.borrow();
        assert_eq!(*log, vec![(0, 1), (1, 1), (2, 2), (3, 3)]);
        assert_eq!(sim.protocol(2).first_hops, Some(2));
    }

    /// Edge case: a partition heals inside a tick range containing no other
    /// events. The fault events are the only occupied ticks; the run
    /// fast-forwards between them, probes keep their grid, and the clock
    /// stops at the heal instead of idling to the deadline.
    #[test]
    fn partition_heal_during_an_empty_tick_range() {
        let topo = generators::complete(4);
        let edges = topo.edge_count();
        // no origin: zero protocol traffic, the fault schedule is all there is
        let protocols: Vec<Flood> = (0..4)
            .map(|_| Flood {
                seen: false,
                first_hops: None,
                origin: false,
            })
            .collect();
        let mut sim = Simulator::new(topo, protocols, LinkConfig::ideal(), 2);
        use std::cell::RefCell;
        use std::rc::Rc;
        let ticks: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let t2 = Rc::clone(&ticks);
        sim.add_probe(7, move |view| t2.borrow_mut().push(view.now.ticks()));
        sim.schedule_fault(
            Time(100),
            Fault::Partition {
                groups: vec![vec![0, 1], vec![2, 3]],
            },
        );
        sim.schedule_fault(Time(200), Fault::Heal);
        let outcome = sim.run_until(Time(300));
        // the queue drained at the heal; the clock did not idle to 300
        assert_eq!(outcome, RunOutcome::Quiescent(Time(200)));
        assert_eq!(sim.topology().edge_count(), edges);
        assert_eq!(sim.metrics().counter("fault.partition_cut"), 4);
        assert_eq!(sim.metrics().counter("fault.heal_link"), 4);
        let ticks = ticks.borrow();
        // the probe grid spans both empty ranges: 0, 7, ..., 196
        assert_eq!(ticks.first(), Some(&0));
        assert_eq!(ticks.last(), Some(&196));
        assert!(ticks.windows(2).all(|w| w[1] - w[0] == 7));
    }

    #[test]
    fn work_ledger_counts_activations_deliveries_and_peak_depth() {
        let mut sim = flood_sim(8, 3);
        let init_acts = sim.node_activations();
        assert_eq!(init_acts, 8, "one on_init per node");
        assert_eq!(sim.messages_delivered(), 0);
        sim.run_to_quiescence(1_000);
        // every delivery is one activation on top of the inits
        assert_eq!(sim.node_activations(), init_acts + sim.messages_delivered());
        assert_eq!(sim.messages_delivered(), sim.metrics().counter("rx.total"));
        // degree-2 ring: the origin's init broadcast alone pends 2 events
        assert!(sim.peak_pending_events() >= 2);
        assert!(sim.peak_pending_events() <= 16);
    }

    #[test]
    fn run_outcome_accessors() {
        let q = RunOutcome::Quiescent(Time(5));
        let b = RunOutcome::Budget(Time(9));
        assert!(q.is_quiescent());
        assert!(!b.is_quiescent());
        assert_eq!(q.time(), Time(5));
        assert_eq!(b.time(), Time(9));
    }

    #[test]
    fn run_until_never_passes_the_deadline() {
        let mut sim = flood_sim(10, 4);
        let outcome = sim.run_until(Time(2));
        assert_eq!(outcome, RunOutcome::Budget(Time(2)));
        assert!(sim.now() <= Time(2));
        assert!(sim.pending_events() > 0);
        // resuming continues from where we stopped
        let outcome = sim.run_to_quiescence(10_000);
        assert!(outcome.is_quiescent());
    }

    /// A deadline already in the past must not rewind the clock: the
    /// budget is simply exhausted where the simulation stands.
    #[test]
    fn run_until_a_past_deadline_keeps_the_clock() {
        let topo = generators::line(2);
        let mut sim = Simulator::new(
            topo,
            vec![Chatter { received: 0 }; 2],
            LinkConfig::ideal(),
            1,
        );
        assert_eq!(sim.run_until(Time(10)), RunOutcome::Budget(Time(10)));
        assert_eq!(sim.queue.peek_time(), Some(Time(11)));
        let outcome = sim.run_until(Time(3));
        assert_eq!(outcome, RunOutcome::Budget(Time(10)));
        assert_eq!(sim.now(), Time(10));
        // and the run resumes from there
        assert!(sim.run_to_quiescence(10_000).is_quiescent());
    }

    #[test]
    fn events_processed_counts_monotonically() {
        let mut sim = flood_sim(6, 8);
        let before = sim.events_processed();
        sim.run_to_quiescence(1_000);
        assert!(sim.events_processed() > before);
    }

    #[test]
    fn run_until_stable_with_periodic_timers() {
        /// Beacons forever; "stable" once everyone has beaconed 3 times.
        #[derive(Clone)]
        struct Beacon {
            fired: u32,
        }
        impl Protocol for Beacon {
            type Msg = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(1, 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: usize, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: u64) {
                self.fired += 1;
                ctx.set_timer(1, 0);
            }
            fn reset(&mut self) {
                self.fired = 0;
            }
        }
        let topo = generators::line(4);
        let mut sim = Simulator::new(topo, vec![Beacon { fired: 0 }; 4], LinkConfig::ideal(), 1);
        let outcome = sim.run_until_stable(2, 10_000, |ps, _| ps.iter().all(|p| p.fired >= 3));
        assert!(outcome.is_quiescent());
        assert!(outcome.time().ticks() < 100);
    }

    /// Flood re-deliveries to already-seen nodes queue nothing — those are
    /// exactly the deliveries the wasted-work counter must tag, with or
    /// without the ledger attached.
    #[test]
    fn wasted_deliveries_are_metered() {
        let mut sim = flood_sim(8, 3);
        sim.run_to_quiescence(1_000);
        let m = sim.metrics();
        let wasted = m.counter("rx.wasted");
        assert!(wasted > 0, "a ring flood must waste its second arrivals");
        assert!(wasted < m.counter("rx.total"));
    }

    /// The ledger's per-cell totals must reconcile exactly with the
    /// pre-existing aggregate counters, and a pure-bootstrap run must
    /// attribute 100% of traffic to the bootstrap cause class.
    #[test]
    fn instrumented_ledger_reconciles_with_aggregate_counters() {
        let topo = generators::ring(8);
        let protocols: Vec<Flood> = (0..8)
            .map(|u| Flood {
                seen: false,
                first_hops: None,
                origin: u == 0,
            })
            .collect();
        let mut sim = Simulator::instrumented(
            topo,
            protocols,
            LinkConfig::ideal(),
            3,
            TraceSink::disabled(),
        );
        sim.run_to_quiescence(1_000);
        let summary = sim.causal_summary().expect("instrumented sim has a ledger");
        let m = sim.metrics();
        assert_eq!(summary.sent(), m.counter("tx.total"));
        assert_eq!(summary.delivered(), m.counter("rx.total"));
        assert_eq!(summary.wasted(), m.counter("rx.wasted"));
        // everything here descends from on_init broadcasts
        for &(cause, kind) in summary.messages.keys() {
            assert_eq!(cause, "bootstrap");
            assert_eq!(kind, "flood");
        }
        // the origin's init broadcast queues one root per ring neighbor
        assert_eq!(summary.roots, 2);
        assert_eq!(summary.cascade_sizes.count(), 2);
        // per-node tallies cover the whole ring
        assert_eq!(summary.nodes.iter().map(|t| t.sent).sum::<u64>(), 16);
    }

    /// Attaching the ledger must not perturb the run: traces, metrics and
    /// end time are byte-identical with and without it.
    #[test]
    fn instrumented_run_is_byte_identical_to_uninstrumented() {
        let run = |instrument: bool| {
            let topo = generators::gnp(24, 0.2, &mut Rng::new(5));
            let protocols: Vec<Flood> = (0..24)
                .map(|u| Flood {
                    seen: false,
                    first_hops: None,
                    origin: u == 0,
                })
                .collect();
            let trace = TraceSink::memory();
            let link = LinkConfig::lossy(0.1).with_dup(0.1);
            let mut sim = if instrument {
                Simulator::instrumented(topo, protocols, link, 77, trace.clone())
            } else {
                Simulator::with_trace(topo, protocols, link, 77, trace.clone())
            };
            sim.run_to_quiescence(10_000);
            (trace.take(), sim.metrics().clone(), sim.now())
        };
        let plain = run(false);
        let instrumented = run(true);
        assert_eq!(plain.0, instrumented.0, "traces diverged");
        assert_eq!(plain.2, instrumented.2, "end times diverged");
        let counters_of = |m: &Metrics| m.counters().collect::<Vec<_>>();
        assert_eq!(counters_of(&plain.1), counters_of(&instrumented.1));
    }

    /// `Ctx::set_cause` re-tags subsequently queued actions, and the tag
    /// flows down the causal chain to every descendant.
    #[test]
    fn set_cause_retags_descendant_lineage() {
        /// Origin relays its timer-driven sends as "routing"; receivers
        /// forward once without touching the cause.
        #[derive(Clone)]
        struct Relay {
            forwarded: bool,
            origin: bool,
        }
        impl Protocol for Relay {
            type Msg = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                if self.origin {
                    ctx.set_timer(1, 0);
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: u64) {
                assert_eq!(ctx.cause(), CauseClass::Bootstrap);
                let prev = ctx.set_cause(CauseClass::Routing);
                ctx.broadcast(());
                ctx.set_cause(prev);
                assert_eq!(ctx.cause(), CauseClass::Bootstrap);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _: usize, _: ()) {
                assert_eq!(ctx.cause(), CauseClass::Routing, "inherited tag");
                if !self.forwarded {
                    self.forwarded = true;
                    ctx.broadcast(());
                }
            }
            fn reset(&mut self) {
                self.forwarded = false;
            }
        }
        let topo = generators::line(3);
        let protocols = vec![
            Relay {
                forwarded: false,
                origin: true,
            },
            Relay {
                forwarded: false,
                origin: false,
            },
            Relay {
                forwarded: false,
                origin: false,
            },
        ];
        let mut sim = Simulator::instrumented(
            topo,
            protocols,
            LinkConfig::ideal(),
            1,
            TraceSink::disabled(),
        );
        sim.run_to_quiescence(1_000);
        let summary = sim.causal_summary().unwrap();
        assert!(summary.delivered() > 0);
        for &(cause, _) in summary.messages.keys() {
            assert_eq!(cause, "routing", "all message traffic was re-tagged");
        }
    }

    /// Records the neighbour slice every callback is lent, and keeps
    /// traffic on every tick so faults land among deliveries.
    #[derive(Clone)]
    struct Witness {
        seen: std::rc::Rc<std::cell::RefCell<Vec<Lent>>>,
    }

    /// A node and the neighbour slice one of its callbacks was lent.
    type Lent = (usize, Vec<usize>);

    impl Witness {
        fn record(&self, ctx: &Ctx<'_, ()>) {
            self.seen
                .borrow_mut()
                .push((ctx.node, ctx.neighbors().to_vec()));
        }
    }

    impl Protocol for Witness {
        type Msg = ();
        fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
            self.record(ctx);
            ctx.set_timer(1, 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _: usize, _: ()) {
            self.record(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: u64) {
            self.record(ctx);
            ctx.broadcast(());
            if ctx.now().ticks() < 40 {
                ctx.set_timer(1, 0);
            }
        }
        fn on_neighbor_up(&mut self, ctx: &mut Ctx<'_, ()>, _: usize) {
            self.record(ctx);
        }
        fn on_neighbor_down(&mut self, ctx: &mut Ctx<'_, ()>, _: usize) {
            self.record(ctx);
        }
        fn reset(&mut self) {}
    }

    proptest::proptest! {
        /// The live adjacency never drifts: under random fault schedules —
        /// crashes, joins (naming dead peers, themselves, strangers), link
        /// flaps, partitions and heals, landing on ticks full of
        /// deliveries — the slice a callback is lent is the node's alive
        /// physical neighbours. After every event each dispatched node's
        /// last slice is compared with the world as the event left it
        /// (within one fault every write to the world that touches a
        /// node's list is followed by a dispatch of that node); the
        /// slices before the last are compared at their own moment by the
        /// `debug_assert` in `dispatch`, which this test also drives.
        #[test]
        fn callbacks_see_the_live_adjacency(
            faults in proptest::collection::vec(
                (0u8..6, 0u64..40, 0usize..8, 0usize..8, proptest::any::<u8>()),
                0..40,
            )
        ) {
            const N: usize = 8;
            let mut topo = generators::ring(N);
            topo.add_edge(0, 3);
            topo.add_edge(2, 6);
            topo.add_edge(4, 7);
            let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let witness = Witness { seen: std::rc::Rc::clone(&seen) };
            let mut sim = Simulator::new(topo, vec![witness; N], LinkConfig::jittered(1, 3), 5);
            let picked = |mask: u8| (0..N).filter(move |u| mask >> u & 1 == 1);
            for &(kind, at, a, b, mask) in &faults {
                let fault = match kind {
                    0 => Fault::Crash { node: a },
                    1 => Fault::Join { node: a, links: picked(mask).chain([b, N + 1]).collect() },
                    2 => Fault::LinkDown { a, b },
                    3 => Fault::LinkUp { a, b },
                    // nodes a and b stay out of both groups
                    4 => Fault::Partition {
                        groups: vec![
                            picked(mask).filter(|&u| u != a && u != b).collect(),
                            picked(!mask).filter(|&u| u != a && u != b).collect(),
                        ],
                    },
                    _ => Fault::Heal,
                };
                sim.schedule_fault(Time(at), fault);
            }
            loop {
                let mut last: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                last.extend(seen.borrow_mut().drain(..));
                for (u, lent) in last {
                    let world: Vec<usize> = sim
                        .topology()
                        .neighbors(u)
                        .filter(|&v| sim.is_alive(v))
                        .collect();
                    proptest::prop_assert_eq!(lent, world, "node {} at {:?}", u, sim.now());
                }
                if !sim.step() {
                    break;
                }
            }
        }
    }
}
