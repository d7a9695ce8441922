//! `sim_relay`: the simulator with a handler that costs next to nothing.
//!
//! Tokens hop between random neighbours until their time-to-live runs out;
//! every eighth hop is parked on a timer instead of forwarded at once. All
//! the time goes into the event wheel, `dispatch`, `transmit_copy` and the
//! metrics registry, so a simulator change shows here at full strength and
//! a `core`/`vrr` change shows nothing. Deliveries are closed-form
//! (`n * tokens * (ttl + 1)`), so rate and wall time are the same number.
//! The pass ends with a long idle range under a probe grid, which must stay
//! O(1) per grid point.
//!
//! The graph is the first corpus graph; `--seed` seeds the simulator, that
//! is every walk and every parking delay. (A graph per seed made `setup_s`
//! two-valued: the generator retries until the disk graph is connected.)

use std::time::Instant;

use ssr_sim::faults::Fault;
use ssr_sim::{shared_watchdog, watchdog_probe, Ctx, LinkConfig, Protocol, Simulator, Time};
use ssr_workloads::Topology;

use crate::common::{measure, msg_kind_sum, secs_since, Config, Counters, Report, BUDGET, GRID};
use crate::probes;
use crate::span::Tracer;
use crate::timed::Timed;

/// Every `PARK_EVERY`-th hop of a token waits on a timer of 1 to
/// `PARK_MAX` ticks.
const PARK_EVERY: u32 = 8;
const PARK_MAX: u64 = 64;

#[derive(Clone, Debug)]
pub struct Token {
    /// Hops this token may still make.
    ttl: u32,
}

/// The benchmark-local relay protocol.
pub struct Relay {
    tokens: u32,
    ttl: u32,
    pub received: u64,
    pub parked: u64,
}

impl Relay {
    fn forward(ctx: &mut Ctx<'_, Token>, ttl: u32) {
        let degree = ctx.neighbors().len();
        let pick = ctx.rng().index(degree);
        let to = ctx.neighbors()[pick];
        ctx.send(to, Token { ttl });
    }
}

impl Protocol for Relay {
    type Msg = Token;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Token>) {
        for _ in 0..self.tokens {
            Relay::forward(ctx, self.ttl);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, _from: usize, msg: Token) {
        self.received += 1;
        if msg.ttl == 0 {
            return;
        }
        let next = msg.ttl - 1;
        if msg.ttl.is_multiple_of(PARK_EVERY) {
            self.parked += 1;
            let delay = ctx.rng().range(1, PARK_MAX + 1);
            ctx.set_timer(delay, u64::from(next));
        } else {
            Relay::forward(ctx, next);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Token>, token: u64) {
        Relay::forward(ctx, token as u32);
    }

    fn reset(&mut self) {
        self.received = 0;
        self.parked = 0;
    }

    fn kind(_msg: &Token) -> &'static str {
        "data"
    }
}

fn relays(cfg: &Config) -> Vec<Relay> {
    (0..cfg.sizes.relay_n)
        .map(|_| Relay {
            tokens: cfg.sizes.relay_tokens,
            ttl: cfg.sizes.relay_ttl,
            received: 0,
            parked: 0,
        })
        .collect()
}

fn topology(cfg: &Config) -> Topology {
    Topology::UnitDisk {
        n: cfg.sizes.relay_n,
        scale: 1.3,
    }
}

fn expected_deliveries(cfg: &Config) -> u64 {
    cfg.sizes.relay_n as u64
        * u64::from(cfg.sizes.relay_tokens)
        * (u64::from(cfg.sizes.relay_ttl) + 1)
}

/// What a pass computed, for the determinism and output checks.
#[derive(Clone, Debug, PartialEq)]
pub struct Relayed {
    counters: Counters,
    deliveries: u64,
    kind_sum: u64,
    drained: bool,
    idle_activations: u64,
    grid_points: u64,
}

/// Arms the idle phase: a watchdog grid over `idle_ticks` empty ticks, with
/// one far-future no-op fault pending so the run loop walks the grid
/// instead of going quiescent. Returns the deadline.
fn arm_idle<P: Protocol + 'static>(sim: &mut Simulator<P>, idle_ticks: u64) -> Time {
    sim.add_probe(
        GRID,
        watchdog_probe(
            u64::MAX / 2, // never freeze: the grid walk is what is measured
            shared_watchdog(),
            |nodes: &[P]| nodes.len() as u64,
            |_: &[P]| false,
            |_: &[P]| true,
        ),
    );
    let deadline = Time(sim.now().ticks() + idle_ticks);
    sim.schedule_fault(deadline, Fault::Heal);
    deadline
}

/// The timed section: relay until the tokens die out, then the idle range.
fn pass(cfg: &Config, sim: &mut Simulator<Relay>) -> (Vec<f64>, Relayed) {
    let start = Instant::now();
    let drained = sim.run_to_quiescence(BUDGET).is_quiescent();
    let relay_wall = secs_since(start);
    let counters = Counters::of(sim);
    let deliveries = sim.messages_delivered();
    let kind_sum = msg_kind_sum(sim.metrics());
    let start = Instant::now();
    let deadline = arm_idle(sim, cfg.sizes.idle_ticks);
    sim.run_until(deadline);
    let idle_wall = secs_since(start);
    let relayed = Relayed {
        counters,
        deliveries,
        kind_sum,
        drained,
        idle_activations: sim.node_activations() - counters.activations,
        grid_points: cfg.sizes.idle_ticks / GRID,
    };
    (vec![relay_wall, idle_wall], relayed)
}

fn check(cfg: &Config, report: &mut Report, r: &Relayed, passes: u64) {
    let expected = expected_deliveries(cfg);
    report.attempted += passes;
    report.failed += u64::from(!r.drained) * passes;
    report.check(r.deliveries == expected, || {
        format!("{} deliveries, closed form says {expected}", r.deliveries)
    });
    report.check(r.kind_sum == r.counters.tx, || {
        format!(
            "msg.* sums to {}, tx.total is {}",
            r.kind_sum, r.counters.tx
        )
    });
    report.check(r.idle_activations == 0, || {
        format!("{} activations in the idle range", r.idle_activations)
    });
}

pub fn untraced(cfg: &Config) -> Report {
    let m = measure(
        cfg.seconds,
        true,
        || {
            let (g, _) = topology(cfg).instance(cfg.corpus);
            Simulator::new(g, relays(cfg), LinkConfig::ideal(), cfg.seed)
        },
        |sim| pass(cfg, sim),
    );
    let mut report = Report::default();
    let wall_s = m.report(&mut report);
    report.set("deliveries_per_s", expected_deliveries(cfg) as f64 / wall_s);
    check(cfg, &mut report, &m.first, m.passes());
    report
}

pub fn traced(cfg: &Config, tr: &mut Tracer) -> Report {
    let mut report = Report::default();

    let (g, _) = topology(cfg).instance(cfg.corpus);
    let mut sim = Simulator::new(g, relays(cfg), LinkConfig::ideal(), cfg.seed);
    let (walls, reference) = pass(cfg, &mut sim);
    let untraced_wall: f64 = walls.iter().sum();
    check(cfg, &mut report, &reference, 1);

    let (run, idle, tally, timers) = tr.within("graph", |tr| {
        let (g, _) = tr.within("graph.instance", |_| topology(cfg).instance(cfg.corpus));
        let nodes = Timed::wrap(relays(cfg), None);
        let mut sim = tr.within("sim.new", |_| {
            Simulator::new(g, nodes, LinkConfig::ideal(), cfg.seed)
        });
        let (_, run) = tr.span("sim.run_until", |_| sim.run_to_quiescence(BUDGET));
        let tally = Timed::total(sim.protocols());
        tr.aggregate(
            run,
            "sim.relay.handler",
            tally.total_ns(),
            tally.total_calls(),
        );
        report.determinism_breaks += u64::from(Counters::of(&sim) != reference.counters);
        report.set("sim.events", sim.events_processed() as f64);
        report.set("sim.deliveries", sim.messages_delivered() as f64);
        report.set("sim.activations", sim.node_activations() as f64);
        report.set("sim.peak_queue_depth", sim.peak_pending_events() as f64);
        let timers = sim.protocols().iter().map(|t| t.inner.parked).sum::<u64>();
        let deadline = arm_idle(&mut sim, cfg.sizes.idle_ticks);
        let (_, idle) = tr.span("sim.idle", |_| sim.run_until(deadline));
        (run, idle, tally, timers)
    });

    let run_s = tr.get(run).ns() as f64 / 1e9;
    let self_s = tr.self_ns(run) as f64 / 1e9;
    let idle_s = tr.get(idle).ns() as f64 / 1e9;
    report.set("sim.run_s", run_s);
    report.set("sim.self_s", self_s);
    report.set(
        "sim.self_ns_per_event",
        self_s * 1e9 / reference.counters.events as f64,
    );
    report.set(
        "sim.ns_per_delivery",
        run_s * 1e9 / reference.deliveries as f64,
    );
    report.set(
        "sim.relay.handler_ns_per_call",
        tally.total_ns() as f64 / tally.total_calls().max(1) as f64,
    );
    report.set("sim.relay.timers", timers as f64);
    report.set(
        "sim.idle_ns_per_grid_point",
        idle_s * 1e9 / reference.grid_points as f64,
    );
    probes::simulator(cfg, tr, &mut report);
    report.set("graph.instance_ms", tr.total_s("graph.instance") * 1e3);
    report.set("sim.new_ms", tr.total_s("sim.new") * 1e3);
    report.set(
        "trace.overhead_pct",
        (run_s + idle_s - untraced_wall) / untraced_wall * 100.0,
    );
    report
}
