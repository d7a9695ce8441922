//! What the two bootstrap workloads (`ssr_bootstrap`, `vrr_bootstrap`) and
//! `chaos_recovery` share: what is read off a finished simulation, the
//! output checks on it, and the two traced replays.

use ssr_graph::Graph;
use ssr_sim::{LinkConfig, Protocol, Simulator, Time};

use crate::common::{msg_kind_sum, Counters, Report, GRID};
use crate::span::Tracer;
use crate::stats;
use crate::timed::{Tally, Timed, CLASSES};

/// Message kinds the per-layer message breakdown names.
pub const KINDS: [&str; 5] = ["hello", "notify", "ack", "teardown", "discover"];

/// What one finished bootstrap (or recovery) run looks like from outside.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub counters: Counters,
    pub consistent: bool,
    pub floods: u64,
    /// Σ `msg.*` — must equal `counters.tx`.
    pub kind_sum: u64,
    pub kinds: [u64; 5],
    pub wasted: u64,
    pub deliveries: u64,
    pub peak_queue: u64,
    /// Mean and largest per-node state (cache or path-table entries).
    pub state_mean: f64,
    pub state_max: usize,
    pub n: usize,
}

impl Outcome {
    pub fn of<P: Protocol>(
        sim: &Simulator<P>,
        consistent: bool,
        state: impl Fn(&P) -> usize,
    ) -> Outcome {
        let m = sim.metrics();
        let states: Vec<usize> = sim.protocols().iter().map(state).collect();
        Outcome {
            counters: Counters::of(sim),
            consistent,
            floods: m.counter("msg.flood"),
            kind_sum: msg_kind_sum(m),
            kinds: KINDS.map(|kind| m.counter(&format!("msg.{kind}"))),
            wasted: m.counter("rx.wasted"),
            deliveries: sim.messages_delivered(),
            peak_queue: sim.peak_pending_events() as u64,
            state_mean: states.iter().sum::<usize>() as f64 / states.len().max(1) as f64,
            state_max: states.iter().copied().max().unwrap_or(0),
            n: states.len(),
        }
    }

    /// A run is a failed operation unless it reached the consistent ring
    /// without a single flood message.
    pub fn failed(&self) -> bool {
        !self.consistent || self.floods != 0
    }

    /// Simulated ticks to global consistency; `+inf` for a run that never
    /// got there, so it pushes medians the wrong way instead of vanishing.
    pub fn ticks_to_consistent(&self) -> f64 {
        if self.consistent {
            self.counters.ticks as f64
        } else {
            f64::INFINITY
        }
    }

    pub fn msgs_per_node(&self) -> f64 {
        self.counters.tx as f64 / self.n as f64
    }
}

/// The end-to-end simulated costs of a corpus of runs.
pub fn report_costs(report: &mut Report, outcomes: &[Outcome], state: bool) {
    let median =
        |f: &dyn Fn(&Outcome) -> f64| stats::median(&outcomes.iter().map(f).collect::<Vec<_>>());
    report.set("ticks_to_consistent", median(&Outcome::ticks_to_consistent));
    report.set("msgs_per_node", median(&Outcome::msgs_per_node));
    if state {
        report.set("state_per_node", median(&|o| o.state_mean));
    }
}

/// Counts the runs of `passes` passes over a corpus as operations, and
/// applies the checks every run's counters must pass.
pub fn check_outcomes(report: &mut Report, outcomes: &[Outcome], passes: u64) {
    report.attempted += outcomes.len() as u64 * passes;
    report.failed += outcomes.iter().filter(|o| o.failed()).count() as u64 * passes;
    for (i, o) in outcomes.iter().enumerate() {
        report.check(o.floods == 0, || {
            format!("graph {i}: {} flood messages", o.floods)
        });
        report.check(o.kind_sum == o.counters.tx, || {
            format!(
                "graph {i}: msg.* sums to {}, tx.total is {}",
                o.kind_sum, o.counters.tx
            )
        });
    }
}

/// Message breakdown and waste over a corpus, under `prefix`
/// (`core.node` or `vrr.node`).
pub fn report_messages(report: &mut Report, prefix: &str, outcomes: &[Outcome]) {
    for (k, kind) in KINDS.iter().enumerate() {
        let total: u64 = outcomes.iter().map(|o| o.kinds[k]).sum();
        report.set(&format!("{prefix}.msgs.{kind}"), total as f64);
    }
    let wasted: u64 = outcomes.iter().map(|o| o.wasted).sum();
    let rx: u64 = outcomes.iter().map(|o| o.counters.rx).sum();
    report.set(
        &format!("{prefix}.wasted_per_mille"),
        wasted as f64 * 1000.0 / rx.max(1) as f64,
    );
}

/// Replay A: plain nodes, driven from outside in the same [`GRID`]-tick
/// slices `run_until_stable` uses, up to the untraced run's final tick,
/// with a span around every `run_until` slice and every call of the
/// consistency check. Returns the simulator for the follow-up phases.
pub fn replay_sliced<P: Protocol>(
    tr: &mut Tracer,
    sim: &mut Simulator<P>,
    until: u64,
    check_span: &str,
    mut consistent: impl FnMut(&[P]) -> bool,
) -> bool {
    loop {
        let ok = tr.within(check_span, |_| consistent(sim.protocols()));
        if ok || sim.now().ticks() >= until {
            return ok;
        }
        let slice_end = Time(sim.now().ticks() + GRID).min(Time(until));
        let outcome = tr.within("sim.run_until.slice", |_| sim.run_until(slice_end));
        if outcome.is_quiescent() {
            return tr.within(check_span, |_| consistent(sim.protocols()));
        }
    }
}

/// Replay B: the same nodes wrapped in [`Timed`], driven by one
/// `run_until` to the untraced run's final tick. The wrapper's per-class
/// totals become aggregate children of the `sim.run_until` span, so that
/// span's self time is the simulator's own.
pub fn replay_timed<P: Protocol>(
    tr: &mut Tracer,
    topo: Graph,
    timed: Vec<Timed<P>>,
    link: LinkConfig,
    seed: u64,
    until: u64,
    handler_span: &str,
) -> (Simulator<Timed<P>>, Tally) {
    // not "sim.new": replay A already recorded this graph's construction
    let mut sim = tr.within("sim.new.timed", |_| Simulator::new(topo, timed, link, seed));
    let (_, run) = tr.span("sim.run_until", |_| sim.run_until(Time(until)));
    let tally = Timed::total(sim.protocols());
    for (class, name) in CLASSES.iter().enumerate() {
        tr.aggregate(
            run,
            &format!("{handler_span}.{name}"),
            tally.ns(class),
            tally.calls[class],
        );
    }
    (sim, tally)
}

/// Per-layer simulator metrics from the replay-B spans and its counters.
#[derive(Default)]
pub struct SimLayer {
    pub run_s: f64,
    /// `run_s` minus handler time; `None` where no `Timed` replay ran.
    pub self_s: Option<f64>,
    pub events: u64,
    pub deliveries: u64,
    pub activations: u64,
    pub peak_queue: u64,
}

impl SimLayer {
    pub fn absorb<P: Protocol>(&mut self, sim: &Simulator<P>) {
        self.events += sim.events_processed();
        self.deliveries += sim.messages_delivered();
        self.activations += sim.node_activations();
        self.peak_queue = self.peak_queue.max(sim.peak_pending_events() as u64);
    }

    pub fn report(&self, report: &mut Report) {
        report.set("sim.run_s", self.run_s);
        if let Some(self_s) = self.self_s {
            report.set("sim.self_s", self_s);
            report.set(
                "sim.self_ns_per_event",
                self_s * 1e9 / self.events.max(1) as f64,
            );
        }
        report.set(
            "sim.ns_per_delivery",
            self.run_s * 1e9 / self.deliveries.max(1) as f64,
        );
        report.set("sim.events", self.events as f64);
        report.set("sim.deliveries", self.deliveries as f64);
        report.set("sim.activations", self.activations as f64);
        report.set("sim.peak_queue_depth", self.peak_queue as f64);
    }
}

/// Handler totals under `prefix` (`core.node`, `vrr.node`).
pub fn report_handlers(report: &mut Report, prefix: &str, tally: &Tally, per_class: bool) {
    report.set(
        &format!("{prefix}.handler_s"),
        tally.total_ns() as f64 / 1e9,
    );
    report.set(
        &format!("{prefix}.handler_ns_per_call"),
        tally.total_ns() as f64 / tally.total_calls().max(1) as f64,
    );
    if per_class {
        // "other" (strays, link up/down) is in the total only
        for (class, name) in CLASSES.iter().enumerate().take(CLASSES.len() - 1) {
            report.set(
                &format!("{prefix}.handler_s.{name}"),
                tally.ns(class) as f64 / 1e9,
            );
        }
    }
}
