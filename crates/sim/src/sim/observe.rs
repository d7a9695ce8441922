//! The experiment's window on a run: read accessors and work counters,
//! state injection, and probes that fire on tick grids between events.

use super::{Graph, Metrics, Protocol, Simulator, Time, TraceSink};
use crate::ledger::{CausalLedger, ProvenanceSummary};

/// A read-only snapshot of the simulation handed to [probes](Simulator::add_probe),
/// plus mutable access to the metrics registry so probes can record
/// gauges and histograms.
///
/// Probes that scan all protocol state every firing (watchdog signatures,
/// ring classification, invariant audits) should gate the scan on
/// [`ProbeView::state_gen`]: if it equals the value seen at the previous
/// firing, *nothing* in the simulation changed in between — no protocol
/// callback ran and no fault was applied — so the previous scan result is
/// still exact and the O(n) rescan can be skipped. This is what makes
/// probe grids over long idle tick ranges cost O(1) per grid point instead
/// of O(n).
pub struct ProbeView<'a, P: Protocol> {
    /// Current simulated time.
    pub now: Time,
    /// Every node's protocol state, indexed by node.
    pub protocols: &'a [P],
    /// The physical topology (reflecting applied faults).
    pub topology: &'a Graph,
    /// Per-node liveness.
    pub alive: &'a [bool],
    /// The run's metrics registry (mutable: probes may record).
    pub metrics: &'a mut Metrics,
    /// The run's trace sink — probes (e.g. the freeze watchdog) may emit
    /// structured diagnostics into it.
    pub trace: &'a TraceSink,
    /// Number of events still queued.
    pub pending_events: usize,
    /// Monotone generation counter, bumped on every protocol callback,
    /// fault application, and experiment-side state injection. Equal values
    /// across two probe firings guarantee the simulation state (protocols,
    /// topology, liveness) is bit-for-bit unchanged between them.
    pub state_gen: u64,
}

/// A probe callback (boxed so heterogeneous observers can coexist).
type ProbeFn<P> = Box<dyn FnMut(&mut ProbeView<'_, P>)>;

/// A registered observer: fires every `every` ticks during the run loops.
pub(super) struct Probe<P: Protocol> {
    every: u64,
    next_at: Time,
    f: ProbeFn<P>,
}

impl<P: Protocol> Simulator<P> {
    /// A mergeable snapshot of the causal ledger, when instrumented.
    pub fn causal_summary(&self) -> Option<ProvenanceSummary> {
        self.ledger.as_deref().map(CausalLedger::summary)
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The physical topology (reflecting applied faults).
    pub fn topology(&self) -> &Graph {
        self.world.topo()
    }

    /// `true` if `node` is currently up.
    pub fn is_alive(&self, node: usize) -> bool {
        self.world.is_alive(node)
    }

    /// Shared view of node `u`'s protocol state.
    pub fn protocol(&self, u: usize) -> &P {
        &self.protocols[u]
    }

    /// Mutable access to node `u`'s protocol state — for experiment-side
    /// *state injection* (e.g. starting from the paper's adversarial loopy
    /// or partitioned configurations). Protocol callbacks themselves never
    /// get this.
    ///
    /// The state generation is bumped, so probes caching on
    /// [`ProbeView::state_gen`] never reuse a scan across an injection.
    pub fn protocol_mut(&mut self, u: usize) -> &mut P {
        self.state_gen += 1;
        &mut self.protocols[u]
    }

    /// All protocol instances, indexed by node.
    pub fn protocols(&self) -> &[P] {
        &self.protocols
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics access (for experiment-level annotations).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of the pending-event queue over the run — the
    /// benchmark's `sim.peak_queue_depth` metric.
    pub fn peak_pending_events(&self) -> usize {
        self.queue.peak_len()
    }

    /// Total protocol callback invocations so far ("node activations") —
    /// with [`Simulator::messages_delivered`], the work metric the
    /// benchmark harness reports instead of wall-clock ticks alone.
    pub fn node_activations(&self) -> u64 {
        self.activations
    }

    /// Messages actually delivered to a protocol (after loss, liveness and
    /// stale-link filtering) so far.
    pub fn messages_delivered(&self) -> u64 {
        self.deliveries
    }

    /// Registers an observer invoked every `every` ticks during the
    /// [`Simulator::run_until`]-family loops (first firing at the current
    /// time). Probes see a consistent snapshot *between* events: every
    /// event at a tick `< t` has been fully processed when a probe fires
    /// at `t`, and none at `>= t` has. They run in registration order and
    /// may record into the metrics registry, which makes them the hook for
    /// convergence timelines (ring-shape classification, per-node churn).
    ///
    /// Single [`Simulator::step`] calls do **not** fire probes.
    ///
    /// # Panics
    /// Panics if `every == 0`.
    pub fn add_probe(&mut self, every: u64, f: impl FnMut(&mut ProbeView<'_, P>) + 'static) {
        assert!(every > 0, "probe interval must be positive");
        self.probes.push(Probe {
            every,
            next_at: self.now,
            f: Box::new(f),
        });
    }

    /// Earliest pending probe deadline, if any probes are registered.
    pub(super) fn next_probe_due(&self) -> Option<Time> {
        self.probes.iter().map(|p| p.next_at).min()
    }

    /// Fires every probe whose deadline has passed, then re-arms it on its
    /// own `every`-grid strictly after `now`.
    pub(super) fn fire_due_probes(&mut self) {
        if self.probes.is_empty() {
            return;
        }
        let mut probes = std::mem::take(&mut self.probes);
        for probe in probes.iter_mut() {
            if probe.next_at > self.now {
                continue;
            }
            let mut view = ProbeView {
                now: self.now,
                protocols: &self.protocols,
                topology: self.world.topo(),
                alive: self.world.alive(),
                metrics: &mut self.metrics,
                trace: &self.trace,
                pending_events: self.queue.len(),
                state_gen: self.state_gen,
            };
            (probe.f)(&mut view);
            while probe.next_at <= self.now {
                probe.next_at += probe.every;
            }
        }
        debug_assert!(self.probes.is_empty(), "probe registered a probe");
        self.probes = probes;
    }
}
