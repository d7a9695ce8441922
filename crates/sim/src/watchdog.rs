//! Freeze watchdog: detects livelock / fixpoint-without-convergence.
//!
//! DESIGN.md finding 7 documents VRR runs freezing in a *crossing state*:
//! two non-adjacent mutual virtual edges, every node locally consistent,
//! periodic timers still firing — so the run never goes quiescent and never
//! converges, silently burning the whole tick budget. The watchdog turns
//! that failure mode into a first-class, classified outcome.
//!
//! It is a [probe](crate::Simulator::add_probe) factory, generic over the
//! protocol: the caller supplies a **signature** function (a hash of all
//! ring-relevant protocol state), a **convergence** predicate, and a
//! **local-consistency** predicate. If the signature stops changing for
//! `freeze_window` ticks without convergence, the run is frozen:
//!
//! * every node locally consistent → [`Verdict::FrozenCrossing`] — a
//!   globally wrong fixpoint of locally happy nodes: the crossing state,
//!   or an open ring whose ring-closure probes never arrive;
//! * otherwise → [`Verdict::FrozenStuck`] — a plain stuck state.
//!
//! On the transition to frozen the watchdog increments
//! `probe.watchdog_frozen` and dumps a structured [`TraceEvent::Diag`]
//! into the trace; experiments surface the verdict in their manifests.
//! State is shared through an `Rc<RefCell<_>>` handle so the experiment's
//! stop-condition can fail fast instead of running to the budget.

use std::cell::RefCell;
use std::rc::Rc;

use crate::sim::{ProbeView, Protocol};
use crate::trace::TraceEvent;

/// Classification of the run as seen by the watchdog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// State is still changing (or the watchdog has not fired yet).
    Active,
    /// The convergence predicate holds.
    Converged,
    /// Frozen with every node locally consistent: a globally inconsistent
    /// fixpoint no local rule will ever leave. The name is VRR's crossing
    /// state, but the verdict covers any such fixpoint — an open ring
    /// whose line is formed and whose ring-closure probes die on the way
    /// included. The label stays `frozen_crossing`, which manifests and
    /// `benchmark/` read.
    FrozenCrossing,
    /// Frozen with at least one node still locally inconsistent.
    FrozenStuck,
}

impl Verdict {
    /// Stable machine-readable label used in manifests and diagnostics:
    /// `active`, `converged`, `frozen_crossing`, `frozen_stuck`.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Active => "active",
            Verdict::Converged => "converged",
            Verdict::FrozenCrossing => "frozen_crossing",
            Verdict::FrozenStuck => "frozen_stuck",
        }
    }

    /// `true` for either frozen classification.
    pub fn is_frozen(self) -> bool {
        matches!(self, Verdict::FrozenCrossing | Verdict::FrozenStuck)
    }
}

/// Watchdog state, shared between the probe and the experiment loop.
#[derive(Clone, Debug)]
pub struct WatchdogState {
    /// Current classification.
    pub verdict: Verdict,
    /// Tick at which the signature last changed.
    pub last_change: u64,
    /// Most recent signature (None until the first firing).
    pub last_sig: Option<u64>,
    /// Tick at which the run was first classified frozen, if ever.
    pub frozen_at: Option<u64>,
    /// Number of distinct freeze episodes (a fault can thaw a freeze).
    pub freezes: u64,
}

impl WatchdogState {
    fn new() -> Self {
        WatchdogState {
            verdict: Verdict::Active,
            last_change: 0,
            last_sig: None,
            frozen_at: None,
            freezes: 0,
        }
    }

    /// `true` if the current verdict is a freeze.
    pub fn is_frozen(&self) -> bool {
        self.verdict.is_frozen()
    }
}

/// Shared handle to a [`WatchdogState`].
pub type SharedWatchdog = Rc<RefCell<WatchdogState>>;

/// A fresh shared watchdog state (verdict [`Verdict::Active`]).
pub fn shared_watchdog() -> SharedWatchdog {
    Rc::new(RefCell::new(WatchdogState::new()))
}

/// Builds the watchdog probe. Register it with
/// [`Simulator::add_probe`](crate::Simulator::add_probe); pick a probe
/// interval that divides `freeze_window` a few times over (e.g. window 64,
/// interval 8) so freezes are detected promptly.
///
/// * `signature` — hash of all convergence-relevant protocol state; the
///   watchdog only compares it for equality between firings.
/// * `converged` — the experiment's convergence predicate.
/// * `locally_consistent` — `true` when *every* node is locally happy;
///   distinguishes the crossing state from a plain stuck state.
///
/// The O(n) `signature` and `converged` scans are gated on
/// [`ProbeView::state_gen`]: when nothing in the simulation changed since
/// the previous firing (no callback ran, no fault applied), the cached
/// results are exact and are reused, so a watchdog grid crossing a long
/// idle tick range costs O(1) per grid point. The freeze-window clock
/// still advances every firing — caching never delays a freeze verdict.
pub fn watchdog_probe<P, S, C, L>(
    freeze_window: u64,
    state: SharedWatchdog,
    mut signature: S,
    mut converged: C,
    mut locally_consistent: L,
) -> impl FnMut(&mut ProbeView<'_, P>)
where
    P: Protocol,
    S: FnMut(&[P]) -> u64,
    C: FnMut(&[P]) -> bool,
    L: FnMut(&[P]) -> bool,
{
    assert!(freeze_window > 0, "freeze window must be positive");
    // (state_gen, signature, converged) at the most recent full scan.
    let mut scanned: Option<(u64, u64, bool)> = None;
    move |view: &mut ProbeView<'_, P>| {
        let now = view.now.ticks();
        let (sig, is_converged) = match scanned {
            Some((gen, sig, conv)) if gen == view.state_gen => (sig, conv),
            _ => {
                let sig = signature(view.protocols);
                let conv = converged(view.protocols);
                scanned = Some((view.state_gen, sig, conv));
                (sig, conv)
            }
        };
        let mut st = state.borrow_mut();
        if st.last_sig != Some(sig) {
            // state changed: thaw
            st.last_sig = Some(sig);
            st.last_change = now;
            if st.verdict != Verdict::Converged {
                st.verdict = Verdict::Active;
            }
        }
        if is_converged {
            st.verdict = Verdict::Converged;
            return;
        }
        let was_frozen = st.verdict.is_frozen();
        if now.saturating_sub(st.last_change) >= freeze_window {
            if !was_frozen {
                let verdict = if locally_consistent(view.protocols) {
                    Verdict::FrozenCrossing
                } else {
                    Verdict::FrozenStuck
                };
                st.verdict = verdict;
                st.frozen_at = Some(now);
                st.freezes += 1;
                view.metrics.incr("probe.watchdog_frozen");
                if view.trace.enabled() {
                    view.trace.record(TraceEvent::Diag {
                        at: view.now,
                        source: "watchdog",
                        text: format!(
                            "verdict={} unchanged_since={} window={} pending={}",
                            verdict.label(),
                            st.last_change,
                            freeze_window,
                            view.pending_events
                        ),
                    });
                }
            }
        } else if st.verdict != Verdict::Converged {
            st.verdict = Verdict::Active;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::{Ctx, Simulator};
    use crate::trace::TraceSink;
    use ssr_graph::generators;

    /// Beacons forever; `value` never changes after `settle` ticks.
    #[derive(Clone)]
    struct Beacon {
        value: u64,
        settle: u64,
        happy: bool,
    }
    impl Protocol for Beacon {
        type Msg = ();
        fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.set_timer(1, 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: usize, _: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: u64) {
            if ctx.now().ticks() < self.settle {
                self.value += 1;
            }
            ctx.set_timer(1, 0);
        }
        fn reset(&mut self) {
            self.value = 0;
        }
    }

    fn beacon_sim(settle: u64, happy: bool, trace: TraceSink) -> Simulator<Beacon> {
        let topo = generators::line(3);
        let protos = vec![
            Beacon {
                value: 0,
                settle,
                happy,
            };
            3
        ];
        Simulator::with_trace(topo, protos, LinkConfig::ideal(), 1, trace)
    }

    fn sig(ps: &[Beacon]) -> u64 {
        ps.iter()
            .fold(0u64, |h, p| h.rotate_left(7) ^ p.value.wrapping_mul(31))
    }

    #[test]
    fn classifies_crossing_state_and_fails_fast() {
        let trace = TraceSink::memory();
        let mut sim = beacon_sim(20, true, trace.clone());
        let state = shared_watchdog();
        let st = Rc::clone(&state);
        sim.add_probe(
            4,
            watchdog_probe(
                32,
                state,
                sig,
                |_| false,
                |ps: &[Beacon]| ps.iter().all(|p| p.happy),
            ),
        );
        let st2 = Rc::clone(&st);
        let outcome = sim.run_until_stable(8, 100_000, move |_, _| st2.borrow().is_frozen());
        // fail-fast: stopped as soon as the freeze was classified, not at
        // the 100k budget
        assert!(outcome.time().ticks() < 200, "{:?}", outcome);
        let st = st.borrow();
        assert_eq!(st.verdict, Verdict::FrozenCrossing);
        assert_eq!(st.freezes, 1);
        assert!(st.frozen_at.unwrap() >= 20 + 32);
        assert_eq!(sim.metrics().counter("probe.watchdog_frozen"), 1);
        // a structured diagnosis landed in the trace
        let diags: Vec<String> = trace
            .take()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Diag { source, text, .. } => Some(format!("{source}: {text}")),
                _ => None,
            })
            .collect();
        assert_eq!(diags.len(), 1);
        assert!(diags[0].contains("watchdog: verdict=frozen_crossing"));
    }

    #[test]
    fn locally_inconsistent_freeze_is_stuck_not_crossing() {
        let mut sim = beacon_sim(10, false, TraceSink::disabled());
        let state = shared_watchdog();
        let st = Rc::clone(&state);
        sim.add_probe(
            4,
            watchdog_probe(
                24,
                state,
                sig,
                |_| false,
                |ps: &[Beacon]| ps.iter().all(|p| p.happy),
            ),
        );
        let st2 = Rc::clone(&st);
        sim.run_until_stable(8, 10_000, move |_, _| st2.borrow().is_frozen());
        assert_eq!(st.borrow().verdict, Verdict::FrozenStuck);
        assert_eq!(sim.metrics().counter("probe.watchdog_frozen"), 1);
    }

    #[test]
    fn convergence_wins_over_freeze() {
        let mut sim = beacon_sim(5, true, TraceSink::disabled());
        let state = shared_watchdog();
        let st = Rc::clone(&state);
        sim.add_probe(
            4,
            watchdog_probe(16, state, sig, |_| true, |_: &[Beacon]| true),
        );
        let st2 = Rc::clone(&st);
        sim.run_until_stable(8, 1_000, move |_, _| {
            st2.borrow().verdict == Verdict::Converged
        });
        assert_eq!(st.borrow().verdict, Verdict::Converged);
        assert_eq!(st.borrow().freezes, 0);
        assert_eq!(sim.metrics().counter("probe.watchdog_frozen"), 0);
    }

    /// Sleeps 1000 ticks between timers; state never changes.
    #[derive(Clone)]
    struct Sleeper;
    impl Protocol for Sleeper {
        type Msg = ();
        fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.set_timer(1_000, 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: usize, _: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: u64) {
            ctx.set_timer(1_000, 0);
        }
        fn reset(&mut self) {}
    }

    /// Edge case: the freeze window elapses entirely inside an empty tick
    /// range (the next event is 1000 ticks out). The watchdog grid must
    /// keep walking across the fast-forwarded range — and with nothing
    /// changing, every firing after the first hits the state_gen-cached
    /// scan — so the freeze is classified at tick 64, not at tick 1000.
    #[test]
    fn freeze_window_spans_a_fast_forward() {
        let topo = generators::line(3);
        let mut sim = Simulator::with_trace(
            topo,
            vec![Sleeper; 3],
            LinkConfig::ideal(),
            1,
            TraceSink::disabled(),
        );
        let state = shared_watchdog();
        let st = Rc::clone(&state);
        sim.add_probe(
            8,
            watchdog_probe(64, state, |_: &[Sleeper]| 42, |_| false, |_| true),
        );
        let st2 = Rc::clone(&st);
        let outcome = sim.run_until_stable(8, 10_000, move |_, _| st2.borrow().is_frozen());
        assert_eq!(st.borrow().verdict, Verdict::FrozenCrossing);
        assert_eq!(st.borrow().frozen_at, Some(64));
        assert!(
            outcome.time().ticks() < 1_000,
            "must fail fast inside the empty range, got {:?}",
            outcome
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Verdict::Active.label(), "active");
        assert_eq!(Verdict::Converged.label(), "converged");
        assert_eq!(Verdict::FrozenCrossing.label(), "frozen_crossing");
        assert_eq!(Verdict::FrozenStuck.label(), "frozen_stuck");
        assert!(Verdict::FrozenCrossing.is_frozen());
        assert!(!Verdict::Converged.is_frozen());
    }

    #[test]
    #[should_panic(expected = "freeze window")]
    fn zero_window_panics() {
        let _ = watchdog_probe::<Beacon, _, _, _>(0, shared_watchdog(), sig, |_| false, |_| true);
    }
}
