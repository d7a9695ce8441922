//! Same-seed determinism of the simulator's event-driven hot path on
//! E11-style chaos scenarios.
//!
//! The `BTreeMap`-backed pending-delivery wheel replaced a `BinaryHeap`
//! with a global insertion-sequence tie-break. That heap now lives on as
//! the reference model in `ssr_sim::event`'s own tests, where a proptest
//! requires the wheel to answer every push/pop/inspect sequence the same
//! way — the simulator touches its queue through nothing else, so equal
//! answers there are equal runs here. What stays in this file is the
//! baseline that makes any byte comparison meaningful: the same run
//! repeated is byte-identical to itself.

use integration_tests::{run_chaos, Scenario};
use ssr_obs::Manifest;

/// The same run repeated is byte-identical to itself: manifest JSON (wall
/// time omitted), full event trace, and end tick.
#[test]
fn chaos_runs_are_self_deterministic() {
    let observe = || {
        let run = run_chaos(Scenario::RandomSucc, 24, 5, false);
        let mut man = Manifest::new("perf_equivalence");
        man.seed(5)
            .config("scenario", Scenario::RandomSucc.name())
            .config("n", 24)
            .record_metrics(run.sim.metrics());
        (man.to_json(), run.trace, run.outcome.time().ticks())
    };
    let (a, b) = (observe(), observe());
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}
