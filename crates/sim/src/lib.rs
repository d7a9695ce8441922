//! A discrete-event network simulator.
//!
//! The paper evaluates routing-protocol bootstrap mechanisms in network
//! simulations; no offline Rust network-simulation framework exists, so this
//! crate is the substituted substrate (see DESIGN.md). It is deliberately a
//! *network-layer* simulator:
//!
//! * messages travel only between **physical neighbors** — a protocol can
//!   never teleport state across the network; SSR source routes and VRR path
//!   state must be forwarded hop by hop, and every per-link transmission is
//!   metered (that is what makes the flooding-cost experiment E6 honest);
//! * per-link latency, loss, duplication and bounded-delay reordering are
//!   configurable ([`link`]), globally or per link direction
//!   ([`Simulator::set_link_override`]);
//! * execution is fully deterministic for a given seed: the event queue
//!   breaks timestamp ties by insertion sequence, and all randomness flows
//!   from one [`ssr_types::Rng`];
//! * nodes can crash, join, lose links, and partition into components
//!   mid-run ([`faults`]), which is how the churn experiment E8 and the
//!   chaos experiment E11 exercise self-stabilization;
//! * a generic freeze [`watchdog`] classifies livelock /
//!   fixpoint-without-convergence instead of burning the tick budget;
//! * every event carries deterministic causal [`Provenance`], and an
//!   opt-in [`CausalLedger`] ([`ledger`]) attributes message cost per
//!   cause class and kind without perturbing the run
//!   (see `docs/PROFILING.md`);
//! * one callback is a step any caller can run: [`Ctx::new`] builds its
//!   context over buffers the caller owns, which then hold the queued
//!   [`Action`]s in order; [`Simulator`] is one such caller.
//!
//! Protocols implement the [`Protocol`] trait and interact with the world
//! through a [`Ctx`] handed to each callback.

#![warn(missing_docs)]

pub mod event;
pub mod faults;
pub mod ledger;
pub mod link;
pub mod metrics;
pub mod registry;
pub mod sim;
pub mod time;
pub mod trace;
pub mod watchdog;

pub use event::{CauseClass, Provenance};
pub use ledger::{CausalLedger, KindStats, NodeTally, ProvenanceSummary};
pub use link::LinkConfig;
pub use metrics::{Histogram, Metrics};
pub use sim::{Action, Ctx, ProbeView, Protocol, RunOutcome, Simulator};
pub use time::Time;
pub use trace::{TraceEvent, TraceSink};
pub use watchdog::{shared_watchdog, watchdog_probe, SharedWatchdog, Verdict, WatchdogState};
