//! Self-stabilizing graph linearization (Onus, Richa, Scheideler — ALENEX
//! 2007), the algorithmic core that the paper transfers to SSR/VRR.
//!
//! *Linearization* is "the task to link the nodes of an arbitrary graph in
//! the order of their identifiers": starting from any connected graph, local
//! rewiring steps transform the edge set into the sorted chain
//! `id_1 – id_2 – … – id_n`. The algorithm is *self-stabilizing* — it
//! converges from every possible input graph — and every step preserves
//! connectedness, which is the property that lets SSR drop its flooding
//! phase: on the line, local consistency implies global consistency.
//!
//! Three variants, as in the paper's Section 2:
//!
//! * **Pure linearization** (Algorithm 1): each node replaces its neighbor
//!   star with the sorted chain of its neighborhood; may take a linear
//!   number of rounds.
//! * **Linearization with memory**: edges are only ever added; converges in
//!   polylogarithmically many rounds on average but lets node state grow.
//! * **Linearization with shortcut neighbors (LSN)**: at most one remembered
//!   edge per exponentially growing identifier interval — the variant whose
//!   structure SSR's route cache provides for free, keeping both convergence
//!   *and* state polylogarithmic.
//!
//! The round engine operates on abstract labeled graphs ([`engine`]). The
//! message-level embeddings live in `ssr-core` and `ssr-vrr`; the per-node
//! control logic they share — handshakes, retries, discovery bookkeeping,
//! ring-closure arbitration — is [`control`], a pure state machine with no
//! simulator in its signature. Its read side is [`observe`]: what a
//! converged and a safe population of `Linearizer`s is (the ring/line
//! predicate, the union-graph and potential invariants); pure as well.
//! [`world`] runs a population of bare control cores on a physical graph,
//! one tick per overlay message and no routes: what the core alone costs.

#![warn(missing_docs)]

pub mod control;
pub mod convergence;
pub mod engine;
pub mod observe;
pub mod variant;
pub mod world;

pub use convergence::{chain_edges_present, is_exact_chain, potential, superfluous_edges};
pub use engine::{run, step_round, LinearizeRun, RoundStats};
pub use variant::{Semantics, Variant};
