//! Scalable Source Routing (SSR) with linearization-based global
//! consistency — the primary contribution of the reproduced paper.
//!
//! SSR is a network-layer routing protocol that organizes all nodes into a
//! **virtual ring** ordered by address, independent of the physical
//! topology. Virtual-ring edges are *source routes* (explicit physical
//! paths); each node additionally caches routes to other destinations, and
//! greedy routing over the cached routes delivers any packet once the ring
//! is globally consistent.
//!
//! This crate implements:
//!
//! * [`route`] — source routes: concatenation through a common node,
//!   reversal, and cycle pruning;
//! * [`cache`] — the route cache, whose exponential-interval retention is
//!   exactly the *shortcut neighbor* structure of LSN;
//! * [`message`] — the protocol messages and their wire codec;
//! * [`node`] — the **linearized bootstrap** (Section 4 of the paper):
//!   neighbor notifications / acknowledgments / tear-downs plus clockwise
//!   and counter-clockwise discovery messages that close the ring, with no
//!   flooding anywhere;
//! * [`isprp`] — the baseline: the iterative successor pointer rewiring
//!   protocol, which needs a representative *flood* for global consistency;
//! * [`routing`] — greedy source routing over converged (or converging)
//!   node state;
//! * [`consistency`] — global-observer checkers: local consistency, loopy
//!   states, partitioned rings, the formed line, and the closed ring. The
//!   definitions moved to `ssr_linearize::observe` (they read only the
//!   control core, so VRR shares them); this module re-exports them;
//! * [`bootstrap`] — one-call experiment drivers returning convergence
//!   reports (rounds, message counts by kind, per-node state);
//! * [`chaos`] — adversarial state injection (wound rings, split rings,
//!   random successor corruption, truncated handshakes, stale cache
//!   routes) and the self-stabilization invariant probe (union-graph
//!   connectedness, zero floods, linearization potential — the two
//!   measures themselves are `ssr_linearize::observe`'s, generic over the
//!   node type).

#![warn(missing_docs)]

pub mod bootstrap;
pub mod cache;
pub mod chaos;
pub mod consistency;
pub mod isprp;
pub mod message;
pub mod node;
pub mod node_util;
pub mod route;
pub mod routing;

pub use bootstrap::{
    run_isprp_bootstrap, run_linearized_bootstrap, BootstrapConfig, BootstrapReport,
    ConvergencePoint,
};
pub use cache::RouteCache;
pub use consistency::{check_ring, ConsistencyReport, Linearized};
pub use node::SsrNode;
pub use route::SourceRoute;
