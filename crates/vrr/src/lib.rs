//! Virtual Ring Routing (VRR) — the paper's second target protocol.
//!
//! VRR (Caesar et al., SIGCOMM 2006) organizes nodes into the same virtual
//! ring as SSR, but "does not use source routes and route caches": a virtual
//! edge is **hop-by-hop path state** — every node along the physical path
//! between two virtual neighbors holds a routing-table entry
//! `(endpoint_a, endpoint_b, next-hop either way)`, installed by setup
//! messages and used by per-hop greedy forwarding.
//!
//! The paper's claim is that its linearization mechanism "also applies to
//! other routing mechanisms such as Virtual Ring Routing. There the virtual
//! edges are the paths as represented by the routing table entries." This
//! crate implements exactly that transfer:
//!
//! * [`table`] — the per-node path table (the state metric of E10);
//! * [`node`] — the VRR node with **two bootstrap modes**: the baseline
//!   (hello beacons carrying a *representative*, VRR's flooding analogue)
//!   and the **linearized** mode (neighbor notifications + discovery, no
//!   representative dissemination at all);
//! * [`routing`] — per-hop greedy forwarding over path state, a static
//!   walker for the routing experiments, and a walk of one path's rows
//!   that finds forwarding cycles;
//! * [`bootstrap`] — experiment drivers; convergence is judged by the
//!   protocol-agnostic observer `ssr_linearize::observe` (re-exported
//!   trait: [`Linearized`]).

#![warn(missing_docs)]

pub mod bootstrap;
pub mod node;
pub mod routing;
pub mod table;

pub use bootstrap::{
    run_vrr_bootstrap, run_vrr_bootstrap_watched, vrr_ring_consistent, vrr_signature,
    VrrBootstrapReport, VrrWatchReport,
};
pub use node::{VrrConfig, VrrMode, VrrMsg, VrrNode};
pub use routing::{PathWalk, VrrRoutingView};
pub use ssr_linearize::observe::Linearized;
pub use table::{PathEntry, PathTable};
