//! Identifier-space primitives shared by every crate in the `ssr-linearize`
//! workspace.
//!
//! The reproduction target — *Using Linearization for Global Consistency in
//! SSR* (Kutzner & Fuhrmann, IPPS 2007) — is entirely a story about one
//! identifier space read two different ways:
//!
//! * as a **ring** (the virtual ring of SSR/VRR, used by greedy routing once
//!   the ring is consistent), and
//! * as a **line** (the total order used by linearization, which makes global
//!   inconsistencies locally visible).
//!
//! This crate provides those two readings ([`ring`]), the node identifier
//! type itself ([`id`]), the exponentially growing interval partition that
//! *linearization with shortcut neighbors* (LSN) and SSR's route cache are
//! built on ([`interval`]), a deterministic pseudo-random number generator so
//! that every simulation is replayable from a seed ([`rng`]), wrapping
//! sequence numbers for protocol state ([`seq`]), a tiny wire-format
//! helper layer ([`wire`]), and the physical neighbour table — address ↔
//! link index — every message-level node keeps ([`neighbors`]).

#![warn(missing_docs)]

pub mod id;
pub mod interval;
pub mod neighbors;
pub mod ring;
pub mod rng;
pub mod seq;
pub mod wire;

pub use id::NodeId;
pub use interval::{interval_index, IntervalPartition, Side};
pub use neighbors::Neighbors;
pub use ring::{cw_dist, ring_between_cw, ring_dist};
pub use rng::{Rng, SplitMix64};
pub use seq::SeqNo;
