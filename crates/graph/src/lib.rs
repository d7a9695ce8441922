//! Graph substrate for the `ssr-linearize` workspace.
//!
//! Everything the paper's evaluation runs on is a synthetic topology: the
//! physical network graph `E_p` of an SSR/VRR deployment (unit-disk graphs
//! for the MANET/sensor motivation), and the random-regular / Erdős–Rényi /
//! power-law graphs on which Onus et al. state their convergence results.
//! This crate provides:
//!
//! * a mutable undirected [`Graph`] stored as one sorted adjacency row per
//!   node: deterministic ascending iteration, [`Graph::row`] as a contiguous
//!   slice for traversal, and [`Graph::from_sorted_rows`] for code (the round
//!   engine of `ssr-linearize`) that computes whole neighborhoods at once,
//! * the topology [`generators`] used by every experiment, and
//! * the classic [`algo`]rithms (BFS, components, diameter, shortest paths)
//!   that the consistency checkers and the stretch experiment need.
//!
//! Node *indices* here are dense `usize`s; the mapping to sparse 64-bit SSR
//! addresses lives in [`labeling`].

#![warn(missing_docs)]

pub mod algo;
pub mod generators;
pub mod graph;
pub mod labeling;

pub use graph::Graph;
pub use labeling::Labeling;
