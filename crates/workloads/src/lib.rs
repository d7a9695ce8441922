//! Experiment scaffolding: topology scenarios, statistics, the parallel
//! deterministic sweep orchestrator, and table/CSV output.
//!
//! Every experiment binary in `ssr-bench` is a thin composition of this
//! crate's pieces: a [`scenario::Topology`] describes the physical network,
//! the [`orchestrator`] enumerates the scenario × n × seed matrix and fans
//! the jobs out over a worker pool (each point is an independent, sealed
//! simulation; results are collected by job index so merged output bytes
//! never depend on worker count or OS scheduling — see docs/SWEEPS.md),
//! [`stats`] aggregates repetitions into mean ± 95% CI, and [`table`]
//! renders the paper-style rows (with optional CSV for plotting).
//!
//! Determinism contract: everything in this crate is a pure function of
//! its inputs plus an explicitly seeded [`ssr_types::Rng`]; the only
//! threads in the workspace live in [`orchestrator`], which guarantees
//! scheduling independence by construction.

#![warn(missing_docs)]

pub mod orchestrator;
pub mod scenario;
pub mod stats;
pub mod table;

pub use orchestrator::{default_workers, parallel_map, run_matrix, Job, Matrix, SweepOutcome};
pub use scenario::Topology;
pub use stats::{summarize_counts, Summary};
pub use table::{write_csv, Table};
