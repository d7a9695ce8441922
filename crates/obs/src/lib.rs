//! Observability tooling for the reproduction's experiment runs.
//!
//! Three pieces, all dependency-free (the build environment has no registry
//! access, so everything — including JSON — is hand-rolled):
//!
//! * [`json`] — a small JSON model, writer, and parser;
//! * [`manifest`] — the machine-readable run manifest every `exp_*`/`fig*`
//!   experiment writes to `results/<exp>.manifest.json`;
//! * [`report`] — summarize/diff/trace-filter logic behind the `obs` CLI.
//!
//! The `obs` binary (this crate's `src/main.rs`) is the human entry point:
//!
//! ```text
//! obs summarize results/exp_convergence.manifest.json
//! obs diff results/a.manifest.json results/b.manifest.json
//! obs trace trace.jsonl --ev send --node 3 --since 100 --until 500
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod manifest;
pub mod report;

pub use json::{parse, Value};
pub use manifest::{git_describe, ChaosScenario, Manifest, TimelinePoint, SCHEMA};
pub use report::{diff, summarize, time_to_consistency, TraceFilter};
