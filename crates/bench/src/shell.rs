//! The part of an experiment that is the same for all of them.

use std::path::Path;
use std::time::Instant;

use ssr_obs::{Manifest, TimelinePoint};
use ssr_workloads::{parallel_map, run_matrix, Job, Matrix, SweepOutcome, Table};

use crate::Args;

/// What every experiment repeats, owned once: the start instant, the
/// arguments, `--seeds`, the `--matrix` resolution and the `--workers`
/// fan-out, the results table and its `--csv` copy, the run manifest, and
/// the exit code.
///
/// A body fills the shell in as it goes — config keys, table rows, notes,
/// manifest sections — and may print narrative text directly; [`finish`]
/// then prints the table, the notes, writes CSV and manifest, and turns
/// recorded failures into the exit code. Output order is therefore always
/// narrative, table, notes, CSV line, manifest line.
///
/// [`finish`]: Shell::finish
pub struct Shell {
    exp: &'static str,
    started: Instant,
    /// The experiment's command-line arguments (its own flags live here).
    pub args: Args,
    /// The run manifest, pre-filled with the shared CLI configuration
    /// (`seeds`, `csv`) so every experiment records the flags
    /// that shaped its sweep the same way.
    pub man: Manifest,
    table: Option<Table>,
    notes: String,
    failures: Vec<String>,
}

impl Shell {
    /// Starts the clock and the manifest for experiment `exp`.
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock elapsed time reported in the run manifest; never feeds the simulation"
    )]
    pub fn new(exp: &'static str, args: Args) -> Shell {
        let started = Instant::now();
        let mut man = Manifest::new(exp);
        if let Some(seeds) = args.opt("seeds") {
            man.config("seeds", seeds);
        }
        if let Some(csv) = args.csv() {
            man.config("csv", csv);
        }
        Shell {
            exp,
            started,
            args,
            man,
            table: None,
            notes: String::new(),
            failures: Vec::new(),
        }
    }

    /// `--seeds K`, or the experiment's default.
    pub fn seeds(&self, default: u64) -> u64 {
        self.args.get("seeds", default)
    }

    /// Applies `--matrix SPEC` to `matrix` without recording anything. A
    /// spec that does not parse or names an unknown scenario ends the
    /// process with exit code 2 — before any sweep runs.
    fn override_matrix(&self, matrix: &mut Matrix) {
        if let Some(spec) = self.args.opt("matrix") {
            if let Err(e) = matrix.override_with(spec) {
                eprintln!("--matrix {spec}: {e}");
                std::process::exit(2)
            }
        }
    }

    /// Resolves the sweep matrix: the experiment's defaults overridden by
    /// `--matrix SPEC`, with the *resolved* dimensions recorded in the
    /// manifest config. The worker count is deliberately **not** recorded
    /// — the manifest must stay byte-identical across `--workers`, and the
    /// matrix (not the pool size) is what determines the bytes.
    pub fn matrix(&mut self, mut defaults: Matrix) -> Matrix {
        self.override_matrix(&mut defaults);
        self.man.config("matrix", defaults.describe());
        defaults
    }

    /// Runs every job of `matrix` on the `--workers` pool; results come
    /// back in canonical job order at any pool size.
    pub fn sweep<O: Send>(
        &self,
        matrix: &Matrix,
        cell: impl Fn(&Job) -> O + Sync,
    ) -> SweepOutcome<O> {
        run_matrix(matrix, self.args.workers(), cell)
    }

    /// Like [`Shell::sweep`] for inputs that are not a cross product
    /// (pinned seed lists); outputs come back in input order.
    pub fn map<I: Send + Sync, O: Send>(
        &self,
        inputs: Vec<I>,
        f: impl Fn(&I) -> O + Sync,
    ) -> Vec<O> {
        parallel_map(inputs, self.args.workers(), f)
    }

    /// Starts the results table.
    pub fn table(&mut self, title: impl Into<String>, headers: &[&str]) {
        self.table = Some(Table::new(title, headers));
    }

    /// Appends a row to the results table.
    ///
    /// # Panics
    /// Panics when no table was started or the width does not match.
    pub fn row(&mut self, cells: &[String]) {
        self.table
            .as_mut()
            .expect("row() before table()")
            .row(cells);
    }

    /// Appends a line to the text printed after the table (claims,
    /// fitted exponents, verdicts).
    pub fn note(&mut self, line: impl AsRef<str>) {
        self.notes.push_str(line.as_ref());
        self.notes.push('\n');
    }

    /// Records a violated claim: the run still prints and writes
    /// everything, then exits 1 (the CI gate).
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Copies a bootstrap convergence timeline (as recorded by the probe
    /// subsystem) into the manifest, translating ring shapes to their
    /// stable labels.
    pub fn timeline(&mut self, timeline: &[ssr_core::ConvergencePoint]) {
        for p in timeline {
            self.man.timeline_point(TimelinePoint {
                tick: p.tick,
                shape: p.shape.label(),
                locally_consistent: p.locally_consistent as u64,
                nodes: p.nodes as u64,
                churn: p.succ_churn as u64,
            });
        }
    }

    /// Prints the table and notes, writes the `--csv` copy and the
    /// manifest (`<results>/<exp>.manifest.json`, wall time stamped), and
    /// returns the exit code: 1 if the body recorded a failure, else 0. A
    /// manifest write failure is reported but never fails the run —
    /// manifests are provenance, not results.
    pub fn finish(mut self, results: &Path) -> i32 {
        if let Some(table) = &self.table {
            table.print();
        }
        print!("{}", self.notes);
        if let (Some(table), Some(path)) = (&self.table, self.args.csv()) {
            table.to_csv(path).expect("csv");
            println!("(csv written to {path})");
        }
        self.man.wall_ms(self.started.elapsed().as_millis() as u64);
        let path = results.join(format!("{}.manifest.json", self.exp));
        match self.man.write_to(&path) {
            Ok(()) => println!("(manifest written to {})", path.display()),
            Err(e) => eprintln!("warning: manifest not written: {e}"),
        }
        if !self.failures.is_empty() {
            eprintln!("\nFAIL:");
            for f in &self.failures {
                eprintln!("  {f}");
            }
            return 1;
        }
        0
    }
}
