//! Parallel deterministic sweep orchestrator.
//!
//! Every point of an experiment sweep — a (scenario, topology size, seed)
//! cell of the matrix — is an independent simulation: a sealed function of
//! its configuration and seed. The orchestrator fans those jobs out over a
//! pool of scoped worker threads and guarantees that **everything observable
//! downstream is byte-independent of the worker count and of OS
//! scheduling**:
//!
//! * jobs are enumerated in one canonical order ([`Matrix::jobs`]:
//!   scenario-major, then size, then seed) with a dense job index;
//! * workers pull the next job index from a shared atomic queue, so the
//!   *assignment* of jobs to threads is scheduling-dependent — but each
//!   result is written into a slot table **at its job index**
//!   ([`run_jobs`]), never appended in completion order;
//! * merged artifacts (metric registries via [`ssr_sim::Metrics::merge`],
//!   causal ledgers via [`ssr_sim::ProvenanceSummary::merge`], tables,
//!   manifests) are folded from that slot table in job order
//!   ([`SweepOutcome::merge_metrics`]).
//!
//! The single sanctioned `std::thread` use in the workspace lives here
//! ([`run_jobs`] carries the one `#[expect]` against the root
//! `clippy.toml`'s thread ban); a job function must not read wall clocks or
//! the environment — `clippy.toml` bans those everywhere, and
//! `tests/tests/sweep_determinism.rs` pins the byte-identity
//! guarantee end to end, worker counts 1/2/8 against each other, with a
//! deliberately slow first job forcing completion order ≠ input order.
//!
//! The experiments drive this through their shared shell (`--workers N`,
//! `--matrix SPEC` — see `ssr_bench::Shell::{matrix, sweep}` and
//! [`Matrix::override_with`]); docs/SWEEPS.md is the operator guide.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ssr_sim::Metrics;

/// One cell of a sweep matrix, identified by its dense position in the
/// canonical job order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Dense position in [`Matrix::jobs`] order — the slot this job's
    /// result lands in, regardless of when it completes.
    pub index: usize,
    /// Index into [`Matrix::scenarios`].
    pub scenario: usize,
    /// Topology size for this cell.
    pub n: usize,
    /// Per-run seed.
    pub seed: u64,
}

/// The scenario × n × seed cross product an experiment sweeps.
///
/// Binaries construct their default matrix, apply `--matrix` overrides via
/// [`Matrix::override_with`], and hand the result to [`run_matrix`]. The
/// resolved dimensions (never the worker count) are what belongs in a run
/// manifest: they determine the output bytes, the workers do not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matrix {
    /// Scenario names (protocol variants, fault mixes, topology families —
    /// whatever the binary's outer dimension is).
    pub scenarios: Vec<String>,
    /// Topology sizes.
    pub sizes: Vec<usize>,
    /// Explicit seed list (`--matrix seeds=K` expands to `0..K`).
    pub seeds: Vec<u64>,
}

impl Matrix {
    /// A matrix from scenario names, sizes, and a seed *count* (seeds
    /// `0..count`, matching the experiments' historical `--seeds K` flag).
    pub fn new<S: Into<String>>(
        scenarios: impl IntoIterator<Item = S>,
        sizes: Vec<usize>,
        seed_count: u64,
    ) -> Matrix {
        Matrix {
            scenarios: scenarios.into_iter().map(Into::into).collect(),
            sizes,
            seeds: (0..seed_count).collect(),
        }
    }

    /// Number of jobs in the cross product.
    pub fn len(&self) -> usize {
        self.scenarios.len() * self.sizes.len() * self.seeds.len()
    }

    /// `true` when any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scenario name of a job.
    pub fn name(&self, job: &Job) -> &str {
        &self.scenarios[job.scenario]
    }

    /// The full job list in canonical order: scenario-major, then size,
    /// then seed. This order — not completion order — is the order results
    /// are collected, merged, and rendered in.
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::with_capacity(self.len());
        for (scenario, _) in self.scenarios.iter().enumerate() {
            for &n in &self.sizes {
                for &seed in &self.seeds {
                    jobs.push(Job {
                        index: jobs.len(),
                        scenario,
                        n,
                        seed,
                    });
                }
            }
        }
        jobs
    }

    /// Canonical one-line description of the resolved dimensions, suitable
    /// for a manifest config entry (it round-trips through
    /// [`Matrix::override_with`]).
    pub fn describe(&self) -> String {
        let join = |it: Vec<String>| it.join(",");
        format!(
            "scenario={};n={};seed={}",
            join(self.scenarios.clone()),
            join(self.sizes.iter().map(|n| n.to_string()).collect()),
            join(self.seeds.iter().map(|s| s.to_string()).collect()),
        )
    }

    /// Applies a `--matrix` override spec onto this (default) matrix.
    ///
    /// The spec is `;`-separated `key=value` clauses:
    ///
    /// * `scenario=a,b` — restrict to the named scenarios (every name must
    ///   exist in the default set; the default order is kept);
    /// * `n=50,100` — replace the size list;
    /// * `seeds=K` — seeds `0..K`; `seeds=A..B` — the half-open range;
    ///   `seed=3,7,9` (or a comma list under `seeds=`) — an explicit list.
    ///
    /// Unknown keys, unknown scenario names, and empty dimensions are
    /// errors — a silently empty sweep would look like a passing one.
    pub fn override_with(&mut self, spec: &str) -> Result<(), String> {
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("`{clause}`: expected key=value"))?;
            match key.trim() {
                "scenario" | "scenarios" => {
                    let want: Vec<&str> = value.split(',').map(str::trim).collect();
                    for w in &want {
                        if !self.scenarios.iter().any(|s| s == w) {
                            return Err(format!(
                                "unknown scenario `{w}` (available: {})",
                                self.scenarios.join(", ")
                            ));
                        }
                    }
                    self.scenarios.retain(|s| want.contains(&s.as_str()));
                }
                "n" | "size" | "sizes" => {
                    self.sizes = value
                        .split(',')
                        .map(|v| v.trim().parse().map_err(|e| format!("n `{v}`: {e}")))
                        .collect::<Result<_, _>>()?;
                }
                "seed" | "seeds" => {
                    self.seeds = parse_seeds(value)?;
                }
                other => {
                    return Err(format!(
                        "unknown matrix key `{other}` (expected scenario=, n=, seeds=)"
                    ))
                }
            }
        }
        if self.is_empty() {
            return Err("matrix has an empty dimension".into());
        }
        Ok(())
    }
}

/// `K` → `0..K`; `A..B` → the half-open range; `a,b,c` → explicit list.
fn parse_seeds(value: &str) -> Result<Vec<u64>, String> {
    let value = value.trim();
    if let Some((lo, hi)) = value.split_once("..") {
        let lo: u64 = lo.trim().parse().map_err(|e| format!("seed `{lo}`: {e}"))?;
        let hi: u64 = hi.trim().parse().map_err(|e| format!("seed `{hi}`: {e}"))?;
        if lo >= hi {
            return Err(format!("empty seed range {lo}..{hi}"));
        }
        return Ok((lo..hi).collect());
    }
    let parts: Vec<u64> = value
        .split(',')
        .map(|v| v.trim().parse().map_err(|e| format!("seed `{v}`: {e}")))
        .collect::<Result<_, _>>()?;
    match parts.as_slice() {
        [] => Err("empty seed list".into()),
        // a single number is a count (matches the historical `--seeds K`)
        [k] => Ok((0..*k).collect()),
        _ => Ok(parts),
    }
}

/// The results of one matrix sweep, in canonical job order.
pub struct SweepOutcome<O> {
    /// The resolved matrix the jobs came from.
    pub matrix: Matrix,
    /// One output per job, indexed exactly like [`Matrix::jobs`].
    pub outputs: Vec<O>,
}

impl<O> SweepOutcome<O> {
    /// Iterates the (scenario name, n, per-seed outputs) cells in canonical
    /// order. Each cell's slice is in seed order — the natural shape for a
    /// results table row.
    pub fn cells(&self) -> impl Iterator<Item = (&str, usize, &[O])> {
        let per_cell = self.matrix.seeds.len();
        self.matrix
            .scenarios
            .iter()
            .flat_map(move |s| self.matrix.sizes.iter().map(move |&n| (s.as_str(), n)))
            .zip(self.outputs.chunks(per_cell))
            .map(|((s, n), chunk)| (s, n, chunk))
    }

    /// Folds every job's metric registry into one, in job order — the
    /// deterministic histogram/counter merge that makes the merged manifest
    /// independent of scheduling.
    pub fn merge_metrics(&self, of: impl Fn(&O) -> &Metrics) -> Metrics {
        let mut merged = Metrics::new();
        for o in &self.outputs {
            merged.merge(of(o));
        }
        merged
    }
}

/// Runs every job of `matrix` on a pool of `workers` threads and collects
/// the outputs by job index.
pub fn run_matrix<O, F>(matrix: &Matrix, workers: usize, f: F) -> SweepOutcome<O>
where
    O: Send,
    F: Fn(&Job) -> O + Sync,
{
    let jobs = matrix.jobs();
    let outputs = run_jobs(&jobs, workers, |_, job| f(job));
    SweepOutcome {
        matrix: matrix.clone(),
        outputs,
    }
}

/// The job-queue executor: applies `f` to every input on a pool of
/// `workers` scoped threads, returning outputs **in input order**.
///
/// Workers take the next un-started input from a shared atomic counter and
/// write the result into a pre-sized slot table at the input's index, so
/// the output vector's order is the input order *by construction* — no
/// completion-order channel, no sort. `f` is shared across workers (hence
/// `Sync`) and receives the input index alongside the input.
#[expect(
    clippy::disallowed_methods,
    reason = "results land by job index, so scheduling never reaches the output bytes"
)]
pub fn run_jobs<I, O, F>(inputs: &[I], workers: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        // serial fast path: no threads, same order, same bytes
        return inputs.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let (next, slots_ref, f) = (&next, &slots, &f);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let slots = slots_ref;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i, &inputs[i]);
                *slots[i].lock().expect("job slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("job slot poisoned")
                .expect("every job slot filled")
        })
        .collect()
}

/// Applies `f` to every input on a pool of `workers` threads, returning
/// outputs in input order. Convenience wrapper over [`run_jobs`] for sweeps
/// whose inputs are not a [`Matrix`] (pinned seed lists, ad-hoc point sets).
pub fn parallel_map<I, O, F>(inputs: Vec<I>, workers: usize, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    run_jobs(&inputs, workers, |_, x| f(x))
}

/// Default worker count: physical parallelism minus one, at least one.
pub fn default_workers() -> usize {
    max_workers().saturating_sub(1).max(1)
}

/// Every hardware thread (`--workers 0` resolves to this).
pub fn max_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> Matrix {
        Matrix::new(["a", "b"], vec![16, 32], 3)
    }

    #[test]
    fn jobs_enumerate_scenario_major() {
        let m = matrix();
        let jobs = m.jobs();
        assert_eq!(jobs.len(), 12);
        assert_eq!(
            jobs[0],
            Job {
                index: 0,
                scenario: 0,
                n: 16,
                seed: 0
            }
        );
        assert_eq!(
            jobs[3],
            Job {
                index: 3,
                scenario: 0,
                n: 32,
                seed: 0
            }
        );
        assert_eq!(
            jobs[6],
            Job {
                index: 6,
                scenario: 1,
                n: 16,
                seed: 0
            }
        );
        assert_eq!(
            jobs[11],
            Job {
                index: 11,
                scenario: 1,
                n: 32,
                seed: 2
            }
        );
        assert!(jobs.iter().enumerate().all(|(i, j)| j.index == i));
    }

    #[test]
    fn override_replaces_dimensions() {
        let mut m = matrix();
        m.override_with("n=64; seeds=2").unwrap();
        assert_eq!(m.sizes, vec![64]);
        assert_eq!(m.seeds, vec![0, 1]);
        m.override_with("scenario=b").unwrap();
        assert_eq!(m.scenarios, vec!["b".to_string()]);
        m.override_with("seed=5,9").unwrap();
        assert_eq!(m.seeds, vec![5, 9]);
        m.override_with("seeds=4..7").unwrap();
        assert_eq!(m.seeds, vec![4, 5, 6]);
    }

    #[test]
    fn override_keeps_default_scenario_order() {
        let mut m = matrix();
        m.override_with("scenario=b,a").unwrap();
        assert_eq!(m.scenarios, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn override_rejects_bad_specs() {
        assert!(matrix().override_with("scenario=zzz").is_err());
        assert!(matrix().override_with("bogus=1").is_err());
        assert!(matrix().override_with("n=").is_err());
        assert!(matrix().override_with("seeds=0").is_err()); // empty dimension
        assert!(matrix().override_with("seeds=7..3").is_err());
        assert!(matrix().override_with("n").is_err());
    }

    #[test]
    fn describe_round_trips() {
        let mut m = matrix();
        m.override_with("seed=3,7").unwrap();
        let desc = m.describe();
        let mut again = matrix();
        again.override_with(&desc).unwrap();
        assert_eq!(m, again);
    }

    #[test]
    fn run_matrix_collects_by_job_index() {
        let m = matrix();
        for workers in [1, 2, 8] {
            let out = run_matrix(&m, workers, |job| (job.index, job.n, job.seed));
            assert_eq!(out.outputs.len(), 12);
            assert!(out.outputs.iter().enumerate().all(|(i, o)| o.0 == i));
        }
    }

    #[test]
    fn cells_group_by_scenario_and_size() {
        let m = matrix();
        let out = run_matrix(&m, 4, |job| job.seed);
        let cells: Vec<(&str, usize, &[u64])> = out.cells().collect();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0], ("a", 16, &[0, 1, 2][..]));
        assert_eq!(cells[3], ("b", 32, &[0, 1, 2][..]));
    }

    #[test]
    fn merged_metrics_are_worker_count_independent() {
        let m = matrix();
        let run = |workers| {
            let out = run_matrix(&m, workers, |job| {
                let mut metrics = Metrics::new();
                metrics.add("tx.total", job.seed + job.n as u64);
                metrics.observe_hist("chaos.recovery_ticks", job.index as u64 + 1);
                metrics
            });
            out.merge_metrics(|m| m)
        };
        let merged1 = run(1);
        for workers in [2, 8] {
            let merged = run(workers);
            assert_eq!(
                merged.counter("tx.total"),
                merged1.counter("tx.total"),
                "workers={workers}"
            );
            assert_eq!(
                merged.hist("chaos.recovery_ticks").map(|h| h.count()),
                merged1.hist("chaos.recovery_ticks").map(|h| h.count()),
            );
        }
    }

    #[test]
    fn preserves_order_under_adversarial_completion() {
        // job 0 busy-waits until every other job has finished, forcing the
        // completion order to be the exact reverse of the input order at
        // the front; the slot table must still return input order
        let done = AtomicUsize::new(0);
        let inputs: Vec<u64> = (0..16).collect();
        let n = inputs.len();
        let out = parallel_map(inputs, 4, |&x| {
            if x == 0 {
                while done.load(Ordering::SeqCst) < n - 1 {
                    std::hint::spin_loop();
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
            x * 10
        });
        let expected: Vec<u64> = (0..16).map(|x| x * 10).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn single_worker_path() {
        let out = parallel_map(vec![1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_inputs() {
        let out = parallel_map(vec![5], 64, |&x| x * 2);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn heavy_closure_runs_once_per_input() {
        let calls = AtomicUsize::new(0);
        let out = parallel_map((0..50).collect(), 4, |&x: &usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 50);
        assert_eq!(calls.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn default_workers_positive() {
        assert!(default_workers() >= 1);
        assert!(max_workers() >= default_workers());
    }
}
