//! In-repo stand-in for the `criterion` benchmark harness.
//!
//! The build environment cannot reach the crates.io registry, so this crate
//! provides the macro/API subset `benches/micro.rs` uses: `criterion_group!`
//! / `criterion_main!`, [`Criterion::bench_function`], benchmark groups,
//! [`Bencher::iter`] and [`Bencher::iter_batched`]. Measurement is a simple
//! best-of-samples wall-clock timer printed as `ns/iter` — adequate for
//! relative comparisons, with none of criterion's statistics.
//!
//! Like criterion, the harness honours positional substring filters:
//! `cargo bench --bench micro -- route_ sim_noop` runs only the benchmarks
//! whose full name (`group/name`) contains one of them; with no positional
//! argument everything runs. Arguments starting with `-` (cargo passes
//! `--bench`) are ignored.

#![warn(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark harness exists to read the wall clock"
)]

use std::time::Instant;

use std::hint::black_box;

/// How much setup output to keep per batch in [`Bencher::iter_batched`].
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small routine outputs: batches of many iterations.
    SmallInput,
    /// Large routine outputs: one iteration per batch.
    LargeInput,
}

/// The benchmark driver handed to every registered function.
pub struct Criterion {
    sample_size: usize,
    /// Substring filters; empty = run everything.
    filters: Vec<String>,
}

impl Default for Criterion {
    /// The driver `criterion_group!` builds: filters from the command line.
    fn default() -> Self {
        Criterion::filtered(std::env::args().skip(1))
    }
}

impl Criterion {
    /// A driver running only the benchmarks whose name contains one of the
    /// positional (not `-`-prefixed) entries of `args`; all of them if there
    /// is none.
    fn filtered(args: impl IntoIterator<Item = String>) -> Self {
        Criterion {
            sample_size: 20,
            filters: args.into_iter().filter(|a| !a.starts_with('-')).collect(),
        }
    }

    fn selects(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f.as_str()))
    }

    /// Runs `f` repeatedly and prints its timing under `name`.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        if self.selects(name) {
            run_bench(name, self.sample_size, f);
        }
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            parent: self,
        }
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Lowers/raises the number of timing samples taken.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs `f` under `group/name`.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let name = format!("{}/{}", self.name, name);
        if self.parent.selects(&name) {
            run_bench(&name, self.sample_size, f);
        }
        self
    }

    /// Ends the group (no-op; provided for API compatibility).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; runs the measured routine.
pub struct Bencher {
    /// Iterations per sample for the current calibration.
    iters: u64,
    /// Best observed nanoseconds per iteration.
    best_ns_per_iter: f64,
}

impl Bencher {
    /// Measures `routine` back to back.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.record(start.elapsed().as_nanos() as f64, self.iters);
    }

    /// Measures `routine` on fresh inputs from `setup`, excluding setup
    /// time per batch as well as possible (setup runs outside the timed
    /// region; one input per iteration).
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let mut total_ns = 0f64;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total_ns += start.elapsed().as_nanos() as f64;
        }
        self.record(total_ns, self.iters);
    }

    fn record(&mut self, total_ns: f64, iters: u64) {
        let per_iter = total_ns / iters.max(1) as f64;
        if per_iter < self.best_ns_per_iter {
            self.best_ns_per_iter = per_iter;
        }
    }
}

fn run_bench(name: &str, samples: usize, mut f: impl FnMut(&mut Bencher)) {
    // calibration: grow the iteration count until one sample takes ≥ ~5ms
    let mut iters = 1u64;
    loop {
        let mut b = Bencher {
            iters,
            best_ns_per_iter: f64::INFINITY,
        };
        let start = Instant::now();
        f(&mut b);
        if start.elapsed().as_millis() >= 5 || iters >= 1 << 20 {
            break;
        }
        iters *= 4;
    }
    let mut bench = Bencher {
        iters,
        best_ns_per_iter: f64::INFINITY,
    };
    for _ in 0..samples {
        f(&mut bench);
    }
    let ns = bench.best_ns_per_iter;
    if ns.is_finite() {
        println!(
            "{name:<40} {:>14} ns/iter (best of {samples} × {iters})",
            format_ns(ns)
        );
    } else {
        println!("{name:<40} (no measurement)");
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 100.0 {
        format!("{:.0}", ns)
    } else {
        format!("{:.2}", ns)
    }
}

/// Registers benchmark functions under a group name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emits `main` running the registered groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_times() {
        let mut c = Criterion::filtered([]);
        let mut calls = 0u64;
        c.bench_function("smoke", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        assert!(calls > 0);
    }

    #[test]
    fn groups_and_batched() {
        let mut c = Criterion::filtered([]);
        let mut g = c.benchmark_group("g");
        g.sample_size(2);
        g.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
        });
        g.finish();
    }

    #[test]
    fn positional_filters_select_by_substring() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let mut ran: Vec<&str> = Vec::new();
        let mut c = Criterion::filtered(args(&["route_", "--bench", "relay/n5"]));
        c.bench_function("route_concat", |b| {
            ran.push("route_concat");
            b.iter(|| 1)
        });
        c.bench_function("cache_insert", |b| {
            ran.push("cache_insert");
            b.iter(|| 1)
        });
        let mut g = c.benchmark_group("relay");
        g.sample_size(1);
        g.bench_function("n500", |b| {
            ran.push("relay/n500");
            b.iter(|| 1)
        });
        g.bench_function("n60", |b| {
            ran.push("relay/n60");
            b.iter(|| 1)
        });
        g.finish();
        ran.dedup();
        assert_eq!(ran, ["route_concat", "relay/n500"]);
        // flags alone are not filters: everything runs
        let all = Criterion::filtered(args(&["--bench"]));
        assert!(all.selects("anything") && all.filters.is_empty());
    }
}
