//! What every workload shares: sizes, the measuring loop, the report, and
//! the output checks on simulator counters.

use std::time::Instant;

use ssr_sim::{Metrics, Protocol, Simulator};

use crate::stats;

/// Tick budget of every convergence run on the shared simulator.
pub const BUDGET: u64 = 300_000;
/// Consistency-check cadence of `run_until_stable`, and the probe grid.
pub const GRID: u64 = 8;
/// A whole run makes at least this many timed passes: repeats are compared
/// with repeat 0, and a median of three shrugs off one disturbed pass where
/// a median of two is their mean (`ssr_bootstrap`, five seconds a pass, is
/// the workload this decides).
const MIN_PASSES: usize = 3;
/// `setup_s` is the median of at least `SETUP_SAMPLES.0` set-ups; a set-up of
/// a millisecond or less is too close to the clock's noise for so few, so
/// sampling goes on, up to `SETUP_SAMPLES.1` samples, until the set-ups
/// together took `SETUP_SAMPLED_S`.
const SETUP_SAMPLES: (usize, usize) = (5, 200);
const SETUP_SAMPLED_S: f64 = 0.25;

/// Input sizes. `full` is what `BENCHMARK.json` measures; `toy` is the same
/// six workloads small enough for `ssr-benchmark check`.
#[derive(Clone, Debug)]
pub struct Sizes {
    pub ssr_n: usize,
    pub ssr_graphs: u64,
    /// Smaller sizes the traced run adds below `ssr_n` for the scaling fit.
    pub scaling_n: [usize; 2],
    pub relay_n: usize,
    pub relay_tokens: u32,
    pub relay_ttl: u32,
    pub idle_ticks: u64,
    pub lin_n: usize,
    pub lin_graphs: u64,
    pub route_n: usize,
    pub route_queries: usize,
    pub chaos_n: usize,
    pub chaos_graphs: u64,
    pub vrr_n: usize,
    pub vrr_graphs: u64,
    /// Graphs of the traced run's freeze census (after the gated ones).
    pub vrr_census: u64,
    /// Iterations of each micro-probe.
    pub probe_iters: u64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            ssr_n: 500,
            ssr_graphs: 5,
            scaling_n: [125, 250],
            relay_n: 500,
            relay_tokens: 4,
            relay_ttl: 4000,
            idle_ticks: 200_000,
            lin_n: 20_000,
            lin_graphs: 2,
            route_n: 500,
            route_queries: 200_000,
            chaos_n: 200,
            chaos_graphs: 5,
            vrr_n: 50,
            vrr_graphs: 10,
            vrr_census: 30,
            probe_iters: 200_000,
        }
    }

    pub fn toy() -> Sizes {
        Sizes {
            ssr_n: 48,
            ssr_graphs: 2,
            scaling_n: [12, 24],
            relay_n: 40,
            relay_tokens: 2,
            relay_ttl: 200,
            idle_ticks: 4_000,
            lin_n: 60,
            lin_graphs: 2,
            route_n: 40,
            route_queries: 2_000,
            chaos_n: 40,
            chaos_graphs: 2,
            vrr_n: 16,
            vrr_graphs: 3,
            vrr_census: 3,
            probe_iters: 2_000,
        }
    }
}

/// One invocation's parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seeds everything that is drawn: relay walks, traffic pairs, probe
    /// operands, and the graphs of the workloads that average over them.
    pub seed: u64,
    /// How long the untraced run keeps making timed passes.
    pub seconds: f64,
    /// First graph seed of the fixed corpora (see README, "Seeds").
    pub corpus: u64,
    pub sizes: Sizes,
}

/// What one workload run found.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The metrics this workload defines, by name.
    pub metrics: Vec<(String, f64)>,
    /// Samples behind the timing medians, for `compare`'s spread test.
    pub samples: Vec<(String, Vec<f64>)>,
    pub attempted: u64,
    pub failed: u64,
    pub determinism_breaks: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub violations: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            !self.metrics.iter().any(|(n, _)| n == name),
            "metric {name} reported twice"
        );
        self.metrics.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Records an output check; a failed one makes the whole run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.determinism_breaks == 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Sets a timing metric and keeps the samples it was taken from.
    pub fn set_timing(&mut self, name: &str, value: f64, samples: Vec<f64>) {
        self.set(name, value);
        self.samples.push((name.to_string(), samples));
    }
}

/// The result of the measuring loop.
pub struct Measured<S> {
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds of each part (graph) of each pass: `walls[pass][part]`.
    pub walls: Vec<Vec<f64>>,
    /// What the first pass computed; later passes were compared with it.
    pub first: S,
    /// Passes whose results differed from the first one's.
    pub determinism_breaks: u64,
}

impl<S> Measured<S> {
    pub fn passes(&self) -> u64 {
        self.walls.len() as u64
    }

    /// Reports what the loop itself measured — `setup_s`, `wall_s` and the
    /// determinism breaks — and returns `wall_s`: the host time of one
    /// pass, as the sum over its parts of each part's median over the
    /// passes, so that one disturbed graph does not taint a whole pass.
    pub fn report(&self, report: &mut Report) -> f64 {
        report.set_timing(
            "setup_s",
            stats::median(&self.setup_s),
            self.setup_s.clone(),
        );
        let parts = self.walls[0].len();
        let wall_s = (0..parts)
            .map(|part| {
                let over_passes: Vec<f64> = self.walls.iter().map(|pass| pass[part]).collect();
                stats::median(&over_passes)
            })
            .sum();
        let pass_walls = self.walls.iter().map(|pass| pass.iter().sum()).collect();
        report.set_timing("wall_s", wall_s, pass_walls);
        report.determinism_breaks += self.determinism_breaks;
        wall_s
    }
}

/// Makes timed passes for `seconds` (and at least [`MIN_PASSES`]).
///
/// `setup` builds one pass's inputs and is timed as `setup_s`; `run` makes
/// the pass and returns the host seconds of each of its parts with what it
/// computed. With `fresh` every pass gets newly built inputs (a simulator
/// cannot be rewound); without it the inputs are read-only and reused.
pub fn measure<I, S: PartialEq>(
    seconds: f64,
    fresh: bool,
    mut setup: impl FnMut() -> I,
    mut run: impl FnMut(&mut I) -> (Vec<f64>, S),
) -> Measured<S> {
    let mut setup_s = Vec::new();
    let mut timed_setup = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let input = setup();
        setup_s.push(start.elapsed().as_secs_f64());
        input
    };
    let mut input = timed_setup(&mut setup_s);
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<S> = None;
    let mut determinism_breaks = 0;
    loop {
        let (parts, computed) = run(&mut input);
        walls.push(parts);
        match &first {
            None => first = Some(computed),
            Some(reference) => determinism_breaks += u64::from(*reference != computed),
        }
        if walls.len() >= MIN_PASSES && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        if fresh {
            input = timed_setup(&mut setup_s);
        }
    }
    drop(input);
    while setup_s.len() < SETUP_SAMPLES.0
        || (setup_s.len() < SETUP_SAMPLES.1 && setup_s.iter().sum::<f64>() < SETUP_SAMPLED_S)
    {
        drop(timed_setup(&mut setup_s));
    }
    Measured {
        setup_s,
        walls,
        first: first.expect("the loop makes at least one pass"),
        determinism_breaks,
    }
}

/// The simulated counters two runs of one input must agree on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counters {
    pub ticks: u64,
    pub tx: u64,
    pub rx: u64,
    pub events: u64,
    pub activations: u64,
}

impl Counters {
    pub fn of<P: Protocol>(sim: &Simulator<P>) -> Counters {
        Counters {
            ticks: sim.now().ticks(),
            tx: sim.metrics().counter("tx.total"),
            rx: sim.metrics().counter("rx.total"),
            events: sim.events_processed(),
            activations: sim.node_activations(),
        }
    }
}

/// Σ `msg.*` — every transmission is classified under exactly one kind, so
/// this must equal `tx.total`.
pub fn msg_kind_sum(metrics: &Metrics) -> u64 {
    metrics
        .counters()
        .filter(|(key, _)| key.starts_with("msg."))
        .map(|(_, count)| count)
        .sum()
}

/// `VmHWM` of this process in MB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds between `start` and now.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
