//! **exp_perf — the permanent performance baseline.**
//!
//! Where the criterion suite (`benches/micro.rs`) answers "how fast is
//! this routine right now, on this machine", this experiment produces a
//! *comparable artifact*: `BENCH_perf.json` at the repo root, carrying per-scenario wall time **and** the machine-independent
//! work ledger the event-driven simulator exposes — messages delivered,
//! protocol activations, peak pending-event depth. Two of these files from
//! different commits feed `obs diff old.json new.json --threshold PCT`,
//! which flags regressions; the counter fields are deterministic for a
//! given seed, so any drift there is a behavior change, not noise.
//!
//! Since schema `ssr-bench-perf/2`, simulation scenarios also carry a
//! message breakdown (`messages_by_cause`, `messages_by_kind`, `wasted`,
//! `wasted_per_mille`) measured by one extra *untimed* run with the
//! causal ledger on (docs/PROFILING.md) — the timing repeats stay
//! uninstrumented so `ns_per_op` is never perturbed by the profiler.
//!
//! Scenarios (see docs/BENCHMARKS.md for the schema field by field):
//!
//! * `convergence_n{100,500,1000}` — linearized SSR bootstrap to global
//!   ring consistency on a connected unit-disk graph; one op = one full
//!   convergence run.
//! * `routing_n500` — greedy routing over the converged ring from a state
//!   snapshot; one op = one routed packet (no simulator events: the
//!   counter fields are legitimately zero).
//! * `chaos_wound_n200` — recovery from a wound-ring corrupted start
//!   (generalized Figure 1); one op = one full recovery run.
//! * `idle_watchdog_n500` — a converged, quiescent ring watched across a
//!   long empty tick range; one op = one probe-grid point. This is the
//!   scenario the event-wheel fast-forward and the `state_gen` probe cache
//!   exist for: its ns/op must stay O(1) in n.
//!
//! The timing repeats always run **serially** on one thread — fanning them
//! out would contend for cores and shift `ns_per_op` against the PR 4/5
//! baselines. Only the extra *untimed* breakdown runs go through the sweep
//! orchestrator (`--workers N`, docs/SWEEPS.md); their counters are
//! deterministic per seed, so the artifact's non-timing bytes don't depend
//! on the worker count.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp -- exp_perf`
//! Flags: `--smoke` (tiny sizes, 1 repeat — the CI gate), `--repeats K`
//! (default 3), `--seed S` (default 1), `--workers N` (breakdown phase
//! only), `--matrix scenario=A,B` (restrict to the named scenarios),
//! `--out PATH` (default `BENCH_perf.json` in the current directory).

use std::rc::Rc;
use std::time::Instant;

use ssr_core::bootstrap::BootstrapConfig;
use ssr_core::node::{SsrConfig, SsrNode};
use ssr_core::routing::RoutingView;
use ssr_core::{chaos, consistency};
use ssr_graph::Labeling;
use ssr_obs::Value;
use ssr_sim::faults::Fault;
use ssr_sim::{shared_watchdog, watchdog_probe, LinkConfig, ProvenanceSummary, Simulator, Time};
use ssr_types::Rng;
use ssr_workloads::scenario::traffic_pairs;
use ssr_workloads::Matrix;

use crate::cells::{run_to_ring, ssr_sim, unit_disk, RING_BUDGET};
use crate::{fmt_count, Shell};

/// One `scenarios[]` entry of `BENCH_perf.json`. Counter fields are summed
/// across repeats (they are deterministic per seed); `wall_ns` is the total
/// measured wall time, `ns_per_op = wall_ns / ops`.
struct Row {
    name: String,
    repeats: u64,
    ops: u64,
    wall_ns: u64,
    ticks: u64,
    messages_delivered: u64,
    node_activations: u64,
    peak_queue_depth: u64,
    /// Causal-ledger snapshot from one extra untimed instrumented run
    /// (`ssr-bench-perf/2`); `None` for scenarios without simulator
    /// messages (routing, idle).
    breakdown: Option<ProvenanceSummary>,
}

impl Row {
    fn new(name: impl Into<String>) -> Row {
        Row {
            name: name.into(),
            repeats: 0,
            ops: 0,
            wall_ns: 0,
            ticks: 0,
            messages_delivered: 0,
            node_activations: 0,
            peak_queue_depth: 0,
            breakdown: None,
        }
    }

    fn absorb(&mut self, sim: &Simulator<SsrNode>) {
        self.ticks += sim.now().ticks();
        self.messages_delivered += sim.messages_delivered();
        self.node_activations += sim.node_activations();
        self.peak_queue_depth = self.peak_queue_depth.max(sim.peak_pending_events() as u64);
    }

    fn ns_per_op(&self) -> f64 {
        self.wall_ns as f64 / self.ops.max(1) as f64
    }

    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("repeats".into(), Value::Num(self.repeats as f64)),
            ("ops".into(), Value::Num(self.ops as f64)),
            ("wall_ns".into(), Value::Num(self.wall_ns as f64)),
            ("ns_per_op".into(), Value::Num(self.ns_per_op())),
            ("ticks".into(), Value::Num(self.ticks as f64)),
            (
                "messages_delivered".into(),
                Value::Num(self.messages_delivered as f64),
            ),
            (
                "node_activations".into(),
                Value::Num(self.node_activations as f64),
            ),
            (
                "peak_queue_depth".into(),
                Value::Num(self.peak_queue_depth as f64),
            ),
        ];
        if let Some(s) = &self.breakdown {
            let fold = |pick: fn(&(&'static str, &'static str)) -> &'static str| -> Value {
                let mut totals: Vec<(String, f64)> = Vec::new();
                for (key, stats) in &s.messages {
                    let name = pick(key);
                    match totals.iter_mut().find(|(n, _)| n == name) {
                        Some((_, v)) => *v += stats.delivered as f64,
                        None => totals.push((name.to_string(), stats.delivered as f64)),
                    }
                }
                Value::Obj(
                    totals
                        .into_iter()
                        .map(|(k, v)| (k, Value::Num(v)))
                        .collect(),
                )
            };
            let delivered = s.delivered();
            let wasted = s.wasted();
            fields.push(("messages_by_cause".into(), fold(|&(cause, _)| cause)));
            fields.push(("messages_by_kind".into(), fold(|&(_, kind)| kind)));
            fields.push(("wasted".into(), Value::Num(wasted as f64)));
            // integer ratio: a float here would tie the artifact's
            // byte-determinism to float formatting
            fields.push((
                "wasted_per_mille".into(),
                Value::Num((wasted * 1000 / delivered.max(1)) as f64),
            ));
        }
        Value::Obj(fields)
    }
}

/// Wall time of `f` in nanoseconds, next to its result.
#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock benchmark timing reported in BENCH_perf.json; never feeds the simulation"
)]
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// A fresh linearized-SSR simulator over ideal links on the unit-disk
/// instance of `seed` — wound three times around the ring first when
/// `wound` (generalized Figure 1), with the causal ledger on when `ledger`.
fn fresh_sim(
    n: usize,
    seed: u64,
    config: SsrConfig,
    wound: bool,
    ledger: bool,
) -> (Simulator<SsrNode>, Labeling) {
    let (g, labels) = unit_disk(n, seed);
    let mut sim = ssr_sim(&g, &labels, config, LinkConfig::ideal(), seed, ledger);
    if wound {
        let succ = chaos::wound_ring_succ(labels.ids(), 3.min(n));
        chaos::apply_succ_corruption(&mut sim, &labels, &succ, true);
    }
    (sim, labels)
}

/// A bootstrap-shaped scenario: run a fresh (`convergence_n*`) or
/// wound-ring corrupted (`chaos_wound_n*`) network to the consistent ring.
struct Boot {
    name: String,
    n: usize,
    wound: bool,
}

impl Boot {
    /// The timing repeats, uninstrumented; one op per run.
    fn bench(&self, seed: u64, repeats: u64) -> Row {
        let mut row = Row::new(self.name.clone());
        for seed in seed..seed + repeats {
            let ssr = BootstrapConfig::default().ssr;
            let (mut sim, _) = fresh_sim(self.n, seed, ssr, self.wound, false);
            let (outcome, ns) = timed(|| run_to_ring(&mut sim));
            assert!(
                outcome.is_quiescent(),
                "{} failed (seed={seed})",
                self.name
            );
            row.wall_ns += ns;
            row.repeats += 1;
            row.ops += 1;
            row.absorb(&sim);
        }
        row
    }

    /// One extra *untimed* instrumented run — ledger on, same seed as the
    /// first timing repeat — for the `ssr-bench-perf/2` message breakdown.
    fn breakdown(&self, seed: u64) -> ProvenanceSummary {
        let ssr = BootstrapConfig::default().ssr;
        let (mut sim, _) = fresh_sim(self.n, seed, ssr, self.wound, true);
        assert!(
            run_to_ring(&mut sim).is_quiescent(),
            "{} breakdown run failed (seed={seed})",
            self.name
        );
        sim.causal_summary()
            .expect("breakdown runs are instrumented")
    }
}

/// A converged linearized-SSR simulator on a connected unit-disk graph.
fn converged_sim(n: usize, seed: u64, config: SsrConfig) -> (Simulator<SsrNode>, Labeling) {
    let (mut sim, labels) = fresh_sim(n, seed, config, false, false);
    assert!(
        run_to_ring(&mut sim).is_quiescent(),
        "bootstrap failed (n={n} seed={seed})"
    );
    (sim, labels)
}

/// Greedy routing over the converged ring; one op per routed packet. The
/// walk is over a state snapshot — no simulator events fire, so the
/// counter fields stay zero by construction.
fn bench_routing(n: usize, pairs: usize, seed: u64, repeats: u64) -> Row {
    let mut row = Row::new(format!("routing_n{n}"));
    for seed in seed..seed + repeats {
        let (sim, labels) = converged_sim(n, seed, BootstrapConfig::default().ssr);
        let view = RoutingView::new(sim.protocols());
        let mut rng = Rng::new(seed ^ 0x9E37);
        let traffic = traffic_pairs(n, pairs, &mut rng);
        let max_hops = n as u32 + 16;
        let (delivered, ns) = timed(|| {
            traffic
                .iter()
                .filter(|&&(s, d)| {
                    view.route(labels.ids()[s], labels.ids()[d], max_hops)
                        .delivered()
                })
                .count()
        });
        assert_eq!(
            delivered,
            traffic.len(),
            "consistent-ring routing must deliver every packet"
        );
        row.wall_ns += ns;
        row.repeats += 1;
        row.ops += traffic.len() as u64;
    }
    row
}

/// A converged, quiescent ring watched across `idle_ticks` empty ticks:
/// the watchdog grid walks the whole range, but with `state_gen` frozen
/// every firing after the first reuses the cached O(n) scan. One op per
/// probe-grid point; ns/op here must not grow with n.
fn bench_idle_watchdog(n: usize, idle_ticks: u64, seed: u64) -> Row {
    let mut row = Row::new(format!("idle_watchdog_n{n}"));
    // Self-quiescing configuration: the default audit heartbeat runs
    // forever (churn insurance), but this scenario needs a genuinely
    // empty event wheel.
    let config = SsrConfig {
        audit_quiet: 4,
        ..Default::default()
    };
    let (mut sim, _labels) = converged_sim(n, seed, config);
    // Ring consistency precedes full quiescence: audits and in-flight acks
    // keep trickling for a while. Drain them so the watched range is
    // genuinely empty.
    assert!(
        sim.run_to_quiescence(RING_BUDGET).is_quiescent(),
        "converged ring failed to drain (n={n} seed={seed})"
    );
    let wd = shared_watchdog();
    let grid = 8u64;
    sim.add_probe(
        grid,
        watchdog_probe(
            u64::MAX / 2, // never freeze: this scenario measures the grid walk
            Rc::clone(&wd),
            chaos::ssr_signature,
            |nodes| consistency::check_ring(nodes).consistent(),
            chaos::ssr_all_locally_consistent,
        ),
    );
    // Keep exactly one far-future event pending so the run loop walks the
    // probe grid instead of going quiescent (a heal with nothing cut is a
    // no-op).
    let deadline = Time(sim.now().ticks() + idle_ticks);
    sim.schedule_fault(deadline, Fault::Heal);
    let before_acts = sim.node_activations();
    row.wall_ns = timed(|| sim.run_until(deadline)).1;
    assert_eq!(
        sim.node_activations(),
        before_acts,
        "idle range must not activate any protocol"
    );
    row.repeats = 1;
    row.ops = idle_ticks / grid;
    row.ticks = idle_ticks;
    row.peak_queue_depth = sim.peak_pending_events() as u64;
    row
}

/// The artifact document (`ssr-bench-perf/2`).
fn document(rows: &[Row], seed: u64, smoke: bool) -> Value {
    let git = match ssr_obs::git_describe() {
        Some(d) => Value::Str(d),
        None => Value::Null,
    };
    Value::Obj(vec![
        ("schema".into(), Value::Str("ssr-bench-perf/2".into())),
        ("git".into(), git),
        ("seed".into(), Value::Num(seed as f64)),
        ("smoke".into(), Value::Bool(smoke)),
        (
            "scenarios".into(),
            Value::Arr(rows.iter().map(Row::to_value).collect()),
        ),
    ])
}

/// The `exp_perf` body.
pub fn run(sh: &mut Shell) {
    // the artifact is BENCH_perf.json, not a run manifest
    sh.no_manifest();
    let smoke = sh.args.flag("smoke");
    let seed: u64 = sh.args.get("seed", 1);
    let repeats: u64 = if smoke { 1 } else { sh.args.get("repeats", 3) };
    let out_path = sh.args.opt("out").unwrap_or("BENCH_perf.json").to_string();

    let convergence_sizes: &[usize] = if smoke { &[50] } else { &[100, 500, 1000] };
    let (routing_n, routing_pairs) = if smoke { (50, 64) } else { (500, 2_000) };
    let chaos_n = if smoke { 50 } else { 200 };
    let (idle_n, idle_ticks) = if smoke { (50, 10_000) } else { (500, 200_000) };
    let boot = |name: &str, n: usize, wound: bool| Boot {
        name: format!("{name}_n{n}"),
        n,
        wound,
    };
    let convergence = convergence_sizes
        .iter()
        .map(|&n| boot("convergence", n, false));
    let wound = boot("chaos_wound", chaos_n, true);
    let routing = format!("routing_n{routing_n}");
    let idle = format!("idle_watchdog_n{idle_n}");

    // `--matrix scenario=A,B` restricts the scenario set (validated against
    // the full list, like every sweep experiment — see docs/SWEEPS.md). The
    // other matrix dimensions don't apply here: sizes are baked into the
    // scenario names so two artifacts stay field-for-field comparable.
    let mut names = Matrix::new(
        convergence
            .clone()
            .map(|b| b.name)
            .chain([routing.clone(), wound.name.clone(), idle.clone()]),
        vec![0],
        1,
    );
    sh.override_matrix(&mut names);
    let want = |name: &str| names.scenarios.iter().any(|s| s == name);
    let boots: Vec<Boot> = convergence.chain([wound]).filter(|b| want(&b.name)).collect();

    // phase 1: the timing repeats — strictly serial, uninstrumented, in
    // artifact order (convergence, routing, chaos_wound, idle)
    let bench = |wound: bool| boots.iter().filter(move |b| b.wound == wound);
    let mut rows: Vec<Row> = bench(false).map(|b| b.bench(seed, repeats)).collect();
    if want(&routing) {
        rows.push(bench_routing(routing_n, routing_pairs, seed, repeats));
    }
    rows.extend(bench(true).map(|b| b.bench(seed, repeats)));
    if want(&idle) {
        rows.push(bench_idle_watchdog(idle_n, idle_ticks, seed));
    }

    // phase 2: the untimed instrumented breakdown runs, fanned out through
    // the orchestrator (results attach by scenario name, in input order)
    let summaries = sh.map(boots, |b| (b.name.clone(), b.breakdown(seed)));
    for (name, summary) in summaries {
        if let Some(row) = rows.iter_mut().find(|r| r.name == name) {
            row.breakdown = Some(summary);
        }
    }

    println!(
        "{:<22} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "scenario", "ns/op", "ops", "delivered", "activations", "peak q"
    );
    for r in &rows {
        println!(
            "{:<22} {:>12} {:>10} {:>12} {:>12} {:>10}",
            r.name,
            fmt_count(r.ns_per_op() as u64),
            fmt_count(r.ops),
            fmt_count(r.messages_delivered),
            fmt_count(r.node_activations),
            r.peak_queue_depth
        );
    }

    let doc = document(&rows, seed, smoke);
    match std::fs::write(&out_path, doc.to_json_pretty() + "\n") {
        Ok(()) => println!("\n(perf baseline written to {out_path})"),
        Err(e) => sh.fail(format!("could not write {out_path}: {e}")),
    }
}
