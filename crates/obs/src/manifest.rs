//! Machine-readable run manifests.
//!
//! Every experiment binary emits one manifest per run into
//! `results/<exp>.manifest.json`: what ran (experiment name, seed, config,
//! git revision), what it cost (wall time), and what it measured (full
//! counter/gauge dump, histogram dump with percentiles, and the
//! convergence timeline). The `obs` CLI summarizes and diffs these
//! files.
//!
//! Determinism contract: with the same seed and config, every field is
//! byte-identical across runs **except** `wall_ms` (and a `git` revision
//! that changes when the tree changes). Set `SSR_OBS_OMIT_WALL=1` — or
//! simply never call [`Manifest::wall_ms`] — to produce fully reproducible
//! manifests; the determinism integration test does exactly that.

use std::io;
use std::path::{Path, PathBuf};

use ssr_sim::{Metrics, ProvenanceSummary};

use crate::json::Value;

/// Manifest schema identifier, bumped on breaking field changes.
///
/// `ssr-obs/2` added the optional `chaos` array: one entry per chaos
/// scenario run, carrying the watchdog verdict and the recovery cost
/// measured from the end of the fault window (see README §Observability).
///
/// `ssr-obs/3` added the optional `provenance` object: the causal-ledger
/// snapshot ([`Manifest::record_provenance`]) with per-cause × per-kind
/// message attribution, flame cells, depth histograms, cascade sizes and
/// per-node tallies (see docs/PROFILING.md). `obs flame` and `obs top`
/// read this section.
pub const SCHEMA: &str = "ssr-obs/3";

/// One chaos-scenario outcome as recorded in a manifest (`chaos` array,
/// schema `ssr-obs/2`).
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosScenario {
    /// Scenario name (`baseline`, `loss`, `partition`, `corrupt-wound`, …).
    pub name: String,
    /// Network size.
    pub n: u64,
    /// Per-run seed.
    pub seed: u64,
    /// Watchdog verdict label: `converged`, `frozen_crossing`,
    /// `frozen_stuck`, or `active`.
    pub verdict: String,
    /// Ticks from fault onset (tick 0 for corrupted starts) to stable
    /// (re-)convergence.
    pub recovery_ticks: u64,
    /// Transmissions from fault onset to stable (re-)convergence.
    pub recovery_msgs: u64,
    /// Flood messages over the whole run (zero for linearized SSR).
    pub floods: u64,
    /// Invariant-checker samples where the physical ∪ virtual union graph
    /// was disconnected after the checker armed.
    pub union_disconnected: u64,
    /// Armed invariant-checker samples where the linearization potential
    /// rose between audits (expected rare; see DESIGN.md finding 1).
    pub potential_rises: u64,
}

/// One point of the convergence timeline as recorded in a manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct TimelinePoint {
    /// Sample time (simulator ticks, or rounds for round-based engines).
    pub tick: u64,
    /// Structure label at that time (see `RingShape::label`:
    /// `consistent-ring`, `loopy(k)`, `partitioned(k)`, `incomplete` — or
    /// engine-specific labels like `line-forming`).
    pub shape: String,
    /// Nodes that were locally consistent.
    pub locally_consistent: u64,
    /// Total nodes.
    pub nodes: u64,
    /// Successor-pointer changes since the previous sample.
    pub churn: u64,
}

/// Builder for one run manifest.
#[derive(Clone, Debug, Default)]
pub struct Manifest {
    exp: String,
    git: Option<String>,
    seed: Option<u64>,
    wall_ms: Option<u64>,
    config: Vec<(String, String)>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, Value)>,
    hists: Vec<(String, Value)>,
    timeline: Vec<TimelinePoint>,
    chaos: Vec<ChaosScenario>,
    provenance: Option<Value>,
    extra: Vec<(String, Value)>,
}

impl Manifest {
    /// Starts a manifest for experiment `exp`, capturing the git revision
    /// (when available).
    pub fn new(exp: &str) -> Manifest {
        Manifest {
            exp: exp.to_string(),
            git: git_describe(),
            ..Manifest::default()
        }
    }

    /// Records the run's base seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = Some(seed);
        self
    }

    /// Records one configuration key (CLI flag, sweep parameter, …).
    pub fn config(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.config.push((key.to_string(), value.to_string()));
        self
    }

    /// Records the wall-clock duration. The **only** nondeterministic
    /// manifest field; suppressed when `SSR_OBS_OMIT_WALL` is set so runs
    /// can be compared byte-for-byte.
    #[expect(
        clippy::disallowed_methods,
        reason = "SSR_OBS_OMIT_WALL only drops the wall-clock field"
    )]
    pub fn wall_ms(&mut self, ms: u64) -> &mut Self {
        if std::env::var_os("SSR_OBS_OMIT_WALL").is_none() {
            self.wall_ms = Some(ms);
        }
        self
    }

    /// Dumps a full metrics registry: every counter, gauge, histogram
    /// (with count/min/max/mean/p50/p90/p99 and the non-empty log₂
    /// buckets). Call once with the final — or merged-across-seeds —
    /// registry.
    pub fn record_metrics(&mut self, m: &Metrics) -> &mut Self {
        self.counters = m.counters().map(|(k, v)| (k.to_string(), v)).collect();
        self.gauges = m
            .gauges()
            .map(|(k, g)| {
                (
                    k.to_string(),
                    Value::Obj(vec![
                        ("min".into(), g.min.into()),
                        ("max".into(), g.max.into()),
                        ("mean".into(), g.mean().into()),
                        ("count".into(), g.count.into()),
                    ]),
                )
            })
            .collect();
        self.hists = m
            .hists()
            .map(|(k, h)| (k.to_string(), hist_to_value(h)))
            .collect();
        self
    }

    /// Appends one convergence-timeline point.
    pub fn timeline_point(&mut self, point: TimelinePoint) -> &mut Self {
        self.timeline.push(point);
        self
    }

    /// Attaches an experiment-specific result under `extra.<key>`.
    pub fn extra(&mut self, key: &str, value: Value) -> &mut Self {
        self.extra.push((key.to_string(), value));
        self
    }

    /// The number of timeline points recorded so far.
    pub fn timeline_len(&self) -> usize {
        self.timeline.len()
    }

    /// Appends one chaos-scenario outcome (`chaos` array, `ssr-obs/2`).
    pub fn chaos_scenario(&mut self, scenario: ChaosScenario) -> &mut Self {
        self.chaos.push(scenario);
        self
    }

    /// The number of chaos scenarios recorded so far.
    pub fn chaos_len(&self) -> usize {
        self.chaos.len()
    }

    /// Records a causal-ledger snapshot (`provenance` object, `ssr-obs/3`).
    ///
    /// Call once with the final — or merged-across-scenarios — summary;
    /// `obs flame` and `obs top` consume this section. Per-node tallies
    /// serialize as compact `[sent, received, wasted]` triples indexed by
    /// node to keep large-n manifests readable.
    pub fn record_provenance(&mut self, summary: &ProvenanceSummary) -> &mut Self {
        self.provenance = Some(provenance_to_value(summary));
        self
    }

    /// The manifest as a JSON value (fixed field order).
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("schema".into(), SCHEMA.into()),
            ("exp".into(), self.exp.as_str().into()),
        ];
        if let Some(git) = &self.git {
            fields.push(("git".into(), git.as_str().into()));
        }
        if let Some(seed) = self.seed {
            fields.push(("seed".into(), seed.into()));
        }
        if let Some(ms) = self.wall_ms {
            fields.push(("wall_ms".into(), ms.into()));
        }
        fields.push((
            "config".into(),
            Value::Obj(
                self.config
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_str().into()))
                    .collect(),
            ),
        ));
        fields.push((
            "counters".into(),
            Value::Obj(
                self.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), (*v).into()))
                    .collect(),
            ),
        ));
        fields.push(("gauges".into(), Value::Obj(self.gauges.clone())));
        fields.push(("hists".into(), Value::Obj(self.hists.clone())));
        fields.push((
            "timeline".into(),
            Value::Arr(
                self.timeline
                    .iter()
                    .map(|p| {
                        Value::Obj(vec![
                            ("tick".into(), p.tick.into()),
                            ("shape".into(), p.shape.as_str().into()),
                            ("locally_consistent".into(), p.locally_consistent.into()),
                            ("nodes".into(), p.nodes.into()),
                            ("churn".into(), p.churn.into()),
                        ])
                    })
                    .collect(),
            ),
        ));
        if !self.chaos.is_empty() {
            fields.push((
                "chaos".into(),
                Value::Arr(
                    self.chaos
                        .iter()
                        .map(|s| {
                            Value::Obj(vec![
                                ("name".into(), s.name.as_str().into()),
                                ("n".into(), s.n.into()),
                                ("seed".into(), s.seed.into()),
                                ("verdict".into(), s.verdict.as_str().into()),
                                ("recovery_ticks".into(), s.recovery_ticks.into()),
                                ("recovery_msgs".into(), s.recovery_msgs.into()),
                                ("floods".into(), s.floods.into()),
                                ("union_disconnected".into(), s.union_disconnected.into()),
                                ("potential_rises".into(), s.potential_rises.into()),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(prov) = &self.provenance {
            fields.push(("provenance".into(), prov.clone()));
        }
        if !self.extra.is_empty() {
            fields.push(("extra".into(), Value::Obj(self.extra.clone())));
        }
        Value::Obj(fields)
    }

    /// Pretty-printed manifest JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_json_pretty()
    }

    /// Writes the manifest to `path`, creating parent directories.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Writes to the conventional location `results/<exp>.manifest.json`
    /// (relative to the working directory) and returns the path.
    pub fn write_default(&self) -> io::Result<PathBuf> {
        let path = PathBuf::from("results").join(format!("{}.manifest.json", self.exp));
        self.write_to(&path)?;
        Ok(path)
    }
}

fn provenance_to_value(summary: &ProvenanceSummary) -> Value {
    Value::Obj(vec![
        ("roots".into(), summary.roots.into()),
        ("sent".into(), summary.sent().into()),
        ("delivered".into(), summary.delivered().into()),
        ("wasted".into(), summary.wasted().into()),
        (
            "messages".into(),
            Value::Arr(
                summary
                    .messages
                    .iter()
                    .map(|(&(cause, kind), stats)| {
                        Value::Obj(vec![
                            ("cause".into(), cause.into()),
                            ("kind".into(), kind.into()),
                            ("sent".into(), stats.sent.into()),
                            ("delivered".into(), stats.delivered.into()),
                            ("wasted".into(), stats.wasted.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "flame".into(),
            Value::Arr(
                summary
                    .flame
                    .iter()
                    .map(|(&(cause, kind, depth), &count)| {
                        Value::Obj(vec![
                            ("cause".into(), cause.into()),
                            ("kind".into(), kind.into()),
                            ("depth".into(), depth.into()),
                            ("delivered".into(), count.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "depth".into(),
            Value::Obj(
                summary
                    .depth
                    .iter()
                    .map(|(&cause, hist)| (cause.to_string(), hist_to_value(hist)))
                    .collect(),
            ),
        ),
        (
            "cascade_sizes".into(),
            hist_to_value(&summary.cascade_sizes),
        ),
        (
            "nodes".into(),
            Value::Arr(
                summary
                    .nodes
                    .iter()
                    .map(|t| Value::Arr(vec![t.sent.into(), t.received.into(), t.wasted.into()]))
                    .collect(),
            ),
        ),
    ])
}

fn hist_to_value(h: &ssr_sim::Histogram) -> Value {
    let percentile = |q: f64| -> Value { h.percentile(q).map(Value::from).unwrap_or(Value::Null) };
    Value::Obj(vec![
        ("count".into(), h.count().into()),
        (
            "min".into(),
            h.min().map(Value::from).unwrap_or(Value::Null),
        ),
        (
            "max".into(),
            h.max().map(Value::from).unwrap_or(Value::Null),
        ),
        ("mean".into(), h.mean().into()),
        ("p50".into(), percentile(50.0)),
        ("p90".into(), percentile(90.0)),
        ("p99".into(), percentile(99.0)),
        (
            "buckets".into(),
            Value::Arr(
                h.nonzero_buckets()
                    .map(|(lo, hi, c)| Value::Arr(vec![lo.into(), hi.into(), c.into()]))
                    .collect(),
            ),
        ),
    ])
}

/// `git describe --always --dirty` of the working directory, if git and a
/// repository are available. Experiment provenance only — never load-bearing.
pub fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?;
    let rev = rev.trim();
    (!rev.is_empty()).then(|| rev.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_metrics() -> Metrics {
        let mut m = Metrics::new();
        m.add("tx.total", 12);
        m.add("msg.notify", 12);
        m.observe("probe.locally_consistent", 5.0);
        for v in [1u64, 2, 3, 400] {
            m.observe_hist("route.len", v);
        }
        m
    }

    fn sample_manifest() -> Manifest {
        let mut man = Manifest::new("exp_test");
        man.seed(7)
            .config("seeds", 10)
            .config("quick", true)
            .record_metrics(&sample_metrics())
            .timeline_point(TimelinePoint {
                tick: 0,
                shape: "loopy(2)".into(),
                locally_consistent: 8,
                nodes: 8,
                churn: 0,
            })
            .timeline_point(TimelinePoint {
                tick: 8,
                shape: "consistent-ring".into(),
                locally_consistent: 8,
                nodes: 8,
                churn: 4,
            })
            .extra("note", Value::Str("hello".into()));
        man
    }

    #[test]
    fn manifest_serializes_and_reparses() {
        let man = sample_manifest();
        let v = parse(&man.to_json()).expect("manifest must be valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(v.get("exp").unwrap().as_str(), Some("exp_test"));
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(7));
        assert_eq!(
            v.get("config").unwrap().get("seeds").unwrap().as_str(),
            Some("10")
        );
        assert_eq!(
            v.get("counters").unwrap().get("tx.total").unwrap().as_u64(),
            Some(12)
        );
        let hist = v.get("hists").unwrap().get("route.len").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(4));
        assert_eq!(hist.get("max").unwrap().as_u64(), Some(400));
        assert!(hist.get("p50").unwrap().as_u64().is_some());
        assert!(!hist.get("buckets").unwrap().as_arr().unwrap().is_empty());
        let timeline = v.get("timeline").unwrap().as_arr().unwrap();
        assert_eq!(timeline.len(), 2);
        assert_eq!(
            timeline[1].get("shape").unwrap().as_str(),
            Some("consistent-ring")
        );
        // wall_ms never set → absent
        assert!(v.get("wall_ms").is_none());
    }

    #[test]
    fn chaos_section_round_trips() {
        let mut man = Manifest::new("exp_chaos");
        man.seed(1).chaos_scenario(ChaosScenario {
            name: "partition".into(),
            n: 50,
            seed: 3,
            verdict: "converged".into(),
            recovery_ticks: 412,
            recovery_msgs: 901,
            floods: 0,
            union_disconnected: 0,
            potential_rises: 1,
        });
        assert_eq!(man.chaos_len(), 1);
        let v = parse(&man.to_json()).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("ssr-obs/3"));
        let chaos = v.get("chaos").unwrap().as_arr().unwrap();
        assert_eq!(chaos.len(), 1);
        assert_eq!(chaos[0].get("name").unwrap().as_str(), Some("partition"));
        assert_eq!(chaos[0].get("verdict").unwrap().as_str(), Some("converged"));
        assert_eq!(chaos[0].get("recovery_ticks").unwrap().as_u64(), Some(412));
        assert_eq!(chaos[0].get("floods").unwrap().as_u64(), Some(0));
        // manifests without scenarios carry no chaos field at all
        let plain = parse(&Manifest::new("exp_x").to_json()).unwrap();
        assert!(plain.get("chaos").is_none());
    }

    #[test]
    fn provenance_section_round_trips() {
        use ssr_sim::{KindStats, NodeTally};
        let mut summary = ProvenanceSummary {
            roots: 2,
            ..Default::default()
        };
        summary.messages.insert(
            ("bootstrap", "hello"),
            KindStats {
                sent: 9,
                delivered: 7,
                wasted: 3,
            },
        );
        summary.flame.insert(("bootstrap", "hello", 1), 7);
        summary.cascade_sizes.observe(4);
        summary.nodes = vec![
            NodeTally {
                sent: 9,
                received: 0,
                wasted: 0,
            },
            NodeTally {
                sent: 0,
                received: 7,
                wasted: 3,
            },
        ];
        let mut man = Manifest::new("exp_test");
        man.record_provenance(&summary);
        let v = parse(&man.to_json()).unwrap();
        let prov = v.get("provenance").unwrap();
        assert_eq!(prov.get("roots").unwrap().as_u64(), Some(2));
        assert_eq!(prov.get("sent").unwrap().as_u64(), Some(9));
        assert_eq!(prov.get("delivered").unwrap().as_u64(), Some(7));
        assert_eq!(prov.get("wasted").unwrap().as_u64(), Some(3));
        let messages = prov.get("messages").unwrap().as_arr().unwrap();
        assert_eq!(messages.len(), 1);
        assert_eq!(
            messages[0].get("cause").unwrap().as_str(),
            Some("bootstrap")
        );
        assert_eq!(messages[0].get("kind").unwrap().as_str(), Some("hello"));
        assert_eq!(messages[0].get("sent").unwrap().as_u64(), Some(9));
        let flame = prov.get("flame").unwrap().as_arr().unwrap();
        assert_eq!(flame[0].get("depth").unwrap().as_u64(), Some(1));
        assert_eq!(flame[0].get("delivered").unwrap().as_u64(), Some(7));
        let nodes = prov.get("nodes").unwrap().as_arr().unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[1].as_arr().unwrap()[1].as_u64(), Some(7));
        // manifests without a ledger carry no provenance field at all
        let plain = parse(&Manifest::new("exp_x").to_json()).unwrap();
        assert!(plain.get("provenance").is_none());
    }

    #[test]
    fn same_inputs_serialize_byte_identically() {
        // the git stamp is read from the process cwd, which
        // `write_default_uses_results_dir` moves while tests run in
        // parallel; it is ambient input, not one of the "same inputs"
        let (mut a, mut b) = (sample_manifest(), sample_manifest());
        a.git = None;
        b.git = None;
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn write_default_uses_results_dir() {
        let dir = std::env::temp_dir().join("ssr_obs_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let path = sample_manifest().write_default().unwrap();
        std::env::set_current_dir(old).unwrap();
        assert!(path.ends_with("results/exp_test.manifest.json"));
        let text = std::fs::read_to_string(dir.join(path)).unwrap();
        assert!(parse(&text).is_ok());
    }
}
