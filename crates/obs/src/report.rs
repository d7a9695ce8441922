//! Human-facing views over manifests and JSONL traces: `obs summarize`,
//! `obs diff`, and `obs trace` are thin wrappers over these functions, so
//! the formatting logic is unit-testable.

use std::fmt::Write as _;

use crate::json::Value;

/// Percentiles reported by summaries and diffs.
const PERCENTILES: [&str; 3] = ["p50", "p90", "p99"];

/// First timeline tick whose shape is `consistent-ring`, if any.
pub fn time_to_consistency(manifest: &Value) -> Option<u64> {
    manifest
        .get("timeline")?
        .as_arr()?
        .iter()
        .find(|p| p.get("shape").and_then(|s| s.as_str()) == Some("consistent-ring"))
        .and_then(|p| p.get("tick"))
        .and_then(|t| t.as_u64())
}

/// One-screen summary of a manifest.
pub fn summarize(manifest: &Value) -> String {
    let mut out = String::new();
    let field = |k: &str| -> String {
        manifest
            .get(k)
            .map(|v| match v {
                Value::Str(s) => s.clone(),
                other => other.to_json(),
            })
            .unwrap_or_else(|| "-".to_string())
    };
    let _ = writeln!(out, "experiment : {}", field("exp"));
    let _ = writeln!(out, "schema     : {}", field("schema"));
    let _ = writeln!(out, "git        : {}", field("git"));
    let _ = writeln!(out, "seed       : {}", field("seed"));
    let _ = writeln!(out, "wall_ms    : {}", field("wall_ms"));
    if let Some(cfg) = manifest.get("config").and_then(|c| c.as_obj()) {
        if !cfg.is_empty() {
            let kv: Vec<String> = cfg
                .iter()
                .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
                .collect();
            let _ = writeln!(out, "config     : {}", kv.join(" "));
        }
    }
    if let Some(counters) = manifest.get("counters").and_then(|c| c.as_obj()) {
        let _ = writeln!(out, "\ncounters ({}):", counters.len());
        for (k, v) in counters {
            let _ = writeln!(out, "  {k:<28} {}", v.to_json());
        }
    }
    if let Some(hists) = manifest.get("hists").and_then(|h| h.as_obj()) {
        if !hists.is_empty() {
            let _ = writeln!(out, "\nhistograms:");
            for (k, h) in hists {
                let g = |f: &str| h.get(f).map(|v| v.to_json()).unwrap_or("-".into());
                let _ = writeln!(
                    out,
                    "  {k:<22} n={:<8} min={:<6} p50={:<6} p90={:<6} p99={:<6} max={}",
                    g("count"),
                    g("min"),
                    g("p50"),
                    g("p90"),
                    g("p99"),
                    g("max"),
                );
            }
        }
    }
    if let Some(timeline) = manifest.get("timeline").and_then(|t| t.as_arr()) {
        if !timeline.is_empty() {
            let _ = writeln!(out, "\nconvergence timeline ({} samples):", timeline.len());
            for p in condensed_timeline(timeline) {
                let _ = writeln!(out, "  {p}");
            }
            match time_to_consistency(manifest) {
                Some(t) => {
                    let _ = writeln!(out, "time to consistent-ring: {t}");
                }
                None => {
                    let _ = writeln!(out, "time to consistent-ring: never");
                }
            }
        }
    }
    if let Some(chaos) = manifest.get("chaos").and_then(|c| c.as_arr()) {
        if !chaos.is_empty() {
            let _ = writeln!(out, "\nchaos scenarios ({}):", chaos.len());
            for s in chaos {
                let _ = writeln!(
                    out,
                    "  {:<24} n={:<5} seed={:<4} verdict={:<16} recovery={} ticks / {} msgs  floods={}",
                    chaos_key(s),
                    s.get("n").and_then(|v| v.as_u64()).unwrap_or(0),
                    s.get("seed").and_then(|v| v.as_u64()).unwrap_or(0),
                    s.get("verdict").and_then(|v| v.as_str()).unwrap_or("?"),
                    s.get("recovery_ticks").and_then(|v| v.as_u64()).unwrap_or(0),
                    s.get("recovery_msgs").and_then(|v| v.as_u64()).unwrap_or(0),
                    s.get("floods").and_then(|v| v.as_u64()).unwrap_or(0),
                );
            }
        }
    }
    out
}

/// Scenario name of one `chaos` array entry.
fn chaos_key(s: &Value) -> String {
    s.get("name")
        .and_then(|v| v.as_str())
        .unwrap_or("?")
        .to_string()
}

/// Identity of one chaos entry for cross-manifest matching.
fn chaos_identity(s: &Value) -> (String, u64, u64) {
    (
        chaos_key(s),
        s.get("n").and_then(|v| v.as_u64()).unwrap_or(0),
        s.get("seed").and_then(|v| v.as_u64()).unwrap_or(0),
    )
}

/// Collapses a timeline to its shape-change points (plus the final sample),
/// rendered one per line.
fn condensed_timeline(timeline: &[Value]) -> Vec<String> {
    let mut lines = Vec::new();
    let mut last_shape: Option<&str> = None;
    for (i, p) in timeline.iter().enumerate() {
        let shape = p.get("shape").and_then(|s| s.as_str()).unwrap_or("?");
        let is_last = i == timeline.len() - 1;
        if last_shape == Some(shape) && !is_last {
            continue;
        }
        last_shape = Some(shape);
        let num = |k: &str| {
            p.get(k)
                .and_then(|v| v.as_u64())
                .map(|v| v.to_string())
                .unwrap_or_else(|| "?".into())
        };
        lines.push(format!(
            "t={:<8} {:<18} local={}/{} churn={}",
            num("tick"),
            shape,
            num("locally_consistent"),
            num("nodes"),
            num("churn"),
        ));
    }
    lines
}

/// Diff of two manifests: counter deltas, histogram percentile shifts,
/// convergence-time regressions, chaos recovery deltas and the `extra`
/// section leaf by leaf. Returns a report; identical manifests produce "no
/// differences".
pub fn diff(a: &Value, b: &Value) -> String {
    let mut out = String::new();
    let name = |m: &Value| {
        m.get("exp")
            .and_then(|e| e.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let seed = |m: &Value| {
        m.get("seed")
            .and_then(|s| s.as_u64())
            .map(|s| format!(" (seed {s})"))
            .unwrap_or_default()
    };
    let _ = writeln!(out, "A: {}{}", name(a), seed(a));
    let _ = writeln!(out, "B: {}{}", name(b), seed(b));
    let mut differences = 0usize;

    // --- counters --------------------------------------------------------
    let counters = |m: &Value| -> Vec<(String, u64)> {
        m.get("counters")
            .and_then(|c| c.as_obj())
            .map(|o| {
                o.iter()
                    .filter_map(|(k, v)| v.as_u64().map(|v| (k.clone(), v)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let ca = counters(a);
    let cb = counters(b);
    let mut keys: Vec<&String> = ca.iter().chain(cb.iter()).map(|(k, _)| k).collect();
    keys.sort();
    keys.dedup();
    let mut counter_lines = Vec::new();
    for k in keys {
        let va = ca
            .iter()
            .find(|(n, _)| n == k)
            .map(|&(_, v)| v)
            .unwrap_or(0);
        let vb = cb
            .iter()
            .find(|(n, _)| n == k)
            .map(|&(_, v)| v)
            .unwrap_or(0);
        if va != vb {
            counter_lines.push(format!("  {k:<28} {va} -> {vb}  ({})", delta(va, vb)));
        }
    }
    if !counter_lines.is_empty() {
        differences += counter_lines.len();
        let _ = writeln!(out, "\ncounter deltas:");
        for l in counter_lines {
            let _ = writeln!(out, "{l}");
        }
    }

    // --- histogram percentiles -------------------------------------------
    let hist_keys = |m: &Value| -> Vec<String> {
        m.get("hists")
            .and_then(|h| h.as_obj())
            .map(|o| o.iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default()
    };
    let mut hkeys = hist_keys(a);
    hkeys.extend(hist_keys(b));
    hkeys.sort();
    hkeys.dedup();
    let mut hist_lines = Vec::new();
    for k in &hkeys {
        let mut shifts = Vec::new();
        for p in PERCENTILES {
            let get = |m: &Value| {
                m.get("hists")
                    .and_then(|h| h.get(k))
                    .and_then(|h| h.get(p))
                    .and_then(|v| v.as_u64())
            };
            match (get(a), get(b)) {
                (Some(x), Some(y)) if x != y => shifts.push(format!("{p} {x} -> {y}")),
                (Some(x), None) => shifts.push(format!("{p} {x} -> -")),
                (None, Some(y)) => shifts.push(format!("{p} - -> {y}")),
                _ => {}
            }
        }
        if !shifts.is_empty() {
            hist_lines.push(format!("  {k:<22} {}", shifts.join(", ")));
        }
    }
    if !hist_lines.is_empty() {
        differences += hist_lines.len();
        let _ = writeln!(out, "\nhistogram percentile shifts:");
        for l in hist_lines {
            let _ = writeln!(out, "{l}");
        }
    }

    // --- convergence time -------------------------------------------------
    let ta = time_to_consistency(a);
    let tb = time_to_consistency(b);
    if ta != tb {
        differences += 1;
        let show = |t: Option<u64>| t.map(|t| t.to_string()).unwrap_or_else(|| "never".into());
        let regression = match (ta, tb) {
            (Some(x), Some(y)) if y > x => "  ** regression **",
            (Some(_), None) => "  ** regression (no longer converges) **",
            _ => "",
        };
        let _ = writeln!(
            out,
            "\ntime to consistent-ring: {} -> {}{}",
            show(ta),
            show(tb),
            regression
        );
    }

    // --- chaos recovery ---------------------------------------------------
    // When both manifests carry a chaos timeline (ssr-obs/2), compare
    // recovery cost and watchdog verdicts per scenario identity.
    let chaos_arr = |m: &Value| -> Vec<Value> {
        m.get("chaos")
            .and_then(|c| c.as_arr())
            .map(|arr| arr.to_vec())
            .unwrap_or_default()
    };
    let cha = chaos_arr(a);
    let chb = chaos_arr(b);
    if !cha.is_empty() && !chb.is_empty() {
        let mut chaos_lines = Vec::new();
        for sa in &cha {
            let id = chaos_identity(sa);
            let Some(sb) = chb.iter().find(|s| chaos_identity(s) == id) else {
                chaos_lines.push(format!("  {:<24} only in A", id.0));
                continue;
            };
            let num = |s: &Value, k: &str| s.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
            let verdict = |s: &Value| {
                s.get("verdict")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string()
            };
            let (va, vb) = (verdict(sa), verdict(sb));
            let mut parts = Vec::new();
            if va != vb {
                parts.push(format!("verdict {va} -> {vb}"));
            }
            for key in ["recovery_ticks", "recovery_msgs"] {
                let (x, y) = (num(sa, key), num(sb, key));
                if x != y {
                    parts.push(format!("{key} {x} -> {y} ({})", delta(x, y)));
                }
            }
            if !parts.is_empty() {
                let flag = if vb.starts_with("frozen") && !va.starts_with("frozen") {
                    "  ** regression (froze) **"
                } else {
                    ""
                };
                chaos_lines.push(format!(
                    "  {:<24} n={} seed={}: {}{flag}",
                    id.0,
                    id.1,
                    id.2,
                    parts.join(", ")
                ));
            }
        }
        for sb in &chb {
            if !cha.iter().any(|s| chaos_identity(s) == chaos_identity(sb)) {
                chaos_lines.push(format!("  {:<24} only in B", chaos_key(sb)));
            }
        }
        if !chaos_lines.is_empty() {
            differences += chaos_lines.len();
            let _ = writeln!(out, "\nchaos recovery deltas:");
            for l in chaos_lines {
                let _ = writeln!(out, "{l}");
            }
        }
    }

    // --- extras -----------------------------------------------------------
    // an experiment's own fields (sweep means, fitted exponents, …), leaf by
    // leaf under their dotted paths
    let (mut xa, mut xb) = (Vec::new(), Vec::new());
    if let Some(x) = a.get("extra") {
        leaves(String::new(), x, &mut xa);
    }
    if let Some(x) = b.get("extra") {
        leaves(String::new(), x, &mut xb);
    }
    let find =
        |xs: &[(String, Value)], k: &str| xs.iter().find(|(p, _)| p == k).map(|(_, v)| v.clone());
    let mut paths: Vec<&String> = xa.iter().chain(xb.iter()).map(|(p, _)| p).collect();
    paths.sort();
    paths.dedup();
    let mut extra_lines = Vec::new();
    for p in paths {
        let (va, vb) = (find(&xa, p), find(&xb, p));
        if va == vb {
            continue;
        }
        let show = |v: &Option<Value>| v.as_ref().map_or("-".into(), Value::to_json);
        let pct = match (
            va.as_ref().and_then(Value::as_f64),
            vb.as_ref().and_then(Value::as_f64),
        ) {
            (Some(x), Some(y)) if x != 0.0 => format!("  ({:+.1}%)", (y - x) * 100.0 / x.abs()),
            _ => String::new(),
        };
        extra_lines.push(format!("  {p} {} -> {}{pct}", show(&va), show(&vb)));
    }
    if !extra_lines.is_empty() {
        differences += extra_lines.len();
        let _ = writeln!(out, "\nextra deltas:");
        for l in extra_lines {
            let _ = writeln!(out, "{l}");
        }
    }

    if differences == 0 {
        let _ = writeln!(out, "\nno differences");
    }
    out
}

/// Every scalar under `v`, keyed by its path from `prefix`: object keys
/// and array indices joined by `.`.
fn leaves(prefix: String, v: &Value, out: &mut Vec<(String, Value)>) {
    let join = |k: &str| {
        if prefix.is_empty() {
            k.to_string()
        } else {
            format!("{prefix}.{k}")
        }
    };
    match v {
        Value::Obj(members) => {
            for (k, m) in members {
                leaves(join(k), m, out);
            }
        }
        Value::Arr(items) => {
            for (i, m) in items.iter().enumerate() {
                leaves(join(&i.to_string()), m, out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Num(_) | Value::Str(_) => {
            out.push((prefix, v.clone()));
        }
    }
}

/// Schema tag of a `BENCH_perf.json` perf baseline (written by `exp_perf`).
///
/// `ssr-bench-perf/2` added the per-scenario message breakdown
/// (`messages_by_cause`, `messages_by_kind`, `wasted`, `wasted_per_mille`)
/// measured by a separate instrumented run; timing repeats stay
/// uninstrumented.
pub const PERF_SCHEMA: &str = "ssr-bench-perf/2";

/// Every perf-baseline schema `obs diff` can read. Diffing a `/1` baseline
/// against a `/2` one is supported: fields present on only one side are
/// reported as schema growth, not drift.
pub const PERF_SCHEMAS: [&str; 2] = ["ssr-bench-perf/1", "ssr-bench-perf/2"];

/// `true` when a parsed JSON document is a perf baseline rather than a run
/// manifest — `obs diff` dispatches on this.
pub fn is_perf_baseline(v: &Value) -> bool {
    v.get("schema")
        .and_then(|s| s.as_str())
        .is_some_and(|s| PERF_SCHEMAS.contains(&s))
}

/// Diff of two `BENCH_perf.json` perf baselines, per scenario name.
///
/// * `ns_per_op` is wall-clock: a change is flagged as a regression only
///   when B is slower than A by more than `threshold_pct` percent (noise
///   below the threshold is shown but not flagged). `wall_ns` is
///   `ns_per_op * ops` and is skipped as redundant.
/// * every other numeric scenario field (`ticks`, `ops`,
///   `messages_delivered`, `node_activations`, `peak_queue_depth`,
///   `wasted`, `wasted_per_mille`, …) is deterministic for a given seed:
///   *any* change is reported (it is a behavior change, not noise), and
///   increases beyond the threshold are flagged.
/// * a numeric field present in only one baseline is **schema growth**
///   (e.g. diffing an `ssr-bench-perf/1` baseline against a `/2` one):
///   reported informationally, never flagged as a regression.
///
/// Returns the report and whether any regression was flagged — the CLI
/// exits non-zero on `true`, which is what makes `obs diff old new
/// --threshold 20` usable as a CI perf gate.
pub fn diff_perf(a: &Value, b: &Value, threshold_pct: f64) -> (String, bool) {
    let mut out = String::new();
    let git = |m: &Value| {
        m.get("git")
            .and_then(|g| g.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let _ = writeln!(out, "A: perf baseline @ {}", git(a));
    let _ = writeln!(out, "B: perf baseline @ {}", git(b));
    let _ = writeln!(out, "regression threshold: +{threshold_pct}%");

    let scenarios = |m: &Value| -> Vec<Value> {
        m.get("scenarios")
            .and_then(|s| s.as_arr())
            .map(|arr| arr.to_vec())
            .unwrap_or_default()
    };
    let name_of = |s: &Value| {
        s.get("name")
            .and_then(|n| n.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let sa = scenarios(a);
    let sb = scenarios(b);
    let mut regressions = 0usize;

    for ea in &sa {
        let name = name_of(ea);
        let Some(eb) = sb.iter().find(|s| name_of(s) == name) else {
            let _ = writeln!(out, "\n{name}: only in A");
            continue;
        };
        let mut lines: Vec<String> = Vec::new();
        let num = |s: &Value, k: &str| s.get(k).and_then(|v| v.as_f64());
        // wall-clock: threshold-gated
        if let (Some(x), Some(y)) = (num(ea, "ns_per_op"), num(eb, "ns_per_op")) {
            if x > 0.0 {
                let pct = (y - x) * 100.0 / x;
                if pct.abs() >= 0.05 {
                    let flag = if pct > threshold_pct {
                        regressions += 1;
                        "  ** regression **"
                    } else {
                        ""
                    };
                    lines.push(format!("ns_per_op {x:.0} -> {y:.0} ({pct:+.1}%){flag}"));
                }
            }
        }
        // deterministic work ledger: any drift is a behavior change; a key
        // on only one side is schema growth/shrink, reported but never
        // flagged (a /1-vs-/2 diff must stay usable as a perf gate)
        let numeric_keys = |s: &Value| -> Vec<String> {
            s.as_obj()
                .map(|o| {
                    o.iter()
                        .filter(|(k, v)| {
                            // wall_ns is ns_per_op * ops — wall-clock, already
                            // covered by the threshold-gated ns_per_op line
                            v.as_f64().is_some()
                                && k != "name"
                                && k != "ns_per_op"
                                && k != "wall_ns"
                        })
                        .map(|(k, _)| k.clone())
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut keys = numeric_keys(ea);
        for k in numeric_keys(eb) {
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        keys.sort();
        for key in &keys {
            match (num(ea, key), num(eb, key)) {
                (Some(x), Some(y)) if x != y => {
                    let flag = if x > 0.0 && (y - x) * 100.0 / x > threshold_pct {
                        regressions += 1;
                        "  ** regression **"
                    } else {
                        ""
                    };
                    lines.push(format!(
                        "{key} {} -> {}  (behavior change){flag}",
                        x as u64, y as u64
                    ));
                }
                (Some(x), None) => {
                    lines.push(format!(
                        "{key} {} -> absent  (schema change, informational)",
                        x as u64
                    ));
                }
                (None, Some(y)) => {
                    lines.push(format!(
                        "{key} absent -> {}  (schema growth, informational)",
                        y as u64
                    ));
                }
                _ => {}
            }
        }
        if !lines.is_empty() {
            let _ = writeln!(out, "\n{name}:");
            for l in lines {
                let _ = writeln!(out, "  {l}");
            }
        }
    }
    for eb in &sb {
        let name = name_of(eb);
        if !sa.iter().any(|s| name_of(s) == name) {
            let _ = writeln!(out, "\n{name}: only in B");
        }
    }

    if regressions == 0 {
        let _ = writeln!(out, "\nno regressions beyond +{threshold_pct}%");
    } else {
        let _ = writeln!(
            out,
            "\n{regressions} regression(s) beyond +{threshold_pct}%"
        );
    }
    (out, regressions > 0)
}

/// The fields every `BENCH_history.jsonl` line must carry.
const HISTORY_FIELDS: [&str; 3] = ["git", "scenario", "ns_per_op"];

/// The `BENCH_history.jsonl` lines of one perf baseline: one compact JSON
/// object per scenario — the baseline's `git` describe, the scenario name,
/// `ns_per_op` (per run for the convergence/chaos rows, whose op is a run),
/// `deliveries_per_run` (`messages_delivered / repeats`: the baseline's
/// counter fields are sums over its repeats), `repeats` and `smoke`.
/// Appending these per PR is what turns the overwritten `BENCH_perf.json`
/// snapshot into a trajectory.
pub fn history_lines(baseline: &Value) -> Result<String, String> {
    if !is_perf_baseline(baseline) {
        return Err("not a perf baseline (no ssr-bench-perf schema)".into());
    }
    let git = baseline
        .get("git")
        .and_then(|g| g.as_str())
        .ok_or("baseline has no git describe (emitted outside a checkout)")?;
    let scenarios = baseline
        .get("scenarios")
        .and_then(|s| s.as_arr())
        .ok_or("baseline has no scenarios")?;
    let mut out = String::new();
    for s in scenarios {
        let name = s.get("name").and_then(|n| n.as_str());
        let ns_per_op = s.get("ns_per_op").and_then(|v| v.as_f64());
        let (Some(name), Some(ns_per_op)) = (name, ns_per_op) else {
            return Err("scenario without name or ns_per_op".into());
        };
        let num = |k: &str| s.get(k).and_then(|v| v.as_f64());
        let repeats = num("repeats").unwrap_or(1.0).max(1.0);
        let line = Value::Obj(vec![
            ("git".into(), Value::Str(git.into())),
            ("scenario".into(), Value::Str(name.into())),
            ("ns_per_op".into(), Value::Num(ns_per_op)),
            (
                "deliveries_per_run".into(),
                Value::Num(num("messages_delivered").unwrap_or(0.0) / repeats),
            ),
            ("repeats".into(), Value::Num(repeats)),
            (
                "smoke".into(),
                baseline.get("smoke").cloned().unwrap_or(Value::Bool(false)),
            ),
        ]);
        let _ = writeln!(out, "{}", line.to_json());
    }
    Ok(out)
}

/// Checks parsed `BENCH_history.jsonl` records: there is at least one, and
/// each is one JSON object carrying `git`, `scenario` and `ns_per_op`.
pub fn check_history(records: &[Value]) -> Result<String, String> {
    if records.is_empty() {
        return Err("history is empty".into());
    }
    for (i, r) in records.iter().enumerate() {
        if r.as_obj().is_none() {
            return Err(format!("record {}: not a JSON object", i + 1));
        }
        for field in HISTORY_FIELDS {
            if r.get(field).is_none() {
                return Err(format!("record {}: no `{field}` field", i + 1));
            }
        }
    }
    Ok(format!("history OK: {} record(s)\n", records.len()))
}

fn delta(a: u64, b: u64) -> String {
    let d = b as i128 - a as i128;
    let sign = if d >= 0 { "+" } else { "" };
    if a == 0 {
        format!("{sign}{d}")
    } else {
        format!("{sign}{d}, {sign}{:.1}%", d as f64 * 100.0 / a as f64)
    }
}

/// Predicate set for `obs trace` filtering.
#[derive(Clone, Debug, Default)]
pub struct TraceFilter {
    /// Keep only records with this `ev` (e.g. `send`).
    pub ev: Option<String>,
    /// Keep only records with this message `kind` (e.g. `notify`).
    pub kind: Option<String>,
    /// Keep only records touching this node (as `from`, `to`, or `node`).
    pub node: Option<u64>,
    /// Keep only records at `at >= since`.
    pub since: Option<u64>,
    /// Keep only records at `at <= until`.
    pub until: Option<u64>,
}

impl TraceFilter {
    /// Whether a parsed trace record passes the filter.
    pub fn matches(&self, rec: &Value) -> bool {
        if let Some(want) = &self.ev {
            if rec.get("ev").and_then(|e| e.as_str()) != Some(want.as_str()) {
                return false;
            }
        }
        if let Some(want) = &self.kind {
            if rec.get("kind").and_then(|k| k.as_str()) != Some(want.as_str()) {
                return false;
            }
        }
        let at = rec.get("at").and_then(|a| a.as_u64());
        if let Some(since) = self.since {
            if at.is_none_or(|t| t < since) {
                return false;
            }
        }
        if let Some(until) = self.until {
            if at.is_none_or(|t| t > until) {
                return false;
            }
        }
        if let Some(node) = self.node {
            let touches = ["from", "to", "node"]
                .iter()
                .any(|k| rec.get(k).and_then(|v| v.as_u64()) == Some(node));
            if !touches {
                return false;
            }
        }
        true
    }
}

/// Renders one parsed JSONL trace record as an aligned, human-readable line.
pub fn format_trace_line(rec: &Value) -> String {
    let ev = rec.get("ev").and_then(|e| e.as_str()).unwrap_or("?");
    let at = rec.get("at").and_then(|a| a.as_u64()).unwrap_or(0);
    let num = |k: &str| rec.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let text = |k: &str| {
        rec.get(k)
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string()
    };
    // provenance tail (ssr-obs/3 traces); absent on pre-provenance traces
    let prov = match rec.get("pid").and_then(|v| v.as_u64()) {
        Some(pid) => format!(
            "  pid={pid} depth={} cause={}",
            num("depth"),
            rec.get("cause").and_then(|v| v.as_str()).unwrap_or("?")
        ),
        None => String::new(),
    };
    match ev {
        "send" | "deliver" => format!(
            "[{at:>8}] {ev:<8} {:>4} -> {:<4} kind={}{prov}",
            num("from"),
            num("to"),
            text("kind")
        ),
        "lost" => format!(
            "[{at:>8}] {ev:<8} {:>4} -> {:<4} reason={}{prov}",
            num("from"),
            num("to"),
            text("reason")
        ),
        "timer" => format!(
            "[{at:>8}] {ev:<8} node {} token={}{prov}",
            num("node"),
            num("token")
        ),
        "fault" => format!("[{at:>8}] {ev:<8} {}{prov}", text("desc")),
        "note" => format!("[{at:>8}] {ev:<8} node {}: {}", num("node"), text("text")),
        "diag" => format!("[{at:>8}] {ev:<8} {}: {}", text("source"), text("text")),
        other => format!("[{at:>8}] {other} {}", rec.to_json()),
    }
}

/// Renders the `provenance.flame` cells of an `ssr-obs/3` manifest as
/// folded stacks — `cause;kind;depth-frame count`, one line per cell —
/// which `flamegraph.pl` consumes unmodified.
///
/// Depth frames name the log₂ bucket the delivery's causal depth fell
/// into: `depth:0`, `depth:1`, `depth:2-3`, `depth:4-7`, …
pub fn flame(manifest: &Value) -> Result<String, String> {
    let prov = provenance_section(manifest)?;
    let cells = prov
        .get("flame")
        .and_then(|f| f.as_arr())
        .ok_or_else(|| "provenance section has no flame cells".to_string())?;
    let mut out = String::new();
    for c in cells {
        let cause = c.get("cause").and_then(|v| v.as_str()).unwrap_or("?");
        let kind = c.get("kind").and_then(|v| v.as_str()).unwrap_or("?");
        let lo = c.get("depth").and_then(|v| v.as_u64()).unwrap_or(0);
        let count = c.get("delivered").and_then(|v| v.as_u64()).unwrap_or(0);
        let _ = writeln!(out, "{cause};{kind};{} {count}", depth_frame(lo));
    }
    Ok(out)
}

/// Human-readable name of the log₂ depth bucket whose lower bound is `lo`.
fn depth_frame(lo: u64) -> String {
    match lo {
        0 | 1 => format!("depth:{lo}"),
        _ => format!("depth:{lo}-{}", 2 * lo - 1),
    }
}

/// The `provenance` object of a manifest, or a friendly error telling the
/// user how to produce one.
fn provenance_section(manifest: &Value) -> Result<&Value, String> {
    manifest.get("provenance").ok_or_else(|| {
        "manifest has no provenance section (ssr-obs/3): re-run the \
         experiment — exp_chaos records it by default"
            .to_string()
    })
}

/// Cost-attribution ranking over a manifest's `provenance` section: total
/// attribution vs `rx.total`, wasted-work ratio, per-cause and per-kind
/// tables, and the hottest nodes by traffic.
pub fn top(manifest: &Value, limit: usize) -> Result<String, String> {
    let prov = provenance_section(manifest)?;
    let num = |v: &Value, k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
    let delivered = num(prov, "delivered");
    let wasted = num(prov, "wasted");
    let rx_total = manifest
        .get("counters")
        .and_then(|c| c.get("rx.total"))
        .and_then(|v| v.as_u64());

    let mut out = String::new();
    // the acceptance gate: how much of the run's delivered traffic the
    // ledger attributed to a cause class
    match rx_total {
        Some(total) if total > 0 => {
            let pct = delivered as f64 * 100.0 / total as f64;
            let _ = writeln!(
                out,
                "attributed: {delivered}/{total} deliveries ({pct:.1}%)"
            );
        }
        _ => {
            let _ = writeln!(out, "attributed: {delivered} deliveries");
        }
    }
    if delivered > 0 {
        let _ = writeln!(
            out,
            "wasted work: {wasted}/{delivered} deliveries ({:.1}%)",
            wasted as f64 * 100.0 / delivered as f64
        );
    }

    let cells = prov
        .get("messages")
        .and_then(|m| m.as_arr())
        .ok_or_else(|| "provenance section has no messages cells".to_string())?;
    let mut by_cause: Vec<(String, [u64; 3])> = Vec::new();
    let mut by_kind: Vec<(String, [u64; 3])> = Vec::new();
    for c in cells {
        let stats = [num(c, "delivered"), num(c, "sent"), num(c, "wasted")];
        for (axis, key) in [(&mut by_cause, "cause"), (&mut by_kind, "kind")] {
            let name = c.get(key).and_then(|v| v.as_str()).unwrap_or("?");
            match axis.iter_mut().find(|(n, _)| n == name) {
                Some((_, acc)) => {
                    for (a, s) in acc.iter_mut().zip(stats) {
                        *a += s;
                    }
                }
                None => axis.push((name.to_string(), stats)),
            }
        }
    }
    for (title, mut rows) in [("cause class", by_cause), ("message kind", by_kind)] {
        rows.sort_by(|a, b| b.1[0].cmp(&a.1[0]).then_with(|| a.0.cmp(&b.0)));
        let _ = writeln!(out, "\nby {title}:");
        let _ = writeln!(
            out,
            "  {:<22} {:>10} {:>10} {:>10}",
            "", "delivered", "sent", "wasted"
        );
        for (name, [d, s, w]) in rows.iter().take(limit) {
            let _ = writeln!(out, "  {name:<22} {d:>10} {s:>10} {w:>10}");
        }
    }

    if let Some(nodes) = prov.get("nodes").and_then(|n| n.as_arr()) {
        let mut rows: Vec<(usize, u64, u64, u64)> = nodes
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                let t = t.as_arr()?;
                let get = |j: usize| t.get(j).and_then(|v| v.as_u64()).unwrap_or(0);
                Some((i, get(0), get(1), get(2)))
            })
            .filter(|&(_, s, r, _)| s + r > 0)
            .collect();
        rows.sort_by(|a, b| (b.1 + b.2).cmp(&(a.1 + a.2)).then_with(|| a.0.cmp(&b.0)));
        let _ = writeln!(
            out,
            "\nhot nodes (top {} of {} by traffic):",
            limit.min(rows.len()),
            nodes.len()
        );
        let _ = writeln!(
            out,
            "  {:<10} {:>6} {:>10} {:>10}",
            "node", "sent", "received", "wasted"
        );
        for (i, s, r, w) in rows.iter().take(limit) {
            let _ = writeln!(out, "  {i:<10} {s:>6} {r:>10} {w:>10}");
        }
    }
    Ok(out)
}

/// Walks the causal chain of trace event `pid` — root first — and renders
/// every trace record each lineage link produced.
///
/// A pid names one queued event; its `send` and matching `deliver` (or
/// `lost`) records share it. The `filter` (shared with `obs trace`)
/// restricts which records print per link — the walk itself always uses
/// the full trace, and a fully filtered-out link keeps a placeholder line
/// so the chain stays connected. A missing link (e.g. a truncated trace)
/// ends the walk with a note instead of an error.
pub fn causes(records: &[Value], pid: u64, filter: &TraceFilter) -> Result<String, String> {
    let find = |id: u64| -> Vec<&Value> {
        records
            .iter()
            .filter(|r| r.get("pid").and_then(|v| v.as_u64()) == Some(id))
            .collect()
    };
    if find(pid).is_empty() {
        return Err(format!("no trace record carries pid {pid}"));
    }
    let mut chain = vec![pid];
    let mut truncated = false;
    let mut cur = pid;
    loop {
        let recs = find(cur);
        let Some(parent) = recs
            .iter()
            .find_map(|r| r.get("parent").and_then(|v| v.as_u64()))
        else {
            // no parent field: `cur` is a root (or the trace lacks provenance)
            break;
        };
        if find(parent).is_empty() {
            truncated = true;
            chain.push(parent);
            break;
        }
        if chain.contains(&parent) {
            return Err(format!("provenance cycle at pid {parent} — corrupt trace"));
        }
        chain.push(parent);
        cur = parent;
    }
    chain.reverse();
    let mut out = String::new();
    let _ = writeln!(out, "causal chain for event {pid} ({} links):", chain.len());
    for (hop, id) in chain.iter().enumerate() {
        let indent = "  ".repeat(hop + 1);
        let recs = find(*id);
        if recs.is_empty() {
            let _ = writeln!(out, "{indent}pid {id}: not in trace (truncated?)");
            continue;
        }
        let shown: Vec<&&Value> = recs.iter().filter(|r| filter.matches(r)).collect();
        if shown.is_empty() {
            let _ = writeln!(out, "{indent}pid {id}: ({} record(s) filtered)", recs.len());
            continue;
        }
        for rec in shown {
            let _ = writeln!(out, "{indent}{}", format_trace_line(rec));
        }
    }
    if truncated {
        let _ = writeln!(out, "(chain truncated: a parent is missing from the trace)");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::manifest::{Manifest, TimelinePoint};

    fn manifest_with(seed: u64, tx: u64, route_p50_source: u64, converge_at: u64) -> Value {
        let mut metrics = ssr_sim::Metrics::new();
        metrics.add("tx.total", tx);
        metrics.add("msg.notify", tx);
        for i in 0..20 {
            metrics.observe_hist("route.len", route_p50_source + i % 3);
        }
        let mut man = Manifest::new("exp_test");
        man.seed(seed).config("n", 64).record_metrics(&metrics);
        man.timeline_point(TimelinePoint {
            tick: 0,
            shape: "incomplete".into(),
            locally_consistent: 0,
            nodes: 64,
            churn: 0,
        });
        man.timeline_point(TimelinePoint {
            tick: converge_at,
            shape: "consistent-ring".into(),
            locally_consistent: 64,
            nodes: 64,
            churn: 3,
        });
        parse(&man.to_json()).unwrap()
    }

    #[test]
    fn summarize_shows_the_essentials() {
        let m = manifest_with(1, 500, 4, 64);
        let s = summarize(&m);
        assert!(s.contains("experiment : exp_test"));
        assert!(s.contains("seed       : 1"));
        assert!(s.contains("tx.total"));
        assert!(s.contains("route.len"));
        assert!(s.contains("consistent-ring"));
        assert!(s.contains("time to consistent-ring: 64"));
    }

    #[test]
    fn diff_reports_deltas_and_regressions() {
        let a = manifest_with(1, 500, 4, 64);
        let b = manifest_with(2, 650, 4000, 96);
        let d = diff(&a, &b);
        assert!(d.contains("tx.total"), "{d}");
        assert!(d.contains("500 -> 650"), "{d}");
        assert!(d.contains("+150"), "{d}");
        assert!(d.contains("route.len"), "{d}");
        assert!(d.contains("time to consistent-ring: 64 -> 96"), "{d}");
        assert!(d.contains("** regression **"), "{d}");
    }

    #[test]
    fn diff_of_identical_manifests_is_clean() {
        let a = manifest_with(1, 500, 4, 64);
        let d = diff(&a, &a);
        assert!(d.contains("no differences"), "{d}");
    }

    #[test]
    fn diff_reports_extras_leaf_by_leaf() {
        let with = |msgs: f64, extra: Option<(&str, Value)>| {
            let mut man = Manifest::new("exp_test");
            let mut cell = vec![("msgs_mean".to_string(), Value::Num(msgs))];
            cell.extend(extra.map(|(k, v)| (k.to_string(), v)));
            let sweep = Value::Obj(vec![("vrr/n=16".to_string(), Value::Obj(cell))]);
            man.extra("sweep", sweep);
            parse(&man.to_json()).unwrap()
        };
        let d = diff(
            &with(1000.0, None),
            &with(900.0, Some(("ack", Value::Num(7.0)))),
        );
        assert!(d.contains("extra deltas:"), "{d}");
        assert!(
            d.contains("sweep.vrr/n=16.msgs_mean 1000 -> 900  (-10.0%)"),
            "{d}"
        );
        assert!(d.contains("sweep.vrr/n=16.ack - -> 7"), "{d}");
        let d = diff(&with(1000.0, None), &with(1000.0, None));
        assert!(d.contains("no differences"), "{d}");
    }

    fn chaos_manifest(verdict: &str, recovery_ticks: u64, recovery_msgs: u64) -> Value {
        let mut man = Manifest::new("exp_chaos");
        man.seed(0).chaos_scenario(crate::manifest::ChaosScenario {
            name: "partition".into(),
            n: 50,
            seed: 3,
            verdict: verdict.into(),
            recovery_ticks,
            recovery_msgs,
            floods: 0,
            union_disconnected: 0,
            potential_rises: 0,
        });
        parse(&man.to_json()).unwrap()
    }

    #[test]
    fn summarize_shows_chaos_scenarios() {
        let s = summarize(&chaos_manifest("converged", 412, 900));
        assert!(s.contains("chaos scenarios (1):"), "{s}");
        assert!(s.contains("partition"), "{s}");
        assert!(s.contains("verdict=converged"), "{s}");
        assert!(s.contains("recovery=412 ticks / 900 msgs"), "{s}");
    }

    #[test]
    fn diff_reports_chaos_recovery_and_verdicts() {
        let a = chaos_manifest("converged", 412, 900);
        let b = chaos_manifest("frozen_crossing", 5104, 4000);
        let d = diff(&a, &b);
        assert!(d.contains("chaos recovery deltas:"), "{d}");
        assert!(d.contains("verdict converged -> frozen_crossing"), "{d}");
        assert!(d.contains("recovery_ticks 412 -> 5104"), "{d}");
        assert!(d.contains("** regression (froze) **"), "{d}");
        // identical chaos sections stay silent
        let d = diff(&a, &a);
        assert!(d.contains("no differences"), "{d}");
    }

    fn perf_baseline(git: &str, ns_per_op: f64, delivered: u64) -> Value {
        let doc = format!(
            "{{\"schema\":\"ssr-bench-perf/1\",\"git\":\"{git}\",\"seed\":1,\
             \"scenarios\":[{{\"name\":\"convergence_n100\",\"ops\":3,\
             \"ns_per_op\":{ns_per_op},\"ticks\":88,\
             \"messages_delivered\":{delivered},\"node_activations\":9622,\
             \"peak_queue_depth\":648}}]}}"
        );
        parse(&doc).unwrap()
    }

    #[test]
    fn history_lines_round_trip_through_the_check() {
        let lines = history_lines(&perf_baseline("abc-dirty", 1500.5, 600)).unwrap();
        assert_eq!(
            lines,
            "{\"git\":\"abc-dirty\",\"scenario\":\"convergence_n100\",\"ns_per_op\":1500.5,\
             \"deliveries_per_run\":600,\"repeats\":1,\"smoke\":false}\n"
        );
        let records: Vec<Value> = lines.lines().map(|l| parse(l).unwrap()).collect();
        assert!(check_history(&records).unwrap().contains("1 record"));
        assert!(history_lines(&manifest_with(1, 500, 4, 64)).is_err());
        assert!(check_history(&[]).is_err());
        assert!(check_history(&[parse("[1]").unwrap()]).is_err());
        let no_git = parse("{\"scenario\":\"x\",\"ns_per_op\":1}").unwrap();
        assert!(check_history(&[no_git]).unwrap_err().contains("`git`"));
    }

    #[test]
    fn perf_baselines_are_recognized() {
        assert!(is_perf_baseline(&perf_baseline("abc", 100.0, 5)));
        assert!(!is_perf_baseline(&manifest_with(1, 500, 4, 64)));
        assert!(!is_perf_baseline(&parse("{}").unwrap()));
    }

    #[test]
    fn perf_diff_flags_wall_regressions_beyond_threshold() {
        let a = perf_baseline("old", 1000.0, 500);
        // +30% wall, counters unchanged: regression at 10%, noise at 50%
        let b = perf_baseline("new", 1300.0, 500);
        let (report, failed) = diff_perf(&a, &b, 10.0);
        assert!(failed, "{report}");
        assert!(
            report.contains("ns_per_op 1000 -> 1300 (+30.0%)"),
            "{report}"
        );
        assert!(report.contains("** regression **"), "{report}");
        assert!(report.contains("1 regression(s) beyond +10%"), "{report}");
        let (report, failed) = diff_perf(&a, &b, 50.0);
        assert!(!failed, "{report}");
        assert!(report.contains("no regressions beyond +50%"), "{report}");
    }

    #[test]
    fn perf_diff_reports_counter_drift_as_behavior_change() {
        let a = perf_baseline("old", 1000.0, 500);
        let mut report = diff_perf(&a, &perf_baseline("new", 1000.0, 520), 10.0);
        // +4% delivered: reported (deterministic drift) but under threshold
        assert!(!report.1, "{}", report.0);
        assert!(
            report.0.contains("messages_delivered 500 -> 520"),
            "{}",
            report.0
        );
        assert!(report.0.contains("behavior change"), "{}", report.0);
        // +100% delivered: flagged
        report = diff_perf(&a, &perf_baseline("new", 1000.0, 1000), 10.0);
        assert!(report.1, "{}", report.0);
    }

    #[test]
    fn perf_diff_of_identical_baselines_is_clean() {
        let a = perf_baseline("same", 1000.0, 500);
        let (report, failed) = diff_perf(&a, &a, 10.0);
        assert!(!failed);
        assert!(report.contains("no regressions"), "{report}");
    }

    #[test]
    fn perf_diff_reports_scenario_set_changes() {
        let a = perf_baseline("old", 1000.0, 500);
        let b = parse(
            "{\"schema\":\"ssr-bench-perf/1\",\"git\":\"new\",\"seed\":1,\
             \"scenarios\":[{\"name\":\"routing_n500\",\"ops\":1,\
             \"ns_per_op\":5.0,\"ticks\":0,\"messages_delivered\":0,\
             \"node_activations\":0,\"peak_queue_depth\":0}]}",
        )
        .unwrap();
        let (report, _) = diff_perf(&a, &b, 10.0);
        assert!(report.contains("convergence_n100: only in A"), "{report}");
        assert!(report.contains("routing_n500: only in B"), "{report}");
    }

    #[test]
    fn perf_diff_treats_mixed_schemas_as_growth_not_drift() {
        // a /1 baseline (no breakdown fields) against a /2 one that adds
        // wasted/wasted_per_mille: informational, never a regression
        let a = perf_baseline("old", 1000.0, 500);
        let b = parse(
            "{\"schema\":\"ssr-bench-perf/2\",\"git\":\"new\",\"seed\":1,\
             \"scenarios\":[{\"name\":\"convergence_n100\",\"ops\":3,\
             \"ns_per_op\":1000.0,\"ticks\":88,\
             \"messages_delivered\":500,\"node_activations\":9622,\
             \"peak_queue_depth\":648,\"wasted\":120,\"wasted_per_mille\":240}]}",
        )
        .unwrap();
        assert!(is_perf_baseline(&b));
        let (report, failed) = diff_perf(&a, &b, 10.0);
        assert!(!failed, "{report}");
        assert!(
            report.contains("wasted absent -> 120  (schema growth, informational)"),
            "{report}"
        );
        assert!(
            report.contains("wasted_per_mille absent -> 240"),
            "{report}"
        );
        assert!(!report.contains("behavior change"), "{report}");
        // the reverse direction reports a schema change, also unflagged
        let (report, failed) = diff_perf(&b, &a, 10.0);
        assert!(!failed, "{report}");
        assert!(
            report.contains("wasted 120 -> absent  (schema change, informational)"),
            "{report}"
        );
    }

    fn provenance_manifest() -> Value {
        use ssr_sim::{KindStats, NodeTally, ProvenanceSummary};
        let mut s = ProvenanceSummary {
            roots: 1,
            ..Default::default()
        };
        s.messages.insert(
            ("bootstrap", "hello"),
            KindStats {
                sent: 1,
                delivered: 1,
                wasted: 0,
            },
        );
        s.messages.insert(
            ("linearization-step", "notify"),
            KindStats {
                sent: 3,
                delivered: 3,
                wasted: 1,
            },
        );
        s.flame.insert(("bootstrap", "hello", 1), 1);
        s.flame.insert(("linearization-step", "notify", 4), 3);
        s.cascade_sizes.observe(4);
        s.nodes = vec![
            NodeTally {
                sent: 1,
                received: 0,
                wasted: 0,
            },
            NodeTally {
                sent: 3,
                received: 1,
                wasted: 0,
            },
            NodeTally {
                sent: 0,
                received: 3,
                wasted: 1,
            },
        ];
        let mut metrics = ssr_sim::Metrics::new();
        metrics.add("rx.total", 4);
        let mut man = Manifest::new("exp_test");
        man.record_metrics(&metrics).record_provenance(&s);
        parse(&man.to_json()).unwrap()
    }

    #[test]
    fn flame_emits_folded_stacks() {
        let m = provenance_manifest();
        let folded = flame(&m).unwrap();
        // one line per (cause, kind, depth-bucket) cell, flamegraph format
        assert!(folded.contains("bootstrap;hello;depth:1 1\n"), "{folded}");
        assert!(
            folded.contains("linearization-step;notify;depth:4-7 3\n"),
            "{folded}"
        );
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').unwrap();
            assert_eq!(stack.split(';').count(), 3, "{line}");
            count.parse::<u64>().unwrap();
        }
        // manifests without provenance produce a friendly error
        let err = flame(&manifest_with(1, 500, 4, 64)).unwrap_err();
        assert!(err.contains("no provenance section"), "{err}");
    }

    #[test]
    fn top_ranks_and_attributes() {
        let m = provenance_manifest();
        let report = top(&m, 10).unwrap();
        assert!(
            report.contains("attributed: 4/4 deliveries (100.0%)"),
            "{report}"
        );
        assert!(
            report.contains("wasted work: 1/4 deliveries (25.0%)"),
            "{report}"
        );
        assert!(report.contains("by cause class:"), "{report}");
        assert!(report.contains("linearization-step"), "{report}");
        assert!(report.contains("by message kind:"), "{report}");
        assert!(report.contains("notify"), "{report}");
        assert!(report.contains("hot nodes"), "{report}");
        // linearization-step (3 delivered) ranks above bootstrap (1)
        let lin = report.find("linearization-step").unwrap();
        let boot = report.find("bootstrap").unwrap();
        assert!(lin < boot, "{report}");
    }

    #[test]
    fn causes_walks_the_lineage_to_the_root() {
        let records: Vec<Value> = [
            "{\"ev\":\"send\",\"at\":0,\"from\":0,\"to\":1,\"kind\":\"hello\",\
             \"pid\":1,\"depth\":0,\"cause\":\"bootstrap\"}",
            "{\"ev\":\"deliver\",\"at\":2,\"from\":0,\"to\":1,\"kind\":\"hello\",\
             \"pid\":1,\"depth\":0,\"cause\":\"bootstrap\"}",
            "{\"ev\":\"send\",\"at\":2,\"from\":1,\"to\":2,\"kind\":\"notify\",\
             \"pid\":2,\"parent\":1,\"depth\":1,\"cause\":\"linearization-step\"}",
            "{\"ev\":\"deliver\",\"at\":4,\"from\":1,\"to\":2,\"kind\":\"notify\",\
             \"pid\":2,\"parent\":1,\"depth\":1,\"cause\":\"linearization-step\"}",
        ]
        .iter()
        .map(|s| parse(s).unwrap())
        .collect();
        let all = TraceFilter::default();
        let chain = causes(&records, 2, &all).unwrap();
        assert!(
            chain.contains("causal chain for event 2 (2 links):"),
            "{chain}"
        );
        // root renders before the queried event
        let hello = chain.find("kind=hello").unwrap();
        let notify = chain.find("kind=notify").unwrap();
        assert!(hello < notify, "{chain}");
        assert!(chain.contains("cause=linearization-step"), "{chain}");
        // a shared --ev filter narrows what prints without breaking the walk
        let sends_only = TraceFilter {
            ev: Some("deliver".into()),
            ..Default::default()
        };
        let chain = causes(&records, 2, &sends_only).unwrap();
        assert!(chain.contains("2 links"), "{chain}");
        assert!(chain.contains("deliver"), "{chain}");
        assert!(!chain.contains("send"), "{chain}");
        // unknown pid is an error; missing parent is a truncation note
        assert!(causes(&records, 99, &all).is_err());
        let orphan = vec![parse(
            "{\"ev\":\"send\",\"at\":9,\"from\":3,\"to\":4,\"kind\":\"x\",\
             \"pid\":7,\"parent\":6,\"depth\":3,\"cause\":\"routing\"}",
        )
        .unwrap()];
        let chain = causes(&orphan, 7, &all).unwrap();
        assert!(chain.contains("truncated"), "{chain}");
    }

    #[test]
    fn trace_filter_matches_kind() {
        let rec =
            parse("{\"ev\":\"send\",\"at\":12,\"from\":1,\"to\":2,\"kind\":\"notify\"}").unwrap();
        assert!(TraceFilter {
            kind: Some("notify".into()),
            ..Default::default()
        }
        .matches(&rec));
        assert!(!TraceFilter {
            kind: Some("hello".into()),
            ..Default::default()
        }
        .matches(&rec));
        // records without a kind (timers, notes) never match a kind filter
        let timer = parse(
            "{\"ev\":\"timer\",\"at\":5,\"node\":3,\"token\":0,\"pid\":9,\"depth\":2,\
                   \"cause\":\"hello-sweep\"}",
        )
        .unwrap();
        assert!(!TraceFilter {
            kind: Some("notify".into()),
            ..Default::default()
        }
        .matches(&timer));
        let line = format_trace_line(&timer);
        assert!(line.contains("timer"), "{line}");
        assert!(line.contains("node 3 token=0"), "{line}");
        assert!(line.contains("pid=9 depth=2 cause=hello-sweep"), "{line}");
    }

    #[test]
    fn time_to_consistency_handles_missing() {
        let v = parse("{\"timeline\":[{\"tick\":5,\"shape\":\"loopy(2)\"}]}").unwrap();
        assert_eq!(time_to_consistency(&v), None);
        let v = parse("{}").unwrap();
        assert_eq!(time_to_consistency(&v), None);
    }

    #[test]
    fn trace_filter_and_formatting() {
        let rec =
            parse("{\"ev\":\"send\",\"at\":12,\"from\":1,\"to\":2,\"kind\":\"notify\"}").unwrap();
        assert!(TraceFilter::default().matches(&rec));
        assert!(TraceFilter {
            ev: Some("send".into()),
            ..Default::default()
        }
        .matches(&rec));
        assert!(!TraceFilter {
            ev: Some("lost".into()),
            ..Default::default()
        }
        .matches(&rec));
        assert!(TraceFilter {
            node: Some(2),
            ..Default::default()
        }
        .matches(&rec));
        assert!(!TraceFilter {
            node: Some(9),
            ..Default::default()
        }
        .matches(&rec));
        assert!(!TraceFilter {
            since: Some(13),
            ..Default::default()
        }
        .matches(&rec));
        assert!(!TraceFilter {
            until: Some(11),
            ..Default::default()
        }
        .matches(&rec));
        let line = format_trace_line(&rec);
        assert!(line.contains("send"));
        assert!(line.contains("1 -> 2"));
        assert!(line.contains("kind=notify"));
        let note = parse("{\"ev\":\"note\",\"at\":3,\"node\":7,\"text\":\"x\"}").unwrap();
        assert!(format_trace_line(&note).contains("node 7: x"));
        let diag = parse("{\"ev\":\"diag\",\"at\":96,\"source\":\"watchdog\",\"text\":\"frozen\"}")
            .unwrap();
        let line = format_trace_line(&diag);
        assert!(line.contains("diag"), "{line}");
        assert!(line.contains("watchdog: frozen"), "{line}");
    }
}
