//! `ssr-benchmark compare A.json B.json`, and the name checks of
//! `ssr-benchmark check`.

use std::process::ExitCode;

use crate::json::{self, Value};
use crate::spec::{self, Better, Declared};
use crate::workloads;

/// `setup_s` may also worsen by this much in absolute terms: on workloads
/// whose set-up takes a few milliseconds a share of it is below the clock
/// noise.
const SETUP_FLOOR_S: f64 = 0.020;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The samples behind one of the two medians spread wider than the
    /// bound, so the medians cannot be told apart at it.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a`. `slack` is how much worse `b` may be, in the
/// metric's unit; `spread` is the wider quartile spread of the two sides,
/// as a share of the median, against `bound`.
pub fn judge(a: f64, b: f64, better: Better, slack: f64, spread: f64, bound: f64) -> Verdict {
    // how much worse b is than a, in the metric's unit
    let worsening = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if worsening.is_nan() {
        // inf against inf: both failed the same way
        return Verdict::Within;
    }
    if worsening > slack {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else if worsening < -slack {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The per-workload reports of a file `all` (or one workload run) wrote.
fn workloads_of(doc: &Value) -> Vec<&Value> {
    match doc.get("workloads") {
        Some(list) => list.as_arr().iter().collect(),
        None => vec![doc],
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn compare_files(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let declared = Declared::load()?;
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    let mut any_worse = false;
    println!(
        "{:<20} {:<22} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "bound"
    );
    for a in workloads_of(&a_doc) {
        let name = a.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(b) = workloads_of(&b_doc)
            .into_iter()
            .find(|b| b.get("workload").and_then(Value::as_str) == Some(name))
        else {
            println!("{name:<20} missing from {b_path}");
            any_worse = true;
            continue;
        };
        let mut row = |metric: &str, a: f64, b: f64, bound: f64, verdict: Verdict| {
            println!(
                "{name:<20} {metric:<22} {a:>14.6} {b:>14.6} {:>7.0}%  {}",
                bound * 100.0,
                verdict.label()
            );
            any_worse |= verdict == Verdict::Worse;
        };
        for m in &spec::END_TO_END {
            let (Some(ea), Some(eb)) = (metric_entry(a, m.name), metric_entry(b, m.name)) else {
                continue;
            };
            let number = |entry: &Value, key: &str| entry.get(key).and_then(Value::as_f64);
            // a null value is an infinite median: a failed run
            let va = number(ea, "value").unwrap_or(f64::INFINITY);
            let vb = number(eb, "value").unwrap_or(f64::INFINITY);
            let bound = declared.bound(m.name).unwrap_or(0.0);
            let mut slack = bound * va.abs();
            if m.name == "setup_s" {
                slack = slack.max(SETUP_FLOOR_S);
            }
            let spread = number(ea, "quartile_spread")
                .unwrap_or(0.0)
                .max(number(eb, "quartile_spread").unwrap_or(0.0));
            let verdict = judge(va, vb, m.better, slack, spread, bound);
            row(m.name, va, vb, bound, verdict);
        }
        // these two may not rise at all
        for key in ["failed_share", "determinism_breaks"] {
            let get = |doc: &Value| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            let (va, vb) = (get(a), get(b));
            row(
                key,
                va,
                vb,
                0.0,
                judge(va, vb, Better::Lower, 0.0, 0.0, 0.0),
            );
        }
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn metric_entry<'a>(report: &'a Value, metric: &str) -> Option<&'a Value> {
    report.get("metrics").and_then(|ms| ms.get(metric))
}

/// Everything in which the names this binary emits differ from what
/// `BENCHMARK.json` declares.
pub fn names_against(declared: &Declared) -> Vec<String> {
    let mut problems = Vec::new();
    for name in declared
        .workloads
        .iter()
        .chain(declared.end_to_end.iter().map(|(name, ..)| name))
        .chain(declared.per_layer.iter().map(|(name, ..)| name))
    {
        if !spec::well_formed(name) {
            problems.push(format!("declared name {name:?} is malformed"));
        }
    }
    let mut same_set = |what: &str, ours: Vec<String>, theirs: Vec<String>| {
        for name in &ours {
            if !theirs.contains(name) {
                problems.push(format!("{what} {name} is emitted but not declared"));
            }
        }
        for name in &theirs {
            if !ours.contains(name) {
                problems.push(format!("{what} {name} is declared but not emitted"));
            }
        }
    };
    same_set(
        "workload",
        workloads::ALL.iter().map(|w| w.name.to_string()).collect(),
        declared.workloads.clone(),
    );
    let ours = |metrics: &[spec::Metric]| -> Vec<String> {
        metrics
            .iter()
            .map(|m| format!("{} [{}, {}]", m.name, m.unit, m.better.label()))
            .collect()
    };
    same_set(
        "end-to-end metric",
        ours(&spec::END_TO_END),
        declared
            .end_to_end
            .iter()
            .map(|(n, u, b, _)| format!("{n} [{u}, {b}]"))
            .collect(),
    );
    same_set(
        "per-layer metric",
        ours(&spec::PER_LAYER),
        declared
            .per_layer
            .iter()
            .map(|(n, u, b)| format!("{n} [{u}, {b}]"))
            .collect(),
    );
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_is_better_metrics() {
        let j = |a, b| judge(a, b, Better::Lower, 0.1 * a, 0.0, 0.1);
        assert_eq!(j(10.0, 10.5), Verdict::Within);
        assert_eq!(j(10.0, 11.5), Verdict::Worse);
        assert_eq!(j(10.0, 8.0), Verdict::Better);
        assert_eq!(j(10.0, f64::INFINITY), Verdict::Worse);
        assert_eq!(j(f64::INFINITY, f64::INFINITY), Verdict::Within);
    }

    #[test]
    fn higher_is_better_metrics() {
        let j = |a, b| judge(a, b, Better::Higher, 0.1 * a, 0.0, 0.1);
        assert_eq!(j(100.0, 95.0), Verdict::Within);
        assert_eq!(j(100.0, 85.0), Verdict::Worse);
        assert_eq!(j(100.0, 120.0), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_clearly_worse() {
        let j = |b| judge(10.0, b, Better::Lower, 1.0, 0.3, 0.1);
        assert_eq!(j(10.5), Verdict::Unresolved);
        assert_eq!(j(8.0), Verdict::Unresolved);
        assert_eq!(j(12.0), Verdict::Worse);
    }

    #[test]
    fn counts_that_may_not_rise() {
        let j = |a, b| judge(a, b, Better::Lower, 0.0, 0.0, 0.0);
        assert_eq!(j(0.0, 0.0), Verdict::Within);
        assert_eq!(j(0.0, 1.0), Verdict::Worse);
        assert_eq!(j(0.1, 0.0), Verdict::Better);
    }

    #[test]
    fn emitted_names_are_well_formed() {
        for name in workloads::ALL
            .iter()
            .map(|w| w.name)
            .chain(spec::END_TO_END.iter().map(|m| m.name))
            .chain(spec::PER_LAYER.iter().map(|m| m.name))
        {
            assert!(spec::well_formed(name), "{name}");
        }
        assert!(!spec::well_formed("has space"));
        assert!(!spec::well_formed(""));
    }
}
