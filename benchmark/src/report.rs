//! Where results go: the table on standard output, the driver's result
//! line, and the files under `benchmark/out/`.

use std::path::PathBuf;
use std::process::Command;

use crate::common::{Config, Report};
use crate::json::Value;
use crate::span::Tracer;
use crate::spec::{self, Metric};
use crate::stats;

/// `benchmark/out/`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn file_name(workload: &str, traced: bool) -> String {
    if traced {
        format!("{workload}.traced.json")
    } else {
        format!("{workload}.json")
    }
}

pub fn metrics_of(traced: bool) -> &'static [Metric] {
    if traced {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    }
}

/// Every metric of the run's kind, by name with its unit; `-` where the
/// workload does not define it.
pub fn print_table(workload: &str, report: &Report, traced: bool) {
    println!(
        "{workload} ({}): {} attempted, {} failed, {} determinism break(s), outputs {}",
        if traced { "traced" } else { "untraced" },
        report.attempted,
        report.failed,
        report.determinism_breaks,
        if report.violations.is_empty() {
            "correct"
        } else {
            "INCORRECT"
        },
    );
    for m in metrics_of(traced) {
        let Some(value) = report.get(m.name) else {
            continue;
        };
        let samples = report
            .samples
            .iter()
            .find(|(name, _)| name == m.name)
            .map_or(String::new(), |(_, s)| {
                format!(
                    "   (median of {}, quartile spread {:.1} %)",
                    s.len(),
                    stats::quartile_spread(s) * 100.0
                )
            });
        println!(
            "  {:<44} {:>16} {}{samples}",
            m.name,
            format_value(value),
            m.unit
        );
    }
    let missing: Vec<&str> = metrics_of(traced)
        .iter()
        .filter(|m| report.get(m.name).is_none())
        .map(|m| m.name)
        .collect();
    if !traced && !missing.is_empty() {
        println!("  -: {}", missing.join(", "));
    }
}

fn format_value(value: f64) -> String {
    if !value.is_finite() {
        "inf".to_string()
    } else if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.0}")
    } else if value.abs() >= 1000.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.4}")
    }
}

/// The driver's result: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every declared metric of the run's kind.
pub fn result_line(report: &Report, traced: bool) -> Value {
    let metrics = metrics_of(traced).iter().map(|m| {
        let undefined = if traced { 0.0 } else { spec::NOT_DEFINED };
        let value = report.get(m.name).unwrap_or(undefined);
        (
            m.name,
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(m.unit.to_string())),
            ]),
        )
    });
    Value::obj([
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::Num(report.attempted.max(1) as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
}

/// What produced a file: seed, corpus, commit, compiler, cores.
fn provenance(cfg: &Config) -> Vec<(&'static str, Value)> {
    let capture = |program: &str, args: &[&str]| -> Value {
        Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .filter(|text| !text.is_empty())
            .map_or(Value::Null, Value::Str)
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("seed", Value::Num(cfg.seed as f64)),
        ("corpus", Value::Num(cfg.corpus as f64)),
        ("seconds", Value::Num(cfg.seconds)),
        ("git", capture("git", &["describe", "--always", "--dirty"])),
        ("rustc", capture("rustc", &["-V"])),
        ("nproc", Value::Num(nproc as f64)),
    ]
}

/// The detailed report of one workload run.
fn detail(workload: &str, report: &Report, traced: bool) -> Vec<(&'static str, Value)> {
    let metrics = report.metrics.iter().map(|(name, value)| {
        let mut fields = vec![("value".to_string(), Value::Num(*value))];
        let unit = metrics_of(traced)
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit);
        fields.push(("unit".to_string(), Value::Str(unit.to_string())));
        if let Some((_, samples)) = report.samples.iter().find(|(n, _)| n == name) {
            fields.push((
                "quartile_spread".to_string(),
                Value::Num(stats::quartile_spread(samples)),
            ));
            let samples = samples.iter().map(|&s| Value::Num(s)).collect();
            fields.push(("samples".to_string(), Value::Arr(samples)));
        }
        (name.clone(), Value::Obj(fields))
    });
    vec![
        ("workload", Value::Str(workload.to_string())),
        ("traced", Value::Bool(traced)),
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("failed_share", Value::Num(report.failed_share())),
        (
            "determinism_breaks",
            Value::Num(report.determinism_breaks as f64),
        ),
        (
            "violations",
            Value::Arr(
                report
                    .violations
                    .iter()
                    .map(|v| Value::Str(v.clone()))
                    .collect(),
            ),
        ),
        ("metrics", Value::obj(metrics)),
    ]
}

fn write(path: &PathBuf, doc: &Value) -> Result<(), String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes `out/<workload>[.traced].json` and, for a traced run, the spans
/// to `out/<workload>.trace.json`.
pub fn write_files(
    workload: &str,
    cfg: &Config,
    report: &Report,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let traced = tracer.is_some();
    let produced_by = provenance(cfg);
    let mut doc = produced_by.clone();
    doc.extend(detail(workload, report, traced));
    write(
        &out_dir().join(file_name(workload, traced)),
        &Value::obj(doc),
    )?;
    if let Some(tracer) = tracer {
        let mut trace = produced_by;
        trace.push(("workload", Value::Str(workload.to_string())));
        trace.push(("spans", tracer.to_json()));
        write(
            &out_dir().join(format!("{workload}.trace.json")),
            &Value::obj(trace),
        )?;
    }
    Ok(())
}

/// Writes `out/all.json` or `out/trace.json`: the provenance once, then the
/// per-workload reports the child processes wrote.
pub fn write_merged(cfg: &Config, traced: bool, reports: Vec<Value>) -> Result<PathBuf, String> {
    let mut doc = provenance(cfg);
    doc.push(("workloads", Value::Arr(reports)));
    let path = out_dir().join(if traced { "trace.json" } else { "all.json" });
    write(&path, &Value::obj(doc))?;
    Ok(path)
}
