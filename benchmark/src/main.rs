//! `ssr-benchmark`: the repository's benchmark.
//!
//! ```text
//! ssr-benchmark --workload W --seed N --seconds S --trace 0|1   one run; the last line is the result
//! ssr-benchmark all   [--seed N] [--seconds S] [--workload W]   every end-to-end metric, untraced
//! ssr-benchmark trace [--seed N] [--workload W]                 every per-layer metric, traced
//! ssr-benchmark check                                           toy sizes + names against BENCHMARK.json
//! ssr-benchmark compare A.json B.json                           B against A under the declared bounds
//! ```
//!
//! Everything runs on one thread. `all` and `trace` start one child process
//! per workload, one after the other, so that `peak_rss_mb` is per
//! workload. See `README.md` in this directory.

#![forbid(unsafe_code)]

mod common;
mod compare;
mod json;
mod probes;
mod protocol;
mod report;
mod span;
mod spec;
mod stats;
mod timed;
mod workloads;

use std::process::ExitCode;

use common::{Config, Report, Sizes};
use span::Tracer;
use workloads::Workload;

/// Parsed command line: a subcommand (or none, for the driver's form),
/// `--key value` options and positional arguments.
struct Args {
    command: Option<String>,
    options: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            command: None,
            options: Vec::new(),
            positional: Vec::new(),
        };
        let mut raw = raw.peekable();
        if raw.peek().is_some_and(|first| !first.starts_with("--")) {
            args.command = raw.next();
        }
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = raw.next().ok_or(format!("--{key} needs a value"))?;
                    args.options.push((key.to_string(), value));
                }
                None => args.positional.push(arg),
            }
        }
        Ok(args)
    }

    fn opt(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} {v}: not a valid value")),
        }
    }

    fn config(&self, sizes: Sizes, default_seconds: f64) -> Result<Config, String> {
        let seconds: f64 = self.get("seconds", default_seconds)?;
        if !(0.0..=600.0).contains(&seconds) {
            return Err(format!("--seconds {seconds}: out of range"));
        }
        Ok(Config {
            seed: self.get("seed", 1)?,
            seconds,
            corpus: self.get("corpus", 1)?,
            sizes,
        })
    }
}

/// Runs one workload, untraced or traced, in this process.
fn run_workload(workload: &Workload, cfg: &Config, traced: bool) -> (Report, Option<Tracer>) {
    if !traced {
        let mut report = (workload.untraced)(cfg);
        report.set("peak_rss_mb", common::peak_rss_mb());
        return (report, None);
    }
    let mut tr = Tracer::new();
    let mut report = (workload.traced)(cfg, &mut tr);
    report.set("trace.spans", tr.len() as f64);
    report.set("failed_share", report.failed_share());
    report.set("determinism_breaks", report.determinism_breaks as f64);
    (report, Some(tr))
}

/// The driver's form: one workload, one run, the result as the last line.
fn driver(args: &Args) -> Result<ExitCode, String> {
    let workload = workloads::find(args.opt("workload").ok_or("--workload is required")?)?;
    let traced = match args.opt("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: 0 or 1")),
    };
    let declared = spec::Declared::load()?;
    let cfg = args.config(Sizes::full(), declared.run_seconds)?;
    let (report, tracer) = run_workload(workload, &cfg, traced);
    report::print_table(workload.name, &report, traced);
    // the files are a convenience; the result line is the contract
    if let Err(e) = report::write_files(workload.name, &cfg, &report, tracer.as_ref()) {
        eprintln!("warning: output files not written: {e}");
    }
    for violation in &report.violations {
        eprintln!("output check failed: {violation}");
    }
    if report.determinism_breaks > 0 {
        eprintln!(
            "determinism broken: {} run(s) disagree with the first",
            report.determinism_breaks
        );
    }
    println!("{}", report::result_line(&report, traced).to_compact());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `all` / `trace`: every workload (or `--workload W`), one child process
/// each, then the merged table and `benchmark/out/<all|trace>.json`.
fn every_workload(args: &Args, traced: bool) -> Result<ExitCode, String> {
    let declared = spec::Declared::load()?;
    let cfg = args.config(Sizes::full(), declared.run_seconds)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own binary: {e}"))?;
    let chosen: Vec<&str> = match args.opt("workload") {
        Some(w) => vec![workloads::find(w)?.name],
        None => workloads::ALL.iter().map(|w| w.name).collect(),
    };
    let mut ok = true;
    let mut merged = Vec::new();
    for workload in chosen {
        eprintln!("== {workload} ==");
        // Command::output waits for the child: none is left running
        let child = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--corpus", &cfg.corpus.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let (table, _result) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        println!("{table}\n");
        ok &= child.status.success();
        // the child wrote the detailed report; fold it into the merged file
        let path = report::out_dir().join(report::file_name(workload, traced));
        let detail = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|text| json::parse(&text))?;
        merged.push(detail);
    }
    let path = report::write_merged(&cfg, traced, merged)?;
    println!("(written to {})", path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `check`: the six workloads at toy sizes, untraced and traced, plus the
/// emitted names against `BENCHMARK.json`.
fn check() -> Result<ExitCode, String> {
    let declared = spec::Declared::load()?;
    let mut problems = compare::names_against(&declared);
    let cfg = Config {
        seed: 1,
        seconds: 0.0,
        corpus: 1,
        sizes: Sizes::toy(),
    };
    let mut emitted = std::collections::BTreeSet::new();
    for workload in &workloads::ALL {
        for traced in [false, true] {
            let name = workload.name;
            let (report, _) = run_workload(workload, &cfg, traced);
            println!(
                "{name:<20} {} {:>3} metrics, {} attempted, {} failed{}",
                if traced { "traced  " } else { "untraced" },
                report.metrics.len(),
                report.attempted,
                report.failed,
                if report.correct() { "" } else { "  INCORRECT" }
            );
            for v in &report.violations {
                problems.push(format!("{name}: output check failed: {v}"));
            }
            if report.determinism_breaks > 0 {
                problems.push(format!(
                    "{name}: {} determinism break(s)",
                    report.determinism_breaks
                ));
            }
            if report.failed > 0 {
                problems.push(format!("{name}: {} failed operation(s)", report.failed));
            }
            for (metric, value) in &report.metrics {
                if !report::metrics_of(traced).iter().any(|m| m.name == metric) {
                    problems.push(format!("{name}: emits undeclared metric {metric}"));
                }
                if !value.is_finite() {
                    problems.push(format!("{name}: {metric} is not finite"));
                }
                emitted.insert(metric.as_str().to_string());
            }
        }
    }
    for m in spec::END_TO_END.iter().chain(&spec::PER_LAYER) {
        if !emitted.contains(m.name) {
            problems.push(format!("no workload emits {}", m.name));
        }
    }
    for p in &problems {
        eprintln!("check: {p}");
    }
    if problems.is_empty() {
        println!(
            "check OK: 6 workloads, {} end-to-end and {} per-layer metrics match BENCHMARK.json",
            spec::END_TO_END.len(),
            spec::PER_LAYER.len()
        );
    }
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let outcome =
        Args::parse(std::env::args().skip(1)).and_then(|args| match args.command.as_deref() {
            None => driver(&args),
            Some("all") => every_workload(&args, false),
            Some("trace") => every_workload(&args, true),
            Some("check") => check(),
            Some("compare") => match args.positional.as_slice() {
                [a, b] => compare::compare_files(a, b),
                _ => Err("usage: ssr-benchmark compare A.json B.json".to_string()),
            },
            Some(other) => Err(format!("unknown command {other}")),
        });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ssr-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
