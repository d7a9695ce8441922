//! The `obs` CLI: summarize a manifest, diff two manifests,
//! pretty-print/filter a JSONL trace, profile causal provenance
//! (`flame`, `top`, `causes` — see docs/PROFILING.md), or turn a perf
//! baseline into `BENCH_history.jsonl` lines (`history`).

use std::process::ExitCode;

use ssr_obs::report::{
    causes, check_history, diff, diff_perf, flame, format_trace_line, history_lines,
    is_perf_baseline, summarize, top, TraceFilter,
};
use ssr_obs::{parse, Value};

const USAGE: &str = "\
usage:
  obs summarize <manifest.json>
  obs diff <a.manifest.json> <b.manifest.json>
  obs diff <a.BENCH_perf.json> <b.BENCH_perf.json> [--threshold PCT]
  obs trace <trace.jsonl> [--ev EV] [--kind KIND] [--node N] [--since T] [--until T]
  obs causes <trace.jsonl> <event-id> [--ev EV] [--kind KIND] [--node N] ...
  obs flame <manifest.json>
  obs top <manifest.json> [--limit N]
  obs history <BENCH_perf.json>
  obs history --check <BENCH_history.jsonl>

subcommands:
  summarize   one-screen view of a run manifest (counters, histogram
              percentiles, condensed convergence timeline)
  diff        counter deltas, histogram percentile shifts, and
              convergence-time regressions between two manifests; when
              both files are perf baselines (exp_perf output, any
              ssr-bench-perf schema), compares per-scenario timing and
              work counters instead and exits non-zero on regressions
              beyond --threshold (default 10)
  trace       human-readable, filterable view of a JSONL trace file
  causes      walk the causal chain of one trace event (by pid) from its
              bootstrap/fault root; shares the trace filter flags
  flame       folded stacks (cause;kind;depth count) from a manifest's
              provenance section, ready for flamegraph.pl / inferno
  top         rank cause classes, message kinds, and hot nodes by
              delivered/sent/wasted messages
  history     one BENCH_history.jsonl line per scenario of a perf baseline
              (git, scenario, ns_per_op, deliveries_per_run), to append;
              --check validates a history file instead
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok((text, ok)) => {
            print!("{text}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("obs: {msg}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Runs a subcommand; `Ok((report, ok))` where `ok = false` means the
/// report was produced but the process should exit non-zero (a flagged
/// perf regression).
fn run(args: &[String]) -> Result<(String, bool), String> {
    match args.first().map(String::as_str) {
        Some("summarize") => {
            let path = args.get(1).ok_or("summarize needs a manifest path")?;
            Ok((summarize(&load_json(path)?), true))
        }
        Some("diff") => {
            let a = args.get(1).ok_or("diff needs two manifest paths")?;
            let b = args.get(2).ok_or("diff needs two manifest paths")?;
            let threshold = diff_threshold(&args[3..])?;
            let (va, vb) = (load_json(a)?, load_json(b)?);
            match (is_perf_baseline(&va), is_perf_baseline(&vb)) {
                (true, true) => {
                    let (report, regressed) = diff_perf(&va, &vb, threshold.unwrap_or(10.0));
                    Ok((report, !regressed))
                }
                (false, false) => {
                    if threshold.is_some() {
                        return Err("--threshold only applies to perf baselines".into());
                    }
                    Ok((diff(&va, &vb), true))
                }
                _ => Err(format!(
                    "cannot diff a perf baseline against a run manifest ({a} vs {b})"
                )),
            }
        }
        Some("trace") => {
            let path = args.get(1).ok_or("trace needs a JSONL path")?;
            let filter = trace_filter(&args[2..])?;
            Ok((trace_report(path, &filter)?, true))
        }
        Some("causes") => {
            let path = args.get(1).ok_or("causes needs a JSONL path")?;
            let pid = args
                .get(2)
                .ok_or("causes needs an event id (the pid from obs trace)")?;
            let pid: u64 = pid.parse().map_err(|e| format!("event id {pid}: {e}"))?;
            let filter = trace_filter(&args[3..])?;
            let records = load_jsonl(path)?;
            Ok((causes(&records, pid, &filter)?, true))
        }
        Some("flame") => {
            let path = args.get(1).ok_or("flame needs a manifest path")?;
            Ok((flame(&load_json(path)?)?, true))
        }
        Some("top") => {
            let path = args.get(1).ok_or("top needs a manifest path")?;
            let limit = top_limit(&args[2..])?;
            Ok((top(&load_json(path)?, limit)?, true))
        }
        Some("history") => match args.get(1).map(String::as_str) {
            Some("--check") => {
                let path = args.get(2).ok_or("history --check needs a JSONL path")?;
                let checked = check_history(&load_jsonl(path)?);
                Ok((checked.map_err(|e| format!("{path}: {e}"))?, true))
            }
            Some(path) => Ok((history_lines(&load_json(path)?)?, true)),
            None => Err("history needs a perf baseline path".into()),
        },
        Some(other) => Err(format!("unknown subcommand '{other}'")),
        None => Err("no subcommand".to_string()),
    }
}

/// Parses the optional `--limit N` tail of `obs top` (default 10).
fn top_limit(rest: &[String]) -> Result<usize, String> {
    match rest.first().map(String::as_str) {
        None => Ok(10),
        Some("--limit") => {
            let v = rest.get(1).ok_or("--limit needs a value")?;
            let n: usize = v.parse().map_err(|e| format!("--limit {v}: {e}"))?;
            if n == 0 {
                return Err("--limit must be at least 1".into());
            }
            Ok(n)
        }
        Some(other) => Err(format!("unknown flag '{other}'")),
    }
}

/// Parses the optional `--threshold PCT` tail of `obs diff`.
fn diff_threshold(rest: &[String]) -> Result<Option<f64>, String> {
    match rest.first().map(String::as_str) {
        None => Ok(None),
        Some("--threshold") => {
            let v = rest.get(1).ok_or("--threshold needs a value")?;
            let pct: f64 = v.parse().map_err(|e| format!("--threshold {v}: {e}"))?;
            if !pct.is_finite() || pct < 0.0 {
                return Err(format!("--threshold {v}: must be a non-negative percent"));
            }
            Ok(Some(pct))
        }
        Some(other) => Err(format!("unknown flag '{other}'")),
    }
}

fn load_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Loads a JSONL trace as one record per non-empty line.
fn load_jsonl(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(lineno, l)| parse(l).map_err(|e| format!("{path}:{}: {e}", lineno + 1)))
        .collect()
}

fn trace_filter(rest: &[String]) -> Result<TraceFilter, String> {
    let mut filter = TraceFilter::default();
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        let value = rest
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let parse_u64 = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag {
            "--ev" => filter.ev = Some(value.clone()),
            "--kind" => filter.kind = Some(value.clone()),
            "--node" => filter.node = Some(parse_u64(value)?),
            "--since" => filter.since = Some(parse_u64(value)?),
            "--until" => filter.until = Some(parse_u64(value)?),
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    Ok(filter)
}

fn trace_report(path: &str, filter: &TraceFilter) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = String::new();
    let mut shown = 0usize;
    let mut total = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        total += 1;
        let rec = parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        if filter.matches(&rec) {
            out.push_str(&format_trace_line(&rec));
            out.push('\n');
            shown += 1;
        }
    }
    out.push_str(&format!("({shown} of {total} events shown)\n"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_errors() {
        assert!(run(&[]).is_err());
        assert!(run(&["bogus".into()]).is_err());
        assert!(run(&["summarize".into()]).is_err());
        assert!(run(&["diff".into(), "only-one".into()]).is_err());
    }

    #[test]
    fn trace_flags_parse() {
        let f = trace_filter(&[
            "--ev".into(),
            "send".into(),
            "--kind".into(),
            "notify".into(),
            "--node".into(),
            "3".into(),
            "--since".into(),
            "10".into(),
            "--until".into(),
            "20".into(),
        ])
        .unwrap();
        assert_eq!(f.ev.as_deref(), Some("send"));
        assert_eq!(f.kind.as_deref(), Some("notify"));
        assert_eq!(f.node, Some(3));
        assert_eq!(f.since, Some(10));
        assert_eq!(f.until, Some(20));
        assert!(trace_filter(&["--ev".into()]).is_err());
        assert!(trace_filter(&["--wat".into(), "1".into()]).is_err());
        assert_eq!(top_limit(&[]).unwrap(), 10);
        assert_eq!(top_limit(&["--limit".into(), "3".into()]).unwrap(), 3);
        assert!(top_limit(&["--limit".into(), "0".into()]).is_err());
        assert!(top_limit(&["--wat".into()]).is_err());
    }

    #[test]
    fn end_to_end_over_files() {
        let dir = std::env::temp_dir().join("ssr_obs_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.jsonl");
        std::fs::write(
            &trace_path,
            "{\"ev\":\"send\",\"at\":1,\"from\":0,\"to\":1,\"kind\":\"notify\"}\n\
             {\"ev\":\"lost\",\"at\":2,\"from\":0,\"to\":1,\"reason\":\"link-drop\"}\n",
        )
        .unwrap();
        let (all, _) = run(&["trace".into(), trace_path.display().to_string()]).unwrap();
        assert!(all.contains("2 of 2"));
        let (sends, _) = run(&[
            "trace".into(),
            trace_path.display().to_string(),
            "--ev".into(),
            "send".into(),
        ])
        .unwrap();
        assert!(sends.contains("1 of 2"));
        assert!(!sends.contains("link-drop"));

        let mut man = ssr_obs::Manifest::new("cli_test");
        man.seed(3);
        let man_path = dir.join("m.json");
        man.write_to(&man_path).unwrap();
        let (s, _) = run(&["summarize".into(), man_path.display().to_string()]).unwrap();
        assert!(s.contains("cli_test"));
        let (d, ok) = run(&[
            "diff".into(),
            man_path.display().to_string(),
            man_path.display().to_string(),
        ])
        .unwrap();
        assert!(d.contains("no differences"));
        assert!(ok);
        // --threshold is a perf-baseline flag
        assert!(run(&[
            "diff".into(),
            man_path.display().to_string(),
            man_path.display().to_string(),
            "--threshold".into(),
            "5".into(),
        ])
        .is_err());
    }

    #[test]
    fn provenance_subcommands_over_files() {
        let dir = std::env::temp_dir().join("ssr_obs_cli_prov_test");
        std::fs::create_dir_all(&dir).unwrap();
        // a two-link trace with provenance fields
        let trace_path = dir.join("t.jsonl");
        std::fs::write(
            &trace_path,
            "{\"ev\":\"send\",\"at\":0,\"from\":0,\"to\":1,\"kind\":\"hello\",\
             \"pid\":1,\"depth\":0,\"cause\":\"bootstrap\"}\n\
             {\"ev\":\"deliver\",\"at\":2,\"from\":0,\"to\":1,\"kind\":\"hello\",\
             \"pid\":1,\"depth\":0,\"cause\":\"bootstrap\"}\n\
             {\"ev\":\"send\",\"at\":2,\"from\":1,\"to\":2,\"kind\":\"notify\",\
             \"pid\":2,\"parent\":1,\"depth\":1,\"cause\":\"linearization-step\"}\n",
        )
        .unwrap();
        let (chain, ok) = run(&[
            "causes".into(),
            trace_path.display().to_string(),
            "2".into(),
        ])
        .unwrap();
        assert!(ok);
        assert!(chain.contains("causal chain for event 2"), "{chain}");
        assert!(chain.contains("kind=hello"), "{chain}");
        assert!(run(&[
            "causes".into(),
            trace_path.display().to_string(),
            "99".into(),
        ])
        .is_err());
        assert!(run(&["causes".into(), trace_path.display().to_string()]).is_err());
        // a manifest without provenance gives a friendly flame/top error
        let man_path = dir.join("m.json");
        ssr_obs::Manifest::new("cli_test")
            .write_to(&man_path)
            .unwrap();
        let err = run(&["flame".into(), man_path.display().to_string()]).unwrap_err();
        assert!(err.contains("no provenance section"), "{err}");
        let err = run(&["top".into(), man_path.display().to_string()]).unwrap_err();
        assert!(err.contains("no provenance section"), "{err}");
    }

    #[test]
    fn perf_diff_over_files_sets_exit_status() {
        let dir = std::env::temp_dir().join("ssr_obs_cli_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mk = |name: &str, ns: f64| {
            let path = dir.join(name);
            std::fs::write(
                &path,
                format!(
                    "{{\"schema\":\"ssr-bench-perf/1\",\"git\":\"x\",\"seed\":1,\
                     \"scenarios\":[{{\"name\":\"s\",\"ops\":1,\"ns_per_op\":{ns},\
                     \"ticks\":1,\"messages_delivered\":1,\"node_activations\":1,\
                     \"peak_queue_depth\":1}}]}}"
                ),
            )
            .unwrap();
            path.display().to_string()
        };
        let a = mk("a.json", 1000.0);
        let b = mk("b.json", 1500.0);
        let (report, ok) = run(&["diff".into(), a.clone(), b.clone()]).unwrap();
        assert!(!ok, "{report}");
        assert!(report.contains("** regression **"), "{report}");
        // a generous threshold clears it
        let (report, ok) = run(&[
            "diff".into(),
            a.clone(),
            b,
            "--threshold".into(),
            "60".into(),
        ])
        .unwrap();
        assert!(ok, "{report}");
        // perf baseline vs plain manifest is an error
        let man_path = dir.join("m.json");
        let man = ssr_obs::Manifest::new("cli_test");
        man.write_to(&man_path).unwrap();
        assert!(run(&["diff".into(), a, man_path.display().to_string()]).is_err());
        assert!(diff_threshold(&["--threshold".into(), "-3".into()]).is_err());
        assert!(diff_threshold(&["--threshold".into()]).is_err());
        assert!(diff_threshold(&["--wat".into()]).is_err());
    }
}
