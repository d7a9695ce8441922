//! The `obs` CLI: summarize a manifest, diff two manifests,
//! pretty-print/filter a JSONL trace, or profile causal provenance
//! (`flame`, `top`, `causes` — see docs/PROFILING.md).

use std::process::ExitCode;

use ssr_obs::report::{causes, diff, flame, format_trace_line, summarize, top, TraceFilter};
use ssr_obs::{parse, Value};

const USAGE: &str = "\
usage:
  obs summarize <manifest.json>
  obs diff <a.manifest.json> <b.manifest.json>
  obs trace <trace.jsonl> [--ev EV] [--kind KIND] [--node N] [--since T] [--until T]
  obs causes <trace.jsonl> <event-id> [--ev EV] [--kind KIND] [--node N] ...
  obs flame <manifest.json>
  obs top <manifest.json> [--limit N]

subcommands:
  summarize   one-screen view of a run manifest (counters, histogram
              percentiles, condensed convergence timeline)
  diff        counter deltas, histogram percentile shifts, and
              convergence-time regressions between two manifests, and
              every changed leaf of their extra sections
  trace       human-readable, filterable view of a JSONL trace file
  causes      walk the causal chain of one trace event (by pid) from its
              bootstrap/fault root; shares the trace filter flags
  flame       folded stacks (cause;kind;depth count) from a manifest's
              provenance section, ready for flamegraph.pl / inferno
  top         rank cause classes, message kinds, and hot nodes by
              delivered/sent/wasted messages
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("obs: {msg}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Runs a subcommand and returns its report.
fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("summarize") => {
            let path = args.get(1).ok_or("summarize needs a manifest path")?;
            Ok(summarize(&load_json(path)?))
        }
        Some("diff") => {
            let a = args.get(1).ok_or("diff needs two manifest paths")?;
            let b = args.get(2).ok_or("diff needs two manifest paths")?;
            if let Some(other) = args.get(3) {
                return Err(format!("unknown flag '{other}'"));
            }
            Ok(diff(&load_json(a)?, &load_json(b)?))
        }
        Some("trace") => {
            let path = args.get(1).ok_or("trace needs a JSONL path")?;
            let filter = trace_filter(&args[2..])?;
            trace_report(path, &filter)
        }
        Some("causes") => {
            let path = args.get(1).ok_or("causes needs a JSONL path")?;
            let pid = args
                .get(2)
                .ok_or("causes needs an event id (the pid from obs trace)")?;
            let pid: u64 = pid.parse().map_err(|e| format!("event id {pid}: {e}"))?;
            let filter = trace_filter(&args[3..])?;
            let records = load_jsonl(path)?;
            causes(&records, pid, &filter)
        }
        Some("flame") => {
            let path = args.get(1).ok_or("flame needs a manifest path")?;
            flame(&load_json(path)?)
        }
        Some("top") => {
            let path = args.get(1).ok_or("top needs a manifest path")?;
            let limit = top_limit(&args[2..])?;
            top(&load_json(path)?, limit)
        }
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
        let all = run(&["trace".into(), trace_path.display().to_string()]).unwrap();
        assert!(all.contains("2 of 2"));
        let sends = run(&[
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
        let s = run(&["summarize".into(), man_path.display().to_string()]).unwrap();
        assert!(s.contains("cli_test"));
        let d = run(&[
            "diff".into(),
            man_path.display().to_string(),
            man_path.display().to_string(),
        ])
        .unwrap();
        assert!(d.contains("no differences"));
    }

    #[test]
    fn perf_diff_over_files_sets_exit_status() {
        // Old perf-baseline files have no mode of their own any more: they
        // diff as manifests without counters, histograms or extras, so a
        // slower run is no difference and no failure (`run` returning `Ok`
        // is exit status 0).
        let dir = std::env::temp_dir().join("ssr_obs_cli_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mk = |name: &str, ns: f64| {
            let path = dir.join(name);
            std::fs::write(
                &path,
                format!(
                    "{{\"schema\":\"ssr-bench-perf/1\",\"git\":\"x\",\"seed\":1,\
                     \"scenarios\":[{{\"name\":\"s\",\"ops\":1,\"ns_per_op\":{ns}}}]}}"
                ),
            )
            .unwrap();
            path.display().to_string()
        };
        let a = mk("a.json", 1000.0);
        let b = mk("b.json", 1500.0);
        let report = run(&["diff".into(), a.clone(), b.clone()]).unwrap();
        assert!(report.contains("no differences"), "{report}");
        // flags and subcommands obs does not know are errors (exit status 2),
        // not ignored
        let err = run(&[
            "diff".into(),
            a.clone(),
            b,
            "--threshold".into(),
            "5".into(),
        ])
        .unwrap_err();
        assert_eq!(err, "unknown flag '--threshold'");
        let err = run(&["history".into(), a]).unwrap_err();
        assert_eq!(err, "unknown subcommand 'history'");
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
        let chain = run(&[
            "causes".into(),
            trace_path.display().to_string(),
            "2".into(),
        ])
        .unwrap();
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
}
