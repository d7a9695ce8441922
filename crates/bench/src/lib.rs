//! The experiments that regenerate every figure and table of the
//! reproduction, as rows of one table behind one binary: `exp <name>
//! [flags]` (see DESIGN.md's experiment index).
//!
//! An experiment is a row of [`EXPERIMENTS`]: its name — which is also its
//! manifest stem, `results/<name>.manifest.json` — and a body. The
//! [`Shell`] owns what every experiment does the same way (start instant,
//! arguments, sweep matrix and fan-out, the results table, `--csv`, the
//! run manifest, the exit code); a body keeps what differs:
//! its matrix defaults, its cell function, its row renderer, its claim
//! text and its own flags. Cells that several experiments run live in
//! [`cells`].
//!
//! The shared command-line convention:
//!
//! * `--seeds K` — repetitions per sweep point (default per experiment),
//! * `--workers N` — sweep fan-out width (`0` = every hardware thread;
//!   default: cores minus one). Output bytes never depend on this — see
//!   docs/SWEEPS.md,
//! * `--matrix SPEC` — override the scenario × n × seed sweep dimensions
//!   (`scenario=a,b;n=50,100;seeds=4`; see
//!   [`ssr_workloads::Matrix::override_with`]),
//! * `--csv PATH` — additionally write the table as CSV,
//! * experiment-specific flags documented in each experiment's module
//!   and listed in its `FLAGS`.
//!
//! Each experiment has one size, its default matrix; any other `--name`
//! is rejected with exit code 2 before the body runs.

#![warn(missing_docs)]

pub mod cells;
pub mod figure;
mod shell;

pub use shell::Shell;

/// One experiment: the name it is invoked and recorded under, and the part
/// of it that is not the [`Shell`].
pub struct Experiment {
    /// `exp <name>`; also the manifest's `exp` field and file stem.
    pub name: &'static str,
    /// Everything specific to this experiment.
    pub body: fn(&mut Shell),
    /// The experiment's own flags (without `--`), beyond the shared ones.
    pub flags: &'static [&'static str],
}

/// The flags every experiment accepts (without `--`).
const SHARED_FLAGS: &[&str] = &["seeds", "workers", "matrix", "csv"];

impl Experiment {
    /// The first `--name` in `args` that is neither a shared flag nor one
    /// of this experiment's own.
    fn unknown_flag<'a>(&self, args: &'a [String]) -> Option<&'a str> {
        args.iter()
            .filter_map(|a| a.strip_prefix("--"))
            .find(|name| !SHARED_FLAGS.contains(name) && !self.flags.contains(name))
    }
}

/// Declares one module per experiment and the table over them, so a name
/// is spelled once: module, `exp <name>` and manifest stem cannot drift.
macro_rules! experiments {
    ($($name:ident),* $(,)?) => {
        $(pub mod $name;)*

        /// Every experiment, in DESIGN.md's index order (E1–E11).
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            body: $name::run,
            flags: $name::FLAGS,
        }),*];
    };
}

experiments![
    fig1_loopy,
    fig2_rings,
    fig3_trace,
    exp_convergence,
    exp_powerlaw,
    exp_flooding_cost,
    exp_routing,
    exp_churn,
    exp_state,
    exp_vrr_compare,
    exp_chaos,
];

/// Runs `exp <name> [flags]` for the given arguments (program name already
/// stripped) and returns the process exit code: 0, 1 when the body
/// recorded a failure, 2 for a missing or unknown experiment name or an
/// unknown flag.
pub fn run(argv: &[String]) -> i32 {
    let named = argv
        .first()
        .and_then(|name| EXPERIMENTS.iter().find(|e| e.name == name));
    let Some(exp) = named else {
        eprintln!("usage: exp <name> [flags]\nexperiments:");
        for e in EXPERIMENTS {
            eprintln!("  {}", e.name);
        }
        return 2;
    };
    if let Some(flag) = exp.unknown_flag(&argv[1..]) {
        let accepted: Vec<String> = SHARED_FLAGS
            .iter()
            .chain(exp.flags)
            .map(|f| format!("--{f}"))
            .collect();
        eprintln!(
            "exp {}: unknown flag '--{flag}' (accepted: {})",
            exp.name,
            accepted.join(", ")
        );
        return 2;
    }
    let mut shell = Shell::new(
        exp.name,
        Args {
            raw: argv[1..].to_vec(),
        },
    );
    (exp.body)(&mut shell);
    shell.finish(std::path::Path::new("results"))
}

/// Parsed command-line arguments (flag / key-value convention).
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Builds from an explicit list (tests).
    pub fn from(raw: &[&str]) -> Args {
        Args {
            raw: raw.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// `true` if `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        let want = format!("--{name}");
        self.raw.iter().any(|a| a == &want)
    }

    /// The value following `--name`, if the flag is present; an error when
    /// it is present without one (last argument, or followed by another
    /// `--flag`).
    pub fn try_opt(&self, name: &str) -> Result<Option<&str>, String> {
        let want = format!("--{name}");
        let Some(i) = self.raw.iter().position(|a| a == &want) else {
            return Ok(None);
        };
        match self.raw.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(format!("{want} needs a value")),
        }
    }

    /// The value following `--name`, if present. A flag without its value
    /// ends the process with exit code 2 — silently falling back to the
    /// default would run a different experiment than the one asked for.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.try_opt(name).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// Parses the value following `--name`.
    ///
    /// # Panics
    /// Panics with a readable message when the value does not parse.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.opt(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|e| panic!("--{name} {v}: {e:?}")),
        }
    }

    /// CSV output path, if requested.
    pub fn csv(&self) -> Option<&str> {
        self.opt("csv")
    }

    /// Sweep fan-out width: `--workers N`, where `0` means every hardware
    /// thread; defaults to cores minus one. Worker count affects wall
    /// time only — never output bytes (docs/SWEEPS.md).
    pub fn workers(&self) -> usize {
        match self.get("workers", ssr_workloads::default_workers()) {
            0 => ssr_workloads::orchestrator::max_workers(),
            k => k,
        }
    }
}

/// Formats a large count with thousands separators for readability.
pub fn fmt_count(x: u64) -> String {
    let s = x.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_and_options() {
        let a = Args::from(&["--no-ccw", "--seeds", "5", "--csv", "/tmp/x.csv"]);
        assert!(a.flag("no-ccw"));
        assert!(!a.flag("missing"));
        assert_eq!(a.get("seeds", 10usize), 5);
        assert_eq!(a.get("other", 7u64), 7);
        assert_eq!(a.csv(), Some("/tmp/x.csv"));
        // a flag without its value is an error, not the default
        for raw in [&["--no-ccw", "--csv"][..], &["--csv", "--no-ccw"][..]] {
            assert_eq!(
                Args::from(raw).try_opt("csv"),
                Err("--csv needs a value".to_string())
            );
        }
        assert_eq!(a.try_opt("out"), Ok(None));
        // a missing or unknown experiment name is exit code 2
        assert_eq!(run(&[]), 2);
        assert_eq!(run(&["exp_nope".to_string()]), 2);
    }

    #[test]
    fn experiment_names_are_unique_and_each_has_a_golden() {
        let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden");
        let stems: Vec<String> = std::fs::read_dir(&golden)
            .expect("results/golden exists")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|other| other.name != e.name),
                "{} is listed twice",
                e.name
            );
            let manifest = format!("{}.manifest.json", e.name);
            assert!(
                stems.contains(&manifest),
                "{} has no golden results/golden/{manifest}",
                e.name
            );
        }
    }

    #[test]
    fn manifest_prefills_shared_config() {
        let a = Args::from(&["--seeds", "5"]);
        let mut sh = Shell::new("exp_x", a);
        sh.timeline(&[ssr_core::ConvergencePoint {
            tick: 4,
            shape: ssr_core::consistency::RingShape::Loopy(2),
            locally_consistent: 3,
            nodes: 8,
            succ_churn: 1,
        }]);
        let v = ssr_obs::parse(&sh.man.to_json()).unwrap();
        let config = v.get("config").unwrap();
        assert_eq!(config.get("seeds").unwrap().as_str(), Some("5"));
        let tl = v.get("timeline").unwrap().as_arr().unwrap();
        assert_eq!(tl[0].get("shape").unwrap().as_str(), Some("loopy(2)"));
        assert_eq!(tl[0].get("churn").unwrap().as_u64(), Some(1));
    }

    fn named(name: &str) -> &'static Experiment {
        EXPERIMENTS.iter().find(|e| e.name == name).unwrap()
    }

    #[test]
    fn unknown_flags_are_exit_2_before_the_body_runs() {
        let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // the removed size flags and a typo of --no-ccw
        for e in EXPERIMENTS {
            for removed in ["quick", "smoke"] {
                let flag = format!("--{removed}");
                assert_eq!(e.unknown_flag(&argv(&[&flag])), Some(removed));
                assert_eq!(run(&argv(&[e.name, "--seeds", "1", &flag])), 2);
            }
        }
        let flooding = named("exp_flooding_cost");
        assert_eq!(flooding.unknown_flag(&argv(&["--no-cww"])), Some("no-cww"));
        assert_eq!(flooding.unknown_flag(&argv(&["--no-ccw"])), None);
        assert_eq!(run(&argv(&["exp_churn", "--bogus-flag", "--no-cww"])), 2);
        // the narrowing sugar exp_chaos had: --matrix is the one way now
        let chaos = named("exp_chaos");
        for gone in ["only", "freeze-window"] {
            assert_eq!(
                chaos.unknown_flag(&argv(&[&format!("--{gone}"), "9"])),
                Some(gone)
            );
        }
        // values are not flags, and the shared flags go everywhere
        let shared = argv(&[
            "--seeds",
            "2",
            "--workers",
            "0",
            "--matrix",
            "n=16",
            "--csv",
            "t",
        ]);
        assert!(EXPERIMENTS
            .iter()
            .all(|e| e.unknown_flag(&shared).is_none()));
    }

    /// Every `exp <name> --flag …` invocation in the scripts, `ci.sh` and
    /// the justfile passes only flags that experiment accepts.
    #[test]
    fn every_flag_a_script_passes_is_accepted() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = vec![root.join("ci.sh"), root.join("justfile")];
        for entry in std::fs::read_dir(root.join("scripts")).expect("scripts/ exists") {
            files.push(entry.unwrap().path());
        }
        let mut passed = Vec::new();
        for file in &files {
            let text = std::fs::read_to_string(file).unwrap();
            let command = |l: &&str| !l.trim_start().starts_with('#') && !l.contains("echo ");
            for line in text.lines().filter(command) {
                let mut tokens = line.split_whitespace().map(|t| t.trim_matches('"'));
                let Some(name) = tokens.find(|t| EXPERIMENTS.iter().any(|e| e.name == *t)) else {
                    continue;
                };
                let args: Vec<String> = tokens
                    .take_while(|t| !["&&", "||", "|", ";", ">"].contains(t))
                    .map(str::to_string)
                    .collect();
                if let Some(flag) = named(name).unknown_flag(&args) {
                    panic!("{}: `{line}` passes --{flag}", file.display());
                }
                passed.extend(args.into_iter().filter(|a| a.starts_with("--")));
            }
        }
        // the scan sees the invocations it is meant to check
        for flag in [
            "--no-ccw",
            "--keep-edges",
            "--semantics",
            "--trace-jsonl",
            "--matrix",
        ] {
            assert!(passed.iter().any(|p| p == flag), "no script passes {flag}");
        }
    }

    #[test]
    fn workers_flag() {
        assert_eq!(Args::from(&["--workers", "4"]).workers(), 4);
        assert!(Args::from(&[]).workers() >= 1);
        // 0 = every hardware thread
        assert!(Args::from(&["--workers", "0"]).workers() >= 1);
    }

    #[test]
    fn resolve_matrix_records_dimensions_but_never_workers() {
        let a = Args::from(&[
            "--seeds",
            "5",
            "--csv",
            "t.csv",
            "--matrix",
            "n=64;seeds=2",
            "--workers",
            "8",
        ]);
        let mut sh = Shell::new("exp_x", a);
        let m = sh.matrix(ssr_workloads::Matrix::new(["s"], vec![16], 3));
        assert_eq!(m.sizes, vec![64]);
        assert_eq!(m.seeds, vec![0, 1]);
        let json = sh.man.to_json();
        let v = ssr_obs::parse(&json).unwrap();
        // exactly the shared config keys, in this order
        let ssr_obs::Value::Obj(config) = v.get("config").unwrap() else {
            panic!("config is not an object");
        };
        let keys: Vec<&str> = config.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["seeds", "csv", "matrix"]);
        assert_eq!(config[2].1.as_str(), Some("scenario=s;n=64;seed=0,1"));
        // byte-identity across --workers: the pool size must not leak in
        assert!(!json.contains("workers"));
    }

    #[test]
    fn a_recorded_failure_exits_1_after_table_csv_and_manifest_are_written() {
        let dir = std::env::temp_dir().join(format!("ssr-bench-shell-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("t.csv");
        let mut sh = Shell::new("exp_x", Args::from(&["--csv", csv.to_str().unwrap()]));
        sh.table("T", &["n"]);
        sh.row(&["1".to_string()]);
        sh.fail("claim violated");
        assert_eq!(sh.finish(&dir), 1);
        assert_eq!(std::fs::read_to_string(&csv).unwrap(), "n\n1\n");
        let man = std::fs::read_to_string(dir.join("exp_x.manifest.json")).unwrap();
        assert!(man.contains("\"exp\": \"exp_x\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fmt_count_groups() {
        assert_eq!(fmt_count(1), "1");
        assert_eq!(fmt_count(1234), "1_234");
        assert_eq!(fmt_count(1234567), "1_234_567");
    }
}
