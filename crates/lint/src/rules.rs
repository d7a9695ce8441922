//! The lint rules.
//!
//! Each rule is a pass over the token stream of one file (plus one
//! workspace-level pass for crate attributes). The rules encode invariants
//! that `clippy` cannot express because they are *this workspace's* policy,
//! not general Rust hygiene:
//!
//! * [`determinism-collections`](RULE_COLLECTIONS) — protocol/sim state
//!   crates must not use `std::collections::HashMap`/`HashSet`: their
//!   iteration order is randomized per process, so any map whose order can
//!   leak into messages, metrics, or traces silently breaks the
//!   byte-identical same-seed guarantee the chaos and obs gates rely on.
//! * [`determinism-time`](RULE_TIME) — no wall clocks, OS entropy, or
//!   threads outside the sanctioned infrastructure, and no environment
//!   variables in protocol crates: simulated time is the only clock a
//!   protocol may read, and (config, seed) its only input.
//! * [`metric-registry`](RULE_METRICS) — every metric-key literal must
//!   resolve against [`ssr_sim::registry`], so a typo'd name fails CI
//!   instead of forking a series.
//! * [`match-wildcard`](RULE_WILDCARD) — protocol handler matches over
//!   message enums must stay exhaustive: a `_ =>` arm would silently
//!   swallow newly added message variants.
//! * [`forbid-unsafe`](RULE_UNSAFE) — protocol crates must carry
//!   `#![forbid(unsafe_code)]`.

use crate::lexer::{lex, Tok, Token};

/// Rule id: forbidden hash collections in protocol crates.
pub const RULE_COLLECTIONS: &str = "determinism-collections";
/// Rule id: wall clock / OS entropy / threads outside the allowlist, or an
/// environment read in a protocol crate.
pub const RULE_TIME: &str = "determinism-time";
/// Rule id: metric-key literal not in the canonical registry.
pub const RULE_METRICS: &str = "metric-registry";
/// Rule id: wildcard arm in a message-enum handler match.
pub const RULE_WILDCARD: &str = "match-wildcard";
/// Rule id: missing `#![forbid(unsafe_code)]` crate attribute.
pub const RULE_UNSAFE: &str = "forbid-unsafe";

/// Crates holding protocol or simulator state: any iteration-order leak
/// here can reach messages, metrics, or traces.
pub const PROTOCOL_CRATES: &[&str] = &["core", "graph", "linearize", "sim", "types", "vrr"];

/// Crates that must carry `#![forbid(unsafe_code)]`.
pub const FORBID_UNSAFE_CRATES: &[&str] = &[
    "core",
    "graph",
    "linearize",
    "sim",
    "types",
    "vrr",
    "workloads",
];

/// Crates exempt from [`RULE_TIME`]: the criterion stand-in exists to read
/// the wall clock, and the obs tooling reports real elapsed time.
pub const TIME_ALLOWED_CRATES: &[&str] = &["criterion", "obs"];

/// Files allowed to use `std::thread`: the sweep orchestrator is the one
/// sanctioned thread user in the workspace — it fans independent
/// simulations out over scoped workers and collects results by job index,
/// so scheduling never reaches the output bytes (docs/SWEEPS.md). Wall
/// clocks and OS entropy stay banned even here.
pub const THREAD_ALLOWED_FILES: &[&str] = &["crates/workloads/src/orchestrator.rs"];

/// Files whose `match` expressions over message enums must be exhaustive
/// (the protocol message handlers, and the control core they drive).
pub const HANDLER_FILES: &[&str] = &[
    "crates/core/src/isprp.rs",
    "crates/core/src/node.rs",
    "crates/linearize/src/control.rs",
    "crates/vrr/src/bootstrap.rs",
    "crates/vrr/src/node.rs",
];

/// The message enums whose variants a handler match must enumerate — plus
/// the control core's input/effect vocabulary (`ssr_linearize::control`),
/// so no protocol adapter can swallow an effect it was asked to carry out.
pub const MESSAGE_ENUMS: &[&str] = &[
    "Effect",
    "Input",
    "Payload",
    "PathPayload",
    "RoutedPayload",
    "SsrMsg",
    "Timer",
    "VrrMsg",
    "WrapVerdict",
];

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (one of the `RULE_*` ids).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The offending symbol or key — stable across line drift, used for
    /// baseline matching.
    pub symbol: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// `file:line rule symbol — message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{} {} `{}` — {}",
            self.file, self.line, self.rule, self.symbol, self.message
        )
    }
}

/// One source file, lexed and annotated for analysis.
pub struct LexedFile {
    /// Crate directory name (`core`, `vrr`, …; `integration-tests` for the
    /// workspace-level test package).
    pub crate_name: String,
    /// Workspace-relative path.
    pub rel_path: String,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Half-open token-index ranges covered by `#[cfg(test)]` items.
    pub test_spans: Vec<(usize, usize)>,
}

impl LexedFile {
    /// Lexes `text` and computes its `#[cfg(test)]` spans.
    pub fn new(crate_name: &str, rel_path: &str, text: &str) -> Self {
        let tokens = lex(text);
        let test_spans = find_test_spans(&tokens);
        LexedFile {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            tokens,
            test_spans,
        }
    }

    fn in_test(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= idx && idx < b)
    }
}

/// Runs every rule over the given files and returns the findings sorted by
/// (file, line, rule).
pub fn analyze(files: &[LexedFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        check_collections(f, &mut findings);
        check_time(f, &mut findings);
        check_metrics(f, &mut findings);
        check_wildcard(f, &mut findings);
    }
    check_forbid_unsafe(files, &mut findings);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// `a :: b` starting at `i`.
fn path2_at(tokens: &[Token], i: usize, a: &str, b: &str) -> bool {
    ident_at(tokens, i) == Some(a)
        && punct_at(tokens, i + 1, ':')
        && punct_at(tokens, i + 2, ':')
        && ident_at(tokens, i + 3) == Some(b)
}

/// Index of the `}` matching the `{` at `open` (or the end of the stream).
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    debug_assert!(punct_at(tokens, open, '{'));
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

/// Token-index spans of items annotated `#[cfg(test)]` (test modules and
/// functions). Rule passes that only apply to production code skip these.
fn find_test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    let mut pending_test_attr = false;
    while i < tokens.len() {
        if punct_at(tokens, i, '#') && punct_at(tokens, i + 1, '[') {
            // scan the attribute to its matching `]`
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut is_test = false;
            while j < tokens.len() {
                match &tokens[j].tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    // `cfg(test` — adjacency keeps `cfg(not(test))` live
                    Tok::Ident(s)
                        if s == "cfg"
                            && punct_at(tokens, j + 1, '(')
                            && ident_at(tokens, j + 2) == Some("test") =>
                    {
                        is_test = true;
                    }
                    // plain `#[test]` functions
                    Tok::Ident(s) if s == "test" && j == i + 2 && punct_at(tokens, j + 1, ']') => {
                        is_test = true;
                    }
                    _ => {}
                }
                j += 1;
            }
            if is_test {
                pending_test_attr = true;
            }
            i = j + 1;
            continue;
        }
        if pending_test_attr {
            // the annotated item runs to the end of its first brace block
            let mut j = i;
            while j < tokens.len() && !punct_at(tokens, j, '{') {
                j += 1;
            }
            let end = if j < tokens.len() {
                matching_brace(tokens, j) + 1
            } else {
                tokens.len()
            };
            spans.push((i, end));
            pending_test_attr = false;
            i = end;
            continue;
        }
        i += 1;
    }
    spans
}

// ---------------------------------------------------------------------------
// determinism-collections
// ---------------------------------------------------------------------------

fn check_collections(f: &LexedFile, out: &mut Vec<Finding>) {
    if !PROTOCOL_CRATES.contains(&f.crate_name.as_str()) {
        return;
    }
    for t in &f.tokens {
        if let Tok::Ident(s) = &t.tok {
            if s == "HashMap" || s == "HashSet" {
                out.push(Finding {
                    rule: RULE_COLLECTIONS,
                    file: f.rel_path.clone(),
                    line: t.line,
                    symbol: s.clone(),
                    message: format!(
                        "std::collections::{s} has per-process-randomized iteration \
                         order; use BTreeMap/BTreeSet so protocol state, metrics, and \
                         traces stay a deterministic function of (config, seed)"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// determinism-time
// ---------------------------------------------------------------------------

fn check_time(f: &LexedFile, out: &mut Vec<Finding>) {
    if TIME_ALLOWED_CRATES.contains(&f.crate_name.as_str()) {
        return;
    }
    let toks = &f.tokens;
    let protocol = PROTOCOL_CRATES.contains(&f.crate_name.as_str());
    for i in 0..toks.len() {
        let (symbol, what): (&str, &str) = if path2_at(toks, i, "Instant", "now") {
            ("Instant::now", "wall-clock reads")
        } else if path2_at(toks, i, "SystemTime", "now") {
            ("SystemTime::now", "wall-clock reads")
        } else if ident_at(toks, i) == Some("thread_rng") {
            ("thread_rng", "OS entropy")
        } else if path2_at(toks, i, "std", "thread") {
            if THREAD_ALLOWED_FILES.contains(&f.rel_path.as_str()) {
                continue;
            }
            ("std::thread", "threads")
        } else if protocol && path2_at(toks, i, "env", "var") {
            ("env::var", "environment reads")
        } else if protocol && path2_at(toks, i, "env", "var_os") {
            ("env::var_os", "environment reads")
        } else {
            continue;
        };
        out.push(Finding {
            rule: RULE_TIME,
            file: f.rel_path.clone(),
            line: toks[i].line,
            symbol: symbol.to_string(),
            message: format!(
                "{what} make runs irreproducible; simulated time (ssr_sim::Time), the \
                 seeded ssr_types::Rng and the explicit config are the only \
                 clocks/entropy/inputs protocols may use (sanctioned uses go in \
                 lint-baseline.json)"
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// metric-registry
// ---------------------------------------------------------------------------

/// Metrics APIs taking a full key as their first string argument.
const KEY_APIS: &[&str] = &[
    "add",
    "counter",
    "gauge",
    "hist",
    "incr",
    "observe",
    "observe_hist",
];

/// Metrics APIs taking a key *prefix*.
const PREFIX_APIS: &[&str] = &["counter_sum"];

fn check_metrics(f: &LexedFile, out: &mut Vec<Finding>) {
    let toks = &f.tokens;
    for i in 0..toks.len() {
        // pattern: `. api ( "literal"`
        if !punct_at(toks, i, '.') {
            continue;
        }
        let Some(api) = ident_at(toks, i + 1) else {
            continue;
        };
        let is_key = KEY_APIS.contains(&api);
        let is_prefix = PREFIX_APIS.contains(&api);
        if !is_key && !is_prefix {
            continue;
        }
        if !punct_at(toks, i + 2, '(') {
            continue;
        }
        let Some(Tok::Str(key)) = toks.get(i + 3).map(|t| &t.tok) else {
            continue;
        };
        if f.in_test(i) {
            continue;
        }
        let ok = if is_key {
            ssr_sim::registry::is_canonical_key(key)
        } else {
            ssr_sim::registry::is_canonical_prefix(key)
        };
        if !ok {
            out.push(Finding {
                rule: RULE_METRICS,
                file: f.rel_path.clone(),
                line: toks[i + 3].line,
                symbol: key.clone(),
                message: format!(
                    "\"{key}\" passed to .{api}() is not in the canonical metric \
                     registry (ssr_sim::registry); a typo here forks a series nothing \
                     aggregates — register the key or fix the name"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// match-wildcard
// ---------------------------------------------------------------------------

fn check_wildcard(f: &LexedFile, out: &mut Vec<Finding>) {
    if !HANDLER_FILES.contains(&f.rel_path.as_str()) {
        return;
    }
    let toks = &f.tokens;
    for i in 0..toks.len() {
        if ident_at(toks, i) != Some("match") {
            continue;
        }
        // find the match body's `{`: first brace at paren/bracket depth 0
        let mut j = i + 1;
        let (mut dp, mut db) = (0i32, 0i32);
        let open = loop {
            match toks.get(j).map(|t| &t.tok) {
                Some(Tok::Punct('(')) => dp += 1,
                Some(Tok::Punct(')')) => dp -= 1,
                Some(Tok::Punct('[')) => db += 1,
                Some(Tok::Punct(']')) => db -= 1,
                Some(Tok::Punct('{')) if dp == 0 && db == 0 => break j,
                Some(_) => {}
                None => return,
            }
            j += 1;
        };
        let close = matching_brace(toks, open);
        if let Some(wild_line) = wildcard_over_message_enum(toks, open, close) {
            out.push(Finding {
                rule: RULE_WILDCARD,
                file: f.rel_path.clone(),
                line: wild_line,
                symbol: "_ =>".to_string(),
                message: "wildcard arm in a protocol-handler match over a message enum \
                          swallows future variants silently; enumerate the remaining \
                          variants so adding a message forces a handling decision here"
                    .to_string(),
            });
        }
    }
}

/// Inspects the arms of the match body in `tokens[open..=close]`. Returns
/// the wildcard arm's line when the arms both reference a message enum
/// (`Enum::Variant` pattern) and include a bare `_` arm.
fn wildcard_over_message_enum(tokens: &[Token], open: usize, close: usize) -> Option<u32> {
    let mut saw_enum = false;
    let mut wildcard_line: Option<u32> = None;
    let mut i = open + 1;
    while i < close {
        // ---- pattern: tokens until `=>` at relative depth 0 ----
        let start = i;
        let (mut dp, mut db, mut dc) = (0i32, 0i32, 0i32);
        let mut arrow = None;
        while i < close {
            match tokens[i].tok {
                Tok::Punct('(') => dp += 1,
                Tok::Punct(')') => dp -= 1,
                Tok::Punct('[') => db += 1,
                Tok::Punct(']') => db -= 1,
                Tok::Punct('{') => dc += 1,
                Tok::Punct('}') => dc -= 1,
                Tok::Punct('=')
                    if dp == 0 && db == 0 && dc == 0 && punct_at(tokens, i + 1, '>') =>
                {
                    arrow = Some(i);
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        let arrow = arrow?;
        let pattern = &tokens[start..arrow];
        let first = pattern.first()?;
        // bare `_` (possibly with a guard: `_ if …` still swallows variants)
        if matches!(&first.tok, Tok::Ident(s) if s == "_")
            && (pattern.len() == 1 || matches!(&pattern[1].tok, Tok::Ident(s) if s == "if"))
        {
            wildcard_line.get_or_insert(first.line);
        }
        for (k, t) in pattern.iter().enumerate() {
            if let Tok::Ident(s) = &t.tok {
                if MESSAGE_ENUMS.contains(&s.as_str())
                    && matches!(pattern.get(k + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                {
                    saw_enum = true;
                }
            }
        }
        // ---- arm body: a block, or an expression up to `,` at depth 0 ----
        i = arrow + 2;
        if punct_at(tokens, i, '{') {
            i = matching_brace(tokens, i) + 1;
            // optional trailing comma
            if punct_at(tokens, i, ',') {
                i += 1;
            }
        } else {
            let (mut dp, mut db, mut dc) = (0i32, 0i32, 0i32);
            while i < close {
                match tokens[i].tok {
                    Tok::Punct('(') => dp += 1,
                    Tok::Punct(')') => dp -= 1,
                    Tok::Punct('[') => db += 1,
                    Tok::Punct(']') => db -= 1,
                    Tok::Punct('{') => dc += 1,
                    Tok::Punct('}') => dc -= 1,
                    Tok::Punct(',') if dp == 0 && db == 0 && dc == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
        }
    }
    if saw_enum {
        wildcard_line
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// forbid-unsafe
// ---------------------------------------------------------------------------

fn check_forbid_unsafe(files: &[LexedFile], out: &mut Vec<Finding>) {
    for &krate in FORBID_UNSAFE_CRATES {
        let lib_path = format!("crates/{krate}/src/lib.rs");
        let Some(lib) = files.iter().find(|f| f.rel_path == lib_path) else {
            continue; // crate not in this scan (e.g. fixture trees in tests)
        };
        let toks = &lib.tokens;
        let has = (0..toks.len()).any(|i| {
            punct_at(toks, i, '#')
                && punct_at(toks, i + 1, '!')
                && punct_at(toks, i + 2, '[')
                && ident_at(toks, i + 3) == Some("forbid")
                && punct_at(toks, i + 4, '(')
                && ident_at(toks, i + 5) == Some("unsafe_code")
        });
        if !has {
            out.push(Finding {
                rule: RULE_UNSAFE,
                file: lib_path,
                line: 1,
                symbol: "#![forbid(unsafe_code)]".to_string(),
                message: format!(
                    "protocol crate `{krate}` must forbid unsafe code at the crate \
                     root; add #![forbid(unsafe_code)] to its lib.rs"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(crate_name: &str, rel_path: &str, src: &str) -> Vec<Finding> {
        analyze(&[LexedFile::new(crate_name, rel_path, src)])
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // ---- determinism-collections ----

    #[test]
    fn collections_fire_in_protocol_crates() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }";
        let f = run("core", "crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_COLLECTIONS, RULE_COLLECTIONS]);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
        assert_eq!(f[0].symbol, "HashMap");
    }

    #[test]
    fn collections_pass_outside_protocol_crates_and_on_btree() {
        assert!(run(
            "bench",
            "crates/bench/src/x.rs",
            "use std::collections::HashSet;"
        )
        .is_empty());
        assert!(run(
            "core",
            "crates/core/src/x.rs",
            "use std::collections::BTreeMap;"
        )
        .is_empty());
    }

    #[test]
    fn collections_ignore_comments_and_strings() {
        let src = "// a HashMap here\nconst S: &str = \"HashMap\";";
        assert!(run("core", "crates/core/src/x.rs", src).is_empty());
    }

    // ---- determinism-time ----

    #[test]
    fn time_rules_fire_everywhere_but_the_allowlist() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(
            rules_of(&run("core", "crates/core/src/x.rs", src)),
            vec![RULE_TIME]
        );
        assert_eq!(
            rules_of(&run("bench", "crates/bench/src/bin/e.rs", src)),
            vec![RULE_TIME]
        );
        assert!(run("criterion", "crates/criterion/src/lib.rs", src).is_empty());
        assert!(run("obs", "crates/obs/src/main.rs", src).is_empty());
    }

    #[test]
    fn entropy_and_threads_fire() {
        let f = run(
            "sim",
            "crates/sim/src/x.rs",
            "fn f() { let r = thread_rng(); std::thread::spawn(|| {}); }",
        );
        assert_eq!(rules_of(&f), vec![RULE_TIME, RULE_TIME]);
        assert_eq!(f[0].symbol, "thread_rng");
        assert_eq!(f[1].symbol, "std::thread");
    }

    #[test]
    fn threads_allowed_only_in_the_orchestrator() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        // the one sanctioned thread user: the sweep orchestrator
        assert!(run("workloads", "crates/workloads/src/orchestrator.rs", src).is_empty());
        // same code anywhere else still fires
        assert_eq!(
            rules_of(&run("workloads", "crates/workloads/src/table.rs", src)),
            vec![RULE_TIME]
        );
        // the allowlist covers threads only — clocks stay banned there
        assert_eq!(
            rules_of(&run(
                "workloads",
                "crates/workloads/src/orchestrator.rs",
                "fn f() { let t = Instant::now(); }"
            )),
            vec![RULE_TIME]
        );
    }

    #[test]
    fn environment_reads_fire_in_protocol_crates() {
        // an ambient switch inside a protocol crate (the late `VRR_DEBUG`)
        let src = r#"fn f() { if std::env::var("VRR_DEBUG").is_ok() { eprintln!("x"); } }"#;
        let f = run("vrr", "crates/vrr/src/node.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_TIME]);
        assert_eq!(f[0].symbol, "env::var");
        let f = run(
            "linearize",
            "crates/linearize/src/control.rs",
            "use std::env;\nfn f() -> bool { env::var_os(\"X\").is_some() }",
        );
        assert_eq!(rules_of(&f), vec![RULE_TIME]);
        assert_eq!(f[0].symbol, "env::var_os");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn environment_reads_pass_outside_protocol_crates() {
        // tooling may be steered from the environment (SSR_OBS_OMIT_WALL,
        // PROPTEST_CASES); other `env` items are not reads of ambient state
        let src = r#"fn f() -> bool { std::env::var_os("SSR_OBS_OMIT_WALL").is_none() }"#;
        assert!(run("obs", "crates/obs/src/manifest.rs", src).is_empty());
        assert!(run("proptest", "crates/proptest/src/lib.rs", src).is_empty());
        assert!(run("bench", "crates/bench/src/lib.rs", src).is_empty());
        let args = "fn f() -> usize { std::env::args().count() }";
        assert!(run("core", "crates/core/src/x.rs", args).is_empty());
    }

    #[test]
    fn simulated_time_passes() {
        assert!(run("core", "crates/core/src/x.rs", "fn f(t: Time) { t.now(); }").is_empty());
    }

    // ---- metric-registry ----

    #[test]
    fn canonical_keys_pass() {
        let src = r#"fn f(m: &mut Metrics) {
            m.incr("tx.total");
            m.observe_hist("route.len", 3);
            m.observe("probe.locally_consistent", 0.5);
            m.counter_sum("msg.");
        }"#;
        assert!(run("core", "crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn typod_key_fires() {
        let f = run(
            "core",
            "crates/core/src/x.rs",
            r#"fn f(m: &mut Metrics) { m.incr("tx.totall"); }"#,
        );
        assert_eq!(rules_of(&f), vec![RULE_METRICS]);
        assert_eq!(f[0].symbol, "tx.totall");
    }

    #[test]
    fn unregistered_prefix_fires() {
        let f = run(
            "core",
            "crates/core/src/x.rs",
            r#"fn f(m: &Metrics) { m.counter_sum("bogus."); }"#,
        );
        assert_eq!(rules_of(&f), vec![RULE_METRICS]);
    }

    #[test]
    fn test_modules_are_exempt_from_metric_rule() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn t(m: &mut Metrics) { m.incr("alpha"); m.add("msg.a", 2); }
            }
        "#;
        assert!(run("sim", "crates/sim/src/metrics.rs", src).is_empty());
    }

    #[test]
    fn non_literal_keys_are_skipped() {
        // dynamic keys cannot be resolved statically; not a finding
        let src = "fn f(m: &mut Metrics, k: &'static str) { m.incr(k); }";
        assert!(run("core", "crates/core/src/x.rs", src).is_empty());
    }

    // ---- match-wildcard ----

    #[test]
    fn wildcard_over_message_enum_fires() {
        let src = r#"
            fn h(&mut self, p: Payload) {
                match p {
                    Payload::Notify { .. } => self.a(),
                    _ => {}
                }
            }
        "#;
        let f = run("core", "crates/core/src/isprp.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_WILDCARD]);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn guarded_wildcard_still_fires() {
        let src = r#"
            fn h(&mut self, m: SsrMsg) {
                match m {
                    SsrMsg::Hello { id, probe } => self.hello(id, probe),
                    _ if true => {}
                }
            }
        "#;
        assert_eq!(
            rules_of(&run("core", "crates/core/src/node.rs", src)),
            vec![RULE_WILDCARD]
        );
    }

    #[test]
    fn exhaustive_message_match_passes() {
        let src = r#"
            fn h(&mut self, m: SsrMsg) {
                match m {
                    SsrMsg::Hello { id, probe } => self.hello(id, probe),
                    SsrMsg::Forward(env) => self.fwd(env),
                    SsrMsg::Flood { origin, trace } => self.flood(origin, trace),
                }
            }
        "#;
        assert!(run("core", "crates/core/src/node.rs", src).is_empty());
    }

    #[test]
    fn wildcard_over_non_message_match_passes() {
        // Option matches and timer-token matches keep their wildcards
        let src = r#"
            fn h(&mut self, token: u64) {
                match token & 0xFF {
                    TOKEN_ACT => self.act(),
                    _ => {}
                }
                match self.greedy_next(t) {
                    Some(next) if ttl > 0 => self.send(next),
                    _ => self.stall(),
                }
            }
        "#;
        assert!(run("vrr", "crates/vrr/src/node.rs", src).is_empty());
    }

    #[test]
    fn nested_wildcard_inside_message_arm_body_is_fine() {
        // the wildcard belongs to the inner Option match, not the message
        // match
        let src = r#"
            fn h(&mut self, m: VrrMsg) {
                match m {
                    VrrMsg::Hello { id, rep } => match self.greedy_next(id) {
                        Some(n) => self.send(n),
                        _ => self.stall(),
                    },
                    VrrMsg::Routed { ttl, payload } => self.routed(ttl, payload),
                }
            }
        "#;
        assert!(run("vrr", "crates/vrr/src/node.rs", src).is_empty());
    }

    #[test]
    fn wildcard_over_control_core_enums_fires() {
        // an adapter must carry out every effect the control core returns,
        // and the core must decide every input and timer
        let effect = r#"
            fn apply(&mut self, effect: Effect<()>) {
                match effect {
                    Effect::SetTimer { delay, timer } => self.set(delay, timer),
                    _ => {}
                }
            }
        "#;
        assert_eq!(
            rules_of(&run("core", "crates/core/src/node.rs", effect)),
            vec![RULE_WILDCARD]
        );
        let verdict = r#"
            fn claim(&mut self, v: WrapVerdict<PathId>) {
                match v {
                    WrapVerdict::Installed => {}
                    _ => self.retire(),
                }
            }
        "#;
        assert_eq!(
            rules_of(&run("vrr", "crates/vrr/src/node.rs", verdict)),
            vec![RULE_WILDCARD]
        );
        let input = r#"
            fn step(&mut self, input: Input) {
                match input {
                    Input::Changed => self.schedule_act(),
                    Input::Timer { timer, .. } => match timer {
                        Timer::Act => self.act(),
                        _ => {}
                    },
                    Input::Ack { about, seq } => self.ack(about, seq),
                }
            }
        "#;
        assert_eq!(
            rules_of(&run("linearize", "crates/linearize/src/control.rs", input)),
            vec![RULE_WILDCARD]
        );
    }

    #[test]
    fn token_decoding_keeps_its_wildcard() {
        // the enum appears in arm *bodies* only: an integer match
        let src = r#"
            fn from_token(token: u64) -> Option<Timer> {
                match token & 0xFF {
                    0 => Some(Timer::Act),
                    3 => Some(Timer::Discover),
                    _ => None,
                }
            }
        "#;
        assert!(run("linearize", "crates/linearize/src/control.rs", src).is_empty());
    }

    #[test]
    fn handler_scope_is_respected() {
        // same code outside the handler files is not checked
        let src = "fn h(p: Payload) { match p { Payload::Notify { .. } => {}, _ => {} } }";
        assert!(run("core", "crates/core/src/cache.rs", src).is_empty());
    }

    // ---- forbid-unsafe ----

    #[test]
    fn missing_forbid_unsafe_fires() {
        let lib = LexedFile::new("core", "crates/core/src/lib.rs", "pub mod cache;");
        let f = analyze(&[lib]);
        assert_eq!(rules_of(&f), vec![RULE_UNSAFE]);
        assert_eq!(f[0].file, "crates/core/src/lib.rs");
    }

    #[test]
    fn present_forbid_unsafe_passes() {
        let lib = LexedFile::new(
            "core",
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod cache;",
        );
        assert!(analyze(&[lib]).is_empty());
    }

    // ---- ordering ----

    #[test]
    fn findings_are_sorted() {
        let a = LexedFile::new("core", "crates/core/src/b.rs", "type M = HashMap<u8, u8>;");
        let b = LexedFile::new("core", "crates/core/src/a.rs", "type S = HashSet<u8>;");
        let f = analyze(&[a, b]);
        assert_eq!(f[0].file, "crates/core/src/a.rs");
        assert_eq!(f[1].file, "crates/core/src/b.rs");
    }
}
