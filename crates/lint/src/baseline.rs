//! Reviewed suppressions.
//!
//! A baseline file records findings the team has looked at and accepted —
//! e.g. the experiment shell reading the wall clock to report real
//! elapsed time in the run manifests. Entries are keyed by `(rule, file,
//! symbol)` rather than line numbers, so they survive unrelated edits; one
//! entry suppresses every occurrence of that symbol in that file, which is
//! the right granularity for "this file is allowed to use X".
//!
//! Format (parsed with the workspace's dependency-free JSON layer):
//!
//! ```json
//! {
//!   "schema": "ssr-lint-baseline/1",
//!   "suppressions": [
//!     { "rule": "determinism-time",
//!       "file": "crates/bench/src/shell.rs",
//!       "symbol": "Instant::now",
//!       "reason": "wall-clock duration reported in the manifest" }
//!   ]
//! }
//! ```

use ssr_obs::json::{self, Value};

use crate::rules::Finding;

/// One reviewed suppression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppression {
    /// Rule id the suppression applies to.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// The suppressed symbol (must equal the finding's `symbol`).
    pub symbol: String,
    /// Why this is acceptable — required, so the file stays reviewable.
    pub reason: String,
}

/// A parsed baseline.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// All suppressions, in file order.
    pub suppressions: Vec<Suppression>,
}

/// The schema tag written/accepted by this version.
pub const SCHEMA: &str = "ssr-lint-baseline/1";

impl Baseline {
    /// Parses a baseline document. Returns a message suitable for the CLI
    /// on malformed input.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
        match doc.get("schema").and_then(Value::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("unsupported baseline schema {other:?}")),
            None => return Err("baseline is missing the schema field".to_string()),
        }
        let Some(Value::Arr(items)) = doc.get("suppressions") else {
            return Err("baseline is missing the suppressions array".to_string());
        };
        let mut suppressions = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let field = |name: &str| -> Result<String, String> {
                item.get(name)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("suppression #{i} is missing {name:?}"))
            };
            suppressions.push(Suppression {
                rule: field("rule")?,
                file: field("file")?,
                symbol: field("symbol")?,
                reason: field("reason")?,
            });
        }
        Ok(Baseline { suppressions })
    }

    /// `true` iff `finding` is covered by a suppression.
    pub fn suppresses(&self, finding: &Finding) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rule == finding.rule && s.file == finding.file && s.symbol == finding.symbol)
    }

    /// Splits findings into (live, suppressed-count), and reports
    /// suppressions that matched nothing (stale entries worth pruning).
    pub fn apply(&self, findings: Vec<Finding>) -> (Vec<Finding>, usize, Vec<&Suppression>) {
        let mut live = Vec::new();
        let mut suppressed = 0usize;
        let mut used = vec![false; self.suppressions.len()];
        for f in findings {
            let hit = self
                .suppressions
                .iter()
                .position(|s| s.rule == f.rule && s.file == f.file && s.symbol == f.symbol);
            match hit {
                Some(i) => {
                    used[i] = true;
                    suppressed += 1;
                }
                None => live.push(f),
            }
        }
        let stale = self
            .suppressions
            .iter()
            .zip(&used)
            .filter(|(_, &u)| !u)
            .map(|(s, _)| s)
            .collect();
        (live, suppressed, stale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, symbol: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line: 1,
            symbol: symbol.to_string(),
            message: String::new(),
        }
    }

    const DOC: &str = r#"{
        "schema": "ssr-lint-baseline/1",
        "suppressions": [
            { "rule": "determinism-time",
              "file": "crates/bench/src/bin/e.rs",
              "symbol": "Instant::now",
              "reason": "wall-clock reporting" }
        ]
    }"#;

    #[test]
    fn parse_and_match() {
        let b = Baseline::parse(DOC).unwrap();
        assert_eq!(b.suppressions.len(), 1);
        assert!(b.suppresses(&finding(
            crate::rules::RULE_TIME,
            "crates/bench/src/bin/e.rs",
            "Instant::now"
        )));
        // different file, symbol, or rule: not suppressed
        assert!(!b.suppresses(&finding(
            crate::rules::RULE_TIME,
            "crates/bench/src/bin/other.rs",
            "Instant::now"
        )));
        assert!(!b.suppresses(&finding(
            crate::rules::RULE_TIME,
            "crates/bench/src/bin/e.rs",
            "SystemTime::now"
        )));
    }

    #[test]
    fn apply_reports_stale_entries() {
        let b = Baseline::parse(DOC).unwrap();
        let (live, suppressed, stale) = b.apply(vec![finding(
            crate::rules::RULE_COLLECTIONS,
            "crates/core/src/cache.rs",
            "HashMap",
        )]);
        assert_eq!(live.len(), 1);
        assert_eq!(suppressed, 0);
        assert_eq!(stale.len(), 1, "unused suppression must be reported");
    }

    #[test]
    fn one_entry_suppresses_all_occurrences_in_a_file() {
        let b = Baseline::parse(DOC).unwrap();
        let fs = vec![
            finding(
                crate::rules::RULE_TIME,
                "crates/bench/src/bin/e.rs",
                "Instant::now",
            ),
            finding(
                crate::rules::RULE_TIME,
                "crates/bench/src/bin/e.rs",
                "Instant::now",
            ),
        ];
        let (live, suppressed, stale) = b.apply(fs);
        assert!(live.is_empty());
        assert_eq!(suppressed, 2);
        assert!(stale.is_empty());
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(Baseline::parse("{").is_err());
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse(r#"{"schema": "other/9", "suppressions": []}"#).is_err());
        assert!(Baseline::parse(
            r#"{"schema": "ssr-lint-baseline/1",
                "suppressions": [{"rule": "x"}]}"#
        )
        .is_err());
    }
}
