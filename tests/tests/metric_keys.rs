//! Every metric-key literal in the workspace resolves against the canonical
//! registry ([`ssr_sim::registry`]), so a typo'd key fails CI instead of
//! forking a series that nothing aggregates.

use std::fs;
use std::path::{Path, PathBuf};

use ssr_sim::registry::{is_canonical_key, is_canonical_prefix};

/// Metrics methods whose first argument is a full key, then the one whose
/// first argument is a key prefix.
const KEY_APIS: &[&str] = &[
    "add",
    "counter",
    "gauge",
    "hist",
    "incr",
    "observe",
    "observe_hist",
];
const PREFIX_API: &str = "counter_sum";

/// Every `.api("literal"` call in `src` outside a trailing
/// `#[cfg(test)] mod tests`, as `(call, canonical)`.
fn key_literals(src: &str) -> Vec<(String, bool)> {
    let src = src
        .rfind("#[cfg(test)]\nmod tests")
        .map_or(src, |end| &src[..end]);
    let mut found = Vec::new();
    for api in KEY_APIS.iter().chain([&PREFIX_API]) {
        let call = format!(".{api}(");
        for (at, _) in src.match_indices(&call) {
            let arg = src[at + call.len()..].trim_start();
            let Some(key) = arg
                .strip_prefix('"')
                .and_then(|rest| rest.split('"').next())
            else {
                continue;
            };
            let canonical = match *api {
                PREFIX_API => is_canonical_prefix(key),
                _ => is_canonical_key(key),
            };
            found.push((format!("{call}\"{key}\")"), canonical));
        }
    }
    found
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn workspace_metric_keys_are_registered() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root");
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    rust_files(&root.join("tests"), &mut files);
    let (mut sites, mut bad) = (0, Vec::new());
    for file in &files {
        for (call, canonical) in key_literals(&fs::read_to_string(file).expect("utf-8 source")) {
            sites += 1;
            if !canonical {
                bad.push(format!(
                    "{}: {call}",
                    file.strip_prefix(root).unwrap().display()
                ));
            }
        }
    }
    assert!(sites > 50, "the scan found only {sites} key literals");
    assert!(
        bad.is_empty(),
        "keys missing from ssr_sim::registry:\n{}",
        bad.join("\n")
    );
}

#[test]
fn the_scan_flags_a_typo_and_skips_the_test_module() {
    // escaped quotes keep these calls out of the workspace scan above
    let src = concat!(
        "fn f(m: &mut Metrics) {\n",
        "    m.incr(\"fwd.no_pathh\");\n",
        "    m.observe_hist(\n        \"route.len\", 3);\n",
        "    m.counter_sum(\"msg.\");\n",
        "}\n\n",
        "#[cfg(test)]\nmod tests {\n",
        "    fn t(m: &mut Metrics) { m.incr(\"alpha\"); }\n",
        "}\n",
    );
    let mut found = key_literals(src);
    found.sort();
    assert_eq!(
        found,
        [
            (".counter_sum(\"msg.\")".to_string(), true),
            (".incr(\"fwd.no_pathh\")".to_string(), false),
            (".observe_hist(\"route.len\")".to_string(), true),
        ]
    );
}
