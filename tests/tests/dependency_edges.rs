//! Every dependency a workspace member declares is used: each crate listed
//! under a member's `[dependencies]`, `[dev-dependencies]` or
//! `[build-dependencies]` must be named (`name::` or `use name`) somewhere
//! in the member's `src/`, `tests/`, `benches/` or `examples/`, or in a
//! source file its `[[example]]` sections point at. An unused edge costs
//! compile time and misstates the crate graph.

use std::fs;
use std::path::{Path, PathBuf};

/// Declared edges that stay although nothing names them: `(member,
/// dependency, why)`.
const ALLOWED_UNUSED: &[(&str, &str, &str)] = &[(
    "ssr-workloads",
    "ssr-linearize",
    "recorded in benchmark/Cargo.lock, which is frozen",
)];

/// One workspace member: its package name, declared dependencies and the
/// source files the check reads.
struct Member {
    name: String,
    deps: Vec<String>,
    sources: Vec<PathBuf>,
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the integration-test crate sits one level below the root")
        .to_path_buf()
}

/// The `members` of the root manifest: `crates/*` and `tests`.
fn member_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    dirs.push(root.join("tests"));
    dirs.sort();
    dirs
}

/// The quoted value of a `key = "value"` line.
fn quoted(line: &str) -> Option<&str> {
    let (_, value) = line.split_once('=')?;
    Some(value.trim().trim_matches('"'))
}

/// Reads the package name, the declared dependencies and the `[[example]]`
/// paths off a member manifest (the subset of TOML the workspace writes).
fn parse_manifest(dir: &Path) -> (String, Vec<String>, Vec<PathBuf>) {
    let text = fs::read_to_string(dir.join("Cargo.toml")).expect("member manifest");
    let (mut name, mut deps, mut examples) = (None, Vec::new(), Vec::new());
    let mut section = String::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        let key = line.split(['=', '.']).next().unwrap_or("").trim();
        match section.as_str() {
            "package" if key == "name" => name = quoted(line).map(str::to_string),
            s if s.ends_with("dependencies") => deps.push(key.to_string()),
            "example" if key == "path" => {
                examples.push(dir.join(quoted(line).expect("example path")));
            }
            _ => {}
        }
    }
    (name.expect("[package] name"), deps, examples)
}

/// Every `.rs` file below `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn members() -> Vec<Member> {
    member_dirs(&workspace_root())
        .into_iter()
        .map(|dir| {
            let (name, deps, examples) = parse_manifest(&dir);
            let mut sources = examples;
            for sub in ["src", "tests", "benches", "examples"] {
                rust_files(&dir.join(sub), &mut sources);
            }
            Member {
                name,
                deps,
                sources,
            }
        })
        .collect()
}

/// Whether `source` names the crate `ident`: `ident::` or `use ident`,
/// not as the tail of a longer identifier.
fn names(source: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    source.match_indices(ident).any(|(at, _)| {
        let before = source[..at].chars().next_back();
        let after = &source[at + ident.len()..];
        let starts_word = !before.is_some_and(is_ident);
        let path = after.starts_with("::");
        let after_use = source[..at].trim_end().strip_suffix("use");
        let used =
            after_use.is_some_and(|head| !head.ends_with(is_ident)) && !after.starts_with(is_ident);
        starts_word && (path || used)
    })
}

fn uses(member: &Member, dep: &str) -> bool {
    let ident = dep.replace('-', "_");
    member.sources.iter().any(|path| {
        let source = fs::read_to_string(path).expect("member source");
        names(&source, &ident)
    })
}

#[test]
fn every_declared_dependency_is_named_in_the_members_code() {
    let members = members();
    assert!(members.len() >= 12, "{} members found", members.len());
    let mut unused = Vec::new();
    for member in &members {
        assert!(!member.sources.is_empty(), "{}: no sources", member.name);
        for dep in &member.deps {
            let allowed = ALLOWED_UNUSED
                .iter()
                .any(|&(m, d, _)| m == member.name && d == dep);
            if !allowed && !uses(member, dep) {
                unused.push(format!("{} -> {dep}", member.name));
            }
        }
    }
    assert!(unused.is_empty(), "declared but never named: {unused:?}");
}

/// An allowlisted edge that is gone or used again is a stale entry.
#[test]
fn the_allowlisted_edges_are_declared_and_still_unused() {
    let members = members();
    for &(name, dep, why) in ALLOWED_UNUSED {
        let member = members.iter().find(|m| m.name == name);
        let member = member.unwrap_or_else(|| panic!("no member {name}"));
        assert!(
            member.deps.iter().any(|d| d == dep),
            "{name} no longer lists {dep}"
        );
        assert!(
            !uses(member, dep),
            "{name} names {dep} now ({why}): drop the entry"
        );
    }
}

#[test]
fn a_crate_is_named_by_path_or_use_only_as_a_whole_word() {
    assert!(names("use bytes::Buf;", "bytes"));
    assert!(names("let b = bytes::Bytes::new();", "bytes"));
    assert!(names("use proptest;", "proptest"));
    assert!(!names("the output bytes never move", "bytes"));
    assert!(!names("wire_bytes::x", "bytes"));
    assert!(!names("use bytes_ext::X;", "bytes"));
    assert!(!names("because bytes move", "bytes"));
}
