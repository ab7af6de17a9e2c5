//! acdc-xtask: workspace-local static analysis for the AC/DC TCP
//! reproduction.
//!
//! The simulator's headline claim is *determinism*: the same seed must
//! produce the same run, byte for byte, and the vSwitch must enforce the
//! paper's protocol invariants (§3.3 window rewriting, DCTCP §3.2 alpha
//! bookkeeping). Those properties are easy to break with a single stray
//! `Instant::now()` or `HashMap` iteration, and nothing in the type system
//! stops you. This crate is the guard rail: a dependency-free, token-level
//! lint pass over the workspace sources that runs in milliseconds and is
//! wired into `scripts/check.sh`.
//!
//! See `LINTS.md` at the repo root for the rule catalog and rationale;
//! `src/rules.rs` for the implementations.

#![forbid(unsafe_code)]

pub mod bench;
pub mod json;
pub mod rules;
pub mod scan;

use std::fs;
use std::path::{Path, PathBuf};

use rules::Finding;
use scan::SourceFile;

/// Result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Errors the engine can hit before linting even starts.
#[derive(Debug)]
pub enum LintError {
    Io(PathBuf, std::io::Error),
    NotAWorkspace(PathBuf),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(p, e) => write!(f, "io error at {}: {e}", p.display()),
            LintError::NotAWorkspace(p) => {
                write!(f, "{} does not contain a workspace Cargo.toml", p.display())
            }
        }
    }
}

/// Walk up from `start` to the first directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// File-level allowlist, checked in at `crates/xtask/allow.list`.
///
/// Format, one entry per line (`#` comments):
/// ```text
/// RULE_ID path/relative/to/root.rs
/// ```
/// An entry suppresses that rule for the whole file. Prefer the inline
/// `// acdc-lint: allow(RULE)` escape hatch; the file list is for cases
/// where annotating every site would drown the file in directives.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, String)>, // (rule_id, path)
}

impl Allowlist {
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            if let (Some(rule), Some(path)) = (parts.next(), parts.next()) {
                entries.push((rule.to_string(), path.to_string()));
            }
        }
        Allowlist { entries }
    }

    pub fn load(root: &Path) -> Allowlist {
        match fs::read_to_string(root.join("crates/xtask/allow.list")) {
            Ok(text) => Allowlist::parse(&text),
            Err(_) => Allowlist::default(),
        }
    }

    pub fn allows(&self, rule_id: &str, path: &str) -> bool {
        self.entries.iter().any(|(r, p)| r == rule_id && p == path)
    }
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", ".claude", "vendor"];

/// Collect every `.rs` file under `root`, repo-relative, sorted. Skipping
/// `fixtures` keeps the xtask test corpus (deliberately bad code) out of
/// the real lint pass; `vendor` holds third-party offline stubs that are
/// not held to workspace rules.
fn collect_rs_files(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = fs::read_dir(&dir).map_err(|e| LintError::Io(dir.clone(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| LintError::Io(dir.clone(), e))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Repo-relative path with forward slashes (diagnostics must be stable
/// across platforms).
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// A file is a crate root iff it is `src/lib.rs`, `src/main.rs`, or
/// `src/bin/*.rs` of some package (`#![forbid(unsafe_code)]` is only legal
/// at crate roots, so H001 checks exactly these).
fn is_crate_root(rel_path: &str) -> bool {
    rel_path.ends_with("src/lib.rs")
        || rel_path.ends_with("src/main.rs")
        || (rel_path.contains("src/bin/") && rel_path.ends_with(".rs"))
}

/// Run the full lint pass over the workspace at `root`.
pub fn run_lint(root: &Path) -> Result<Report, LintError> {
    if !root.join("Cargo.toml").exists() {
        return Err(LintError::NotAWorkspace(root.to_path_buf()));
    }
    let allowlist = Allowlist::load(root);
    let mut report = Report::default();
    let mut raw = Vec::new();

    for path in collect_rs_files(root)? {
        let text = fs::read_to_string(&path).map_err(|e| LintError::Io(path.clone(), e))?;
        let rel_path = rel(root, &path);
        let file = SourceFile::scan(&text);
        report.files_scanned += 1;
        rules::lint_lines(&rel_path, &file, &mut raw);
        if is_crate_root(&rel_path) {
            rules::lint_crate_root(&rel_path, &file, &mut raw);
        }
    }

    let clippy = fs::read_to_string(root.join("clippy.toml")).ok();
    rules::lint_clippy_sync(clippy.as_deref(), &mut raw);

    report.findings = raw
        .into_iter()
        .filter(|f| !allowlist.allows(f.rule.id, &f.path))
        .collect();
    // Deterministic output order: by path, then line, then rule id.
    report.findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.id).cmp(&(b.path.as_str(), b.line, b.rule.id))
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_parses_and_matches() {
        let al = Allowlist::parse(
            "# comment\nD002 crates/netsim/src/switch.rs\n\nP003 crates/cc/src/dctcp.rs # trailing\n",
        );
        assert!(al.allows("D002", "crates/netsim/src/switch.rs"));
        assert!(al.allows("P003", "crates/cc/src/dctcp.rs"));
        assert!(!al.allows("D002", "crates/core/src/host.rs"));
    }

    #[test]
    fn crate_root_detection() {
        assert!(is_crate_root("crates/tcp/src/lib.rs"));
        assert!(is_crate_root("crates/xtask/src/main.rs"));
        assert!(is_crate_root("crates/bench/src/bin/repro.rs"));
        assert!(!is_crate_root("crates/tcp/src/endpoint.rs"));
        assert!(is_crate_root("src/lib.rs")); // root package lib is a crate root too
    }
}
