//! `ulc-lint` — a self-contained static-analysis pass over the workspace.
//!
//! The repo's headline guarantees — bit-identical deterministic replay,
//! zero steady-state allocations per access, panic-free engine code —
//! have source-level preconditions which neither `rustc` nor clippy
//! checks: map iteration order, allocations and panics reachable from a
//! per-access root, exhaustive plane-message handling. (Doc coverage,
//! `// SAFETY:` comments and std hash tables in hot modules are
//! built-in lints, set in the root `[workspace.lints]` table.) This
//! crate enforces the rest with a hand-rolled multi-pass analyzer — no
//! crates.io dependencies, in the same spirit as the vendored stand-ins:
//!
//! * [`lexer`] tokenises Rust source (tokens + comments, with lines);
//! * [`parser`] extracts the item skeleton (`fn`/`impl`/`trait`/`struct`/
//!   `enum` with spans, signatures and bodies);
//! * [`graph`] builds the workspace symbol table and conservative call
//!   graph, discovers the per-access roots and computes reachability;
//! * [`rules`] implements the rule classes (per-file and
//!   interprocedural) and the allowlist protocol;
//! * [`baseline`] assigns stable fingerprints and implements the CI
//!   diff gate (`--baseline`/`--write-baseline`);
//! * [`lint_workspace`] walks the library and binary sources under
//!   `crates/*/src` and `src/` in deterministic (sorted) order and returns
//!   every diagnostic.
//!
//! The `ulc-lint` binary prints `path:line: [rule] message` lines and
//! exits non-zero if anything is flagged; `--json=PATH` additionally
//! writes a machine-readable report for CI, and `--baseline=PATH` turns
//! the wall into a diff gate that fails only on new findings.

pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;

use graph::FileUnit;
use serde::Serialize;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding, addressable as `file:line`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (one of [`rules::ALL_RULES`]).
    pub rule: String,
    /// Human-readable explanation (interprocedural findings embed the
    /// call-chain trace from the per-access root).
    pub message: String,
    /// Stable identity for the baseline diff gate (see [`baseline`]);
    /// empty until assigned by the pipeline.
    pub fingerprint: String,
}

impl Diagnostic {
    /// Builds a diagnostic; used by the rule implementations. The
    /// fingerprint starts empty and is assigned by the pipeline.
    pub fn new(file: &str, line: usize, rule: &str, message: &str) -> Self {
        Diagnostic {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message: message.to_string(),
            fingerprint: String::new(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Lints one source string under the rule set for `kind`, through the
/// full pipeline (the file stands alone as its own workspace). `path`
/// labels the diagnostics and is not opened.
pub fn lint_source(path: &str, src: &str, kind: rules::FileKind) -> Vec<Diagnostic> {
    rules::check_source(path, src, kind)
}

/// Lints a set of already-loaded files as one workspace: the call graph
/// spans all of them, so a per-access root in one file reaches helpers
/// in every other. This is the multi-file entry point the fixture suite
/// drives directly.
pub fn lint_files(files: &[(String, String, rules::FileKind)]) -> Vec<Diagnostic> {
    let units: Vec<FileUnit> = files
        .iter()
        .map(|(path, src, kind)| FileUnit::new(path, src, *kind))
        .collect();
    rules::lint_units(&units)
}

/// Directories under the workspace root that are never linted: vendored
/// stand-ins (external idiom, not ours), build output, and test, bench
/// and example targets (no rule applies to them; this also skips the
/// linter's own deliberately-violating fixtures).
fn skip_dir(name: &str) -> bool {
    matches!(
        name,
        "vendor" | "target" | "results" | ".git" | "tests" | "benches" | "examples"
    )
}

/// Collects every `.rs` file to lint under `root`, sorted for
/// deterministic output.
fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
                if !skip_dir(name) {
                    stack.push(p);
                }
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Loads every lintable file under `root` into analysis units (see
/// `skip_dir` for what is skipped).
pub fn load_workspace_units(root: &Path) -> io::Result<Vec<FileUnit>> {
    let mut units = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        let kind = rules::FileKind::classify(&rel);
        units.push(FileUnit::new(&rel, &src, kind));
    }
    Ok(units)
}

/// Lints the whole workspace rooted at `root` and returns every
/// diagnostic, sorted by file then line, with fingerprints assigned.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let units = load_workspace_units(root)?;
    Ok(rules::lint_units(&units))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_display_is_file_line_rule() {
        let d = Diagnostic::new("a/b.rs", 7, "panic", "no");
        assert_eq!(d.to_string(), "a/b.rs:7: [panic] no");
    }

    #[test]
    fn diagnostics_serialize_to_json() {
        let d = Diagnostic::new("a.rs", 1, "determinism", "m");
        let s = serde_json::to_string(&d).expect("serializable");
        assert!(s.contains("\"file\""), "{s}");
        assert!(s.contains("determinism"), "{s}");
        assert!(s.contains("\"fingerprint\""), "{s}");
    }

    #[test]
    fn lint_files_connects_the_graph_across_files() {
        let files = vec![
            (
                "crates/a/src/root.rs".to_string(),
                "fn access_into(b: u32) { helper(b); }\n".to_string(),
                rules::FileKind::Library,
            ),
            (
                "crates/b/src/helper.rs".to_string(),
                "pub fn helper(b: u32) { let v = vec![b]; let _ = v; }\n".to_string(),
                rules::FileKind::Library,
            ),
        ];
        let d: Vec<_> = lint_files(&files)
            .into_iter()
            .filter(|d| d.rule == rules::RULE_HOT_PATH_ALLOC)
            .collect();
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "crates/b/src/helper.rs");
        assert!(!d[0].fingerprint.is_empty());
    }
}
