//! Self-test of the linter against the fixture suite: one file per rule
//! with positive, negative and allowlisted cases, asserting the exact
//! `file:line` diagnostics each must produce.

use std::path::Path;
use ulc_lint::rules::FileKind;
use ulc_lint::{lint_source, Diagnostic};

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    lint_source(name, &src, FileKind::Library)
}

/// The (line, rule) signature of a diagnostic list.
fn signature(diags: &[Diagnostic]) -> Vec<(usize, &str)> {
    diags.iter().map(|d| (d.line, d.rule.as_str())).collect()
}

#[test]
fn determinism_positive_cases() {
    let d = lint_fixture("determinism_pos.rs");
    assert_eq!(
        signature(&d),
        [
            (12, "determinism"), // self.table.iter() in a fold
            (19, "determinism"), // self.table.keys()
            (25, "determinism"), // for … in &seen
            (31, "determinism"), // Instant::now()
            (35, "determinism"), // thread_rng()
        ],
        "{d:#?}"
    );
    assert!(d.iter().all(|x| x.file == "determinism_pos.rs"));
}

#[test]
fn determinism_negative_cases() {
    let d = lint_fixture("determinism_neg.rs");
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn determinism_allowlisted_cases() {
    let d = lint_fixture("determinism_allowed.rs");
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn panic_positive_cases() {
    let d = lint_fixture("panic_pos.rs");
    assert_eq!(
        signature(&d),
        [
            (4, "panic"),  // unwrap()
            (8, "panic"),  // expect(&msg) — not a string literal
            (12, "panic"), // expect("") — empty message
            (16, "panic"), // panic!
            (21, "panic"), // todo!
            (22, "panic"), // unimplemented!
            (23, "panic"), // unreachable!
        ],
        "{d:#?}"
    );
}

#[test]
fn panic_negative_cases() {
    let d = lint_fixture("panic_neg.rs");
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn panic_allow_file_cases() {
    let d = lint_fixture("panic_allowed.rs");
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn allow_syntax_positive_cases() {
    let d = lint_fixture("allow_syntax_pos.rs");
    assert_eq!(
        signature(&d),
        [
            (4, "allow-syntax"),  // no reason
            (7, "allow-syntax"),  // unknown rule
            (10, "allow-syntax"), // unclosed parenthesis
            (13, "allow-syntax"), // misspelled marker
        ],
        "{d:#?}"
    );
}

/// Acceptance gate: every per-file rule class has a positive fixture
/// with file:line diagnostics.
#[test]
fn fixture_suite_covers_all_rule_classes() {
    let mut rules: Vec<String> = ["determinism_pos.rs", "panic_pos.rs", "allow_syntax_pos.rs"]
        .iter()
        .flat_map(|f| lint_fixture(f))
        .map(|d| d.rule)
        .collect();
    rules.sort();
    rules.dedup();
    assert_eq!(rules, ["allow-syntax", "determinism", "panic"]);
}

/// The workspace walk must skip the deliberately-violating fixtures.
#[test]
fn workspace_walk_skips_fixtures() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let diags = ulc_lint::lint_workspace(root).expect("walk the lint crate");
    assert!(
        diags.is_empty(),
        "lint crate sources must self-lint clean: {diags:#?}"
    );
}

// ── Lexer edge cases ────────────────────────────────────────────────
// Each fixture hides rule-relevant text inside a literal or comment
// form the lexer must classify correctly, then plants one real finding
// whose exact line proves the scan resynchronised.

#[test]
fn raw_strings_do_not_smuggle_allow_markers() {
    let d = lint_fixture("lexer_raw_string.rs");
    assert_eq!(signature(&d), [(14, "panic")], "{d:#?}");
}

#[test]
fn nested_block_comments_nest() {
    let d = lint_fixture("lexer_nested_comment.rs");
    assert_eq!(signature(&d), [(10, "panic")], "{d:#?}");
}

#[test]
fn byte_strings_are_data() {
    let d = lint_fixture("lexer_byte_string.rs");
    assert_eq!(signature(&d), [(9, "panic")], "{d:#?}");
}

#[test]
fn lifetimes_are_not_char_literals() {
    let d = lint_fixture("lexer_lifetime.rs");
    assert_eq!(signature(&d), [(10, "panic")], "{d:#?}");
}
