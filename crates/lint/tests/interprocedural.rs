//! Interprocedural acceptance tests: a per-access root in one crate
//! reaching an allocating helper two modules away must be flagged at the
//! allocation site with the full call-chain trace, and the allowlist /
//! dead-allow protocol must interact correctly with reachability.

use ulc_lint::rules::{FileKind, RULE_DEAD_ALLOW, RULE_HOT_PATH_ALLOC};
use ulc_lint::{lint_files, Diagnostic};

fn unit(path: &str, src: &str) -> (String, String, FileKind) {
    (path.to_string(), src.to_string(), FileKind::Library)
}

fn by_rule<'a>(diags: &'a [Diagnostic], rule: &str) -> Vec<&'a Diagnostic> {
    diags.iter().filter(|d| d.rule == rule).collect()
}

/// The headline acceptance case: `access_into` (crate a) calls
/// `relay_step` (crate b) which calls `grow_table` (crate c); only the
/// leaf allocates. The diagnostic lands on the allocation line in the
/// leaf file and its message walks every hop with `file:line`.
#[test]
fn root_reaches_allocating_helper_two_modules_away() {
    let files = vec![
        unit(
            "crates/a/src/engine.rs",
            "/// Per-access entry point.\n\
             pub fn access_into(b: u32) -> u32 {\n\
             \x20   relay_step(b)\n\
             }\n",
        ),
        unit(
            "crates/b/src/relay.rs",
            "/// Middle hop: no allocation of its own.\n\
             pub fn relay_step(b: u32) -> u32 {\n\
             \x20   grow_table(b)\n\
             }\n",
        ),
        unit(
            "crates/c/src/table.rs",
            "/// Leaf helper that allocates.\n\
             pub fn grow_table(b: u32) -> u32 {\n\
             \x20   let v = vec![b];\n\
             \x20   v[0]\n\
             }\n",
        ),
    ];
    let diags = lint_files(&files);
    let alloc = by_rule(&diags, RULE_HOT_PATH_ALLOC);
    assert_eq!(alloc.len(), 1, "{diags:#?}");
    let d = alloc[0];
    assert_eq!(d.file, "crates/c/src/table.rs");
    assert_eq!(d.line, 3, "diagnostic sits on the `vec![b]` line");
    // Every hop appears with the file and line of its call site: the
    // root at its declaration, each callee at the caller's call line.
    assert!(
        d.message.contains("access_into (crates/a/src/engine.rs:2)"),
        "{}",
        d.message
    );
    assert!(
        d.message.contains("relay_step (crates/a/src/engine.rs:3)"),
        "{}",
        d.message
    );
    assert!(
        d.message.contains("grow_table (crates/b/src/relay.rs:3)"),
        "{}",
        d.message
    );
    assert!(!d.fingerprint.is_empty());
}

/// An allow on the allocation site suppresses the interprocedural
/// finding, and because it suppressed something it is *not* dead.
#[test]
fn allow_on_the_leaf_suppresses_and_stays_live() {
    let files = vec![
        unit(
            "crates/a/src/engine.rs",
            "/// Per-access entry point.\n\
             pub fn access_into(b: u32) -> u32 {\n\
             \x20   grow(b)\n\
             }\n",
        ),
        unit(
            "crates/c/src/table.rs",
            "/// Leaf helper with a triaged allocation.\n\
             pub fn grow(b: u32) -> u32 {\n\
             \x20   // lint:allow(hot-path-alloc) amortized: doubles capacity, O(1) steady state\n\
             \x20   let v = vec![b];\n\
             \x20   v[0]\n\
             }\n",
        ),
    ];
    let diags = lint_files(&files);
    assert!(
        by_rule(&diags, RULE_HOT_PATH_ALLOC).is_empty(),
        "{diags:#?}"
    );
    assert!(by_rule(&diags, RULE_DEAD_ALLOW).is_empty(), "{diags:#?}");
}

/// An allow that suppresses nothing is itself flagged, at the exact
/// line of the comment.
#[test]
fn stale_allow_is_flagged_as_dead() {
    let files = vec![unit(
        "crates/c/src/table.rs",
        "/// No allocation anywhere near this.\n\
         pub fn ident(b: u32) -> u32 {\n\
         \x20   // lint:allow(hot-path-alloc) left over from an old revision\n\
         \x20   b\n\
         }\n",
    )];
    let diags = lint_files(&files);
    let dead = by_rule(&diags, RULE_DEAD_ALLOW);
    assert_eq!(dead.len(), 1, "{diags:#?}");
    assert_eq!(dead[0].file, "crates/c/src/table.rs");
    assert_eq!(dead[0].line, 3);
}

/// A `lint:cold-path` marker on the middle hop prunes the whole subtree:
/// the leaf allocation becomes unreachable and is not flagged.
#[test]
fn cold_path_marker_prunes_the_subtree() {
    let files = vec![
        unit(
            "crates/a/src/engine.rs",
            "/// Per-access entry point.\n\
             pub fn access_into(b: u32) -> u32 {\n\
             \x20   rebuild(b)\n\
             }\n",
        ),
        unit(
            "crates/b/src/recovery.rs",
            "// lint:cold-path crash recovery rebuilds everything; allocation is by design\n\
             /// Off the steady-state path.\n\
             pub fn rebuild(b: u32) -> u32 {\n\
             \x20   grow(b)\n\
             }\n",
        ),
        unit(
            "crates/c/src/table.rs",
            "/// Allocates, but only reachable through the cold path.\n\
             pub fn grow(b: u32) -> u32 {\n\
             \x20   let v = vec![b];\n\
             \x20   v[0]\n\
             }\n",
        ),
    ];
    let diags = lint_files(&files);
    assert!(
        by_rule(&diags, RULE_HOT_PATH_ALLOC).is_empty(),
        "{diags:#?}"
    );
}

/// The sharded replay executor's per-epoch loops (`advance_client_run`
/// on the worker side, `commit_epoch` on the deterministic commit side,
/// DESIGN.md §5i) are roots by name: an allocation injected anywhere
/// under either is caught with the full call-chain trace.
#[test]
fn executor_epoch_loops_are_roots_by_name() {
    let files = vec![
        unit(
            "crates/a/src/parallel.rs",
            "/// Worker-side run consumer.\n\
             pub fn advance_client_run(b: u32) -> u32 {\n\
             \x20   stage(b)\n\
             }\n\
             /// Commit-side epoch walk.\n\
             pub fn commit_epoch(b: u32) -> u32 {\n\
             \x20   let log = vec![b];\n\
             \x20   log[0]\n\
             }\n",
        ),
        unit(
            "crates/b/src/scratch.rs",
            "/// Helper one module away that allocates.\n\
             pub fn stage(b: u32) -> u32 {\n\
             \x20   let v = b.to_string();\n\
             \x20   v.len() as u32\n\
             }\n",
        ),
    ];
    let diags = lint_files(&files);
    let alloc = by_rule(&diags, RULE_HOT_PATH_ALLOC);
    assert_eq!(alloc.len(), 2, "{diags:#?}");
    let direct = alloc
        .iter()
        .find(|d| d.file == "crates/a/src/parallel.rs")
        .expect("direct vec! under commit_epoch flagged");
    assert!(
        direct.message.contains("commit_epoch"),
        "{}",
        direct.message
    );
    let via_helper = alloc
        .iter()
        .find(|d| d.file == "crates/b/src/scratch.rs")
        .expect("helper alloc under advance_client_run flagged");
    assert!(
        via_helper
            .message
            .contains("advance_client_run (crates/a/src/parallel.rs:2)"),
        "{}",
        via_helper.message
    );
}

/// The time-resolved recording path (DESIGN.md §5j) is rooted by name:
/// `record_rpc`, `sample_window` and `span_end` are per-access hot
/// roots, so an allocation injected into any of them — directly or via
/// a helper a module away — is caught with a call-chain trace.
#[test]
fn timeline_recording_fns_are_roots_by_name() {
    let files = vec![
        unit(
            "crates/a/src/recorder.rs",
            "/// RPC round tally.\n\
             pub fn record_rpc(to_level: u32) -> u32 {\n\
             \x20   let tag = to_level.to_string();\n\
             \x20   tag.len() as u32\n\
             }\n\
             /// Span close: flushes batched histograms.\n\
             pub fn span_end(c: u32) -> u32 {\n\
             \x20   flush(c)\n\
             }\n",
        ),
        unit(
            "crates/a/src/timeline.rs",
            "/// Current-window accessor.\n\
             pub fn sample_window(w: u32) -> u32 {\n\
             \x20   let v = vec![w];\n\
             \x20   v[0]\n\
             }\n",
        ),
        unit(
            "crates/b/src/scratch.rs",
            "/// Helper one module away that allocates.\n\
             pub fn flush(c: u32) -> u32 {\n\
             \x20   let v = vec![c, c];\n\
             \x20   v[1]\n\
             }\n",
        ),
    ];
    let diags = lint_files(&files);
    let alloc = by_rule(&diags, RULE_HOT_PATH_ALLOC);
    assert_eq!(alloc.len(), 3, "{diags:#?}");
    let direct_rpc = alloc
        .iter()
        .find(|d| d.file == "crates/a/src/recorder.rs")
        .expect("direct to_string under record_rpc flagged");
    assert!(
        direct_rpc.message.contains("record_rpc"),
        "{}",
        direct_rpc.message
    );
    let direct_window = alloc
        .iter()
        .find(|d| d.file == "crates/a/src/timeline.rs")
        .expect("direct vec! under sample_window flagged");
    assert!(
        direct_window.message.contains("sample_window"),
        "{}",
        direct_window.message
    );
    let via_helper = alloc
        .iter()
        .find(|d| d.file == "crates/b/src/scratch.rs")
        .expect("helper alloc under span_end flagged");
    assert!(
        via_helper
            .message
            .contains("span_end (crates/a/src/recorder.rs:7)"),
        "{}",
        via_helper.message
    );
}
