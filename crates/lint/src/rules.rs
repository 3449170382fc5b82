//! The lint rules, the allowlist protocol and the analysis pipeline.
//!
//! Six rule classes guard the source-level preconditions of the repo's
//! headline guarantees that no rustc or clippy lint can check (DESIGN.md
//! §5c and §5g):
//!
//! * [`RULE_DETERMINISM`] — no iteration over `HashMap`/`HashSet` (their
//!   order is seeded per-process, so any result derived from it breaks
//!   the bit-identical-output guarantee), no `Instant::now`/`SystemTime`,
//!   and no ambient/environment RNG in simulator code — `thread_rng`,
//!   `rand::random`, `from_entropy`, `from_os_rng`, `OsRng` are all
//!   flagged so fault injection (`FaultyPlane`) stays replayable from its
//!   scenario seed;
//! * [`RULE_PANIC`] — library code must not `unwrap()`, use `expect`
//!   without a message, or `panic!`/`unreachable!`/`todo!`/
//!   `unimplemented!`; the sanctioned form for unreachable states is
//!   `expect("invariant: …")` with a string-literal message. Sites that
//!   are *reachable from a per-access root* additionally carry the full
//!   call-chain trace in their message;
//! * [`RULE_HOT_PATH_ALLOC`] — *interprocedural*: no function reachable
//!   from a per-access root (`access_into`/`deliver_into`/
//!   `take_crashes_into` bodies, plus `// lint:hot-root` marks) may heap
//!   allocate (`Vec::new`, `vec!`, `.clone()`, `.to_vec()`, `.collect()`
//!   and friends), no matter how many modules away it lives. Variable
//!   -length side effects go through the reusable `AccessScratch`/
//!   `DeliveryBatch` pools (DESIGN.md §5f). Diagnostics carry the call
//!   chain from the root to the allocation site. `// lint:cold-path
//!   reason` prunes deliberate non-steady-state code (crash recovery)
//!   from the traversal;
//! * [`RULE_DEAD_ALLOW`] — a `lint:allow`/`lint:allow-file` comment that
//!   suppresses no diagnostic is stale and must be removed, so the
//!   allowlist stays an accurate inventory of justified exceptions;
//! * [`RULE_PLANE_EXHAUSTIVE`] — enums marked `// lint:exhaustive` (the
//!   plane's `Message` and `RpcFate`) must be matched exhaustively in
//!   every delivery handler (a function calling `deliver`/`deliver_into`/
//!   `rpc`): a handler naming a strict subset of the variants with no
//!   `_ =>` arm silently drops the rest on the floor.
//!
//! A diagnostic is suppressed by an allowlist comment on the same line or
//! the line above the offending code:
//!
//! ```text
//! // lint:allow(determinism) accumulation is order-insensitive
//! for (_, &o) in self.owner.iter() { alloc[o as usize] += 1; }
//! ```
//!
//! `// lint:allow-file(<rule>) reason` suppresses a rule for the whole
//! file. A reason is mandatory; a malformed or reason-less allow comment
//! is itself reported under the `allow-syntax` rule, and an allow that
//! suppresses nothing is reported under `dead-allow`.

use crate::graph::{
    governed, marked, CallGraph, FileUnit, Reachability, COLD_PATH_MARKER, HOT_ROOT_MARKER,
};
use crate::lexer::{Comment, CommentStyle, LexedFile, Token, TokenKind};
use crate::parser::test_token_mask;
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// Rule name: deterministic-iteration and wall-clock/ambient-RNG hygiene.
pub const RULE_DETERMINISM: &str = "determinism";
/// Rule name: panic hygiene in library code.
pub const RULE_PANIC: &str = "panic";
/// Rule name: malformed allowlist comments and dangling markers.
pub const RULE_ALLOW_SYNTAX: &str = "allow-syntax";
/// Rule name: heap allocation reachable from a per-access root.
pub const RULE_HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Rule name: allow comments that suppress nothing.
pub const RULE_DEAD_ALLOW: &str = "dead-allow";
/// Rule name: non-exhaustive plane-message handling.
pub const RULE_PLANE_EXHAUSTIVE: &str = "plane-exhaustive";

/// Every rule the pass knows, in reporting order.
pub const ALL_RULES: [&str; 6] = [
    RULE_DETERMINISM,
    RULE_PANIC,
    RULE_ALLOW_SYNTAX,
    RULE_HOT_PATH_ALLOC,
    RULE_DEAD_ALLOW,
    RULE_PLANE_EXHAUSTIVE,
];

/// Marker comment that places the next enum under the
/// [`RULE_PLANE_EXHAUSTIVE`] contract. Put it directly above the enum's
/// attributes (after the doc comment).
pub const EXHAUSTIVE_MARKER: &str = "lint:exhaustive";

/// One-paragraph explanation per rule, for `--explain=RULE`.
pub fn explain(rule: &str) -> Option<&'static str> {
    match rule {
        RULE_DETERMINISM => Some(
            "Simulator output must be bit-identical for a given trace and seed. \
             Iterating a HashMap/HashSet observes per-process SipHash order, and \
             Instant/SystemTime/thread_rng/rand::random/from_entropy/OsRng read \
             ambient state; both make replays diverge. Use BTreeMap/sorted keys \
             and explicit seeding (StdRng::seed_from_u64).",
        ),
        RULE_PANIC => Some(
            "Library code must not unwrap(), call expect without a string-literal \
             message, or use panic!/unreachable!/todo!/unimplemented!. The \
             sanctioned form for invariant violations is expect(\"invariant: …\"). \
             A site reachable from a per-access root also prints the call chain \
             from the root, since a panic there kills the simulation mid-access.",
        ),
        RULE_ALLOW_SYNTAX => Some(
            "lint:allow(<rule>) / lint:allow-file(<rule>) comments need a known \
             rule name and a non-empty reason; lint:cold-path needs a reason and \
             lint:hot-root/lint:cold-path/lint:exhaustive markers must sit on or \
             directly above the item they govern.",
        ),
        RULE_HOT_PATH_ALLOC => Some(
            "Zero steady-state allocations per access (DESIGN.md §5f): no function \
             transitively reachable from a per-access root — access_into/\
             deliver_into/take_crashes_into/record_event bodies plus \
             // lint:hot-root marks — may heap allocate. The diagnostic prints the call chain from the root \
             to the allocation site. Route variable-length side effects through \
             the pooled AccessScratch/DeliveryBatch buffers, or prune deliberate \
             non-steady-state code (crash recovery) with // lint:cold-path reason.",
        ),
        RULE_DEAD_ALLOW => Some(
            "An allow comment that suppresses no diagnostic is stale: either the \
             violation it justified is gone (delete the comment) or it never \
             matched (fix its placement). Keeping the allowlist live means every \
             surviving allow documents a real, current exception.",
        ),
        RULE_PLANE_EXHAUSTIVE => Some(
            "Enums marked // lint:exhaustive (the plane's Message and RpcFate) \
             must be handled exhaustively in every delivery handler (a fn calling \
             deliver/deliver_into/rpc). A handler naming a strict subset of the \
             variants with no `_ =>` arm silently drops the others — exactly how \
             a new message type rots into a lost-update bug. Add arms, a `_ =>` \
             catch-all, or an allow comment stating why the subset is right.",
        ),
        _ => None,
    }
}

/// How a file participates in the rule set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// A library source file (`crates/*/src/**`, excluding `bin/`):
    /// every rule applies.
    Library,
    /// A binary source file (`src/bin/**`, `src/main.rs`): determinism
    /// applies; panic hygiene does not (a CLI may abort).
    Binary,
}

impl FileKind {
    /// Classifies a repo-relative source path. Tests, benches and
    /// examples are never walked (see [`crate::load_workspace_units`]).
    pub fn classify(path: &str) -> FileKind {
        let p = path.replace('\\', "/");
        if p.contains("/bin/") || p.ends_with("/main.rs") || p == "main.rs" {
            FileKind::Binary
        } else {
            FileKind::Library
        }
    }
}

/// Iteration-producing methods on map types (non-deterministic order).
const MAP_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Map methods whose result is order-independent, allowed in `for` heads.
const MAP_SAFE_METHODS: [&str; 8] = [
    "len",
    "is_empty",
    "get",
    "get_mut",
    "contains_key",
    "contains",
    "entry",
    "capacity",
];

/// One parsed allowlist comment.
#[derive(Clone, Debug)]
pub struct Allow {
    /// The rule this comment suppresses.
    pub rule: String,
    /// `lint:allow-file` form: suppresses the rule everywhere in the file.
    pub whole_file: bool,
    /// Diagnostics on these lines are suppressed (ignored for whole-file).
    pub lines: (usize, usize),
    /// Line of the comment itself — where `dead-allow` reports.
    pub line: usize,
}

/// The pre-suppression output of the per-file rules on one file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Raw diagnostics, before allow suppression.
    pub diags: Vec<Diagnostic>,
    /// The file's parsed allow comments, in source order.
    pub allows: Vec<Allow>,
}

/// Runs every per-file rule on one file. Suppression happens later, in
/// [`lint_units`], so the `dead-allow` rule can see which allows matched.
pub fn analyze_file(unit: &FileUnit) -> FileAnalysis {
    let file = &unit.lexed;
    let path = unit.path.as_str();
    let in_test = test_token_mask(&file.tokens);
    let mut diags = Vec::new();

    let (allows, mut allow_diags) = parse_allows(path, &file.comments);
    diags.append(&mut allow_diags);
    marker_syntax_rule(unit, &mut diags);

    determinism_rule(path, file, &in_test, &mut diags);
    if unit.kind == FileKind::Library {
        panic_rule(path, file, &in_test, &mut diags);
    }
    FileAnalysis { diags, allows }
}

/// The full analysis pipeline over a set of files: per-file rules, the
/// interprocedural reachability rules over the workspace call graph,
/// allow suppression with liveness tracking, and `dead-allow` reporting.
/// Returns the surviving diagnostics sorted by file, line and rule, with
/// stable fingerprints assigned.
pub fn lint_units(units: &[FileUnit]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut allows_by_file: BTreeMap<String, Vec<Allow>> = BTreeMap::new();
    for u in units {
        let a = analyze_file(u);
        diags.extend(a.diags);
        allows_by_file.insert(u.path.clone(), a.allows);
    }

    let graph = CallGraph::build(units);
    let reach = graph.reachable();
    interprocedural_alloc_rule(units, &graph, &reach, &mut diags);
    plane_exhaustive_rule(units, &mut diags);
    annotate_reachable_panics(units, &graph, &reach, &mut diags);

    // Suppression with liveness tracking: an allow is live iff it hides
    // at least one diagnostic.
    let mut used: BTreeMap<String, Vec<bool>> = allows_by_file
        .iter()
        .map(|(f, a)| (f.clone(), vec![false; a.len()]))
        .collect();
    let suppress = |d: &Diagnostic, used: &mut BTreeMap<String, Vec<bool>>| -> bool {
        let Some(allows) = allows_by_file.get(&d.file) else {
            return false;
        };
        let mut hit = false;
        for (i, a) in allows.iter().enumerate() {
            if a.rule == d.rule && (a.whole_file || (a.lines.0 <= d.line && d.line <= a.lines.1)) {
                hit = true;
                if let Some(u) = used.get_mut(&d.file) {
                    u[i] = true;
                }
            }
        }
        hit
    };
    diags.retain(|d| d.rule == RULE_ALLOW_SYNTAX || !suppress(d, &mut used));

    let mut dead = Vec::new();
    for u in units {
        let (Some(allows), Some(live)) = (allows_by_file.get(&u.path), used.get(&u.path)) else {
            continue;
        };
        for (a, &was_used) in allows.iter().zip(live) {
            if !was_used {
                dead.push(Diagnostic::new(
                    &u.path,
                    a.line,
                    RULE_DEAD_ALLOW,
                    &format!(
                        "`lint:allow{}({})` suppresses no diagnostic; remove the stale comment",
                        if a.whole_file { "-file" } else { "" },
                        a.rule
                    ),
                ));
            }
        }
    }
    dead.retain(|d| !suppress(d, &mut used));
    diags.extend(dead);

    diags.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    crate::baseline::assign_fingerprints(&mut diags);
    diags
}

/// Lints one file's source text through the full pipeline (including the
/// interprocedural rules, with the file as the whole workspace). `path`
/// labels the diagnostics and is not opened; `kind` decides which rules
/// run.
pub fn check_source(path: &str, src: &str, kind: FileKind) -> Vec<Diagnostic> {
    lint_units(&[FileUnit::new(path, src, kind)])
}

/// Parses `lint:allow(...)` comments; returns the allows plus syntax
/// diagnostics for malformed ones.
fn parse_allows(path: &str, comments: &[Comment]) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        if c.style != CommentStyle::Line {
            continue;
        }
        let text = c.text.trim();
        let Some(rest) = text
            .strip_prefix("lint:allow-file(")
            .map(|r| (r, true))
            .or_else(|| text.strip_prefix("lint:allow(").map(|r| (r, false)))
        else {
            if text.starts_with("lint:allow") {
                diags.push(Diagnostic::new(
                    path,
                    c.line,
                    RULE_ALLOW_SYNTAX,
                    "malformed allow comment: expected `lint:allow(<rule>) reason`",
                ));
            }
            continue;
        };
        let (rest, whole_file) = rest;
        let Some((rule, reason)) = rest.split_once(')') else {
            diags.push(Diagnostic::new(
                path,
                c.line,
                RULE_ALLOW_SYNTAX,
                "unclosed rule name in allow comment",
            ));
            continue;
        };
        let rule = rule.trim();
        if !ALL_RULES.contains(&rule) {
            diags.push(Diagnostic::new(
                path,
                c.line,
                RULE_ALLOW_SYNTAX,
                &format!("unknown rule `{rule}` in allow comment"),
            ));
            continue;
        }
        if reason.trim().is_empty() {
            diags.push(Diagnostic::new(
                path,
                c.line,
                RULE_ALLOW_SYNTAX,
                &format!("allow comment for `{rule}` needs a reason"),
            ));
            continue;
        }
        allows.push(Allow {
            rule: rule.to_string(),
            whole_file,
            // Covers its own line (trailing style) and the next (banner
            // style above the offending statement).
            lines: (c.line, c.end_line + 1),
            line: c.line,
        });
    }
    (allows, diags)
}

/// Validates the graph markers: `lint:hot-root` and `lint:cold-path`
/// must govern a function (same line or within three lines above it),
/// `lint:cold-path` needs a reason, and `lint:exhaustive` must govern an
/// enum. A dangling marker silently changes nothing — that is exactly
/// the failure mode worth a diagnostic.
fn marker_syntax_rule(unit: &FileUnit, diags: &mut Vec<Diagnostic>) {
    for c in &unit.lexed.comments {
        let text = c.text.trim();
        let (marker, wants_fn) = if text.starts_with(COLD_PATH_MARKER) {
            (COLD_PATH_MARKER, true)
        } else if text.starts_with(HOT_ROOT_MARKER) {
            (HOT_ROOT_MARKER, true)
        } else if text.starts_with(EXHAUSTIVE_MARKER) {
            (EXHAUSTIVE_MARKER, false)
        } else {
            continue;
        };
        if marker == COLD_PATH_MARKER && text[COLD_PATH_MARKER.len()..].trim().is_empty() {
            diags.push(Diagnostic::new(
                &unit.path,
                c.line,
                RULE_ALLOW_SYNTAX,
                "`lint:cold-path` weakens the zero-alloc contract and needs a reason",
            ));
        }
        let anchor = [(c.line, c.end_line)];
        let bound = if wants_fn {
            unit.parsed.fns.iter().any(|f| marked(&anchor, f.line))
        } else {
            unit.parsed.enums.iter().any(|e| marked(&anchor, e.line))
        };
        if !bound {
            diags.push(Diagnostic::new(
                &unit.path,
                c.line,
                RULE_ALLOW_SYNTAX,
                &format!(
                    "dangling `{marker}` marker: no {} starts on this line or within \
                     three lines below",
                    if wants_fn { "function" } else { "enum" }
                ),
            ));
        }
    }
}

/// Names bound to `HashMap`/`HashSet` values in this file: struct fields,
/// `let` bindings and parameters, found from type ascriptions
/// (`name: HashMap<…>`) and constructor assignments
/// (`name = HashMap::new()`).
fn map_typed_names(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over `&`, `mut` and path prefixes to the binding site.
        let mut j = i;
        while j > 0 {
            let prev = &tokens[j - 1];
            if prev.is_punct('&') || prev.is_ident("mut") || prev.kind == TokenKind::Lifetime {
                j -= 1;
            } else if prev.is_punct(':') && j >= 2 && tokens[j - 2].is_punct(':') {
                // `std::collections::HashMap` — step over the whole path.
                j -= 2;
                while j > 0 && tokens[j - 1].kind == TokenKind::Ident {
                    if j >= 3 && tokens[j - 2].is_punct(':') && tokens[j - 3].is_punct(':') {
                        j -= 3;
                    } else {
                        j -= 1;
                        break;
                    }
                }
            } else {
                break;
            }
        }
        if j >= 2 && tokens[j - 1].is_punct(':') && tokens[j - 2].kind == TokenKind::Ident {
            // `name: HashMap<…>` (field, param or struct-literal init).
            names.insert(tokens[j - 2].text.clone());
        } else if j >= 2 && tokens[j - 1].is_punct('=') && tokens[j - 2].kind == TokenKind::Ident {
            // `name = HashMap::new()` / `= HashMap::from(…)`.
            names.insert(tokens[j - 2].text.clone());
        }
    }
    names
}

fn determinism_rule(path: &str, file: &LexedFile, in_test: &[bool], diags: &mut Vec<Diagnostic>) {
    let tokens = &file.tokens;
    let maps = map_typed_names(tokens);
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        // Wall clocks and ambient RNG.
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            let is_now_call = tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && tokens.get(i + 3).is_some_and(|t| t.is_ident("now"));
            if is_now_call || t.is_ident("SystemTime") {
                diags.push(Diagnostic::new(
                    path,
                    t.line,
                    RULE_DETERMINISM,
                    &format!(
                        "`{}` reads the wall clock; simulator outputs must not depend on it",
                        t.text
                    ),
                ));
            }
            continue;
        }
        if t.is_ident("thread_rng") {
            diags.push(Diagnostic::new(
                path,
                t.line,
                RULE_DETERMINISM,
                "`thread_rng` is unseeded; use `ulc_trace::seeded_rng` instead",
            ));
            continue;
        }
        // Non-vendored entropy sources: anything that seeds from the
        // environment makes a `FaultScenario` (and any simulator output
        // derived from it) unreproducible.
        if t.is_ident("from_entropy") || t.is_ident("from_os_rng") || t.is_ident("OsRng") {
            diags.push(Diagnostic::new(
                path,
                t.line,
                RULE_DETERMINISM,
                &format!(
                    "`{}` seeds from the environment; fault planes and simulators \
                     must seed explicitly (`StdRng::seed_from_u64`)",
                    t.text
                ),
            ));
            continue;
        }
        // `rand::random()` — ambient thread-local RNG by another name.
        if t.is_ident("random")
            && i >= 3
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].is_ident("rand")
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.is_punct('(') || n.is_punct(':'))
        {
            diags.push(Diagnostic::new(
                path,
                t.line,
                RULE_DETERMINISM,
                "`rand::random` draws from the ambient thread RNG; seed explicitly instead",
            ));
            continue;
        }
        // `map.iter()`-family calls on known map-typed names.
        if t.kind == TokenKind::Ident
            && maps.contains(&t.text)
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('.'))
        {
            if let Some(m) = tokens.get(i + 2) {
                if MAP_ITER_METHODS.contains(&m.text.as_str())
                    && tokens.get(i + 3).is_some_and(|p| p.is_punct('('))
                {
                    diags.push(Diagnostic::new(
                        path,
                        m.line,
                        RULE_DETERMINISM,
                        &format!(
                            "`{}.{}()` iterates a HashMap/HashSet in non-deterministic order; \
                             use a BTreeMap/sorted keys or justify with an allow comment",
                            t.text, m.text
                        ),
                    ));
                }
            }
        }
        // `for … in map { … }` / `for … in &map { … }` over a bare map.
        if t.is_ident("for") {
            let Some(in_idx) = tokens[i..]
                .iter()
                .position(|x| x.is_ident("in"))
                .map(|p| p + i)
            else {
                continue;
            };
            let mut k = in_idx + 1;
            let mut depth = 0usize;
            while let Some(x) = tokens.get(k) {
                if depth == 0 && x.is_punct('{') {
                    break;
                }
                match () {
                    _ if x.is_punct('(') || x.is_punct('[') || x.is_punct('{') => depth += 1,
                    _ if x.is_punct(')') || x.is_punct(']') || x.is_punct('}') => {
                        depth = depth.saturating_sub(1)
                    }
                    _ => {}
                }
                if depth == 0 && x.kind == TokenKind::Ident && maps.contains(&x.text) {
                    let followed_by_dot = tokens.get(k + 1).is_some_and(|n| n.is_punct('.'));
                    let safe_call = followed_by_dot
                        && tokens
                            .get(k + 2)
                            .is_some_and(|m| MAP_SAFE_METHODS.contains(&m.text.as_str()));
                    if !followed_by_dot {
                        diags.push(Diagnostic::new(
                            path,
                            x.line,
                            RULE_DETERMINISM,
                            &format!(
                                "`for … in {}` iterates a HashMap/HashSet in \
                                 non-deterministic order",
                                x.text
                            ),
                        ));
                    } else if !safe_call {
                        // `map.iter()` inside a for-head is caught by the
                        // method check above; anything else unknown is
                        // left alone to avoid false positives.
                    }
                }
                k += 1;
            }
        }
    }
}

/// Allocating methods (called as `.name(...)`) forbidden on the per-access
/// call tree.
const ALLOC_METHODS: [&str; 5] = ["clone", "to_vec", "to_owned", "to_string", "collect"];

/// Owner types whose `new`/`with_capacity`/`from` constructors allocate.
const ALLOC_TYPES: [&str; 4] = ["Vec", "VecDeque", "Box", "String"];

/// Allocation sites inside `tokens[bo..=bc]` as `(line, description)`:
/// allocating method calls, `vec!`/`format!` invocations and allocating
/// constructors.
fn alloc_sites(tokens: &[Token], bo: usize, bc: usize) -> Vec<(usize, String)> {
    let mut sites = Vec::new();
    for k in bo + 1..bc {
        let x = &tokens[k];
        if x.kind != TokenKind::Ident {
            continue;
        }
        let next_is = |p: char| tokens.get(k + 1).is_some_and(|t| t.is_punct(p));
        if tokens[k - 1].is_punct('.') && next_is('(') && ALLOC_METHODS.contains(&x.text.as_str()) {
            sites.push((x.line, format!(".{}()", x.text)));
        } else if (x.is_ident("vec") || x.is_ident("format")) && next_is('!') {
            sites.push((x.line, format!("{}!", x.text)));
        } else if ALLOC_TYPES.contains(&x.text.as_str())
            && next_is(':')
            && tokens.get(k + 2).is_some_and(|t| t.is_punct(':'))
            && tokens.get(k + 3).is_some_and(|m| {
                m.is_ident("new") || m.is_ident("with_capacity") || m.is_ident("from")
            })
        {
            sites.push((x.line, format!("{}::{}", x.text, tokens[k + 3].text)));
        }
    }
    sites
}

/// Renders a discovery chain as `root (file:line) → … → leaf (file:line)`.
fn format_chain(hops: &[(String, String, usize)]) -> String {
    let parts: Vec<String> = hops
        .iter()
        .map(|(label, file, line)| format!("{label} ({file}:{line})"))
        .collect();
    parts.join(" → ")
}

/// The interprocedural zero-allocation rule: scans the body of every
/// function reachable from a per-access root for allocation sites and
/// reports each with the full call chain from the root (DESIGN.md §5g).
fn interprocedural_alloc_rule(
    units: &[FileUnit],
    graph: &CallGraph,
    reach: &Reachability,
    diags: &mut Vec<Diagnostic>,
) {
    let mut seen = BTreeSet::new();
    for &id in &reach.order {
        let node = &graph.nodes[id];
        let unit = &units[node.file];
        let chain = graph.chain(units, reach, id);
        for (line, desc) in alloc_sites(&unit.lexed.tokens, node.body.0, node.body.1) {
            if !seen.insert((node.file, line, desc.clone())) {
                continue;
            }
            diags.push(Diagnostic::new(
                &unit.path,
                line,
                RULE_HOT_PATH_ALLOC,
                &format!(
                    "`{desc}` allocates on a per-access path: {} → `{desc}` ({}:{line}); \
                     route it through the pooled scratch/outcome buffers (DESIGN.md §5f, §5g)",
                    format_chain(&chain),
                    unit.path,
                ),
            ));
        }
    }
}

/// Handler-marking call names for the [`RULE_PLANE_EXHAUSTIVE`] rule.
const DELIVERY_CALLS: [&str; 3] = ["deliver", "deliver_into", "rpc"];

/// The plane-exhaustiveness rule: every enum marked `lint:exhaustive`
/// must be fully handled in each delivery handler that names any of its
/// variants; a bare `_ =>` arm anywhere in the handler counts as the
/// catch-all.
fn plane_exhaustive_rule(units: &[FileUnit], diags: &mut Vec<Diagnostic>) {
    let mut watched: Vec<(String, Vec<String>)> = Vec::new();
    for u in units {
        let marks: Vec<(usize, usize)> = u
            .lexed
            .comments
            .iter()
            .filter(|c| c.text.trim().starts_with(EXHAUSTIVE_MARKER))
            .map(|c| (c.line, c.end_line))
            .collect();
        if marks.is_empty() {
            continue;
        }
        let enum_lines: Vec<usize> = u.parsed.enums.iter().map(|e| e.line).collect();
        let gov = governed(&marks, &enum_lines);
        for e in &u.parsed.enums {
            if gov.contains(&e.line) {
                watched.push((
                    e.name.clone(),
                    e.variants.iter().map(|(v, _)| v.clone()).collect(),
                ));
            }
        }
    }
    if watched.is_empty() {
        return;
    }
    for u in units {
        if u.kind != FileKind::Library {
            continue;
        }
        let tokens = &u.lexed.tokens;
        for f in &u.parsed.fns {
            let Some((bo, bc)) = f.body else { continue };
            if f.in_test {
                continue;
            }
            let mut is_handler = false;
            let mut wildcard = false;
            for k in bo + 1..bc {
                let t = &tokens[k];
                if t.kind == TokenKind::Ident
                    && DELIVERY_CALLS.contains(&t.text.as_str())
                    && tokens.get(k + 1).is_some_and(|n| n.is_punct('('))
                {
                    is_handler = true;
                }
                // `_ =>` or a bare lowercase binding arm (`fate => …`,
                // after `{`, `}` or `,`) catches every variant.
                if tokens.get(k + 1).is_some_and(|n| n.is_punct('='))
                    && tokens.get(k + 2).is_some_and(|n| n.is_punct('>'))
                {
                    let binding = t.kind == TokenKind::Ident
                        && t.text
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_ascii_lowercase())
                        && (tokens[k - 1].is_punct('{')
                            || tokens[k - 1].is_punct('}')
                            || tokens[k - 1].is_punct(','));
                    if t.is_ident("_") || binding {
                        wildcard = true;
                    }
                }
            }
            if !is_handler || wildcard {
                continue;
            }
            for (ename, variants) in &watched {
                let mut mentioned = BTreeSet::new();
                let mut first_line = None;
                for k in bo + 1..bc {
                    if tokens[k].is_ident(ename)
                        && tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
                        && tokens.get(k + 2).is_some_and(|n| n.is_punct(':'))
                    {
                        if let Some(v) = tokens.get(k + 3) {
                            if variants.iter().any(|x| v.is_ident(x)) {
                                mentioned.insert(v.text.clone());
                                first_line.get_or_insert(tokens[k].line);
                            }
                        }
                    }
                }
                if mentioned.is_empty() || mentioned.len() == variants.len() {
                    continue;
                }
                let missing: Vec<&str> = variants
                    .iter()
                    .filter(|v| !mentioned.contains(*v))
                    .map(|v| v.as_str())
                    .collect();
                diags.push(Diagnostic::new(
                    &u.path,
                    first_line.unwrap_or(f.line),
                    RULE_PLANE_EXHAUSTIVE,
                    &format!(
                        "delivery handler `{}` names {} of `{ename}` but never `{}` and has \
                         no `_ =>` arm; handle every variant or justify with an allow comment",
                        f.name,
                        mentioned
                            .iter()
                            .map(|v| format!("`{v}`"))
                            .collect::<Vec<_>>()
                            .join(", "),
                        missing.join("`, `"),
                    ),
                ));
            }
        }
    }
}

/// Appends the call chain from a per-access root to every panic
/// diagnostic whose site sits inside a reachable function body: a panic
/// there kills the simulation mid-access, so the trace shows exactly
/// which entry point is exposed.
fn annotate_reachable_panics(
    units: &[FileUnit],
    graph: &CallGraph,
    reach: &Reachability,
    diags: &mut [Diagnostic],
) {
    let unit_of: BTreeMap<&str, usize> = units
        .iter()
        .enumerate()
        .map(|(i, u)| (u.path.as_str(), i))
        .collect();
    for d in diags.iter_mut() {
        if d.rule != RULE_PANIC {
            continue;
        }
        let Some(&fi) = unit_of.get(d.file.as_str()) else {
            continue;
        };
        let tokens = &units[fi].lexed.tokens;
        // Innermost reachable node whose body line span contains the site.
        let mut best: Option<(usize, usize)> = None; // (span, node)
        for &id in reach.order.iter() {
            let n = &graph.nodes[id];
            if n.file != fi {
                continue;
            }
            let (lo, hi) = (tokens[n.body.0].line, tokens[n.body.1].line);
            if lo <= d.line && d.line <= hi {
                let span = hi - lo;
                if best.is_none_or(|(s, _)| span < s) {
                    best = Some((span, id));
                }
            }
        }
        if let Some((_, id)) = best {
            let chain = graph.chain(units, reach, id);
            d.message.push_str(&format!(
                "; reachable from a per-access root: {}",
                format_chain(&chain)
            ));
        }
    }
}

fn panic_rule(path: &str, file: &LexedFile, in_test: &[bool], diags: &mut Vec<Diagnostic>) {
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] || t.kind != TokenKind::Ident {
            continue;
        }
        let preceded_by_dot = i > 0 && tokens[i - 1].is_punct('.');
        if preceded_by_dot
            && t.text == "unwrap"
            && tokens.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            diags.push(Diagnostic::new(
                path,
                t.line,
                RULE_PANIC,
                "`unwrap()` in library code; use `expect(\"invariant: …\")` or return an error",
            ));
            continue;
        }
        if preceded_by_dot
            && t.text == "expect"
            && tokens.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            let arg = tokens.get(i + 2);
            let documented = arg.is_some_and(|a| a.kind == TokenKind::Str && a.text.len() > 2);
            if !documented {
                diags.push(Diagnostic::new(
                    path,
                    t.line,
                    RULE_PANIC,
                    "`expect` needs a string-literal message documenting the invariant",
                ));
            }
            continue;
        }
        if ["panic", "unreachable", "todo", "unimplemented"].contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|p| p.is_punct('!'))
            && !preceded_by_dot
        {
            diags.push(Diagnostic::new(
                path,
                t.line,
                RULE_PANIC,
                &format!(
                    "`{}!` in library code; prefer an assert with a message or an error return",
                    t.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        check_source("x.rs", src, FileKind::Library)
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn classify_paths() {
        assert_eq!(
            FileKind::classify("crates/cache/src/lru.rs"),
            FileKind::Library
        );
        assert_eq!(
            FileKind::classify("crates/bench/src/bin/fig1.rs"),
            FileKind::Binary
        );
        assert_eq!(FileKind::classify("src/lib.rs"), FileKind::Library);
    }

    #[test]
    fn hashmap_iteration_is_flagged() {
        let src = "struct S { m: HashMap<u32, u32> }\nimpl S { fn f(&self) { for v in self.m.values() { let _ = v; } } }\n";
        let d = lint(src);
        assert_eq!(rules_of(&d), [RULE_DETERMINISM]);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn bare_for_over_map_is_flagged() {
        let src = "fn f() { let m = HashMap::new(); for (k, v) in &m { let _ = (k, v); } }\n";
        let d = lint(src);
        assert_eq!(rules_of(&d), [RULE_DETERMINISM]);
    }

    #[test]
    fn deterministic_map_use_is_clean() {
        let src =
            "fn f() { let m: HashMap<u32, u32> = HashMap::new(); let _ = m.get(&1); let _ = m.len(); }\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn vec_iteration_is_clean() {
        let src = "fn f(v: &Vec<u32>) -> u32 { v.iter().sum() }\n";
        let d: Vec<_> = lint(src)
            .into_iter()
            .filter(|d| d.rule == RULE_DETERMINISM)
            .collect();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn clock_and_thread_rng_are_flagged() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); let _ = (t, r); }\n";
        assert_eq!(rules_of(&lint(src)), [RULE_DETERMINISM, RULE_DETERMINISM]);
    }

    #[test]
    fn environment_rng_seeding_is_flagged() {
        // The FaultyPlane determinism rule: any entropy source outside
        // the seeded scenario makes fault injection unreplayable.
        let src = "fn f() { let a = StdRng::from_entropy(); let b = StdRng::from_os_rng(); let c = OsRng; let _ = (a, b, c); }\n";
        assert_eq!(
            rules_of(&lint(src)),
            [RULE_DETERMINISM, RULE_DETERMINISM, RULE_DETERMINISM]
        );
    }

    #[test]
    fn ambient_rand_random_is_flagged() {
        let src = "fn f() -> u64 { rand::random() }\n";
        assert_eq!(rules_of(&lint(src)), [RULE_DETERMINISM]);
    }

    #[test]
    fn seeded_rng_is_clean() {
        let src = "fn f() { let r = StdRng::seed_from_u64(7); let _ = r; }\n";
        let d: Vec<_> = lint(src)
            .into_iter()
            .filter(|d| d.rule == RULE_DETERMINISM)
            .collect();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_comment_suppresses_next_line() {
        let src = "fn f() { let m = HashMap::new();\n// lint:allow(determinism) order-insensitive fold\nfor v in &m { let _ = v; } }\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_reported() {
        let src = "// lint:allow(determinism)\nfn f() {}\n";
        assert_eq!(rules_of(&lint(src)), [RULE_ALLOW_SYNTAX]);
    }

    #[test]
    fn allow_unknown_rule_is_reported() {
        let src = "// lint:allow(made-up) because\nfn f() {}\n";
        assert_eq!(rules_of(&lint(src)), [RULE_ALLOW_SYNTAX]);
    }

    #[test]
    fn unused_allow_is_dead() {
        let src = "// lint:allow(panic) nothing here panics any more\nfn f() -> u8 { 1 }\n";
        let d = lint(src);
        assert_eq!(rules_of(&d), [RULE_DEAD_ALLOW]);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn live_allow_is_not_dead() {
        let src = "fn f(x: Option<u8>) -> u8 {\n// lint:allow(panic) prototype; tracked in ROADMAP\nx.unwrap() }\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn dead_allow_fires_in_binaries() {
        // Binary files skip the panic rule entirely, so a panic allow
        // there can never suppress anything — it is decorative.
        let src = "// lint:allow(panic) CLI may abort\nfn main() {}\n";
        let d = check_source("crates/bench/src/bin/t.rs", src, FileKind::Binary);
        assert_eq!(rules_of(&d), [RULE_DEAD_ALLOW]);
    }

    #[test]
    fn unwrap_and_bare_expect_are_flagged() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g(x: Option<u8>, m: String) -> u8 { x.expect(&m) }\n";
        assert_eq!(rules_of(&lint(src)), [RULE_PANIC, RULE_PANIC]);
    }

    #[test]
    fn expect_with_message_is_clean() {
        let src = "fn f(x: Option<u8>) -> u8 { x.expect(\"invariant: present\") }\n";
        let d: Vec<_> = lint(src)
            .into_iter()
            .filter(|d| d.rule == RULE_PANIC)
            .collect();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn panic_macros_are_flagged() {
        let src = "fn f() { panic!(\"boom\") }\nfn g() { unreachable!() }\n";
        assert_eq!(rules_of(&lint(src)), [RULE_PANIC, RULE_PANIC]);
    }

    #[test]
    fn panic_on_access_path_carries_call_chain() {
        let src = "fn access_into(b: u32) { helper(b); }\nfn helper(b: u32) { if b > 9 { panic!(\"big\") } }\n";
        let d: Vec<_> = lint(src)
            .into_iter()
            .filter(|d| d.rule == RULE_PANIC)
            .collect();
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message
                .contains("access_into (x.rs:1) → helper (x.rs:1)"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u8>) -> u8 { x.unwrap() }\n    fn g() { let m = HashMap::new(); for v in &m { let _ = v; } }\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn test_fn_attr_is_exempt() {
        let src = "#[test]\nfn f() { let x: Option<u8> = None; x.unwrap(); }\n";
        let d: Vec<_> = lint(src)
            .into_iter()
            .filter(|d| d.rule == RULE_PANIC)
            .collect();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn binary_kind_skips_panic() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(check_source("src/bin/t.rs", src, FileKind::Binary).is_empty());
    }

    #[test]
    fn allow_file_suppresses_everywhere() {
        let src = "// lint:allow-file(panic) exploratory tool\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let d: Vec<_> = lint(src)
            .into_iter()
            .filter(|d| d.rule == RULE_PANIC || d.rule == RULE_DEAD_ALLOW)
            .collect();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn alloc_in_root_body_is_flagged_with_chain() {
        let src = "impl S { fn access_into(&mut self, b: u32) { let d = self.buf.clone(); let _ = d; } }\n";
        let d: Vec<_> = check_source("crates/core/src/stack.rs", src, FileKind::Library)
            .into_iter()
            .filter(|d| d.rule == RULE_HOT_PATH_ALLOC)
            .collect();
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("S::access_into"), "{}", d[0].message);
    }

    #[test]
    fn alloc_in_transitive_helper_is_flagged() {
        let src = "fn deliver_into(q: u32) { step(q); }\nfn step(q: u32) { grow(q); }\nfn grow(_q: u32) { let v: Vec<u32> = Vec::new(); let _ = v; }\n";
        let d: Vec<_> = lint(src)
            .into_iter()
            .filter(|d| d.rule == RULE_HOT_PATH_ALLOC)
            .collect();
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
        assert!(
            d[0].message
                .contains("deliver_into (x.rs:1) → step (x.rs:1) → grow (x.rs:2)"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn hot_root_marker_adds_a_root() {
        let src = "// lint:hot-root pump runs per tick on the steady path\nfn pump() { let a = vec![0u32; 4]; let _ = a; }\n";
        let d: Vec<_> = lint(src)
            .into_iter()
            .filter(|d| d.rule == RULE_HOT_PATH_ALLOC)
            .collect();
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn cold_path_marker_prunes_and_needs_reason() {
        let clean = "fn access_into(b: u32) { rebuild(b); }\n// lint:cold-path crash recovery allocates by design\nfn rebuild(_b: u32) { let v = vec![0u32; 4]; let _ = v; }\n";
        let d = lint(clean);
        assert!(d.is_empty(), "{d:?}");
        let reasonless =
            "fn access_into(b: u32) { rebuild(b); }\n// lint:cold-path\nfn rebuild(_b: u32) {}\n";
        let d = lint(reasonless);
        assert_eq!(rules_of(&d), [RULE_ALLOW_SYNTAX]);
    }

    #[test]
    fn dangling_markers_are_reported() {
        let src = "// lint:hot-root nothing follows\nstruct S;\n";
        assert_eq!(rules_of(&lint(src)), [RULE_ALLOW_SYNTAX]);
    }

    #[test]
    fn alloc_off_the_access_tree_is_clean() {
        // Constructors and unreachable helpers may allocate freely.
        let src =
            "fn new() -> Vec<u32> { Vec::new() }\nfn access(b: u32) -> Vec<u32> { vec![b] }\n";
        let d: Vec<_> = lint(src)
            .into_iter()
            .filter(|d| d.rule == RULE_HOT_PATH_ALLOC)
            .collect();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn hot_alloc_allow_comment_suppresses_at_site() {
        let src = "fn access_into(b: u32) -> u32 {\n    // lint:allow(hot-path-alloc) resize is warm-up only; steady state hits capacity\n    let v: Vec<u32> = Vec::with_capacity(b as usize);\n    v.len() as u32\n}\n";
        let d: Vec<_> = lint(src)
            .into_iter()
            .filter(|d| d.rule == RULE_HOT_PATH_ALLOC || d.rule == RULE_ALLOW_SYNTAX)
            .collect();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn hot_alloc_trait_signature_without_body_is_clean() {
        let src =
            "pub trait P {\n    /// Doc.\n    fn access_into(&mut self, out: &mut Vec<u32>);\n}\n";
        let d: Vec<_> = check_source("crates/hierarchy/src/plane.rs", src, FileKind::Library)
            .into_iter()
            .filter(|d| d.rule == RULE_HOT_PATH_ALLOC)
            .collect();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn hot_alloc_test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn access_into(b: u32) { let v = vec![b]; let _ = v.clone(); }\n}\n";
        let d: Vec<_> = check_source("crates/core/src/single.rs", src, FileKind::Library)
            .into_iter()
            .filter(|d| d.rule == RULE_HOT_PATH_ALLOC)
            .collect();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn plane_exhaustive_flags_missing_variants() {
        let src = "// lint:exhaustive\nenum Fate { A, B, C }\nfn pump(p: u32) {\n    deliver(p);\n    if let Fate::A = f() {}\n}\nfn f() -> Fate { Fate::A }\n";
        let d: Vec<_> = lint(src)
            .into_iter()
            .filter(|d| d.rule == RULE_PLANE_EXHAUSTIVE)
            .collect();
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`B`"), "{}", d[0].message);
        assert!(d[0].message.contains("`C`"), "{}", d[0].message);
    }

    #[test]
    fn plane_exhaustive_wildcard_and_full_match_are_clean() {
        let full = "// lint:exhaustive\nenum Fate { A, B }\nfn pump(p: u32) { deliver(p); match f() { Fate::A => {}, Fate::B => {} } }\nfn f() -> Fate { Fate::A }\n";
        let d: Vec<_> = lint(full)
            .into_iter()
            .filter(|d| d.rule == RULE_PLANE_EXHAUSTIVE)
            .collect();
        assert!(d.is_empty(), "{d:?}");
        let wild = "// lint:exhaustive\nenum Fate { A, B }\nfn pump(p: u32) { deliver(p); match f() { Fate::A => {}, _ => {} } }\nfn f() -> Fate { Fate::A }\n";
        let d: Vec<_> = lint(wild)
            .into_iter()
            .filter(|d| d.rule == RULE_PLANE_EXHAUSTIVE)
            .collect();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn plane_exhaustive_ignores_non_handlers() {
        // A fn that names variants but never touches the plane is not a
        // delivery handler.
        let src = "// lint:exhaustive\nenum Fate { A, B }\nfn observe() -> bool { matches!(f(), Fate::A) }\nfn f() -> Fate { Fate::A }\n";
        let d: Vec<_> = lint(src)
            .into_iter()
            .filter(|d| d.rule == RULE_PLANE_EXHAUSTIVE)
            .collect();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn string_contents_do_not_trip_rules() {
        let src = "fn f() -> &'static str { \"call .unwrap() and panic! on HashMap\" }\n";
        let d: Vec<_> = lint(src)
            .into_iter()
            .filter(|d| d.rule == RULE_PANIC || d.rule == RULE_DETERMINISM)
            .collect();
        assert!(d.is_empty(), "{d:?}");
    }
}
