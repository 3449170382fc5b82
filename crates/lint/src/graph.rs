//! Workspace symbol table, conservative call graph and reachability.
//!
//! The zero-allocation and panic-free contracts are properties of the
//! *per-access call tree*, not of any fixed file list: a root like
//! `access_into` must not reach an allocating helper no matter how many
//! modules away it lives (DESIGN.md §5g). This module builds the graph
//! those rules walk:
//!
//! * a **symbol table** over every parsed library file (free functions,
//!   inherent and trait methods, struct field types);
//! * **call edges** resolved by name, with impl-receiver disambiguation
//!   where the receiver's type is syntactically known (`self.field.m()`
//!   through the struct table, `let x: Ty` / `Ty::new()` locals, `Ty::m`
//!   paths) and a conservative *all-functions-of-that-name* fallback
//!   everywhere else — so the graph over-approximates and reachability
//!   findings never silently miss a call;
//! * **trait-method edges**: a call resolving to a trait method connects
//!   to the declaration's default body and to every implementor;
//! * **root discovery**: per-access roots are every [`ROOT_FN_NAMES`]
//!   body (`access_into`, the plane delivery fns, the obs recording path
//!   and the sharded executor's epoch loops) plus any function carrying
//!   a `// lint:hot-root` marker; a `// lint:cold-path(reason)` marker
//!   prunes traversal into deliberate non-steady-state code (crash
//!   recovery, reconciliation) that allocates by design.
//!
//! Reachability is a deterministic multi-source BFS that records, for
//! every reachable function, the first parent and call line that
//! discovered it — the spine of the `root → helper → site` call-chain
//! traces in the diagnostics.

use crate::lexer::{lex, LexedFile, Token, TokenKind};
use crate::parser::{parse, ParsedFile};
use crate::rules::FileKind;
use std::collections::{BTreeMap, BTreeSet};

/// Function names that are per-access roots by convention: the pooled
/// scratch-engine entry points of every protocol and message plane, the
/// observability recording path (`RingRecorder::record_event`, plus the
/// time-resolved additions of DESIGN.md §5j — `record_rpc` on every RPC
/// round, `sample_window` on every timeline mutation, `span_end` on
/// every span close) whose steady-state bodies must stay
/// allocation-free with a recorder and timeline attached (DESIGN.md
/// §5h/§5j), and the sharded replay executor's per-epoch inner loops
/// (`advance_client_run` on the worker side, `commit_epoch` on the
/// deterministic commit side — DESIGN.md §5i), which run once per
/// reference and are held to the same bar.
pub const ROOT_FN_NAMES: [&str; 9] = [
    "access_into",
    "deliver_into",
    "take_crashes_into",
    "record_event",
    "record_rpc",
    "sample_window",
    "span_end",
    "advance_client_run",
    "commit_epoch",
];

/// Marker comment that adds the next function to the root set.
pub const HOT_ROOT_MARKER: &str = "lint:hot-root";

/// Marker comment that prunes traversal into the next function (with a
/// mandatory reason): crash-recovery and reconciliation paths allocate
/// by design and are not steady state.
pub const COLD_PATH_MARKER: &str = "lint:cold-path";

/// One analysed source file, as the graph consumes it.
#[derive(Clone, Debug)]
pub struct FileUnit {
    /// Repo-relative path (diagnostic label).
    pub path: String,
    /// Rule-set classification of the file.
    pub kind: FileKind,
    /// The lexed token/comment streams.
    pub lexed: LexedFile,
    /// The parsed item skeleton.
    pub parsed: ParsedFile,
}

impl FileUnit {
    /// Lexes and parses `src` into an analysis unit labelled `path`.
    pub fn new(path: &str, src: &str, kind: FileKind) -> FileUnit {
        let lexed = lex(src);
        let parsed = parse(&lexed);
        FileUnit {
            path: path.to_string(),
            kind,
            lexed,
            parsed,
        }
    }
}

/// Graph node index.
pub type NodeId = usize;

/// One call-graph node: a function body in a library file.
#[derive(Clone, Debug)]
pub struct Node {
    /// Index of the owning file in the `FileUnit` slice.
    pub file: usize,
    /// Index of the function in that file's `ParsedFile::fns`.
    pub item: usize,
    /// The function name.
    pub name: String,
    /// The enclosing impl/trait type, if any.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Body token range (open brace, close brace).
    pub body: (usize, usize),
    /// Whether this node is a per-access root (by name or marker).
    pub is_root: bool,
    /// Whether a `lint:cold-path` marker prunes traversal here.
    pub is_cold: bool,
}

impl Node {
    /// Display label: `Type::name` or plain `name`.
    pub fn label(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All nodes, in (file, item) order.
    pub nodes: Vec<Node>,
    /// Outgoing edges per node as `(callee, call line)`, sorted and
    /// deduplicated.
    pub edges: Vec<Vec<(NodeId, usize)>>,
    /// Root node ids, sorted.
    pub roots: Vec<NodeId>,
}

/// Where a reachable node was first discovered from.
#[derive(Clone, Copy, Debug)]
pub struct Provenance {
    /// The discovering caller (`None` for roots).
    pub parent: Option<NodeId>,
    /// Line of the discovering call site (the root's own line for roots).
    pub call_line: usize,
}

/// The reachable set of the graph, with discovery provenance.
#[derive(Debug, Default)]
pub struct Reachability {
    /// Reachable nodes in BFS discovery order.
    pub order: Vec<NodeId>,
    /// Provenance per reachable node.
    pub provenance: BTreeMap<NodeId, Provenance>,
}

impl Reachability {
    /// Whether `node` is reachable from any root.
    pub fn contains(&self, node: NodeId) -> bool {
        self.provenance.contains_key(&node)
    }
}

/// Keywords that look like calls (`if (…)`) but are not.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "move", "fn", "let",
];

impl CallGraph {
    /// Builds the symbol table and call graph over `files`. Only
    /// non-test functions with bodies in [`FileKind::Library`] files
    /// become nodes: tests and binaries call *into* the engine, never
    /// the other way around, so including them would only manufacture
    /// false name-collision paths.
    pub fn build(files: &[FileUnit]) -> CallGraph {
        let mut g = CallGraph::default();
        // ---- nodes -------------------------------------------------
        for (fi, f) in files.iter().enumerate() {
            if f.kind != FileKind::Library {
                continue;
            }
            let (hot_marks, cold_marks) = marker_lines(f);
            let fn_lines: Vec<usize> = f.parsed.fns.iter().map(|x| x.line).collect();
            let hot_gov = governed(&hot_marks, &fn_lines);
            let cold_gov = governed(&cold_marks, &fn_lines);
            for (ii, item) in f.parsed.fns.iter().enumerate() {
                let Some(body) = item.body else { continue };
                if item.in_test {
                    continue;
                }
                let is_root =
                    ROOT_FN_NAMES.contains(&item.name.as_str()) || hot_gov.contains(&item.line);
                let is_cold = cold_gov.contains(&item.line);
                g.nodes.push(Node {
                    file: fi,
                    item: ii,
                    name: item.name.clone(),
                    self_ty: item.self_ty.clone(),
                    line: item.line,
                    body,
                    is_root,
                    is_cold,
                });
            }
        }
        // ---- symbol tables -----------------------------------------
        let mut free_by_name: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
        let mut methods_by_ty: BTreeMap<(&str, &str), Vec<NodeId>> = BTreeMap::new();
        let mut traits_of_ty: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut impls_of_trait: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (id, n) in g.nodes.iter().enumerate() {
            match &n.self_ty {
                None => free_by_name.entry(&n.name).or_default().push(id),
                Some(ty) => {
                    methods_by_name.entry(&n.name).or_default().push(id);
                    methods_by_ty.entry((ty, &n.name)).or_default().push(id);
                }
            }
        }
        let mut field_ty: BTreeMap<(&str, &str), &str> = BTreeMap::new();
        let mut field_elem: BTreeMap<(&str, &str), &str> = BTreeMap::new();
        for f in files {
            for s in &f.parsed.structs {
                for (fname, fty, felem) in &s.fields {
                    field_ty.entry((&s.name, fname)).or_insert(fty);
                    // Element types matter only where indexing can reach
                    // them: `self.field[i].m(…)` on a std sequence.
                    if let (Some(elem), "Vec" | "VecDeque") = (felem, fty.as_str()) {
                        field_elem.entry((&s.name, fname)).or_insert(elem);
                    }
                }
            }
            for item in &f.parsed.fns {
                if let (Some(ty), Some(tr), false) =
                    (&item.self_ty, &item.trait_of, item.is_trait_decl)
                {
                    traits_of_ty.entry(ty).or_default().insert(tr);
                    impls_of_trait.entry(tr).or_default().insert(ty);
                }
            }
        }
        // ---- edges -------------------------------------------------
        let tables = Tables {
            free_by_name,
            methods_by_name,
            methods_by_ty,
            traits_of_ty,
            impls_of_trait,
            field_ty,
            field_elem,
        };
        g.edges = vec![Vec::new(); g.nodes.len()];
        for id in 0..g.nodes.len() {
            let callees = extract_edges(&g, files, id, &tables);
            g.edges[id] = callees;
        }
        g.roots = g
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_root && !n.is_cold)
            .map(|(id, _)| id)
            .collect();
        g
    }

    /// Deterministic multi-source BFS from the roots, pruned at
    /// `lint:cold-path` nodes.
    pub fn reachable(&self) -> Reachability {
        let mut r = Reachability::default();
        let mut queue = std::collections::VecDeque::new();
        for &root in &self.roots {
            if r.provenance.contains_key(&root) {
                continue;
            }
            r.provenance.insert(
                root,
                Provenance {
                    parent: None,
                    call_line: self.nodes[root].line,
                },
            );
            r.order.push(root);
            queue.push_back(root);
        }
        while let Some(id) = queue.pop_front() {
            for &(callee, line) in &self.edges[id] {
                if self.nodes[callee].is_cold || r.provenance.contains_key(&callee) {
                    continue;
                }
                r.provenance.insert(
                    callee,
                    Provenance {
                        parent: Some(id),
                        call_line: line,
                    },
                );
                r.order.push(callee);
                queue.push_back(callee);
            }
        }
        r
    }

    /// The discovery chain `root → … → node` as `(label, file path,
    /// line)` hops: the root hop carries its declaration line in its
    /// own file, every later hop the line of the call site that reached
    /// it — which lives in the *caller's* file.
    pub fn chain(
        &self,
        files: &[FileUnit],
        reach: &Reachability,
        node: NodeId,
    ) -> Vec<(String, String, usize)> {
        let mut rev = Vec::new();
        let mut cur = Some(node);
        while let Some(id) = cur {
            let Some(p) = reach.provenance.get(&id) else {
                break;
            };
            let n = &self.nodes[id];
            let fi = p.parent.map_or(n.file, |par| self.nodes[par].file);
            rev.push((n.label(), files[fi].path.clone(), p.call_line));
            cur = p.parent;
        }
        rev.reverse();
        rev
    }

    /// The node whose body (in file `fi`) contains token index `tok`,
    /// preferring the innermost (shortest) span.
    pub fn node_at(&self, fi: usize, tok: usize) -> Option<NodeId> {
        let mut best: Option<(usize, NodeId)> = None;
        for (id, n) in self.nodes.iter().enumerate() {
            if n.file == fi && n.body.0 <= tok && tok <= n.body.1 {
                let span = n.body.1 - n.body.0;
                if best.is_none_or(|(s, _)| span < s) {
                    best = Some((span, id));
                }
            }
        }
        best.map(|(_, id)| id)
    }
}

/// A marker comment's `(start line, end line)` anchor.
type MarkerSpan = (usize, usize);

/// `(hot-root lines, cold-path lines)` marker anchors in a file: a marker
/// on line `l` governs a `fn` starting on `l` (trailing style) or within
/// the three lines below (banner style, allowing attributes between).
fn marker_lines(f: &FileUnit) -> (Vec<MarkerSpan>, Vec<MarkerSpan>) {
    let mut hot = Vec::new();
    let mut cold = Vec::new();
    for c in &f.lexed.comments {
        let text = c.text.trim();
        if text.starts_with(HOT_ROOT_MARKER) {
            hot.push((c.line, c.end_line));
        } else if text.starts_with(COLD_PATH_MARKER) {
            cold.push((c.line, c.end_line));
        }
    }
    (hot, cold)
}

/// Whether a marker comment anchored at one of `marks` (each a
/// `(start line, end line)` pair) *could* govern an item starting on
/// `line`: the marker sits on the item's own line (trailing style) or
/// within the three lines above it (banner style, leaving room for
/// attributes). Used for dangling-marker detection; actual binding is
/// nearest-item-wins, via [`governed`].
pub fn marked(marks: &[(usize, usize)], line: usize) -> bool {
    marks
        .iter()
        .any(|&(start, end)| line == start || (line > end && line - end <= 3))
}

/// The item lines governed by `marks`: each marker binds to the nearest
/// item starting on its own line or within the three lines below it —
/// never to later items that also happen to fall inside the window.
pub fn governed(marks: &[(usize, usize)], item_lines: &[usize]) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    for &(start, end) in marks {
        let best = item_lines
            .iter()
            .copied()
            .filter(|&l| l == start || (l > end && l - end <= 3))
            .min();
        if let Some(l) = best {
            out.insert(l);
        }
    }
    out
}

struct Tables<'a> {
    free_by_name: BTreeMap<&'a str, Vec<NodeId>>,
    methods_by_name: BTreeMap<&'a str, Vec<NodeId>>,
    methods_by_ty: BTreeMap<(&'a str, &'a str), Vec<NodeId>>,
    traits_of_ty: BTreeMap<&'a str, BTreeSet<&'a str>>,
    impls_of_trait: BTreeMap<&'a str, BTreeSet<&'a str>>,
    field_ty: BTreeMap<(&'a str, &'a str), &'a str>,
    field_elem: BTreeMap<(&'a str, &'a str), &'a str>,
}

/// Std-surface receiver types whose methods cannot call back into
/// workspace code. A resolved receiver of one of these with no
/// workspace methods yields *no* edges instead of the all-names
/// fallback: `out.push(ev)` on a `Vec` is the std method, not a call to
/// whatever workspace `fn push` happens to exist.
const STD_TYPES: &[&str] = &[
    "Vec", "VecDeque", "String", "Box", "Option", "Result", "BTreeMap", "BTreeSet", "HashMap",
    "HashSet", "Rc", "Arc", "Cow", "PathBuf", "Path", "str", "bool", "char", "u8", "u16", "u32",
    "u64", "u128", "usize", "i8", "i16", "i32", "i64", "f32", "f64",
];

impl<'a> Tables<'a> {
    /// Methods named `m` on type `ty`, including default bodies of traits
    /// `ty` implements. Empty when the type is unknown to the workspace.
    fn methods_on_ty(&self, ty: &str, m: &str) -> Vec<NodeId> {
        let mut out = self
            .methods_by_ty
            .get(&(ty, m))
            .cloned()
            .unwrap_or_default();
        if let Some(traits) = self.traits_of_ty.get(ty) {
            for tr in traits {
                if let Some(defaults) = self.methods_by_ty.get(&(tr, m)) {
                    out.extend_from_slice(defaults);
                }
            }
        }
        out
    }

    /// Resolves `A::m(…)`: inherent/trait-impl methods of `A`, every
    /// implementor when `A` is a trait, free functions as the
    /// module-path fallback (`intern::helper(…)`).
    fn path_call(&self, a: &str, m: &str) -> Vec<NodeId> {
        let mut out = self.methods_on_ty(a, m);
        if let Some(tys) = self.impls_of_trait.get(a) {
            for ty in tys {
                if let Some(ids) = self.methods_by_ty.get(&(*ty, m)) {
                    out.extend_from_slice(ids);
                }
            }
        }
        if out.is_empty() {
            out = self.free_by_name.get(m).cloned().unwrap_or_default();
        }
        out
    }

    /// Resolves a method call whose receiver's type head is known:
    /// the type's own (and trait-default) methods when it has any; no
    /// edges when the type is a std container (its methods do not call
    /// back into workspace code); the all-names fallback otherwise (the
    /// head may be a generic parameter or an alias we cannot see
    /// through).
    fn typed_call(&self, ty: &str, m: &str) -> Vec<NodeId> {
        let own = self.methods_on_ty(ty, m);
        if !own.is_empty() {
            return own;
        }
        if STD_TYPES.contains(&ty) {
            return Vec::new();
        }
        self.all_named(m)
    }

    /// The conservative fallback for a method whose receiver type is
    /// unknown: every *method* of that name. Free functions are
    /// excluded — a dot-call can only ever dispatch to a method, so an
    /// unrelated free `fn push` somewhere in the workspace is not a
    /// candidate for `x.push(…)`.
    fn all_named(&self, m: &str) -> Vec<NodeId> {
        self.methods_by_name.get(m).cloned().unwrap_or_default()
    }
}

/// Parameter, `let`-binding and `for`-binding types of one function, by
/// head identifier.
fn local_types(files: &[FileUnit], node: &Node, tables: &Tables) -> BTreeMap<String, String> {
    let tokens = &files[node.file].lexed.tokens;
    let item = &files[node.file].parsed.fns[node.item];
    let mut map = BTreeMap::new();
    // Parameters: `name: Type` pairs inside the signature parens.
    let mut k = item.sig.0;
    while k < item.sig.1 {
        let t = &tokens[k];
        if t.kind == TokenKind::Ident
            && tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
            && !tokens.get(k + 2).is_some_and(|n| n.is_punct(':'))
        {
            if let Some((ty, after)) = crate::parser::read_path(tokens, k + 2) {
                map.insert(t.text.clone(), ty);
                k = after;
                continue;
            }
        }
        k += 1;
    }
    // `let [mut] name : Type` / `let [mut] name = Type::…`.
    let (bo, bc) = node.body;
    let mut k = bo;
    while k < bc {
        if tokens[k].is_ident("let") {
            let mut j = k + 1;
            if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = tokens.get(j).filter(|t| t.kind == TokenKind::Ident) {
                if tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && !tokens.get(j + 2).is_some_and(|t| t.is_punct(':'))
                {
                    if let Some((ty, _)) = crate::parser::read_path(tokens, j + 2) {
                        map.insert(name.text.clone(), ty);
                    }
                } else if tokens.get(j + 1).is_some_and(|t| t.is_punct('='))
                    && tokens.get(j + 3).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(j + 4).is_some_and(|t| t.is_punct(':'))
                {
                    if let Some(ctor_ty) = tokens.get(j + 2).filter(|t| t.kind == TokenKind::Ident)
                    {
                        map.insert(name.text.clone(), ctor_ty.text.clone());
                    }
                }
            }
        }
        // `for [&][mut] pat in [&[mut]] self.field.iter()/iter_mut()
        // [.enumerate()]`: the loop binding carries the field's element
        // type (`for (i, level) in self.shared.iter_mut().enumerate()`
        // binds `level` to the element head of `shared`).
        if tokens[k].is_ident("for") {
            let mut j = k + 1;
            while tokens
                .get(j)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
            {
                j += 1;
            }
            let mut single = None;
            let mut tuple_last = None;
            if tokens.get(j).is_some_and(|t| t.is_punct('(')) {
                j += 1;
                while j < bc && !tokens[j].is_punct(')') {
                    if tokens[j].kind == TokenKind::Ident && !tokens[j].is_ident("mut") {
                        tuple_last = Some(tokens[j].text.clone());
                    }
                    j += 1;
                }
                j += 1;
            } else if tokens.get(j).is_some_and(|t| t.kind == TokenKind::Ident) {
                single = Some(tokens[j].text.clone());
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.is_ident("in")) {
                j += 1;
                while tokens
                    .get(j)
                    .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
                {
                    j += 1;
                }
                if tokens.get(j).is_some_and(|t| t.is_ident("self"))
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('.'))
                    && tokens
                        .get(j + 2)
                        .is_some_and(|t| t.kind == TokenKind::Ident)
                    && tokens.get(j + 3).is_some_and(|t| t.is_punct('.'))
                    && tokens
                        .get(j + 4)
                        .is_some_and(|t| t.is_ident("iter") || t.is_ident("iter_mut"))
                    && tokens.get(j + 5).is_some_and(|t| t.is_punct('('))
                    && tokens.get(j + 6).is_some_and(|t| t.is_punct(')'))
                {
                    let field = tokens[j + 2].text.as_str();
                    let enumerated = tokens.get(j + 7).is_some_and(|t| t.is_punct('.'))
                        && tokens.get(j + 8).is_some_and(|t| t.is_ident("enumerate"));
                    // Plain iteration binds the single pattern;
                    // `.enumerate()` binds the tuple's last ident.
                    let bound = if enumerated { tuple_last } else { single };
                    if let (Some(name), Some(sty)) = (bound, node.self_ty.as_deref()) {
                        if let Some(elem) = tables.field_elem.get(&(sty, field)) {
                            map.insert(name, elem.to_string());
                        }
                    }
                }
            }
        }
        k += 1;
    }
    map
}

/// The index of the `[` matching the `]` at `close`, scanning backward.
fn matching_back(tokens: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut k = close;
    loop {
        let t = &tokens[k];
        if t.is_punct(']') {
            depth += 1;
        } else if t.is_punct('[') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        if k == 0 {
            return None;
        }
        k -= 1;
    }
}

/// Extracts the outgoing call edges of one node.
fn extract_edges(
    g: &CallGraph,
    files: &[FileUnit],
    id: NodeId,
    tables: &Tables,
) -> Vec<(NodeId, usize)> {
    let node = &g.nodes[id];
    let tokens = &files[node.file].lexed.tokens;
    let locals = local_types(files, node, tables);
    let (bo, bc) = node.body;
    let mut out: BTreeMap<NodeId, usize> = BTreeMap::new();
    let record = |ids: Vec<NodeId>, line: usize, out: &mut BTreeMap<NodeId, usize>| {
        for callee in ids {
            out.entry(callee).or_insert(line);
        }
    };
    for k in bo + 1..bc {
        let t = &tokens[k];
        if t.kind != TokenKind::Ident || !tokens.get(k + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let name = t.text.as_str();
        let prev_dot = k > 0 && tokens[k - 1].is_punct('.');
        let prev_path = k >= 2 && tokens[k - 1].is_punct(':') && tokens[k - 2].is_punct(':');
        if prev_dot {
            // Method call: try to pin the receiver's type.
            let candidates = if k >= 2
                && tokens[k - 2].is_ident("self")
                && !(k >= 3 && tokens[k - 3].is_punct('.'))
            {
                // `self.m(…)` — the current impl type's own method; in
                // a trait default body, any implementor's.
                match &node.self_ty {
                    Some(ty) if files[node.file].parsed.fns[node.item].is_trait_decl => {
                        tables.path_call(ty, name)
                    }
                    Some(ty) => tables.typed_call(ty, name),
                    None => tables.all_named(name),
                }
            } else if k >= 4
                && tokens[k - 3].is_punct('.')
                && tokens[k - 4].kind == TokenKind::Ident
                && tokens[k - 2].kind == TokenKind::Ident
                && !(k >= 5 && tokens[k - 5].is_punct('.'))
            {
                // `self.field.m(…)` / `local.field.m(…)` — through the
                // struct field table of the base's type.
                let base = tokens[k - 4].text.as_str();
                let base_ty = if base == "self" {
                    node.self_ty.clone()
                } else {
                    locals.get(base).cloned()
                };
                let field = tokens[k - 2].text.as_str();
                let fty = base_ty
                    .as_deref()
                    .and_then(|ty| tables.field_ty.get(&(ty, field)).copied());
                match fty {
                    Some(ty) => tables.typed_call(ty, name),
                    None => tables.all_named(name),
                }
            } else if k >= 2
                && tokens[k - 2].kind == TokenKind::Ident
                && !(k >= 3 && (tokens[k - 3].is_punct('.') || tokens[k - 3].is_punct(':')))
            {
                // `local.m(…)` — through the let/param type map.
                match locals.get(&tokens[k - 2].text) {
                    Some(ty) => tables.typed_call(ty, name),
                    None => tables.all_named(name),
                }
            } else if k >= 2 && tokens[k - 2].is_punct(']') {
                // `…[i].m(…)` — dispatch on the container's element type
                // when the container is a `self.field` std sequence
                // (`self.clients[c].access(b)` with `clients:
                // Vec<LruCache<…>>` resolves to `LruCache::access`).
                let elem = matching_back(tokens, k - 2).and_then(|open| {
                    if open >= 3
                        && tokens[open - 1].kind == TokenKind::Ident
                        && tokens[open - 2].is_punct('.')
                        && tokens[open - 3].is_ident("self")
                    {
                        let field = tokens[open - 1].text.as_str();
                        node.self_ty
                            .as_deref()
                            .and_then(|ty| tables.field_elem.get(&(ty, field)).copied())
                    } else {
                        None
                    }
                });
                match elem {
                    Some(ty) => tables.typed_call(ty, name),
                    None => tables.all_named(name),
                }
            } else {
                tables.all_named(name)
            };
            record(candidates, t.line, &mut out);
        } else if prev_path && k >= 3 && tokens[k - 3].kind == TokenKind::Ident {
            let a = if tokens[k - 3].is_ident("Self") {
                node.self_ty.clone().unwrap_or_default()
            } else {
                tokens[k - 3].text.clone()
            };
            record(tables.path_call(&a, name), t.line, &mut out);
        } else if !prev_path && !NON_CALL_KEYWORDS.contains(&name) {
            let frees = tables.free_by_name.get(name).cloned().unwrap_or_default();
            record(frees, t.line, &mut out);
        }
    }
    let mut edges: Vec<(NodeId, usize)> = out.into_iter().collect();
    edges.sort_by_key(|&(callee, _)| callee);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(path: &str, src: &str) -> FileUnit {
        FileUnit::new(path, src, FileKind::classify(path))
    }

    fn find(g: &CallGraph, name: &str) -> NodeId {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("node {name} missing"))
    }

    #[test]
    fn roots_are_discovered_by_name_and_marker() {
        let files = [unit(
            "crates/x/src/a.rs",
            "impl E {\n    fn access_into(&mut self) { self.helper(); }\n    fn helper(&mut self) {}\n}\n// lint:hot-root explicit per-access entry\nfn pump() {}\nfn idle() {}\n",
        )];
        let g = CallGraph::build(&files);
        let labels: Vec<String> = g.roots.iter().map(|&r| g.nodes[r].label()).collect();
        assert_eq!(labels, ["E::access_into", "pump"]);
    }

    #[test]
    fn reachability_follows_field_typed_calls_across_files() {
        let files = [
            unit(
                "crates/x/src/root.rs",
                "struct Eng { h: Helper }\nimpl Eng { fn access_into(&mut self) { self.h.step(); } }\n",
            ),
            unit(
                "crates/y/src/helper.rs",
                "pub struct Helper;\nimpl Helper { pub fn step(&mut self) { grow(); } }\nfn grow() {}\nfn unrelated() {}\n",
            ),
        ];
        let g = CallGraph::build(&files);
        let r = g.reachable();
        assert!(r.contains(find(&g, "step")));
        assert!(r.contains(find(&g, "grow")));
        assert!(!r.contains(find(&g, "unrelated")));
        let chain = g.chain(&files, &r, find(&g, "grow"));
        let labels: Vec<&str> = chain.iter().map(|(l, _, _)| l.as_str()).collect();
        assert_eq!(labels, ["Eng::access_into", "Helper::step", "grow"]);
    }

    #[test]
    fn trait_calls_reach_all_implementors() {
        let files = [unit(
            "crates/x/src/t.rs",
            "trait Plane { fn send(&mut self); }\nimpl Plane for A { fn send(&mut self) { a_only(); } }\nimpl Plane for B { fn send(&mut self) { b_only(); } }\nstruct Eng { plane: P }\nimpl Eng { fn access_into(&mut self) { self.plane.send(); } }\nfn a_only() {}\nfn b_only() {}\n",
        )];
        let g = CallGraph::build(&files);
        let r = g.reachable();
        assert!(r.contains(find(&g, "a_only")));
        assert!(r.contains(find(&g, "b_only")));
    }

    #[test]
    fn std_receivers_resolve_to_no_workspace_edges() {
        // `out.push(…)` on a `Vec` param must not edge to an unrelated
        // workspace `fn push`.
        let files = [
            unit(
                "crates/x/src/a.rs",
                "fn take_crashes_into(out: &mut Vec<usize>) { out.push(1); }\n",
            ),
            unit(
                "crates/y/src/b.rs",
                "fn push(n: usize) { helper(n); }\nfn helper(_n: usize) {}\n",
            ),
        ];
        let g = CallGraph::build(&files);
        let r = g.reachable();
        assert!(!r.contains(find(&g, "push")));
        assert!(!r.contains(find(&g, "helper")));
    }

    #[test]
    fn indexed_receivers_dispatch_on_the_element_type() {
        let files = [unit(
            "crates/x/src/a.rs",
            "struct Eng { clients: Vec<Client> }\n\
             impl Eng { fn access_into(&mut self) { self.clients[0].touch(); } }\n\
             struct Client;\n\
             impl Client { fn touch(&mut self) {} }\n\
             struct Other;\n\
             impl Other { fn touch(&mut self) {} }\n",
        )];
        let g = CallGraph::build(&files);
        let r = g.reachable();
        let touched: Vec<String> = g
            .nodes
            .iter()
            .enumerate()
            .filter(|&(id, n)| n.name == "touch" && r.contains(id))
            .map(|(_, n)| n.label())
            .collect();
        assert_eq!(touched, ["Client::touch"]);
    }

    #[test]
    fn cold_path_marker_prunes_traversal() {
        let files = [unit(
            "crates/x/src/c.rs",
            "impl E {\n    fn access_into(&mut self) { self.apply_crashes(); self.fast(); }\n    // lint:cold-path crash recovery allocates by design\n    fn apply_crashes(&mut self) { rebuild(); }\n    fn fast(&mut self) {}\n}\nfn rebuild() {}\n",
        )];
        let g = CallGraph::build(&files);
        let r = g.reachable();
        assert!(r.contains(find(&g, "fast")));
        assert!(!r.contains(find(&g, "apply_crashes")));
        assert!(!r.contains(find(&g, "rebuild")));
    }

    #[test]
    fn tests_and_binaries_stay_out_of_the_graph() {
        let files = [
            unit(
                "crates/x/src/a.rs",
                "impl E { fn access_into(&mut self) { self.collect_stats(); } }\n#[cfg(test)]\nmod tests { fn collect_stats() {} }\n",
            ),
            unit("crates/x/src/bin/tool.rs", "fn collect_stats() {}\n"),
        ];
        let g = CallGraph::build(&files);
        assert!(
            !g.nodes.iter().any(|n| n.name == "collect_stats"),
            "{:?}",
            g.nodes
        );
    }

    #[test]
    fn local_let_types_pin_method_targets() {
        let files = [unit(
            "crates/x/src/l.rs",
            "struct Pool;\nimpl Pool { fn refill(&mut self) { refill_impl(); } }\nstruct Other;\nimpl Other { fn refill(&mut self) { other_impl(); } }\nfn access_into() { let mut p: Pool = make(); p.refill(); }\nfn make() -> Pool { Pool }\nfn refill_impl() {}\nfn other_impl() {}\n",
        )];
        let g = CallGraph::build(&files);
        let r = g.reachable();
        assert!(r.contains(find(&g, "refill_impl")));
        assert!(
            !r.contains(find(&g, "other_impl")),
            "typed receiver must disambiguate"
        );
    }
}
