//! A recursive-descent *item* parser on top of [`crate::lexer`].
//!
//! The interprocedural rules (DESIGN.md §5g) need more than a token
//! stream: they need to know where every function lives, which `impl`
//! block owns it, which trait it implements, and what its body spans —
//! so the call graph can connect a per-access root to the helpers it
//! reaches. This module extracts exactly that item skeleton:
//!
//! * [`FnItem`] — every `fn`, with its enclosing `impl`/`trait` context,
//!   signature and body token ranges, and test-exemption flag;
//! * [`StructItem`] — struct fields with the head identifier of each
//!   field's type (for impl-receiver disambiguation of method calls);
//! * [`EnumItem`] — enum variants with lines (for the `plane-exhaustive`
//!   rule).
//!
//! It is *not* a full Rust parser: expressions are never analysed, and
//! exotic items (macros, GATs, const generics with brace expressions)
//! are skipped conservatively. Whatever the parser cannot classify it
//! leaves out of the item table, which makes the downstream analyses
//! under-approximate rather than crash — the same totality contract as
//! the lexer.

use crate::lexer::{LexedFile, Token, TokenKind};

/// One parsed function item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// The enclosing `impl` block's self type (last path segment), or the
    /// enclosing `trait` name for trait-declaration methods.
    pub self_ty: Option<String>,
    /// The trait being implemented (`impl Trait for Type`), or the trait
    /// being declared for trait-declaration methods.
    pub trait_of: Option<String>,
    /// `true` for methods declared inside a `trait { … }` block (default
    /// bodies included).
    pub is_trait_decl: bool,
    /// Token range `[fn keyword, body open or terminating semicolon)` —
    /// the signature, including name, generics and parameters.
    pub sig: (usize, usize),
    /// Token range `[open brace, close brace]` of the body, if any.
    pub body: Option<(usize, usize)>,
    /// Whether the item sits under `#[cfg(test)]`/`#[test]`.
    pub in_test: bool,
}

/// One parsed struct with its field types.
#[derive(Clone, Debug)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// `(field name, head identifier of the field's type, head of its
    /// first generic argument)` triples, e.g. `("queues", "Vec",
    /// Some("VecDeque"))` for `queues: Vec<VecDeque<Message>>`. The
    /// element head is what an indexed receiver (`self.queues[i].m(…)`)
    /// dispatches on.
    pub fields: Vec<(String, String, Option<String>)>,
}

/// One parsed enum with its variants.
#[derive(Clone, Debug)]
pub struct EnumItem {
    /// The enum's name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// `(variant name, 1-based line)` pairs in declaration order.
    pub variants: Vec<(String, usize)>,
}

/// The item skeleton of one source file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Every function item, in source order.
    pub fns: Vec<FnItem>,
    /// Every struct item, in source order.
    pub structs: Vec<StructItem>,
    /// Every enum item, in source order.
    pub enums: Vec<EnumItem>,
}

/// Index of the punct closing the group opened at `open_idx`, or `None`.
pub fn matching(tokens: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Marks every token inside a `#[cfg(test)]` or `#[test]` item, so the
/// in-library test modules and unit tests are exempt from the library
/// rules, exactly like files under `tests/`.
pub fn test_token_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let attr_end = match matching(tokens, i + 1, '[', ']') {
                Some(e) => e,
                None => break,
            };
            let body = &tokens[i + 2..attr_end];
            let is_test_attr = (body.len() == 1 && body[0].is_ident("test"))
                || (body.first().is_some_and(|t| t.is_ident("cfg"))
                    && body.iter().any(|t| t.is_ident("test")));
            if is_test_attr {
                // The attribute governs the next item: everything through
                // the item's closing brace (or terminating semicolon).
                let mut j = attr_end + 1;
                // Skip further attributes on the same item.
                while j < tokens.len()
                    && tokens[j].is_punct('#')
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    match matching(tokens, j + 1, '[', ']') {
                        Some(e) => j = e + 1,
                        None => return mask,
                    }
                }
                let mut end = tokens.len() - 1;
                for (k, t) in tokens.iter().enumerate().skip(j) {
                    if t.is_punct(';') {
                        end = k;
                        break;
                    }
                    if t.is_punct('{') {
                        end = matching(tokens, k, '{', '}').unwrap_or(tokens.len() - 1);
                        break;
                    }
                }
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Parses the item skeleton of a lexed file.
pub fn parse(file: &LexedFile) -> ParsedFile {
    let in_test = test_token_mask(&file.tokens);
    let mut out = ParsedFile::default();
    let ctx = Ctx {
        self_ty: None,
        trait_of: None,
        is_trait_decl: false,
    };
    parse_range(&file.tokens, &in_test, 0, file.tokens.len(), &ctx, &mut out);
    out
}

#[derive(Clone, Debug)]
struct Ctx {
    self_ty: Option<String>,
    trait_of: Option<String>,
    is_trait_decl: bool,
}

/// Skips a balanced `<…>` generics group starting at `i` (which must sit
/// on the `<`). A `>` directly preceded by `-` is the arrow of an `Fn()
/// -> T` bound, not a closer. Returns the index just past the final `>`.
fn skip_generics(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    let mut k = i;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(k > 0 && tokens[k - 1].is_punct('-')) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    k
}

/// Reads one type path starting at `i`, skipping leading `&`/`mut`/
/// `dyn`/lifetimes and per-segment generic arguments. Returns the last
/// path segment and the index just past the path, or `None` when `i`
/// does not start a path.
pub fn read_path(tokens: &[Token], i: usize) -> Option<(String, usize)> {
    let mut k = i;
    while tokens.get(k).is_some_and(|t| {
        t.is_punct('&') || t.is_ident("mut") || t.is_ident("dyn") || t.kind == TokenKind::Lifetime
    }) {
        k += 1;
    }
    let first = tokens.get(k)?;
    if first.kind != TokenKind::Ident {
        return None;
    }
    let mut last = first.text.clone();
    k += 1;
    loop {
        if tokens.get(k).is_some_and(|t| t.is_punct('<')) {
            k = skip_generics(tokens, k);
        }
        if tokens.get(k).is_some_and(|t| t.is_punct(':'))
            && tokens.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && tokens
                .get(k + 2)
                .is_some_and(|t| t.kind == TokenKind::Ident)
        {
            last = tokens[k + 2].text.clone();
            k += 3;
        } else {
            break;
        }
    }
    Some((last, k))
}

/// The head of the first generic argument of the type path at `i`
/// (`Vec<LruCache<K>>` → `LruCache`) — the element type an indexed
/// receiver dispatches on. `None` when the path takes no generic
/// arguments, the first argument is not a plain uppercase-initial path,
/// or the generics belong to a non-final segment.
pub fn elem_head(tokens: &[Token], i: usize) -> Option<String> {
    let mut k = i;
    while tokens.get(k).is_some_and(|t| {
        t.is_punct('&') || t.is_ident("mut") || t.is_ident("dyn") || t.kind == TokenKind::Lifetime
    }) {
        k += 1;
    }
    if tokens.get(k)?.kind != TokenKind::Ident {
        return None;
    }
    k += 1;
    let mut elem = None;
    loop {
        if tokens.get(k).is_some_and(|t| t.is_punct('<')) {
            elem = read_path(tokens, k + 1).map(|(head, _)| head);
            k = skip_generics(tokens, k);
        }
        if tokens.get(k).is_some_and(|t| t.is_punct(':'))
            && tokens.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && tokens
                .get(k + 2)
                .is_some_and(|t| t.kind == TokenKind::Ident)
        {
            elem = None;
            k += 3;
        } else {
            break;
        }
    }
    elem.filter(|e| e.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
}

/// Finds the first `{` or `;` at bracket depth 0 starting at `i`; returns
/// `(index, is_brace)`.
fn find_body_open(tokens: &[Token], i: usize, hi: usize) -> Option<(usize, bool)> {
    let mut depth = 0usize;
    let mut k = i;
    while k < hi {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct('{') {
            return Some((k, true));
        } else if depth == 0 && t.is_punct(';') {
            return Some((k, false));
        }
        k += 1;
    }
    None
}

fn parse_range(
    tokens: &[Token],
    in_test: &[bool],
    lo: usize,
    hi: usize,
    ctx: &Ctx,
    out: &mut ParsedFile,
) {
    let mut i = lo;
    while i < hi {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "impl" => {
                let Some((self_ty, trait_of, open)) = parse_impl_header(tokens, i, hi) else {
                    i += 1;
                    continue;
                };
                let close = matching(tokens, open, '{', '}').unwrap_or(hi.saturating_sub(1));
                let inner = Ctx {
                    self_ty: Some(self_ty),
                    trait_of,
                    is_trait_decl: false,
                };
                parse_range(tokens, in_test, open + 1, close, &inner, out);
                i = close + 1;
            }
            "trait" => {
                let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) else {
                    i += 1;
                    continue;
                };
                let Some((open, is_brace)) = find_body_open(tokens, i + 2, hi) else {
                    break;
                };
                if !is_brace {
                    i = open + 1; // trait alias `trait X = …;`
                    continue;
                }
                let close = matching(tokens, open, '{', '}').unwrap_or(hi.saturating_sub(1));
                let inner = Ctx {
                    self_ty: Some(name.text.clone()),
                    trait_of: Some(name.text.clone()),
                    is_trait_decl: true,
                };
                parse_range(tokens, in_test, open + 1, close, &inner, out);
                i = close + 1;
            }
            "fn" => {
                let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) else {
                    i += 1; // `fn(u32) -> u32` pointer type
                    continue;
                };
                let Some((open, is_brace)) = find_body_open(tokens, i + 2, hi) else {
                    break;
                };
                let body = if is_brace {
                    let close = matching(tokens, open, '{', '}').unwrap_or(hi.saturating_sub(1));
                    Some((open, close))
                } else {
                    None
                };
                out.fns.push(FnItem {
                    name: name.text.clone(),
                    line: t.line,
                    self_ty: ctx.self_ty.clone(),
                    trait_of: ctx.trait_of.clone(),
                    is_trait_decl: ctx.is_trait_decl,
                    sig: (i, open),
                    body,
                    in_test: in_test.get(i).copied().unwrap_or(false),
                });
                if let Some((bo, bc)) = body {
                    // Nested `fn` items inside the body become their own
                    // (free) items; the outer body range still covers
                    // their tokens, which keeps the analyses conservative.
                    let inner = Ctx {
                        self_ty: None,
                        trait_of: None,
                        is_trait_decl: false,
                    };
                    parse_range(tokens, in_test, bo + 1, bc, &inner, out);
                    i = bc + 1;
                } else {
                    i = open + 1;
                }
            }
            "struct" => {
                let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) else {
                    i += 1;
                    continue;
                };
                let Some((open, is_brace)) = find_body_open(tokens, i + 2, hi) else {
                    break;
                };
                if !is_brace {
                    // Unit or tuple struct: no named fields to record.
                    out.structs.push(StructItem {
                        name: name.text.clone(),
                        line: t.line,
                        fields: Vec::new(),
                    });
                    i = open + 1;
                    continue;
                }
                let close = matching(tokens, open, '{', '}').unwrap_or(hi.saturating_sub(1));
                out.structs.push(StructItem {
                    name: name.text.clone(),
                    line: t.line,
                    fields: parse_fields(tokens, open, close),
                });
                i = close + 1;
            }
            "enum" => {
                let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) else {
                    i += 1;
                    continue;
                };
                let Some((open, is_brace)) = find_body_open(tokens, i + 2, hi) else {
                    break;
                };
                if !is_brace {
                    i = open + 1;
                    continue;
                }
                let close = matching(tokens, open, '{', '}').unwrap_or(hi.saturating_sub(1));
                out.enums.push(EnumItem {
                    name: name.text.clone(),
                    line: t.line,
                    variants: parse_variants(tokens, open, close),
                });
                i = close + 1;
            }
            "macro_rules" => {
                // `macro_rules! name { … }` — token soup; skip wholesale.
                let Some((open, is_brace)) = find_body_open(tokens, i + 1, hi) else {
                    break;
                };
                i = if is_brace {
                    matching(tokens, open, '{', '}').unwrap_or(hi.saturating_sub(1)) + 1
                } else {
                    open + 1
                };
            }
            _ => i += 1,
        }
    }
}

/// Parses an `impl` header starting at the `impl` keyword: returns the
/// self type's last path segment, the implemented trait's last segment
/// (for `impl Trait for Type`), and the index of the body's `{`.
fn parse_impl_header(
    tokens: &[Token],
    i: usize,
    hi: usize,
) -> Option<(String, Option<String>, usize)> {
    let mut k = i + 1;
    if tokens.get(k).is_some_and(|t| t.is_punct('<')) {
        k = skip_generics(tokens, k);
    }
    if tokens.get(k).is_some_and(|t| t.is_punct('!')) {
        k += 1; // negative impl
    }
    let (first, after) = read_path(tokens, k)?;
    k = after;
    let (self_ty, trait_of) = if tokens.get(k).is_some_and(|t| t.is_ident("for")) {
        let (ty, after_ty) = read_path(tokens, k + 1)?;
        k = after_ty;
        (ty, Some(first))
    } else {
        (first, None)
    };
    // Skip a `where` clause (or trailing generics noise) up to the body.
    let (open, is_brace) = find_body_open(tokens, k, hi)?;
    if !is_brace {
        return None;
    }
    Some((self_ty, trait_of, open))
}

/// Extracts `(name, type-head, element-head)` field triples from a
/// struct body.
fn parse_fields(
    tokens: &[Token],
    open: usize,
    close: usize,
) -> Vec<(String, String, Option<String>)> {
    let mut fields = Vec::new();
    let mut depth = 0usize;
    let mut k = open + 1;
    while k < close {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct('<') {
            k = skip_generics(tokens, k);
            continue;
        } else if depth == 0
            && t.kind == TokenKind::Ident
            && tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
            && !tokens.get(k + 2).is_some_and(|n| n.is_punct(':'))
            && !(k > open + 1 && tokens[k - 1].is_punct(':'))
        {
            if let Some((ty, after)) = read_path(tokens, k + 2) {
                fields.push((t.text.clone(), ty, elem_head(tokens, k + 2)));
                k = after;
                continue;
            }
        }
        k += 1;
    }
    fields
}

/// Extracts `(variant, line)` pairs from an enum body.
fn parse_variants(tokens: &[Token], open: usize, close: usize) -> Vec<(String, usize)> {
    let mut variants = Vec::new();
    let mut k = open + 1;
    while k < close {
        let t = &tokens[k];
        if t.is_punct('#') && tokens.get(k + 1).is_some_and(|n| n.is_punct('[')) {
            k = matching(tokens, k + 1, '[', ']').map_or(k + 1, |e| e + 1);
            continue;
        }
        if t.kind == TokenKind::Ident {
            variants.push((t.text.clone(), t.line));
            // Skip the variant's payload and discriminant up to the comma.
            let mut depth = 0usize;
            while k < close {
                let x = &tokens[k];
                if x.is_punct('(') || x.is_punct('[') || x.is_punct('{') {
                    depth += 1;
                } else if x.is_punct(')') || x.is_punct(']') || x.is_punct('}') {
                    depth = depth.saturating_sub(1);
                } else if depth == 0 && x.is_punct(',') {
                    break;
                }
                k += 1;
            }
        }
        k += 1;
    }
    variants
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn free_fn_and_method_contexts() {
        let src = "fn free() {}\nimpl Foo { fn m(&self) {} }\nimpl Bar for Foo { fn t(&self) {} }\ntrait Baz { fn d(&self); fn e(&self) { self.d() } }\n";
        let p = parsed(src);
        let names: Vec<(&str, Option<&str>, Option<&str>, bool)> = p
            .fns
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.self_ty.as_deref(),
                    f.trait_of.as_deref(),
                    f.is_trait_decl,
                )
            })
            .collect();
        assert_eq!(
            names,
            [
                ("free", None, None, false),
                ("m", Some("Foo"), None, false),
                ("t", Some("Foo"), Some("Bar"), false),
                ("d", Some("Baz"), Some("Baz"), true),
                ("e", Some("Baz"), Some("Baz"), true),
            ]
        );
        assert!(p.fns[3].body.is_none(), "declaration without body");
        assert!(p.fns[4].body.is_some(), "default body recorded");
    }

    #[test]
    fn generic_impls_resolve_last_segment() {
        let src = "impl<P: Plane> proto::UlcMulti<P> { fn access_into(&mut self) {} }\n";
        let p = parsed(src);
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("UlcMulti"));
    }

    #[test]
    fn fn_bound_arrow_does_not_unbalance_generics() {
        let src = "impl<F: Fn(u32) -> bool> Holder<F> { fn run(&self) {} }\n";
        let p = parsed(src);
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Holder"));
        assert_eq!(p.fns[0].name, "run");
    }

    #[test]
    fn struct_fields_record_type_heads() {
        let src = "struct S { a: u32, pub queues: Vec<VecDeque<M>>, stack: core::UniLruStack, r: &'a mut Batch }\n";
        let p = parsed(src);
        assert_eq!(
            p.structs[0].fields,
            [
                ("a".to_string(), "u32".to_string(), None),
                (
                    "queues".to_string(),
                    "Vec".to_string(),
                    Some("VecDeque".to_string())
                ),
                ("stack".to_string(), "UniLruStack".to_string(), None),
                ("r".to_string(), "Batch".to_string(), None),
            ]
        );
    }

    #[test]
    fn enum_variants_with_payloads() {
        let src = "enum Message { Demote { block: B, mru: bool }, CacheRequest(B), EvictNotice,\n Reload = 3 }\n";
        let p = parsed(src);
        let names: Vec<&str> = p.enums[0]
            .variants
            .iter()
            .map(|(v, _)| v.as_str())
            .collect();
        assert_eq!(names, ["Demote", "CacheRequest", "EvictNotice", "Reload"]);
        assert_eq!(p.enums[0].variants[3].1, 2, "Reload sits on line 2");
    }

    #[test]
    fn bodies_span_and_nested_fns_are_items() {
        let src = "fn outer() { fn inner() {} inner(); }\n";
        let p = parsed(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "outer");
        assert_eq!(p.fns[1].name, "inner");
    }

    #[test]
    fn test_items_are_marked() {
        let src = "#[cfg(test)]\nmod tests { fn helper() {} }\nfn live() {}\n";
        let p = parsed(src);
        let by_name: Vec<(&str, bool)> =
            p.fns.iter().map(|f| (f.name.as_str(), f.in_test)).collect();
        assert_eq!(by_name, [("helper", true), ("live", false)]);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "type Cb = fn(u32) -> u32;\nfn real(cb: Cb) { cb(1); }\n";
        let p = parsed(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let src = "macro_rules! m { ($x:expr) => { fn not_an_item() {} }; }\nfn after() {}\n";
        let p = parsed(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "after");
    }
}
