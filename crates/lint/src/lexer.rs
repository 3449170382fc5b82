//! A hand-rolled Rust surface lexer for the lint pass.
//!
//! The linter never needs a full parse: every rule it enforces is visible
//! in the token stream plus the comment stream. This lexer therefore
//! produces exactly those two artifacts, with line numbers, and handles
//! the Rust lexical features that would otherwise produce false positives
//! in a regex-based scan: nested block comments, string/char/byte
//! literals (including raw strings with `#` guards), lifetimes versus
//! char literals, and doc versus ordinary comments.
//!
//! Like the vendored dependency stand-ins, this is a self-contained
//! implementation of the subset the workspace needs — no crates.io.
//!
//! # Examples
//!
//! ```
//! use ulc_lint::lexer::{lex, TokenKind};
//!
//! let file = lex("let x = m.iter(); // lint:allow(determinism) sorted upstream\n");
//! let idents: Vec<&str> = file
//!     .tokens
//!     .iter()
//!     .filter(|t| t.kind == TokenKind::Ident)
//!     .map(|t| t.text.as_str())
//!     .collect();
//! assert_eq!(idents, ["let", "x", "m", "iter"]);
//! assert!(file.comments[0].text.contains("lint:allow"));
//! ```

/// What a [`Token`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident,
    /// A single punctuation character (multi-character operators appear as
    /// consecutive punct tokens).
    Punct,
    /// A string literal (ordinary, raw or byte), quotes included.
    Str,
    /// A character or byte literal.
    Char,
    /// A numeric literal.
    Num,
    /// A lifetime or loop label (`'a`, `'static`).
    Lifetime,
}

/// One lexed token with its source line (1-based).
#[derive(Clone, Debug)]
pub struct Token {
    /// The token class.
    pub kind: TokenKind,
    /// The raw source text of the token.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// True when the token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// How a comment was written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommentStyle {
    /// `// ...`
    Line,
    /// `/// ...` — outer doc.
    DocOuter,
    /// `//! ...` — inner doc.
    DocInner,
    /// `/* ... */` (including `/** */` and `/*! */`).
    Block,
}

/// One comment with its body text (markers stripped) and line span.
#[derive(Clone, Debug)]
pub struct Comment {
    /// The comment style.
    pub style: CommentStyle,
    /// Body text without the `//`/`/*` markers.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: usize,
    /// 1-based line the comment ends on.
    pub end_line: usize,
}

/// The lexed form of one source file: tokens and comments, separately.
#[derive(Clone, Debug, Default)]
pub struct LexedFile {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn eat_while(&mut self, f: impl Fn(u8) -> bool) {
        while self.peek().is_some_and(&f) {
            self.bump();
        }
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Lexes `src` into tokens and comments.
///
/// The lexer is total: any byte sequence produces a result (unterminated
/// literals simply run to end of file), so the linter can always report
/// on a file rather than abort.
pub fn lex(src: &str) -> LexedFile {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = LexedFile::default();
    while let Some(c) = cur.peek() {
        let start = cur.pos;
        let line = cur.line;
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek_at(1) == Some(b'/') => {
                cur.bump();
                cur.bump();
                let style = match cur.peek() {
                    Some(b'/') if cur.peek_at(1) != Some(b'/') => {
                        cur.bump();
                        CommentStyle::DocOuter
                    }
                    Some(b'!') => {
                        cur.bump();
                        CommentStyle::DocInner
                    }
                    _ => CommentStyle::Line,
                };
                let body_start = cur.pos;
                cur.eat_while(|c| c != b'\n');
                out.comments.push(Comment {
                    style,
                    text: src[body_start..cur.pos].to_string(),
                    line,
                    end_line: line,
                });
            }
            b'/' if cur.peek_at(1) == Some(b'*') => {
                cur.bump();
                cur.bump();
                let body_start = cur.pos;
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(), cur.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                let body_end = cur.pos.saturating_sub(2).max(body_start);
                out.comments.push(Comment {
                    style: CommentStyle::Block,
                    text: src[body_start..body_end].to_string(),
                    line,
                    end_line: cur.line,
                });
            }
            b'"' => {
                lex_string(&mut cur);
                push(&mut out, TokenKind::Str, src, start, &cur, line);
            }
            b'r' | b'b' if starts_raw_or_byte_literal(&cur) => {
                let kind = lex_prefixed_literal(&mut cur);
                push(&mut out, kind, src, start, &cur, line);
            }
            b'\'' => {
                let kind = lex_quote(&mut cur);
                push(&mut out, kind, src, start, &cur, line);
            }
            c if c.is_ascii_digit() => {
                lex_number(&mut cur);
                push(&mut out, TokenKind::Num, src, start, &cur, line);
            }
            c if is_ident_start(c) => {
                cur.eat_while(is_ident_continue);
                push(&mut out, TokenKind::Ident, src, start, &cur, line);
            }
            _ => {
                cur.bump();
                push(&mut out, TokenKind::Punct, src, start, &cur, line);
            }
        }
    }
    out
}

fn push(out: &mut LexedFile, kind: TokenKind, src: &str, start: usize, cur: &Cursor, line: usize) {
    out.tokens.push(Token {
        kind,
        text: src[start..cur.pos].to_string(),
        line,
    });
}

/// Does the cursor sit on `r"`, `r#`, `b"`, `b'`, `br"` or `br#`?
fn starts_raw_or_byte_literal(cur: &Cursor) -> bool {
    let one = cur.peek_at(1);
    match cur.peek() {
        Some(b'r') => matches!(one, Some(b'"') | Some(b'#')),
        Some(b'b') => match one {
            Some(b'"') | Some(b'\'') => true,
            Some(b'r') => matches!(cur.peek_at(2), Some(b'"') | Some(b'#')),
            _ => false,
        },
        _ => false,
    }
}

/// Lexes a literal starting with `r`/`b` prefixes; cursor is on the prefix.
fn lex_prefixed_literal(cur: &mut Cursor) -> TokenKind {
    let mut raw = false;
    let mut byte = false;
    loop {
        match cur.peek() {
            Some(b'r') if !raw => {
                raw = true;
                cur.bump();
            }
            Some(b'b') if !byte && !raw => {
                byte = true;
                cur.bump();
            }
            _ => break,
        }
    }
    if raw {
        let mut guards = 0usize;
        while cur.peek() == Some(b'#') {
            guards += 1;
            cur.bump();
        }
        cur.bump(); // opening quote
        loop {
            match cur.bump() {
                Some(b'"') => {
                    let mut seen = 0usize;
                    while seen < guards && cur.peek() == Some(b'#') {
                        seen += 1;
                        cur.bump();
                    }
                    if seen == guards {
                        break;
                    }
                }
                Some(_) => {}
                None => break,
            }
        }
        TokenKind::Str
    } else if cur.peek() == Some(b'\'') {
        lex_quote(cur)
    } else {
        lex_string(cur);
        TokenKind::Str
    }
}

/// Lexes an ordinary `"…"` string; cursor is on the opening quote.
fn lex_string(cur: &mut Cursor) {
    cur.bump();
    loop {
        match cur.bump() {
            Some(b'\\') => {
                cur.bump();
            }
            Some(b'"') | None => break,
            Some(_) => {}
        }
    }
}

/// Lexes `'…'` as a char literal or a lifetime; cursor is on the quote.
fn lex_quote(cur: &mut Cursor) -> TokenKind {
    cur.bump();
    // `'a`, `'static`, `'_'`-less label: identifier chars NOT followed by a
    // closing quote form a lifetime; `'a'`/`'\n'` are char literals.
    if cur.peek().is_some_and(is_ident_start) {
        let mut ahead = 1;
        while cur.peek_at(ahead).is_some_and(is_ident_continue) {
            ahead += 1;
        }
        if cur.peek_at(ahead) != Some(b'\'') {
            cur.eat_while(is_ident_continue);
            return TokenKind::Lifetime;
        }
    }
    loop {
        match cur.bump() {
            Some(b'\\') => {
                cur.bump();
            }
            Some(b'\'') | None => break,
            Some(_) => {}
        }
    }
    TokenKind::Char
}

/// Lexes a numeric literal; cursor is on the first digit.
fn lex_number(cur: &mut Cursor) {
    cur.bump();
    loop {
        match cur.peek() {
            // Stop at `..` so ranges like `0..n` split correctly.
            Some(b'.') if cur.peek_at(1) == Some(b'.') => break,
            Some(b'.') => {
                cur.bump();
            }
            Some(c) if c.is_ascii_alphanumeric() || c == b'_' => {
                let exponent_sign =
                    (c == b'e' || c == b'E') && matches!(cur.peek_at(1), Some(b'+') | Some(b'-'));
                cur.bump();
                if exponent_sign {
                    cur.bump();
                }
            }
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_and_puncts_are_split() {
        let f = lex("fn main() { let x = a.b; }");
        let kinds: Vec<TokenKind> = f.tokens.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TokenKind::Ident));
        assert!(kinds.contains(&TokenKind::Punct));
        assert_eq!(
            idents("fn main() { let x = a.b; }"),
            ["fn", "main", "let", "x", "a", "b"]
        );
    }

    #[test]
    fn strings_hide_their_contents() {
        // The `unwrap` inside a string must not become an identifier.
        let f = lex(r#"let s = "call .unwrap() here";"#);
        assert!(f.tokens.iter().all(|t| t.text != "unwrap"));
        assert_eq!(
            f.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            1
        );
    }

    #[test]
    fn raw_strings_with_guards() {
        let f = lex(r###"let s = r#"quote " inside"#; let t = 1;"###);
        assert_eq!(
            f.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            1
        );
        assert!(f.tokens.iter().any(|t| t.is_ident("t")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn escaped_quote_char_literal() {
        let f = lex(r"let c = '\''; let d = 2;");
        assert!(f.tokens.iter().any(|t| t.is_ident("d")));
        assert_eq!(
            f.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            1
        );
    }

    #[test]
    fn comment_styles_and_lines() {
        let src = "/// doc\n// plain\n//! inner\n/* block\nstill */\nfn x() {}\n";
        let f = lex(src);
        let styles: Vec<CommentStyle> = f.comments.iter().map(|c| c.style).collect();
        assert_eq!(
            styles,
            [
                CommentStyle::DocOuter,
                CommentStyle::Line,
                CommentStyle::DocInner,
                CommentStyle::Block
            ]
        );
        assert_eq!(f.comments[3].line, 4);
        assert_eq!(f.comments[3].end_line, 5);
        assert_eq!(f.tokens[0].line, 6);
    }

    #[test]
    fn nested_block_comments_terminate() {
        let f = lex("/* outer /* inner */ still */ fn f() {}");
        assert_eq!(f.comments.len(), 1);
        assert!(f.tokens.iter().any(|t| t.is_ident("fn")));
    }

    #[test]
    fn numbers_split_before_ranges() {
        let f = lex("for i in 0..10 {}");
        let nums: Vec<String> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, ["0", "10"]);
    }

    #[test]
    fn float_and_suffixed_numbers_stay_whole() {
        let f = lex("let x = 1.5e-3f64 + 10_000u64;");
        let nums: Vec<String> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, ["1.5e-3f64", "10_000u64"]);
    }

    #[test]
    fn line_numbers_advance() {
        let f = lex("a\nb\n\nc");
        let lines: Vec<usize> = f.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn byte_literals() {
        let f = lex(r#"let a = b"bytes"; let c = b'x'; let d = br"raw";"#);
        assert_eq!(
            f.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            2
        );
        assert_eq!(
            f.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            1
        );
    }
}
