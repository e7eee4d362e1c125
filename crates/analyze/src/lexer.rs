//! A lightweight Rust lexer — just enough structure for the name scan in
//! [`crate::lints::metrics`].
//!
//! The scanner produces a flat token stream with byte offsets and line
//! numbers. It understands the lexical shapes that would otherwise break
//! a line-level scan: nested block comments, trailing comments, raw
//! strings (`r#"…"#`), byte strings, char literals vs. lifetimes, and
//! multi-character operators (so `::` is one token). It does **not**
//! build an AST; the scan pattern-matches on the stream, so a call that
//! rustfmt breaks across lines reads the same as one on a single line.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// Byte offset of the first character in the source.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unwrap`, `cfg`, …).
    Ident(String),
    /// Lifetime (`'a`) — kept distinct so `'a` is never a char literal.
    Lifetime(String),
    /// String literal; the payload is the *unquoted, unescaped-as-written*
    /// contents (escape sequences are left verbatim — the lints only
    /// match plain names that contain no escapes).
    Str(String),
    /// Char or byte literal (contents unused by the lints).
    Char,
    /// Numeric literal.
    Num(String),
    /// Line comment, including doc comments; payload excludes the `//`.
    LineComment(String),
    /// Block comment (possibly nested); payload excludes delimiters.
    BlockComment(String),
    /// Operator / punctuation, multi-character where Rust has one
    /// (`::`, `->`, `+=`, `..=`, …).
    Punct(&'static str),
}

impl Token {
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }
    pub fn is_punct(&self, p: &str) -> bool {
        matches!(&self.kind, TokenKind::Punct(q) if *q == p)
    }
    pub fn str_lit(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::LineComment(_) | TokenKind::BlockComment(_)
        )
    }
}

/// Multi-character operators, longest first so maximal munch wins.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

/// Single-character punctuation, all ASCII.
const SINGLE_PUNCTS: &str = "+-*/%^!&|=><@_.,;:#$?()[]{}'~";

fn single_punct(c: char) -> Option<&'static str> {
    let at = SINGLE_PUNCTS.find(c)?;
    SINGLE_PUNCTS.get(at..at + 1)
}

/// Tokenize `src`. Unknown bytes are skipped (the lints treat them as
/// noise); the scanner never panics on malformed input, it just stops
/// producing structure for it.
pub fn lex(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = bytes.len();

    macro_rules! count_lines {
        ($range:expr) => {
            line += bytes[$range].iter().filter(|&&b| b == b'\n').count() as u32
        };
    }

    while i < n {
        let c = bytes[i] as char;
        let start = i;
        let start_line = line;

        // Whitespace.
        if c.is_ascii_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }

        // Comments.
        if c == '/' && i + 1 < n {
            match bytes[i + 1] {
                b'/' => {
                    let mut j = i + 2;
                    while j < n && bytes[j] != b'\n' {
                        j += 1;
                    }
                    toks.push(Token {
                        kind: TokenKind::LineComment(src[i + 2..j].to_string()),
                        start,
                        end: j,
                        line: start_line,
                    });
                    i = j;
                    continue;
                }
                b'*' => {
                    let mut depth = 1usize;
                    let mut j = i + 2;
                    while j < n && depth > 0 {
                        if j + 1 < n && bytes[j] == b'/' && bytes[j + 1] == b'*' {
                            depth += 1;
                            j += 2;
                        } else if j + 1 < n && bytes[j] == b'*' && bytes[j + 1] == b'/' {
                            depth -= 1;
                            j += 2;
                        } else {
                            j += 1;
                        }
                    }
                    count_lines!(i..j);
                    let body_end = j.saturating_sub(2).max(i + 2);
                    toks.push(Token {
                        kind: TokenKind::BlockComment(src[i + 2..body_end].to_string()),
                        start,
                        end: j,
                        line: start_line,
                    });
                    i = j;
                    continue;
                }
                _ => {}
            }
        }

        // Raw / byte strings: r"…", r#"…"#, br#"…"#, b"…".
        if c == 'r' || c == 'b' {
            if let Some((tok, next)) = try_raw_or_byte_string(src, i) {
                count_lines!(i..next);
                toks.push(Token {
                    kind: tok,
                    start,
                    end: next,
                    line: start_line,
                });
                i = next;
                continue;
            }
        }

        // Plain strings.
        if c == '"' {
            let (value, next) = scan_quoted(src, i, '"');
            count_lines!(i..next);
            toks.push(Token {
                kind: TokenKind::Str(value),
                start,
                end: next,
                line: start_line,
            });
            i = next;
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            let rest = &bytes[i + 1..];
            let is_char = match rest.first() {
                Some(b'\\') => true,
                Some(&b2) if b2 != b'\'' => {
                    // `'x'` is a char; `'x` followed by anything else is a
                    // lifetime. Look one UTF-8 char ahead for the close quote.
                    let w = utf8_width(b2);
                    rest.get(w) == Some(&b'\'')
                }
                _ => false,
            };
            if is_char {
                let (_, next) = scan_quoted(src, i, '\'');
                toks.push(Token {
                    kind: TokenKind::Char,
                    start,
                    end: next,
                    line: start_line,
                });
                i = next;
            } else {
                let mut j = i + 1;
                while j < n && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                if j == i + 1 {
                    // Bare quote (e.g. inside a macro): treat as punct.
                    toks.push(Token {
                        kind: TokenKind::Punct("'"),
                        start,
                        end: i + 1,
                        line: start_line,
                    });
                    i += 1;
                } else {
                    toks.push(Token {
                        kind: TokenKind::Lifetime(src[i + 1..j].to_string()),
                        start,
                        end: j,
                        line: start_line,
                    });
                    i = j;
                }
            }
            continue;
        }

        // Numbers.
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < n && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            // Fractional part — but not a `..` range.
            if j < n && bytes[j] == b'.' && j + 1 < n && bytes[j + 1].is_ascii_digit() {
                j += 1;
                while j < n && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
            }
            toks.push(Token {
                kind: TokenKind::Num(src[i..j].to_string()),
                start,
                end: j,
                line: start_line,
            });
            i = j;
            continue;
        }

        // Identifiers / keywords (ASCII is enough for this codebase).
        if c.is_ascii_alphabetic() || c == '_' {
            let mut j = i + 1;
            while j < n && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            // A lone `_` is punctuation-ish, but Ident("_") is harmless.
            toks.push(Token {
                kind: TokenKind::Ident(src[i..j].to_string()),
                start,
                end: j,
                line: start_line,
            });
            i = j;
            continue;
        }

        // Multi-char operators, longest first.
        let rest = &src[i..];
        if let Some(p) = PUNCTS.iter().find(|p| rest.starts_with(**p)) {
            toks.push(Token {
                kind: TokenKind::Punct(p),
                start,
                end: i + p.len(),
                line: start_line,
            });
            i += p.len();
            continue;
        }
        if let Some(p) = single_punct(c) {
            toks.push(Token {
                kind: TokenKind::Punct(p),
                start,
                end: i + 1,
                line: start_line,
            });
            i += 1;
            continue;
        }

        // Unknown byte (non-ASCII in code, stray symbol): skip.
        i += utf8_width(bytes[i]).max(1);
    }
    toks
}

fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Scan a quoted literal starting at `i` (which holds the opening quote),
/// honouring backslash escapes. Returns (contents, index past close quote).
fn scan_quoted(src: &str, i: usize, quote: char) -> (String, usize) {
    let bytes = src.as_bytes();
    let n = bytes.len();
    let mut j = i + 1;
    while j < n {
        match bytes[j] {
            b'\\' => j += 2,
            b if b == quote as u8 => {
                return (src[i + 1..j].to_string(), j + 1);
            }
            _ => j += 1,
        }
    }
    (src[i + 1..n.min(j)].to_string(), n)
}

/// Try to scan `r"…"` / `r#"…"#` / `b"…"` / `br#"…"#` starting at `i`.
fn try_raw_or_byte_string(src: &str, i: usize) -> Option<(TokenKind, usize)> {
    let bytes = src.as_bytes();
    let n = bytes.len();
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    let raw = j < n && bytes[j] == b'r';
    if raw {
        j += 1;
    }
    if !raw {
        // b"…" only; a bare `b` identifier is handled by the ident path.
        if j < n && bytes[j] == b'"' && j > i {
            let (value, next) = scan_quoted(src, j, '"');
            return Some((TokenKind::Str(value), next));
        }
        return None;
    }
    let mut hashes = 0usize;
    while j < n && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || bytes[j] != b'"' {
        return None;
    }
    let body_start = j + 1;
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat(b'#').take(hashes))
        .collect();
    let mut k = body_start;
    while k < n {
        if bytes[k] == b'"' && bytes[k..].starts_with(&closer) {
            return Some((
                TokenKind::Str(src[body_start..k].to_string()),
                k + closer.len(),
            ));
        }
        k += 1;
    }
    Some((TokenKind::Str(src[body_start..n].to_string()), n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_strings_and_ops() {
        let k = kinds(r#"let x = a.unwrap() + "cuart.x";"#);
        assert!(k.contains(&TokenKind::Ident("unwrap".into())));
        assert!(k.contains(&TokenKind::Str("cuart.x".into())));
        assert!(k.contains(&TokenKind::Punct("+")));
    }

    #[test]
    fn compound_assign_is_one_token() {
        let k = kinds("total += n; x -= 1; y *= 2; z == 3");
        assert!(k.contains(&TokenKind::Punct("+=")));
        assert!(k.contains(&TokenKind::Punct("-=")));
        assert!(k.contains(&TokenKind::Punct("*=")));
        assert!(k.contains(&TokenKind::Punct("==")));
        assert!(!k.contains(&TokenKind::Punct("=")));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let k = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        assert_eq!(
            k.iter()
                .filter(|t| matches!(t, TokenKind::Lifetime(_)))
                .count(),
            2
        );
        assert_eq!(k.iter().filter(|t| **t == TokenKind::Char).count(), 2);
    }

    #[test]
    fn raw_and_byte_strings() {
        let k = kinds(r###"let a = r#"raw "inner" text"#; let b = b"bytes"; let c = r"plain";"###);
        assert!(k.contains(&TokenKind::Str("raw \"inner\" text".into())));
        assert!(k.contains(&TokenKind::Str("bytes".into())));
        assert!(k.contains(&TokenKind::Str("plain".into())));
    }

    #[test]
    fn nested_block_comments_and_doc_lines() {
        let k = kinds("/* outer /* inner */ still */ /// doc\ncode");
        assert!(matches!(&k[0], TokenKind::BlockComment(c) if c.contains("inner")));
        assert!(matches!(&k[1], TokenKind::LineComment(c) if c.contains("doc")));
        assert!(k.contains(&TokenKind::Ident("code".into())));
    }

    #[test]
    fn line_numbers_advance_through_strings_and_comments() {
        let toks = lex("a\n\"two\nlines\"\n/*\n*/\nb");
        let b = toks.iter().find(|t| t.ident() == Some("b")).unwrap();
        assert_eq!(b.line, 6);
    }

    #[test]
    fn range_is_not_a_float() {
        let k = kinds("for i in 0..n {}");
        assert!(k.contains(&TokenKind::Num("0".into())));
        assert!(k.contains(&TokenKind::Punct("..")));
    }
}
