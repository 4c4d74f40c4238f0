//! Lexer for the gesture query dialect.
//!
//! Punctuation is the [`PUNCT`] table, and an operator token carries
//! its [`BinOp`], so each symbol is spelled once for the lexer, the
//! parser and (through [`BinOp::symbol`]) the printer. Words, numbers
//! and `"`-quoted strings (escapes `\"` and `\\`; any UTF-8 inside)
//! are read by hand. Comments run from `--` to end of line.

use crate::error::CepError;
use crate::expr::BinOp;

/// A lexical token with its byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Byte offset of the first character.
    pub offset: usize,
}

/// Token kinds of the query language.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Bare identifier or keyword (`kinect`, `select`, `and`, ...).
    Ident(String),
    /// Numeric literal.
    Number(f64),
    /// Double-quoted string literal (unescaped).
    Str(String),
    /// An arithmetic or comparison operator; `-` is also unary minus.
    Op(BinOp),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `->`
    Arrow,
    /// End of input.
    Eof,
}

/// Every punctuation token, longest spelling first so that no token is
/// read as its own prefix (`->` before `-`, `<=` before `<`). `==` and
/// `<>` are aliases of `=` and `!=`.
const PUNCT: &[(&str, TokenKind)] = &[
    ("->", TokenKind::Arrow),
    ("<=", TokenKind::Op(BinOp::Le)),
    (">=", TokenKind::Op(BinOp::Ge)),
    ("==", TokenKind::Op(BinOp::Eq)),
    ("!=", TokenKind::Op(BinOp::Ne)),
    ("<>", TokenKind::Op(BinOp::Ne)),
    ("(", TokenKind::LParen),
    (")", TokenKind::RParen),
    (",", TokenKind::Comma),
    (";", TokenKind::Semicolon),
    ("+", TokenKind::Op(BinOp::Add)),
    ("-", TokenKind::Op(BinOp::Sub)),
    ("*", TokenKind::Op(BinOp::Mul)),
    ("/", TokenKind::Op(BinOp::Div)),
    ("<", TokenKind::Op(BinOp::Lt)),
    (">", TokenKind::Op(BinOp::Gt)),
    ("=", TokenKind::Op(BinOp::Eq)),
];

impl TokenKind {
    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier '{s}'"),
            TokenKind::Number(n) => format!("number {n}"),
            TokenKind::Str(s) => format!("string \"{s}\""),
            TokenKind::Op(op) => format!("'{}'", op.symbol()),
            TokenKind::Eof => "end of input".into(),
            punct => {
                let (text, _) = PUNCT
                    .iter()
                    .find(|(_, kind)| kind == punct)
                    .expect("every other token kind is in PUNCT");
                format!("'{text}'")
            }
        }
    }
}

/// Tokenises query text.
pub fn lex(src: &str) -> Result<Vec<Token>, CepError> {
    let error = |offset, message: String| CepError::Parse { offset, message };
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while let Some(c) = src[i..].chars().next() {
        let rest = &src[i..];
        let (len, kind) = match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
                continue;
            }
            '-' if rest.starts_with("--") => {
                i += rest.find('\n').unwrap_or(rest.len());
                continue;
            }
            '"' => {
                let mut s = String::new();
                let mut chars = rest.char_indices().skip(1);
                let len = loop {
                    match chars.next() {
                        None => return Err(error(i, "unterminated string literal".into())),
                        Some((n, '"')) => break n + 1,
                        Some((_, '\\')) => s.extend(chars.next().map(|(_, e)| e)),
                        Some((_, c)) => s.push(c),
                    }
                };
                (len, TokenKind::Str(s))
            }
            '0'..='9' | '.' => {
                let len = number_len(rest.as_bytes());
                let text = &rest[..len];
                let n: f64 = text
                    .parse()
                    .map_err(|_| error(i, format!("invalid number '{text}'")))?;
                if !n.is_finite() {
                    return Err(error(i, format!("number '{text}' is out of range")));
                }
                (len, TokenKind::Number(n))
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let len = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                (len, TokenKind::Ident(rest[..len].to_owned()))
            }
            _ => match PUNCT.iter().find(|(text, _)| rest.starts_with(text)) {
                Some((text, kind)) => (text.len(), kind.clone()),
                None if c == '!' => {
                    return Err(error(i, "unexpected '!' (did you mean '!=' ?)".into()))
                }
                None => return Err(error(i, format!("unexpected character '{c}'"))),
            },
        };
        tokens.push(Token { kind, offset: i });
        i += len;
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        offset: src.len(),
    });
    Ok(tokens)
}

/// Length of the number at the start of `rest`: digits with at most one
/// `.`, then an optional exponent (`e`/`E`, optional sign, digits).
fn number_len(rest: &[u8]) -> usize {
    let (mut dot, mut exp, mut n) = (false, false, 0);
    while let Some(&b) = rest.get(n) {
        match b {
            b'0'..=b'9' => {}
            b'.' if !dot && !exp => dot = true,
            b'e' | b'E' if !exp && n > 0 => {
                exp = true;
                if matches!(rest.get(n + 1), Some(b'+' | b'-')) {
                    n += 1;
                }
            }
            _ => break,
        }
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_paper_fragment() {
        let ks = kinds("kinect( abs(rHand_x - torso_x - 0) < 50 ) -> ;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("kinect".into()),
                TokenKind::LParen,
                TokenKind::Ident("abs".into()),
                TokenKind::LParen,
                TokenKind::Ident("rHand_x".into()),
                TokenKind::Op(BinOp::Sub),
                TokenKind::Ident("torso_x".into()),
                TokenKind::Op(BinOp::Sub),
                TokenKind::Number(0.0),
                TokenKind::RParen,
                TokenKind::Op(BinOp::Lt),
                TokenKind::Number(50.0),
                TokenKind::RParen,
                TokenKind::Arrow,
                TokenKind::Semicolon,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn arrow_vs_minus_vs_comment() {
        assert_eq!(
            kinds("a -> b"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Arrow,
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
        assert_eq!(
            kinds("a - b"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Op(BinOp::Sub),
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
        assert_eq!(
            kinds("a -- comment\nb"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("1 2.5 .5 1e3 2.5e-2"),
            vec![
                TokenKind::Number(1.0),
                TokenKind::Number(2.5),
                TokenKind::Number(0.5),
                TokenKind::Number(1000.0),
                TokenKind::Number(0.025),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds(r#""swipe_right" "a\"b" "c\\d wavé""#),
            vec![
                TokenKind::Str("swipe_right".into()),
                TokenKind::Str("a\"b".into()),
                TokenKind::Str("c\\d wavé".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        let err = lex("\"oops").unwrap_err();
        assert!(matches!(err, CepError::Parse { offset: 0, .. }));
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("< <= > >= = == != <>"),
            vec![
                TokenKind::Op(BinOp::Lt),
                TokenKind::Op(BinOp::Le),
                TokenKind::Op(BinOp::Gt),
                TokenKind::Op(BinOp::Ge),
                TokenKind::Op(BinOp::Eq),
                TokenKind::Op(BinOp::Eq),
                TokenKind::Op(BinOp::Ne),
                TokenKind::Op(BinOp::Ne),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn bad_character_reports_offset() {
        for (src, offset, message) in [
            ("abc $", 4, "unexpected character '$'"),
            ("\"é\" é", 5, "unexpected character 'é'"),
            ("x < 1e400", 4, "number '1e400' is out of range"),
        ] {
            match lex(src).unwrap_err() {
                CepError::Parse {
                    offset: o,
                    message: m,
                } => assert_eq!((o, m.as_str()), (offset, message)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn bare_bang_errors() {
        assert!(lex("!x").is_err());
    }

    #[test]
    fn offsets_recorded() {
        let toks = lex("ab cd").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 3);
    }
}
