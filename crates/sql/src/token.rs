//! Tokenizer for the percentage-query dialect.

use crate::error::{Result, SqlError};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (keywords are recognized case-insensitively by
    /// the parser; the original spelling is preserved).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `.`
    Dot,
}

/// A token plus its byte offset (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Byte offset where it starts.
    pub offset: usize,
}

/// The first byte at or after `i` that is neither whitespace nor part of
/// an SQL line comment (`--` to the end of the line).
pub(crate) fn skip_blank(bytes: &[u8], mut i: usize) -> usize {
    loop {
        match bytes.get(i) {
            Some(b' ' | b'\t' | b'\n' | b'\r') => i += 1,
            Some(b'-') if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            _ => return i,
        }
    }
}

/// Tokenize `input`.
pub fn tokenize(input: &str) -> Result<Vec<Spanned>> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                i = skip_blank(bytes, i);
            }
            '(' => {
                out.push(Spanned {
                    token: Token::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                out.push(Spanned {
                    token: Token::RParen,
                    offset: start,
                });
                i += 1;
            }
            ',' => {
                out.push(Spanned {
                    token: Token::Comma,
                    offset: start,
                });
                i += 1;
            }
            ';' => {
                out.push(Spanned {
                    token: Token::Semi,
                    offset: start,
                });
                i += 1;
            }
            '*' => {
                out.push(Spanned {
                    token: Token::Star,
                    offset: start,
                });
                i += 1;
            }
            '+' => {
                out.push(Spanned {
                    token: Token::Plus,
                    offset: start,
                });
                i += 1;
            }
            '-' => {
                out.push(Spanned {
                    token: Token::Minus,
                    offset: start,
                });
                i += 1;
            }
            '/' => {
                out.push(Spanned {
                    token: Token::Slash,
                    offset: start,
                });
                i += 1;
            }
            '.' => {
                out.push(Spanned {
                    token: Token::Dot,
                    offset: start,
                });
                i += 1;
            }
            '=' => {
                out.push(Spanned {
                    token: Token::Eq,
                    offset: start,
                });
                i += 1;
            }
            '!' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                out.push(Spanned {
                    token: Token::Ne,
                    offset: start,
                });
                i += 2;
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    out.push(Spanned {
                        token: Token::Ne,
                        offset: start,
                    });
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Spanned {
                        token: Token::Le,
                        offset: start,
                    });
                    i += 2;
                } else {
                    out.push(Spanned {
                        token: Token::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Spanned {
                        token: Token::Ge,
                        offset: start,
                    });
                    i += 2;
                } else {
                    out.push(Spanned {
                        token: Token::Gt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(SqlError::Lex {
                            offset: start,
                            message: "unterminated string literal".into(),
                        });
                    }
                    if bytes[i] == b'\'' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        // Strings are UTF-8; copy byte-wise within a char.
                        let ch_len = utf8_len(bytes[i]);
                        s.push_str(&input[i..i + ch_len]);
                        i += ch_len;
                    }
                }
                out.push(Spanned {
                    token: Token::Str(s),
                    offset: start,
                });
            }
            c if c.is_ascii_digit() => {
                let mut end = i;
                let mut is_float = false;
                while end < bytes.len()
                    && ((bytes[end] as char).is_ascii_digit() || bytes[end] == b'.')
                {
                    if bytes[end] == b'.' {
                        // "1." followed by non-digit: stop before the dot.
                        if is_float
                            || end + 1 >= bytes.len()
                            || !(bytes[end + 1] as char).is_ascii_digit()
                        {
                            break;
                        }
                        is_float = true;
                    }
                    end += 1;
                }
                let text = &input[i..end];
                let token = if is_float {
                    Token::Float(text.parse().map_err(|_| SqlError::Lex {
                        offset: start,
                        message: format!("bad float literal {text}"),
                    })?)
                } else {
                    Token::Int(text.parse().map_err(|_| SqlError::Lex {
                        offset: start,
                        message: format!("bad int literal {text}"),
                    })?)
                };
                out.push(Spanned {
                    token,
                    offset: start,
                });
                i = end;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut end = i;
                while end < bytes.len()
                    && ((bytes[end] as char).is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                out.push(Spanned {
                    token: Token::Ident(input[i..end].to_string()),
                    offset: start,
                });
                i = end;
            }
            other => {
                return Err(SqlError::Lex {
                    offset: start,
                    message: format!("unexpected character {other:?}"),
                });
            }
        }
    }
    Ok(out)
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token> {
        tokenize(s).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn basic_query_tokens() {
        let t = toks("SELECT state,Vpct(salesAmt BY city) FROM sales GROUP BY state,city;");
        assert_eq!(t[0], Token::Ident("SELECT".into()));
        assert_eq!(t[2], Token::Comma);
        assert_eq!(t[4], Token::LParen);
        assert!(t.contains(&Token::Semi));
    }

    #[test]
    fn numbers_and_strings() {
        assert_eq!(
            toks("1 2.5 'it''s'"),
            vec![Token::Int(1), Token::Float(2.5), Token::Str("it's".into())]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("= <> != < <= > >= + - * /"),
            vec![
                Token::Eq,
                Token::Ne,
                Token::Ne,
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("SELECT -- the whole line\n 1"),
            vec![Token::Ident("SELECT".into()), Token::Int(1)]
        );
    }

    #[test]
    fn offsets_recorded() {
        let spanned = tokenize("ab  cd").unwrap();
        assert_eq!(spanned[0].offset, 0);
        assert_eq!(spanned[1].offset, 4);
    }

    #[test]
    fn lex_errors() {
        assert!(matches!(tokenize("'oops"), Err(SqlError::Lex { .. })));
        assert!(matches!(tokenize("a ? b"), Err(SqlError::Lex { .. })));
    }

    #[test]
    fn trailing_dot_not_float() {
        // "1." followed by ident: Int then Dot.
        assert_eq!(
            toks("Fk.A"),
            vec![
                Token::Ident("Fk".into()),
                Token::Dot,
                Token::Ident("A".into())
            ]
        );
        assert_eq!(
            toks("1.x"),
            vec![Token::Int(1), Token::Dot, Token::Ident("x".into())]
        );
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(toks("'café'"), vec![Token::Str("café".into())]);
    }
}
