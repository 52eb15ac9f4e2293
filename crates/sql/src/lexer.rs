//! SQL lexer for the Spider-scale subset.

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (unquoted), kept verbatim; keyword matching is
    /// case-insensitive at the parser level.
    Word(String),
    /// `"quoted identifier"` or `` `quoted` ``.
    QuotedIdent(String),
    /// `'string literal'` (with `''` escapes).
    Str(String),
    Int(i64),
    Float(f64),
    /// Operators and punctuation: `( ) , . * = != <> < <= > >= ;`
    Sym(&'static str),
}

impl Token {
    pub fn word(&self) -> Option<&str> {
        match self {
            Token::Word(w) => Some(w),
            _ => None,
        }
    }

    /// Case-insensitive keyword test.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Word(w) if w.eq_ignore_ascii_case(kw))
    }
}

/// Error produced on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub at: usize,
    pub message: String,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL lex error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize a SQL string.
pub fn lex(sql: &str) -> Result<Vec<Token>, LexError> {
    let b = sql.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' | ')' | ',' | '.' | '*' | ';' => {
                out.push(Token::Sym(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '.' => ".",
                    '*' => "*",
                    _ => ";",
                }));
                i += 1;
            }
            '=' => {
                out.push(Token::Sym("="));
                i += 1;
                if i < b.len() && b[i] == b'=' {
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < b.len() && b[i + 1] == b'=' {
                    out.push(Token::Sym("!="));
                    i += 2;
                } else {
                    return Err(LexError { at: i, message: "lone '!'".into() });
                }
            }
            '<' => {
                if i + 1 < b.len() && b[i + 1] == b'=' {
                    out.push(Token::Sym("<="));
                    i += 2;
                } else if i + 1 < b.len() && b[i + 1] == b'>' {
                    out.push(Token::Sym("!="));
                    i += 2;
                } else {
                    out.push(Token::Sym("<"));
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < b.len() && b[i + 1] == b'=' {
                    out.push(Token::Sym(">="));
                    i += 2;
                } else {
                    out.push(Token::Sym(">"));
                    i += 1;
                }
            }
            '\'' => {
                let (s, next) = read_quoted(b, i, b'\'')
                    .ok_or_else(|| LexError { at: i, message: "unterminated string".into() })?;
                out.push(Token::Str(s));
                i = next;
            }
            '"' | '`' => {
                let q = c as u8;
                let (s, next) = read_quoted(b, i, q).ok_or_else(|| LexError {
                    at: i,
                    message: "unterminated quoted identifier".into(),
                })?;
                out.push(Token::QuotedIdent(s));
                i = next;
            }
            '-' if i + 1 < b.len() && (b[i + 1] as char).is_ascii_digit() => {
                let (t, next) = read_number(b, i);
                out.push(t);
                i = next;
            }
            '0'..='9' => {
                let (t, next) = read_number(b, i);
                out.push(t);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() {
                    let ch = b[i] as char;
                    if ch.is_ascii_alphanumeric() || ch == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token::Word(sql[start..i].to_string()));
            }
            _ => {
                return Err(LexError { at: i, message: format!("unexpected character '{c}'") })
            }
        }
    }
    Ok(out)
}

fn read_quoted(b: &[u8], start: usize, quote: u8) -> Option<(String, usize)> {
    let mut i = start + 1;
    let mut s = String::new();
    while i < b.len() {
        if b[i] == quote {
            if i + 1 < b.len() && b[i + 1] == quote {
                s.push(quote as char);
                i += 2;
            } else {
                return Some((s, i + 1));
            }
        } else {
            s.push(b[i] as char);
            i += 1;
        }
    }
    None
}

fn read_number(b: &[u8], start: usize) -> (Token, usize) {
    let mut i = start;
    if b[i] == b'-' {
        i += 1;
    }
    let mut is_float = false;
    while i < b.len() {
        let c = b[i] as char;
        if c.is_ascii_digit() {
            i += 1;
        } else if c == '.' && !is_float && i + 1 < b.len() && (b[i + 1] as char).is_ascii_digit() {
            is_float = true;
            i += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&b[start..i]).unwrap();
    let tok = if is_float {
        Token::Float(text.parse().unwrap_or(0.0))
    } else {
        text.parse::<i64>().map(Token::Int).unwrap_or(Token::Float(0.0))
    };
    (tok, i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_basic_query() {
        let toks = lex("SELECT COUNT(*) FROM Faculty WHERE sex = 'F' GROUP BY rank").unwrap();
        assert!(toks[0].is_kw("select"));
        assert_eq!(toks[2], Token::Sym("("));
        assert!(toks.iter().any(|t| *t == Token::Str("F".into())));
    }

    #[test]
    fn lex_operators() {
        let toks = lex("a >= 1 AND b <> 2 OR c != 3 AND d <= 4 AND e < 5 AND f > 6").unwrap();
        let syms: Vec<&str> = toks
            .iter()
            .filter_map(|t| if let Token::Sym(s) = t { Some(*s) } else { None })
            .collect();
        assert_eq!(syms, vec![">=", "!=", "!=", "<=", "<", ">"]);
    }

    #[test]
    fn lex_numbers() {
        let toks = lex("42 -7 2.75 10.0").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(42),
                Token::Int(-7),
                Token::Float(2.75),
                Token::Float(10.0)
            ]
        );
    }

    #[test]
    fn lex_quoted_forms() {
        let toks = lex(r#"SELECT "first name", `last` FROM t WHERE x = 'O''Hare'"#).unwrap();
        assert!(toks.contains(&Token::QuotedIdent("first name".into())));
        assert!(toks.contains(&Token::QuotedIdent("last".into())));
        assert!(toks.contains(&Token::Str("O'Hare".into())));
    }

    #[test]
    fn lex_errors() {
        assert!(lex("SELECT 'unterminated").is_err());
        assert!(lex("a ! b").is_err());
        assert!(lex("a # b").is_err());
        assert!(lex("\"open").is_err());
    }

    #[test]
    fn double_equals_tolerated() {
        let toks = lex("a == 1").unwrap();
        assert_eq!(toks[1], Token::Sym("="));
        assert_eq!(toks[2], Token::Int(1));
    }
}
