//! PromQL tokenizer.

/// A lexed token.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Identifier or keyword (`rate`, `by`, metric names with `:`).
    Ident(String),
    /// Numeric literal.
    Number(f64),
    /// Quoted string (label value).
    Str(String),
    /// Duration literal, in milliseconds (`5m`, `1h30m` is not supported —
    /// single unit only, like `30s`, `5m`, `2h`, `7d`, `1w`, `1y`).
    Duration(i64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `=~`
    Re,
    /// `!~`
    Nre,
    /// `==`
    EqEq,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
}

/// Lexer error with byte offset.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Reason.
    pub message: String,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lex error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for LexError {}

/// Converts a duration unit to milliseconds.
fn unit_ms(unit: &str) -> Option<i64> {
    Some(match unit {
        "ms" => 1,
        "s" => 1_000,
        "m" => 60_000,
        "h" => 3_600_000,
        "d" => 86_400_000,
        "w" => 7 * 86_400_000,
        "y" => 365 * 86_400_000,
        _ => return None,
    })
}

/// Tokenizes a query string.
pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '{' => {
                out.push(Token::LBrace);
                i += 1;
            }
            '}' => {
                out.push(Token::RBrace);
                i += 1;
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            '[' => {
                out.push(Token::LBracket);
                i += 1;
            }
            ']' => {
                out.push(Token::RBracket);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '/' => {
                out.push(Token::Slash);
                i += 1;
            }
            '=' => match bytes.get(i + 1) {
                Some(b'~') => {
                    out.push(Token::Re);
                    i += 2;
                }
                Some(b'=') => {
                    out.push(Token::EqEq);
                    i += 2;
                }
                _ => {
                    out.push(Token::Eq);
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Le);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '!' => match bytes.get(i + 1) {
                Some(b'=') => {
                    out.push(Token::Ne);
                    i += 2;
                }
                Some(b'~') => {
                    out.push(Token::Nre);
                    i += 2;
                }
                _ => {
                    return Err(LexError {
                        at: i,
                        message: "dangling '!'".into(),
                    })
                }
            },
            '"' | '\'' => {
                let quote = c;
                let mut s = String::new();
                i += 1;
                loop {
                    let Some(&b) = bytes.get(i) else {
                        return Err(LexError {
                            at: i,
                            message: "unterminated string".into(),
                        });
                    };
                    let ch = b as char;
                    if ch == quote {
                        i += 1;
                        break;
                    }
                    if ch == '\\' {
                        i += 1;
                        // The escaped character is whole, however many bytes it takes.
                        let Some(escaped) = input[i..].chars().next() else {
                            return Err(LexError {
                                at: i,
                                message: "dangling escape".into(),
                            });
                        };
                        match escaped {
                            'n' => s.push('\n'),
                            '\\' => s.push('\\'),
                            q if q == quote => s.push(q),
                            other => {
                                s.push('\\');
                                s.push(other);
                            }
                        }
                        i += escaped.len_utf8();
                    } else {
                        // Consume a full UTF-8 character.
                        let rest = &input[i..];
                        let ch = rest.chars().next().unwrap();
                        s.push(ch);
                        i += ch.len_utf8();
                    }
                }
                out.push(Token::Str(s));
            }
            '0'..='9' | '.' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || (bytes[i] == b'+' || bytes[i] == b'-')
                            && i > start
                            && (bytes[i - 1] == b'e'))
                {
                    i += 1;
                }
                let num_str = &input[start..i];
                // Duration? A unit suffix follows the digits.
                let unit_start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_alphabetic() {
                    i += 1;
                }
                if i > unit_start {
                    let unit = &input[unit_start..i];
                    let scale = unit_ms(unit).ok_or_else(|| LexError {
                        at: unit_start,
                        message: format!("unknown duration unit {unit:?}"),
                    })?;
                    let qty: f64 = num_str.parse().map_err(|_| LexError {
                        at: start,
                        message: format!("bad number {num_str:?}"),
                    })?;
                    out.push(Token::Duration((qty * scale as f64) as i64));
                } else {
                    let v: f64 = num_str.parse().map_err(|_| LexError {
                        at: start,
                        message: format!("bad number {num_str:?}"),
                    })?;
                    out.push(Token::Number(v));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == ':' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(LexError {
                    at: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backslash before a multi-byte character once split it and panicked.
    #[test]
    fn an_escaped_multibyte_character_stays_whole() {
        let toks = lex("up{a=\"\\é\", b='\\\u{1F600}'}").unwrap();
        assert_eq!(toks[4], Token::Str("\\é".into()));
        assert_eq!(toks[8], Token::Str("\\\u{1F600}".into()));
        assert!(lex("\"\\").is_err());
    }

    #[test]
    fn basic_selector() {
        let toks = lex("rate(node_cpu_seconds_total{mode!=\"idle\"}[5m])").unwrap();
        assert_eq!(toks[0], Token::Ident("rate".into()));
        assert_eq!(toks[1], Token::LParen);
        assert_eq!(toks[2], Token::Ident("node_cpu_seconds_total".into()));
        assert!(toks.contains(&Token::Ne));
        assert!(toks.contains(&Token::Str("idle".into())));
        assert!(toks.contains(&Token::Duration(300_000)));
    }

    #[test]
    fn durations() {
        assert_eq!(lex("[30s]").unwrap()[1], Token::Duration(30_000));
        assert_eq!(lex("[2h]").unwrap()[1], Token::Duration(7_200_000));
        assert_eq!(lex("[7d]").unwrap()[1], Token::Duration(604_800_000));
        assert_eq!(lex("[1y]").unwrap()[1], Token::Duration(31_536_000_000));
        assert_eq!(lex("[1.5m]").unwrap()[1], Token::Duration(90_000));
        assert!(lex("[5x]").is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(lex("0.9").unwrap()[0], Token::Number(0.9));
        assert_eq!(lex("1e3").unwrap()[0], Token::Number(1000.0));
        assert_eq!(lex("2.5e-2").unwrap()[0], Token::Number(0.025));
    }

    #[test]
    fn recording_rule_names_with_colons() {
        let toks = lex("job:power_watts:rate5m").unwrap();
        assert_eq!(toks, vec![Token::Ident("job:power_watts:rate5m".into())]);
    }

    #[test]
    fn operators_and_regex_matchers() {
        let toks = lex("a =~ \"x|y\" !~ 'z'").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("a".into()),
                Token::Re,
                Token::Str("x|y".into()),
                Token::Nre,
                Token::Str("z".into()),
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        let toks = lex("a > 1 >= 2 < 3 <= 4 == 5 != 6").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("a".into()),
                Token::Gt,
                Token::Number(1.0),
                Token::Ge,
                Token::Number(2.0),
                Token::Lt,
                Token::Number(3.0),
                Token::Le,
                Token::Number(4.0),
                Token::EqEq,
                Token::Number(5.0),
                Token::Ne,
                Token::Number(6.0),
            ]
        );
    }

    #[test]
    fn string_escapes() {
        let toks = lex(r#""a\"b\nc""#).unwrap();
        assert_eq!(toks[0], Token::Str("a\"b\nc".into()));
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn bad_chars_error_with_offset() {
        let e = lex("up @ 5").unwrap_err();
        assert_eq!(e.at, 3);
        assert!(lex("a ! b").is_err());
    }
}
