//! A minimal YAML-subset parser.
//!
//! Supports exactly what the CEEMS configuration file needs: nested
//! mappings by indentation, block sequences (`- item`), scalars (strings,
//! quoted strings, integers, floats, booleans, null), inline comments and
//! blank lines. No anchors, no flow collections, no multi-document streams
//! — operators' monitoring configs do not use them. Blocks nest at most
//! 64 levels deep (`MAX_DEPTH`); a deeper document is an error.

use std::collections::BTreeMap;

/// A parsed YAML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Yaml {
    /// Mapping (insertion order not preserved; keys are unique).
    Map(BTreeMap<String, Yaml>),
    /// Sequence.
    Seq(Vec<Yaml>),
    /// String scalar.
    Str(String),
    /// Integer scalar.
    Int(i64),
    /// Float scalar.
    Float(f64),
    /// Boolean scalar.
    Bool(bool),
    /// Null (`null`, `~` or empty).
    Null,
}

impl Yaml {
    /// Map member access.
    pub fn get(&self, key: &str) -> Option<&Yaml> {
        match self {
            Yaml::Map(m) => m.get(key),
            _ => None,
        }
    }

    /// Nested access by dotted path (`"tsdb.scrape_interval_s"`).
    pub fn path(&self, dotted: &str) -> Option<&Yaml> {
        let mut cur = self;
        for part in dotted.split('.') {
            cur = cur.get(part)?;
        }
        Some(cur)
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Yaml::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer accessor.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Yaml::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float accessor (ints coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Yaml::Float(f) => Some(*f),
            Yaml::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Bool accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Yaml::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Sequence accessor.
    pub fn as_seq(&self) -> Option<&[Yaml]> {
        match self {
            Yaml::Seq(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse error with 1-based line number.
#[derive(Clone, Debug, PartialEq)]
pub struct YamlError {
    /// Line of the failure.
    pub line: usize,
    /// Reason.
    pub message: String,
}

impl std::fmt::Display for YamlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "yaml error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for YamlError {}

/// Blocks nested deeper than this are an error: the parser recurses once
/// per level, and a configuration needs a handful.
const MAX_DEPTH: usize = 64;

struct Line {
    number: usize,
    indent: usize,
    content: String,
}

/// Parses a document.
pub fn parse(input: &str) -> Result<Yaml, YamlError> {
    let lines: Vec<Line> = input
        .lines()
        .enumerate()
        .filter_map(|(i, raw)| {
            let without_comment = strip_comment(raw);
            let trimmed = without_comment.trim_end();
            if trimmed.trim().is_empty() {
                return None;
            }
            let indent = trimmed.len() - trimmed.trim_start().len();
            if trimmed.trim_start().starts_with('\t') {
                // Treat tabs as errors like real YAML.
                return Some(Err(YamlError {
                    line: i + 1,
                    message: "tabs are not allowed for indentation".into(),
                }));
            }
            Some(Ok(Line {
                number: i + 1,
                indent,
                content: trimmed.trim_start().to_string(),
            }))
        })
        .collect::<Result<_, _>>()?;

    if lines.is_empty() {
        return Ok(Yaml::Null);
    }
    let mut pos = 0;
    let doc = parse_block(&lines, &mut pos, lines[0].indent, 0)?;
    if pos != lines.len() {
        return Err(YamlError {
            line: lines[pos].number,
            message: "unexpected dedent/indent structure".into(),
        });
    }
    Ok(doc)
}

fn strip_comment(raw: &str) -> String {
    // A '#' starts a comment unless inside quotes.
    let mut out = String::with_capacity(raw.len());
    let mut quote: Option<char> = None;
    for c in raw.chars() {
        match quote {
            Some(q) => {
                out.push(c);
                if c == q {
                    quote = None;
                }
            }
            None => {
                if c == '"' || c == '\'' {
                    quote = Some(c);
                    out.push(c);
                } else if c == '#' {
                    break;
                } else {
                    out.push(c);
                }
            }
        }
    }
    out
}

fn parse_block(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Yaml, YamlError> {
    let first = &lines[*pos];
    if depth > MAX_DEPTH {
        return Err(YamlError {
            line: first.number,
            message: format!("blocks nested deeper than {MAX_DEPTH} levels"),
        });
    }
    if first.content.starts_with("- ") || first.content == "-" {
        parse_seq(lines, pos, indent, depth)
    } else {
        parse_map(lines, pos, indent, depth)
    }
}

fn parse_seq(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Yaml, YamlError> {
    let mut items = Vec::new();
    while *pos < lines.len() {
        let line = &lines[*pos];
        if line.indent < indent {
            break;
        }
        if line.indent > indent {
            return Err(YamlError {
                line: line.number,
                message: "unexpected indentation in sequence".into(),
            });
        }
        if !(line.content.starts_with("- ") || line.content == "-") {
            break;
        }
        let rest = line.content[1..].trim_start().to_string();
        *pos += 1;
        if rest.is_empty() {
            // Nested block under the dash.
            if *pos < lines.len() && lines[*pos].indent > indent {
                let child_indent = lines[*pos].indent;
                items.push(parse_block(lines, pos, child_indent, depth + 1)?);
            } else {
                items.push(Yaml::Null);
            }
        } else if let Some((key, value)) = split_mapping(&rest) {
            // "- key: value" starts an inline mapping item; subsequent more-
            // indented lines belong to it.
            let mut map = BTreeMap::new();
            insert_entry(&mut map, (key, value), lines, pos, line, indent + 2, depth)?;
            while *pos < lines.len() && lines[*pos].indent > indent {
                let child = &lines[*pos];
                let Some((k, v)) = split_mapping(&child.content) else {
                    return Err(YamlError {
                        line: child.number,
                        message: "expected key: value inside sequence item".into(),
                    });
                };
                let child_indent = child.indent;
                *pos += 1;
                insert_entry(&mut map, (k, v), lines, pos, child, child_indent, depth)?;
            }
            items.push(Yaml::Map(map));
        } else {
            items.push(parse_scalar(&rest));
        }
    }
    Ok(Yaml::Seq(items))
}

fn parse_map(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Yaml, YamlError> {
    let mut map = BTreeMap::new();
    while *pos < lines.len() {
        let line = &lines[*pos];
        if line.indent < indent {
            break;
        }
        if line.indent > indent {
            return Err(YamlError {
                line: line.number,
                message: "unexpected indentation in mapping".into(),
            });
        }
        if line.content.starts_with("- ") || line.content == "-" {
            break;
        }
        let Some((key, value)) = split_mapping(&line.content) else {
            return Err(YamlError {
                line: line.number,
                message: format!("expected key: value, got {:?}", line.content),
            });
        };
        *pos += 1;
        insert_entry(&mut map, (key, value), lines, pos, line, indent, depth)?;
    }
    Ok(Yaml::Map(map))
}

fn insert_entry(
    map: &mut BTreeMap<String, Yaml>,
    (key, value): (String, String),
    lines: &[Line],
    pos: &mut usize,
    at: &Line,
    indent: usize,
    depth: usize,
) -> Result<(), YamlError> {
    if map.contains_key(&key) {
        return Err(YamlError {
            line: at.number,
            message: format!("duplicate key {key:?}"),
        });
    }
    let v = if value.is_empty() {
        // Block value (or null).
        if *pos < lines.len() && lines[*pos].indent > indent {
            let child_indent = lines[*pos].indent;
            parse_block(lines, pos, child_indent, depth + 1)?
        } else {
            Yaml::Null
        }
    } else {
        parse_scalar(&value)
    };
    map.insert(key, v);
    Ok(())
}

/// Splits `key: value` (value may be empty). Returns `None` if no colon
/// separates a key (a colon inside quotes does not count).
fn split_mapping(content: &str) -> Option<(String, String)> {
    let mut quote: Option<char> = None;
    for (i, c) in content.char_indices() {
        match quote {
            Some(q) => {
                if c == q {
                    quote = None;
                }
            }
            None => {
                if c == '"' || c == '\'' {
                    quote = Some(c);
                } else if c == ':' {
                    let after = &content[i + 1..];
                    if after.is_empty() || after.starts_with(' ') {
                        let key = unquote(content[..i].trim());
                        return Some((key, after.trim().to_string()));
                    }
                }
            }
        }
    }
    None
}

fn unquote(s: &str) -> String {
    let b = s.as_bytes();
    if b.len() >= 2 && (b[0] == b'"' || b[0] == b'\'') && b[b.len() - 1] == b[0] {
        s[1..s.len() - 1].to_string()
    } else {
        s.to_string()
    }
}

fn parse_scalar(s: &str) -> Yaml {
    let b = s.as_bytes();
    if b.len() >= 2 && (b[0] == b'"' || b[0] == b'\'') && b[b.len() - 1] == b[0] {
        return Yaml::Str(s[1..s.len() - 1].to_string());
    }
    match s {
        "null" | "~" | "Null" | "NULL" => return Yaml::Null,
        "true" | "True" => return Yaml::Bool(true),
        "false" | "False" => return Yaml::Bool(false),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        return Yaml::Int(i);
    }
    if let Ok(f) = s.parse::<f64>() {
        return Yaml::Float(f);
    }
    Yaml::Str(s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse_scalar("42"), Yaml::Int(42));
        assert_eq!(parse_scalar("-1.5"), Yaml::Float(-1.5));
        assert_eq!(parse_scalar("true"), Yaml::Bool(true));
        assert_eq!(parse_scalar("null"), Yaml::Null);
        assert_eq!(parse_scalar("plain text"), Yaml::Str("plain text".into()));
        assert_eq!(parse_scalar("\"quoted: 42\""), Yaml::Str("quoted: 42".into()));
    }

    #[test]
    fn nested_mappings() {
        let doc = parse(
            "cluster:\n  name: jean-zay   # a comment\n  nodes: 1400\ntsdb:\n  scrape_interval_s: 15\n  retention_days: 30\n",
        )
        .unwrap();
        assert_eq!(doc.path("cluster.name").unwrap().as_str(), Some("jean-zay"));
        assert_eq!(doc.path("cluster.nodes").unwrap().as_i64(), Some(1400));
        assert_eq!(doc.path("tsdb.scrape_interval_s").unwrap().as_f64(), Some(15.0));
        assert!(doc.path("missing.key").is_none());
    }

    #[test]
    fn sequences_of_scalars_and_maps() {
        let doc = parse(
            "admins:\n  - root\n  - ops\npartitions:\n  - name: cpu\n    walltime_h: 72\n  - name: gpu\n    walltime_h: 20\n",
        )
        .unwrap();
        let admins = doc.get("admins").unwrap().as_seq().unwrap();
        assert_eq!(admins.len(), 2);
        assert_eq!(admins[0].as_str(), Some("root"));
        let parts = doc.get("partitions").unwrap().as_seq().unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[1].get("name").unwrap().as_str(), Some("gpu"));
        assert_eq!(parts[1].get("walltime_h").unwrap().as_i64(), Some(20));
    }

    #[test]
    fn empty_values_and_null() {
        let doc = parse("a:\nb: 1\n").unwrap();
        assert_eq!(doc.get("a"), Some(&Yaml::Null));
        let doc = parse("").unwrap();
        assert_eq!(doc, Yaml::Null);
        let doc = parse("# only comments\n\n").unwrap();
        assert_eq!(doc, Yaml::Null);
    }

    #[test]
    fn quoted_values_with_special_chars() {
        let doc = parse("query: \"rate(x{uuid=\'a\'}[5m]) # not a comment\"\n").unwrap();
        assert_eq!(
            doc.get("query").unwrap().as_str(),
            Some("rate(x{uuid='a'}[5m]) # not a comment")
        );
    }

    #[test]
    fn errors() {
        let e = parse("a: 1\n\tb: 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse("a: 1\na: 2\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
        let e = parse("a: 1\njust text\n").unwrap_err();
        assert!(e.message.contains("key: value"));
        let e = parse("a: 1\n    b: 2\n").unwrap_err();
        assert!(e.message.contains("indentation"));
    }

    #[test]
    fn a_repeated_key_is_an_error_naming_the_key_and_its_line() {
        for (text, key, line) in [
            ("a: 1\nb: 2\na: 3\n", "a", 3),
            (
                "tsdb:\n  scrape_interval_s: 15\n  rule_window: 2m\n  scrape_interval_s: 30\n",
                "scrape_interval_s",
                4,
            ),
            ("jobs:\n  - name: a\n    user: x\n    name: b\n", "name", 4),
        ] {
            let e = parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text}");
            assert!(e.to_string().contains(&format!("duplicate key {key:?}")), "{e}");
        }
    }

    #[test]
    fn deep_nesting() {
        let doc = parse(
            "lb:\n  strategy: round_robin\n  backends:\n    - id: a\n      url: http://a\n    - id: b\n      url: http://b\n  acl:\n    mode: direct\n",
        )
        .unwrap();
        assert_eq!(
            doc.path("lb.acl.mode").unwrap().as_str(),
            Some("direct")
        );
        let backends = doc.path("lb.backends").unwrap().as_seq().unwrap();
        assert_eq!(backends[1].get("url").unwrap().as_str(), Some("http://b"));
    }

    #[test]
    fn sequence_under_dash_block() {
        let doc = parse("groups:\n  -\n    - 1\n    - 2\n").unwrap();
        let groups = doc.get("groups").unwrap().as_seq().unwrap();
        let inner = groups[0].as_seq().unwrap();
        assert_eq!(inner, &[Yaml::Int(1), Yaml::Int(2)]);
    }
}
