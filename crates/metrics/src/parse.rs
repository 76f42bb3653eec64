//! Text exposition format parser, used by the TSDB scraper.
//!
//! The parser is line-oriented and tolerant in the same ways Prometheus'
//! scrape parser is: unknown comment lines are skipped, families may appear
//! without HELP/TYPE, and samples are returned flat (histogram `_bucket`
//! series are just samples with a `le` label).

use std::collections::HashMap;

use crate::labels::{LabelSet, LabelSetBuilder};
use crate::model::MetricType;

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedSample {
    /// On-wire metric name (including any `_bucket`-style suffix).
    pub name: String,
    /// Labels excluding the name.
    pub labels: LabelSet,
    /// Value.
    pub value: f64,
    /// Optional explicit timestamp in milliseconds.
    pub timestamp_ms: Option<i64>,
    /// Optional OpenMetrics exemplar (`# {trace_id="..."} value`) attached to
    /// the sample line. Exemplars annotate a sample; they are not samples
    /// themselves, so ingestion paths may ignore this field.
    pub exemplar: Option<ParsedExemplar>,
}

/// An exemplar parsed from the `# {labels} value` suffix of a sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedExemplar {
    /// Exemplar labels (typically just `trace_id`).
    pub labels: LabelSet,
    /// The exemplified observation's value.
    pub value: f64,
}

/// Parse failure with 1-based line number.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line of the failure.
    pub line: usize,
    /// Human-readable reason.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exposition parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Result of parsing a scrape body.
#[derive(Clone, Debug, Default)]
pub struct ParsedScrape {
    /// All samples in document order.
    pub samples: Vec<ParsedSample>,
    /// Declared types by family name.
    pub types: HashMap<String, MetricType>,
    /// Declared help strings by family name.
    pub help: HashMap<String, String>,
}

/// The non-blank lines of a document with their 1-based numbers, a trailing
/// `\r` removed. Comment lines (`#…`) are included.
fn numbered_lines(body: &str) -> impl Iterator<Item = (usize, &str)> {
    body.lines()
        .enumerate()
        .map(|(idx, raw)| (idx + 1, raw.trim_end_matches('\r')))
        .filter(|(_, line)| !line.is_empty())
}

/// The sample lines of a document (neither blank nor a comment) with their
/// 1-based numbers — what [`parse_text`] hands to [`parse_sample_line`].
pub fn sample_lines(body: &str) -> impl Iterator<Item = (usize, &str)> {
    numbered_lines(body).filter(|(_, line)| !line.starts_with('#'))
}

/// Parses a full text-format document.
pub fn parse_text(body: &str) -> Result<ParsedScrape, ParseError> {
    let mut out = ParsedScrape::default();
    for (lineno, line) in numbered_lines(body) {
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix("TYPE ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or("").to_string();
                let ty = parts.next().unwrap_or("untyped").trim();
                out.types.insert(name, MetricType::from_str_loose(ty));
            } else if let Some(rest) = rest.strip_prefix("HELP ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or("").to_string();
                let help = unescape_help(parts.next().unwrap_or(""));
                out.help.insert(name, help);
            }
            continue;
        }
        out.samples.push(parse_sample_line(line, lineno)?);
    }
    Ok(out)
}

fn unescape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Byte length of the series text a sample line starts with — `name` or
/// `name{…}` — found without building anything: the scan only steps over
/// quoted values (honouring `\` escapes) to the closing brace. `None` when
/// the line does not start with a name or its block never closes. The scan
/// validates nothing; a caller that keys a cache by this text must have put
/// the key there from a line [`parse_series`] accepted.
pub fn series_text_len(line: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let name_len = metric_name_len(bytes);
    if name_len == 0 {
        return None;
    }
    if bytes.get(name_len) != Some(&b'{') {
        return Some(name_len);
    }
    let mut i = name_len + 1;
    let mut quoted = false;
    while let Some(&c) = bytes.get(i) {
        match c {
            b'\\' if quoted => i += 1,
            b'"' => quoted = !quoted,
            b'}' if !quoted => return Some(i + 1),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Length of the metric name (`[a-zA-Z0-9_:]*`) a line starts with.
fn metric_name_len(line: &[u8]) -> usize {
    line.iter()
        .position(|&c| !(c.is_ascii_alphanumeric() || c == b'_' || c == b':'))
        .unwrap_or(line.len())
}

/// Parses the series text of a sample line: the metric name, its labels
/// (excluding the name) and the byte offset at which the value tail —
/// [`parse_sample_rest`]'s input — begins.
pub fn parse_series(line: &str, lineno: usize) -> Result<(String, LabelSet, usize), ParseError> {
    let bytes = line.as_bytes();
    let mut i = metric_name_len(bytes);
    if i == 0 {
        return Err(ParseError {
            line: lineno,
            message: "expected metric name".to_string(),
        });
    }
    let name = line[..i].to_string();
    let labels = if bytes.get(i) == Some(&b'{') {
        parse_label_block(line, lineno, &mut i)?
    } else {
        LabelSet::empty()
    };
    Ok((name, labels, i))
}

/// Parses what follows the series text of a sample line: the value, an
/// optional timestamp and an optional OpenMetrics exemplar suffix
/// (`# {labels} value`). Any '#' starts the exemplar: sample values and
/// timestamps cannot contain one.
pub fn parse_sample_rest(
    rest: &str,
    lineno: usize,
) -> Result<(f64, Option<i64>, Option<ParsedExemplar>), ParseError> {
    let err = |m: &str| ParseError {
        line: lineno,
        message: m.to_string(),
    };
    let (sample_part, exemplar_part) = match rest.find('#') {
        Some(pos) => (&rest[..pos], Some(&rest[pos + 1..])),
        None => (rest, None),
    };
    let mut parts = sample_part.split_whitespace();
    let vstr = parts.next().ok_or_else(|| err("missing sample value"))?;
    let value = parse_value(vstr).ok_or_else(|| err(&format!("bad value {vstr:?}")))?;
    let timestamp_ms = match parts.next() {
        None => None,
        Some(t) => Some(
            t.parse::<i64>()
                .map_err(|_| err(&format!("bad timestamp {t:?}")))?,
        ),
    };
    if parts.next().is_some() {
        return Err(err("trailing garbage after timestamp"));
    }
    let exemplar = match exemplar_part {
        None => None,
        Some(ex) => Some(parse_exemplar(ex, lineno)?),
    };
    Ok((value, timestamp_ms, exemplar))
}

/// Parses one sample line: [`parse_series`], then [`parse_sample_rest`].
pub fn parse_sample_line(line: &str, lineno: usize) -> Result<ParsedSample, ParseError> {
    let (name, labels, end) = parse_series(line, lineno)?;
    let (value, timestamp_ms, exemplar) = parse_sample_rest(&line[end..], lineno)?;
    Ok(ParsedSample {
        name,
        labels,
        value,
        timestamp_ms,
        exemplar,
    })
}

/// Parses the exemplar suffix after the `#` marker: `{labels} value [ts]`.
fn parse_exemplar(s: &str, lineno: usize) -> Result<ParsedExemplar, ParseError> {
    let err = |m: &str| ParseError {
        line: lineno,
        message: m.to_string(),
    };
    let s = s.trim_start();
    if !s.starts_with('{') {
        return Err(err("expected '{' starting exemplar labels"));
    }
    let mut i = 0;
    let labels = parse_label_block(s, lineno, &mut i)?;
    let mut parts = s[i..].split_whitespace();
    let vstr = parts.next().ok_or_else(|| err("missing exemplar value"))?;
    let value = parse_value(vstr).ok_or_else(|| err(&format!("bad exemplar value {vstr:?}")))?;
    // Optional exemplar timestamp (seconds in OpenMetrics); tolerated and
    // discarded.
    if let Some(t) = parts.next() {
        t.parse::<f64>()
            .map_err(|_| err(&format!("bad exemplar timestamp {t:?}")))?;
    }
    if parts.next().is_some() {
        return Err(err("trailing garbage after exemplar"));
    }
    Ok(ParsedExemplar { labels, value })
}

/// Parses a `{name="value",...}` block starting at `line[*i]` (which must be
/// `'{'`), leaving `*i` just past the closing `'}'`.
fn parse_label_block(line: &str, lineno: usize, i: &mut usize) -> Result<LabelSet, ParseError> {
    let err = |m: &str| ParseError {
        line: lineno,
        message: m.to_string(),
    };
    let bytes = line.as_bytes();
    let mut builder = LabelSetBuilder::new();
    debug_assert_eq!(bytes[*i], b'{');
    *i += 1;
    loop {
        // Skip whitespace.
        while *i < bytes.len() && bytes[*i] == b' ' {
            *i += 1;
        }
        if *i < bytes.len() && bytes[*i] == b'}' {
            *i += 1;
            break;
        }
        // Label name.
        let ls = *i;
        while *i < bytes.len() {
            let c = bytes[*i] as char;
            if c.is_ascii_alphanumeric() || c == '_' {
                *i += 1;
            } else {
                break;
            }
        }
        if *i == ls {
            return Err(err("expected label name"));
        }
        let lname = &line[ls..*i];
        if *i >= bytes.len() || bytes[*i] != b'=' {
            return Err(err("expected '=' after label name"));
        }
        *i += 1;
        if *i >= bytes.len() || bytes[*i] != b'"' {
            return Err(err("expected '\"' starting label value"));
        }
        *i += 1;
        // The value is the line's own text up to the closing quote unless
        // an escape has to be undone; only then is it built apart.
        let vs = *i;
        let mut unescaped: Option<String> = None;
        loop {
            if *i >= bytes.len() {
                return Err(err("unterminated label value"));
            }
            match bytes[*i] {
                b'"' => break,
                b'\\' => {
                    let value = unescaped.get_or_insert_with(|| line[vs..*i].to_string());
                    *i += 1;
                    if *i >= bytes.len() {
                        return Err(err("dangling escape in label value"));
                    }
                    match bytes[*i] {
                        b'n' => value.push('\n'),
                        b'\\' => value.push('\\'),
                        b'"' => value.push('"'),
                        // Not an escape: the backslash stands for itself
                        // and the next turn reads the character after it
                        // whole (it may be several bytes long).
                        _ => {
                            value.push('\\');
                            continue;
                        }
                    }
                    *i += 1;
                }
                _ => {
                    // Consume one UTF-8 char.
                    let rest = &line[*i..];
                    let c = rest.chars().next().unwrap();
                    if let Some(value) = &mut unescaped {
                        value.push(c);
                    }
                    *i += c.len_utf8();
                }
            }
        }
        builder = builder.label(lname, unescaped.as_deref().unwrap_or(&line[vs..*i]));
        *i += 1;
        // After a pair: ',' or '}'.
        while *i < bytes.len() && bytes[*i] == b' ' {
            *i += 1;
        }
        if *i < bytes.len() && bytes[*i] == b',' {
            *i += 1;
            continue;
        }
        if *i < bytes.len() && bytes[*i] == b'}' {
            *i += 1;
            break;
        }
        return Err(err("expected ',' or '}' in label set"));
    }
    Ok(builder.build())
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "NaN" => Some(f64::NAN),
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        _ => s.parse::<f64>().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_families;
    use crate::labels;
    use crate::model::{Metric, MetricFamily, MetricType, Sample};

    #[test]
    fn parse_simple() {
        let doc = "# HELP up is up\n# TYPE up gauge\nup{instance=\"n1\"} 1\nup{instance=\"n2\"} 0 1700000000000\n";
        let parsed = parse_text(doc).unwrap();
        assert_eq!(parsed.samples.len(), 2);
        assert_eq!(parsed.types["up"], MetricType::Gauge);
        assert_eq!(parsed.help["up"], "is up");
        assert_eq!(parsed.samples[0].labels.get("instance"), Some("n1"));
        assert_eq!(parsed.samples[1].timestamp_ms, Some(1700000000000));
    }

    #[test]
    fn parse_no_labels_and_special_values() {
        let doc = "a 1\nb NaN\nc +Inf\nd -Inf\ne 1e3\n";
        let parsed = parse_text(doc).unwrap();
        assert_eq!(parsed.samples.len(), 5);
        assert!(parsed.samples[1].value.is_nan());
        assert_eq!(parsed.samples[2].value, f64::INFINITY);
        assert_eq!(parsed.samples[4].value, 1000.0);
    }

    #[test]
    fn parse_escaped_label_values() {
        let doc = "m{p=\"a\\\"b\\nc\\\\d\"} 2\n";
        let parsed = parse_text(doc).unwrap();
        assert_eq!(parsed.samples[0].labels.get("p"), Some("a\"b\nc\\d"));
    }

    #[test]
    fn unknown_escape_before_multibyte_char() {
        let parsed = parse_text("m{p=\"a\\éb\\x\"} 2\n").unwrap();
        assert_eq!(parsed.samples[0].labels.get("p"), Some("a\\éb\\x"));
    }

    #[test]
    fn series_text_len_agrees_with_parse_series() {
        for line in [
            "up 1",
            "up{} 1",
            "m{a=\"x\"} 1 1700",
            "m{ a=\"}\" , b=\"\\\"}\" } 2 # {t=\"x\"} 1",
            "m{a=\"\\\\\"} 3",
            "m{a=\"é\\é,#\"}4",
            "a:b_c9{le=\"+Inf\"}\t5",
        ] {
            let (_, _, end) = parse_series(line, 1).unwrap();
            assert_eq!(series_text_len(line), Some(end), "{line}");
        }
        assert_eq!(series_text_len("{x} 1"), None);
        assert_eq!(series_text_len(""), None);
        assert_eq!(series_text_len("m{a=\"x} 1"), None);
        assert_eq!(series_text_len("m{a=\"x\\"), None);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let doc = "good 1\n{oops} 2\n";
        let e = parse_text(doc).unwrap_err();
        assert_eq!(e.line, 2);

        assert!(parse_text("m{a=} 1\n").is_err());
        assert!(parse_text("m{a=\"x} 1\n").is_err());
        assert!(parse_text("m 1 2 3\n").is_err());
        assert!(parse_text("m notanumber\n").is_err());
        assert!(parse_text("m{a=\"x\"\"b\"} 1\n").is_err());
    }

    #[test]
    fn roundtrip_through_encoder() {
        let mut fam = MetricFamily::new("lat", "latency", MetricType::Histogram);
        fam.metrics.push(Metric::suffixed(
            labels! {"le" => "0.5"},
            Sample::now(3.0),
            "_bucket",
        ));
        fam.metrics
            .push(Metric::suffixed(labels! {}, Sample::now(42.5), "_sum"));
        let text = encode_families(&[fam]);
        let parsed = parse_text(&text).unwrap();
        assert_eq!(parsed.samples.len(), 2);
        assert_eq!(parsed.samples[0].name, "lat_bucket");
        assert_eq!(parsed.samples[1].name, "lat_sum");
        assert_eq!(parsed.samples[1].value, 42.5);
        assert_eq!(parsed.types["lat"], MetricType::Histogram);
    }

    #[test]
    fn parse_exemplar_suffix() {
        let doc = "lat_bucket{le=\"0.5\"} 3 # {trace_id=\"deadbeef\"} 0.043\n\
                   lat_bucket{le=\"+Inf\"} 4 1700000000000 # {trace_id=\"cafe\"} 1.5 1700000000.5\n\
                   plain 7\n";
        let parsed = parse_text(doc).unwrap();
        assert_eq!(parsed.samples.len(), 3);
        let ex = parsed.samples[0].exemplar.as_ref().unwrap();
        assert_eq!(ex.labels.get("trace_id"), Some("deadbeef"));
        assert_eq!(ex.value, 0.043);
        assert_eq!(parsed.samples[0].value, 3.0);
        let ex2 = parsed.samples[1].exemplar.as_ref().unwrap();
        assert_eq!(ex2.labels.get("trace_id"), Some("cafe"));
        assert_eq!(parsed.samples[1].timestamp_ms, Some(1700000000000));
        assert!(parsed.samples[2].exemplar.is_none());

        // A '#' inside a quoted label value does not start an exemplar.
        let tricky = parse_text("m{q=\"a # {b}\"} 2\n").unwrap();
        assert_eq!(tricky.samples[0].labels.get("q"), Some("a # {b}"));
        assert!(tricky.samples[0].exemplar.is_none());

        // Malformed exemplars are rejected.
        assert!(parse_text("m 1 # nolabels 2\n").is_err());
        assert!(parse_text("m 1 # {trace_id=\"x\"}\n").is_err());
        assert!(parse_text("m 1 # {trace_id=\"x\"} 1 2 3\n").is_err());
    }

    #[test]
    fn exemplar_roundtrip_through_encoder() {
        use crate::model::Exemplar;
        let mut fam = MetricFamily::new("lat", "", MetricType::Histogram);
        fam.metrics.push(
            Metric::suffixed(labels! {"le" => "0.5"}, Sample::now(3.0), "_bucket")
                .with_exemplar(Some(Exemplar::new("0123456789abcdef", 0.25))),
        );
        let text = encode_families(&[fam]);
        let parsed = parse_text(&text).unwrap();
        assert_eq!(parsed.samples.len(), 1);
        let ex = parsed.samples[0].exemplar.as_ref().unwrap();
        assert_eq!(ex.labels.get("trace_id"), Some("0123456789abcdef"));
        assert_eq!(ex.value, 0.25);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let doc = "\n# arbitrary comment\n# EOF\nx 1\n\n";
        let parsed = parse_text(doc).unwrap();
        assert_eq!(parsed.samples.len(), 1);
    }
}
