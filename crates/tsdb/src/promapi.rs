//! The Prometheus query API's wire format, in one place.
//!
//! Grafana reaches every energy and emissions number through
//! `/api/v1/query` and `/api/v1/query_range`, behind the LB and the query
//! frontend. Every hop that reads or writes that API does it here: the
//! TSDB's handlers parse the parameters and encode answers, `TsdbClient`
//! decodes instant answers, the query frontend decodes the sub-queries it
//! merges or caches into typed series and encodes the merged answer, and
//! the LB and the frontend add their stages to a traced answer with
//! [`add_hop`]. The check that a 2xx body is JSON at all, which the LB runs
//! and the frontend runs on a body it relays, is [`is_json`].
//!
//! Query answers are written and read as bytes, never as a
//! `serde_json::Value`. [`answer`] writes the bytes `serde_json`'s printer
//! writes for the same answer (sorted keys, its string escaping): a
//! timestamp as its seconds in shortest round-trip form (`{:?}` of
//! `t_ms / 1000`, printed from the integer below 10^15 ms), a value as
//! Prometheus writes it: `+Inf`, `-Inf`, `NaN`, otherwise the `f64`'s
//! `Display` (`ceems_metrics::encode::write_value`, the exposition
//! format's printer), which parses back to the same value.
//! The decoders read the bytes in place with one recursive-descent reader,
//! which takes exactly the JSON `serde_json` takes, keys in any order. So
//! decoding an encoded answer gives back the same typed data, and encoding
//! that again gives back the same bytes: a frontend that decodes each
//! extent and encodes the merge writes what the TSDB writes for the
//! unsplit range, and one that relays a single extent's body unread
//! writes the same. The small envelopes ([`ok`], [`error`]) and
//! [`add_hop`], which only traced answers reach, still go through
//! `serde_json`'s tree.

use std::borrow::Cow;
use std::io::Write;

use serde_json::{json, Value as Json};

use ceems_http::{Request, Response, Status};
use ceems_metrics::encode::write_value;
use ceems_metrics::labels::{LabelSet, LabelSetBuilder};
use ceems_obs::trace::TraceReport;
use ceems_relstore::wal::write_str;

use crate::promql::Value;
use crate::types::{Sample, SeriesData};

#[cfg(test)]
mod oracle;
mod read;
pub use read::is_json;
use read::{parse_number, Reader, Step};

/// Where a query request evaluates its expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalAt {
    /// `/api/v1/query`: at `time`.
    Instant(i64),
    /// `/api/v1/query_range`: on the grid `start, start + step, … ≤ end`.
    Range {
        /// First step (ms).
        start_ms: i64,
        /// Upper bound of the grid (ms).
        end_ms: i64,
        /// Step width (ms).
        step_ms: i64,
    },
}

impl EvalAt {
    /// Reads the parameters of a range request (`range`), or of an instant
    /// one, whose `time` defaults to `now_ms`. A missing `start` or `end`
    /// reads as 0, as it always has here.
    pub fn parse(req: &Request, range: bool, now_ms: i64) -> Result<EvalAt, String> {
        if !range {
            return time_param(req, "time", now_ms).map(EvalAt::Instant);
        }
        let (start_ms, end_ms) = (time_param(req, "start", 0)?, time_param(req, "end", 0)?);
        Ok(EvalAt::Range {
            start_ms,
            end_ms,
            step_ms: step_param(req)?,
        })
    }
}

/// A timestamp parameter (Unix seconds, fractional allowed) in ms, or
/// `default_ms` when the request has none. `NaN` and infinities are
/// refused: cast to ms they would read as 0 and as the end of time.
fn time_param(req: &Request, name: &str, default_ms: i64) -> Result<i64, String> {
    match req.query_param(name) {
        None => Ok(default_ms),
        Some(s) => match s.parse::<f64>() {
            Ok(secs) if secs.is_finite() => Ok((secs * 1000.0) as i64),
            _ => Err(format!("bad {name} parameter: {s:?}")),
        },
    }
}

/// The `step` parameter in ms: required, positive and finite.
pub fn step_param(req: &Request) -> Result<i64, String> {
    let secs = req.query_param("step").ok_or("missing step parameter")?;
    match secs.parse::<f64>() {
        Ok(secs) if secs > 0.0 && secs.is_finite() => Ok((secs * 1000.0) as i64),
        _ => Err("bad step parameter".into()),
    }
}

/// Renders `t_ms` as a timestamp parameter that the parsers here read back
/// as exactly `t_ms`. Division by 1000 is not always exactly invertible in
/// f64, so the value is nudged by ULPs until the round trip lands (a couple
/// of steps at most).
pub fn secs_param(t_ms: i64) -> String {
    let mut s = t_ms as f64 / 1000.0;
    for _ in 0..4 {
        let back = (s * 1000.0) as i64;
        if back == t_ms {
            break;
        }
        // Truncation erred low or high; walk one ULP toward the target.
        let bits = s.to_bits();
        s = if (back < t_ms) == (s >= 0.0) {
            f64::from_bits(bits + 1)
        } else {
            f64::from_bits(bits.wrapping_sub(1))
        };
    }
    debug_assert_eq!((s * 1000.0) as i64, t_ms);
    format!("{s:?}")
}

/// `?trace=1` (or `trace=true`) asks for the stage breakdown under
/// `data.trace`.
pub fn trace_requested(req: &Request) -> bool {
    matches!(req.query_param("trace"), Some("1") | Some("true"))
}

/// The `data` of a query answer.
#[derive(Clone, Debug)]
pub enum QueryData {
    /// `scalar`: one value, stamped with the evaluation time.
    Scalar(Sample),
    /// `vector`: one sample per series.
    Vector(Vec<(LabelSet, Sample)>),
    /// `matrix`: series with their samples in time order.
    Matrix(Vec<SeriesData>),
}

impl QueryData {
    /// An instant query's value, evaluated at `t_ms`.
    pub fn instant(value: Value, t_ms: i64) -> QueryData {
        match value {
            Value::Scalar(v) => QueryData::Scalar(Sample::new(t_ms, v)),
            Value::Vector(vec) => QueryData::Vector(
                vec.into_iter()
                    .map(|(labels, v)| (labels, Sample::new(t_ms, v)))
                    .collect(),
            ),
            Value::Matrix(series) => QueryData::Matrix(series),
        }
    }
}

/// A label set as the API writes it: an object of strings.
pub(crate) fn labels_json(labels: &LabelSet) -> Json {
    Json::Object(
        labels
            .iter()
            .map(|(k, v)| (k.to_string(), Json::String(v.to_string())))
            .collect(),
    )
}

/// A query answer: `data` typed, the report under `data.trace` when one is
/// given, and a root-level `warnings` array when there are any. Written
/// straight into the body, key by key in sorted order.
pub fn answer(data: &QueryData, trace: Option<&TraceReport>, warnings: &[String]) -> Response {
    let samples = match data {
        QueryData::Scalar(_) => 1,
        QueryData::Vector(samples) => samples.len(),
        QueryData::Matrix(series) => series.iter().map(|s| s.samples.len() + 1).sum(),
    };
    let mut out = Vec::with_capacity(64 + 32 * samples);
    out.extend_from_slice(b"{\"data\":{\"result\":");
    let kind = match data {
        QueryData::Scalar(s) => {
            write_pair(&mut out, s);
            "scalar"
        }
        QueryData::Vector(samples) => {
            write_list(&mut out, samples, |out, (labels, s)| {
                write_series(out, labels, "value", |out| write_pair(out, s))
            });
            "vector"
        }
        QueryData::Matrix(series) => {
            write_list(&mut out, series, |out, s| {
                write_series(out, &s.labels, "values", |out| {
                    write_list(out, &s.samples, write_pair)
                })
            });
            "matrix"
        }
    };
    out.extend_from_slice(b",\"resultType\":\"");
    out.extend_from_slice(kind.as_bytes());
    out.push(b'"');
    if let Some(report) = trace {
        out.extend_from_slice(b",\"trace\":");
        out.extend(serde_json::to_vec(&report.to_json()).expect("a JSON value prints"));
    }
    out.extend_from_slice(b"},\"status\":\"success\"");
    if !warnings.is_empty() {
        out.extend_from_slice(b",\"warnings\":");
        write_list(&mut out, warnings, |out, w| write_str(out, w));
    }
    out.push(b'}');
    Response::json(out)
}

/// `[a,b,..]`, each item written by `write`.
fn write_list<T>(out: &mut Vec<u8>, items: &[T], mut write: impl FnMut(&mut Vec<u8>, &T)) {
    out.push(b'[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write(out, item);
    }
    out.push(b']');
}

/// `{"metric":{..},"<key>":..}`, the labels in the set's (sorted) order.
fn write_series(out: &mut Vec<u8>, labels: &LabelSet, key: &str, value: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(b"{\"metric\":{");
    for (i, (name, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_str(out, name);
        out.push(b':');
        write_str(out, v);
    }
    out.extend_from_slice(b"},\"");
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(b"\":");
    value(out);
    out.push(b'}');
}

/// `[<seconds>,"<value>"]`: the time as `serde_json` prints an `f64`, the
/// value as the exposition format prints it (`+Inf`, not `inf`).
fn write_pair(out: &mut Vec<u8>, s: &Sample) {
    out.push(b'[');
    write_secs(out, s.t_ms);
    out.extend_from_slice(b",\"");
    write_value(&mut Utf8(out), s.v);
    out.extend_from_slice(b"\"]");
}

/// Below this many milliseconds a time's seconds have at most 15
/// significant digits, which an `f64` holds exactly in decimal.
const EXACT_MS: u64 = 1_000_000_000_000_000;

/// `t_ms` in seconds, as `{:?}` prints `t_ms as f64 / 1000.0`. Below
/// [`EXACT_MS`] that quotient is the `f64` nearest the exact decimal
/// `t_ms / 1000`, and a decimal of at most 15 significant digits is the
/// shortest form that reads back as its nearest `f64`: so the digits of
/// the integer, with the fraction's trailing zeros dropped (`.0` for a
/// whole second), are what the float printer writes. Above it, the float
/// printer writes them.
fn write_secs(out: &mut Vec<u8>, t_ms: i64) {
    let ms = t_ms.unsigned_abs();
    if ms >= EXACT_MS {
        write!(out, "{:?}", t_ms as f64 / 1000.0).expect("writing to a Vec cannot fail");
        return;
    }
    if t_ms < 0 {
        out.push(b'-');
    }
    let mut digits = [0u8; 16];
    let mut at = digits.len();
    let mut secs = ms / 1000;
    loop {
        at -= 1;
        digits[at] = b'0' + (secs % 10) as u8;
        secs /= 10;
        if secs == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
    let frac = (ms % 1000) as u16;
    let fraction = [
        b'.',
        b'0' + (frac / 100) as u8,
        b'0' + (frac / 10 % 10) as u8,
        b'0' + (frac % 10) as u8,
    ];
    let kept = if frac.is_multiple_of(100) {
        2
    } else if frac.is_multiple_of(10) {
        3
    } else {
        4
    };
    out.extend_from_slice(&fraction[..kept]);
}

/// A byte buffer written as text, for [`write_value`].
struct Utf8<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for Utf8<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// The success envelope around any other `data` (label names, series,
/// status and WAL reports).
pub fn ok(data: Json) -> Response {
    let body = json!({"status": "success", "data": data});
    Response::json(serde_json::to_vec(&body).expect("a JSON value prints"))
}

/// The error envelope, with its status.
pub fn error(status: Status, error: impl Into<String>) -> Response {
    let body = json!({"status": "error", "error": error.into()});
    let mut resp = Response::json(serde_json::to_vec(&body).expect("a JSON value prints"));
    resp.status = status;
    resp
}

const NOT_A_PAIR: &str = "sample is not a [time, value] pair";

/// Decodes a query answer: the data of a success envelope, or the error
/// an error envelope carries. One pass checks the whole body and notes
/// `status`, `error`, `data.resultType` and where `data.result` starts,
/// in whatever order they come (the encoder sorts `result` first); a
/// second reads `result` by its type. Keys it does not know are checked
/// and stepped over; a repeated envelope key counts as its last
/// occurrence, as in a parsed tree.
fn decode(body: &[u8]) -> Result<QueryData, String> {
    let mut success = false;
    let mut error = None;
    let (mut result, mut kind) = (None, None);
    let mut r = Reader::new(body, 0);
    let envelope = r.document(|r| {
        if r.peek() != Some(b'{') {
            return r.skip(0);
        }
        r.object(0, |r, key, depth| {
            if key.is("status") {
                success = string_or_skip(r, depth)?.is_some_and(|s| s == "success");
                return Ok(());
            }
            if key.is("error") {
                error = string_or_skip(r, depth)?;
                return Ok(());
            }
            if !key.is("data") {
                return r.skip(depth);
            }
            (result, kind) = (None, None);
            if r.peek() != Some(b'{') {
                return r.skip(depth);
            }
            r.object(depth, |r, key, depth| {
                if key.is("result") {
                    result = Some(r.at);
                } else if key.is("resultType") {
                    kind = string_or_skip(r, depth)?;
                    return Ok(());
                }
                r.skip(depth)
            })
        })
    });
    if let Err(e) = envelope {
        return Err(format!("bad query response JSON: {e} at byte {}", r.at));
    }
    if !success {
        let error = error.as_deref().unwrap_or("unknown error");
        return Err(format!("query failed: {error}"));
    }
    // The body is well-formed: what is left to find is a wrong type.
    let mut r = Reader::new(body, result.unwrap_or(body.len()));
    let data = match kind.as_deref() {
        Some("scalar") => pair(&mut r).map(QueryData::Scalar),
        Some("vector") => items(&mut r, |r, depth| {
            item(r, depth, "value", NOT_A_PAIR, |r, _| pair(r))
        })
        .map(QueryData::Vector),
        Some("matrix") => items(&mut r, |r, depth| {
            let (labels, values) = item(r, depth, "values", "series without values", samples)?;
            Ok(SeriesData::new(labels, values))
        })
        .map(QueryData::Matrix),
        other => return Err(format!("unsupported resultType {other:?}")),
    };
    data.map_err(String::from)
}

/// The string at the reader, or `None` after stepping over a value of
/// another type.
fn string_or_skip<'a>(r: &mut Reader<'a>, depth: usize) -> Step<Option<Cow<'a, str>>> {
    if r.peek() != Some(b'"') {
        return r.skip(depth).map(|()| None);
    }
    r.string().map(|s| Some(s.text()))
}

/// The items of `data.result` (nested 2 deep), each read by `item`.
fn items<T>(
    r: &mut Reader<'_>,
    mut item: impl FnMut(&mut Reader<'_>, usize) -> Step<T>,
) -> Step<Vec<T>> {
    if r.peek() != Some(b'[') {
        return Err("query result is not an array");
    }
    let mut out = Vec::new();
    r.array(2, |r, depth| {
        out.push(item(r, depth)?);
        Ok(())
    })?;
    Ok(out)
}

/// One item of a result, `{"metric":{..},"<key>":..}`, its `key` read
/// by `read`; `missing` when there is no such key.
fn item<'a, T>(
    r: &mut Reader<'a>,
    depth: usize,
    key: &str,
    missing: &'static str,
    read: impl Fn(&mut Reader<'a>, usize) -> Step<T>,
) -> Step<(LabelSet, T)> {
    if r.peek() != Some(b'{') {
        return Err(missing);
    }
    let (mut metric, mut value) = (None, None);
    r.object(depth, |r, name, depth| {
        if name.is("metric") {
            metric = Some(labels(r, depth)?);
        } else if name.is(key) {
            value = Some(read(r, depth)?);
        } else {
            r.skip(depth)?;
        }
        Ok(())
    })?;
    let value = value.ok_or(missing)?;
    Ok((metric.ok_or("series without a metric object")?, value))
}

/// A `metric` object.
fn labels(r: &mut Reader<'_>, depth: usize) -> Step<LabelSet> {
    if r.peek() != Some(b'{') {
        return Err("series without a metric object");
    }
    let mut labels = LabelSetBuilder::new();
    r.object(depth, |r, name, _| {
        if r.peek() != Some(b'"') {
            return Err("a label value is not a string");
        }
        let value = r.string()?;
        labels = std::mem::take(&mut labels).label(name.text(), value.text());
        Ok(())
    })?;
    Ok(labels.build())
}

/// A `values` array of pairs.
fn samples(r: &mut Reader<'_>, depth: usize) -> Step<Vec<Sample>> {
    if r.peek() != Some(b'[') {
        return Err("series without values");
    }
    let mut out = Vec::new();
    r.array(depth, |r, _| {
        out.push(pair(r)?);
        Ok(())
    })?;
    // Kept as long as the frontend caches the extent: no spare capacity.
    out.shrink_to_fit();
    Ok(out)
}

/// `[<seconds>,"<value>"]`, the time read back to the millisecond.
fn pair(r: &mut Reader<'_>) -> Step<Sample> {
    if !r.eat(b'[') {
        return Err(NOT_A_PAIR);
    }
    r.ws();
    if !matches!(r.peek(), Some(b'-' | b'0'..=b'9')) {
        return Err("sample time is not a number");
    }
    let secs = r.number_text()?;
    let t_ms = match exact_millis(secs) {
        Some(t_ms) => t_ms,
        None => (parse_number(secs)? * 1000.0).round() as i64,
    };
    if !r.eat(b',') {
        return Err(NOT_A_PAIR);
    }
    r.ws();
    if r.peek() != Some(b'"') {
        return Err("sample value is not a number string");
    }
    let v = r
        .string()?
        .text()
        .parse()
        .map_err(|_| "sample value is not a number string")?;
    if !r.eat(b']') {
        return Err(NOT_A_PAIR);
    }
    Ok(Sample::new(t_ms, v))
}

/// The milliseconds of a sample time written `-? digits (. digits)?` with
/// at most three fraction digits, below [`EXACT_MS`]: read from the
/// digits, they are what `(secs * 1000.0).round()` gives, since the
/// parsed `secs` is within a relative 2^-53 of the decimal and the
/// product lands within `t_ms · 2^-52 < 0.25` of it. `None` for any other
/// form, which the float path reads.
fn exact_millis(text: &[u8]) -> Option<i64> {
    let (negative, unsigned) = match text {
        [b'-', rest @ ..] => (true, rest),
        _ => (false, text),
    };
    let (whole, fraction) = match unsigned.iter().position(|&c| c == b'.') {
        Some(dot) => (&unsigned[..dot], &unsigned[dot + 1..]),
        None => (unsigned, &[][..]),
    };
    if whole.is_empty() || whole.len() > 15 || fraction.len() > 3 {
        return None;
    }
    let mut ms = 0u64;
    for &c in whole.iter().chain(fraction) {
        if !c.is_ascii_digit() {
            return None;
        }
        ms = ms * 10 + u64::from(c - b'0');
    }
    ms *= [1000, 100, 10, 1][fraction.len()];
    let ms = i64::try_from(ms).ok().filter(|_| ms < EXACT_MS)?;
    Some(if negative { -ms } else { ms })
}

/// Decodes an instant query's answer: a vector, or a scalar as one sample
/// with empty labels.
pub fn decode_instant(body: &[u8]) -> Result<Vec<(LabelSet, f64)>, String> {
    match decode(body)? {
        QueryData::Scalar(s) => Ok(vec![(LabelSet::empty(), s.v)]),
        QueryData::Vector(samples) => Ok(samples.into_iter().map(|(l, s)| (l, s.v)).collect()),
        QueryData::Matrix(_) => Err("a matrix answers no instant query".into()),
    }
}

/// Decodes a range query's answer.
pub fn decode_matrix(body: &[u8]) -> Result<Vec<SeriesData>, String> {
    match decode(body)? {
        QueryData::Matrix(series) => Ok(series),
        _ => Err("a range query is answered by a matrix".into()),
    }
}

/// Adds one hop to the `data.trace` of a traced answer: appends the hop's
/// `own` stages, then a `forward` stage holding the forward's wall time
/// less the inner hops' `totalMs` (at least zero, so stages stay disjoint),
/// re-roots `totalMs` at `total_ms` (never below the inner total, so
/// `sum(stages) ≤ totalMs` holds at every hop), and writes each non-zero
/// count of `counts` beside them. `None` when the body carries no trace.
pub fn add_hop(
    body: &[u8],
    own: &[(&str, f64)],
    forward: (&str, f64),
    total_ms: f64,
    counts: &[(&str, u64)],
) -> Option<Vec<u8>> {
    let mut v: Json = serde_json::from_slice(body).ok()?;
    let Json::Object(root) = &mut v else {
        return None;
    };
    let Some(Json::Object(data)) = root.get_mut("data") else {
        return None;
    };
    let Some(Json::Object(trace)) = data.get_mut("trace") else {
        return None;
    };
    let inner_ms = trace.get("totalMs").and_then(Json::as_f64).unwrap_or(0.0);
    if let Some(Json::Array(stages)) = trace.get_mut("stages") {
        let (name, forward_ms) = forward;
        for (name, ms) in own
            .iter()
            .chain([&(name, (forward_ms - inner_ms).max(0.0))])
        {
            stages.push(json!({"name": name, "ms": ms}));
        }
    }
    trace.insert("totalMs".to_string(), json!(total_ms.max(inner_ms)));
    for &(name, n) in counts.iter().filter(|(_, n)| *n > 0) {
        trace.insert(name.to_string(), json!(n));
    }
    serde_json::to_vec(&v).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_http::Method;
    use ceems_metrics::labels;

    fn req(query: &str) -> Request {
        Request::new(Method::Get, &format!("/api/v1/query_range?{query}"))
    }

    #[test]
    fn non_finite_times_are_refused() {
        for bad in ["NaN", "nan", "inf", "-inf", "infinity", "soon"] {
            let err = time_param(&req(&format!("time={bad}")), "time", 7).unwrap_err();
            assert_eq!(err, format!("bad time parameter: {bad:?}"));
            assert!(step_param(&req(&format!("step={bad}"))).is_err(), "{bad}");
        }
        assert_eq!(time_param(&req("time=1e300"), "time", 7), Ok(i64::MAX));
        assert_eq!(time_param(&req(""), "time", 7), Ok(7));
        assert_eq!(
            EvalAt::parse(&req("start=-1.5&step=0.25"), true, 7),
            Ok(EvalAt::Range {
                start_ms: -1500,
                end_ms: 0,
                step_ms: 250
            })
        );
    }

    #[test]
    fn ms_param_roundtrips_awkward_values() {
        for t in [
            0i64,
            1,
            999,
            15_001,
            135_000,
            86_399_999,
            1_700_000_000_123,
            -15_001,
        ] {
            let got = time_param(&req(&format!("t={}", secs_param(t))), "t", 0);
            assert_eq!(got, Ok(t), "{}", secs_param(t));
        }
    }

    /// Encoding is the TSDB's: decoding what it wrote gives the same data,
    /// and encoding that again the same bytes.
    #[test]
    fn decode_of_encode_is_the_identity() {
        let l = labels! {"__name__" => "power", "note" => "a \"b\"\n é"};
        let samples = [f64::NAN, -0.0, 1e21, 1e-7, 0.1 + 0.2, f64::INFINITY, 5.0];
        let matrix = QueryData::Matrix(vec![
            SeriesData::new(
                l.clone(),
                samples
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| Sample::new(1_700_000_000_123 + 15_001 * i as i64, v))
                    .collect(),
            ),
            SeriesData::new(LabelSet::empty(), vec![Sample::new(-5, 1.0)]),
        ]);
        let vector = QueryData::Vector(vec![(l, Sample::new(300_500, 2.5))]);
        let scalar = QueryData::Scalar(Sample::new(0, -1.0));
        for data in [matrix, vector, scalar] {
            let body = answer(&data, None, &[]).body;
            let back = decode(&body).unwrap();
            assert_eq!(format!("{back:?}"), format!("{data:?}"));
            assert_eq!(answer(&back, None, &[]).body, body);
        }
    }

    /// An infinity is written `+Inf` / `-Inf`, as Prometheus writes it and
    /// Grafana's Prometheus datasource reads it, and decodes back to itself.
    #[test]
    fn infinities_print_as_prometheus_does_and_decode_back() {
        let series = SeriesData::new(
            labels! {"__name__" => "power"},
            vec![
                Sample::new(1_000, f64::INFINITY),
                Sample::new(2_000, f64::NEG_INFINITY),
                Sample::new(3_000, 1.5),
            ],
        );
        let body = answer(&QueryData::Matrix(vec![series.clone()]), None, &[]).body;
        let text = std::str::from_utf8(&body).unwrap();
        assert!(text.contains(r#""values":[[1.0,"+Inf"],[2.0,"-Inf"],[3.0,"1.5"]]"#), "{text}");
        assert_eq!(decode_matrix(&body).unwrap(), vec![series]);
    }

    #[test]
    fn envelope_parses_vector_and_scalar() {
        let body = br#"{"status":"success","data":{"resultType":"vector","result":[
            {"metric":{"instance":"n1"},"value":[12.5,"300"]}]}}"#;
        let v = decode_instant(body).unwrap();
        assert_eq!(v, vec![(labels! {"instance" => "n1"}, 300.0)]);
        assert!(decode_matrix(body).is_err());
        let scalar = br#"{"status":"success","data":{"resultType":"scalar","result":[12.5,"7"]}}"#;
        assert_eq!(
            decode_instant(scalar).unwrap(),
            vec![(LabelSet::empty(), 7.0)]
        );
        let error = br#"{"status":"error","error":"boom"}"#;
        assert_eq!(decode_instant(error).unwrap_err(), "query failed: boom");
        let no_value = br#"{"status":"success","data":{"resultType":"vector","result":[
            {"metric":{"instance":"n1"}}]}}"#;
        assert!(decode_instant(no_value).is_err());
        let matrix = br#"{"status":"success","data":{"resultType":"matrix","result":[]}}"#;
        assert!(decode_instant(matrix).is_err());
        assert_eq!(decode_matrix(matrix).unwrap(), Vec::new());
    }

    #[test]
    fn a_hop_appends_its_stages_and_re_roots_the_total() {
        let body = br#"{"data":{"trace":{"stages":[{"name":"eval","ms":2.0}],"totalMs":3.0}},"status":"success"}"#;
        let out = add_hop(
            body,
            &[("lb_auth", 0.5)],
            ("lb_forward", 5.0),
            6.0,
            &[("lbRetries", 1)],
        );
        let v: Json = serde_json::from_slice(&out.unwrap()).unwrap();
        let t = &v["data"]["trace"];
        assert_eq!(t["stages"][1], json!({"name": "lb_auth", "ms": 0.5}));
        assert_eq!(t["stages"][2], json!({"name": "lb_forward", "ms": 2.0}));
        assert_eq!(
            (t["totalMs"].as_f64(), t["lbRetries"].as_u64()),
            (Some(6.0), Some(1))
        );

        // A hop that measured less than the inner total adds a zero stage
        // and keeps the inner total; no count is written for zero.
        let out = add_hop(body, &[], ("qfe_proxy", 1.0), 1.0, &[("lbRetries", 0)]);
        let v: Json = serde_json::from_slice(&out.unwrap()).unwrap();
        let t = &v["data"]["trace"];
        assert_eq!(t["stages"][1], json!({"name": "qfe_proxy", "ms": 0.0}));
        assert_eq!(t["totalMs"].as_f64(), Some(3.0));
        assert!(t["lbRetries"].is_null());

        let untraced = br#"{"data":{"result":[]},"status":"success"}"#;
        assert!(add_hop(untraced, &[], ("x", 1.0), 1.0, &[]).is_none());
    }
}
