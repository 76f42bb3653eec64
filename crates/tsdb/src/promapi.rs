//! The Prometheus query API's wire format, in one place.
//!
//! Grafana reaches every energy and emissions number through
//! `/api/v1/query` and `/api/v1/query_range`, behind the LB and the query
//! frontend. Every hop that reads or writes that API does it here: the
//! TSDB's handlers parse the parameters and encode answers, `TsdbClient`
//! decodes instant answers, the query frontend decodes its sub-queries into
//! typed series and encodes the merged answer, and the LB and the frontend
//! add their stages to a traced answer with [`add_hop`].
//!
//! Answers are written by `serde_json`'s printer (sorted keys, floats in
//! shortest round-trip form): a timestamp as its seconds, a value as the
//! `f64`'s `Display`, which parses back to the same value. So decoding an
//! encoded answer gives back the same typed data, and encoding that again
//! gives back the same bytes: a frontend that decodes each extent and
//! encodes the merge writes what the TSDB writes for the unsplit range.

use serde_json::{json, Value as Json};

use ceems_http::{Request, Response, Status};
use ceems_metrics::labels::LabelSet;
use ceems_obs::trace::TraceReport;

use crate::promql::Value;
use crate::types::{Sample, SeriesData};

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

    fn to_json(&self) -> Json {
        let series = |labels: &LabelSet, key: &str, values: Json| {
            let mut entry = serde_json::Map::new();
            entry.insert("metric".to_string(), labels_json(labels));
            entry.insert(key.to_string(), values);
            Json::Object(entry)
        };
        let (kind, result) = match self {
            QueryData::Scalar(s) => ("scalar", pair_json(s)),
            QueryData::Vector(samples) => (
                "vector",
                Json::Array(
                    samples
                        .iter()
                        .map(|(l, s)| series(l, "value", pair_json(s)))
                        .collect(),
                ),
            ),
            QueryData::Matrix(matrix) => (
                "matrix",
                Json::Array(
                    matrix
                        .iter()
                        .map(|s| {
                            let values = s.samples.iter().map(pair_json).collect();
                            series(&s.labels, "values", Json::Array(values))
                        })
                        .collect(),
                ),
            ),
        };
        json!({"resultType": kind, "result": result})
    }

    fn from_json(data: &Json) -> Result<QueryData, String> {
        let result = &data["result"];
        let items = || result.as_array().ok_or("query result is not an array");
        match data["resultType"].as_str() {
            Some("scalar") => pair(result).map(QueryData::Scalar),
            Some("vector") => items()?
                .iter()
                .map(|item| Ok((labels(&item["metric"])?, pair(&item["value"])?)))
                .collect::<Result<_, String>>()
                .map(QueryData::Vector),
            Some("matrix") => items()?
                .iter()
                .map(|item| {
                    let values = item["values"].as_array().ok_or("series without values")?;
                    let mut samples = Vec::with_capacity(values.len());
                    for value in values {
                        samples.push(pair(value)?);
                    }
                    Ok(SeriesData::new(labels(&item["metric"])?, samples))
                })
                .collect::<Result<_, String>>()
                .map(QueryData::Matrix),
            other => Err(format!("unsupported resultType {other:?}")),
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

fn labels(metric: &Json) -> Result<LabelSet, String> {
    let metric = metric.as_object().ok_or("series without a metric object")?;
    let mut pairs = Vec::with_capacity(metric.len());
    for (name, value) in metric {
        pairs.push((name, value.as_str().ok_or("a label value is not a string")?));
    }
    Ok(LabelSet::from_pairs(pairs))
}

fn pair_json(s: &Sample) -> Json {
    json!([s.t_ms as f64 / 1000.0, format!("{}", s.v)])
}

fn pair(pair: &Json) -> Result<Sample, String> {
    match pair.as_array().map(Vec::as_slice) {
        Some([t, v]) => {
            let secs = t.as_f64().ok_or("sample time is not a number")?;
            let v = v.as_str().and_then(|v| v.parse().ok());
            Ok(Sample::new(
                (secs * 1000.0).round() as i64,
                v.ok_or("sample value is not a number string")?,
            ))
        }
        _ => Err("sample is not a [time, value] pair".into()),
    }
}

/// A query answer: `data` typed, the report under `data.trace` when one is
/// given, and a root-level `warnings` array when there are any.
pub fn answer(data: &QueryData, trace: Option<&TraceReport>, warnings: &[String]) -> Response {
    let mut data = data.to_json();
    if let (Some(report), Json::Object(map)) = (trace, &mut data) {
        map.insert("trace".to_string(), report.to_json());
    }
    let mut body = json!({"status": "success", "data": data});
    if let (false, Json::Object(map)) = (warnings.is_empty(), &mut body) {
        map.insert("warnings".to_string(), json!(warnings));
    }
    Response::json(serde_json::to_vec(&body).expect("a JSON value prints"))
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

/// Decodes a query answer: the data of a success envelope, or the error
/// an error envelope carries.
fn decode(body: &[u8]) -> Result<QueryData, String> {
    let v: Json =
        serde_json::from_slice(body).map_err(|e| format!("bad query response JSON: {e}"))?;
    if v["status"] != "success" {
        let error = v["error"].as_str().unwrap_or("unknown error");
        return Err(format!("query failed: {error}"));
    }
    QueryData::from_json(&v["data"])
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
