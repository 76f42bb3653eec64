//! The byte codec against the tree codec it replaced, which is kept here
//! as the oracle: `answer` must print what `serde_json` prints for the
//! answer built with `json!`, and `decode` must agree with a parse into a
//! `serde_json::Value` walked by index, in Ok/Err and in the data. The
//! decoders are held to it on encoded answers, on the same answers
//! pretty-printed and with their keys reversed, and on envelopes whose
//! fields have the wrong types and shapes. Those bodies come from trees,
//! so no object in them repeats a key; a repeated envelope key counts as
//! its last occurrence, as in the tree, which a test of its own checks.

use std::collections::BTreeMap;

use proptest::prelude::*;
use serde_json::{json, Value as Json};

use ceems_metrics::encode::format_value;
use ceems_metrics::labels::LabelSet;
use ceems_obs::trace::{StageReport, TraceReport};

use super::{answer, decode, is_json, parse_number, write_pair, QueryData, Reader, EXACT_MS};
use crate::types::{Sample, SeriesData};

/// The answer as a tree, as the encoder built it before it wrote bytes.
fn tree_answer(data: &QueryData, trace: Option<&TraceReport>, warnings: &[String]) -> Vec<u8> {
    let labels = |labels: &LabelSet| {
        Json::Object(
            labels
                .iter()
                .map(|(k, v)| (k.to_string(), Json::String(v.to_string())))
                .collect(),
        )
    };
    let pair = |s: &Sample| json!([s.t_ms as f64 / 1000.0, format_value(s.v)]);
    let (kind, result) = match data {
        QueryData::Scalar(s) => ("scalar", pair(s)),
        QueryData::Vector(samples) => (
            "vector",
            Json::Array(
                samples
                    .iter()
                    .map(|(l, s)| json!({"metric": labels(l), "value": pair(s)}))
                    .collect(),
            ),
        ),
        QueryData::Matrix(matrix) => (
            "matrix",
            Json::Array(
                matrix
                    .iter()
                    .map(|s| {
                        let values: Vec<Json> = s.samples.iter().map(pair).collect();
                        json!({"metric": labels(&s.labels), "values": values})
                    })
                    .collect(),
            ),
        ),
    };
    let mut data = json!({"resultType": kind, "result": result});
    if let (Some(report), Json::Object(map)) = (trace, &mut data) {
        map.insert("trace".to_string(), report.to_json());
    }
    let mut body = json!({"status": "success", "data": data});
    if let (false, Json::Object(map)) = (warnings.is_empty(), &mut body) {
        map.insert("warnings".to_string(), json!(warnings));
    }
    serde_json::to_vec(&body).unwrap()
}

/// An answer decoded by parsing it into a tree and walking that.
fn tree_decode(body: &[u8]) -> Result<QueryData, String> {
    let v: Json =
        serde_json::from_slice(body).map_err(|e| format!("bad query response JSON: {e}"))?;
    if v["status"] != "success" {
        let error = v["error"].as_str().unwrap_or("unknown error");
        return Err(format!("query failed: {error}"));
    }
    let data = &v["data"];
    let result = &data["result"];
    let items = || result.as_array().ok_or("query result is not an array");
    let labels = |metric: &Json| {
        let metric = metric.as_object().ok_or("series without a metric object")?;
        let mut pairs = Vec::new();
        for (name, value) in metric {
            pairs.push((name, value.as_str().ok_or("a label value is not a string")?));
        }
        Ok::<_, String>(LabelSet::from_pairs(pairs))
    };
    let pair = |pair: &Json| match pair.as_array().map(Vec::as_slice) {
        Some([t, v]) => {
            let secs = t.as_f64().ok_or("sample time is not a number")?;
            let v = v.as_str().and_then(|v| v.parse().ok());
            Ok::<_, String>(Sample::new(
                (secs * 1000.0).round() as i64,
                v.ok_or("sample value is not a number string")?,
            ))
        }
        _ => Err("sample is not a [time, value] pair".into()),
    };
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
                let samples = values.iter().map(pair).collect::<Result<_, _>>()?;
                Ok(SeriesData::new(labels(&item["metric"])?, samples))
            })
            .collect::<Result<_, String>>()
            .map(QueryData::Matrix),
        other => Err(format!("unsupported resultType {other:?}")),
    }
}

/// The tree printed with every object's keys in reverse order and
/// whitespace of every kind between the tokens.
fn reordered(v: &Json, out: &mut String) {
    match v {
        Json::Array(items) => {
            out.push_str("[ ");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(" ,\t");
                }
                reordered(item, out);
            }
            out.push_str("\r\n]");
        }
        Json::Object(map) => {
            out.push('{');
            for (i, (key, value)) in map.iter().rev().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&serde_json::to_string(key).unwrap());
                out.push_str(" : ");
                reordered(value, out);
            }
            out.push_str(" }");
        }
        scalar => out.push_str(&serde_json::to_string(scalar).unwrap()),
    }
}

/// The body as the encoder wrote it, pretty-printed and reordered.
fn three_forms(body: Vec<u8>) -> [Vec<u8>; 3] {
    let tree: Json = serde_json::from_slice(&body).unwrap();
    let mut reversed = String::new();
    reordered(&tree, &mut reversed);
    let pretty = serde_json::to_string_pretty(&tree).unwrap();
    [body, pretty.into_bytes(), reversed.into_bytes()]
}

/// Both decoders agree: the same data, or both refuse (with the same
/// message for an error envelope).
fn agree(body: &[u8]) {
    let (got, want) = (decode(body), tree_decode(body));
    let text = String::from_utf8_lossy(body);
    match (&got, &want) {
        (Ok(got), Ok(want)) => assert_eq!(format!("{got:?}"), format!("{want:?}"), "{text}"),
        (Err(got), Err(want)) if want.starts_with("query failed") => {
            assert_eq!(got, want, "{text}")
        }
        (Err(_), Err(_)) => {}
        _ => panic!("{got:?} against {want:?} for {text}"),
    }
}

/// Strings with quotes, backslashes, control characters and non-ASCII.
fn text() -> impl Strategy<Value = String> {
    const CHARS: [char; 14] = [
        'a', 'z', '_', ' ', '/', '"', '\\', '\n', '\u{1}', '\u{1f}', '\u{7f}', 'é', '€', '😀',
    ];
    proptest::collection::vec(0..CHARS.len(), 0..6)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

fn time_ms() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i64>(),
        -10_000_000_000_000i64..10_000_000_000_000,
        (0i64..100).prop_map(|k| 1_700_000_000_000 + 15_000 * k),
        Just(0i64),
        Just(i64::MIN),
        Just(i64::MAX),
        Just(9_007_199_254_740_993i64),
    ]
}

fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        proptest::num::f64::ANY,
        proptest::num::f64::NORMAL,
        (-1000i64..1000).prop_map(|i| i as f64 / 8.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(5e-324),
        Just(f64::MIN_POSITIVE / 3.0),
        Just(f64::MAX),
    ]
}

fn sample() -> impl Strategy<Value = Sample> {
    (time_ms(), value()).prop_map(|(t, v)| Sample::new(t, v))
}

fn label_set() -> impl Strategy<Value = LabelSet> {
    proptest::collection::btree_map(text(), text(), 0..4).prop_map(LabelSet::from_pairs)
}

fn query_data() -> impl Strategy<Value = QueryData> {
    prop_oneof![
        sample().prop_map(QueryData::Scalar),
        proptest::collection::vec((label_set(), sample()), 0..4).prop_map(QueryData::Vector),
        proptest::collection::vec(
            (label_set(), proptest::collection::vec(sample(), 0..6)),
            0..4
        )
        .prop_map(|series| {
            QueryData::Matrix(
                series
                    .into_iter()
                    .map(|(labels, samples)| SeriesData::new(labels, samples))
                    .collect(),
            )
        }),
    ]
}

fn trace_report() -> impl Strategy<Value = TraceReport> {
    const COUNTS: [&str; 3] = ["series", "steps", "subqueries"];
    (
        text(),
        value(),
        proptest::collection::vec((text(), value()), 0..3),
        proptest::collection::btree_map(0..COUNTS.len(), any::<u64>(), 0..3),
    )
        .prop_map(|(id, total_ms, stages, counts)| TraceReport {
            id,
            total_ms,
            stages: stages
                .into_iter()
                .map(|(name, ms)| StageReport { name, ms })
                .collect(),
            counts: counts.into_iter().map(|(i, n)| (COUNTS[i], n)).collect(),
        })
}

// Envelopes whose fields may have any type: leaves, then the shapes a
// result is made of, each also replaced by a leaf now and then.

fn leaf() -> impl Strategy<Value = Json> {
    const WORDS: [&str; 10] = [
        "success", "error", "scalar", "vector", "matrix", "1.5", "NaN", "-0", "x", "",
    ];
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(|i| json!(i)),
        any::<u64>().prop_map(|u| json!(u)),
        value().prop_map(|f| json!(f)),
        (0..WORDS.len()).prop_map(|i| json!(WORDS[i])),
        text().prop_map(Json::String),
    ]
}

fn pair_like() -> impl Strategy<Value = Json> {
    prop_oneof![
        4 => sample().prop_map(|s| json!([s.t_ms as f64 / 1000.0, format!("{}", s.v)])),
        1 => (leaf(), leaf()).prop_map(|(t, v)| json!([t, v])),
        1 => proptest::collection::vec(leaf(), 0..4).prop_map(Json::Array),
        1 => leaf(),
    ]
}

fn metric_like() -> impl Strategy<Value = Json> {
    prop_oneof![
        4 => proptest::collection::btree_map(text(), text().prop_map(Json::String), 0..3)
            .prop_map(Json::Object),
        1 => proptest::collection::btree_map(text(), leaf(), 1..3).prop_map(Json::Object),
        1 => leaf(),
    ]
}

/// An object with each of `keys` present or not.
fn object_of<const N: usize>(keys: [&'static str; N], values: [Option<Json>; N]) -> Json {
    Json::Object(
        keys.iter()
            .zip(values)
            .filter_map(|(k, v)| Some((k.to_string(), v?)))
            .collect(),
    )
}

fn item_like() -> impl Strategy<Value = Json> {
    use proptest::option::of;
    prop_oneof![
        6 => (
            of(metric_like()),
            of(pair_like()),
            of(proptest::collection::vec(pair_like(), 0..4).prop_map(Json::Array)),
            of(leaf()),
        )
            .prop_map(|(metric, value, values, other)| {
                object_of(["metric", "value", "values", "other"], [metric, value, values, other])
            }),
        1 => leaf(),
    ]
}

fn envelope_like() -> impl Strategy<Value = Json> {
    use proptest::option::of;
    const KINDS: [&str; 3] = ["scalar", "vector", "matrix"];
    let kind = prop_oneof![4 => (0..KINDS.len()).prop_map(|i| json!(KINDS[i])), 1 => leaf()];
    let result = prop_oneof![
        3 => proptest::collection::vec(item_like(), 0..4).prop_map(Json::Array),
        1 => pair_like(),
        1 => leaf(),
    ];
    let data = prop_oneof![
        6 => (of(kind), of(result), of(leaf())).prop_map(|(kind, result, other)| {
            object_of(["resultType", "result", "trace"], [kind, result, other])
        }),
        1 => leaf(),
    ];
    let status = prop_oneof![4 => Just(json!("success")), 1 => leaf()];
    prop_oneof![
        8 => (of(status), of(leaf()), of(data), of(leaf())).prop_map(
            |(status, error, data, warnings)| {
                object_of(
                    ["status", "error", "data", "warnings"],
                    [status, error, data, warnings],
                )
            }
        ),
        1 => leaf(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn answer_prints_what_the_tree_printer_prints(
        data in query_data(),
        warnings in proptest::collection::vec(text(), 0..3),
        trace in proptest::option::of(trace_report()),
    ) {
        let body = answer(&data, trace.as_ref(), &warnings).body;
        prop_assert_eq!(
            String::from_utf8(body).unwrap(),
            String::from_utf8(tree_answer(&data, trace.as_ref(), &warnings)).unwrap()
        );
    }

    #[test]
    fn answers_decode_as_the_tree_decodes_them(
        data in query_data(),
        warnings in proptest::collection::vec(text(), 0..3),
        trace in proptest::option::of(trace_report()),
    ) {
        for body in three_forms(answer(&data, trace.as_ref(), &warnings).body) {
            prop_assert!(decode(&body).is_ok());
            agree(&body);
        }
    }

    #[test]
    fn envelopes_of_any_shape_decode_as_the_tree_decodes_them(tree in envelope_like()) {
        for body in three_forms(serde_json::to_vec(&tree).unwrap()) {
            agree(&body);
        }
    }
}

/// The body check reads numbers by their grammar: at every place a number
/// can start, the run it steps over passes exactly when `str::parse::<f64>`
/// takes it, which is what the check took when it parsed each number, and
/// its verdict on the whole body is the parser's.
fn numbers_check_as_they_parse(body: &[u8]) {
    for (i, &b) in body.iter().enumerate() {
        if matches!(b, b'-' | b'0'..=b'9') {
            let mut r = Reader::new(body, i);
            let checked = r.number_text().is_ok();
            let run = &body[i..r.at];
            let parsed = parse_number(run).is_ok();
            assert_eq!(checked, parsed, "{:?}", String::from_utf8_lossy(run));
        }
    }
    let parses = serde_json::from_slice::<Json>(body).is_ok();
    assert_eq!(is_json(body), parses, "{}", String::from_utf8_lossy(body));
}

/// Bytes a number is made of, and some it is not.
fn number_piece() -> impl Strategy<Value = &'static [u8]> {
    let pieces: [&'static [u8]; 12] = [
        b"-", b"+", b"0", b"7", b"12", b".", b"e", b"E", b"e-", b"1e999", b",", b" ",
    ];
    (0..pieces.len()).prop_map(move |i| pieces[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_body_check_reads_numbers_as_they_parse(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        pieces in proptest::collection::vec(number_piece(), 0..24),
        data in query_data(),
        cut in any::<usize>(),
    ) {
        numbers_check_as_they_parse(&bytes);
        let number = pieces.concat();
        numbers_check_as_they_parse(&number);
        numbers_check_as_they_parse(&[b"[", &number[..], b"]"].concat());
        for body in three_forms(answer(&data, None, &[]).body) {
            numbers_check_as_they_parse(&body);
            numbers_check_as_they_parse(&body[..cut % (body.len() + 1)]);
        }
    }
}

/// The time `write_pair` writes for `t_ms`.
fn written_time(t_ms: i64) -> String {
    let mut out = Vec::new();
    write_pair(&mut out, &Sample::new(t_ms, 1.0));
    let pair = String::from_utf8(out).unwrap();
    pair[1..pair.find(',').unwrap()].to_string()
}

/// The milliseconds `decode` reads from a sample time written `secs`.
fn decoded_ms(secs: &str) -> i64 {
    let body =
        format!(r#"{{"status":"success","data":{{"resultType":"scalar","result":[{secs},"1"]}}}}"#);
    match decode(body.as_bytes()) {
        Ok(QueryData::Scalar(s)) => s.t_ms,
        other => panic!("{secs}: {other:?}"),
    }
}

/// What the decoder read from every time before it read digits: the
/// `f64` the text parses to, scaled and rounded.
fn float_ms(secs: &str) -> i64 {
    (secs.parse::<f64>().unwrap() * 1000.0).round() as i64
}

/// A time prints as the float printer prints it and reads back as the
/// float path reads it, which below `EXACT_MS` is the time itself.
fn time_round_trips(t_ms: i64) {
    let written = written_time(t_ms);
    assert_eq!(written, format!("{:?}", t_ms as f64 / 1000.0), "{t_ms}");
    let back = decoded_ms(&written);
    assert_eq!(back, float_ms(&written), "{written}");
    if t_ms.unsigned_abs() < EXACT_MS {
        assert_eq!(back, t_ms, "{written}");
    }
}

fn exact_or_beyond_ms() -> impl Strategy<Value = i64> {
    let exact = EXACT_MS as i64;
    prop_oneof![
        4 => -(exact - 1)..exact,
        1 => -3_000i64..=3_000,
        1 => exact..=i64::MAX,
        1 => i64::MIN..=-exact,
        1 => Just(i64::MIN),
        1 => Just(i64::MAX),
    ]
}

const FOREIGN: [&str; 12] = [
    "1e3",
    "1.2345",
    "-0.5",
    "01",
    "1.",
    "-.5",
    "-0",
    "0.0005",
    "1E3",
    "-1.5e-3",
    "999999999999.999",
    "1000000000000.000",
];

/// Times another writer may have written: more fraction digits, no
/// fraction, an exponent, leading zeros, a bare point.
fn foreign_time() -> impl Strategy<Value = String> {
    prop_oneof![
        "-?[0-9]{1,17}[.]?[0-9]{0,6}",
        "-?[0-9]{1,4}[.]?[0-9]{0,4}[eE][-+]?[0-9]{1,2}",
        (proptest::num::f64::NORMAL).prop_map(|x| format!("{x:e}")),
        (proptest::num::f64::NORMAL).prop_map(|x| format!("{x}")),
        (0..FOREIGN.len()).prop_map(|i| FOREIGN[i].to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn sample_times_print_and_read_as_the_float_path_does(
        t_ms in exact_or_beyond_ms(),
        foreign in foreign_time(),
    ) {
        time_round_trips(t_ms);
        prop_assert_eq!(decoded_ms(&foreign), float_ms(&foreign), "{}", foreign);
    }
}

#[test]
fn every_millisecond_within_three_seconds_round_trips() {
    for t_ms in (-3_000..=3_000).chain([i64::MIN, i64::MAX]) {
        time_round_trips(t_ms);
    }
}

#[test]
fn whole_seconds_keep_their_form_and_infinities_print_as_prometheus_does() {
    let data = QueryData::Matrix(vec![SeriesData::new(
        LabelSet::empty(),
        vec![
            Sample::new(1_700_000_000_000, f64::INFINITY),
            Sample::new(1_700_000_015_500, f64::NEG_INFINITY),
        ],
    )]);
    let counts = BTreeMap::from([("series", 1)]);
    let trace = TraceReport {
        id: "t".into(),
        total_ms: 1.5,
        stages: vec![],
        counts,
    };
    let body = answer(&data, Some(&trace), &["w".into()]).body;
    assert_eq!(
        String::from_utf8(body).unwrap(),
        r#"{"data":{"result":[{"metric":{},"values":[[1700000000.0,"+Inf"],[1700000015.5,"-Inf"]]}],"resultType":"matrix","trace":{"counts":{"series":1},"stages":[],"totalMs":1.5,"traceId":"t"}},"status":"success","warnings":["w"]}"#
    );
}

#[test]
fn a_repeated_envelope_key_counts_as_its_last() {
    let matrix = r#"{"resultType":"matrix","result":[{"metric":{},"values":[[1,"2"]]}]}"#;
    for body in [
        format!(r#"{{"data":{matrix},"data":5,"status":"success"}}"#),
        format!(r#"{{"data":5,"data":{matrix},"status":"success"}}"#),
        format!(r#"{{"data":{matrix},"status":"success","status":"error"}}"#),
        format!(r#"{{"status":"error","data":{matrix},"status":"success"}}"#),
        r#"{"error":"a","status":"error","error":"b"}"#.to_string(),
        r#"{"status":"success","data":{"resultType":"vector","resultType":"matrix","result":[]}}"#
            .to_string(),
        r#"{"status":"success","data":{"result":5,"resultType":"matrix","result":[]}}"#.to_string(),
    ] {
        agree(body.as_bytes());
    }
}
