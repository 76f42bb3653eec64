//! Push bodies are input from outside the process: `POST
//! /api/v1/stream/push` hands them to `decode_records`, and each record to
//! `SampleFrame::from_json`. Whatever the bytes, both return: they do not
//! panic, and what they allocate is bounded by a fixed multiple of the body.
//! Fed arbitrary bytes, arbitrary bytes behind a fitting length, records
//! assembled from JSON's pieces and the frame's field names, and real push
//! bodies with bytes overwritten or cut short. Its own test binary: the
//! measuring allocator is process-wide (the tallies are per thread, so the
//! tests may run side by side).

use ceems_stream::frame::decode_records;
use ceems_stream::SampleFrame;
use proptest::prelude::*;

#[path = "../../tsdb/tests/common/measuring.rs"]
mod measuring;
use measuring::requested_by;

/// Decodes a body and every record of it as a frame, and holds both to the
/// memory bound: at worst an object node of a few hundred bytes for a
/// record of seven (`{"":0}` behind its length).
fn decode_within_bounds(body: &[u8]) -> Option<Vec<SampleFrame>> {
    let (frames, total, largest) = requested_by(|| {
        let records = decode_records(body).ok()?;
        Some(
            records
                .iter()
                .filter_map(|r| SampleFrame::from_json(r).ok())
                .collect(),
        )
    });
    assert!(
        largest <= 64 * body.len() + 1024,
        "one request of {largest} bytes for {} of input",
        body.len()
    );
    assert!(
        total <= 256 * body.len() + 4096,
        "{total} bytes requested for {} of input",
        body.len()
    );
    frames
}

fn frame(seq: u64, body: &str) -> SampleFrame {
    SampleFrame {
        topic: "node-metrics".into(),
        publisher: "jz-intel-0001".into(),
        seq,
        instance: "jz-intel-0001:9100".into(),
        job: "ceems".into(),
        extra_labels: vec![("nodegroup".into(), "intel-dram".into())],
        body: body.into(),
        produced_ms: 15_000 * seq as i64,
    }
}

/// An exporter's render, as a frame carries it.
const RENDER: &str = "# TYPE ceems_ipmi_dcmi_power_current_watts gauge
ceems_ipmi_dcmi_power_current_watts 412.5
";

/// A real push body: three frames, one with an exposition body, one empty,
/// one with escapes in its text.
fn push_body() -> Vec<u8> {
    let mut body = Vec::new();
    let renders = [RENDER, "", "x{path=\"a\\\"b\"} 1e-3\n\tü\n"];
    for (seq, render) in renders.into_iter().enumerate() {
        frame(seq as u64 + 1, render).encode_into(&mut body);
    }
    body
}

#[test]
fn real_push_bodies_decode_within_the_bounds() {
    let body = push_body();
    let frames = decode_within_bounds(&body).expect("a real body decodes");
    assert_eq!(frames.len(), 3);
    assert_eq!(frames[0], frame(1, RENDER));
}

#[test]
fn a_deeply_nested_record_is_rejected_without_exhausting_the_stack() {
    for open in [b"[", b"{"] {
        let json: Vec<u8> = open.repeat(1 << 20);
        let mut body = (json.len() as u32).to_be_bytes().to_vec();
        body.extend_from_slice(&json);
        assert!(decode_within_bounds(&body).is_none());
    }
}

/// JSON's pieces and the frame's own field names, for records that get past
/// the parser into `SampleFrame::from_json`.
fn json_piece() -> impl Strategy<Value = &'static str> {
    let pieces = [
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "null",
        "true",
        "0",
        "-1",
        "1e999",
        "18446744073709551616",
        "\"topic\"",
        "\"publisher\"",
        "\"seq\"",
        "\"instance\"",
        "\"job\"",
        "\"extra_labels\"",
        "\"body\"",
        "\"produced_ms\"",
        "\"offset\"",
        "\"x\"",
        "\"\\u0000\"",
        "\"\\ud800\"",
        " ",
    ];
    (0..pieces.len()).prop_map(move |i| pieces[i])
}

/// A frame's JSON with each field's value replaced by a piece of JSON at
/// random: right-shaped records with wrong-typed fields.
fn frame_with_fields(values: &[&str]) -> String {
    let keys = [
        "topic",
        "publisher",
        "seq",
        "instance",
        "job",
        "extra_labels",
        "body",
        "produced_ms",
    ];
    let fields: Vec<String> = keys
        .iter()
        .zip(values.iter().cycle())
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn record(json: &[u8]) -> Vec<u8> {
    let mut out = (json.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(json);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bodies(body in proptest::collection::vec(any::<u8>(), 0..400)) {
        decode_within_bounds(&body);
    }

    #[test]
    fn arbitrary_bytes_behind_a_fitting_length(
        json in proptest::collection::vec(any::<u8>(), 0..400),
        records in 1usize..4,
    ) {
        decode_within_bounds(&record(&json).repeat(records));
    }

    #[test]
    fn records_from_json_pieces(pieces in proptest::collection::vec(json_piece(), 0..40)) {
        decode_within_bounds(&record(pieces.concat().as_bytes()));
    }

    #[test]
    fn frames_with_wrong_typed_fields(
        values in proptest::collection::vec(
            prop_oneof![
                3 => json_piece().prop_map(str::to_string),
                1 => Just("[[\"k\",\"v\"],[\"k\"]]".to_string()),
                1 => Just("[[1,2]]".to_string()),
                1 => Just("\"s\"".to_string()),
                1 => Just("42".to_string()),
            ],
            1..9,
        ),
    ) {
        let values: Vec<&str> = values.iter().map(String::as_str).collect();
        decode_within_bounds(&record(frame_with_fields(&values).as_bytes()));
    }

    /// Damage that gets as far as the field it lands in: a real body with
    /// a few bytes overwritten (lengths included), then maybe cut short.
    #[test]
    fn real_bodies_with_bytes_overwritten(
        damage in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        cut in any::<usize>(),
    ) {
        let mut body = push_body();
        for (at, byte) in damage {
            let at = at % body.len();
            body[at] = byte;
        }
        decode_within_bounds(&body);
        body.truncate(cut % (body.len() + 1));
        decode_within_bounds(&body);
    }
}
