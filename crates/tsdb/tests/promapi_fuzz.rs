//! Query answers are input from outside the process: the query frontend
//! decodes every sub-query's answer with `promapi::decode_matrix`,
//! `TsdbClient::instant` decodes with `promapi::decode_instant`, and the LB
//! and the frontend open a traced answer's `data.trace` with
//! `promapi::add_hop`. Whatever the bytes, all three return: they do not
//! panic, and what they allocate is bounded by a fixed multiple of the
//! body. Fed arbitrary bytes, answers assembled from JSON's pieces and the
//! envelope's field names, and real answers with bits flipped or cut
//! short. Its own test binary: the measuring allocator is process-wide
//! (the tallies are per thread, so the tests may run side by side).
//!
//! The LB's corrupt-2xx check, `promapi::is_json`, is held to
//! `serde_json::from_slice` itself: the same verdict on every body, and
//! nothing allocated reaching it.

use std::sync::{Arc, OnceLock};

use ceems_http::{Method, Request};
use ceems_metrics::labels;
use ceems_tsdb::httpapi::api_router;
use ceems_tsdb::promapi::{add_hop, decode_instant, decode_matrix, is_json};
use ceems_tsdb::Tsdb;
use proptest::prelude::*;

#[path = "common/measuring.rs"]
mod measuring;
use measuring::requested_by;

/// Runs the three decoders over `body`, each held to the memory bound: the
/// parsed tree, its copy and the typed result, and at worst an object node
/// of a few hundred bytes for an object of seven (`{"":0}`); `add_hop`
/// also prints the tree again.
fn decode_within_bounds(body: &[u8]) {
    within_bounds("decode_instant", body, || drop(decode_instant(body)));
    within_bounds("decode_matrix", body, || drop(decode_matrix(body)));
    within_bounds("add_hop", body, || {
        drop(add_hop(
            body,
            &[("lb_auth", 0.5)],
            ("lb_forward", 2.0),
            3.0,
            &[("lbRetries", 1)],
        ))
    });
}

fn within_bounds(name: &str, body: &[u8], run: impl FnOnce()) {
    let ((), total, largest) = requested_by(run);
    assert!(
        largest <= 64 * body.len() + 1024,
        "{name}: one request of {largest} bytes for {} of input",
        body.len()
    );
    assert!(
        total <= 256 * body.len() + 4096,
        "{name}: {total} bytes requested for {} of input",
        body.len()
    );
}

/// Real answers: a scalar, a vector and a matrix (traced), a range
/// matrix (traced), and an error.
fn real_answers() -> &'static [Vec<u8>] {
    static ANSWERS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    ANSWERS.get_or_init(|| {
        let db = Arc::new(Tsdb::default());
        for i in 0..8i64 {
            db.append(
                &labels! {"__name__" => "power", "instance" => "n1"},
                i * 15_000,
                0.1 * i as f64,
            );
            db.append(
                &labels! {"__name__" => "power", "note" => "\"é\"\n"},
                i * 15_000,
                f64::NAN,
            );
        }
        let router = api_router(db, Arc::new(|| 105_000));
        [
            "/api/v1/query?query=scalar(sum(power))",
            "/api/v1/query?query=power&trace=1",
            "/api/v1/query?query=power[30s]&trace=1",
            "/api/v1/query_range?query=power&start=0&end=105&step=15&trace=1",
            "/api/v1/query?query=rate(power)",
        ]
        .iter()
        .map(|path| router.dispatch(Request::new(Method::Get, path)).body)
        .collect()
    })
}

#[test]
fn real_answers_decode_within_the_bounds() {
    let answers = real_answers();
    assert_eq!(decode_instant(&answers[1]).unwrap().len(), 2);
    assert_eq!(decode_matrix(&answers[3]).unwrap().len(), 2);
    assert!(add_hop(&answers[3], &[], ("qfe_proxy", 1.0), 1.0, &[]).is_some());
    for body in answers {
        decode_within_bounds(body);
    }
}

#[test]
fn deep_nesting_is_refused_without_exhausting_the_stack() {
    for open in [b"[", b"{"] {
        let body = open.repeat(1 << 20);
        decode_within_bounds(&body);
        assert!(decode_matrix(&body).is_err());
    }
}

/// JSON's pieces and the envelope's own names, for answers that get past
/// the parser into the decoders.
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
        "12.5",
        "1e999",
        "\"NaN\"",
        "\"-0\"",
        "\"x\"",
        "\"\\u0000\"",
        "\"status\"",
        "\"success\"",
        "\"error\"",
        "\"data\"",
        "\"resultType\"",
        "\"result\"",
        "\"scalar\"",
        "\"vector\"",
        "\"matrix\"",
        "\"metric\"",
        "\"value\"",
        "\"values\"",
        "\"trace\"",
        "\"stages\"",
        "\"totalMs\"",
        " ",
    ];
    (0..pieces.len()).prop_map(move |i| pieces[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bodies(body in proptest::collection::vec(any::<u8>(), 0..400)) {
        decode_within_bounds(&body);
    }

    #[test]
    fn answers_from_json_pieces(pieces in proptest::collection::vec(json_piece(), 0..60)) {
        decode_within_bounds(pieces.concat().as_bytes());
    }

    /// A well-formed envelope around a `data` built from pieces.
    #[test]
    fn envelopes_around_data_from_pieces(
        pieces in proptest::collection::vec(json_piece(), 0..40),
    ) {
        let body = format!("{{\"status\":\"success\",\"data\":{}}}", pieces.concat());
        decode_within_bounds(body.as_bytes());
    }

    /// Damage that gets as far as the field it lands in: a real answer with
    /// a few bits flipped, then maybe cut short.
    #[test]
    fn real_answers_with_bits_flipped(
        which in 0usize..5,
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
        cut in any::<usize>(),
    ) {
        let mut body = real_answers()[which].clone();
        for (at, bit) in flips {
            let at = at % body.len();
            body[at] ^= 1 << bit;
        }
        decode_within_bounds(&body);
        body.truncate(cut % (body.len() + 1));
        decode_within_bounds(&body);
    }
}

/// `is_json` says what `serde_json::from_slice` says, allocating nothing.
fn check_agrees(body: &[u8]) {
    let (verdict, total, _) = requested_by(|| is_json(body));
    assert_eq!(total, 0, "is_json requested {total} bytes");
    let parses = serde_json::from_slice::<serde_json::Value>(body).is_ok();
    assert_eq!(verdict, parses, "{:?}", String::from_utf8_lossy(body));
}

#[test]
fn the_body_check_agrees_with_the_parser_at_its_edges() {
    for depth in 125..=131 {
        for (open, inner, close) in [
            ("[", "", "]"),
            ("[", "1", "]"),
            ("{\"a\":", "{}", "}"),
            ("{\"a\":[", "\"x\"", "]}"),
        ] {
            let body = format!("{}{inner}{}", open.repeat(depth), close.repeat(depth));
            check_agrees(body.as_bytes());
        }
    }
    let cases: &[&[u8]] = &[
        // Surrogates, lone and paired, and escapes `from_str_radix` takes.
        br#""\ud800""#,
        br#""\udc00""#,
        br#""\udfff""#,
        br#""\udbff""#,
        br#""\ud800\udc00""#,
        br#""\ud83d\ude00""#,
        br#""\udbff\udfff""#,
        br#""\ud800\u0041""#,
        br#""\ud800x""#,
        br#""\ud800\""#,
        br#""\uD800\uDC0""#,
        br#""\u+041""#,
        br#""\u+ABC""#,
        br#""\u-041""#,
        br#""\u00e""#,
        br#""\u00E9\/\b\f\n\r\t\"\\""#,
        br#""\a""#,
        br#""\""#,
        b"\"\\u\xc3\xa9\xc3\xa9\"",
        // Numbers at the edges of the scan and of `parse::<f64>`.
        b"01",
        b"1.",
        b"-.5",
        b"1e",
        b"-",
        b"-0",
        b"00",
        b"1E+5",
        b"1e-",
        b".5",
        b"+1",
        b"1.e3",
        b"-01.10e+01",
        b"1e999",
        b"123456789012345678901234567890",
        b"--1",
        b"1..2",
        b"0x10",
        b"Infinity",
        b"NaN",
        b"[1.]",
        b"[-]",
        b"[1,]",
        b"{\"a\":1,}",
        b"[01,-.5,1.]",
        // UTF-8 inside and outside strings.
        b"\"\xff\"",
        b"\"\xc3\"",
        b"\"\xc3\xa9\"",
        b"\"\xe2\x82\"",
        b"\"\xed\xa0\x80\"",
        b"\"\xf4\x90\x80\x80\"",
        b"\"\xc0\xaf\"",
        b"\"\xf0\x9f\x98\x80\"",
        b"\xff",
        b"[1]\xff",
        b"\xef\xbb\xbf[]",
        // Control characters, literals, whitespace.
        b"\"\x01\"",
        b"\"\x1f\"",
        b"\"\x20\"",
        b"\"\x7f\"",
        b"\"\t\"",
        b"nul",
        b"nulll",
        b"tru",
        b"falsey",
        b"\x0c[]",
        b" [ ] ",
        b"",
        b" ",
        b"{\"a\" 1}",
        b"{1:2}",
    ];
    for body in cases {
        check_agrees(body);
    }
    for body in real_answers() {
        assert!(is_json(body));
        check_agrees(body);
    }
}

/// JSON's pieces as bytes, with the escapes, numbers and encodings the
/// check must judge as the parser does.
fn check_piece() -> impl Strategy<Value = &'static [u8]> {
    let pieces: [&'static [u8]; 36] = [
        b"{",
        b"}",
        b"[",
        b"]",
        b":",
        b",",
        b"\"",
        b"\\",
        b"u",
        b"d800",
        b"dc00",
        b"+04",
        b"null",
        b"true",
        b"false",
        b"0",
        b"-",
        b".",
        b"5",
        b"e",
        b"E+",
        b"1e999",
        b"\"a\"",
        b"\"data\"",
        b"\"status\"",
        b"\"success\"",
        b" ",
        b"\n",
        b"\t",
        b"\x0c",
        b"\x01",
        b"\xc3\xa9",
        b"\xc3",
        b"\xff",
        b"\xf0\x9f\x98\x80",
        b"\\u",
    ];
    (0..pieces.len()).prop_map(move |i| pieces[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn the_body_check_agrees_with_the_parser(
        body in proptest::collection::vec(any::<u8>(), 0..200),
        pieces in proptest::collection::vec(check_piece(), 0..40),
        which in 0usize..5,
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
        cut in any::<usize>(),
    ) {
        check_agrees(&body);
        check_agrees(&pieces.concat());
        let mut answer = real_answers()[which].clone();
        for (at, bit) in flips {
            let at = at % answer.len();
            answer[at] ^= 1 << bit;
        }
        check_agrees(&answer);
        answer.truncate(cut % (answer.len() + 1));
        check_agrees(&answer);
    }
}
