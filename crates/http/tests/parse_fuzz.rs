//! Request heads and response bodies are input from outside the process:
//! every server parses what a peer sends with the same request parser, and
//! every hop's client (the LB, the query frontend, the scraper, the WAL
//! follower) reads what a backend answers with the same response readers.
//! Whatever the bytes, both return: they do not panic, and what they
//! allocate is bounded by a fixed multiple of the input — a
//! `content-length` or chunk size claims nothing until its bytes arrive.
//! The parser is fed at every split point and must agree with one fed the
//! whole. Fed arbitrary bytes, messages assembled from HTTP's pieces, and
//! real requests and responses with bytes overwritten or cut short. Its
//! own test binary: the measuring allocator is process-wide (the tallies
//! are per thread, so the tests may run side by side).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;

use ceems_http::wire::{parse_request, read_response, read_stream, Parse};
use ceems_http::{HttpServer, Request, Response, Router, ServerConfig, Status};
use proptest::prelude::*;

#[path = "../../tsdb/tests/common/measuring.rs"]
mod measuring;
use measuring::requested_by;

const MAX_BODY: usize = 1 << 20;

fn within_bounds<T>(name: &str, input: &[u8], run: impl FnOnce() -> T) -> T {
    let (out, total, largest) = requested_by(run);
    assert!(
        largest <= 64 * input.len() + 1024,
        "{name}: one request of {largest} bytes for {} of input",
        input.len()
    );
    assert!(
        total <= 256 * input.len() + 4096,
        "{name}: {total} bytes requested for {} of input",
        input.len()
    );
    out
}

/// What a parse yields, comparable: each request's parts, then the error
/// that ended the parse, if one did.
type Parsed = (Vec<String>, Option<&'static str>);

fn parts(req: &Request) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {:?}",
        req.method, req.path, req.query, req.headers, req.body
    )
}

/// Feeds `pieces` to the parser one after another, as reads would bring
/// them, parsing after each as the server does.
fn parse_pieces(pieces: &[&[u8]]) -> Parsed {
    let mut buf = Vec::new();
    let mut scanned = 0;
    let mut out = Vec::new();
    for piece in pieces {
        buf.extend_from_slice(piece);
        loop {
            match parse_request(&mut buf, &mut scanned, MAX_BODY) {
                Parse::Done(req) => out.push(parts(&req)),
                Parse::Incomplete => break,
                Parse::Bad(msg) => return (out, Some(msg)),
            }
        }
    }
    (out, None)
}

/// The parser over `bytes` whole and split at every point: within the
/// bounds each time, and every split parses as the whole does.
fn parse_at_every_split(bytes: &[u8]) {
    let whole = within_bounds("parse_request", bytes, || parse_pieces(&[bytes]));
    for split in 0..=bytes.len() {
        let (a, b) = bytes.split_at(split);
        let parsed = within_bounds("parse_request", bytes, || parse_pieces(&[a, b]));
        assert_eq!(
            parsed,
            whole,
            "split at {split} of {:?}",
            String::from_utf8_lossy(bytes)
        );
    }
}

/// Both client readers over `bytes`, within the bounds.
fn read_within_bounds(bytes: &[u8]) {
    within_bounds("read_response", bytes, || {
        drop(read_response(&mut &bytes[..]))
    });
    within_bounds("read_stream", bytes, || drop(read_stream(&mut &bytes[..])));
}

/// Requests as a client writes them: a query with a tenant header, a POST
/// with a body, and two pipelined on one connection.
fn real_requests() -> Vec<Vec<u8>> {
    let query = b"GET /api/v1/query_range?query=sum%20by%20(uuid)%20(uuid%3Aceems_power%3Awatts)&start=0&end=1200&step=15 HTTP/1.1\r\n\
host: 127.0.0.1:9090\r\nconnection: keep-alive\r\ncontent-length: 0\r\nx-grafana-user: alice\r\n\r\n";
    let post =
        b"POST /api/v1/write HTTP/1.1\r\nhost: 127.0.0.1:9090\r\nconnection: keep-alive\r\n\
content-length: 11\r\ncontent-type: application/octet-stream\r\n\r\nhello world";
    let mut pipelined = query.to_vec();
    pipelined.extend_from_slice(post);
    vec![query.to_vec(), post.to_vec(), pipelined]
}

/// Responses as a server writes them, captured off a real socket: a JSON
/// answer framed by `content-length`, a chunked stream, an error, and an
/// empty body.
fn real_responses() -> &'static [Vec<u8>] {
    static RESPONSES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    RESPONSES.get_or_init(|| {
        let mut router = Router::new();
        router.get("/answer", |_| {
            let values: Vec<String> = (0..40).map(|i| format!("[{i}.5,\"{}\"]", i * 7)).collect();
            Response::status(Status::OK)
                .with_header("content-type", "application/json")
                .with_body(
                    format!(
                        "{{\"status\":\"success\",\"data\":{{\"resultType\":\"matrix\",\"result\":[{{\"metric\":{{}},\"values\":[{}]}}]}}}}",
                        values.join(",")
                    )
                    .into_bytes(),
                )
        });
        router.get("/stream", |_| {
            let (resp, writer) = Response::streaming(Status::OK);
            for i in 0..4 {
                writer.send(format!("event: delta\ndata: {{\"step\":{i}}}\n\n"));
            }
            writer.close();
            resp.with_header("content-type", "text/event-stream")
        });
        router.get("/empty", |_| Response::status(Status::NO_CONTENT));
        let server = HttpServer::serve(ServerConfig::ephemeral(), router).unwrap();
        let fetch = |path: &str| {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n").unwrap();
            let mut bytes = Vec::new();
            s.read_to_end(&mut bytes).unwrap();
            bytes
        };
        let responses = ["/answer", "/stream", "/nope", "/empty"].map(fetch).to_vec();
        server.shutdown();
        responses
    })
}

#[test]
fn real_messages_read_back_whole() {
    for req in real_requests() {
        let (parsed, err) = parse_pieces(&[&req]);
        assert!(err.is_none() && !parsed.is_empty(), "{parsed:?} {err:?}");
        parse_at_every_split(&req);
    }
    let responses = real_responses();
    let (answer, framed) = read_response(&mut &responses[0][..]).unwrap();
    assert!(framed, "content-length framed");
    assert!(answer.body.starts_with(b"{\"status\":\"success\""));
    assert!(
        answer.body.len() > 500,
        "a real answer: {} bytes",
        answer.body.len()
    );
    let chunks = read_stream(&mut &responses[1][..]).unwrap();
    assert_eq!(chunks.len(), 4, "every chunk the handler queued");
    assert_eq!(
        read_response(&mut &responses[2][..]).unwrap().0.status,
        Status::NOT_FOUND
    );
    assert!(read_response(&mut &responses[3][..])
        .unwrap()
        .0
        .body
        .is_empty());
    for r in responses {
        read_within_bounds(r);
    }
}

#[test]
fn a_claimed_length_past_the_bytes_allocates_what_arrives() {
    for claim in ["1000000", "99999999999"] {
        let bytes = format!("HTTP/1.1 200 OK\r\ncontent-length: {claim}\r\n\r\nshort");
        let bytes = bytes.as_bytes();
        let read = within_bounds("read_response", bytes, || read_response(&mut &bytes[..]));
        assert!(read.is_err(), "a body cut short is an error");
        within_bounds("read_stream", bytes, || {
            read_stream(&mut &bytes[..]).unwrap_err()
        });
    }
    let chunked = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nfffffffff\r\nshort";
    within_bounds("read_stream", chunked, || {
        read_stream(&mut &chunked[..]).unwrap_err()
    });
}

/// Pieces of HTTP/1.1 messages, requests and responses both.
fn http_piece() -> impl Strategy<Value = &'static str> {
    let pieces = [
        "GET ",
        "POST ",
        "DELETE ",
        "PATCH ",
        "/",
        "/api/v1/query",
        "?",
        "query=up",
        "&",
        "%2",
        "%41",
        "+",
        " ",
        "HTTP/1.1",
        "HTTP/1.0",
        "HTTP/2",
        "HTTP/1.1 200 OK",
        "HTTP/1.1 404 Not Found",
        "\r\n",
        "\n",
        "\r",
        ":",
        "host: x",
        "connection: close",
        "connection: keep-alive",
        "content-length: ",
        "content-length: 0",
        "content-length: 5",
        "Content-Length: 3",
        "content-length: 99999999999",
        "content-length: -1",
        "transfer-encoding: chunked",
        "0",
        "5",
        "a",
        "ff",
        "fffffffff",
        "ffffffffffffffffffff",
        ";ext",
        "hello",
        "é",
        "\u{0}",
        "\r\n\r\n",
    ];
    (0..pieces.len()).prop_map(move |i| pieces[i])
}

/// A real message with each `(index, byte)` written over it, then cut at
/// `cut` (a fraction of its length).
fn damage(real: &[u8], edits: &[(usize, u8)], cut: f64) -> Vec<u8> {
    let mut bytes = real.to_vec();
    for &(i, b) in edits {
        let at = i % bytes.len();
        bytes[at] = b;
    }
    bytes.truncate((bytes.len() as f64 * cut) as usize);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_requests(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        parse_at_every_split(&bytes);
    }

    #[test]
    fn requests_from_http_pieces(pieces in proptest::collection::vec(http_piece(), 0..30)) {
        parse_at_every_split(pieces.concat().as_bytes());
    }

    #[test]
    fn real_requests_with_bytes_overwritten(
        which in 0usize..3,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        cut in 0.0f64..=1.0,
    ) {
        parse_at_every_split(&damage(&real_requests()[which], &edits, cut));
    }

    #[test]
    fn arbitrary_responses(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        read_within_bounds(&bytes);
    }

    #[test]
    fn responses_from_http_pieces(pieces in proptest::collection::vec(http_piece(), 0..40)) {
        read_within_bounds(pieces.concat().as_bytes());
    }

    #[test]
    fn claimed_lengths_past_the_bytes(
        claim in 0usize..10_000_000,
        body in proptest::collection::vec(any::<u8>(), 0..200),
        chunked in any::<bool>(),
    ) {
        let head = if chunked {
            format!("HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n{claim:x}\r\n")
        } else {
            format!("HTTP/1.1 200 OK\r\ncontent-length: {claim}\r\n\r\n")
        };
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(&body);
        read_within_bounds(&bytes);
    }

    #[test]
    fn real_responses_with_bytes_overwritten(
        which in 0usize..4,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        cut in 0.0f64..=1.0,
    ) {
        read_within_bounds(&damage(&real_responses()[which], &edits, cut));
    }
}
