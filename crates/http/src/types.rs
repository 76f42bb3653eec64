//! HTTP request/response types.

use std::collections::BTreeMap;
use std::fmt;

/// HTTP method subset used by the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
    /// PUT
    Put,
    /// DELETE
    Delete,
    /// HEAD
    Head,
}

impl Method {
    /// Parses a request-line method token.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            "HEAD" => Some(Method::Head),
            _ => None,
        }
    }

    /// Wire representation.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Status codes used by the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    /// 200
    pub const OK: Status = Status(200);
    /// 204
    pub const NO_CONTENT: Status = Status(204);
    /// 400
    pub const BAD_REQUEST: Status = Status(400);
    /// 401
    pub const UNAUTHORIZED: Status = Status(401);
    /// 403
    pub const FORBIDDEN: Status = Status(403);
    /// 404
    pub const NOT_FOUND: Status = Status(404);
    /// 405
    pub const METHOD_NOT_ALLOWED: Status = Status(405);
    /// 422
    pub const UNPROCESSABLE: Status = Status(422);
    /// 429
    pub const TOO_MANY_REQUESTS: Status = Status(429);
    /// 500
    pub const INTERNAL: Status = Status(500);
    /// 502
    pub const BAD_GATEWAY: Status = Status(502);
    /// 503
    pub const UNAVAILABLE: Status = Status(503);

    /// Canonical reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            204 => "No Content",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// True for 2xx.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// A parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Decoded path (no query string).
    pub path: String,
    /// Query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Lower-cased header names to values.
    pub headers: BTreeMap<String, String>,
    /// Raw body bytes.
    pub body: Vec<u8>,
    /// Path parameters captured by the router (filled in at dispatch).
    pub path_params: BTreeMap<String, String>,
    /// When the server read the request's bytes off the socket. On a
    /// pipelined keep-alive connection this can be well before its handler
    /// runs (the requests ahead of it run first), so latency instruments and
    /// trace stage clocks anchor at handler dispatch and surface the gap
    /// separately as queue delay — otherwise `sum(stages)` could exceed a
    /// total measured from dispatch.
    pub received_at: Option<std::time::Instant>,
}

impl Request {
    /// Creates a request for client use / tests.
    pub fn new(method: Method, path_and_query: &str) -> Request {
        let (path, query) = match path_and_query.split_once('?') {
            Some((p, q)) => (p.to_string(), crate::url::parse_query(q)),
            None => (path_and_query.to_string(), Vec::new()),
        };
        Request {
            method,
            path,
            query,
            headers: BTreeMap::new(),
            body: Vec::new(),
            path_params: BTreeMap::new(),
            received_at: None,
        }
    }

    /// Sets a header (names are stored lower-case).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Request {
        self.headers.insert(name.to_ascii_lowercase(), value.into());
        self
    }

    /// Sets the body.
    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Request {
        self.body = body.into();
        self
    }

    /// Gets a header by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(&name.to_ascii_lowercase()).map(|s| s.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// All query parameters with the given name (PromQL APIs repeat `match[]`).
    pub fn query_params(&self, name: &str) -> Vec<&str> {
        self.query
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Path parameter captured by the router.
    pub fn path_param(&self, name: &str) -> Option<&str> {
        self.path_params.get(name).map(|s| s.as_str())
    }

    /// Reassembles `path?query` with percent-encoding, for proxying.
    pub fn path_and_query(&self) -> String {
        if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, crate::url::encode_query(&self.query))
        }
    }
}

/// An HTTP response.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Lower-cased header names to values.
    pub headers: BTreeMap<String, String>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Streaming body (S23). When set, `body` is ignored: the server
    /// serializes the head with `transfer-encoding: chunked`, keeps the
    /// connection open, and drains whatever the paired
    /// [`crate::stream::StreamWriter`] queues until it closes. Streaming
    /// connections never re-enter keep-alive rotation.
    pub stream: Option<crate::stream::BodyStream>,
}

impl Response {
    /// Empty response with a status.
    pub fn status(status: Status) -> Response {
        Response {
            status,
            headers: BTreeMap::new(),
            body: Vec::new(),
            stream: None,
        }
    }

    /// A streaming response: the returned writer queues body chunks for as
    /// long as it lives; [`crate::stream::StreamWriter::close`] ends the
    /// stream (and the connection). The handler returns the `Response`
    /// immediately and hands the writer to whatever produces data later.
    pub fn streaming(status: Status) -> (Response, crate::stream::StreamWriter) {
        let (body, writer) = crate::stream::stream_pair(crate::stream::DEFAULT_STREAM_BUFFER);
        let mut resp = Response::status(status);
        resp.stream = Some(body);
        (resp, writer)
    }

    /// 200 with a `text/plain` body.
    pub fn text(body: impl Into<String>) -> Response {
        Response::status(Status::OK)
            .with_header("content-type", "text/plain; charset=utf-8")
            .with_body(body.into().into_bytes())
    }

    /// 200 with an `application/json` body.
    pub fn json(body: impl Into<Vec<u8>>) -> Response {
        Response::status(Status::OK)
            .with_header("content-type", "application/json")
            .with_body(body)
    }

    /// Error response with a plain-text message.
    pub fn error(status: Status, message: impl Into<String>) -> Response {
        Response::status(status)
            .with_header("content-type", "text/plain; charset=utf-8")
            .with_body(message.into().into_bytes())
    }

    /// Sets a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.insert(name.to_ascii_lowercase(), value.into());
        self
    }

    /// Sets the body.
    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Response {
        self.body = body.into();
        self
    }

    /// Gets a header by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(&name.to_ascii_lowercase()).map(|s| s.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn body_string(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Sets a `Retry-After` header from delta-seconds. Whole seconds are
    /// rendered bare (`Retry-After: 2`, the RFC 9110 form); fractional
    /// delays keep millisecond precision for the in-stack clients that
    /// understand them.
    pub fn with_retry_after(self, secs: f64) -> Response {
        let secs = secs.max(0.0);
        let value = if secs.fract() == 0.0 {
            format!("{}", secs as u64)
        } else {
            format!("{secs:.3}")
        };
        self.with_header("retry-after", value)
    }

    /// Sets a `Retry-After` header as an HTTP-date (IMF-fixdate), the other
    /// form RFC 9110 allows. In-stack components emit delta-seconds; this
    /// exists for compatibility tests and external callers.
    pub fn with_retry_after_date(self, at_unix_s: i64) -> Response {
        self.with_header("retry-after", format_http_date(at_unix_s))
    }

    /// Parses a `Retry-After` header as delta-seconds.
    ///
    /// RFC 9110 allows either delta-seconds or an HTTP-date; every
    /// component in this stack (LB, query frontend, WAL leader) emits
    /// delta-seconds, so dates and anything else unparseable yield
    /// `None` and callers fall back to their own backoff. Use
    /// [`Response::retry_after_secs_at`] to also honour HTTP-dates.
    pub fn retry_after_secs(&self) -> Option<f64> {
        let raw = self.header("retry-after")?.trim();
        let secs: f64 = raw.parse().ok()?;
        if secs.is_finite() && secs >= 0.0 {
            Some(secs)
        } else {
            None
        }
    }

    /// Parses `Retry-After` accepting both delta-seconds and the IMF-fixdate
    /// HTTP-date form, evaluated against `now_unix_s`. Dates in the past
    /// clamp to `0` (retry immediately), matching RFC 9110 semantics.
    pub fn retry_after_secs_at(&self, now_unix_s: i64) -> Option<f64> {
        if let Some(s) = self.retry_after_secs() {
            return Some(s);
        }
        let raw = self.header("retry-after")?.trim();
        let at = parse_http_date(raw)?;
        Some(at.saturating_sub(now_unix_s).max(0) as f64)
    }
}

const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];
const WEEKDAYS: [&str; 7] = ["Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"];

/// Civil date → days since the Unix epoch (Howard Hinnant's algorithm).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = if m > 2 { m - 3 } else { m + 9 } as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Days since the Unix epoch → civil date (inverse of [`days_from_civil`]).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Formats a Unix timestamp as an IMF-fixdate (`Sun, 06 Nov 1994 08:49:37 GMT`).
pub fn format_http_date(unix_s: i64) -> String {
    let days = unix_s.div_euclid(86_400);
    let secs = unix_s.rem_euclid(86_400);
    let (y, m, d) = civil_from_days(days);
    let weekday = WEEKDAYS[(days.rem_euclid(7) + 4) as usize % 7];
    format!(
        "{weekday}, {d:02} {} {y:04} {:02}:{:02}:{:02} GMT",
        MONTHS[(m - 1) as usize],
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}

/// Parses an IMF-fixdate into a Unix timestamp. Returns `None` for the
/// obsolete RFC 850 / asctime forms and anything malformed.
pub fn parse_http_date(s: &str) -> Option<i64> {
    // "Sun, 06 Nov 1994 08:49:37 GMT"
    let rest = s.split_once(", ").map(|(_, r)| r)?;
    let mut parts = rest.split_ascii_whitespace();
    let day: u32 = parts.next()?.parse().ok()?;
    let month = parts.next()?;
    let month = MONTHS.iter().position(|m| *m == month)? as u32 + 1;
    let year: i64 = parts.next()?.parse().ok()?;
    let mut hms = parts.next()?.splitn(3, ':');
    let h: i64 = hms.next()?.parse().ok()?;
    let min: i64 = hms.next()?.parse().ok()?;
    let sec: i64 = hms.next()?.parse().ok()?;
    if parts.next()? != "GMT" || parts.next().is_some() {
        return None;
    }
    if day == 0 || day > 31 || h > 23 || min > 59 || sec > 60 || !(0..=9999).contains(&year) {
        return None;
    }
    days_from_civil(year, month, day)
        .checked_mul(86_400)?
        .checked_add(h * 3600 + min * 60 + sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_roundtrip() {
        for m in [Method::Get, Method::Post, Method::Put, Method::Delete, Method::Head] {
            assert_eq!(Method::parse(m.as_str()), Some(m));
        }
        assert_eq!(Method::parse("PATCH"), None);
    }

    #[test]
    fn request_query_access() {
        let r = Request::new(Method::Get, "/api/query?query=up&time=12&match[]=a&match[]=b");
        assert_eq!(r.path, "/api/query");
        assert_eq!(r.query_param("query"), Some("up"));
        assert_eq!(r.query_params("match[]"), vec!["a", "b"]);
        assert_eq!(r.query_param("missing"), None);
    }

    #[test]
    fn header_case_insensitive() {
        let r = Request::new(Method::Get, "/").with_header("X-Grafana-User", "alice");
        assert_eq!(r.header("x-grafana-user"), Some("alice"));
        assert_eq!(r.header("X-GRAFANA-USER"), Some("alice"));
    }

    #[test]
    fn path_and_query_roundtrip() {
        let r = Request::new(Method::Get, "/q?a=1%202&b=x");
        assert_eq!(r.query_param("a"), Some("1 2"));
        let pq = r.path_and_query();
        let r2 = Request::new(Method::Get, &pq);
        assert_eq!(r2.query_param("a"), Some("1 2"));
    }

    #[test]
    fn response_helpers() {
        let r = Response::text("hello");
        assert_eq!(r.status, Status::OK);
        assert_eq!(r.body_string(), "hello");
        assert!(Status::OK.is_success());
        assert!(!Status::FORBIDDEN.is_success());
        assert_eq!(Status::FORBIDDEN.reason(), "Forbidden");
    }

    #[test]
    fn retry_after_roundtrip() {
        assert_eq!(Status::TOO_MANY_REQUESTS.reason(), "Too Many Requests");
        let r = Response::status(Status::TOO_MANY_REQUESTS).with_retry_after(2.0);
        assert_eq!(r.header("retry-after"), Some("2"));
        assert_eq!(r.retry_after_secs(), Some(2.0));
        let r = Response::status(Status::TOO_MANY_REQUESTS).with_retry_after(0.25);
        assert_eq!(r.header("retry-after"), Some("0.250"));
        assert_eq!(r.retry_after_secs(), Some(0.25));
        // Negative delays clamp to zero on emit.
        let r = Response::status(Status::OK).with_retry_after(-3.0);
        assert_eq!(r.retry_after_secs(), Some(0.0));
    }

    #[test]
    fn retry_after_edge_case_table() {
        // (header value, now_unix_s, expected retry_after_secs_at)
        let cases: &[(&str, i64, Option<f64>)] = &[
            // Delta-seconds forms.
            ("0", 0, Some(0.0)),
            ("2", 0, Some(2.0)),
            ("0.250", 0, Some(0.25)),
            ("-1", 0, None),
            ("-0.5", 0, None),
            ("inf", 0, None),
            ("nan", 0, None),
            ("1e309", 0, None), // overflows f64 to inf
            ("99999999999999999999", 0, Some(1e20)), // finite, caller caps
            ("", 0, None),
            ("two", 0, None),
            // HTTP-date forms (784_111_777 = Sun, 06 Nov 1994 08:49:37 GMT).
            ("Sun, 06 Nov 1994 08:49:37 GMT", 784_111_777, Some(0.0)),
            ("Sun, 06 Nov 1994 08:49:37 GMT", 784_111_747, Some(30.0)),
            // Dates in the past clamp to zero instead of going negative.
            ("Sun, 06 Nov 1994 08:49:37 GMT", 784_200_000, Some(0.0)),
            // Malformed / unsupported date forms.
            ("Sunday, 06-Nov-94 08:49:37 GMT", 0, None), // RFC 850
            ("Sun Nov  6 08:49:37 1994", 0, None),       // asctime
            ("Sun, 06 Nov 1994 08:49:37 UTC", 0, None),
            ("Sun, 06 Foo 1994 08:49:37 GMT", 0, None),
            ("Sun, 32 Nov 1994 08:49:37 GMT", 0, None),
            ("Sun, 06 Nov 1994 24:00:00 GMT", 0, None),
            ("Sun, 06 Nov 99999 08:49:37 GMT", 0, None), // year overflow
        ];
        for (value, now, want) in cases {
            let r = Response::status(Status::TOO_MANY_REQUESTS).with_header("retry-after", *value);
            assert_eq!(
                r.retry_after_secs_at(*now),
                *want,
                "retry-after {value:?} at {now}"
            );
        }
        assert_eq!(Response::status(Status::OK).retry_after_secs_at(0), None);
    }

    #[test]
    fn retry_after_http_date_emit_parse_roundtrip() {
        // Known fixture from RFC 9110.
        assert_eq!(format_http_date(784_111_777), "Sun, 06 Nov 1994 08:49:37 GMT");
        assert_eq!(
            parse_http_date("Sun, 06 Nov 1994 08:49:37 GMT"),
            Some(784_111_777)
        );
        // Round-trips across epochs, leap years and century boundaries.
        for unix in [
            0i64,
            86_399,
            951_827_696,   // 29 Feb 2000 (leap century)
            1_078_012_800, // 29 Feb 2004
            2_147_483_647, // 32-bit rollover
            4_102_444_800, // 1 Jan 2100 (non-leap century)
        ] {
            let s = format_http_date(unix);
            assert_eq!(parse_http_date(&s), Some(unix), "roundtrip {s}");
        }
        // Emitted dates are honoured by the combined parser.
        let r = Response::status(Status::UNAVAILABLE).with_retry_after_date(1_000_060);
        assert_eq!(r.retry_after_secs(), None, "dates are opaque to delta-only");
        assert_eq!(r.retry_after_secs_at(1_000_000), Some(60.0));
    }

    #[test]
    fn retry_after_rejects_opaque_values() {
        let date = Response::status(Status::OK)
            .with_header("retry-after", "Fri, 07 Aug 2026 12:00:00 GMT");
        assert_eq!(date.retry_after_secs(), None);
        let neg = Response::status(Status::OK).with_header("retry-after", "-1");
        assert_eq!(neg.retry_after_secs(), None);
        let inf = Response::status(Status::OK).with_header("retry-after", "inf");
        assert_eq!(inf.retry_after_secs(), None);
        assert_eq!(Response::status(Status::OK).retry_after_secs(), None);
    }
}
