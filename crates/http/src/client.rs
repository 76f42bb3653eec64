//! Blocking HTTP/1.1 client with pooled keep-alive connections.
//!
//! Requests reuse idle per-host connections from a shared [`Pool`]
//! (clones of a `Client` share one pool, so long-lived components — LB,
//! query frontend, WAL follower, updater, scraper — amortise connection
//! setup across every hop). A connection's timeouts and `TCP_NODELAY` are
//! set once, when it is opened. A pooled connection is revalidated at
//! checkout (age + one non-blocking peek) and a request that fails on a
//! *reused* connection is retried once on a fresh one — the reuse race
//! where the server closed the socket just after checkout is
//! indistinguishable from a dead pooled connection, and no response bytes
//! have been committed yet.
//!
//! A response's body is read as it arrives: a `content-length` or chunk
//! size claims nothing up front, so memory follows the bytes that actually
//! come, and a body cut short is [`ClientError::BadResponse`].

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use crate::auth::BasicAuth;
use crate::pool::{Pool, PoolStats};
use crate::types::{Method, Response, Status};

/// Client errors.
#[derive(Debug)]
pub enum ClientError {
    /// URL could not be parsed.
    BadUrl(String),
    /// Connection / IO failure.
    Io(std::io::Error),
    /// Response could not be parsed.
    BadResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::BadUrl(u) => write!(f, "bad url: {u}"),
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::BadResponse(m) => write!(f, "bad response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Parsed `http://host:port/path?query` URL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Url {
    /// `host:port` authority.
    pub authority: String,
    /// Path plus optional query, starting with `/`.
    pub path_and_query: String,
}

impl Url {
    /// Parses an `http://` URL. `https` is rejected (no TLS substrate).
    pub fn parse(url: &str) -> Result<Url, ClientError> {
        let rest = url
            .strip_prefix("http://")
            .ok_or_else(|| ClientError::BadUrl(url.to_string()))?;
        let (authority, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return Err(ClientError::BadUrl(url.to_string()));
        }
        let authority = if authority.contains(':') {
            authority.to_string()
        } else {
            format!("{authority}:80")
        };
        Ok(Url {
            authority,
            path_and_query: path.to_string(),
        })
    }
}

/// A blocking HTTP client with per-host keep-alive pooling.
#[derive(Clone, Debug, Default)]
pub struct Client {
    basic_auth: Option<BasicAuth>,
    headers: Vec<(String, String)>,
    timeout: Option<Duration>,
    pool: Arc<Pool>,
    #[cfg(feature = "fault")]
    fault: Option<std::sync::Arc<crate::fault::FaultPlan>>,
}

impl Client {
    /// Creates a client with a 10 s default timeout and a keep-alive pool
    /// of [`crate::pool::DEFAULT_POOL_PER_HOST`] idle connections per host.
    pub fn new() -> Client {
        Client {
            basic_auth: None,
            headers: Vec::new(),
            timeout: Some(Duration::from_secs(10)),
            pool: Arc::new(Pool::default()),
            #[cfg(feature = "fault")]
            fault: None,
        }
    }

    /// Attaches basic-auth credentials to every request.
    pub fn with_basic_auth(mut self, auth: BasicAuth) -> Client {
        self.basic_auth = Some(auth);
        self
    }

    /// Attaches a header to every request.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Client {
        self.headers.push((name.to_ascii_lowercase(), value.into()));
        self
    }

    /// Overrides the socket timeout. A connection carries the timeout it
    /// was opened with, so the client gets a pool of its own (of the same
    /// size) for connections opened with this one.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = Some(timeout);
        self.pool = Arc::new(Pool::new(self.pool.max_per_host()));
        self
    }

    /// Replaces the connection pool with one retaining `n` idle keep-alive
    /// connections per host. `0` disables reuse: every request opens a
    /// fresh connection and sends `connection: close`, the pre-S20
    /// behavior. (The new pool is private to this client and its future
    /// clones; prior clones keep the old one.)
    pub fn with_pool_per_host(mut self, n: usize) -> Client {
        self.pool = Arc::new(Pool::new(n));
        self
    }

    /// Pool reuse/miss/discard counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Injects faults on the client side of every request (chaos testing).
    #[cfg(feature = "fault")]
    pub fn with_fault_plan(mut self, plan: std::sync::Arc<crate::fault::FaultPlan>) -> Client {
        self.fault = Some(plan);
        self
    }

    /// Issues a GET.
    pub fn get(&self, url: &str) -> Result<Response, ClientError> {
        self.request(Method::Get, url, Vec::new(), None)
    }

    /// Issues a GET expecting a streaming (chunked) response and returns it
    /// with the body unread, to be consumed incrementally via
    /// [`StreamingResponse::next_chunk`]. The connection is always fresh
    /// and never pooled: a stream consumes its connection. The client's
    /// timeout bounds each chunk read, so a subscription quiet for longer
    /// than that errors out — raise it via [`Client::with_timeout`] for
    /// long-lived subscriptions.
    pub fn get_stream(&self, url: &str) -> Result<StreamingResponse, ClientError> {
        let url = Url::parse(url)?;
        let stream = self.connect(&url)?;

        let mut head = format!(
            "GET {} HTTP/1.1\r\nhost: {}\r\nconnection: close\r\n",
            url.path_and_query, url.authority,
        );
        if let Some(auth) = &self.basic_auth {
            head.push_str(&format!("authorization: {}\r\n", auth.header_value()));
        }
        for (k, v) in &self.headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str("\r\n");
        (&stream).write_all(head.as_bytes())?;
        (&stream).flush()?;

        let mut reader = BufReader::new(stream);
        let (status, headers) = read_head(&mut reader)?;
        let mode = body_mode(&headers)?;
        Ok(StreamingResponse {
            status,
            headers,
            reader,
            mode,
        })
    }

    /// Issues a POST with a body.
    pub fn post(
        &self,
        url: &str,
        body: Vec<u8>,
        content_type: &str,
    ) -> Result<Response, ClientError> {
        self.request(Method::Post, url, body, Some(content_type))
    }

    /// Issues a DELETE.
    pub fn delete(&self, url: &str) -> Result<Response, ClientError> {
        self.request(Method::Delete, url, Vec::new(), None)
    }

    /// Issues an arbitrary request.
    pub fn request(
        &self,
        method: Method,
        url: &str,
        body: Vec<u8>,
        content_type: Option<&str>,
    ) -> Result<Response, ClientError> {
        let url = Url::parse(url)?;

        #[cfg(feature = "fault")]
        let injected = self.fault.as_ref().and_then(|plan| {
            let path = url
                .path_and_query
                .split('?')
                .next()
                .unwrap_or(&url.path_and_query);
            plan.decide(path)
        });
        #[cfg(feature = "fault")]
        if let Some(kind) = injected {
            use crate::fault::FaultKind;
            match kind {
                FaultKind::Latency { ms } => std::thread::sleep(Duration::from_millis(ms)),
                FaultKind::ConnReset => {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        "injected fault: connection reset",
                    )));
                }
                FaultKind::ServerError { status } => {
                    return Ok(Response::error(Status(status), "injected fault"));
                }
                FaultKind::TruncateBody | FaultKind::CorruptBody => {}
            }
        }

        // Reused connection first; any failure there retries once on a
        // fresh one (the server may have closed it while idle).
        let resp = match self.pool.checkout(&url.authority) {
            Some(stream) => match self.exchange(stream, method, &url, &body, content_type) {
                Ok(resp) => Ok(resp),
                Err(_stale) => self.exchange_fresh(method, &url, &body, content_type),
            },
            None => self.exchange_fresh(method, &url, &body, content_type),
        }?;

        #[cfg(feature = "fault")]
        let resp = match injected {
            Some(crate::fault::FaultKind::TruncateBody) => {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "injected fault: truncated body",
                )));
            }
            Some(crate::fault::FaultKind::CorruptBody) => {
                let mut r = resp;
                crate::fault::corrupt_body(&mut r.body);
                r
            }
            _ => resp,
        };

        Ok(resp)
    }

    fn exchange_fresh(
        &self,
        method: Method,
        url: &Url,
        body: &[u8],
        content_type: Option<&str>,
    ) -> Result<Response, ClientError> {
        self.pool.note_fresh();
        let stream = self.connect(url)?;
        self.exchange(stream, method, url, body, content_type)
    }

    /// Opens a connection with the client's timeouts and `TCP_NODELAY`,
    /// which it keeps for its whole life, pooled or not.
    fn connect(&self, url: &Url) -> Result<TcpStream, ClientError> {
        let stream = TcpStream::connect(&url.authority)?;
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// One request/response on one connection; returns the socket to the
    /// pool when the response leaves it cleanly reusable.
    fn exchange(
        &self,
        stream: TcpStream,
        method: Method,
        url: &Url,
        body: &[u8],
        content_type: Option<&str>,
    ) -> Result<Response, ClientError> {
        let keep_alive = self.pool.max_per_host() > 0;
        let mut head = format!(
            "{} {} HTTP/1.1\r\nhost: {}\r\nconnection: {}\r\ncontent-length: {}\r\n",
            method.as_str(),
            url.path_and_query,
            url.authority,
            if keep_alive { "keep-alive" } else { "close" },
            body.len()
        );
        if let Some(ct) = content_type {
            head.push_str(&format!("content-type: {ct}\r\n"));
        }
        if let Some(auth) = &self.basic_auth {
            head.push_str(&format!("authorization: {}\r\n", auth.header_value()));
        }
        for (k, v) in &self.headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str("\r\n");
        (&stream).write_all(head.as_bytes())?;
        (&stream).write_all(body)?;
        (&stream).flush()?;

        let mut reader = BufReader::new(&stream);
        let (resp, framed) = read_response(&mut reader)?;
        let reusable = keep_alive
            && framed
            && reader.buffer().is_empty()
            && resp
                .header("connection")
                .map(|v| !v.eq_ignore_ascii_case("close"))
                .unwrap_or(true);
        drop(reader);
        if reusable {
            self.pool.checkin(&url.authority, stream);
        }
        Ok(resp)
    }
}

/// How a [`StreamingResponse`] body is framed.
enum BodyMode {
    /// `transfer-encoding: chunked`; decoded incrementally.
    Chunked,
    /// `content-length` remaining; delivered as one chunk.
    Length(usize),
    /// Unframed; read to EOF as one chunk.
    ToEof,
    /// Fully consumed.
    Done,
}

/// A response whose body is consumed incrementally — the read side of a
/// long-lived chunked stream (live query subscriptions, bus subscribes).
pub struct StreamingResponse {
    /// Status code.
    pub status: Status,
    /// Lower-cased header names to values.
    pub headers: BTreeMap<String, String>,
    reader: BufReader<TcpStream>,
    mode: BodyMode,
}

impl StreamingResponse {
    /// Gets a header by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(|s| s.as_str())
    }

    /// Reads the next body chunk, blocking until one arrives (bounded by
    /// the client's timeout). `Ok(None)` is the clean end of the stream.
    /// Non-chunked bodies (an error response shed with `content-length`,
    /// say) come back as a single chunk followed by `None`.
    pub fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, ClientError> {
        next_chunk(&mut self.reader, &mut self.mode)
    }

    /// Overrides the per-chunk read deadline (e.g. a live subscription
    /// expecting minutes of quiet between deltas).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }
}

/// Reads a status line + headers off a response.
fn read_head<R: BufRead>(
    reader: &mut R,
) -> Result<(Status, BTreeMap<String, String>), ClientError> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.trim_end().splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(ClientError::BadResponse(format!(
            "bad status line: {line:?}"
        )));
    }
    let code: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ClientError::BadResponse("missing status code".into()))?;

    let mut headers = BTreeMap::new();
    loop {
        let mut hline = String::new();
        if reader.read_line(&mut hline)? == 0 {
            return Err(ClientError::BadResponse("eof in headers".into()));
        }
        let hline = hline.trim_end();
        if hline.is_empty() {
            break;
        }
        if let Some((name, value)) = hline.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    Ok((Status(code), headers))
}

/// Reads a body of `n` bytes through `take(n)`: memory follows the bytes
/// that arrive, not the length the peer claims (the buffer starts at what
/// the reader already holds), and fewer than `n` before EOF is a
/// [`ClientError::BadResponse`].
fn read_body<R: BufRead>(reader: &mut R, n: usize) -> Result<Vec<u8>, ClientError> {
    if n == 0 {
        return Ok(Vec::new()); // nothing to wait for
    }
    let mut buf = Vec::with_capacity(n.min(reader.fill_buf()?.len()));
    reader.take(n as u64).read_to_end(&mut buf)?;
    if buf.len() < n {
        return Err(ClientError::BadResponse(format!(
            "body cut short: {} of {n} bytes",
            buf.len()
        )));
    }
    Ok(buf)
}

/// Reads one response. The `bool` is true when the body was framed by
/// `content-length` (a read-to-EOF body consumes the connection).
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<(Response, bool), ClientError> {
    let (status, headers) = read_head(reader)?;

    let (body, framed) = match headers.get("content-length") {
        Some(cl) => {
            let n: usize = cl
                .parse()
                .map_err(|_| ClientError::BadResponse("bad content-length".into()))?;
            (read_body(reader, n)?, true)
        }
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            (buf, false)
        }
    };

    Ok((
        Response {
            status,
            headers,
            body,
            stream: None,
        },
        framed,
    ))
}

/// Reads a streaming response as [`Client::get_stream`] and
/// [`StreamingResponse::next_chunk`] do: the head, then chunks until the
/// end of the stream.
pub fn read_stream<R: BufRead>(reader: &mut R) -> Result<Vec<Vec<u8>>, ClientError> {
    let (_, headers) = read_head(reader)?;
    let mut mode = body_mode(&headers)?;
    let mut chunks = Vec::new();
    while let Some(chunk) = next_chunk(reader, &mut mode)? {
        chunks.push(chunk);
    }
    Ok(chunks)
}

/// How a streaming response's body is framed, from its head.
fn body_mode(headers: &BTreeMap<String, String>) -> Result<BodyMode, ClientError> {
    let chunked = headers
        .get("transfer-encoding")
        .is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
    if chunked {
        return Ok(BodyMode::Chunked);
    }
    match headers.get("content-length") {
        Some(cl) => cl
            .parse()
            .map(BodyMode::Length)
            .map_err(|_| ClientError::BadResponse("bad content-length".into())),
        None => Ok(BodyMode::ToEof),
    }
}

/// [`StreamingResponse::next_chunk`] over any reader.
fn next_chunk<R: BufRead>(
    reader: &mut R,
    mode: &mut BodyMode,
) -> Result<Option<Vec<u8>>, ClientError> {
    match *mode {
        BodyMode::Done => Ok(None),
        BodyMode::Chunked => {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(ClientError::BadResponse("eof mid-stream".into()));
            }
            let size_str = line.trim().split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_str, 16)
                .map_err(|_| ClientError::BadResponse(format!("bad chunk size {line:?}")))?;
            if size == 0 {
                // Terminating chunk; consume the trailing CRLF.
                let mut end = String::new();
                let _ = reader.read_line(&mut end);
                *mode = BodyMode::Done;
                return Ok(None);
            }
            let buf = read_body(reader, size)?;
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
            Ok(Some(buf))
        }
        BodyMode::Length(n) => {
            let buf = read_body(reader, n)?;
            *mode = BodyMode::Done;
            Ok(Some(buf))
        }
        BodyMode::ToEof => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            *mode = BodyMode::Done;
            Ok(if buf.is_empty() { None } else { Some(buf) })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parsing() {
        let u = Url::parse("http://127.0.0.1:9090/api/v1/query?query=up").unwrap();
        assert_eq!(u.authority, "127.0.0.1:9090");
        assert_eq!(u.path_and_query, "/api/v1/query?query=up");

        let u = Url::parse("http://node1").unwrap();
        assert_eq!(u.authority, "node1:80");
        assert_eq!(u.path_and_query, "/");

        assert!(Url::parse("https://secure").is_err());
        assert!(Url::parse("ftp://x").is_err());
        assert!(Url::parse("http://").is_err());
    }

    #[test]
    fn clones_share_one_pool() {
        let a = Client::new();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.pool, &b.pool));
        let c = a.clone().with_pool_per_host(2);
        assert!(!Arc::ptr_eq(&a.pool, &c.pool));
        assert_eq!(c.pool.max_per_host(), 2);
    }
}
