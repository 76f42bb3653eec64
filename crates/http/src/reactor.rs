//! The leader/follower pool behind [`crate::server::HttpServer`] (S20).
//!
//! Thread model: `workers` threads wait in `epoll_wait` on one epoll
//! instance holding the listening socket, every connection and one
//! eventfd, and each takes one event at a time. Connections are registered
//! level-triggered and `EPOLLONESHOT`, so an event hands a connection to
//! exactly one thread. That thread takes the connection out of the table,
//! reads, parses, runs fault injection, auth and the handler, and writes
//! the response itself; a short write arms `EPOLLOUT`. It then serves any
//! pipelined request already buffered, puts the connection back and
//! re-arms it. The thread that reads a request answers it: a hop wakes one
//! server thread, then the caller. Handlers may block (the LB proxies
//! synchronously, the qfe queues under its scheduler); the other threads
//! go on serving. The thread count is `workers`, whatever the connection
//! count.
//!
//! The listening socket is one-shot too: the thread it wakes accepts a
//! batch and re-arms it. The eventfd wakes a thread to pump streaming
//! bodies whose writers queued chunks, and at shutdown to drain (each
//! thread that leaves posts it for the next). Timeouts are swept by
//! whichever thread finds the sweep due when its `epoll_wait` returns, a
//! timeout included.
//!
//! Correctness guards: a connection's epoll token is its fd and a
//! generation, and the table is keyed by the token, so an event for a
//! closed (and fd-reused) connection finds nothing; a connection out of
//! the table is worked by one thread, and nothing else (sweep, pump,
//! drain) touches it; it goes back into the table and is re-armed under
//! the table's lock, so no thread sees it armed and absent; a
//! `max_connections` gate sheds accepts before fd exhaustion; shutdown
//! drains in-flight requests (bounded by [`DRAIN_DEADLINE`]) before
//! closing.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::server::ServerConfig;
use crate::stream::BodyStream;
use crate::sys::{self, Epoll, EventFd};
use crate::types::{Method, Request, Response, Status};
use crate::url::{decode_component, parse_query};

/// How long shutdown waits for in-flight requests and unflushed responses
/// before force-closing what remains.
pub(crate) const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Cap on buffered request head bytes (request line + headers).
const MAX_HEAD_BYTES: usize = 64 << 10;

/// Cap on unflushed outbound bytes of a streaming connection before the
/// consumer is shed (closed) instead of buffering further (S23). Matches
/// the writer-side queue cap in [`crate::stream`].
const STREAM_OUT_CAP: usize = 4 << 20;

/// Epoll token of the listening socket.
const LISTENER: u64 = u64::MAX;
/// Epoll token of the wake eventfd. A connection's token is its
/// generation over its fd, and a fd never reaches these low words.
const WAKE: u64 = u64::MAX - 1;

/// How often the connection table is swept for timeouts.
const SWEEP_EVERY_MS: u64 = 100;

/// Connections accepted per listener wake-up before it is re-armed.
const ACCEPT_BATCH: usize = 64;

/// Bytes read off a socket per `read` call.
const READ_CHUNK: usize = 16 << 10;

type Handler = Arc<dyn Fn(Request) -> Response + Send + Sync>;

/// What the handler side decided for one request.
enum Action {
    /// Write this response; keep or close per `keep_alive`.
    Respond { resp: Response, keep_alive: bool },
    /// Drop the connection without a byte (injected connection reset).
    #[cfg_attr(not(feature = "fault"), allow(dead_code))]
    Close,
    /// Write a head advertising the full body length but cut the body
    /// short and close (injected truncation).
    #[cfg(feature = "fault")]
    Truncate { resp: Response },
}

struct Conn {
    stream: TcpStream,
    token: u64,
    /// Unparsed inbound bytes.
    buf: Vec<u8>,
    /// How far `buf` has been scanned for the head terminator.
    scanned: usize,
    /// Outbound bytes not yet accepted by the kernel.
    out: Vec<u8>,
    out_pos: usize,
    /// Close once `out` drains.
    close_after_flush: bool,
    /// Read side saw EOF; serve what is buffered, then close.
    peer_closed: bool,
    /// Requests served on this connection.
    served: usize,
    /// Last byte of progress in either direction.
    last_activity: Instant,
    /// Last read that brought bytes: a request's `received_at`.
    last_read: Instant,
    /// When the first byte of the current partial request arrived; bounds
    /// total header+body receive time (slowloris guard).
    req_started: Option<Instant>,
    /// An open chunked streaming response (S23): its queued chunks are
    /// written until the producer closes it, then the connection closes.
    body_stream: Option<BodyStream>,
}

impl Conn {
    fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// What to wait for next: room to write while output is pending (a
    /// hang-up is reported either way), else the next bytes or EOF.
    fn interest(&self) -> u32 {
        let want = if self.pending_out() > 0 {
            sys::EPOLLOUT
        } else {
            sys::EPOLLIN | sys::EPOLLRDHUP
        };
        want | sys::EPOLLONESHOT
    }

    /// Reads what the socket holds. `Err` means the connection is over
    /// (a socket error, or more buffered than one request may be).
    fn read_in(&mut self, chunk: &mut [u8], max_body: usize) -> Result<(), ()> {
        loop {
            match (&self.stream).read(chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    return Ok(());
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    let now = Instant::now();
                    self.last_activity = now;
                    self.last_read = now;
                    self.req_started.get_or_insert(now);
                    // Don't buffer unboundedly ahead of parsing: the cap is
                    // one head + one max body + one read chunk.
                    if self.buf.len() > MAX_HEAD_BYTES + max_body + chunk.len() {
                        return Err(());
                    }
                    if n < chunk.len() {
                        // Drained; level-triggered re-arming reports more.
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
    }

    /// Pushes pending output to the kernel: `Ok(true)` once it drained,
    /// `Ok(false)` when the socket is full (backpressure).
    fn flush(&mut self) -> std::io::Result<bool> {
        while self.out_pos < self.out.len() {
            match (&self.stream).write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(true)
    }

    /// Moves what the producer queued into `out`, chunk-encoded, ending
    /// with the terminating chunk once the producer closed. True when the
    /// unflushed backlog passed [`STREAM_OUT_CAP`]: the consumer can't keep
    /// up and is shed.
    fn pump(&mut self) -> bool {
        let Some(stream) = &self.body_stream else {
            return false;
        };
        let (chunks, closed) = stream.take_chunks();
        for chunk in chunks.iter().filter(|c| !c.is_empty()) {
            encode_chunk(&mut self.out, chunk);
        }
        if closed {
            self.out.extend_from_slice(b"0\r\n\r\n");
            self.body_stream = None;
            self.close_after_flush = true;
        }
        if !chunks.is_empty() || closed {
            self.last_activity = Instant::now();
        }
        self.pending_out() > STREAM_OUT_CAP
    }

    /// Past a deadline: a stalled response write (the consumer stopped
    /// reading) or, outside a stream, a request trickling in for longer
    /// than `read` or a keep-alive quiet for longer than `idle`. A quiet
    /// stream is legitimate (live queries idle between deltas).
    fn expired(&self, now: Instant, read: Duration, idle: Duration) -> bool {
        let quiet = now.duration_since(self.last_activity);
        let stalled_write = self.pending_out() > 0 && quiet > read;
        if self.body_stream.is_some() {
            return stalled_write;
        }
        let slow_request = self
            .req_started
            .is_some_and(|t| now.duration_since(t) > read);
        stalled_write || slow_request || quiet > idle
    }
}

/// One server's shared state: the epoll instance every thread waits on,
/// and the connections not being worked.
pub(crate) struct Pool {
    epoll: Epoll,
    listener: TcpListener,
    wake: EventFd,
    config: ServerConfig,
    handler: Handler,
    conns: Mutex<HashMap<u64, Conn>>,
    /// Tokens of streaming connections whose producers queued since the
    /// last pump.
    ready: Mutex<Vec<u64>>,
    active: AtomicUsize,
    next_gen: AtomicU32,
    stop: AtomicBool,
    started: Instant,
    /// Milliseconds after `started` when the next sweep is due.
    next_sweep_ms: AtomicU64,
    drain_deadline: OnceLock<Instant>,
}

impl Pool {
    pub(crate) fn new(
        listener: TcpListener,
        config: ServerConfig,
        handler: Handler,
    ) -> std::io::Result<Arc<Pool>> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let wake = EventFd::new()?;
        epoll.add(wake.fd(), sys::EPOLLIN | sys::EPOLLONESHOT, WAKE)?;
        epoll.add(
            listener.as_raw_fd(),
            sys::EPOLLIN | sys::EPOLLONESHOT,
            LISTENER,
        )?;
        Ok(Arc::new(Pool {
            epoll,
            listener,
            wake,
            config,
            handler,
            conns: Mutex::new(HashMap::new()),
            ready: Mutex::new(Vec::new()),
            active: AtomicUsize::new(0),
            next_gen: AtomicU32::new(0),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            next_sweep_ms: AtomicU64::new(SWEEP_EVERY_MS),
            drain_deadline: OnceLock::new(),
        }))
    }

    pub(crate) fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Stops accepting and wakes a thread to drain.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.epoll.delete(self.listener.as_raw_fd());
        self.wake.notify();
    }

    /// One server thread: waits for one event at a time and works it,
    /// until shutdown has drained.
    pub(crate) fn run(self: Arc<Pool>) {
        let mut events = [sys::epoll_event { events: 0, u64: 0 }; 1];
        let mut chunk = vec![0u8; READ_CHUNK];
        loop {
            let timeout = if self.stop.load(Ordering::Acquire) {
                10
            } else {
                SWEEP_EVERY_MS as i32
            };
            if self.epoll.wait(&mut events, timeout).unwrap_or(0) == 1 {
                let ev = events[0];
                match ev.u64 {
                    LISTENER => self.accept(),
                    WAKE => self.pump_ready(),
                    token => {
                        let conn = self.conns.lock().remove(&token);
                        if let Some(conn) = conn {
                            self.work(conn, ev.events, &mut chunk);
                        }
                    }
                }
            }
            self.sweep_if_due();
            if self.stop.load(Ordering::Acquire) && self.drain() {
                self.wake.notify(); // the next thread leaves too
                return;
            }
        }
    }

    /// Accepts a batch of connections, then re-arms the listener.
    fn accept(self: &Arc<Pool>) {
        for _ in 0..ACCEPT_BATCH {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => self.adopt(stream),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        let _ = self.epoll.modify(
            self.listener.as_raw_fd(),
            sys::EPOLLIN | sys::EPOLLONESHOT,
            LISTENER,
        );
    }

    /// Guards `max_connections`, sets the socket up (non-blocking +
    /// `TCP_NODELAY`) and registers it.
    fn adopt(&self, stream: TcpStream) {
        if self.active.load(Ordering::Relaxed) >= self.config.max_connections {
            return; // shed before fd exhaustion
        }
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let gen = self.next_gen.fetch_add(1, Ordering::Relaxed);
        let fd = stream.as_raw_fd();
        let token = (u64::from(gen) << 32) | u64::from(fd as u32);
        let now = Instant::now();
        let conn = Conn {
            stream,
            token,
            buf: Vec::new(),
            scanned: 0,
            out: Vec::new(),
            out_pos: 0,
            close_after_flush: false,
            peer_closed: false,
            served: 0,
            last_activity: now,
            last_read: now,
            req_started: None,
            body_stream: None,
        };
        self.active.fetch_add(1, Ordering::Relaxed);
        let interest = conn.interest();
        let mut conns = self.conns.lock();
        conns.insert(token, conn);
        if self.epoll.add(fd, interest, token).is_err() {
            let conn = conns.remove(&token);
            drop(conns);
            if let Some(conn) = conn {
                self.close(conn);
            }
        }
    }

    /// Works one connection an event handed to this thread.
    fn work(self: &Arc<Pool>, mut conn: Conn, bits: u32, chunk: &mut [u8]) {
        if bits & sys::EPOLLERR != 0 {
            return self.close(conn);
        }
        if bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0
            && conn.read_in(chunk, self.config.max_body_bytes).is_err()
        {
            return self.close(conn);
        }
        self.serve(conn);
    }

    /// Writes what is pending, then answers buffered requests one after
    /// another until one is incomplete or the socket is full; puts the
    /// connection back unless it is done.
    fn serve(self: &Arc<Pool>, mut conn: Conn) {
        loop {
            if conn.body_stream.is_some() {
                // A subscriber that closed its read side is done consuming
                // the stream; tear the connection down so the producer
                // sees it.
                if conn.peer_closed || conn.pump() {
                    return self.close(conn);
                }
            }
            match conn.flush() {
                Ok(true) => {}
                Ok(false) => break, // backpressure: wait for EPOLLOUT
                Err(_) => return self.close(conn),
            }
            if conn.close_after_flush {
                return self.close(conn);
            }
            if conn.body_stream.is_some() || self.stop.load(Ordering::Acquire) {
                break;
            }
            match parse_request(&mut conn.buf, &mut conn.scanned, self.config.max_body_bytes) {
                Parse::Incomplete => {
                    if conn.buf.is_empty() {
                        conn.req_started = None;
                    }
                    if conn.peer_closed {
                        // EOF with nothing runnable: a clean close or an
                        // abandoned partial request.
                        return self.close(conn);
                    }
                    break;
                }
                Parse::Bad(msg) => {
                    let resp = Response::error(Status::BAD_REQUEST, format!("bad request: {msg}"));
                    serialize_response(&mut conn.out, &resp, false);
                    conn.close_after_flush = true;
                }
                Parse::Done(mut req) => {
                    req.received_at = Some(conn.last_read);
                    conn.served += 1;
                    conn.req_started = (!conn.buf.is_empty()).then(Instant::now);
                    let action = run_request(req, &self.config, self.handler.as_ref());
                    conn.last_activity = Instant::now();
                    if !self.apply(&mut conn, action) {
                        return self.close(conn);
                    }
                }
            }
        }
        self.release(conn);
    }

    /// Queues the handler's outcome on the connection; false when the
    /// connection is to be dropped without a byte.
    fn apply(self: &Arc<Pool>, conn: &mut Conn, action: Action) -> bool {
        match action {
            Action::Respond { resp, keep_alive } => match &resp.stream {
                Some(body) => {
                    // Chunked head now; the body follows as the producer
                    // queues it. The connection closes at stream end, so
                    // keep_alive is moot.
                    serialize_stream_head(&mut conn.out, &resp);
                    let pool = Arc::downgrade(self);
                    let token = conn.token;
                    body.set_waker(Arc::new(move || {
                        if let Some(pool) = Weak::upgrade(&pool) {
                            pool.mark_ready(token);
                        }
                    }));
                    conn.body_stream = Some(body.clone());
                }
                None => {
                    serialize_response(&mut conn.out, &resp, keep_alive);
                    if !keep_alive || conn.served >= self.config.max_requests_per_conn {
                        conn.close_after_flush = true;
                    }
                }
            },
            Action::Close => return false,
            #[cfg(feature = "fault")]
            Action::Truncate { resp } => {
                serialize_truncated(&mut conn.out, &resp);
                conn.close_after_flush = true;
            }
        }
        true
    }

    /// Puts a worked connection back and re-arms it, both under the
    /// table's lock. A stream whose producer queued while it was out of
    /// the table is marked ready: its wake found nothing to pump.
    fn release(&self, conn: Conn) {
        if self.stop.load(Ordering::Acquire)
            && (conn.body_stream.is_some() || conn.pending_out() == 0)
        {
            return self.close(conn);
        }
        let (fd, token, interest) = (conn.fd(), conn.token, conn.interest());
        let body = conn.body_stream.clone();
        let mut conns = self.conns.lock();
        conns.insert(token, conn);
        if self.epoll.modify(fd, interest, token).is_err() {
            let conn = conns.remove(&token);
            drop(conns);
            if let Some(conn) = conn {
                self.close(conn);
            }
            return;
        }
        drop(conns);
        if body.is_some_and(|b| b.has_pending()) {
            self.mark_ready(token);
        }
    }

    /// A producer queued on the streaming connection `token`: one post
    /// wakes a thread to pump, however many queue before it runs.
    fn mark_ready(&self, token: u64) {
        let mut ready = self.ready.lock();
        ready.push(token);
        if ready.len() == 1 {
            self.wake.notify();
        }
    }

    /// Drains and re-arms the eventfd, then pumps every ready stream
    /// still in the table; one out of it is pumped when its worker
    /// releases it. The eventfd is one-shot like everything else in the
    /// set: a level-triggered one would wake waiter after waiter until
    /// its counter is read.
    fn pump_ready(self: &Arc<Pool>) {
        self.wake.drain();
        let _ = self
            .epoll
            .modify(self.wake.fd(), sys::EPOLLIN | sys::EPOLLONESHOT, WAKE);
        let mut tokens = std::mem::take(&mut *self.ready.lock());
        tokens.sort_unstable();
        tokens.dedup();
        for token in tokens {
            let conn = self.conns.lock().remove(&token);
            if let Some(conn) = conn {
                self.serve(conn);
            }
        }
    }

    /// Closes connections past their deadlines, when a sweep is due.
    fn sweep_if_due(&self) {
        let now_ms = self.started.elapsed().as_millis() as u64;
        let due = self.next_sweep_ms.load(Ordering::Relaxed);
        if now_ms < due
            || self
                .next_sweep_ms
                .compare_exchange(
                    due,
                    now_ms + SWEEP_EVERY_MS,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_err()
        {
            return;
        }
        let now = Instant::now();
        let (read, idle) = (self.config.read_timeout, self.config.idle_timeout);
        self.close_where(|c| c.expired(now, read, idle));
    }

    /// At stop: closes idle and streaming connections at once (streams are
    /// unbounded; the producer sees the abort), keeps ones still flushing
    /// until they finish or the drain deadline passes. True when this
    /// thread may exit: nothing is left open, or the deadline passed.
    fn drain(&self) -> bool {
        let deadline = *self
            .drain_deadline
            .get_or_init(|| Instant::now() + DRAIN_DEADLINE);
        let past = Instant::now() >= deadline;
        self.close_where(|c| past || c.body_stream.is_some() || c.pending_out() == 0);
        past || self.active() == 0
    }

    /// Closes every connection in the table that `doomed` picks.
    fn close_where(&self, doomed: impl Fn(&Conn) -> bool) {
        let closing: Vec<Conn> = {
            let mut conns = self.conns.lock();
            let tokens: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| doomed(c))
                .map(|(t, _)| *t)
                .collect();
            tokens.iter().filter_map(|t| conns.remove(t)).collect()
        };
        for conn in closing {
            self.close(conn);
        }
    }

    /// Closes an owned connection. Closing the socket takes it out of the
    /// epoll set: its fd is never duplicated.
    fn close(&self, conn: Conn) {
        if let Some(stream) = &conn.body_stream {
            stream.abort(); // producer observes the disconnect
        }
        drop(conn);
        self.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Fault injection → auth → handler. Seeded chaos schedules were written
/// against this order (a fault is decided before auth), so they replay
/// the same fault trace.
fn run_request(
    req: Request,
    config: &ServerConfig,
    handler: &(dyn Fn(Request) -> Response + Send + Sync),
) -> Action {
    let keep_alive = req
        .header("connection")
        .map(|v| !v.eq_ignore_ascii_case("close"))
        .unwrap_or(true);

    #[cfg(feature = "fault")]
    let injected = config.fault.as_ref().and_then(|plan| plan.decide(&req.path));
    #[cfg(feature = "fault")]
    if let Some(kind) = injected {
        use crate::fault::FaultKind;
        match kind {
            FaultKind::Latency { ms } => std::thread::sleep(Duration::from_millis(ms)),
            FaultKind::ConnReset => return Action::Close,
            FaultKind::ServerError { status } => {
                return Action::Respond {
                    resp: Response::error(Status(status), "injected fault"),
                    keep_alive,
                };
            }
            FaultKind::TruncateBody | FaultKind::CorruptBody => {}
        }
    }

    let resp = if let Some(auth) = &config.basic_auth {
        if auth.verify(req.header("authorization")) {
            handler(req)
        } else {
            Response::error(Status::UNAUTHORIZED, "authentication required")
                .with_header("www-authenticate", "Basic realm=\"ceems\"")
        }
    } else {
        handler(req)
    };

    #[cfg(feature = "fault")]
    let resp = match injected {
        Some(crate::fault::FaultKind::TruncateBody) => {
            return Action::Truncate { resp };
        }
        Some(crate::fault::FaultKind::CorruptBody) => {
            let mut r = resp;
            crate::fault::corrupt_body(&mut r.body);
            r
        }
        _ => resp,
    };

    Action::Respond { resp, keep_alive }
}

/// Incremental parse outcome.
pub enum Parse {
    /// More bytes are needed.
    Incomplete,
    /// One request, its bytes consumed.
    Done(Request),
    /// Malformed: the server answers 400 and closes.
    Bad(&'static str),
}

/// Finds the end of the request head (index one past the blank line),
/// accepting both CRLF and bare-LF line endings like the `read_line`-based
/// parser did. `scanned` persists progress across partial reads.
fn find_head_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    let start = scanned.saturating_sub(3);
    let mut i = start;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if buf.get(i + 1) == Some(&b'\n') {
                *scanned = 0;
                return Some(i + 2);
            }
            if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                *scanned = 0;
                return Some(i + 3);
            }
        }
        i += 1;
    }
    *scanned = buf.len();
    None
}

/// Parses one request off the front of `buf`, consuming its bytes when
/// complete. Semantics mirror the blocking server's `read_request`: same
/// tolerated forms, same error strings.
pub fn parse_request(buf: &mut Vec<u8>, scanned: &mut usize, max_body: usize) -> Parse {
    let Some(head_end) = find_head_end(buf, scanned) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Parse::Bad("request head too large");
        }
        return Parse::Incomplete;
    };
    if head_end > MAX_HEAD_BYTES {
        return Parse::Bad("request head too large");
    }
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split('\n').map(|l| l.trim_end());
    let line = lines.next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let Some(method) = parts.next().and_then(Method::parse) else {
        return Parse::Bad("unsupported method");
    };
    let Some(target) = parts.next() else {
        return Parse::Bad("missing request target");
    };
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Parse::Bad("unsupported HTTP version");
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut req = Request {
        method,
        path: decode_component(raw_path),
        query: parse_query(raw_query),
        headers: Default::default(),
        body: Vec::new(),
        path_params: Default::default(),
        // Stamped at parse completion (socket readability side); handlers
        // and instruments measure from dispatch and treat the difference as
        // queue delay.
        received_at: Some(std::time::Instant::now()),
    };
    for hline in lines {
        if hline.is_empty() {
            break;
        }
        let Some((name, value)) = hline.split_once(':') else {
            return Parse::Bad("malformed header");
        };
        req.headers
            .insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }

    let body_len = match req.headers.get("content-length") {
        Some(cl) => match cl.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Parse::Bad("bad content-length"),
        },
        None => 0,
    };
    if body_len > max_body {
        return Parse::Bad("body too large");
    }
    if buf.len() < head_end + body_len {
        return Parse::Incomplete; // mid-body; wait for more bytes
    }
    req.body = buf[head_end..head_end + body_len].to_vec();
    buf.drain(..head_end + body_len);
    *scanned = 0;
    Parse::Done(req)
}

/// Serializes a response exactly as the blocking server's `write_response`
/// did: status line, `content-length`, `connection`, then the response's
/// own headers (BTreeMap order) minus those two, blank line, body.
pub(crate) fn serialize_response(out: &mut Vec<u8>, resp: &Response, keep_alive: bool) {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        resp.status.0,
        resp.status.reason(),
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
    out.extend_from_slice(head.as_bytes());
    for (k, v) in &resp.headers {
        if k != "content-length" && k != "connection" {
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&resp.body);
}

/// Serializes the head of a streaming response: no `content-length`,
/// `transfer-encoding: chunked`, and `connection: close` — a stream's end
/// is the connection's end, so it never returns to keep-alive rotation.
fn serialize_stream_head(out: &mut Vec<u8>, resp: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\ntransfer-encoding: chunked\r\nconnection: close\r\n",
        resp.status.0,
        resp.status.reason(),
    );
    out.extend_from_slice(head.as_bytes());
    for (k, v) in &resp.headers {
        if k != "content-length" && k != "connection" && k != "transfer-encoding" {
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
    }
    out.extend_from_slice(b"\r\n");
}

/// Appends one HTTP/1.1 chunk (`<hex len>\r\n<data>\r\n`).
fn encode_chunk(out: &mut Vec<u8>, data: &[u8]) {
    out.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// Serializes the truncated-body fault: full `content-length`, short body.
#[cfg(feature = "fault")]
fn serialize_truncated(out: &mut Vec<u8>, resp: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        resp.status.0,
        resp.status.reason(),
        resp.body.len()
    );
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(&resp.body[..crate::fault::truncated_len(resp.body.len())]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8], max_body: usize) -> (Vec<Request>, Option<&'static str>) {
        let mut buf = bytes.to_vec();
        let mut scanned = 0;
        let mut out = Vec::new();
        loop {
            match parse_request(&mut buf, &mut scanned, max_body) {
                Parse::Done(r) => out.push(r),
                Parse::Incomplete => return (out, None),
                Parse::Bad(m) => return (out, Some(m)),
            }
        }
    }

    #[test]
    fn parses_simple_get() {
        let (reqs, err) = parse_all(b"GET /ping?x=1 HTTP/1.1\r\nhost: a\r\n\r\n", 1024);
        assert!(err.is_none());
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].path, "/ping");
        assert_eq!(reqs[0].query_param("x"), Some("1"));
        assert_eq!(reqs[0].header("host"), Some("a"));
    }

    #[test]
    fn parses_lf_only_requests() {
        let (reqs, err) = parse_all(b"GET /p HTTP/1.1\nhost: a\n\n", 1024);
        assert!(err.is_none());
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].path, "/p");
    }

    #[test]
    fn parses_pipelined_requests_and_bodies() {
        let bytes = b"POST /a HTTP/1.1\r\ncontent-length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n";
        let (reqs, err) = parse_all(bytes, 1024);
        assert!(err.is_none());
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].body, b"abc");
        assert_eq!(reqs[1].path, "/b");
    }

    #[test]
    fn incremental_split_points_all_succeed() {
        let bytes: &[u8] = b"POST /a?q=2 HTTP/1.1\r\nhost: x\r\ncontent-length: 5\r\n\r\nhello";
        for split in 0..bytes.len() {
            let mut buf = bytes[..split].to_vec();
            let mut scanned = 0;
            match parse_request(&mut buf, &mut scanned, 64) {
                Parse::Incomplete => {}
                Parse::Done(_) => panic!("complete at split {split}"),
                Parse::Bad(m) => panic!("bad at split {split}: {m}"),
            }
            buf.extend_from_slice(&bytes[split..]);
            match parse_request(&mut buf, &mut scanned, 64) {
                Parse::Done(r) => {
                    assert_eq!(r.body, b"hello");
                    assert_eq!(r.query_param("q"), Some("2"));
                }
                _ => panic!("expected completion after split {split}"),
            }
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn rejects_mirror_blocking_server_messages() {
        let (_, err) = parse_all(b"PATCH /x HTTP/1.1\r\n\r\n", 1024);
        assert_eq!(err, Some("unsupported method"));
        let (_, err) = parse_all(b"GET\r\n\r\n", 1024);
        assert_eq!(err, Some("missing request target"));
        let (_, err) = parse_all(b"GET /x SPDY/3\r\n\r\n", 1024);
        assert_eq!(err, Some("unsupported HTTP version"));
        let (_, err) = parse_all(b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n", 1024);
        assert_eq!(err, Some("malformed header"));
        let (_, err) = parse_all(b"GET /x HTTP/1.1\r\ncontent-length: qq\r\n\r\n", 1024);
        assert_eq!(err, Some("bad content-length"));
        let (_, err) = parse_all(b"GET /x HTTP/1.1\r\ncontent-length: 99\r\n\r\n", 8);
        assert_eq!(err, Some("body too large"));
    }

    #[test]
    fn serialization_matches_blocking_format() {
        let resp = Response::text("ok").with_header("x-a", "b");
        let mut out = Vec::new();
        serialize_response(&mut out, &resp, true);
        let s = String::from_utf8(out).unwrap();
        assert_eq!(
            s,
            "HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: keep-alive\r\ncontent-type: text/plain; charset=utf-8\r\nx-a: b\r\n\r\nok"
        );
    }
}
