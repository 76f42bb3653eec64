//! The server pool under concurrency: a connection is worked by one thread
//! at a time, so pipelined answers come back in order and to the request
//! that asked; a handler that blocks holds only its own thread; and a
//! request that arrives while every thread is blocked waits in the epoll
//! set until one frees.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ceems_http::{HttpServer, Response, Router, ServerConfig};

/// One keep-alive connection with a buffered reader on its read side.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(server: &HttpServer) -> Conn {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Conn { stream, reader }
    }

    /// Reads one content-length-framed response's body.
    fn read_body(&mut self) -> Vec<u8> {
        let mut content_length = None;
        loop {
            let mut line = String::new();
            assert!(
                self.reader.read_line(&mut line).unwrap() > 0,
                "eof mid-head"
            );
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.strip_prefix("content-length: ") {
                content_length = Some(v.parse::<usize>().unwrap());
            }
        }
        let mut body = vec![0; content_length.expect("content-length")];
        self.reader.read_exact(&mut body).unwrap();
        body
    }
}

/// A seeded xorshift: each client thread draws its own schedule.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

#[test]
fn pipelined_answers_match_their_requests_across_threads_and_reconnects() {
    let mut router = Router::new();
    router.get("/id/:id", |req| {
        let id: u64 = req.path_param("id").unwrap().parse().unwrap();
        // Answers take different times, so threads overtake each other.
        std::thread::sleep(Duration::from_micros(id % 4 * 50));
        Response::text(format!("id={id}"))
    });
    router.post("/echo/:id", |req| {
        let mut body = format!("id={} ", req.path_param("id").unwrap()).into_bytes();
        body.extend_from_slice(&req.body);
        Response::text(String::from_utf8(body).unwrap())
    });
    let server = HttpServer::serve(ServerConfig::ephemeral().with_workers(3), router).unwrap();

    std::thread::scope(|s| {
        for t in 0..4u64 {
            let server = &server;
            s.spawn(move || {
                let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (t + 1));
                let mut conns: Vec<Conn> = (0..3).map(|_| Conn::open(server)).collect();
                let mut next_id = t * 1_000_000;
                let mut answered = 0;
                for _ in 0..150 {
                    let c = rng.below(conns.len() as u64) as usize;
                    if rng.below(10) == 0 {
                        conns[c] = Conn::open(server); // the old one drops
                    }
                    let conn = &mut conns[c];
                    // A burst of 1..=4 requests in one write, GETs and POSTs.
                    let mut burst = Vec::new();
                    let mut want = Vec::new();
                    for _ in 0..=rng.below(4) {
                        next_id += 1;
                        if rng.below(2) == 0 {
                            write!(burst, "GET /id/{next_id} HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
                            want.push(format!("id={next_id}"));
                        } else {
                            let payload = "p".repeat(rng.below(64) as usize);
                            write!(
                                burst,
                                "POST /echo/{next_id} HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{payload}",
                                payload.len()
                            )
                            .unwrap();
                            want.push(format!("id={next_id} {payload}"));
                        }
                    }
                    conn.stream.write_all(&burst).unwrap();
                    for w in want {
                        assert_eq!(String::from_utf8(conn.read_body()).unwrap(), w);
                        answered += 1;
                    }
                }
                assert!(answered >= 150);
            });
        }
    });
    server.shutdown();
}

/// A server whose `/block` handler reports that it started, then waits to
/// be released; `/ping` answers at once.
fn blocking_server(workers: usize) -> (HttpServer, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let entered_tx = Mutex::new(entered_tx);
    let release_rx = Arc::new(Mutex::new(release_rx));
    let mut router = Router::new();
    router.get("/block", move |_| {
        entered_tx.lock().unwrap().send(()).unwrap();
        release_rx.lock().unwrap().recv().unwrap();
        Response::text("released")
    });
    router.get("/ping", |_| Response::text("pong"));
    let server =
        HttpServer::serve(ServerConfig::ephemeral().with_workers(workers), router).unwrap();
    (server, entered_rx, release_tx)
}

fn send(conn: &mut Conn, path: &str) {
    write!(conn.stream, "GET {path} HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
}

#[test]
fn a_blocked_handler_does_not_stall_another_connection() {
    let (server, entered, release) = blocking_server(2);
    let mut blocked = Conn::open(&server);
    send(&mut blocked, "/block");
    entered
        .recv_timeout(Duration::from_secs(5))
        .expect("handler entered");

    // One thread is held by the handler; the other serves a second
    // connection, however long the first stays blocked.
    let mut other = Conn::open(&server);
    for _ in 0..3 {
        let started = Instant::now();
        send(&mut other, "/ping");
        assert_eq!(other.read_body(), b"pong");
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    release.send(()).unwrap();
    assert_eq!(blocked.read_body(), b"released");
    server.shutdown();
}

#[test]
fn with_every_worker_blocked_a_queued_request_is_served_once_one_frees() {
    let (server, entered, release) = blocking_server(2);
    let mut blocked: Vec<Conn> = (0..2).map(|_| Conn::open(&server)).collect();
    for conn in &mut blocked {
        send(conn, "/block");
        entered
            .recv_timeout(Duration::from_secs(5))
            .expect("handler entered");
    }

    // Both threads are in handlers: the ping waits, unanswered.
    let mut queued = Conn::open(&server);
    send(&mut queued, "/ping");
    queued
        .stream
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut probe = [0u8; 1];
    match queued.reader.get_mut().read(&mut probe) {
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) => {}
        other => panic!("answered while every worker was blocked: {other:?}"),
    }

    // Freeing one thread serves it.
    release.send(()).unwrap();
    queued
        .stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(queued.read_body(), b"pong");
    release.send(()).unwrap();
    for conn in &mut blocked {
        assert_eq!(conn.read_body(), b"released");
    }
    server.shutdown();
}
