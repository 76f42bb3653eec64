//! Edge-case integration tests for the epoll reactor (S20): partial
//! reads, pipelining, slowloris, shutdown drain, connection guard, and
//! client-side keep-alive pooling — all over raw sockets where the shape
//! of the bytes on the wire matters.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ceems_http::server::{HttpServer, ServerConfig};
use ceems_http::types::{Response, Status};
use ceems_http::{Client, Router};

fn echo_server(config: ServerConfig) -> HttpServer {
    let mut router = Router::new();
    router.get("/ping", |_req| Response::text("pong"));
    router.post("/echo", |req| {
        Response::status(Status::OK)
            .with_header("content-type", "application/octet-stream")
            .with_body(req.body.clone())
    });
    HttpServer::serve(config, router).expect("serve")
}

fn test_config() -> ServerConfig {
    ServerConfig::ephemeral().with_workers(2)
}

/// Reads exactly one HTTP/1.1 response (head + content-length body) off a
/// raw socket, tolerating arbitrary segmentation. It reads no byte past
/// the response: pipelined responses can share a segment, and the next one
/// must stay on the socket for the next call.
fn read_one_response(stream: &mut TcpStream) -> (String, Vec<u8>) {
    let mut head = Vec::new();
    while !head.ends_with(b"\r\n\r\n") {
        let mut byte = [0u8; 1];
        let n = stream.read(&mut byte).expect("read head");
        assert!(n > 0, "eof before response head completed: {head:?}");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).unwrap();
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .expect("content-length header")
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0; content_length];
    stream.read_exact(&mut body).expect("read body");
    (head, body)
}

/// Asserts that the server wrote nothing after the last response read:
/// within a short wait the socket has no byte for us (a timeout).
fn assert_nothing_follows(stream: &mut TcpStream) {
    use std::io::ErrorKind::{TimedOut, WouldBlock};
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut probe = [0u8; 16];
    match stream.read(&mut probe) {
        Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => {}
        Ok(n) => panic!("{n} bytes after the response: {:?}", &probe[..n]),
        Err(e) => panic!("unexpected error after the response: {e}"),
    }
    stream.set_read_timeout(None).unwrap();
}

#[test]
fn partial_reads_split_mid_header_and_mid_body() {
    let server = echo_server(test_config());
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_nodelay(true).unwrap();

    // Dribble a POST in five fragments, splitting inside the request line,
    // inside a header name, at the head/body boundary, and inside the body.
    let fragments: [&[u8]; 5] = [
        b"POST /ec",
        b"ho HTTP/1.1\r\nhost: x\r\nconte",
        b"nt-length: 11\r\n\r\n",
        b"hello ",
        b"world",
    ];
    for frag in fragments {
        s.write_all(frag).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    let (head, body) = read_one_response(&mut s);
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "head: {head}");
    assert_eq!(body, b"hello world");
    assert_nothing_follows(&mut s);
    server.shutdown();
}

#[test]
fn pipelined_requests_answered_in_order_on_one_socket() {
    let server = echo_server(test_config());
    let mut s = TcpStream::connect(server.addr()).unwrap();

    // Three requests in a single write: two GETs and a POST.
    let burst = b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n\
POST /echo HTTP/1.1\r\nhost: x\r\ncontent-length: 3\r\n\r\nabc\
GET /ping HTTP/1.1\r\nhost: x\r\n\r\n";
    s.write_all(burst).unwrap();

    let (h1, b1) = read_one_response(&mut s);
    let (h2, b2) = read_one_response(&mut s);
    let (h3, b3) = read_one_response(&mut s);
    assert!(h1.starts_with("HTTP/1.1 200"), "h1: {h1}");
    assert_eq!(b1, b"pong");
    assert!(h2.starts_with("HTTP/1.1 200"), "h2: {h2}");
    assert_eq!(b2, b"abc", "pipelined responses must stay in order");
    assert!(h3.starts_with("HTTP/1.1 200"), "h3: {h3}");
    assert_eq!(b3, b"pong");
    assert_nothing_follows(&mut s);
    server.shutdown();
}

#[test]
fn slowloris_trickled_headers_hit_request_deadline() {
    let server = echo_server(
        test_config()
            .with_read_timeout(Duration::from_millis(400))
            .with_idle_timeout(Duration::from_millis(400)),
    );
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_millis(200))).unwrap();

    // Never finish the head: one byte every 100 ms keeps per-read activity
    // fresh, so only a *total* per-request deadline can kill this.
    let head = b"GET /ping HTTP/1.1\r\nx-slow: ";
    let start = Instant::now();
    let mut closed = false;
    for (i, byte) in head.iter().cycle().enumerate() {
        if s.write_all(std::slice::from_ref(byte)).and_then(|_| s.flush()).is_err() {
            closed = true;
            break;
        }
        // A read observing EOF (Ok(0)) also proves the server gave up.
        let mut probe = [0u8; 16];
        match s.read(&mut probe) {
            Ok(0) => {
                closed = true;
                break;
            }
            Ok(_) => panic!("server responded to an incomplete request"),
            Err(_) => {} // read timeout: connection still open, keep trickling
        }
        std::thread::sleep(Duration::from_millis(100));
        assert!(i < 100, "server never enforced the request deadline");
    }
    assert!(closed, "trickled connection should have been closed");
    assert!(
        start.elapsed() >= Duration::from_millis(300),
        "closed suspiciously fast — before the deadline could have fired"
    );
    server.shutdown();
}

#[test]
fn idle_keep_alive_connection_reaped_after_timeout() {
    let server = echo_server(test_config().with_idle_timeout(Duration::from_millis(300)));
    let mut s = TcpStream::connect(server.addr()).unwrap();

    // One complete request proves the connection works...
    s.write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
    let (_, body) = read_one_response(&mut s);
    assert_eq!(body, b"pong");

    // ...then it sits idle past the timeout and the server closes it.
    s.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let mut probe = [0u8; 16];
    let n = s.read(&mut probe).expect("expected clean EOF, not timeout");
    assert_eq!(n, 0, "idle connection should see EOF, got {n} bytes");
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let mut router = Router::new();
    router.get("/slow", |_req| {
        std::thread::sleep(Duration::from_millis(400));
        Response::text("done")
    });
    let server = HttpServer::serve(test_config(), router).unwrap();
    let url = format!("{}/slow", server.base_url());

    let t = std::thread::spawn(move || Client::new().get(&url));
    // Let the request reach the handler, then shut down around it.
    std::thread::sleep(Duration::from_millis(120));
    server.shutdown();

    let resp = t.join().unwrap().expect("in-flight request must drain");
    assert_eq!(resp.status, Status::OK);
    assert_eq!(resp.body, b"done");
}

#[test]
fn max_connections_guard_sheds_excess_sockets() {
    let server = echo_server(test_config().with_max_connections(2));

    // Two established, verified-working connections occupy the budget.
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        let (_, body) = read_one_response(&mut s);
        assert_eq!(body, b"pong");
        assert_nothing_follows(&mut s);
        held.push(s);
    }
    assert_eq!(server.active_connections(), 2);

    // The third is accepted and immediately closed without service.
    let mut s3 = TcpStream::connect(server.addr()).unwrap();
    s3.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let _ = s3.write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n");
    let mut probe = [0u8; 16];
    match s3.read(&mut probe) {
        Ok(0) => {}                                       // clean EOF: shed
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {} // RST: shed
        Ok(n) => panic!("over-limit connection was served ({n} bytes)"),
        Err(e) => panic!("unexpected error on shed connection: {e}"),
    }

    // Freeing a slot lets a new connection in.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let mut s4 = TcpStream::connect(server.addr()).unwrap();
        s4.write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        s4.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
        let mut chunk = [0u8; 1024];
        match s4.read(&mut chunk) {
            Ok(n) if n > 0 => break, // served again
            _ => assert!(
                Instant::now() < deadline,
                "slot never freed after closing a held connection"
            ),
        }
    }
    server.shutdown();
}

#[test]
fn client_pool_reuses_connections_across_requests() {
    let server = echo_server(test_config());
    let url = format!("{}/ping", server.base_url());
    let client = Client::new();

    for _ in 0..5 {
        let resp = client.get(&url).unwrap();
        assert_eq!(resp.status, Status::OK);
    }
    let stats = client.pool_stats();
    assert!(
        stats.reused >= 4,
        "expected ≥4 pooled reuses over 5 sequential requests, got {stats:?}"
    );
    assert_eq!(stats.fresh, 1, "only the first request should dial");

    // The whole burst should ride one server-side connection.
    assert_eq!(server.active_connections(), 1);

    // A clone shares the pool; a pool of zero goes back to dial-per-request.
    let clone = client.clone();
    clone.get(&url).unwrap();
    assert_eq!(clone.pool_stats().fresh, 1, "clone reuses the shared pool");

    let unpooled = Client::new().with_pool_per_host(0);
    unpooled.get(&url).unwrap();
    unpooled.get(&url).unwrap();
    let s = unpooled.pool_stats();
    assert_eq!((s.reused, s.fresh), (0, 2), "pool_per_host(0) disables reuse");
    server.shutdown();
}
