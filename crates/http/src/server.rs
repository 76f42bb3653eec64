//! Event-driven HTTP/1.1 server on a leader/follower epoll pool (S20).
//!
//! `workers` threads wait on one epoll instance holding the listening
//! socket and every connection; the thread an event wakes reads the
//! request, runs the handler and writes the response itself (see
//! `reactor.rs`). The thread count is fixed at `workers` no matter how
//! many connections are open, which is what lets the stack hold 10k+
//! concurrent keep-alive dashboard connections (see
//! `crates/bench/benches/connstorm.rs`). The public surface
//! (`ServerConfig`, `HttpServer::serve`/`serve_fn`, auth, fault
//! injection) is unchanged from the blocking thread-per-connection
//! substrate it replaces, so every component migrates behind the same API.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::auth::BasicAuth;
use crate::reactor::Pool;
use crate::router::Router;
use crate::sys;
use crate::types::{Request, Response};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Server thread count: each waits for connection events and runs the
    /// handlers of the requests it reads (bounds handler concurrency;
    /// handlers may block, e.g. the LB proxying or the qfe queueing).
    pub workers: usize,
    /// Optional basic-auth guard applied to every route.
    pub basic_auth: Option<BasicAuth>,
    /// Total time allowed to receive one request (first byte to complete
    /// body); also bounds a stalled response write. Trickled-header
    /// (slowloris) connections die at this deadline.
    pub read_timeout: Duration,
    /// Maximum accepted body size in bytes.
    pub max_body_bytes: usize,
    /// Maximum requests served per connection before it is closed.
    pub max_requests_per_conn: usize,
    /// Listen backlog for the accept queue.
    pub backlog: i32,
    /// Open-connection cap; accepts beyond it are shed immediately so the
    /// process never runs its fd table dry.
    pub max_connections: usize,
    /// Keep-alive connections quiet for longer than this are closed, so
    /// abandoned dashboards can't pin fds forever.
    pub idle_timeout: Duration,
    /// Fault-injection schedule applied to every request (chaos testing).
    #[cfg(feature = "fault")]
    pub fault: Option<Arc<crate::fault::FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            basic_auth: None,
            read_timeout: Duration::from_secs(10),
            max_body_bytes: 16 << 20,
            max_requests_per_conn: 1024,
            backlog: 1024,
            max_connections: 16_384,
            idle_timeout: Duration::from_secs(60),
            #[cfg(feature = "fault")]
            fault: None,
        }
    }
}

impl ServerConfig {
    /// Config bound to an ephemeral localhost port.
    pub fn ephemeral() -> Self {
        Self::default()
    }

    /// Sets basic auth.
    pub fn with_basic_auth(mut self, auth: BasicAuth) -> Self {
        self.basic_auth = Some(auth);
        self
    }

    /// Sets worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the accept backlog.
    pub fn with_backlog(mut self, backlog: i32) -> Self {
        self.backlog = backlog.max(1);
        self
    }

    /// Sets the open-connection cap.
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(1);
        self
    }

    /// Sets the keep-alive idle timeout.
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the per-request receive deadline.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Injects faults on the server side of every request (chaos testing).
    #[cfg(feature = "fault")]
    pub fn with_fault_plan(mut self, plan: Arc<crate::fault::FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }
}

/// A running HTTP server. Dropping the handle shuts the server down.
pub struct HttpServer {
    addr: SocketAddr,
    pool: Arc<Pool>,
    threads: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds and serves `router` in background threads.
    pub fn serve(config: ServerConfig, router: Router) -> std::io::Result<HttpServer> {
        let handler: Arc<dyn Fn(Request) -> Response + Send + Sync> =
            Arc::new(move |req| router.dispatch(req));
        Self::serve_fn(config, handler)
    }

    /// Binds and serves an arbitrary handler function.
    pub fn serve_fn(
        config: ServerConfig,
        handler: Arc<dyn Fn(Request) -> Response + Send + Sync>,
    ) -> std::io::Result<HttpServer> {
        let listener = sys::listen_with_backlog(&config.addr, config.backlog)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let pool = Pool::new(listener, config, handler)?;
        let mut server = HttpServer {
            addr,
            pool,
            threads: Vec::with_capacity(workers),
        };
        for i in 0..workers {
            let pool = server.pool.clone();
            server.threads.push(
                std::thread::Builder::new()
                    .name(format!("http-worker-{i}"))
                    .spawn(move || pool.run())?,
            );
        }
        Ok(server)
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Base URL, e.g. `http://127.0.0.1:4123`.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Currently open connections.
    pub fn active_connections(&self) -> usize {
        self.pool.active()
    }

    /// Total server threads (`workers`). Fixed for the server's lifetime
    /// regardless of connection count.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Requests shutdown and joins the threads. In-flight requests drain
    /// (handler finishes, response flushes) before their connections close;
    /// idle connections close immediately.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.pool.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::types::Status;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn test_router() -> Router {
        let mut r = Router::new();
        r.get("/ping", |_| Response::text("pong"));
        r.post("/echo", |req| {
            Response::text(String::from_utf8_lossy(&req.body).into_owned())
        });
        r.get("/hdr", |req| {
            Response::text(req.header("x-grafana-user").unwrap_or("-").to_string())
        });
        r
    }

    #[test]
    fn end_to_end_get_and_post() {
        let server = HttpServer::serve(ServerConfig::ephemeral(), test_router()).unwrap();
        let client = Client::new();
        let resp = client.get(&format!("{}/ping", server.base_url())).unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.body_string(), "pong");

        let resp = client
            .post(
                &format!("{}/echo", server.base_url()),
                b"hello world".to_vec(),
                "text/plain",
            )
            .unwrap();
        assert_eq!(resp.body_string(), "hello world");
        server.shutdown();
    }

    #[test]
    fn basic_auth_enforced() {
        let auth = BasicAuth::new("prom", "secret");
        let server = HttpServer::serve(
            ServerConfig::ephemeral().with_basic_auth(auth.clone()),
            test_router(),
        )
        .unwrap();

        let unauth = Client::new();
        let resp = unauth.get(&format!("{}/ping", server.base_url())).unwrap();
        assert_eq!(resp.status, Status::UNAUTHORIZED);
        assert!(resp.header("www-authenticate").is_some());

        let authed = Client::new().with_basic_auth(auth);
        let resp = authed.get(&format!("{}/ping", server.base_url())).unwrap();
        assert_eq!(resp.status, Status::OK);
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let server = HttpServer::serve(ServerConfig::ephemeral(), test_router()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let req = b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n";
        stream.write_all(req).unwrap();
        stream.write_all(req).unwrap();
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert_eq!(buf.matches("HTTP/1.1 200 OK").count(), 3);
        assert_eq!(buf.matches("pong").count(), 3);
        server.shutdown();
    }

    #[test]
    fn custom_headers_reach_handler() {
        let server = HttpServer::serve(ServerConfig::ephemeral(), test_router()).unwrap();
        let client = Client::new().with_header("X-Grafana-User", "alice");
        let resp = client.get(&format!("{}/hdr", server.base_url())).unwrap();
        assert_eq!(resp.body_string(), "alice");
        server.shutdown();
    }

    #[test]
    fn unknown_route_404() {
        let server = HttpServer::serve(ServerConfig::ephemeral(), test_router()).unwrap();
        let resp = Client::new()
            .get(&format!("{}/nope", server.base_url()))
            .unwrap();
        assert_eq!(resp.status, Status::NOT_FOUND);
        server.shutdown();
    }

    #[test]
    fn oversized_body_rejected() {
        let mut cfg = ServerConfig::ephemeral();
        cfg.max_body_bytes = 8;
        let server = HttpServer::serve(cfg, test_router()).unwrap();
        let resp = Client::new()
            .post(
                &format!("{}/echo", server.base_url()),
                vec![b'x'; 64],
                "text/plain",
            )
            .unwrap();
        assert_eq!(resp.status, Status::BAD_REQUEST);
        server.shutdown();
    }

    #[test]
    fn thread_count_is_fixed_and_reported() {
        let server =
            HttpServer::serve(ServerConfig::ephemeral().with_workers(3), test_router()).unwrap();
        assert_eq!(server.thread_count(), 3);
        let client = Client::new();
        for _ in 0..8 {
            let resp = client.get(&format!("{}/ping", server.base_url())).unwrap();
            assert_eq!(resp.status, Status::OK);
        }
        assert_eq!(server.thread_count(), 3, "threads never grow");
        server.shutdown();
    }

    #[test]
    fn streaming_response_round_trip() {
        let writers: Arc<parking_lot::Mutex<Vec<crate::stream::StreamWriter>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut r = Router::new();
        let w = writers.clone();
        r.get("/sub", move |_| {
            let (resp, writer) = Response::streaming(Status::OK);
            let resp = resp.with_header("content-type", "text/event-stream");
            w.lock().push(writer);
            resp
        });
        let server = HttpServer::serve(ServerConfig::ephemeral(), r).unwrap();
        let client = Client::new();
        let mut resp = client
            .get_stream(&format!("{}/sub", server.base_url()))
            .unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.header("content-type"), Some("text/event-stream"));
        assert_eq!(resp.header("transfer-encoding"), Some("chunked"));

        // Producer sends after the response head is already on the wire.
        let writer = loop {
            if let Some(w) = writers.lock().last().cloned() {
                break w;
            }
        };
        assert!(writer.send(b"alpha".to_vec()));
        assert_eq!(resp.next_chunk().unwrap().unwrap(), b"alpha");
        assert!(writer.send(b"beta".to_vec()));
        assert!(writer.send(b"gamma".to_vec()));
        assert_eq!(resp.next_chunk().unwrap().unwrap(), b"beta");
        assert_eq!(resp.next_chunk().unwrap().unwrap(), b"gamma");
        writer.close();
        assert!(resp.next_chunk().unwrap().is_none(), "clean end of stream");
        server.shutdown();
    }

    #[test]
    fn streaming_consumer_disconnect_aborts_writer() {
        let writers: Arc<parking_lot::Mutex<Vec<crate::stream::StreamWriter>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut r = Router::new();
        let w = writers.clone();
        r.get("/sub", move |_| {
            let (resp, writer) = Response::streaming(Status::OK);
            w.lock().push(writer);
            resp
        });
        let server = HttpServer::serve(ServerConfig::ephemeral(), r).unwrap();
        let client = Client::new();
        let mut resp = client
            .get_stream(&format!("{}/sub", server.base_url()))
            .unwrap();
        let writer = loop {
            if let Some(w) = writers.lock().last().cloned() {
                break w;
            }
        };
        assert!(writer.send(b"first".to_vec()));
        assert_eq!(resp.next_chunk().unwrap().unwrap(), b"first");
        drop(resp); // client hangs up mid-stream

        // The reactor observes the close and aborts the stream; sends start
        // failing. Bounded wait: sends keep succeeding into the queue until
        // the reactor notices, so poll.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let ok = writer.send(b"more".to_vec());
            if !ok {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "writer never observed the disconnect"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(writer.is_aborted());
        server.shutdown();
    }

    #[test]
    fn max_requests_per_conn_closes_connection() {
        let mut cfg = ServerConfig::ephemeral();
        cfg.max_requests_per_conn = 2;
        let server = HttpServer::serve(cfg, test_router()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let req = b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n";
        stream.write_all(req).unwrap();
        stream.write_all(req).unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert_eq!(buf.matches("pong").count(), 2, "two served, then closed");
        server.shutdown();
    }
}
