//! S20 — connection storm: 10k concurrent keep-alive clients against the
//! load balancer on the epoll substrate.
//!
//! The pre-S20 thread-per-connection server needed one OS thread per open
//! socket, so 10k idle dashboards meant 10k threads (or connection
//! refusal). This bench holds `CONNSTORM_CONNS` keep-alive connections
//! open simultaneously, drives `CONNSTORM_ROUNDS` request waves over all
//! of them, and reports requests/s, p50 and tail latency and the server's
//! (fixed) thread count. Emits `BENCH_connstorm.json`.
//!
//! The client side runs in `CONNSTORM_DRIVERS` child processes (this same
//! binary, re-invoked with `CONNSTORM_TARGET` set): `RLIMIT_NOFILE` is
//! hard-capped per process, and 10k connections cost ~2 fds each when
//! clients and server share one process. Children sync over stdio —
//! `READY` up, `GO` down, one `RESULT <json-array-of-µs>` line back.
//!
//! Not a criterion bench: the subject is concurrency shape, not
//! nanosecond timing, and criterion can't hold 10k sockets open between
//! iterations.
//!
//! Env knobs: `CONNSTORM_CONNS` (default 10000), `CONNSTORM_ROUNDS`
//! (default 3), `CONNSTORM_DRIVERS` (default 8). A run with fewer than
//! 10000 connections (CI's smoke holds 512 for 2 rounds) writes
//! `"reduced": true` beside the counts it used.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceems_bench::report::{process_thread_count, write_bench_json, LatencySummary};
use ceems_bench::{loaded_tsdb, tmpdir};
use ceems_http::{ServerConfig, Status};
use ceems_lb::acl::Authorizer;
use ceems_lb::proxy::LbConfig;
use ceems_lb::{Backend, BackendPool, CeemsLb, Strategy};
use ceems_tsdb::httpapi::api_router;

/// Connections the full run holds open.
const FULL_CONNS: usize = 10_000;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

const REQUEST: &[u8] = b"GET /api/v1/labels HTTP/1.1\r\n\
host: storm\r\n\
x-grafana-user: op\r\n\
connection: keep-alive\r\n\r\n";

/// Reads one content-length-framed response; returns the status code.
fn read_response(stream: &mut TcpStream, scratch: &mut Vec<u8>) -> u16 {
    scratch.clear();
    let head_end = loop {
        if let Some(pos) = scratch.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "eof mid-response");
        scratch.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&scratch[..head_end]).expect("utf8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .expect("content-length")
        .trim()
        .parse()
        .unwrap();
    let mut have = scratch.len() - head_end;
    while have < content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "eof mid-body");
        have += n;
    }
    status
}

/// Child-process mode: hold `share` keep-alive connections to the target,
/// drive `rounds` request waves over them, report latencies upstream.
fn driver_main(target: &str) -> ! {
    let share = env_usize("CONNSTORM_SHARE", 0);
    let rounds = env_usize("CONNSTORM_ROUNDS", 3);
    ceems_http::sys::raise_nofile_limit(share as u64 + 512);

    let mut socks = Vec::with_capacity(share);
    for _ in 0..share {
        let s = TcpStream::connect(target).expect("connect");
        s.set_nodelay(true).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        socks.push(s);
    }
    println!("READY");

    let mut line = String::new();
    std::io::stdin().read_line(&mut line).expect("read GO");
    assert_eq!(line.trim(), "GO", "bad coordinator handshake");

    // Each wave: write a request on every socket, then collect every
    // response — the server sees this driver's whole share in flight at
    // the top of each round.
    let mut scratch = Vec::with_capacity(8192);
    let mut latencies_us: Vec<u64> = Vec::with_capacity(share * rounds);
    for _ in 0..rounds {
        let mut started = Vec::with_capacity(socks.len());
        for s in &mut socks {
            started.push(Instant::now());
            s.write_all(REQUEST).expect("write request");
        }
        for (s, t0) in socks.iter_mut().zip(&started) {
            let status = read_response(s, &mut scratch);
            assert_eq!(status, Status::OK.0, "storm request failed");
            latencies_us.push(t0.elapsed().as_micros() as u64);
        }
    }

    let body: Vec<String> = latencies_us.iter().map(u64::to_string).collect();
    println!("RESULT [{}]", body.join(","));
    std::process::exit(0);
}

fn main() {
    if let Ok(target) = std::env::var("CONNSTORM_TARGET") {
        driver_main(&target);
    }

    let conns = env_usize("CONNSTORM_CONNS", FULL_CONNS);
    let rounds = env_usize("CONNSTORM_ROUNDS", 3);
    let drivers = env_usize("CONNSTORM_DRIVERS", 8).max(1);

    // This process holds only the server side: one fd per connection plus
    // slack for the stack itself. The client fds live in the children.
    let want_fds = conns as u64 + 1024;
    let got_fds = ceems_http::sys::raise_nofile_limit(want_fds);
    assert!(
        got_fds >= want_fds,
        "need {want_fds} fds for {conns} connections, limit is {got_fds} \
         (lower CONNSTORM_CONNS or raise RLIMIT_NOFILE)"
    );

    // A real TSDB backend behind the LB; ACL wide open — the subject is
    // the HTTP substrate, not ownership checks.
    let dir = tmpdir("connstorm");
    let tsdb = loaded_tsdb(64, 16);
    let now = 16 * 15_000;
    let backend_srv = ceems_http::HttpServer::serve(
        ServerConfig::ephemeral(),
        api_router(tsdb, Arc::new(move || now)),
    )
    .unwrap();
    let lb = Arc::new(CeemsLb::new(
        BackendPool::new(
            vec![Backend::new("b1", backend_srv.base_url())],
            Strategy::round_robin(),
        ),
        Authorizer::AllowAll,
        LbConfig {
            admin_users: vec!["op".into()],
            query_frontend: None,
            trace_sink: None,
        },
    ));
    let lb_srv = lb
        .serve_with(
            ServerConfig::ephemeral()
                .with_workers(32)
                .with_max_connections(conns + 64)
                .with_backlog(4096),
        )
        .unwrap();
    let addr = lb_srv.addr();

    eprintln!(
        "connstorm: {conns} connections x {rounds} rounds over {drivers} driver processes -> {addr}"
    );

    // Phase 1: children establish every connection, then report READY.
    let exe = std::env::current_exe().expect("current_exe");
    let connect_started = Instant::now();
    let mut children: Vec<Child> = (0..drivers)
        .map(|d| {
            let share = conns / drivers + usize::from(d < conns % drivers);
            Command::new(&exe)
                .env("CONNSTORM_TARGET", addr.to_string())
                .env("CONNSTORM_SHARE", share.to_string())
                .env("CONNSTORM_ROUNDS", rounds.to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn driver")
        })
        .collect();
    let mut child_out: Vec<BufReader<std::process::ChildStdout>> = children
        .iter_mut()
        .map(|c| BufReader::new(c.stdout.take().unwrap()))
        .collect();
    for out in &mut child_out {
        let mut line = String::new();
        out.read_line(&mut line).expect("driver stdout");
        assert_eq!(line.trim(), "READY", "driver failed to connect its share");
    }

    // `connect()` returns at SYN-ACK, before the acceptor thread pulls the
    // socket off the kernel accept queue — wait until the server has
    // adopted every connection so "concurrently open" means what it says.
    let adopt_deadline = Instant::now() + Duration::from_secs(30);
    while lb_srv.active_connections() < conns && Instant::now() < adopt_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let connect_secs = connect_started.elapsed().as_secs_f64();
    let active = lb_srv.active_connections();
    eprintln!(
        "connstorm: {active} connections established in {connect_secs:.2}s, \
         server threads: {}",
        lb_srv.thread_count()
    );
    assert!(
        active >= conns,
        "only {active}/{conns} connections concurrently open"
    );

    // Phase 2: release the storm and collect per-request latencies. Each
    // child's RESULT line is read on its own thread so no pipe buffer can
    // deadlock the coordinator.
    let storm_started = Instant::now();
    for c in &mut children {
        c.stdin.as_mut().unwrap().write_all(b"GO\n").expect("send GO");
    }
    let collectors: Vec<_> = child_out
        .into_iter()
        .map(|mut out| {
            std::thread::spawn(move || {
                let mut line = String::new();
                out.read_line(&mut line).expect("driver result");
                let payload = line
                    .trim()
                    .strip_prefix("RESULT ")
                    .expect("malformed driver result");
                let parsed: serde_json::Value =
                    serde_json::from_str(payload).expect("driver latencies json");
                parsed
                    .as_array()
                    .expect("latency array")
                    .iter()
                    .map(|v| Duration::from_micros(v.as_f64().expect("µs value") as u64))
                    .collect::<Vec<Duration>>()
            })
        })
        .collect();

    let mut peak_threads = process_thread_count();
    let mut all_latencies: Vec<Duration> = Vec::with_capacity(conns * rounds);
    for (i, c) in collectors.into_iter().enumerate() {
        all_latencies.extend(c.join().expect("collector thread"));
        peak_threads = peak_threads.max(process_thread_count());
        eprintln!("connstorm: driver {}/{drivers} finished", i + 1);
    }
    let storm_secs = storm_started.elapsed().as_secs_f64();
    for mut c in children {
        assert!(c.wait().expect("driver exit").success(), "driver failed");
    }

    let total_requests = conns * rounds;
    assert_eq!(all_latencies.len(), total_requests, "lost latency samples");
    let rps = total_requests as f64 / storm_secs;
    let summary = LatencySummary::from_samples(&mut all_latencies);
    let server_threads = lb_srv.thread_count() + backend_srv.thread_count();

    eprintln!(
        "connstorm: {total_requests} requests in {storm_secs:.2}s = {rps:.0} req/s, \
         p50 {:.1}ms {}, server threads {server_threads}, \
         server process peak threads {peak_threads}",
        summary.p50_us / 1e3,
        match summary.tail {
            Some((p, us)) => format!("p{p} {:.1}ms", us / 1e3),
            None => format!("max {:.1}ms", summary.max_us / 1e3),
        }
    );

    write_bench_json(
        "connstorm",
        &serde_json::json!({
            "bench": "connstorm",
            "reduced": conns < FULL_CONNS,
            "connections": conns,
            "rounds": rounds,
            "drivers": drivers,
            "connect_secs": connect_secs,
            "concurrent_connections_observed": active,
            "total_requests": total_requests,
            "storm_secs": storm_secs,
            "requests_per_sec": rps,
            "latency": summary.to_json(),
            "server_threads": server_threads,
            "lb_server_threads": lb_srv.thread_count(),
            "server_process_peak_threads": peak_threads,
        }),
    );

    lb_srv.shutdown();
    backend_srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
