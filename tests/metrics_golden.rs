//! Golden `/metrics` pages. Each component's registry is driven through a
//! fixed script and its rendered page must equal, byte for byte, the page
//! checked in under `tests/golden/`: names, help strings, types, label
//! order, family order and values. The meta monitor scrapes these pages
//! into the `__ceems_meta__` tenant, so a changed byte here is a changed
//! sample there.
//!
//! Wall-clock readings cannot be pinned: on the sample lines of a
//! `*_seconds*` family other than `_count`, the value is replaced by `<t>`
//! before comparing. How many observations landed (`_count`) is compared
//! as it is.

use std::path::PathBuf;
use std::sync::Arc;

use ceems::alertsrv::{AlertConfig, AlertRule, AlertService, LogSink, RoutingTree, RuleSet};
use ceems::core::config::FailoverSettings;
use ceems::http::{HttpServer, Method, Request, Response, Router, ServerConfig, Status};
use ceems::lb::acl::Authorizer;
use ceems::lb::{Backend, BackendPool, CeemsLb, LbConfig, Strategy};
use ceems::metrics::labels;
use ceems::metrics::Registry;
use ceems::obs::slowlog::SlowQueryLog;
use ceems::obs::trace::QueryTrace;
use ceems::obs::{TraceSampler, TraceSink, TraceStore, TraceStoreConfig};
use ceems::prelude::*;
use ceems::qfe::{QfeConfig, QueryFrontend, RouterDownstream};
use ceems::stream::{SampleFrame, SinkReceipt, StreamBus, StreamBusConfig};
use ceems::tsdb::httpapi::{api_router, api_router_with, ApiOptions, WalFetchLimiter};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ceems-metrics-golden-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `text` with the wall-clock values masked (see the module docs).
fn masked(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let name = &line[..line.find(['{', ' ']).unwrap_or(line.len())];
        if line.starts_with('#') || !name.contains("_seconds") || name.ends_with("_count") {
            out.push_str(line);
        } else {
            let value_at = line.rfind(' ').expect("a sample line has a value");
            out.push_str(&line[..value_at]);
            out.push_str(" <t>");
        }
        out.push('\n');
    }
    out
}

fn assert_page(registry: &Registry, golden: &str) {
    let page = registry.render();
    assert_eq!(page, ceems::metrics::encode_families(&registry.gather()));
    let got = masked(&page);
    if got != golden {
        let diff: Vec<String> = got
            .lines()
            .zip(golden.lines())
            .filter(|(g, w)| g != w)
            .take(5)
            .map(|(g, w)| format!("got  {g}\nwant {w}"))
            .collect();
        panic!(
            "page differs from its golden ({} lines, want {}):\n{}\n--- page ---\n{got}",
            got.lines().count(),
            golden.lines().count(),
            diff.join("\n")
        );
    }
}

fn json_server(status: Status, body: &'static str) -> HttpServer {
    let mut router = Router::new();
    router.get("/*rest", move |_| Response::status(status).with_body(body));
    HttpServer::serve(ServerConfig::ephemeral(), router).unwrap()
}

#[test]
fn lb_page() {
    let failing = json_server(Status::INTERNAL, r#"{"status":"error"}"#);
    let healthy = json_server(Status::OK, r#"{"status":"success","data":[]}"#);
    let lb = Arc::new(CeemsLb::new(
        BackendPool::new(
            vec![
                Backend::new("b1", failing.base_url()),
                Backend::new("b2", healthy.base_url()),
            ],
            Strategy::round_robin(),
        ),
        Authorizer::AllowAll,
        LbConfig {
            admin_users: vec!["op".into()],
            ..Default::default()
        },
    ));
    // Denied: no user.
    lb.handle(&Request::new(Method::Get, "/api/v1/labels"));
    // Unavailable: no write leader learned yet.
    lb.handle(&Request::new(Method::Post, "/api/v1/write").with_header("x-grafana-user", "op"));
    // b1 answers 500, the retry lands on b2.
    let query =
        Request::new(Method::Get, "/api/v1/query?query=up").with_header("x-grafana-user", "op");
    assert_eq!(lb.handle(&query).status, Status::OK);
    // One request through the served, instrumented handler.
    let srv = lb.serve().unwrap();
    let resp = ceems::http::Client::new()
        .get(&format!("{}/api/v1/labels", srv.base_url()))
        .unwrap();
    assert_eq!(resp.status.0, 401);
    srv.shutdown();
    failing.shutdown();
    healthy.shutdown();
    assert_page(lb.registry(), include_str!("golden/lb.txt"));
}

/// A TSDB holding one series, 0 … 10 min at 15 s.
fn small_db() -> Arc<Tsdb> {
    let db = Arc::new(Tsdb::default());
    let series = labels! {"__name__" => "power", "instance" => "n1"};
    for i in 0..=40 {
        db.append(&series, i * 15_000, 100.0 + i as f64);
    }
    db
}

#[test]
fn qfe_page() {
    let db = small_db();
    let now: ceems::qfe::NowFn = Arc::new(|| 600_000);
    let fe = QueryFrontend::new(
        Arc::new(RouterDownstream::new(api_router(db, now.clone()))),
        QfeConfig {
            split_interval_ms: 120_000,
            recent_window_ms: 0,
            now,
            ..Default::default()
        },
    );
    let range = "/api/v1/query_range?query=power&start=0&end=480&step=15";
    for _ in 0..2 {
        let req = Request::new(Method::Get, range).with_header("x-grafana-user", "alice");
        assert_eq!(fe.handle(&req).status, Status::OK);
    }
    let req = Request::new(Method::Get, "/api/v1/query?query=power&time=600");
    assert_eq!(fe.handle(&req).status, Status::OK);
    assert_page(fe.registry(), include_str!("golden/qfe.txt"));
}

#[test]
fn alertsrv_page() {
    let db = small_db();
    let svc = AlertService::new(
        RuleSet::compile(vec![
            AlertRule::new("HotNode", "power > 50", 0).unwrap(),
            AlertRule::new("AnyHot", "count(ALERTS) > 0", 30_000).unwrap(),
        ]),
        db,
        vec![LogSink::new()],
        RoutingTree::new("log"),
        AlertConfig {
            group_wait_ms: 0,
            ..Default::default()
        },
        &tmp("alertsrv"),
    )
    .unwrap();
    for t in [300_000, 315_000] {
        svc.tick(t);
    }
    assert_page(&svc.registry(), include_str!("golden/alertsrv.txt"));
}

#[test]
fn apiserver_page() {
    let mut stack = CeemsStack::build_default();
    stack
        .submit(JobRequest {
            user: "alice".into(),
            account: "proj".into(),
            partition: "cpu-intel".into(),
            nodes: 1,
            cores_per_node: 16,
            memory_per_node: 32 << 30,
            gpus_per_node: 0,
            walltime_s: 7200,
            workload: WorkloadProfile::CpuBound { intensity: 0.9 },
        })
        .unwrap();
    stack.run_for(121.0, 15.0);
    let api = Arc::new(ceems::apiserver::ApiServer::new(
        stack.updater.clone(),
        vec!["op".into()],
    ));
    let router = api.router();
    for (user, path) in [
        ("alice", "/api/v1/units"),
        ("op", "/api/v1/units"),
        ("alice", "/api/v1/units/slurm-404"),
        ("alice", "/api/v1/usage/current"),
    ] {
        router.dispatch(Request::new(Method::Get, path).with_header("x-grafana-user", user));
    }
    assert_page(api.registry(), include_str!("golden/apiserver.txt"));
}

#[test]
fn stream_bus_page() {
    let bus = Arc::new(StreamBus::new(
        StreamBusConfig {
            ring_capacity: 2,
            ..Default::default()
        },
        Arc::new(|f: &SampleFrame| {
            Ok(SinkReceipt {
                samples: f.body.lines().count() as u64,
                names: Vec::new(),
            })
        }),
    ));
    let frame = |seq: u64| SampleFrame {
        topic: "metrics".into(),
        publisher: "exp-1".into(),
        seq,
        instance: "n1:9010".into(),
        job: "ceems".into(),
        extra_labels: Vec::new(),
        body: "power 1\n".into(),
        produced_ms: 1_000 * seq as i64,
    };
    for seq in [1, 2, 2, 3] {
        bus.publish("alice", frame(seq), 1_000 * seq as i64 + 250)
            .unwrap();
    }
    let registry = Registry::new();
    bus.register_metrics(&registry);
    ceems::obs::register_build_info(&registry, "stream");
    assert_page(&registry, include_str!("golden/stream.txt"));
}

#[test]
fn tsdb_api_page() {
    let db = small_db();
    let registry = ceems::tsdb::selfmon::default_registry(db.clone());
    let limiter = WalFetchLimiter::new(0.001, 1.0);
    assert!(limiter.try_acquire("f1").is_ok());
    assert!(limiter.try_acquire("f1").is_err());
    let store = Arc::new(TraceStore::open(&tmp("traces"), TraceStoreConfig::default()).unwrap());
    let mut report = QueryTrace::begin(Some("feedc0de")).report();
    report.total_ms = 12.5;
    store.store("tsdb", "/api/v1/query", "alice", &report, 1_000);
    let router = api_router_with(
        db,
        ApiOptions {
            now: Arc::new(|| 600_000),
            registry: Some(registry.clone()),
            slow_query: Some(SlowQueryLog::new(1e-9).with_sink(|_| {})),
            wal_fetch_limit: Some(limiter),
            trace_sink: Some(Arc::new(TraceSink::new(TraceSampler::new(0.0, 0.0), store))),
        },
    );
    let resp = router.dispatch(Request::new(Method::Get, "/api/v1/query?query=sum(power)"));
    assert_eq!(resp.status, Status::OK);
    assert_page(&registry, include_str!("golden/tsdb_api.txt"));
}

/// The stack's TSDB page: rule-evaluation and plan families, the failover
/// gauges of a replication group, the trace store and the build identity.
#[test]
fn stack_tsdb_api_page() {
    let dir = tmp("stack");
    let stack = CeemsStack::build(
        CeemsConfig {
            wal_dir: Some(dir.join("wal").to_string_lossy().into_owned()),
            failover: FailoverSettings {
                enabled: true,
                replicas: 2,
                ..Default::default()
            },
            ..Default::default()
        },
        &dir.join("db"),
    )
    .unwrap();
    let opts = stack.tsdb_api_options(Arc::new(|| 0));
    let registry = opts.registry.clone().unwrap();
    api_router_with(stack.tsdb.clone(), opts);
    assert_page(&registry, include_str!("golden/stack_tsdb_api.txt"));
}
