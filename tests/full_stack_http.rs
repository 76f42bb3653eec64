//! End-to-end integration over real sockets: exporter HTTP endpoints →
//! HTTP scraping → TSDB HTTP API → load balancer → API server HTTP API.
//! This is the Fig. 1 architecture with every arrow being an actual HTTP
//! request (the in-process fast paths used elsewhere are bypassed).

use std::sync::Arc;

use ceems::http::{Client, HttpServer, ServerConfig};
use ceems::lb::acl::Authorizer;
use ceems::lb::proxy::LbConfig;
use ceems::lb::{Backend, BackendPool, CeemsLb, Strategy};
use ceems::prelude::*;
use ceems::tsdb::httpapi::api_router;
use ceems::tsdb::scrape::{ScrapeManager, ScrapeTarget, TargetSource};

#[test]
fn full_stack_over_http() {
    // 1. A small simulated deployment with one busy job.
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
    stack.run_for(300.0, 15.0);

    // 2. Serve two exporters over real HTTP and scrape them over HTTP into
    //    a *fresh* TSDB.
    let http_tsdb = Arc::new(Tsdb::default());
    let mut servers = Vec::new();
    let mut targets = Vec::new();
    for (i, exporter) in stack.exporters.iter().take(2).enumerate() {
        let server = exporter.clone().serve().unwrap();
        targets.push(ScrapeTarget {
            instance: format!("http-node-{i}"),
            job: "ceems".into(),
            extra_labels: vec![("nodegroup".into(), "intel-dram".into())],
            source: TargetSource::Http {
                url: format!("{}/metrics", server.base_url()),
                auth: None,
            },
        });
        servers.push(server);
    }
    let mgr = ScrapeManager::new(targets);
    let stats = mgr.scrape_once(&http_tsdb, stack.clock.now_ms(), 2);
    assert_eq!(stats.failed, 0);
    assert!(stats.samples > 20, "only {} samples over HTTP", stats.samples);

    // 3. The Prometheus API over the main TSDB.
    let now = stack.clock.now_ms();
    let api = HttpServer::serve(
        ServerConfig::ephemeral(),
        api_router(stack.tsdb.clone(), Arc::new(move || now)),
    )
    .unwrap();

    // 4. The LB in front of it, with DB-backed ACL.
    let lb = Arc::new(CeemsLb::new(
        BackendPool::new(vec![Backend::new("b1", api.base_url())], Strategy::round_robin()),
        Authorizer::DirectDb(stack.updater.clone()),
        LbConfig {
            admin_users: vec!["op".into()],
            query_frontend: None,
            trace_sink: None,
        },
    ));
    let lb_srv = lb.serve().unwrap();

    let q = |user: &str, query: &str| -> (u16, serde_json::Value) {
        let url = format!(
            "{}/api/v1/query?query={}",
            lb_srv.base_url(),
            ceems::http::url::encode_component(query)
        );
        let resp = Client::new()
            .with_header("X-Grafana-User", user)
            .get(&url)
            .unwrap();
        let body = serde_json::from_slice(&resp.body).unwrap_or(serde_json::Value::Null);
        (resp.status.0, body)
    };

    // Alice reads her job's power through the LB.
    let (code, body) = q("alice", "uuid:ceems_power:watts{uuid=\"slurm-1\"}");
    assert_eq!(code, 200);
    let result = body["data"]["result"].as_array().unwrap();
    assert_eq!(result.len(), 1);
    let watts: f64 = result[0]["value"][1].as_str().unwrap().parse().unwrap();
    assert!(watts > 10.0, "watts={watts}");

    // Bob cannot.
    let (code, _) = q("bob", "uuid:ceems_power:watts{uuid=\"slurm-1\"}");
    assert_eq!(code, 403);

    // A query nested past the PromQL parser's bound is refused, whether the
    // LB parses it (a user's) or only the TSDB does (an admin's), and the
    // workers that read it serve the next panel.
    let deep = format!(
        "{}uuid:ceems_power:watts{{uuid=\"slurm-1\"}}{}",
        "(".repeat(5_000),
        ")".repeat(5_000)
    );
    for user in ["alice", "op"] {
        let (code, _) = q(user, &deep);
        assert!((400..500).contains(&code), "{user}: {code}");
    }
    for user in ["alice", "op"] {
        let (code, body) = q(user, "sum(uuid:ceems_power:watts{uuid=\"slurm-1\"})");
        assert_eq!(code, 200, "{user}");
        assert_eq!(body["data"]["result"].as_array().unwrap().len(), 1);
    }

    // 5. The API server over HTTP, sharing the updater.
    let api_server = Arc::new(ceems::apiserver::ApiServer::new(
        stack.updater.clone(),
        vec!["op".into()],
    ));
    let api_srv = api_server.serve().unwrap();
    let resp = Client::new()
        .with_header("X-Grafana-User", "alice")
        .get(&format!("{}/api/v1/units", api_srv.base_url()))
        .unwrap();
    assert_eq!(resp.status.0, 200);
    let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
    assert_eq!(v["units"][0]["uuid"], "slurm-1");
    assert!(v["units"][0]["total_energy_kwh"].as_f64().unwrap() > 0.0);

    api_srv.shutdown();
    lb_srv.shutdown();
    api.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn exporter_auth_protects_scrapes_end_to_end() {
    use ceems::http::auth::BasicAuth;
    use ceems::exporter::{CeemsExporter, ExporterConfig};
    use ceems::simnode::node::{HardwareProfile, NodeSpec, SimNode};
    use parking_lot::Mutex;

    let node = Arc::new(Mutex::new(SimNode::new(
        NodeSpec {
            hostname: "n1".into(),
            profile: HardwareProfile::IntelCpu,
        },
        1,
    )));
    node.lock().step(1000, 1.0);
    let auth = BasicAuth::new("prom", "pw");
    let exporter = Arc::new(CeemsExporter::new(
        node,
        SimClock::new(),
        ExporterConfig {
            basic_auth: Some(auth.clone()),
            ..Default::default()
        },
    ));
    let server = exporter.serve().unwrap();

    let db = Tsdb::default();
    // Unauthenticated scrape fails, authenticated succeeds.
    let bad = ScrapeManager::new(vec![ScrapeTarget {
        instance: "n1".into(),
        job: "ceems".into(),
        extra_labels: vec![],
        source: TargetSource::Http {
            url: format!("{}/metrics", server.base_url()),
            auth: None,
        },
    }]);
    assert_eq!(bad.scrape_once(&db, 0, 1).failed, 1);

    let good = ScrapeManager::new(vec![ScrapeTarget {
        instance: "n1".into(),
        job: "ceems".into(),
        extra_labels: vec![],
        source: TargetSource::Http {
            url: format!("{}/metrics", server.base_url()),
            auth: Some(auth),
        },
    }]);
    let stats = good.scrape_once(&db, 0, 1);
    assert_eq!(stats.ok, 1);
    assert!(stats.samples > 5);
    server.shutdown();
}
