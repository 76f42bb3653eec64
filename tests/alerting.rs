//! End-to-end alerting: budget rules over the full stack, grouped webhook
//! delivery under fault injection, silences, and restart durability.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ceems::alertsrv::{
    packs, AlertConfig, AlertService, AlertState, LogSink, NotificationSink, RoutingTree, RuleSet,
    WebhookSink,
};
use ceems::http::fault::{FaultKind, FaultPlan, FaultRule};
use ceems::http::router::Router;
use ceems::http::types::{Response, Status};
use ceems::http::{Client, HttpServer, ServerConfig};
use ceems::metrics::matcher::LabelMatcher;
use ceems::prelude::*;

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ceems-alerting-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).ok();
    dir
}

fn stack_yaml() -> &'static str {
    // Small cluster, fast cadences, a 1 W per-project budget every real
    // job exceeds, 60 s `for:` hold, deliveries to the in-process log sink.
    "\
cluster:
  intel_nodes: 2
  amd_nodes: 0
  v100_nodes: 0
  a100_nodes: 0
  h100_nodes: 0
  seed: 11
tsdb:
  scrape_interval_s: 15
  rule_window: 2m
  rule_interval_s: 30
alerting:
  eval_interval_s: 15
  group_wait_s: 0
  group_interval_s: 30
  repeat_interval_s: 100000
  resolved_retention_s: 600
  energy_budget_watts: 1
  energy_budget_for_s: 60
"
}

fn cpu_job(walltime_s: u64) -> JobRequest {
    JobRequest {
        user: "alice".into(),
        account: "proj-a".into(),
        partition: "cpu-intel".into(),
        nodes: 1,
        cores_per_node: 8,
        memory_per_node: 16 << 30,
        gpus_per_node: 0,
        walltime_s,
        workload: WorkloadProfile::CpuBound { intensity: 0.9 },
    }
}

#[test]
fn energy_budget_alert_fires_groups_silences_and_resolves() {
    let cfg = CeemsConfig::from_yaml(stack_yaml()).unwrap();
    let dir = tempdir("e2e");
    let mut stack = CeemsStack::build(cfg, &dir).unwrap();
    let svc = stack.alertsrv.clone().expect("alerting enabled");
    let log = stack.alert_log.clone().unwrap();

    // A 5-minute job: the budget rule goes pending, holds 60 s, fires.
    stack.submit(cpu_job(300)).unwrap();
    stack.run_for(60.0, 15.0);
    let states: Vec<AlertState> = svc.alerts().iter().map(|a| a.state).collect();
    assert!(
        states.contains(&AlertState::Pending) || states.contains(&AlertState::Firing),
        "budget rule saw the job within a minute: {states:?}"
    );
    assert!(
        log.delivered().is_empty(),
        "nothing notifies during the hold"
    );

    stack.run_for(120.0, 15.0);
    let alerts = svc.alerts();
    let firing: Vec<_> = alerts
        .iter()
        .filter(|a| a.state == AlertState::Firing)
        .collect();
    assert_eq!(firing.len(), 1, "one project over budget: {alerts:?}");
    assert_eq!(firing[0].rule, "ProjectEnergyBudgetExceeded");
    assert!(firing[0].labels.get("uuid").is_some());

    // Exactly one grouped notification for the firing group.
    let delivered = log.delivered();
    assert_eq!(delivered.len(), 1, "one grouped notification");
    assert_eq!(delivered[0].status, "firing");
    assert_eq!(delivered[0].alerts.len(), 1);
    assert!(delivered[0].alerts[0].annotations[0].1.contains("over its energy budget"));

    // A matching silence suppresses delivery without touching lifecycle.
    let sid = svc
        .add_silence(
            vec![LabelMatcher::eq("alertname", "ProjectEnergyBudgetExceeded")],
            i64::MAX,
            "maintenance window",
        )
        .unwrap();
    stack.run_for(60.0, 15.0);
    assert_eq!(log.delivered().len(), 1, "silenced group stays quiet");
    assert!(svc.remove_silence(&sid));

    // The job ends; once its series ages out of lookback the alert
    // resolves and the group sends exactly one resolution notice.
    stack.run_for(600.0, 15.0);
    let alerts = svc.alerts();
    assert!(
        alerts
            .iter()
            .all(|a| a.state != AlertState::Firing),
        "recovered: {alerts:?}"
    );
    let delivered = log.delivered();
    assert_eq!(delivered.len(), 2, "firing + resolved, nothing else");
    assert_eq!(delivered[1].status, "resolved");
}

#[test]
fn same_seed_runs_have_identical_notification_traces() {
    let run = |tag: &str| {
        let cfg = CeemsConfig::from_yaml(stack_yaml()).unwrap();
        let mut stack = CeemsStack::build(cfg, &tempdir(tag)).unwrap();
        stack.submit(cpu_job(300)).unwrap();
        stack.run_for(600.0, 15.0);
        let trace = stack.alertsrv.as_ref().unwrap().notification_trace();
        serde_json::to_string(&trace).unwrap()
    };
    let a = run("det-a");
    let b = run("det-b");
    assert!(!a.is_empty() && a.contains("sent"));
    assert_eq!(a, b, "same seed, same notification trace");
}

#[test]
fn restart_mid_firing_reloads_state_without_renotifying() {
    let dir = tempdir("restart");
    {
        let cfg = CeemsConfig::from_yaml(stack_yaml()).unwrap();
        let mut stack = CeemsStack::build(cfg, &dir).unwrap();
        stack.submit(cpu_job(600)).unwrap();
        stack.run_for(180.0, 15.0);
        let log = stack.alert_log.clone().unwrap();
        assert_eq!(log.delivered().len(), 1, "fired and notified pre-restart");
        assert_eq!(stack.stats().alert_notifications, 1);
    }
    // Same db dir: the relstore-backed alert and group state reload.
    let cfg = CeemsConfig::from_yaml(stack_yaml()).unwrap();
    let mut stack = CeemsStack::build(cfg, &dir).unwrap();
    let svc = stack.alertsrv.clone().unwrap();
    let log = stack.alert_log.clone().unwrap();
    let alerts = svc.alerts();
    assert!(
        alerts.iter().any(|a| a.state == AlertState::Firing),
        "firing alert survived the restart: {alerts:?}"
    );
    stack.run_for(120.0, 15.0);
    assert!(
        log.delivered().is_empty(),
        "restart must not repeat the notification: {:?}",
        log.delivered().len()
    );
}

/// A webhook receiver counting successful deliveries.
fn webhook_server() -> (HttpServer, Arc<AtomicUsize>) {
    let hits = Arc::new(AtomicUsize::new(0));
    let h = hits.clone();
    let mut router = Router::new();
    router.post("/hook", move |req| {
        assert!(
            std::str::from_utf8(&req.body).unwrap().contains("groupKey"),
            "payload is the Alertmanager JSON"
        );
        h.fetch_add(1, Ordering::SeqCst);
        Response::json(r#"{"ok":true}"#.to_string())
    });
    (
        HttpServer::serve(ServerConfig::ephemeral(), router).unwrap(),
        hits,
    )
}

fn service_with_sink(
    db: &Arc<Tsdb>,
    sink: Arc<dyn NotificationSink>,
    dir: &std::path::Path,
) -> AlertService {
    let default_sink = sink.name().to_string();
    AlertService::new(
        RuleSet::compile(vec![packs::node_power_anomaly(50.0, 0)]),
        db.clone(),
        vec![sink],
        RoutingTree::new(default_sink),
        AlertConfig {
            group_wait_ms: 0,
            group_interval_ms: 15_000,
            repeat_interval_ms: 1_000_000,
            resolved_retention_ms: 60_000,
            lookback_ms: 30_000,
        },
        dir,
    )
    .unwrap()
}

fn hot_node_sample(db: &Arc<Tsdb>, t_ms: i64, watts: f64) {
    use ceems::metrics::labels;
    db.append(
        &labels! {"__name__" => "instance:ceems_total:watts", "instance" => "n1:9100"},
        t_ms,
        watts,
    );
}

#[test]
fn webhook_delivery_survives_seeded_faults_exactly_once() {
    // The first two POSTs are reset client-side, the third gets a
    // synthesized 503; the sink's retry loop rides them out within one
    // delivery, so the receiver sees exactly one request per notification.
    let (server, hits) = webhook_server();
    let plan = Arc::new(
        FaultPlan::new(1234)
            .with_rule(FaultRule::new("/hook", FaultKind::ConnReset, 1.0).between(0, 2))
            .with_rule(
                FaultRule::new("/hook", FaultKind::ServerError { status: 503 }, 1.0)
                    .between(2, 3),
            ),
    );
    let sink = Arc::new(
        WebhookSink::new(format!("{}/hook", server.base_url()))
            .with_client(Client::new().with_fault_plan(plan))
            .with_retries(5, Duration::from_millis(1)),
    );

    let db = Arc::new(Tsdb::default());
    let dir = tempdir("faults");
    let svc = service_with_sink(&db, sink, &dir);

    hot_node_sample(&db, 10_000, 400.0);
    let s = svc.tick(10_000);
    assert_eq!(s.firing, 1);
    assert_eq!(s.notifications_sent, 1, "delivered through the faults");
    assert_eq!(hits.load(Ordering::SeqCst), 1, "receiver saw exactly one");

    // Still firing, unchanged, inside repeat_interval: no re-delivery.
    hot_node_sample(&db, 20_000, 400.0);
    svc.tick(20_000);
    assert_eq!(hits.load(Ordering::SeqCst), 1);

    // Recovery sends exactly one resolution.
    hot_node_sample(&db, 60_000, 5.0);
    let s = svc.tick(60_000);
    assert_eq!(s.notifications_sent, 1);
    assert_eq!(hits.load(Ordering::SeqCst), 2);
    server.shutdown();
}

#[test]
fn retry_after_defers_the_next_delivery_attempt() {
    // The receiver sheds the first delivery with 429 + Retry-After: 20 s.
    // The service must hold further attempts until that deadline passes.
    let hits = Arc::new(AtomicUsize::new(0));
    let h = hits.clone();
    let mut router = Router::new();
    router.post("/hook", move |_req| {
        if h.fetch_add(1, Ordering::SeqCst) == 0 {
            Response::error(Status(429), "slow down").with_retry_after(20.0)
        } else {
            Response::json(r#"{"ok":true}"#.to_string())
        }
    });
    let server = HttpServer::serve(ServerConfig::ephemeral(), router).unwrap();
    let sink = Arc::new(
        WebhookSink::new(format!("{}/hook", server.base_url()))
            .with_retries(3, Duration::from_millis(1)),
    );

    let db = Arc::new(Tsdb::default());
    let dir = tempdir("retry-after");
    let svc = service_with_sink(&db, sink, &dir);

    hot_node_sample(&db, 10_000, 400.0);
    let s = svc.tick(10_000);
    assert_eq!(s.notifications_failed, 1, "shed by the receiver");
    assert_eq!(hits.load(Ordering::SeqCst), 1, "no inline hammering on 429");

    // 10 s later: inside the Retry-After window, no attempt.
    hot_node_sample(&db, 20_000, 400.0);
    svc.tick(20_000);
    assert_eq!(hits.load(Ordering::SeqCst), 1);

    // Past the window: the retry lands.
    hot_node_sample(&db, 31_000, 400.0);
    let s = svc.tick(31_000);
    assert_eq!(s.notifications_sent, 1);
    assert_eq!(hits.load(Ordering::SeqCst), 2);
    server.shutdown();
}

#[test]
fn service_restart_with_log_sink_preserves_group_state() {
    // Pure service-level restart (no stack): firing + notified, reopen,
    // still firing, no duplicate.
    let db = Arc::new(Tsdb::default());
    let dir = tempdir("svc-restart");
    {
        let log = LogSink::new();
        let svc = service_with_sink(&db, log.clone(), &dir);
        hot_node_sample(&db, 10_000, 400.0);
        svc.tick(10_000);
        assert_eq!(log.delivered().len(), 1);
        svc.checkpoint().unwrap();
    }
    let log = LogSink::new();
    let svc = service_with_sink(&db, log.clone(), &dir);
    assert_eq!(svc.alerts().len(), 1);
    hot_node_sample(&db, 20_000, 400.0);
    let s = svc.tick(20_000);
    assert_eq!(s.firing, 1);
    assert_eq!(s.notifications_sent, 0);
    assert!(log.delivered().is_empty());
}
