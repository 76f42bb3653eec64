//! Streaming ingest end-to-end (S23): an exporter publishes sample batches
//! on the in-process bus, the recording-rule engine re-evaluates only the
//! sub-DAG whose inputs arrived, and a live `query_live` subscriber receives
//! per-step deltas that assemble to the byte-identical series a poll-mode
//! range query returns.

use std::collections::HashSet;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use ceems::exporter::{CeemsExporter, ExporterConfig};
use ceems::http::Client;
use ceems::prelude::*;
use ceems::qfe::{QfeConfig, QueryFrontend, RouterDownstream};
use ceems::simnode::cluster::NodeHandle;
use ceems::simnode::node::{HardwareProfile, NodeSpec, SimNode, TaskSpec};
use ceems::stream::{PublishOutcome, SampleFrame, SinkReceipt, StreamBus, StreamBusConfig};
use ceems::tsdb::httpapi::api_router;
use ceems::tsdb::rules::{RecordingRule, RuleEngine, RuleGroup};
use parking_lot::Mutex;

fn busy_intel_node(seed: u64) -> NodeHandle {
    let mut n = SimNode::new(
        NodeSpec {
            hostname: format!("n{seed}"),
            profile: HardwareProfile::IntelCpu,
        },
        seed,
    );
    n.add_task(
        TaskSpec {
            id: seed,
            cores: 16,
            memory_bytes: 16 << 30,
            gpus: 0,
            workload: WorkloadProfile::CpuBound { intensity: 0.9 },
        },
        0,
    )
    .unwrap();
    Arc::new(Mutex::new(n))
}

/// A bus whose sink ingests frames into `db` through the scrape-identical
/// label-stamping path, recording which metric names arrived.
fn ingesting_bus(db: Arc<Tsdb>, arrived: Arc<Mutex<HashSet<String>>>) -> Arc<StreamBus> {
    Arc::new(StreamBus::new(
        StreamBusConfig::default(),
        Arc::new(move |f: &SampleFrame| {
            let batch = ceems::tsdb::scrape::exposition_to_batch(
                &f.body,
                &f.instance,
                &f.job,
                &f.extra_labels,
                f.produced_ms,
            )?;
            let mut names: Vec<String> = batch
                .iter()
                .filter_map(|(ls, _, _)| ls.metric_name().map(str::to_string))
                .collect();
            names.sort_unstable();
            names.dedup();
            arrived.lock().extend(names.iter().cloned());
            let samples = batch.len() as u64;
            db.append_batch(&batch);
            Ok(SinkReceipt { samples, names })
        }),
    ))
}

/// Splits accumulated SSE bytes into complete `(event, data)` pairs,
/// leaving any trailing partial event in the buffer.
fn drain_sse(buf: &mut String) -> Vec<(String, serde_json::Value)> {
    let mut out = Vec::new();
    while let Some(end) = buf.find("\n\n") {
        let block: String = buf.drain(..end + 2).collect();
        let mut event = String::new();
        let mut data = String::new();
        for line in block.lines() {
            if let Some(v) = line.strip_prefix("event: ") {
                event = v.to_string();
            } else if let Some(v) = line.strip_prefix("data: ") {
                data = v.to_string();
            }
        }
        if !event.is_empty() {
            out.push((event, serde_json::from_str(&data).unwrap()));
        }
    }
    out
}

/// `data.result[0].values` of a query_range-shaped JSON body.
fn values_of(body: &serde_json::Value) -> Vec<serde_json::Value> {
    body.get("data")
        .and_then(|d| d.get("result"))
        .and_then(|r| r.as_array())
        .and_then(|r| r.first())
        .and_then(|s| s.get("values"))
        .and_then(|v| v.as_array())
        .cloned()
        .unwrap_or_default()
}

/// One exporter render published on the bus, ingested, and fed to the
/// incremental rule engine — the streaming replacement for a scrape pass.
struct PushHarness {
    node: NodeHandle,
    exporter: Arc<CeemsExporter>,
    bus: Arc<StreamBus>,
    seq: u64,
    engine: RuleEngine,
    db: Arc<Tsdb>,
    arrived: Arc<Mutex<HashSet<String>>>,
    now: Arc<AtomicI64>,
}

impl PushHarness {
    fn push_step(&mut self, t: i64) {
        self.node.lock().step(t, 15.0);
        self.now.store(t, Ordering::SeqCst);
        self.seq += 1;
        let frame = SampleFrame {
            topic: "node-metrics".into(),
            publisher: "n7".into(),
            seq: self.seq,
            instance: "n7:9100".into(),
            job: "ceems".into(),
            extra_labels: vec![("nodegroup".to_string(), "intel-dram".to_string())],
            body: self.exporter.render_for_push(),
            produced_ms: t,
        };
        match self.bus.publish("anonymous", frame, t) {
            Ok(PublishOutcome::Ingested { .. }) => {}
            other => panic!("push at {t} was not ingested: {other:?}"),
        }
        let names: HashSet<String> = self.arrived.lock().drain().collect();
        assert!(
            names.contains("ceems_rapl_package_joules_total"),
            "pushed render did not carry RAPL energy counters"
        );
        self.engine.tick_incremental(&self.db, t, &names);
    }
}

#[test]
fn push_ingest_incremental_rules_and_live_delta_match_poll_mode() {
    let db = Arc::new(Tsdb::default());
    let arrived = Arc::new(Mutex::new(HashSet::new()));
    let now = Arc::new(AtomicI64::new(0));
    let bus = ingesting_bus(db.clone(), arrived.clone());

    // A real exporter publishes its renders; rules re-evaluate on arrival.
    // `r_cold` reads a metric that never arrives, so incremental evaluation
    // must leave it untouched.
    let node = busy_intel_node(7);
    let mut h = PushHarness {
        exporter: Arc::new(CeemsExporter::new(
            node.clone(),
            SimClock::new(),
            ExporterConfig::default(),
        )),
        node,
        bus,
        seq: 0,
        engine: RuleEngine::new(vec![RuleGroup {
            name: "g".into(),
            interval_ms: 15_000,
            rules: vec![
                RecordingRule::new("r_power", "rate(ceems_rapl_package_joules_total[2m])", &[])
                    .unwrap(),
                RecordingRule::new("r_cold", "rate(never_seen_total[2m])", &[]).unwrap(),
            ],
        }]),
        db: db.clone(),
        arrived,
        now: now.clone(),
    };
    for k in 1..=20 {
        h.push_step(k * 15_000);
    }
    assert_eq!(h.engine.eval_count("r_power"), 20);
    assert_eq!(
        h.engine.eval_count("r_cold"),
        0,
        "rule with no arrived inputs must stay cold"
    );

    // Live subscription through a served frontend over the same TSDB.
    let qnow = now.clone();
    let rnow = now.clone();
    let fe = QueryFrontend::new(
        Arc::new(RouterDownstream::new(api_router(
            db,
            Arc::new(move || rnow.load(Ordering::SeqCst)),
        ))),
        QfeConfig {
            now: Arc::new(move || qnow.load(Ordering::SeqCst)),
            ..Default::default()
        },
    );
    let fe_srv = fe.serve().unwrap();
    let client = Client::new().with_header("x-grafana-user", "alice");
    let query = ceems::http::url::encode_component("sum(r_power)");
    let mut sub = client
        .get_stream(&format!(
            "{}/api/v1/query_live?query={query}&step=15&since=120",
            fe_srv.base_url()
        ))
        .unwrap();
    assert_eq!(sub.status.0, 200);
    assert_eq!(fe.live_subscriber_count(), 1);

    let mut buf = String::new();
    let mut events: Vec<(String, serde_json::Value)> = Vec::new();
    while events.is_empty() {
        match sub.next_chunk().unwrap() {
            Some(chunk) => {
                buf.push_str(std::str::from_utf8(&chunk).unwrap());
                events.extend(drain_sse(&mut buf));
            }
            None => panic!("stream closed before the full render arrived"),
        }
    }
    assert_eq!(events[0].0, "full");
    let mut live_values = values_of(&events[0].1);
    assert_eq!(
        live_values.len(),
        9,
        "full render must cover the trailing 120s grid"
    );

    // One more pushed batch: the subscriber gets exactly the new step.
    h.push_step(315_000);
    now.store(315_500, Ordering::SeqCst);
    assert_eq!(fe.push_live(315_500), 1, "one delta should be pushed");
    let mut deltas: Vec<(String, serde_json::Value)> = Vec::new();
    while deltas.is_empty() {
        match sub.next_chunk().unwrap() {
            Some(chunk) => {
                buf.push_str(std::str::from_utf8(&chunk).unwrap());
                deltas.extend(drain_sse(&mut buf));
            }
            None => panic!("stream closed before the delta arrived"),
        }
    }
    assert_eq!(deltas[0].0, "delta");
    let delta_values = values_of(&deltas[0].1);
    assert_eq!(delta_values.len(), 1, "delta must carry exactly one step");
    live_values.extend(delta_values);

    // Poll-mode ground truth over the same grid: byte-identical values.
    let poll = client
        .get(&format!(
            "{}/api/v1/query_range?query={query}&start=180&end=315&step=15",
            fe_srv.base_url()
        ))
        .unwrap();
    assert_eq!(poll.status.0, 200);
    let poll_json: serde_json::Value = serde_json::from_slice(&poll.body).unwrap();
    let poll_values = values_of(&poll_json);
    assert_eq!(
        serde_json::to_string(&live_values).unwrap(),
        serde_json::to_string(&poll_values).unwrap(),
        "assembled live series diverged from the poll-mode render"
    );

    fe_srv.shutdown();
}
