//! HTTP surface of the bus: `POST /api/v1/stream/push`.
//!
//! Tenancy follows the rest of the stack: the `x-grafana-user` header names
//! the tenant, absent means `anonymous`. A push body carries one or more
//! length-prefixed frames (usually one publisher, several renders after a
//! reconnect); the ack maps each publisher to its highest acknowledged
//! sequence so the client can drop its buffered prefix.

use std::sync::Arc;

use ceems_http::types::Status;
use ceems_http::{Request, Response, Router};
use ceems_obs::trace::QueryTrace;
use ceems_obs::TraceSink;
use serde_json::json;

use crate::bus::{PublishOutcome, StreamBus};
use crate::frame::{decode_records, SampleFrame};

/// Clock used to stamp ingest time (simulated in tests, wall elsewhere).
pub type NowFn = Arc<dyn Fn() -> i64 + Send + Sync>;

fn tenant_of(req: &Request) -> String {
    req.header("x-grafana-user").unwrap_or("anonymous").to_string()
}

/// Mounts the push endpoint on a router.
pub fn mount(
    router: &mut Router,
    bus: Arc<StreamBus>,
    now: NowFn,
    trace_sink: Option<Arc<TraceSink>>,
) {
    router.post("/api/v1/stream/push", move |req| {
        handle_push(&bus, &now, trace_sink.as_deref(), req)
    });
}

fn handle_push(
    bus: &StreamBus,
    now: &NowFn,
    trace_sink: Option<&TraceSink>,
    req: &Request,
) -> Response {
    let tenant = tenant_of(req);
    let trace = QueryTrace::begin(req.header("x-ceems-trace-id"));
    let stage = trace.stage("stream_push");

    let records = match decode_records(&req.body) {
        Ok(r) => r,
        Err(e) => return Response::error(Status::BAD_REQUEST, &e),
    };
    let now_ms = now();
    let mut acked: std::collections::BTreeMap<String, u64> = Default::default();
    let mut ingested = 0u64;
    let mut duplicates = 0u64;
    let mut failure: Option<String> = None;
    let mut frames = 0u64;
    for record in &records {
        let frame = match SampleFrame::from_json(record) {
            Ok(f) => f,
            Err(e) => return Response::error(Status::BAD_REQUEST, &e),
        };
        let publisher = frame.publisher.clone();
        let seq = frame.seq;
        frames += 1;
        match bus.publish(&tenant, frame, now_ms) {
            Ok(PublishOutcome::Ingested { receipt, .. }) => {
                ingested += receipt.samples;
                let e = acked.entry(publisher).or_insert(0);
                *e = (*e).max(seq);
            }
            Ok(PublishOutcome::Duplicate { last_seq }) => {
                duplicates += 1;
                let e = acked.entry(publisher).or_insert(0);
                *e = (*e).max(last_seq);
            }
            Err(e) => {
                // Stop at the first sink failure: later frames from the
                // same publisher must not be acked past a hole.
                failure = Some(e);
                break;
            }
        }
    }

    stage.finish();
    trace.add_count("frames", frames);
    trace.add_count("samples", ingested);
    if let Some(sink) = trace_sink {
        sink.offer("stream", "/api/v1/stream/push", &tenant, &trace.report());
    }

    let mut acked_map = serde_json::Map::new();
    for (k, v) in &acked {
        acked_map.insert(k.clone(), json!(v));
    }
    let mut ack_json = json!({
        "status": if failure.is_none() { "success" } else { "error" },
        "acked": serde_json::Value::Object(acked_map),
        "ingested": ingested,
        "duplicates": duplicates,
    });
    if let (Some(e), serde_json::Value::Object(m)) = (&failure, &mut ack_json) {
        m.insert("error".to_string(), json!(e));
    }
    let mut resp = Response::json(ack_json.to_string());
    if failure.is_some() {
        resp.status = Status::INTERNAL;
    }
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{SinkReceipt, StreamBusConfig};
    use crate::publisher::StreamPublisher;
    use ceems_http::{HttpServer, ServerConfig};

    fn serve(bus: Arc<StreamBus>) -> HttpServer {
        let mut router = Router::new();
        mount(&mut router, bus, Arc::new(|| 5_000), None);
        HttpServer::serve(ServerConfig::ephemeral(), router).unwrap()
    }

    fn counting_bus(cfg: StreamBusConfig) -> Arc<StreamBus> {
        Arc::new(StreamBus::new(
            cfg,
            Arc::new(|f: &SampleFrame| {
                Ok(SinkReceipt {
                    samples: f.body.lines().count() as u64,
                    names: vec![],
                })
            }),
        ))
    }

    #[test]
    fn push_acks_and_dedups_over_http() {
        let bus = counting_bus(StreamBusConfig::default());
        let server = serve(Arc::clone(&bus));
        let mut publisher = StreamPublisher::new(
            &server.base_url(),
            "node-metrics",
            "n1",
            "n1:9100",
            "ceems",
            vec![],
        );
        let report = publisher.publish("a 1\nb 2\n".into(), 1_000).unwrap();
        assert_eq!(report.acked_seq, 1);
        assert_eq!(report.samples, 2);
        assert_eq!(publisher.pending(), 0);

        // Re-sending the same seq (simulated resume) is acked as duplicate.
        publisher.enqueue("c 3\n".into(), 2_000);
        let report = publisher.flush().unwrap();
        assert_eq!(report.acked_seq, 2);
        assert_eq!(bus.stats().published, 2);
        server.shutdown();
    }

    #[test]
    fn malformed_push_body_is_rejected() {
        let bus = counting_bus(StreamBusConfig::default());
        let server = serve(bus);
        let client = ceems_http::Client::new();
        let resp = client
            .post(
                &format!("{}/api/v1/stream/push", server.base_url()),
                b"garbage".to_vec(),
                "application/x-ceems-frames",
            )
            .unwrap();
        assert_eq!(resp.status.0, 400);
        server.shutdown();
    }
}
