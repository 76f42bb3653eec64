//! HTTP surface of the bus: `POST /api/v1/stream/push` and
//! `GET /api/v1/stream/subscribe`.
//!
//! Tenancy follows the rest of the stack: the `x-grafana-user` header names
//! the tenant, absent means `anonymous`. A push body carries one or more
//! length-prefixed frames (usually one publisher, several renders after a
//! reconnect); the ack maps each publisher to its highest acknowledged
//! sequence so the client can drop its buffered prefix. The subscribe
//! endpoint holds a chunked response open and relays frames as the bus
//! ingests them.

use std::sync::Arc;

use ceems_http::types::Status;
use ceems_http::{Request, Response, Router};
use ceems_obs::trace::QueryTrace;
use ceems_obs::TraceSink;
use serde_json::json;

use crate::bus::{PublishOutcome, StreamBus, SubscribeError};
use crate::frame::{decode_records, SampleFrame};

/// Clock used to stamp ingest time (simulated in tests, wall elsewhere).
pub type NowFn = Arc<dyn Fn() -> i64 + Send + Sync>;

fn tenant_of(req: &Request) -> String {
    req.header("x-grafana-user").unwrap_or("anonymous").to_string()
}

/// Mounts the stream endpoints on a router.
pub fn mount(
    router: &mut Router,
    bus: Arc<StreamBus>,
    now: NowFn,
    trace_sink: Option<Arc<TraceSink>>,
) {
    let push_bus = Arc::clone(&bus);
    let push_now = Arc::clone(&now);
    let push_sink = trace_sink.clone();
    router.post("/api/v1/stream/push", move |req| {
        handle_push(&push_bus, &push_now, push_sink.as_deref(), req)
    });

    router.get("/api/v1/stream/subscribe", move |req| {
        handle_subscribe(&bus, req)
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

fn handle_subscribe(bus: &StreamBus, req: &Request) -> Response {
    let tenant = tenant_of(req);
    let topic = match req.query_param("topic") {
        Some(t) if !t.is_empty() => t.to_string(),
        _ => return Response::error(Status::BAD_REQUEST, "missing topic parameter"),
    };
    let from_offset = req
        .query_param("from_offset")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);

    let (resp, writer) = Response::streaming(Status::OK);
    match bus.subscribe(&tenant, &topic, from_offset, writer) {
        Ok(_replayed) => resp.with_header("content-type", "application/x-ceems-frames"),
        Err(SubscribeError::AtCapacity { cap }) => Response::error(
            Status::TOO_MANY_REQUESTS,
            format!("tenant at live-subscriber cap ({cap})"),
        )
        .with_retry_after(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{SinkReceipt, StreamBusConfig};
    use crate::frame::RecordDecoder;
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
    fn subscribe_receives_pushed_frames_live() {
        let bus = counting_bus(StreamBusConfig::default());
        let server = serve(Arc::clone(&bus));
        let client = ceems_http::Client::new();
        let mut sub = client
            .get_stream(&format!(
                "{}/api/v1/stream/subscribe?topic=node-metrics",
                server.base_url()
            ))
            .unwrap();
        assert_eq!(sub.status.0, 200);

        let mut publisher = StreamPublisher::new(
            &server.base_url(),
            "node-metrics",
            "n1",
            "n1:9100",
            "ceems",
            vec![],
        );
        publisher.publish("a 1\n".into(), 1_000).unwrap();

        let mut dec = RecordDecoder::new();
        let mut records = Vec::new();
        while records.is_empty() {
            match sub.next_chunk().unwrap() {
                Some(chunk) => records.extend(dec.feed(&chunk).unwrap()),
                None => panic!("stream ended before frame arrived"),
            }
        }
        let frame = SampleFrame::from_json(&records[0]).unwrap();
        assert_eq!(frame.publisher, "n1");
        assert_eq!(frame.body, "a 1\n");
        assert_eq!(records[0].get("offset").and_then(|v| v.as_u64()), Some(1));
        server.shutdown();
    }

    /// `from_offset` is whatever the query string says; the largest u64
    /// resumes past everything retained: no gap record, no replay, and the
    /// next frame still arrives live.
    #[test]
    fn subscribe_from_the_largest_offset_gets_the_next_frame_only() {
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
        publisher.publish("a 1\n".into(), 1_000).unwrap();

        let client = ceems_http::Client::new();
        let mut sub = client
            .get_stream(&format!(
                "{}/api/v1/stream/subscribe?topic=node-metrics&from_offset={}",
                server.base_url(),
                u64::MAX
            ))
            .unwrap();
        assert_eq!(sub.status.0, 200);
        publisher.publish("a 2\n".into(), 2_000).unwrap();

        let mut dec = RecordDecoder::new();
        let mut records = Vec::new();
        while records.is_empty() {
            match sub.next_chunk().unwrap() {
                Some(chunk) => records.extend(dec.feed(&chunk).unwrap()),
                None => panic!("stream ended before frame arrived"),
            }
        }
        assert_eq!(records[0].get("control"), None, "{:?}", records[0]);
        assert_eq!(records[0].get("offset").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(SampleFrame::from_json(&records[0]).unwrap().body, "a 2\n");
        server.shutdown();
    }

    #[test]
    fn subscriber_cap_returns_429_with_retry_after() {
        let bus = counting_bus(StreamBusConfig {
            max_subscribers_per_tenant: 0,
            ..Default::default()
        });
        let server = serve(bus);
        let client = ceems_http::Client::new();
        let resp = client
            .get(&format!(
                "{}/api/v1/stream/subscribe?topic=t",
                server.base_url()
            ))
            .unwrap();
        assert_eq!(resp.status.0, 429);
        assert!(resp.headers.contains_key("retry-after"));
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
