//! # ceems-stream — streaming ingest bus (S23)
//!
//! The paper's stack is pull-based: exporters are scraped, rules re-evaluate
//! wholesale on a timer, dashboards poll. This crate adds the push path:
//!
//! * [`frame`] — the wire format: length-prefixed JSON frames carrying one
//!   exporter render plus target labels and a per-publisher sequence number.
//! * [`bus`] — the [`bus::StreamBus`]: synchronous ingest through a sink
//!   (one frame = one WAL group commit) ordered per publisher, so different
//!   publishers ingest concurrently, and per-publisher ack/dedup for
//!   idempotent resume.
//! * [`publisher`] — the exporter-side client: buffers unacked frames,
//!   flushes them over the pooled keep-alive HTTP client, resumes by
//!   re-sending after reconnect (the bus dedups).
//! * [`http`] — `POST /api/v1/stream/push` mounted on the S20 router, with
//!   a `stream_push` trace stage.
//!
//! Downstream, the TSDB consumes pushed batches exactly like scraped ones
//! (the same `SeriesCache::ingest`, one cache per publisher), the rule engine
//! re-evaluates only the sub-DAG whose inputs arrived
//! (`RuleEngine::tick_incremental`), and the query frontend pushes per-step
//! deltas to live `query_live` subscribers.

pub mod bus;
pub mod frame;
pub mod http;
pub mod publisher;

pub use bus::{BusStats, IngestSink, PublishOutcome, SinkReceipt, StreamBus, StreamBusConfig};
pub use frame::SampleFrame;
pub use publisher::{register_publisher_metrics, PublisherStats, PushReport, StreamPublisher};
