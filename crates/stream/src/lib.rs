//! # ceems-stream — streaming ingest bus (S23)
//!
//! The paper's stack is pull-based: exporters are scraped, rules re-evaluate
//! wholesale on a timer, dashboards poll. This crate adds the push path,
//! in process only:
//!
//! * [`frame`] — the [`SampleFrame`]: one exporter render plus target
//!   labels and a per-publisher sequence number.
//! * [`bus`] — the [`bus::StreamBus`]: synchronous ingest through a sink
//!   (one frame = one WAL group commit) ordered per publisher, so different
//!   publishers ingest concurrently, and per-publisher ack/dedup so a
//!   resent frame is not ingested twice.
//!
//! `CeemsStack::push_pass` renders every exporter and publishes the frames
//! on the stack's bus; nothing publishes from outside the process.
//! Downstream, the TSDB consumes pushed batches exactly like scraped ones
//! (the same `SeriesCache::ingest`, one cache per publisher), the rule engine
//! re-evaluates only the sub-DAG whose inputs arrived
//! (`RuleEngine::tick_incremental`), and the query frontend pushes per-step
//! deltas to live `query_live` subscribers.

pub mod bus;
pub mod frame;

pub use bus::{BusStats, IngestSink, PublishOutcome, SinkReceipt, StreamBus, StreamBusConfig};
pub use frame::SampleFrame;
