//! Publisher-side client for the sample bus.
//!
//! A [`StreamPublisher`] wraps the pooled keep-alive [`Client`] (S20) and
//! owns the resume protocol: frames are assigned monotonic sequence numbers
//! at enqueue time and buffered until the bus acknowledges them. A flush
//! batches every unacked frame into one `POST /api/v1/stream/push` body —
//! after a reconnect that naturally *re-sends* previously delivered frames,
//! which the bus re-acks as duplicates without re-ingesting. The publisher
//! therefore needs no connection-level state at all: "resume" is just
//! "flush again".

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ceems_http::Client;
use ceems_metrics::{MetricType, Registry, Sink};

use crate::frame::SampleFrame;

/// Shared delivery stats for one publisher, registrable on the exporter's
/// `/metrics`: buffer pressure and loss stay visible even while the bus is
/// unreachable (exactly when they matter).
#[derive(Debug, Default)]
pub struct PublisherStats {
    dropped: AtomicU64,
    resumed: AtomicU64,
    unacked: AtomicU64,
    high_watermark: AtomicU64,
}

impl PublisherStats {
    /// Frames dropped oldest-first because the unacked buffer hit its cap.
    pub fn dropped_frames(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Flushes that re-sent previously attempted frames (resumes).
    pub fn resumed_flushes(&self) -> u64 {
        self.resumed.load(Ordering::Relaxed)
    }

    /// Frames currently awaiting acknowledgement.
    pub fn unacked(&self) -> u64 {
        self.unacked.load(Ordering::Relaxed)
    }

    /// Largest unacked-buffer depth ever observed.
    pub fn unacked_high_watermark(&self) -> u64 {
        self.high_watermark.load(Ordering::Relaxed)
    }

    fn set_unacked(&self, n: u64) {
        self.unacked.store(n, Ordering::Relaxed);
        self.high_watermark.fetch_max(n, Ordering::Relaxed);
    }
}

/// Registers one publisher's delivery stats on `registry` (served from the
/// exporter's `/metrics`), labelled with the publisher identity.
pub fn register_publisher_metrics(
    registry: &Registry,
    publisher: &str,
    stats: Arc<PublisherStats>,
) {
    let id = publisher.to_string();
    registry.register(
        format!("stream_publisher_{publisher}"),
        Arc::new(move |out: &mut dyn Sink| {
            for (name, help, metric_type, v) in [
                (
                    "ceems_stream_publisher_unacked_frames",
                    "Frames buffered awaiting bus acknowledgement.",
                    MetricType::Gauge,
                    stats.unacked(),
                ),
                (
                    "ceems_stream_publisher_unacked_high_watermark",
                    "Largest unacked-buffer depth ever observed.",
                    MetricType::Gauge,
                    stats.unacked_high_watermark(),
                ),
                (
                    "ceems_stream_publisher_dropped_frames_total",
                    "Frames dropped oldest-first at the unacked-buffer cap.",
                    MetricType::Counter,
                    stats.dropped_frames(),
                ),
                (
                    "ceems_stream_publisher_resumed_flushes_total",
                    "Flushes that re-sent previously attempted frames.",
                    MetricType::Counter,
                    stats.resumed_flushes(),
                ),
            ] {
                out.family(name, help, metric_type);
                out.sample("", &[("publisher", &id)], v as f64);
            }
        }),
    );
}

/// Result of one successful flush.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PushReport {
    /// Highest sequence the bus has acknowledged for this publisher.
    pub acked_seq: u64,
    /// Frames carried in the push body.
    pub sent_frames: usize,
    /// Frames the bus had already seen (resume overlap).
    pub duplicates: u64,
    /// Samples ingested by this push.
    pub samples: u64,
}

/// Buffering publisher for one `(topic, publisher)` identity.
pub struct StreamPublisher {
    client: Client,
    push_url: String,
    topic: String,
    publisher: String,
    instance: String,
    job: String,
    extra_labels: Vec<(String, String)>,
    next_seq: u64,
    unacked: VecDeque<SampleFrame>,
    max_buffered: usize,
    /// Highest seq ever included in an attempted push body; a later flush
    /// whose oldest frame is at or below this is a resume (re-send).
    attempted_through: u64,
    /// Delivery stats, shared with `/metrics` registrations.
    stats: Arc<PublisherStats>,
}

/// Default cap on frames buffered while the bus is unreachable.
pub const DEFAULT_PUBLISHER_BUFFER: usize = 512;

impl StreamPublisher {
    /// Publisher pushing to `base_url` (e.g. `http://host:port`), tagged
    /// with the target labels a scrape of this exporter would stamp.
    pub fn new(
        base_url: &str,
        topic: &str,
        publisher: &str,
        instance: &str,
        job: &str,
        extra_labels: Vec<(String, String)>,
    ) -> StreamPublisher {
        StreamPublisher {
            client: Client::new(),
            push_url: format!("{}/api/v1/stream/push", base_url.trim_end_matches('/')),
            topic: topic.to_string(),
            publisher: publisher.to_string(),
            instance: instance.to_string(),
            job: job.to_string(),
            extra_labels,
            next_seq: 1,
            unacked: VecDeque::new(),
            max_buffered: DEFAULT_PUBLISHER_BUFFER,
            attempted_through: 0,
            stats: Arc::new(PublisherStats::default()),
        }
    }

    /// This publisher's delivery stats (for `/metrics` registration via
    /// [`register_publisher_metrics`]).
    pub fn stats(&self) -> Arc<PublisherStats> {
        self.stats.clone()
    }

    /// Frames dropped at the buffer cap (visible data loss).
    pub fn dropped_frames(&self) -> u64 {
        self.stats.dropped_frames()
    }

    /// Flushes that re-sent previously attempted frames.
    pub fn resumed_flushes(&self) -> u64 {
        self.stats.resumed_flushes()
    }

    /// Replaces the HTTP client (to attach auth, fault plans, headers).
    pub fn with_client(mut self, client: Client) -> StreamPublisher {
        self.client = client;
        self
    }

    /// Frames awaiting acknowledgement.
    pub fn pending(&self) -> usize {
        self.unacked.len()
    }

    /// Next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Buffers one exporter render for delivery. Oldest frames are dropped
    /// (and counted) once the buffer cap is hit.
    pub fn enqueue(&mut self, body: String, produced_ms: i64) {
        let frame = SampleFrame {
            topic: self.topic.clone(),
            publisher: self.publisher.clone(),
            seq: self.next_seq,
            instance: self.instance.clone(),
            job: self.job.clone(),
            extra_labels: self.extra_labels.clone(),
            body,
            produced_ms,
        };
        self.next_seq += 1;
        self.unacked.push_back(frame);
        while self.unacked.len() > self.max_buffered {
            self.unacked.pop_front();
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.set_unacked(self.unacked.len() as u64);
    }

    /// Sends every unacked frame in one push body and drops the acked
    /// prefix. On transport error the frames stay buffered for the next
    /// flush (the resume path).
    pub fn flush(&mut self) -> Result<PushReport, String> {
        if self.unacked.is_empty() {
            return Ok(PushReport {
                acked_seq: self.next_seq.saturating_sub(1),
                ..PushReport::default()
            });
        }
        let oldest = self.unacked.front().map(|f| f.seq).unwrap_or(0);
        if oldest != 0 && oldest <= self.attempted_through {
            self.stats.resumed.fetch_add(1, Ordering::Relaxed);
        }
        self.attempted_through = self.unacked.back().map(|f| f.seq).unwrap_or(0);

        let mut body = Vec::new();
        let sent_frames = self.unacked.len();
        for f in &self.unacked {
            f.encode_into(&mut body);
        }
        let resp = self
            .client
            .post(&self.push_url, body, "application/x-ceems-frames")
            .map_err(|e| format!("push failed: {e}"))?;
        if !resp.status.is_success() {
            return Err(format!("push returned {}", resp.status.0));
        }
        let v: serde_json::Value = serde_json::from_slice(&resp.body)
            .map_err(|e| format!("bad push ack: {e}"))?;
        let acked = v
            .get("acked")
            .and_then(|a| a.get(self.publisher.as_str()))
            .and_then(|s| s.as_u64())
            .ok_or("push ack missing publisher seq")?;
        while self.unacked.front().map(|f| f.seq <= acked).unwrap_or(false) {
            self.unacked.pop_front();
        }
        self.stats.set_unacked(self.unacked.len() as u64);
        Ok(PushReport {
            acked_seq: acked,
            sent_frames,
            duplicates: v.get("duplicates").and_then(|d| d.as_u64()).unwrap_or(0),
            samples: v.get("ingested").and_then(|d| d.as_u64()).unwrap_or(0),
        })
    }

    /// Enqueue + flush in one call — the common per-interval push.
    pub fn publish(&mut self, body: String, produced_ms: i64) -> Result<PushReport, String> {
        self.enqueue(body, produced_ms);
        self.flush()
    }
}
