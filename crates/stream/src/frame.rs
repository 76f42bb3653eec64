//! The unit the sample bus carries (S23).
//!
//! A *frame* is one exporter render: exposition text plus the target labels
//! a scrape pass would have stamped (`instance`, `job`, extra group labels)
//! and a per-publisher monotonic sequence number. Frames are handed to
//! [`crate::StreamBus::publish`] in process; they have no wire encoding.

/// One published exporter render.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleFrame {
    /// Topic the frame is published to (per-tenant namespace).
    pub topic: String,
    /// Publisher identity; sequence numbers are monotonic per publisher.
    pub publisher: String,
    /// Monotonic sequence number, starting at 1. The bus acks the highest
    /// seq it has ingested for the publisher and treats any seq at or below
    /// it as a duplicate (acknowledged again, not re-ingested), so
    /// resend-after-reconnect is idempotent; a skipped seq is not waited
    /// for.
    pub seq: u64,
    /// `instance` label stamped on every sample (as a scrape would).
    pub instance: String,
    /// `job` label stamped on every sample.
    pub job: String,
    /// Extra target-group labels (e.g. `nodegroup`).
    pub extra_labels: Vec<(String, String)>,
    /// Exposition text payload.
    pub body: String,
    /// Producer timestamp (ms) — used for samples without explicit
    /// timestamps and for the publisher-lag gauge.
    pub produced_ms: i64,
}
