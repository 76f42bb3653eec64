//! The in-process sample bus.
//!
//! One [`StreamBus`] acknowledges every `(tenant, topic, publisher)`
//! sequence. A publish is a *synchronous* ingest: the frame goes through the
//! ingest sink (in the stack, the publisher's `SeriesCache::ingest` — one
//! WAL group commit per frame) before the publisher's sequence number is
//! acknowledged, so an ack means the samples are durable.
//!
//! Ordering is per `(tenant, topic, publisher)`, not per process: each
//! publisher's acked sequence has a lock of its own, held from the dedup
//! check to the ack, so one publisher's frames ingest one at a time and in
//! order while other publishers' frames ingest beside them. A frame with
//! `seq <= last_acked` is a duplicate — acknowledged again but not
//! re-ingested — which makes resend-after-reconnect idempotent. The bus
//! mutex guards only the map from publisher to that lock and is never held
//! across the sink.

use std::collections::BTreeMap;
use std::sync::Arc;

use ceems_metrics::instruments::{Counter, Gauge};
use ceems_metrics::registry::Registry;
use ceems_metrics::{MetricType, Sink};
use parking_lot::Mutex;

use crate::frame::SampleFrame;

/// What an ingest sink reports back for one frame.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SinkReceipt {
    /// Samples ingested from the frame.
    pub samples: u64,
    /// Distinct metric names that arrived — feeds incremental rule
    /// evaluation (S23: only the affected rule sub-DAG re-evaluates).
    pub names: Vec<String>,
}

/// Ingest callback: parse + append the frame, return what arrived.
/// Must be atomic with respect to partial failure (a failed frame must not
/// leave half its samples behind, or retry would duplicate them).
///
/// The bus calls it with no bus lock held: it may run concurrently for
/// different publishers (different `(tenant, topic, publisher)`), and never
/// concurrently for one publisher, whose frames reach it in sequence order.
pub type IngestSink = Arc<dyn Fn(&SampleFrame) -> Result<SinkReceipt, String> + Send + Sync>;

/// Bus settings. Neither field is read: the bus keeps no frames and serves
/// no subscribers. Both stay so that code naming them, `e2ebench`'s
/// pipeline among it, still builds.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamBusConfig {
    /// Not read.
    pub ring_capacity: usize,
    /// Not read.
    pub max_subscribers_per_tenant: usize,
}

/// Outcome of one publish.
#[derive(Clone, Debug, PartialEq)]
pub enum PublishOutcome {
    /// Frame ingested.
    Ingested {
        /// Sink receipt (sample count + arrived metric names).
        receipt: SinkReceipt,
    },
    /// `seq` at or below the last acked — re-acked, not re-ingested.
    Duplicate {
        /// Highest acked sequence for this publisher.
        last_seq: u64,
    },
}

/// One publisher's highest acked sequence (`None` until a frame of it is
/// ingested). Its lock is held from the dedup check to the ack; take it
/// with no bus lock held.
type PublisherSeq = Arc<Mutex<Option<u64>>>;

/// Counter snapshot for tests and status endpoints.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BusStats {
    /// Frames ingested.
    pub published: u64,
    /// Duplicate frames re-acked.
    pub duplicates: u64,
}

/// The bus. Cheap to share (`Arc<StreamBus>`). One mutex guards the map of
/// `(tenant, topic, publisher)` to its acked sequence and is never held
/// across the ingest sink; each acked sequence has its own lock, so
/// publishes of different publishers ingest concurrently.
pub struct StreamBus {
    sink: IngestSink,
    publishers: Mutex<BTreeMap<(String, String, String), PublisherSeq>>,
    published_total: Counter,
    duplicate_total: Counter,
    publisher_lag_ms: Gauge,
}

impl StreamBus {
    /// Bus over an ingest sink. `_cfg` is not read (see [`StreamBusConfig`]).
    pub fn new(_cfg: StreamBusConfig, sink: IngestSink) -> StreamBus {
        StreamBus {
            sink,
            publishers: Mutex::default(),
            published_total: Counter::new(),
            duplicate_total: Counter::new(),
            publisher_lag_ms: Gauge::new(),
        }
    }

    /// Publishes one frame for `tenant` at wall/sim time `now_ms`.
    ///
    /// Sink errors propagate without advancing the ack, so the publisher's
    /// retry re-offers the same frame. Blocks while an earlier frame of the
    /// same `(tenant, topic, publisher)` is being ingested, never on another
    /// publisher's ingest.
    pub fn publish(
        &self,
        tenant: &str,
        frame: SampleFrame,
        now_ms: i64,
    ) -> Result<PublishOutcome, String> {
        let key = (
            tenant.to_string(),
            frame.topic.clone(),
            frame.publisher.clone(),
        );
        let publisher: PublisherSeq = Arc::clone(self.publishers.lock().entry(key).or_default());
        // Held until the ack: the publisher's next frame waits here, so
        // `seq <= last` stays true or false across the sink call.
        let mut last_seq = publisher.lock();
        if let Some(last) = *last_seq {
            if frame.seq <= last {
                self.duplicate_total.inc();
                return Ok(PublishOutcome::Duplicate { last_seq: last });
            }
        }

        // Synchronous ingest: ack implies durable (one frame = one batch =
        // one WAL group commit).
        let receipt = (self.sink)(&frame)?;

        *last_seq = Some(frame.seq);
        self.publisher_lag_ms
            .set((now_ms - frame.produced_ms).max(0) as f64);
        self.published_total.inc();
        Ok(PublishOutcome::Ingested { receipt })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BusStats {
        BusStats {
            published: self.published_total.get() as u64,
            duplicates: self.duplicate_total.get() as u64,
        }
    }

    /// Registers S17 health instruments for the bus.
    pub fn register_metrics(self: &Arc<Self>, registry: &Registry) {
        let bus = Arc::clone(self);
        registry.register(
            "ceems_stream_bus",
            Arc::new(move |out: &mut dyn Sink| {
                for (name, help, metric_type, v) in [
                    (
                        "ceems_stream_published_frames_total",
                        "Frames ingested through the stream bus",
                        MetricType::Counter,
                        bus.published_total.get(),
                    ),
                    (
                        "ceems_stream_duplicate_frames_total",
                        "Re-sent frames acknowledged without re-ingest",
                        MetricType::Counter,
                        bus.duplicate_total.get(),
                    ),
                    (
                        "ceems_stream_publisher_lag_ms",
                        "Ingest time minus produce time of the last frame",
                        MetricType::Gauge,
                        bus.publisher_lag_ms.get(),
                    ),
                ] {
                    out.family(name, help, metric_type);
                    out.sample("", &[], v);
                }
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn counting_sink() -> IngestSink {
        Arc::new(|f: &SampleFrame| {
            Ok(SinkReceipt {
                samples: f.body.lines().count() as u64,
                names: f
                    .body
                    .lines()
                    .filter_map(|l| l.split_whitespace().next())
                    .map(|s| s.to_string())
                    .collect(),
            })
        })
    }

    fn frame(publisher: &str, seq: u64, body: &str) -> SampleFrame {
        SampleFrame {
            topic: "t".into(),
            publisher: publisher.into(),
            seq,
            instance: format!("{publisher}:9100"),
            job: "ceems".into(),
            extra_labels: vec![],
            body: body.into(),
            produced_ms: 1_000,
        }
    }

    #[test]
    fn duplicate_seq_is_acked_not_reingested() {
        let bus = StreamBus::new(StreamBusConfig::default(), counting_sink());
        let r1 = bus.publish("acme", frame("n1", 1, "a 1\n"), 1_000).unwrap();
        assert!(matches!(r1, PublishOutcome::Ingested { .. }));
        let r2 = bus.publish("acme", frame("n1", 1, "a 1\n"), 1_000).unwrap();
        assert_eq!(r2, PublishOutcome::Duplicate { last_seq: 1 });
        assert_eq!(bus.stats().published, 1);
        assert_eq!(bus.stats().duplicates, 1);
        // Different tenant: independent sequence space.
        let r3 = bus
            .publish("umbrella", frame("n1", 1, "a 1\n"), 1_000)
            .unwrap();
        assert!(matches!(r3, PublishOutcome::Ingested { .. }));
    }

    #[test]
    fn sink_failure_does_not_advance_ack() {
        let sink: IngestSink = Arc::new(|f: &SampleFrame| {
            if f.body.contains("bad") {
                Err("parse error".into())
            } else {
                Ok(SinkReceipt::default())
            }
        });
        let bus = StreamBus::new(StreamBusConfig::default(), sink);
        assert!(bus.publish("a", frame("n1", 1, "bad 1\n"), 0).is_err());
        assert_eq!(bus.stats().published, 0);
        // Retry with the same seq succeeds and is NOT a duplicate.
        let r = bus.publish("a", frame("n1", 1, "ok 1\n"), 0).unwrap();
        assert!(matches!(r, PublishOutcome::Ingested { .. }));
    }

    /// Four threads publish for eight publishers, two each, frames
    /// interleaved; every frame is re-sent once after its ack and one frame
    /// fails before its retry succeeds.
    #[test]
    fn concurrent_publishers_ingest_once_in_order() {
        const THREADS: usize = 4;
        const SEQS: u64 = 40;
        const FRAMES: u64 = 2 * THREADS as u64 * SEQS;
        let ingested: Arc<Mutex<Vec<(String, u64)>>> = Arc::default();
        let log = Arc::clone(&ingested);
        let sink: IngestSink = Arc::new(move |f: &SampleFrame| {
            if f.body.contains("bad") {
                return Err("parse error".into());
            }
            log.lock().push((f.publisher.clone(), f.seq));
            Ok(SinkReceipt::default())
        });
        let bus = StreamBus::new(StreamBusConfig::default(), sink);

        std::thread::scope(|s| {
            for t in 0..THREADS {
                let bus = &bus;
                s.spawn(move || {
                    let mine = [format!("p{t}"), format!("p{}", t + THREADS)];
                    for seq in 1..=SEQS {
                        for p in &mine {
                            if p == "p3" && seq == 10 {
                                assert!(bus.publish("a", frame(p, seq, "bad\n"), 0).is_err());
                            }
                            // The failed attempt was not acked: its retry ingests.
                            match bus.publish("a", frame(p, seq, "m 1\n"), 0).unwrap() {
                                PublishOutcome::Ingested { .. } => {}
                                other => panic!("{p} seq {seq}: {other:?}"),
                            }
                            assert_eq!(
                                bus.publish("a", frame(p, seq, "m 1\n"), 0).unwrap(),
                                PublishOutcome::Duplicate { last_seq: seq }
                            );
                        }
                    }
                });
            }
        });

        // Every frame ingested once; the failed attempt left nothing.
        let ingested = ingested.lock().clone();
        let mut sorted = ingested.clone();
        sorted.sort();
        let mut expected: Vec<(String, u64)> = (0..2 * THREADS)
            .flat_map(|p| (1..=SEQS).map(move |seq| (format!("p{p}"), seq)))
            .collect();
        expected.sort();
        assert_eq!(sorted, expected);
        let stats = bus.stats();
        assert_eq!((stats.published, stats.duplicates), (FRAMES, FRAMES));

        // Each publisher's frames reached the sink in sequence order.
        let mut next_seq: BTreeMap<String, u64> = BTreeMap::new();
        for (p, seq) in &ingested {
            let next = next_seq.entry(p.clone()).or_insert(1);
            assert_eq!(*seq, *next, "{p} out of order");
            *next += 1;
        }

        for p in 0..2 * THREADS {
            assert_eq!(
                bus.publish("a", frame(&format!("p{p}"), SEQS, "m 1\n"), 0)
                    .unwrap(),
                PublishOutcome::Duplicate { last_seq: SEQS }
            );
        }
    }

    /// Publisher A's ingest cannot finish until publisher B's publish has
    /// returned. A bus that held one lock across the sink would park B
    /// behind A until A's wait timed out.
    #[test]
    fn one_publishers_ingest_does_not_wait_for_anothers() {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let sink: IngestSink = Arc::new(move |f: &SampleFrame| {
            if f.publisher == "A" {
                entered_tx.send(()).unwrap();
                release_rx
                    .lock()
                    .recv_timeout(Duration::from_secs(5))
                    .map_err(|_| "B's publish did not return".to_string())?;
            }
            Ok(SinkReceipt::default())
        });
        let bus = StreamBus::new(StreamBusConfig::default(), sink);
        std::thread::scope(|s| {
            let a = s.spawn(|| bus.publish("a", frame("A", 1, "m 1\n"), 0));
            entered_rx.recv().unwrap();
            let b = bus.publish("a", frame("B", 1, "m 1\n"), 0);
            release_tx.send(()).unwrap();
            assert!(matches!(b, Ok(PublishOutcome::Ingested { .. })), "{b:?}");
            let a = a.join().unwrap();
            assert!(matches!(a, Ok(PublishOutcome::Ingested { .. })), "{a:?}");
        });
    }
}
