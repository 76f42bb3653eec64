//! The in-process sample bus.
//!
//! One [`StreamBus`] owns every `(tenant, topic)` stream. A publish is a
//! *synchronous* ingest: the frame goes through the ingest sink (in the
//! stack, the publisher's `SeriesCache::ingest` — one WAL group commit per
//! frame) before the publisher's sequence number is acknowledged, so an
//! ack means the samples are durable. After ingest the frame is appended to
//! a bounded replay ring (for subscriber resume) and fanned out to live
//! subscriber [`StreamWriter`]s.
//!
//! Ordering is per `(tenant, topic, publisher)`, not per process: each
//! publisher's acked sequence has a lock of its own, held from the dedup
//! check to the ack, so one publisher's frames ingest one at a time and in
//! order while other publishers' frames ingest beside them. A frame with
//! `seq <= last_acked` is a duplicate — acknowledged again but not
//! re-ingested — which makes resend-after-reconnect idempotent. The bus
//! mutex guards only bookkeeping and is never held across the sink: after
//! ingest it assigns the topic offset, records the ack, appends to the ring
//! and fans out in one critical section, so offsets are contiguous per
//! topic, follow the order ingests complete, and a subscriber attaching
//! meanwhile gets each frame exactly once, replayed or live. Subscribers
//! resume with `from_offset` and the bus replays what the ring still holds,
//! emitting a gap control record when eviction outran the subscriber.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use ceems_http::StreamWriter;
use ceems_metrics::instruments::{Counter, Gauge};
use ceems_metrics::registry::Registry;
use ceems_metrics::{MetricType, Sink};
use parking_lot::Mutex;

use crate::frame::{gap_record, SampleFrame};

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

/// Bus limits.
#[derive(Clone, Copy, Debug)]
pub struct StreamBusConfig {
    /// Frames kept per topic for subscriber replay.
    pub ring_capacity: usize,
    /// Live subscribers allowed per tenant (backpressure: excess gets 429).
    pub max_subscribers_per_tenant: usize,
}

impl Default for StreamBusConfig {
    fn default() -> Self {
        StreamBusConfig {
            ring_capacity: 256,
            max_subscribers_per_tenant: 64,
        }
    }
}

/// Outcome of one publish.
#[derive(Clone, Debug, PartialEq)]
pub enum PublishOutcome {
    /// Frame ingested; `offset` is its topic offset.
    Ingested {
        /// Topic offset assigned to the frame.
        offset: u64,
        /// Sink receipt (sample count + arrived metric names).
        receipt: SinkReceipt,
    },
    /// `seq` at or below the last acked — re-acked, not re-ingested.
    Duplicate {
        /// Highest acked sequence for this publisher.
        last_seq: u64,
    },
}

/// Subscribe failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubscribeError {
    /// Tenant is at its live-subscriber cap.
    AtCapacity {
        /// The cap that was hit.
        cap: usize,
    },
}

/// One publisher's highest acked sequence (`None` until a frame of it is
/// ingested). Its lock is held from the dedup check to the ack; take it
/// with no bus lock held.
type PublisherSeq = Arc<Mutex<Option<u64>>>;

struct TopicState {
    ring: VecDeque<(u64, SampleFrame)>,
    next_offset: u64,
    last_seq: BTreeMap<String, PublisherSeq>,
    subscribers: Vec<StreamWriter>,
}

impl TopicState {
    fn new() -> TopicState {
        TopicState {
            ring: VecDeque::new(),
            next_offset: 1,
            last_seq: BTreeMap::new(),
            subscribers: Vec::new(),
        }
    }
}

#[derive(Default)]
struct BusInner {
    topics: BTreeMap<(String, String), TopicState>,
    /// Frames held across every topic's ring.
    ring_frames: usize,
}

/// Counter/gauge snapshot for tests and status endpoints.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BusStats {
    /// Frames ingested.
    pub published: u64,
    /// Duplicate frames re-acked.
    pub duplicates: u64,
    /// Frames evicted from replay rings.
    pub dropped: u64,
    /// Subscriptions that resumed from a non-zero offset.
    pub resumed: u64,
    /// Live subscribers right now.
    pub subscribers: u64,
}

/// The bus. Cheap to share (`Arc<StreamBus>`). One mutex guards the
/// bookkeeping — topics, offsets, rings, subscribers — and is never held
/// across the ingest sink; each publisher's acked sequence has its own lock,
/// so publishes of different publishers ingest concurrently.
pub struct StreamBus {
    cfg: StreamBusConfig,
    sink: IngestSink,
    inner: Mutex<BusInner>,
    published_total: Counter,
    duplicate_total: Counter,
    dropped_total: Counter,
    resumed_total: Counter,
    live_subscribers: Gauge,
    ring_occupancy: Gauge,
    publisher_lag_ms: Gauge,
}

impl StreamBus {
    /// Bus over an ingest sink.
    pub fn new(cfg: StreamBusConfig, sink: IngestSink) -> StreamBus {
        StreamBus {
            cfg,
            sink,
            inner: Mutex::new(BusInner::default()),
            published_total: Counter::new(),
            duplicate_total: Counter::new(),
            dropped_total: Counter::new(),
            resumed_total: Counter::new(),
            live_subscribers: Gauge::new(),
            ring_occupancy: Gauge::new(),
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
        let key = (tenant.to_string(), frame.topic.clone());
        let publisher: PublisherSeq = {
            let mut inner = self.inner.lock();
            let topic = inner.topics.entry(key.clone()).or_insert_with(TopicState::new);
            Arc::clone(topic.last_seq.entry(frame.publisher.clone()).or_default())
        };
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

        let mut inner = self.inner.lock();
        let BusInner {
            topics,
            ring_frames,
        } = &mut *inner;
        let topic = topics.get_mut(&key).expect("topics are never removed");
        self.publisher_lag_ms
            .set((now_ms - frame.produced_ms).max(0) as f64);

        let offset = topic.next_offset;
        topic.next_offset += 1;
        *last_seq = Some(frame.seq);

        // Fan out to live subscribers; a writer whose consumer vanished
        // (send fails) is shed here.
        let before = topic.subscribers.len();
        if before > 0 {
            let mut wire = Vec::new();
            frame.encode_into(&mut wire, Some(offset));
            topic.subscribers.retain(|w| w.send(wire.clone()));
        }
        let shed = before - topic.subscribers.len();

        topic.ring.push_back((offset, frame));
        *ring_frames += 1;
        while topic.ring.len() > self.cfg.ring_capacity {
            topic.ring.pop_front();
            *ring_frames -= 1;
            self.dropped_total.inc();
        }

        self.published_total.inc();
        self.ring_occupancy.set(*ring_frames as f64);
        if shed > 0 {
            self.live_subscribers.add(-(shed as f64));
        }
        Ok(PublishOutcome::Ingested { offset, receipt })
    }

    /// Attaches a live subscriber, replaying ring contents past
    /// `from_offset` first (0 = only new frames... and any retained
    /// history, since every retained offset is `> 0`; pass the last seen
    /// offset to resume). Emits a gap control record when eviction has
    /// outrun the resume point.
    pub fn subscribe(
        &self,
        tenant: &str,
        topic_name: &str,
        from_offset: u64,
        writer: StreamWriter,
    ) -> Result<u64, SubscribeError> {
        let mut inner = self.inner.lock();
        let tenant_subs: usize = inner
            .topics
            .iter()
            .filter(|((t, _), _)| t == tenant)
            .map(|(_, s)| s.subscribers.len())
            .sum();
        if tenant_subs >= self.cfg.max_subscribers_per_tenant {
            return Err(SubscribeError::AtCapacity {
                cap: self.cfg.max_subscribers_per_tenant,
            });
        }
        let topic = inner
            .topics
            .entry((tenant.to_string(), topic_name.to_string()))
            .or_insert_with(TopicState::new);

        if from_offset > 0 {
            self.resumed_total.inc();
        }
        if let Some(&(oldest, _)) = topic.ring.front() {
            // `from_offset` comes off the query string: it may be u64::MAX.
            if from_offset.saturating_add(1) < oldest {
                let mut wire = Vec::new();
                crate::frame::encode_record(&mut wire, &gap_record(from_offset, oldest));
                writer.send(wire);
            }
        }
        let mut replayed = 0;
        for (offset, frame) in topic.ring.iter() {
            if *offset > from_offset {
                let mut wire = Vec::new();
                frame.encode_into(&mut wire, Some(*offset));
                if !writer.send(wire) {
                    return Ok(replayed); // consumer already gone
                }
                replayed += 1;
            }
        }
        topic.subscribers.push(writer);
        self.live_subscribers.add(1.0);
        Ok(replayed)
    }

    /// Highest acked sequence for a publisher, if any. Waits for a frame of
    /// that publisher being ingested to finish.
    pub fn last_acked(&self, tenant: &str, topic: &str, publisher: &str) -> Option<u64> {
        let seq = self
            .inner
            .lock()
            .topics
            .get(&(tenant.to_string(), topic.to_string()))
            .and_then(|t| t.last_seq.get(publisher).cloned())?;
        let last = *seq.lock();
        last
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BusStats {
        BusStats {
            published: self.published_total.get() as u64,
            duplicates: self.duplicate_total.get() as u64,
            dropped: self.dropped_total.get() as u64,
            resumed: self.resumed_total.get() as u64,
            subscribers: self.live_subscribers.get() as u64,
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
                        "ceems_stream_dropped_frames_total",
                        "Frames evicted from replay rings before any resume",
                        MetricType::Counter,
                        bus.dropped_total.get(),
                    ),
                    (
                        "ceems_stream_resumed_sessions_total",
                        "Subscriptions that resumed from a prior offset",
                        MetricType::Counter,
                        bus.resumed_total.get(),
                    ),
                    (
                        "ceems_stream_live_subscribers",
                        "Currently attached stream subscribers",
                        MetricType::Gauge,
                        bus.live_subscribers.get(),
                    ),
                    (
                        "ceems_stream_ring_occupancy",
                        "Frames held across all replay rings",
                        MetricType::Gauge,
                        bus.ring_occupancy.get(),
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
    use crate::frame::RecordDecoder;
    use ceems_http::{stream_pair, BodyStream};
    use serde_json::Value;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    /// Every record queued on a subscriber stream so far.
    fn records(stream: &BodyStream) -> Vec<Value> {
        let (chunks, _closed) = stream.take_chunks();
        let mut dec = RecordDecoder::new();
        let mut records = Vec::new();
        for c in &chunks {
            records.extend(dec.feed(c).unwrap());
        }
        records
    }

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
        assert!(matches!(r1, PublishOutcome::Ingested { offset: 1, .. }));
        let r2 = bus.publish("acme", frame("n1", 1, "a 1\n"), 1_000).unwrap();
        assert_eq!(r2, PublishOutcome::Duplicate { last_seq: 1 });
        assert_eq!(bus.stats().published, 1);
        assert_eq!(bus.stats().duplicates, 1);
        assert_eq!(bus.last_acked("acme", "t", "n1"), Some(1));
        // Different tenant: independent sequence space.
        let r3 = bus.publish("umbrella", frame("n1", 1, "a 1\n"), 1_000).unwrap();
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
        assert_eq!(bus.last_acked("a", "t", "n1"), None);
        // Retry with the same seq succeeds and is NOT a duplicate.
        let r = bus.publish("a", frame("n1", 1, "ok 1\n"), 0).unwrap();
        assert!(matches!(r, PublishOutcome::Ingested { .. }));
    }

    #[test]
    fn ring_eviction_counts_drops_and_replay_reports_gap() {
        let cfg = StreamBusConfig {
            ring_capacity: 2,
            ..Default::default()
        };
        let bus = StreamBus::new(cfg, counting_sink());
        for seq in 1..=5 {
            bus.publish("a", frame("n1", seq, "m 1\n"), 0).unwrap();
        }
        assert_eq!(bus.stats().dropped, 3);

        // Resume from offset 1: ring now holds offsets 4..=5, so a gap
        // control record precedes the replay.
        let (body, writer) = stream_pair(1 << 20);
        let replayed = bus.subscribe("a", "t", 1, writer).unwrap();
        assert_eq!(replayed, 2);
        assert_eq!(bus.stats().resumed, 1);
        let records = records(&body);
        assert_eq!(records.len(), 3);
        assert_eq!(
            records[0].get("control").and_then(|v| v.as_str()),
            Some("gap")
        );
        assert_eq!(
            records[0].get("oldest_available").and_then(|v| v.as_u64()),
            Some(4)
        );
        assert_eq!(records[1].get("offset").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(records[2].get("offset").and_then(|v| v.as_u64()), Some(5));
    }

    #[test]
    fn fanout_reaches_live_subscriber_and_sheds_dead_ones() {
        let bus = StreamBus::new(StreamBusConfig::default(), counting_sink());
        let (stream, writer) = stream_pair(1 << 20);
        bus.subscribe("a", "t", 0, writer).unwrap();
        assert_eq!(bus.stats().subscribers, 1);

        bus.publish("a", frame("n1", 1, "m 1\n"), 0).unwrap();
        let records = records(&stream);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].get("offset").and_then(|v| v.as_u64()), Some(1));

        // Kill the consumer; next publish sheds the writer.
        stream.abort();
        bus.publish("a", frame("n1", 2, "m 2\n"), 0).unwrap();
        assert_eq!(bus.stats().subscribers, 0);
    }

    #[test]
    fn per_tenant_subscriber_cap() {
        let cfg = StreamBusConfig {
            max_subscribers_per_tenant: 1,
            ..Default::default()
        };
        let bus = StreamBus::new(cfg, counting_sink());
        let (_b1, w1) = stream_pair(1 << 20);
        bus.subscribe("a", "t", 0, w1).unwrap();
        let (_b2, w2) = stream_pair(1 << 20);
        assert_eq!(
            bus.subscribe("a", "t", 0, w2),
            Err(SubscribeError::AtCapacity { cap: 1 })
        );
        // Another tenant is unaffected.
        let (_b3, w3) = stream_pair(1 << 20);
        assert!(bus.subscribe("b", "t", 0, w3).is_ok());
    }

    /// Four threads publish for eight publishers, two each, frames
    /// interleaved; every frame is re-sent once after its ack and one frame
    /// fails before its retry succeeds. A subscriber attaches halfway
    /// through one thread's run while the other three keep publishing.
    #[test]
    fn concurrent_publishers_ingest_once_in_order_with_contiguous_offsets() {
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
        let cfg = StreamBusConfig {
            ring_capacity: FRAMES as usize,
            ..Default::default()
        };
        let bus = StreamBus::new(cfg, sink);
        let (stream, writer) = stream_pair(1 << 24);
        let attach = Barrier::new(2);

        let offsets: Vec<u64> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (bus, attach) = (&bus, &attach);
                    s.spawn(move || {
                        let mine = [format!("p{t}"), format!("p{}", t + THREADS)];
                        let mut offsets = Vec::new();
                        for seq in 1..=SEQS {
                            for p in &mine {
                                if p == "p3" && seq == 10 {
                                    assert!(bus.publish("a", frame(p, seq, "bad\n"), 0).is_err());
                                }
                                match bus.publish("a", frame(p, seq, "m 1\n"), 0).unwrap() {
                                    PublishOutcome::Ingested { offset, .. } => offsets.push(offset),
                                    other => panic!("{p} seq {seq}: {other:?}"),
                                }
                                assert_eq!(
                                    bus.publish("a", frame(p, seq, "m 1\n"), 0).unwrap(),
                                    PublishOutcome::Duplicate { last_seq: seq }
                                );
                            }
                            if t == 0 && seq == SEQS / 2 {
                                attach.wait(); // the subscriber attaches
                                attach.wait(); // ...and has attached
                            }
                        }
                        offsets
                    })
                })
                .collect();
            attach.wait();
            bus.subscribe("a", "t", 0, writer).unwrap();
            attach.wait();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });

        // Every frame ingested once; the failed attempt left nothing.
        let mut ingested = ingested.lock().clone();
        ingested.sort();
        let mut expected: Vec<(String, u64)> = (0..2 * THREADS)
            .flat_map(|p| (1..=SEQS).map(move |seq| (format!("p{p}"), seq)))
            .collect();
        expected.sort();
        assert_eq!(ingested, expected);
        let stats = bus.stats();
        assert_eq!((stats.published, stats.duplicates), (FRAMES, FRAMES));

        let mut acked = offsets.clone();
        acked.sort_unstable();
        assert_eq!(acked, (1..=FRAMES).collect::<Vec<_>>());

        // Replay then live: each offset once, in increasing order, and each
        // publisher's frames in sequence order.
        let records = records(&stream);
        let seen: Vec<u64> = records.iter().map(|r| r["offset"].as_u64().unwrap()).collect();
        assert_eq!(seen, (1..=FRAMES).collect::<Vec<_>>());
        let mut next_seq: BTreeMap<String, u64> = BTreeMap::new();
        for r in &records {
            let f = SampleFrame::from_json(r).unwrap();
            let next = next_seq.entry(f.publisher.clone()).or_insert(1);
            assert_eq!(f.seq, *next, "{} out of order", f.publisher);
            *next += 1;
        }

        for p in 0..2 * THREADS {
            assert_eq!(bus.last_acked("a", "t", &format!("p{p}")), Some(SEQS));
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
            assert!(
                matches!(b, Ok(PublishOutcome::Ingested { offset: 1, .. })),
                "{b:?}"
            );
            // Offsets follow the order ingests complete.
            let a = a.join().unwrap();
            assert!(
                matches!(a, Ok(PublishOutcome::Ingested { offset: 2, .. })),
                "{a:?}"
            );
        });
    }

    #[test]
    fn ring_occupancy_counts_frames_across_topics() {
        let cfg = StreamBusConfig {
            ring_capacity: 2,
            ..Default::default()
        };
        let bus = StreamBus::new(cfg, counting_sink());
        let on_topic = |topic: &str, seq: u64| {
            let f = SampleFrame {
                topic: topic.into(),
                ..frame("n1", seq, "m 1\n")
            };
            bus.publish("a", f, 0).unwrap();
            bus.ring_occupancy.get()
        };
        assert_eq!(on_topic("t", 1), 1.0);
        assert_eq!(on_topic("u", 1), 2.0);
        assert_eq!(on_topic("t", 2), 3.0);
        assert_eq!(on_topic("t", 3), 3.0, "one evicted, one added");
        assert_eq!(on_topic("u", 2), 4.0);
    }
}
