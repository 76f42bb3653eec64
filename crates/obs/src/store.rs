//! Durable sampled trace store.
//!
//! S17 introduced span-based query traces, but they only ever existed inline
//! in a response body behind `?trace=1` — close the tab and the trace is
//! gone. This module makes tracing always-on and durable:
//!
//! - [`TraceSampler`] decides *which* finished traces to keep: head-based
//!   probabilistic sampling (a stable hash of the trace ID against
//!   `obs.trace_sample_rate`) plus tail capture of every slow query.
//! - [`TraceStore`] is a byte-bounded ring buffer of finished
//!   [`TraceReport`]s over the shared segmented log
//!   ([`ceems_relstore::log`]), so stored traces survive restarts and are
//!   servable from `GET /api/v1/traces/{id}`. Storing a span is an
//!   in-memory append, readable at once; the store's flusher thread appends
//!   each step's spans as one synced frame after [`TraceStore::gc`], off
//!   the request path.
//! - [`TraceSink`] bundles the two behind the single call components make
//!   when a traced request finishes ([`TraceSink::offer`]).
//!
//! A trace ID can produce several stored spans — the LB, the qfe and the
//! TSDB each ship their own `TraceReport` for the same request — so the
//! store keys spans by an internal sequence number and groups by trace ID on
//! read. Head sampling hashes only the ID, which every hop shares via the
//! `x-ceems-trace-id` header, so a request is either sampled at *every* hop
//! or at none: stored traces are always complete.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use ceems_http::resilience::{fnv1a, splitmix64};
use ceems_metrics::{Counter, MetricType, Registry, Sink};
use ceems_relstore::log::{self, FsyncMode, Log, WalOptions, WalPosition};
use parking_lot::Mutex;

use crate::trace::TraceReport;

/// Clock used for trace timestamps and age-based GC. The stack passes its
/// simulated clock so stored traces and eviction are deterministic under a
/// fixed seed; standalone servers default to wall time.
pub type TraceNowFn = Arc<dyn Fn() -> i64 + Send + Sync>;

fn wall_now_ms() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as i64)
        .unwrap_or(0)
}

/// Head-sampling + tail-capture policy for finished traces.
#[derive(Clone, Debug)]
pub struct TraceSampler {
    rate: f64,
    slow_ms: f64,
}

impl TraceSampler {
    /// `rate` is the head-sampling probability in `[0, 1]`; `slow_ms` is the
    /// tail-capture threshold (every trace slower than this is kept
    /// regardless of the head decision; `<= 0` disables tail capture).
    pub fn new(rate: f64, slow_ms: f64) -> TraceSampler {
        TraceSampler {
            rate: rate.clamp(0.0, 1.0),
            slow_ms,
        }
    }

    /// The head-sampling probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The tail-capture threshold in milliseconds.
    pub fn slow_ms(&self) -> f64 {
        self.slow_ms
    }

    /// Head decision: a deterministic hash of the trace ID against the rate,
    /// so every component reaches the same verdict for the same request and
    /// reruns with a pinned trace ID reproduce exactly.
    pub fn head_sample(&self, trace_id: &str) -> bool {
        self.head_sample_at(trace_id, self.rate)
    }

    /// Head decision against an explicit rate — the per-tenant override
    /// path (`obs.tenant_sample_rates`). Same hash, so a tenant pinned to
    /// the global rate decides identically to [`TraceSampler::head_sample`].
    ///
    /// The hash, FNV-1a 64 of the ID mixed by SplitMix64, is fixed by its
    /// definition, so builds by different toolchains agree on every trace
    /// (FNV-1a's top bits alone barely move for IDs that differ at the end).
    pub fn head_sample_at(&self, trace_id: &str, rate: f64) -> bool {
        let rate = rate.clamp(0.0, 1.0);
        if rate >= 1.0 {
            return true;
        }
        if rate <= 0.0 {
            return false;
        }
        (splitmix64(fnv1a(trace_id.as_bytes())) as f64 / u64::MAX as f64) < rate
    }

    /// Tail decision: keep every slow trace.
    pub fn tail_capture(&self, total_ms: f64) -> bool {
        self.slow_ms > 0.0 && total_ms >= self.slow_ms
    }
}

/// Size/age bounds for the trace ring buffer.
#[derive(Clone, Copy, Debug)]
pub struct TraceStoreConfig {
    /// Total bytes of stored report JSON the ring may hold before evicting
    /// oldest-first.
    pub max_bytes: u64,
    /// Spans older than this (against the store's clock) are evicted by
    /// [`TraceStore::gc`]. `<= 0` disables age eviction.
    pub max_age_ms: i64,
}

impl Default for TraceStoreConfig {
    fn default() -> Self {
        TraceStoreConfig {
            max_bytes: 4 << 20,
            max_age_ms: 3_600_000,
        }
    }
}

/// One held span.
#[derive(Clone)]
struct Span {
    seq: u64,
    id: String,
    component: String,
    endpoint: String,
    tenant: String,
    ts_ms: i64,
    total_ms: f64,
    /// The report as JSON; its length is what the byte bound counts.
    report: String,
}

impl Span {
    fn json(&self) -> serde_json::Value {
        let report: serde_json::Value = serde_json::from_str(&self.report).unwrap_or_default();
        serde_json::json!({
            "component": self.component,
            "endpoint": self.endpoint,
            "tenant": self.tenant,
            "tsMs": self.ts_ms,
            "report": report,
        })
    }

    fn summary_json(&self) -> serde_json::Value {
        serde_json::json!({
            "traceId": self.id,
            "component": self.component,
            "endpoint": self.endpoint,
            "tenant": self.tenant,
            "tsMs": self.ts_ms,
            "totalMs": self.total_ms,
        })
    }
}

/// Starts every frame of the store's log. The relational store of older
/// builds wrote JSON arrays there, which never decode as frames.
const FRAME_TAG: &[u8; 4] = b"spn1";

/// One flush: the spans stored since the last, stamped with the ring's
/// oldest held seq, the watermark every older span is evicted below.
struct Frame {
    watermark: u64,
    spans: Vec<Arc<Span>>,
}

impl log::Record for Frame {
    fn put_payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(FRAME_TAG);
        out.extend_from_slice(&self.watermark.to_le_bytes());
        for s in &self.spans {
            for word in [s.seq, s.ts_ms as u64, s.total_ms.to_bits()] {
                out.extend_from_slice(&word.to_le_bytes());
            }
            for text in [&s.id, &s.component, &s.endpoint, &s.tenant, &s.report] {
                out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                out.extend_from_slice(text.as_bytes());
            }
        }
    }
}

/// A frame's watermark and spans, or `None` when it is no frame of ours.
fn decode(payload: &[u8]) -> Option<(u64, Vec<Span>)> {
    fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
        let (head, rest) = buf.split_first_chunk()?;
        *buf = rest;
        Some(*head)
    }
    fn text(buf: &mut &[u8]) -> Option<String> {
        let len = u32::from_le_bytes(take(buf)?) as usize;
        let (text, rest) = buf.split_at_checked(len)?;
        *buf = rest;
        String::from_utf8(text.to_vec()).ok()
    }
    let mut buf = payload.strip_prefix(FRAME_TAG)?;
    let watermark = u64::from_le_bytes(take(&mut buf)?);
    let mut spans = Vec::new();
    while !buf.is_empty() {
        spans.push(Span {
            seq: u64::from_le_bytes(take(&mut buf)?),
            ts_ms: i64::from_le_bytes(take(&mut buf)?),
            total_ms: f64::from_le_bytes(take(&mut buf)?),
            id: text(&mut buf)?,
            component: text(&mut buf)?,
            endpoint: text(&mut buf)?,
            tenant: text(&mut buf)?,
            report: text(&mut buf)?,
        });
    }
    Some((watermark, spans))
}

/// The spans in memory.
#[derive(Default)]
struct State {
    /// Every held span, oldest first.
    ring: VecDeque<Arc<Span>>,
    next_seq: u64,
    bytes: u64,
    /// Spans from this seq on are not in the log yet.
    flushed_to: u64,
    /// The watermark of the last frame in the log.
    logged_watermark: u64,
}

impl State {
    /// The oldest held seq, or the next one when nothing is held.
    fn watermark(&self) -> u64 {
        self.ring.front().map_or(self.next_seq, |s| s.seq)
    }

    /// True when there are spans to log or the watermark moved.
    fn dirty(&self) -> bool {
        self.ring.back().is_some_and(|s| s.seq >= self.flushed_to)
            || self.watermark() != self.logged_watermark
    }
}

/// The log and the segments it holds.
struct Writer {
    log: Log,
    dir: PathBuf,
    /// Segments, oldest first, each with a seq above all it holds.
    segments: VecDeque<(u64, u64)>,
}

/// What the store and its flusher thread share.
struct Shared {
    cfg: TraceStoreConfig,
    /// Taken by a flush only. `store`, `get` and `list` take `state`
    /// alone, so none waits on a flush's fsync.
    writer: Mutex<Writer>,
    state: Mutex<State>,
    stored_total: Counter,
    evictions_total: Counter,
    flush_failures_total: Counter,
}

/// A byte-bounded, age-bounded ring buffer of finished trace spans over the
/// shared segmented log.
///
/// [`TraceStore::store`] is an in-memory append: a span is readable at once.
/// [`TraceStore::gc`] wakes the store's flusher thread, which appends every
/// span stored since the last flush as one synced frame, stamped with the
/// ring's oldest held seq. A span is durable by the flush after the next
/// `gc`; a crash loses at most the spans of one step. Nothing in the log is
/// rewritten: segments whose spans all lie below the watermark are deleted.
pub struct TraceStore {
    shared: Arc<Shared>,
    /// Wakes the flusher; dropping it stops the flusher.
    wake: Option<SyncSender<()>>,
    flusher: Option<JoinHandle<()>>,
}

impl TraceStore {
    /// Opens (or creates) the store under `dir`, replaying the spans a
    /// previous process logged, and starts its flusher thread. The log
    /// ends at its first torn frame or the first that is not this store's
    /// (what the relational store of older builds wrote): that frame and
    /// all after it are cut, so such a directory opens empty.
    pub fn open(dir: &Path, cfg: TraceStoreConfig) -> Result<TraceStore, String> {
        let err = |e: io::Error| format!("trace store open: {e}");
        let wal = dir.join("wal");
        std::fs::create_dir_all(&wal).map_err(err)?;
        let mut st = State::default();
        let end = log::walk(&wal, WalPosition::default(), |_, payload| {
            let Some((watermark, spans)) = decode(payload) else {
                return false;
            };
            st.ring.extend(spans.into_iter().map(Arc::new));
            let evicted = st.ring.partition_point(|s| s.seq < watermark);
            st.ring.drain(..evicted);
            st.logged_watermark = watermark;
            true
        })
        .map_err(err)?;
        st.bytes = st.ring.iter().map(|s| s.report.len() as u64).sum();
        st.next_seq = st.ring.back().map_or(0, |s| s.seq + 1);
        st.next_seq = st.next_seq.max(st.logged_watermark);
        st.flushed_to = st.next_seq;
        // Quarter-ring segments: about that much of the log at most holds
        // evicted spans.
        let opts = WalOptions {
            segment_bytes: (cfg.max_bytes / 4).max(4 << 10),
            fsync: FsyncMode::Always,
        };
        let log = Log::open_at(&wal, opts, end.at).map_err(err)?;
        let segments = log::list_segments(&wal).map_err(err)?;
        let segments = segments.into_iter().map(|(seg, _)| (seg, st.next_seq));
        let shared = Arc::new(Shared {
            cfg,
            writer: Mutex::new(Writer {
                log,
                dir: wal,
                segments: segments.collect(),
            }),
            state: Mutex::new(st),
            stored_total: Counter::new(),
            evictions_total: Counter::new(),
            flush_failures_total: Counter::new(),
        });
        // The log may have been written under a larger byte bound.
        shared.evict(&mut shared.state.lock(), None);
        let (wake, woken) = mpsc::sync_channel(1);
        let flusher = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ceems-trace-flush".into())
                // A failure is counted and its spans kept for the next.
                .spawn(move || woken.iter().for_each(|()| drop(shared.flush())))
                .map_err(|e| format!("trace store flusher: {e}"))?
        };
        Ok(TraceStore {
            shared,
            wake: Some(wake),
            flusher: Some(flusher),
        })
    }

    /// Holds one finished span and returns the store key (the trace ID —
    /// what `/api/v1/traces/{id}` takes), readable from this call on.
    /// Evicts oldest-first if the span pushes the ring past its byte bound.
    /// Nothing is written here: the flush after the next
    /// [`TraceStore::gc`] logs the span.
    pub fn store(
        &self,
        component: &str,
        endpoint: &str,
        tenant: &str,
        report: &TraceReport,
        now_ms: i64,
    ) -> String {
        let json = report.to_json().to_string();
        let s = &*self.shared;
        let mut st = s.state.lock();
        let span = Span {
            seq: st.next_seq,
            id: report.id.clone(),
            component: component.to_string(),
            endpoint: endpoint.to_string(),
            tenant: tenant.to_string(),
            ts_ms: now_ms,
            total_ms: report.total_ms,
            report: json,
        };
        st.next_seq += 1;
        st.bytes += span.report.len() as u64;
        st.ring.push_back(Arc::new(span));
        s.stored_total.inc();
        s.evict(&mut st, None);
        report.id.clone()
    }

    /// Evicts spans past the age bound and (re-)enforces the byte bound in
    /// memory, then wakes the flusher if there is anything to log.
    /// Called from `CeemsStack::advance` every step; returns the number
    /// evicted.
    pub fn gc(&self, now_ms: i64) -> u64 {
        let s = &*self.shared;
        let mut st = s.state.lock();
        let aged = (s.cfg.max_age_ms > 0).then_some(now_ms);
        let evicted = s.evict(&mut st, aged);
        if let Some(wake) = self.wake.as_ref().filter(|_| st.dirty()) {
            // A full channel already holds a wake-up.
            let _ = wake.try_send(());
        }
        evicted
    }

    /// All held spans for a trace ID, grouped as one JSON document, or
    /// `None` if the ID is unknown (sampled out or evicted).
    pub fn get(&self, id: &str) -> Option<serde_json::Value> {
        let held: Vec<Arc<Span>> = {
            let st = self.shared.state.lock();
            st.ring.iter().filter(|s| s.id == id).cloned().collect()
        };
        let spans: Vec<serde_json::Value> = held.iter().map(|s| s.json()).collect();
        (!spans.is_empty()).then(|| serde_json::json!({ "traceId": id, "spans": spans }))
    }

    /// Held span summaries, newest first, optionally filtered by endpoint,
    /// minimum duration and tenant.
    pub fn list(
        &self,
        endpoint: Option<&str>,
        min_ms: Option<f64>,
        tenant: Option<&str>,
        limit: usize,
    ) -> Vec<serde_json::Value> {
        let wanted = |s: &Span| {
            endpoint.is_none_or(|e| s.endpoint == e)
                && min_ms.is_none_or(|m| s.total_ms >= m)
                && tenant.is_none_or(|t| s.tenant == t)
        };
        let held: Vec<Arc<Span>> = {
            let st = self.shared.state.lock();
            let newest = st.ring.iter().rev();
            newest.filter(|s| wanted(s)).take(limit).cloned().collect()
        };
        held.iter().map(|s| s.summary_json()).collect()
    }

    /// Bytes of report JSON currently held.
    pub fn bytes(&self) -> u64 {
        self.shared.state.lock().bytes
    }

    /// Number of held spans.
    pub fn span_count(&self) -> usize {
        self.shared.state.lock().ring.len()
    }

    /// Lifetime eviction count.
    pub fn evictions(&self) -> u64 {
        self.shared.evictions_total.get() as u64
    }

    /// Registers the store's health metrics (`ceems_trace_store_bytes`,
    /// `ceems_trace_store_spans`, stored/eviction/flush-failure counters)
    /// on a registry.
    pub fn register_metrics(&self, registry: &Registry) {
        let s = self.shared.clone();
        registry.register(
            "ceems_trace_store",
            Arc::new(move |out: &mut dyn Sink| {
                let (bytes, spans) = {
                    let st = s.state.lock();
                    (st.bytes as f64, st.ring.len() as f64)
                };
                for (name, help, metric_type, v) in [
                    (
                        "ceems_trace_store_bytes",
                        "Bytes of trace report JSON currently stored",
                        MetricType::Gauge,
                        bytes,
                    ),
                    (
                        "ceems_trace_store_spans",
                        "Trace spans currently stored",
                        MetricType::Gauge,
                        spans,
                    ),
                    (
                        "ceems_trace_store_stored_total",
                        "Trace spans persisted since process start",
                        MetricType::Counter,
                        s.stored_total.get(),
                    ),
                    (
                        "ceems_trace_store_evictions_total",
                        "Trace spans evicted by the byte/age bounds",
                        MetricType::Counter,
                        s.evictions_total.get(),
                    ),
                    (
                        "ceems_trace_store_flush_failures_total",
                        "Trace store flushes whose commit failed (the spans stay pending)",
                        MetricType::Counter,
                        s.flush_failures_total.get(),
                    ),
                ] {
                    out.family(name, help, metric_type);
                    out.sample("", &[], v);
                }
            }),
        );
    }
}

impl Drop for TraceStore {
    /// Stops and joins the flusher, then logs what is left.
    fn drop(&mut self) {
        drop(self.wake.take());
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
        let _ = self.shared.flush();
    }
}

impl Shared {
    /// Evicts the oldest spans: those past the age bound (counted from
    /// `now_ms`, when given), then oldest-first while the ring is over the
    /// byte bound, keeping the newest. Returns how many were evicted.
    fn evict(&self, st: &mut State, now_ms: Option<i64>) -> u64 {
        let (mut aging, mut evicted) = (true, 0u64);
        while let Some(oldest) = st.ring.front() {
            aging = aging && now_ms.is_some_and(|now| now - oldest.ts_ms > self.cfg.max_age_ms);
            if !(aging || st.bytes > self.cfg.max_bytes && st.ring.len() > 1) {
                break;
            }
            st.bytes -= oldest.report.len() as u64;
            st.ring.pop_front();
            evicted += 1;
        }
        self.evictions_total.add(evicted as f64);
        evicted
    }

    /// Appends the spans stored since the last flush as one synced frame,
    /// if any wait or the watermark moved, then deletes the segments whose
    /// spans all lie below the watermark. A failed append counts in
    /// `ceems_trace_store_flush_failures_total` and leaves its spans
    /// pending for the next flush.
    fn flush(&self) -> Result<(), String> {
        let mut writer = self.writer.lock();
        let frame = {
            let st = self.state.lock();
            if !st.dirty() {
                return Ok(());
            }
            let from = st.ring.partition_point(|s| s.seq < st.flushed_to);
            Frame {
                watermark: st.watermark(),
                spans: st.ring.range(from..).cloned().collect(),
            }
        };
        if let Err(e) = writer.log.commit(&frame) {
            self.flush_failures_total.inc();
            return Err(format!("trace store flush: {e}"));
        }
        let end = {
            let mut st = self.state.lock();
            st.logged_watermark = frame.watermark;
            let end = frame.spans.last().map_or(st.flushed_to, |s| s.seq + 1);
            st.flushed_to = end;
            // The ring keeps copies made here: a request thread's own spans,
            // held there for the ring's life, slowed its queries (EXPERIMENTS E29).
            let first = frame.spans.first().map_or(end, |s| s.seq);
            let from = st.ring.partition_point(|s| s.seq < first);
            for held in st.ring.range_mut(from..).take_while(|s| s.seq < end) {
                *held = Arc::new(Span::clone(held));
            }
            end
        };
        let Writer { log, dir, segments } = &mut *writer;
        let active = log.position().seq;
        if segments.back().is_some_and(|last| last.0 == active) {
            segments.pop_back();
        }
        segments.push_back((active, end));
        let older = segments.range(..segments.len() - 1);
        let dead = older.take_while(|s| s.1 <= frame.watermark).count();
        if dead > 0 {
            // What a failed removal leaves, a later flush removes.
            log::truncate_before(dir, segments[dead].0)
                .map_err(|e| format!("trace store compaction: {e}"))?;
            segments.drain(..dead);
        }
        Ok(())
    }
}

/// The single object components hold: sampling policy + store + clock.
///
/// Components call [`TraceSink::offer`] once per finished traced request;
/// the sink decides (head hash or tail latency) whether the report is
/// persisted and returns the store key when it is.
pub struct TraceSink {
    sampler: TraceSampler,
    store: Arc<TraceStore>,
    now: TraceNowFn,
}

impl TraceSink {
    /// Builds a sink with a wall-clock timestamp source.
    pub fn new(sampler: TraceSampler, store: Arc<TraceStore>) -> TraceSink {
        TraceSink {
            sampler,
            store,
            now: Arc::new(wall_now_ms),
        }
    }

    /// Replaces the timestamp source (the stack injects its simulated clock).
    pub fn with_now(mut self, now: TraceNowFn) -> TraceSink {
        self.now = now;
        self
    }

    /// The sampling policy.
    pub fn sampler(&self) -> &TraceSampler {
        &self.sampler
    }

    /// The backing store (for GC, metrics registration and the trace API).
    pub fn store(&self) -> &Arc<TraceStore> {
        &self.store
    }

    /// Head decision for a trace ID — true when stage recording is worth the
    /// bookkeeping because the finished report will be kept.
    pub fn head_sample(&self, trace_id: &str) -> bool {
        self.sampler.head_sample(trace_id)
    }

    /// Offers a finished report; persists it when head-sampled or slow and
    /// returns the store key (`Some(trace_id)`) when stored.
    pub fn offer(
        &self,
        component: &str,
        endpoint: &str,
        tenant: &str,
        report: &TraceReport,
    ) -> Option<String> {
        self.offer_at_rate(component, endpoint, tenant, report, None)
    }

    /// [`TraceSink::offer`] with an optional per-tenant head-sampling rate
    /// override; `None` uses the sampler's global rate. Tail capture (slow
    /// queries) applies either way.
    pub fn offer_at_rate(
        &self,
        component: &str,
        endpoint: &str,
        tenant: &str,
        report: &TraceReport,
        rate: Option<f64>,
    ) -> Option<String> {
        let head = match rate {
            Some(r) => self.sampler.head_sample_at(&report.id, r),
            None => self.sampler.head_sample(&report.id),
        };
        if head || self.sampler.tail_capture(report.total_ms) {
            let now_ms = (self.now)();
            Some(self.store.store(component, endpoint, tenant, report, now_ms))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::QueryTrace;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "ceems-trace-store-{tag}-{}-{}",
            std::process::id(),
            crate::trace::mint_id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn report_with(id: &str, total_ms: f64) -> TraceReport {
        let t = QueryTrace::begin(Some(id));
        t.record_stage_ms("eval", total_ms / 2.0);
        let mut r = t.report();
        r.total_ms = total_ms;
        r
    }

    #[test]
    fn store_get_and_list_roundtrip() {
        let dir = tmpdir("roundtrip");
        let store = TraceStore::open(&dir, TraceStoreConfig::default()).unwrap();
        let key = store.store("tsdb", "/api/v1/query", "alice", &report_with("aa11", 12.0), 1000);
        assert_eq!(key, "aa11");
        store.store("lb", "/api/v1/query", "alice", &report_with("aa11", 14.0), 1001);
        store.store("tsdb", "/api/v1/query_range", "bob", &report_with("bb22", 300.0), 1002);

        let doc = store.get("aa11").unwrap();
        assert_eq!(doc["traceId"], "aa11");
        assert_eq!(doc["spans"].as_array().unwrap().len(), 2);
        assert_eq!(doc["spans"][0]["component"], "tsdb");
        assert_eq!(doc["spans"][0]["report"]["stages"][0]["name"], "eval");
        assert!(store.get("unknown").is_none());

        let all = store.list(None, None, None, 10);
        assert_eq!(all.len(), 3);
        // Newest first.
        assert_eq!(all[0]["traceId"], "bb22");
        let slow = store.list(None, Some(100.0), None, 10);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0]["traceId"], "bb22");
        let by_ep = store.list(Some("/api/v1/query"), None, Some("alice"), 10);
        assert_eq!(by_ep.len(), 2);
    }

    #[test]
    fn byte_bound_evicts_oldest_first() {
        let dir = tmpdir("bytes");
        let store = TraceStore::open(
            &dir,
            TraceStoreConfig {
                max_bytes: 600,
                max_age_ms: 0,
            },
        )
        .unwrap();
        for i in 0..10 {
            store.store(
                "tsdb",
                "/api/v1/query",
                "t",
                &report_with(&format!("{i:04x}"), 1.0),
                i,
            );
        }
        assert!(store.bytes() <= 600, "bytes={}", store.bytes());
        assert!(store.evictions() > 0);
        // The newest trace is still there, the oldest is gone.
        assert!(store.get("0009").is_some());
        assert!(store.get("0000").is_none());
    }

    #[test]
    fn age_gc_and_reopen_replay() {
        let dir = tmpdir("age");
        {
            let store = TraceStore::open(
                &dir,
                TraceStoreConfig {
                    max_bytes: 1 << 20,
                    max_age_ms: 1000,
                },
            )
            .unwrap();
            store.store("tsdb", "/q", "t", &report_with("old1", 1.0), 0);
            store.store("tsdb", "/q", "t", &report_with("new1", 1.0), 1500);
            let evicted = store.gc(2000);
            assert_eq!(evicted, 1);
            assert!(store.get("old1").is_none());
            assert!(store.get("new1").is_some());
        }
        // Reopen: ring accounting is rebuilt from disk.
        let store = TraceStore::open(
            &dir,
            TraceStoreConfig {
                max_bytes: 1 << 20,
                max_age_ms: 1000,
            },
        )
        .unwrap();
        assert_eq!(store.span_count(), 1);
        assert!(store.bytes() > 0);
        assert!(store.get("new1").is_some());
        // New writes continue with increasing seq (newest-first list order).
        store.store("tsdb", "/q", "t", &report_with("new2", 1.0), 1600);
        let all = store.list(None, None, None, 10);
        assert_eq!(all[0]["traceId"], "new2");
    }

    #[test]
    fn sampler_is_deterministic_and_tail_captures() {
        let s = TraceSampler::new(0.5, 100.0);
        for id in ["a", "b", "c", "deadbeef"] {
            assert_eq!(s.head_sample(id), s.head_sample(id));
        }
        // Rate extremes short-circuit.
        assert!(TraceSampler::new(1.0, 0.0).head_sample("x"));
        assert!(!TraceSampler::new(0.0, 0.0).head_sample("x"));
        // Tail capture keeps slow traces regardless.
        assert!(s.tail_capture(150.0));
        assert!(!s.tail_capture(50.0));
        assert!(!TraceSampler::new(0.5, 0.0).tail_capture(1e9));
        // At rate 0.5 the hash decision actually splits IDs both ways.
        let sampled = (0..64)
            .filter(|i| s.head_sample(&format!("{i:016x}")))
            .count();
        assert!(sampled > 5 && sampled < 60, "sampled={sampled}");
    }

    #[test]
    fn head_sampling_verdicts_are_pinned() {
        // FNV-1a 64 mixed by SplitMix64: the same verdicts on any toolchain.
        let s = TraceSampler::new(0.5, 0.0);
        for (id, kept) in [
            ("a", true),
            ("deadbeef", true),
            ("4bf92f3577b34da6", true),
            ("0000000000000000", false),
            ("ff00", false),
            ("fedcba9876543210", false),
        ] {
            assert_eq!(s.head_sample(id), kept, "{id}");
        }
    }

    #[test]
    fn sink_offers_by_head_or_tail() {
        let dir = tmpdir("sink");
        let store = Arc::new(TraceStore::open(&dir, TraceStoreConfig::default()).unwrap());
        let sink = TraceSink::new(TraceSampler::new(0.0, 100.0), store.clone())
            .with_now(Arc::new(|| 42));
        // Head rate 0: fast traces are dropped, slow ones tail-captured.
        assert_eq!(sink.offer("tsdb", "/q", "t", &report_with("fast", 5.0)), None);
        assert_eq!(
            sink.offer("tsdb", "/q", "t", &report_with("slow", 500.0)),
            Some("slow".to_string())
        );
        let doc = store.get("slow").unwrap();
        assert_eq!(doc["spans"][0]["tsMs"], 42);
    }

    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    use ceems_relstore::log::{self, ScriptedDiskFaults, WalPosition};

    /// Frames in the store's log.
    fn frames(dir: &Path) -> u64 {
        log::walk(&dir.join("wal"), WalPosition::default(), |_, _| true)
            .unwrap()
            .at
            .records
    }

    /// Waits up to ten seconds for the flusher to make `done` true.
    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let start = Instant::now();
        while !done() {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// True once no span or watermark waits for a flush, nor is being
    /// logged (the writer is free).
    fn flushed(store: &TraceStore) -> bool {
        let _writer = store.shared.writer.lock();
        !store.shared.state.lock().dirty()
    }

    fn all(store: &TraceStore) -> Vec<serde_json::Value> {
        store.list(None, None, None, usize::MAX)
    }

    #[test]
    fn a_span_is_readable_before_any_gc() {
        let dir = tmpdir("pending");
        let store = TraceStore::open(&dir, TraceStoreConfig::default()).unwrap();
        store.store(
            "tsdb",
            "/api/v1/query",
            "alice",
            &report_with("cc01", 12.0),
            1000,
        );
        store.store(
            "lb",
            "/api/v1/query_range",
            "bob",
            &report_with("cc02", 300.0),
            1001,
        );
        assert_eq!(frames(&dir), 0, "store wrote to the log");

        assert_eq!(store.get("cc01").unwrap()["spans"][0]["component"], "tsdb");
        assert_eq!(store.get("cc02").unwrap()["spans"][0]["tenant"], "bob");
        let ids = |rows: Vec<serde_json::Value>| -> Vec<String> {
            rows.iter()
                .map(|r| r["traceId"].as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(ids(all(&store)), ["cc02", "cc01"]);
        assert_eq!(
            ids(store.list(Some("/api/v1/query"), None, None, 10)),
            ["cc01"]
        );
        assert_eq!(ids(store.list(None, Some(100.0), None, 10)), ["cc02"]);
        assert_eq!(ids(store.list(None, None, Some("alice"), 10)), ["cc01"]);
        assert_eq!(ids(store.list(None, None, None, 1)), ["cc02"]);

        // Half logged, half pending: still each span once, newest first.
        store.gc(1001);
        wait_for("the flush", || flushed(&store));
        store.store(
            "qfe",
            "/api/v1/query",
            "alice",
            &report_with("cc01", 13.0),
            1002,
        );
        assert_eq!(ids(all(&store)), ["cc01", "cc02", "cc01"]);
        assert_eq!(
            ids(store.list(None, None, Some("alice"), 10)),
            ["cc01", "cc01"]
        );
        let doc = store.get("cc01").unwrap();
        let spans = doc["spans"].as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (&spans[0]["component"], &spans[1]["component"]),
            (&"tsdb".into(), &"qfe".into())
        );
    }

    #[test]
    fn an_evicted_committed_span_is_hidden_before_its_delete_is_flushed() {
        let dir = tmpdir("hidden");
        let cfg = TraceStoreConfig {
            max_bytes: 1_000,
            max_age_ms: 0,
        };
        let store = TraceStore::open(&dir, cfg).unwrap();
        let ids: Vec<String> = (0..20).map(|i| format!("ff{i:02}")).collect();
        store.store("tsdb", "/q", "t", &report_with(&ids[0], 1.0), 0);
        store.gc(0);
        wait_for("the flush", || flushed(&store));
        assert!(store.get(&ids[0]).is_some());
        // `store` evicts the committed span and wakes nothing.
        for (i, id) in ids.iter().enumerate().skip(1) {
            store.store("tsdb", "/q", "t", &report_with(id, 1.0), i as i64);
        }
        assert!(store.get(&ids[0]).is_none());
        let held = all(&store);
        assert_eq!(held.len(), store.span_count());
        assert!(held.iter().all(|r| r["traceId"] != ids[0].as_str()));
        drop(store);
        let store = TraceStore::open(&dir, cfg).unwrap();
        assert_eq!(all(&store), held);
    }

    #[test]
    fn gc_writes_one_frame_for_what_is_pending_and_none_for_nothing() {
        let dir = tmpdir("frames");
        let store = TraceStore::open(&dir, TraceStoreConfig::default()).unwrap();
        store.gc(0);
        for i in 0..5 {
            store.store(
                "tsdb",
                "/q",
                "t",
                &report_with(&format!("dd{i:02}"), 1.0),
                i,
            );
        }
        assert_eq!(frames(&dir), 0);
        store.gc(10);
        wait_for("the flush", || flushed(&store));
        assert_eq!(frames(&dir), 1);
        store.gc(20);
        // Dropping joins the flusher and flushes what is left: nothing.
        drop(store);
        assert_eq!(frames(&dir), 1, "a gc or drop with nothing pending wrote");
        let store = TraceStore::open(&dir, TraceStoreConfig::default()).unwrap();
        assert_eq!(store.span_count(), 5);
    }

    #[test]
    fn a_failed_flush_keeps_its_spans_and_retries_at_the_next_gc() {
        let dir = tmpdir("flushfail");
        let cfg = TraceStoreConfig {
            max_bytes: 1_000,
            max_age_ms: 0,
        };
        let store = TraceStore::open(&dir, cfg).unwrap();
        let faults = ScriptedDiskFaults::new().with_fsync_failures(1);
        store
            .shared
            .writer
            .lock()
            .log
            .set_disk_faults(Arc::new(faults));
        let ids: Vec<String> = (0..8).map(|i| format!("ee{i:02}")).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                &store.store("tsdb", "/q", "t", &report_with(id, 1.0), i as i64),
                id
            );
        }
        store.gc(10);
        let failures = || store.shared.flush_failures_total.get();
        wait_for("the failed flush", || failures() == 1.0);
        assert_eq!(frames(&dir), 0);
        for id in &ids {
            assert!(store.get(id).is_some(), "{id} lost by a failed flush");
        }
        // More spans than the bound holds: the kept batch obeys it too.
        for i in 8..20 {
            store.store(
                "tsdb",
                "/q",
                "t",
                &report_with(&format!("ee{i:02}"), 1.0),
                i,
            );
        }
        assert!(store.bytes() <= cfg.max_bytes, "bytes={}", store.bytes());
        let held = all(&store);
        assert!(held.len() < 20 && store.get("ee00").is_none());

        store
            .shared
            .writer
            .lock()
            .log
            .set_disk_faults(Arc::new(ScriptedDiskFaults::new()));
        store.gc(30);
        wait_for("the retried flush", || flushed(&store));
        assert_eq!(failures(), 1.0);
        drop(store);
        let store = TraceStore::open(&dir, cfg).unwrap();
        assert_eq!(all(&store), held);
    }

    /// Directory size in bytes, recursively.
    fn du(dir: &Path) -> u64 {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| {
                let meta = e.metadata().unwrap();
                if meta.is_dir() {
                    du(&e.path())
                } else {
                    meta.len()
                }
            })
            .sum()
    }

    #[test]
    fn the_log_is_compacted_as_spans_flow_through() {
        let dir = tmpdir("compact");
        let cfg = TraceStoreConfig {
            max_bytes: 16 << 10,
            max_age_ms: 0,
        };
        let store = TraceStore::open(&dir, cfg).unwrap();
        // Ten rings' worth of reports, a `gc` after every twenty.
        let (mut stored, mut i) = (0, 0);
        while stored < 10 * cfg.max_bytes {
            let report = report_with(&format!("{i:08x}"), 1.0);
            stored += report.to_json().to_string().len() as u64;
            store.store("tsdb", "/q", "t", &report, i);
            if i % 20 == 19 {
                store.gc(i);
                wait_for("the flush", || flushed(&store));
            }
            i += 1;
        }
        let held = all(&store);
        drop(store);
        let size = du(&dir);
        assert!(
            size < 6 * cfg.max_bytes,
            "{size} bytes on disk for a {} byte ring",
            cfg.max_bytes
        );
        let store = TraceStore::open(&dir, cfg).unwrap();
        assert_eq!(all(&store), held);
    }

    #[test]
    fn a_torn_final_frame_loses_only_its_flush() {
        let dir = tmpdir("torn");
        let cfg = TraceStoreConfig::default();
        let store = TraceStore::open(&dir, cfg).unwrap();
        let store_ids = |store: &TraceStore, prefix: &str| {
            for i in 0..3 {
                let report = report_with(&format!("{prefix}{i}"), 1.0);
                store.store("tsdb", "/q", "t", &report, i);
            }
        };
        store_ids(&store, "a");
        store.gc(10);
        wait_for("the flush", || flushed(&store));
        let held = all(&store);
        store_ids(&store, "b");
        // Dropping logs the `b` spans as a second frame.
        drop(store);
        assert_eq!(frames(&dir), 2);
        let (_, last) = log::list_segments(&dir.join("wal")).unwrap().pop().unwrap();
        let seg = std::fs::OpenOptions::new().write(true).open(&last).unwrap();
        seg.set_len(seg.metadata().unwrap().len() - 5).unwrap();

        let store = TraceStore::open(&dir, cfg).unwrap();
        assert_eq!(all(&store), held);
        assert_eq!(frames(&dir), 1, "the torn frame was not cut");
        // Appends go on from the cut.
        store_ids(&store, "c");
        drop(store);
        let store = TraceStore::open(&dir, cfg).unwrap();
        assert_eq!(store.span_count(), 6);
        assert!(store.get("c0").is_some() && store.get("b0").is_none());
    }

    /// Four threads store 500 spans each while others run `gc`, `get` and
    /// `list`; `readable` asserts each key reads back at once (only when the
    /// bound evicts nothing).
    fn stress(max_bytes: u64, readable: bool) {
        let dir = tmpdir("stress");
        let cfg = TraceStoreConfig {
            max_bytes,
            max_age_ms: 0,
        };
        let store = TraceStore::open(&dir, cfg).unwrap();
        let writing = AtomicBool::new(true);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..4)
                .map(|t| {
                    let store = &store;
                    s.spawn(move || {
                        for i in 0..500 {
                            let id = format!("{t}-{i:03}");
                            let key = store.store("tsdb", "/q", "t", &report_with(&id, 1.0), i);
                            assert_eq!(key, id);
                            if readable {
                                assert!(store.get(&key).is_some(), "{key} unreadable");
                            }
                        }
                    })
                })
                .collect();
            s.spawn(|| {
                let mut now = 0;
                while writing.load(Ordering::Relaxed) {
                    store.gc(now);
                    now += 1;
                    std::thread::yield_now();
                }
            });
            s.spawn(|| {
                while writing.load(Ordering::Relaxed) {
                    let rows = all(&store);
                    let ids: HashSet<&str> = rows
                        .iter()
                        .map(|r| r["traceId"].as_str().unwrap())
                        .collect();
                    assert_eq!(ids.len(), rows.len(), "a span listed twice");
                    if let Some(newest) = rows.first().filter(|_| readable) {
                        assert!(store.get(newest["traceId"].as_str().unwrap()).is_some());
                    }
                }
            });
            // Stop the gc and read loops even when a writer failed.
            let joined: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
            writing.store(false, Ordering::Relaxed);
            for result in joined {
                if let Err(panic) = result {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        assert_eq!(store.shared.stored_total.get(), 2000.0);
        let (held, count, bytes) = (all(&store), store.span_count(), store.bytes());
        assert_eq!(held.len(), count);
        if readable {
            assert_eq!(count, 2000);
        }
        drop(store);
        let store = TraceStore::open(&dir, cfg).unwrap();
        assert_eq!((store.span_count(), store.bytes()), (count, bytes));
        assert_eq!(all(&store), held);
    }

    #[test]
    fn concurrent_stores_reads_and_gc_see_each_span_once() {
        stress(TraceStoreConfig::default().max_bytes, true);
    }

    #[test]
    fn concurrent_stores_under_eviction_reopen_as_the_ring() {
        stress(16 << 10, false);
    }
}
