//! Durable sampled trace store.
//!
//! S17 introduced span-based query traces, but they only ever existed inline
//! in a response body behind `?trace=1` — close the tab and the trace is
//! gone. This module makes tracing always-on and durable:
//!
//! - [`TraceSampler`] decides *which* finished traces to keep: head-based
//!   probabilistic sampling (a deterministic hash of the trace ID against
//!   `obs.trace_sample_rate`) plus tail capture of every slow query.
//! - [`TraceStore`] is a byte-bounded ring buffer of finished
//!   [`TraceReport`]s persisted in a [`ceems_relstore::Db`], so stored traces
//!   survive restarts and are servable from `GET /api/v1/traces/{id}`.
//! - [`TraceSink`] bundles the two behind the single call components make
//!   when a traced request finishes ([`TraceSink::offer`]).
//!
//! A trace ID can produce several stored spans — the LB, the qfe and the
//! TSDB each ship their own `TraceReport` for the same request — so the
//! store keys rows by an internal sequence number and groups by trace ID on
//! read. Head sampling hashes only the ID, which every hop shares via the
//! `x-ceems-trace-id` header, so a request is either sampled at *every* hop
//! or at none: stored traces are always complete.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;

use ceems_metrics::{Counter, Gauge, MetricType, Registry, Sink};
use ceems_relstore::{Column, ColumnType, Db, Filter, Order, Query, Schema, Value};
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
    pub fn head_sample_at(&self, trace_id: &str, rate: f64) -> bool {
        let rate = rate.clamp(0.0, 1.0);
        if rate >= 1.0 {
            return true;
        }
        if rate <= 0.0 {
            return false;
        }
        let mut h = DefaultHasher::new();
        trace_id.hash(&mut h);
        (h.finish() as f64 / u64::MAX as f64) < rate
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

const TRACES_TABLE: &str = "traces";

struct SpanMeta {
    seq: i64,
    ts_ms: i64,
    bytes: u64,
}

struct StoreInner {
    db: Db,
    ring: VecDeque<SpanMeta>,
    next_seq: i64,
    bytes: u64,
}

/// A byte-bounded, age-bounded ring buffer of finished trace spans persisted
/// in `ceems-relstore` (WAL-first writes, so stored traces survive a crash).
pub struct TraceStore {
    cfg: TraceStoreConfig,
    inner: Mutex<StoreInner>,
    bytes_gauge: Gauge,
    spans_gauge: Gauge,
    stored_total: Counter,
    evictions_total: Counter,
}

fn traces_schema() -> Schema {
    Schema::new(
        vec![
            Column::required("seq", ColumnType::Int),
            Column::required("id", ColumnType::Text),
            Column::required("component", ColumnType::Text),
            Column::required("endpoint", ColumnType::Text),
            Column::required("tenant", ColumnType::Text),
            Column::required("ts_ms", ColumnType::Int),
            Column::required("total_ms", ColumnType::Real),
            Column::required("bytes", ColumnType::Int),
            Column::required("report", ColumnType::Text),
        ],
        "seq",
        &["id"],
    )
    .expect("trace store schema is valid")
}

impl TraceStore {
    /// Opens (or creates) the store under `dir`, replaying any spans a
    /// previous process persisted so the ring accounting matches the disk.
    pub fn open(dir: &Path, cfg: TraceStoreConfig) -> Result<TraceStore, String> {
        let mut db = Db::open(dir).map_err(|e| format!("trace store open: {e}"))?;
        db.create_table(TRACES_TABLE, traces_schema())
            .map_err(|e| format!("trace store schema: {e}"))?;
        let mut ring: Vec<SpanMeta> = Vec::new();
        let rows = db
            .query(TRACES_TABLE, &Query::all())
            .map_err(|e| format!("trace store replay: {e}"))?;
        for row in rows {
            ring.push(SpanMeta {
                seq: row[0].as_int().unwrap_or(0),
                ts_ms: row[5].as_int().unwrap_or(0),
                bytes: row[7].as_int().unwrap_or(0) as u64,
            });
        }
        ring.sort_by_key(|m| m.seq);
        let bytes: u64 = ring.iter().map(|m| m.bytes).sum();
        let next_seq = ring.last().map(|m| m.seq + 1).unwrap_or(0);
        let store = TraceStore {
            cfg,
            inner: Mutex::new(StoreInner {
                db,
                ring: ring.into(),
                next_seq,
                bytes,
            }),
            bytes_gauge: Gauge::new(),
            spans_gauge: Gauge::new(),
            stored_total: Counter::new(),
            evictions_total: Counter::new(),
        };
        store.sync_gauges();
        Ok(store)
    }

    fn sync_gauges(&self) {
        let inner = self.inner.lock();
        self.bytes_gauge.set(inner.bytes as f64);
        self.spans_gauge.set(inner.ring.len() as f64);
    }

    /// Persists one finished span and returns the store key (the trace ID —
    /// what `/api/v1/traces/{id}` takes). Evicts oldest-first if the write
    /// pushes the ring past its byte bound.
    pub fn store(
        &self,
        component: &str,
        endpoint: &str,
        tenant: &str,
        report: &TraceReport,
        now_ms: i64,
    ) -> String {
        let json = report.to_json().to_string();
        let bytes = json.len() as u64;
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let row: Vec<Value> = vec![
            Value::Int(seq),
            Value::Text(report.id.clone()),
            Value::Text(component.to_string()),
            Value::Text(endpoint.to_string()),
            Value::Text(tenant.to_string()),
            Value::Int(now_ms),
            Value::Real(report.total_ms),
            Value::Int(bytes as i64),
            Value::Text(json),
        ];
        if self.commit(&mut inner, Some(row), bytes, None).is_some() {
            inner.ring.push_back(SpanMeta {
                seq,
                ts_ms: now_ms,
                bytes,
            });
            inner.bytes += bytes;
            self.stored_total.inc();
        }
        drop(inner);
        self.sync_gauges();
        report.id.clone()
    }

    /// Stores `row` (of `adding` bytes) and evicts, as one relstore
    /// commit, the oldest spans: those past the age bound (counted from
    /// `now_ms`, when given), then oldest-first while the ring is over the
    /// byte bound. One span always stays: the new one, or the newest.
    /// Returns how many were evicted, or `None` (the ring untouched) when
    /// the commit failed.
    fn commit(
        &self,
        inner: &mut StoreInner,
        row: Option<Vec<Value>>,
        adding: u64,
        now_ms: Option<i64>,
    ) -> Option<usize> {
        let keep = usize::from(row.is_none());
        let (mut held, mut aging, mut evict) = (inner.bytes + adding, true, 0);
        for m in &inner.ring {
            aging = aging && now_ms.is_some_and(|now| now - m.ts_ms > self.cfg.max_age_ms);
            if !(aging || held > self.cfg.max_bytes && inner.ring.len() - evict > keep) {
                break;
            }
            held = held.saturating_sub(m.bytes);
            evict += 1;
        }
        let victims = inner.ring.iter().take(evict);
        let deletes = victims.map(|m| (TRACES_TABLE, Value::Int(m.seq)));
        inner.db.commit(row.map(|r| (TRACES_TABLE, r)), deletes).ok()?;
        for victim in inner.ring.drain(..evict) {
            inner.bytes = inner.bytes.saturating_sub(victim.bytes);
            self.evictions_total.inc();
        }
        Some(evict)
    }

    /// Evicts spans past the age bound and (re-)enforces the byte bound,
    /// as one commit. Called from `CeemsStack::advance`; returns the number
    /// evicted.
    pub fn gc(&self, now_ms: i64) -> u64 {
        let mut inner = self.inner.lock();
        let aged = (self.cfg.max_age_ms > 0).then_some(now_ms);
        let evicted = self.commit(&mut inner, None, 0, aged).unwrap_or(0);
        drop(inner);
        self.sync_gauges();
        evicted as u64
    }

    /// All stored spans for a trace ID, grouped as one JSON document, or
    /// `None` if the ID is unknown (sampled out or evicted).
    pub fn get(&self, id: &str) -> Option<serde_json::Value> {
        let inner = self.inner.lock();
        let rows = inner
            .db
            .query(
                TRACES_TABLE,
                &Query::all().filter(Filter::Eq("id".to_string(), Value::Text(id.to_string()))),
            )
            .ok()?;
        if rows.is_empty() {
            return None;
        }
        let mut rows = rows;
        rows.sort_by_key(|r| r[0].as_int().unwrap_or(0));
        let spans: Vec<serde_json::Value> = rows.iter().map(|r| span_json(r)).collect();
        Some(serde_json::json!({ "traceId": id, "spans": spans }))
    }

    /// Stored span summaries, newest first, optionally filtered by endpoint,
    /// minimum duration and tenant.
    pub fn list(
        &self,
        endpoint: Option<&str>,
        min_ms: Option<f64>,
        tenant: Option<&str>,
        limit: usize,
    ) -> Vec<serde_json::Value> {
        let mut filters = vec![Filter::True];
        if let Some(e) = endpoint {
            filters.push(Filter::Eq("endpoint".to_string(), Value::Text(e.to_string())));
        }
        if let Some(m) = min_ms {
            filters.push(Filter::Ge("total_ms".to_string(), Value::Real(m)));
        }
        if let Some(t) = tenant {
            filters.push(Filter::Eq("tenant".to_string(), Value::Text(t.to_string())));
        }
        let q = Query::all()
            .filter(Filter::And(filters))
            .order_by("seq", Order::Desc)
            .limit(limit);
        let inner = self.inner.lock();
        let rows = inner.db.query(TRACES_TABLE, &q).unwrap_or_default();
        rows.iter().map(|r| summary_json(r)).collect()
    }

    /// Bytes of report JSON currently held.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().bytes
    }

    /// Number of stored spans.
    pub fn span_count(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// Lifetime eviction count.
    pub fn evictions(&self) -> u64 {
        self.evictions_total.get() as u64
    }

    /// Checkpoints the backing store (truncates its WAL).
    pub fn snapshot(&self) -> Result<(), String> {
        self.inner
            .lock()
            .db
            .snapshot()
            .map_err(|e| format!("trace store snapshot: {e}"))
    }

    /// Registers the store's health metrics (`ceems_trace_store_bytes`,
    /// `ceems_trace_store_spans`, stored/eviction counters) on a registry.
    pub fn register_metrics(&self, registry: &Registry) {
        let (b, s, st, ev) = (
            self.bytes_gauge.clone(),
            self.spans_gauge.clone(),
            self.stored_total.clone(),
            self.evictions_total.clone(),
        );
        registry.register(
            "ceems_trace_store",
            Arc::new(move |out: &mut dyn Sink| {
                for (name, help, metric_type, v) in [
                    (
                        "ceems_trace_store_bytes",
                        "Bytes of trace report JSON currently stored",
                        MetricType::Gauge,
                        b.get(),
                    ),
                    (
                        "ceems_trace_store_spans",
                        "Trace spans currently stored",
                        MetricType::Gauge,
                        s.get(),
                    ),
                    (
                        "ceems_trace_store_stored_total",
                        "Trace spans persisted since process start",
                        MetricType::Counter,
                        st.get(),
                    ),
                    (
                        "ceems_trace_store_evictions_total",
                        "Trace spans evicted by the byte/age bounds",
                        MetricType::Counter,
                        ev.get(),
                    ),
                ] {
                    out.family(name, help, metric_type);
                    out.sample("", &[], v);
                }
            }),
        );
    }
}

fn span_json(row: &[Value]) -> serde_json::Value {
    let report: serde_json::Value =
        serde_json::from_str(row[8].as_text().unwrap_or("")).unwrap_or(serde_json::Value::Null);
    serde_json::json!({
        "component": row[2].as_text().unwrap_or(""),
        "endpoint": row[3].as_text().unwrap_or(""),
        "tenant": row[4].as_text().unwrap_or(""),
        "tsMs": row[5].as_int().unwrap_or(0),
        "report": report,
    })
}

fn summary_json(row: &[Value]) -> serde_json::Value {
    serde_json::json!({
        "traceId": row[1].as_text().unwrap_or(""),
        "component": row[2].as_text().unwrap_or(""),
        "endpoint": row[3].as_text().unwrap_or(""),
        "tenant": row[4].as_text().unwrap_or(""),
        "tsMs": row[5].as_int().unwrap_or(0),
        "totalMs": row[6].as_real().unwrap_or(0.0),
    })
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
}
