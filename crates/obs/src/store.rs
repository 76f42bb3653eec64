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
//!   Storing a span is an in-memory append, readable at once; the store's
//!   flusher thread commits each step's spans as one synced frame after
//!   [`TraceStore::gc`], off the request path.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use ceems_metrics::{Counter, Gauge, MetricType, Registry, Sink};
use ceems_relstore::{Column, ColumnType, Db, Filter, Order, Query, Row, Schema, Table, Value};
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

/// The spans in memory: the ring and what the next flush commits.
struct State {
    /// Every held span, committed or pending, oldest first.
    ring: VecDeque<SpanMeta>,
    /// Spans stored since the last flush, as rows of the traces schema.
    /// Each is newer than every committed span.
    pending: Table,
    /// Committed spans the ring evicted, for the next flush to delete.
    /// Reads hide them already: they stop at the ring's oldest span.
    deletes: Vec<i64>,
    next_seq: i64,
    bytes: u64,
}

impl State {
    /// The oldest seq still held: rows below it are evicted.
    fn live_from(&self) -> i64 {
        self.ring.front().map_or(i64::MAX, |m| m.seq)
    }
}

/// The database and the log segment its last snapshot started.
struct Disk {
    db: Db,
    snapshot_seq: u64,
}

impl Disk {
    /// Snapshots the database, which truncates its log.
    fn snapshot(&mut self) -> Result<(), String> {
        self.db
            .snapshot()
            .map_err(|e| format!("trace store snapshot: {e}"))?;
        self.snapshot_seq = self.db.log_position().seq;
        Ok(())
    }
}

/// What the store and its flusher thread share.
struct Shared {
    cfg: TraceStoreConfig,
    /// Held by a flush for its whole commit and by reads, always before
    /// `state`: a read sees each span once, pending or committed.
    disk: Mutex<Disk>,
    state: Mutex<State>,
    /// Set (`Release`) by `Drop` before it wakes the flusher, which exits
    /// when it reads it set (`Acquire`).
    stop: AtomicBool,
    bytes_gauge: Gauge,
    spans_gauge: Gauge,
    stored_total: Counter,
    evictions_total: Counter,
    flush_failures_total: Counter,
}

/// A byte-bounded, age-bounded ring buffer of finished trace spans persisted
/// in `ceems-relstore`.
///
/// [`TraceStore::store`] is an in-memory append: a span is readable at once.
/// [`TraceStore::gc`] wakes the store's flusher thread, which commits every
/// span stored since the last flush, and every eviction since, as one synced
/// `Db::commit`. A span is durable by the flush after the next `gc`; a crash
/// loses at most the spans of one step.
pub struct TraceStore {
    shared: Arc<Shared>,
    flusher: Option<JoinHandle<()>>,
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

fn row_seq(row: &[Value]) -> i64 {
    row[0].as_int().unwrap_or(0)
}

impl TraceStore {
    /// Opens (or creates) the store under `dir`, replaying any spans a
    /// previous process persisted so the ring accounting matches the disk,
    /// and starts its flusher thread.
    pub fn open(dir: &Path, cfg: TraceStoreConfig) -> Result<TraceStore, String> {
        let mut db = Db::open(dir).map_err(|e| format!("trace store open: {e}"))?;
        db.create_table(TRACES_TABLE, traces_schema())
            .map_err(|e| format!("trace store schema: {e}"))?;
        let rows = db
            .query(TRACES_TABLE, &Query::all().order_by("seq", Order::Asc))
            .map_err(|e| format!("trace store replay: {e}"))?;
        let ring: VecDeque<SpanMeta> = rows
            .iter()
            .map(|row| SpanMeta {
                seq: row_seq(row),
                ts_ms: row[5].as_int().unwrap_or(0),
                bytes: row[7].as_int().unwrap_or(0) as u64,
            })
            .collect();
        let state = State {
            bytes: ring.iter().map(|m| m.bytes).sum(),
            next_seq: ring.back().map_or(0, |m| m.seq + 1),
            ring,
            pending: Table::new(traces_schema()),
            deletes: Vec::new(),
        };
        let shared = Arc::new(Shared {
            cfg,
            disk: Mutex::new(Disk {
                snapshot_seq: db.log_position().seq,
                db,
            }),
            state: Mutex::new(state),
            stop: AtomicBool::new(false),
            bytes_gauge: Gauge::new(),
            spans_gauge: Gauge::new(),
            stored_total: Counter::new(),
            evictions_total: Counter::new(),
            flush_failures_total: Counter::new(),
        });
        shared.publish(&shared.state.lock());
        let flusher = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ceems-trace-flush".into())
                .spawn(move || loop {
                    std::thread::park();
                    if shared.stop.load(Ordering::Acquire) {
                        break;
                    }
                    // A failure is counted and its batch kept for the next.
                    let _ = shared.flush();
                })
                .map_err(|e| format!("trace store flusher: {e}"))?
        };
        Ok(TraceStore {
            shared,
            flusher: Some(flusher),
        })
    }

    /// Holds one finished span and returns the store key (the trace ID —
    /// what `/api/v1/traces/{id}` takes), readable from this call on.
    /// Evicts oldest-first if the span pushes the ring past its byte bound.
    /// Nothing is written here: the flush after the next
    /// [`TraceStore::gc`] commits the span.
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
        let s = &*self.shared;
        let mut st = s.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
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
        st.pending
            .upsert(row)
            .expect("a span row fits the traces schema");
        st.ring.push_back(SpanMeta {
            seq,
            ts_ms: now_ms,
            bytes,
        });
        st.bytes += bytes;
        s.stored_total.inc();
        s.evict(&mut st, None);
        s.publish(&st);
        report.id.clone()
    }

    /// Evicts spans past the age bound and (re-)enforces the byte bound in
    /// memory, then wakes the flusher if there is anything to commit.
    /// Called from `CeemsStack::advance` every step; returns the number
    /// evicted.
    pub fn gc(&self, now_ms: i64) -> u64 {
        let s = &*self.shared;
        let mut st = s.state.lock();
        let aged = (s.cfg.max_age_ms > 0).then_some(now_ms);
        let evicted = s.evict(&mut st, aged);
        s.publish(&st);
        let dirty = !st.pending.is_empty() || !st.deletes.is_empty();
        drop(st);
        if let Some(flusher) = self.flusher.as_ref().filter(|_| dirty) {
            flusher.thread().unpark();
        }
        evicted
    }

    /// All held spans for a trace ID, grouped as one JSON document, or
    /// `None` if the ID is unknown (sampled out or evicted).
    pub fn get(&self, id: &str) -> Option<serde_json::Value> {
        let filter = Filter::Eq("id".to_string(), Value::Text(id.to_string()));
        let rows = self.shared.newest(filter, usize::MAX);
        if rows.is_empty() {
            return None;
        }
        let spans: Vec<serde_json::Value> = rows.iter().rev().map(|r| span_json(r)).collect();
        Some(serde_json::json!({ "traceId": id, "spans": spans }))
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
        let rows = self.shared.newest(Filter::And(filters), limit);
        rows.iter().map(|r| summary_json(r)).collect()
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

    /// Commits what is pending, then checkpoints the backing store
    /// (truncates its log).
    pub fn snapshot(&self) -> Result<(), String> {
        let mut disk = self.shared.disk.lock();
        self.shared.flush_into(&mut disk)?;
        disk.snapshot()
    }

    /// Registers the store's health metrics (`ceems_trace_store_bytes`,
    /// `ceems_trace_store_spans`, stored/eviction/flush-failure counters)
    /// on a registry.
    pub fn register_metrics(&self, registry: &Registry) {
        let s = &*self.shared;
        let (b, sp, st, ev, ff) = (
            s.bytes_gauge.clone(),
            s.spans_gauge.clone(),
            s.stored_total.clone(),
            s.evictions_total.clone(),
            s.flush_failures_total.clone(),
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
                        sp.get(),
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
                    (
                        "ceems_trace_store_flush_failures_total",
                        "Trace store flushes whose commit failed (the spans stay pending)",
                        MetricType::Counter,
                        ff.get(),
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
    /// Stops and joins the flusher, then commits what is left.
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(flusher) = self.flusher.take() {
            flusher.thread().unpark();
            let _ = flusher.join();
        }
        let _ = self.shared.flush();
    }
}

impl Shared {
    fn publish(&self, st: &State) {
        self.bytes_gauge.set(st.bytes as f64);
        self.spans_gauge.set(st.ring.len() as f64);
    }

    /// Evicts the oldest spans: those past the age bound (counted from
    /// `now_ms`, when given), then oldest-first while the ring is over the
    /// byte bound, keeping the newest. An evicted pending span is dropped,
    /// an evicted committed one queued for deletion. Returns how many were
    /// evicted.
    fn evict(&self, st: &mut State, now_ms: Option<i64>) -> u64 {
        let (mut aging, mut evicted) = (true, 0u64);
        while let Some(m) = st.ring.front() {
            aging = aging && now_ms.is_some_and(|now| now - m.ts_ms > self.cfg.max_age_ms);
            if !(aging || st.bytes > self.cfg.max_bytes && st.ring.len() > 1) {
                break;
            }
            let (seq, bytes) = (m.seq, m.bytes);
            st.ring.pop_front();
            st.bytes = st.bytes.saturating_sub(bytes);
            if st.pending.delete(&Value::Int(seq)).is_none() {
                st.deletes.push(seq);
            }
            evicted += 1;
        }
        self.evictions_total.add(evicted as f64);
        evicted
    }

    /// The held rows `filter` matches, newest first, at most `limit`:
    /// the pending ones, then the committed ones the ring still holds.
    fn newest(&self, filter: Filter, limit: usize) -> Vec<Row> {
        let disk = self.disk.lock();
        let st = self.state.lock();
        let query = |f| {
            Query::all()
                .filter(f)
                .order_by("seq", Order::Desc)
                .limit(limit)
        };
        let mut rows = query(filter.clone()).run(&st.pending);
        let held = Filter::Ge("seq".to_string(), Value::Int(st.live_from()));
        let committed = query(Filter::And(vec![filter, held]));
        rows.extend(disk.db.query(TRACES_TABLE, &committed).unwrap_or_default());
        rows.truncate(limit);
        rows
    }

    fn flush(&self) -> Result<(), String> {
        self.flush_into(&mut self.disk.lock())
    }

    /// Commits the pending spans and queued deletes as one `Db::commit`
    /// (one synced frame), then snapshots once the log has grown by more
    /// than `max_bytes` (or a segment) since the last snapshot, so the log
    /// never holds more than about one ring's worth. A failed commit puts
    /// its batch back, less what the ring evicted meanwhile, for the next
    /// flush, and counts in `ceems_trace_store_flush_failures_total`.
    fn flush_into(&self, disk: &mut Disk) -> Result<(), String> {
        let (batch, deletes) = {
            let mut st = self.state.lock();
            if st.pending.is_empty() && st.deletes.is_empty() {
                return Ok(());
            }
            let fresh = Table::new(st.pending.schema().clone());
            let batch = std::mem::replace(&mut st.pending, fresh);
            (batch, std::mem::take(&mut st.deletes))
        };
        let upserts = batch.scan().map(|r| (TRACES_TABLE, r.clone()));
        let dels = deletes.iter().map(|&seq| (TRACES_TABLE, Value::Int(seq)));
        if let Err(e) = disk.db.commit(upserts, dels) {
            let mut st = self.state.lock();
            let live_from = st.live_from();
            for row in batch.scan().filter(|r| row_seq(r) >= live_from) {
                st.pending
                    .upsert(row.clone())
                    .expect("a span row fits the traces schema");
            }
            st.deletes.extend(deletes);
            self.flush_failures_total.inc();
            return Err(format!("trace store flush: {e}"));
        }
        let at = disk.db.log_position();
        if at.seq != disk.snapshot_seq || at.offset > self.cfg.max_bytes {
            // A failed snapshot keeps the log; the next flush tries again.
            let _ = disk.snapshot();
        }
        Ok(())
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

    use std::collections::HashSet;
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

    /// True once no span or delete waits for a flush, nor is being
    /// committed (the disk lock is free).
    fn flushed(store: &TraceStore) -> bool {
        let _disk = store.shared.disk.lock();
        let st = store.shared.state.lock();
        st.pending.is_empty() && st.deletes.is_empty()
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

        // Half committed, half pending: still each span once, newest first.
        store.snapshot().unwrap();
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
        store.snapshot().unwrap();
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
            .disk
            .lock()
            .db
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
            .disk
            .lock()
            .db
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
