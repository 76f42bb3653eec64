//! Prometheus HTTP API subset.
//!
//! The endpoints Grafana and the CEEMS load balancer actually use:
//! `/api/v1/query`, `/api/v1/query_range`, `/api/v1/labels`,
//! `/api/v1/label/<name>/values`, `/api/v1/series`, plus the admin
//! `delete_series` the API server's cardinality cleanup calls. Parameters
//! and the JSON envelopes are [`crate::promapi`]'s; both query endpoints
//! run one handler.
//!
//! Observability (S17): the router also serves `/metrics` from a
//! [`Registry`] (default: [`selfmon::default_registry`]); the query
//! endpoints accept `?trace=1` (and the `x-ceems-trace-id` header) to
//! return a per-stage wall-time breakdown under `data.trace`, and feed a
//! configurable [`SlowQueryLog`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde_json::{json, Value as Json};

use ceems_http::{Request, Response, Router, Status};
use ceems_metrics::labels::LabelSet;
use ceems_metrics::matcher::LabelMatcher;
use ceems_metrics::{MetricType, Registry, Sink};
use ceems_obs::http::TRACE_STORED_HEADER;
use ceems_obs::slowlog::{SlowQueryLog, SlowQueryRecord};
use ceems_obs::trace::{self, QueryTrace};
use ceems_obs::{TraceSink, TRACE_HEADER};

use crate::promapi::{answer, error, labels_json, ok, trace_requested, EvalAt, QueryData};
use crate::promql::{instant_query, parse_expr, range_query, Expr};
use crate::selfmon;
use crate::storage::Tsdb;

/// A clock supplying "now" for queries without an explicit `time` param
/// (simulated deployments pass the simulation clock).
pub type NowFn = Arc<dyn Fn() -> i64 + Send + Sync>;

/// Options for [`api_router_with`]: the clock plus the observability knobs.
pub struct ApiOptions {
    /// Clock supplying "now" for queries without an explicit `time` param.
    pub now: NowFn,
    /// Registry served at `/metrics`. `None` builds the default TSDB
    /// registry ([`selfmon::default_registry`]) over `db`.
    pub registry: Option<Registry>,
    /// Slow-query log. `None` (like a non-positive threshold) disables it.
    pub slow_query: Option<SlowQueryLog>,
    /// Leader-side token bucket over `/api/v1/wal/fetch`, per follower.
    /// `None` leaves the endpoint unthrottled.
    pub wal_fetch_limit: Option<Arc<WalFetchLimiter>>,
    /// Always-on trace sampling: finished query traces are offered here and
    /// persisted when head-sampled or slow. `None` keeps traces
    /// response-inline only (the pre-S22 behaviour).
    pub trace_sink: Option<Arc<TraceSink>>,
}

impl ApiOptions {
    /// Options with the given clock, the default registry, and the
    /// slow-query log disabled — what [`api_router`] uses.
    pub fn new(now: NowFn) -> ApiOptions {
        ApiOptions {
            now,
            registry: None,
            slow_query: None,
            wal_fetch_limit: None,
            trace_sink: None,
        }
    }
}

/// Per-follower token bucket protecting the WAL leader from fetch storms.
///
/// Each follower (identified by its `x-wal-follower` header; followers
/// without one share a single bucket) gets `burst` tokens refilled at
/// `rate_per_s`. A denied fetch costs nothing and returns how long until
/// the next token, which the handler surfaces as `Retry-After`.
pub struct WalFetchLimiter {
    rate_per_s: f64,
    burst: f64,
    buckets: Mutex<HashMap<String, TokenBucket>>,
    throttled: ceems_metrics::Counter,
}

struct TokenBucket {
    tokens: f64,
    refilled: Instant,
}

impl WalFetchLimiter {
    /// A limiter allowing `rate_per_s` sustained fetches per follower with
    /// a `burst`-token reservoir (both floored at sane minimums).
    pub fn new(rate_per_s: f64, burst: f64) -> Arc<WalFetchLimiter> {
        Arc::new(WalFetchLimiter {
            rate_per_s: rate_per_s.max(0.001),
            burst: burst.max(1.0),
            buckets: Mutex::new(HashMap::new()),
            throttled: ceems_metrics::Counter::new(),
        })
    }

    /// Total fetches denied so far (exported as
    /// `ceems_tsdb_wal_fetch_throttled_total`).
    pub fn throttled_counter(&self) -> ceems_metrics::Counter {
        self.throttled.clone()
    }

    /// Takes one token from `follower`'s bucket, or returns the delay in
    /// seconds until one becomes available.
    pub fn try_acquire(&self, follower: &str) -> Result<(), f64> {
        let now = Instant::now();
        let mut buckets = self.buckets.lock().unwrap();
        let bucket = buckets.entry(follower.to_string()).or_insert(TokenBucket {
            tokens: self.burst,
            refilled: now,
        });
        let elapsed = now.duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.rate_per_s).min(self.burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            self.throttled.inc();
            Err((1.0 - bucket.tokens) / self.rate_per_s)
        }
    }
}

/// Parses the `match[]` selectors of series/delete endpoints.
fn parse_matchers(req: &Request) -> Result<Vec<Vec<LabelMatcher>>, String> {
    let mut out = Vec::new();
    for m in req.query_params("match[]") {
        match parse_expr(m) {
            Ok(Expr::Selector(sel)) if sel.range_ms.is_none() => out.push(sel.matchers.to_vec()),
            Ok(_) => return Err(format!("match[] must be an instant selector: {m:?}")),
            Err(e) => return Err(e.to_string()),
        }
    }
    if out.is_empty() {
        return Err("no match[] parameter".into());
    }
    Ok(out)
}

/// Builds the API router over a TSDB (default observability: `/metrics`
/// from the default registry, no slow-query log).
pub fn api_router(db: Arc<Tsdb>, now: NowFn) -> Router {
    api_router_with(db, ApiOptions::new(now))
}

/// Builds the API router with explicit observability options.
pub fn api_router_with(db: Arc<Tsdb>, opts: ApiOptions) -> Router {
    let now = opts.now;
    let registry = opts
        .registry
        .unwrap_or_else(|| selfmon::default_registry(db.clone()));
    let slow = opts.slow_query.unwrap_or_else(|| SlowQueryLog::new(0.0));
    let wal_limit = opts.wal_fetch_limit;
    let trace_sink = opts.trace_sink;
    let emitted = slow.emitted_counter();
    let throttled = wal_limit.as_ref().map(|l| l.throttled_counter());
    registry.register(
        "tsdb_api",
        Arc::new(move |out: &mut dyn Sink| {
            if let Some(throttled) = &throttled {
                out.family(
                    "ceems_tsdb_wal_fetch_throttled_total",
                    "WAL fetches denied by the leader-side rate limit.",
                    MetricType::Counter,
                );
                out.sample("", &[], throttled.get());
            }
            out.family(
                "ceems_tsdb_slow_queries_total",
                "Queries that crossed the slow-query threshold.",
                MetricType::Counter,
            );
            out.sample("", &[], emitted.get());
        }),
    );
    ceems_obs::register_build_info(&registry, "tsdb");
    if let Some(sink) = &trace_sink {
        sink.store().register_metrics(&registry);
    }
    let mut router = Router::new();
    ceems_obs::add_metrics_route(&mut router, registry);

    for (endpoint, range) in [("/api/v1/query", false), ("/api/v1/query_range", true)] {
        let db = db.clone();
        let now = now.clone();
        let slow = slow.clone();
        let sink = trace_sink.clone();
        router.get(endpoint, move |req| {
            let qtrace = QueryTrace::begin(req.header(TRACE_HEADER));
            let _cur = trace::enter(Some(qtrace.clone()));
            let at = match EvalAt::parse(req, range, now()) {
                Ok(at) => at,
                Err(e) => return error(Status::BAD_REQUEST, e),
            };
            let Some(q) = req.query_param("query") else {
                return error(Status::BAD_REQUEST, "missing query parameter");
            };
            let parsing = qtrace.stage("parse");
            let expr = match parse_expr(q) {
                Ok(e) => e,
                Err(e) => return error(Status::BAD_REQUEST, e.to_string()),
            };
            parsing.finish();
            let evaling = qtrace.stage("eval");
            let result = match at {
                EvalAt::Instant(t) => {
                    instant_query(db.as_ref(), &expr, t).map(|v| QueryData::instant(v, t))
                }
                EvalAt::Range {
                    start_ms,
                    end_ms,
                    step_ms,
                } => range_query(db.as_ref(), &expr, start_ms, end_ms, step_ms)
                    .map(QueryData::Matrix),
            };
            evaling.finish();
            let data = match result {
                Ok(data) => data,
                Err(e) => return error(Status::UNPROCESSABLE, e.to_string()),
            };
            let report = qtrace.report();
            let tenant = req.header("x-grafana-user").unwrap_or("anonymous");
            let store_key = sink
                .as_ref()
                .and_then(|s| s.offer("tsdb", endpoint, tenant, &report));
            slow.observe(&SlowQueryRecord {
                component: "tsdb",
                endpoint,
                query: q,
                total_ms: report.total_ms,
                trace: Some(&report),
                store_key: store_key.as_deref(),
            });
            let resp = answer(&data, trace_requested(req).then_some(&report), &[]);
            match store_key {
                Some(key) => resp.with_header(TRACE_STORED_HEADER, key),
                None => resp,
            }
        });
    }

    {
        let db = db.clone();
        router.get("/api/v1/labels", move |_req| {
            ok(json!(db.label_names()))
        });
    }

    {
        let db = db.clone();
        router.get("/api/v1/label/:name/values", move |req| {
            let name = req.path_param("name").unwrap_or_default();
            ok(json!(db.label_values(name)))
        });
    }

    {
        let db = db.clone();
        router.get("/api/v1/series", move |req| {
            let matcher_sets = match parse_matchers(req) {
                Ok(m) => m,
                Err(e) => return error(Status::BAD_REQUEST, e),
            };
            let mut out: Vec<Json> = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for matchers in matcher_sets {
                for (labels, _) in db.select_latest(&matchers) {
                    if seen.insert(labels.fingerprint()) {
                        out.push(labels_json(&labels));
                    }
                }
            }
            ok(Json::Array(out))
        });
    }

    {
        let db = db.clone();
        router.get("/api/v1/status/tsdb", move |_req| {
            ok(json!({
                "headStats": {
                    "numSeries": db.series_count(),
                    "numSamples": db.samples_appended(),
                    "storageBytes": db.storage_bytes(),
                }
            }))
        });
    }

    // -- WAL endpoints (replica catch-up + staleness probes) ---------------

    {
        let db = db.clone();
        router.get("/api/v1/wal/position", move |_req| {
            let pos = db.reported_wal_position();
            ok(json!({
                "seq": pos.seq,
                "offset": pos.offset,
                "records": pos.records,
                "walEnabled": db.wal_enabled(),
                "epoch": db.current_epoch(),
                "role": if db.is_leader() { "leader" } else { "follower" },
            }))
        });
    }

    {
        let db = db.clone();
        router.get("/api/v1/wal/epochs", move |_req| {
            let history: Vec<Json> = db
                .epoch_history()
                .iter()
                .map(|s| json!({"epoch": s.epoch, "startRecords": s.start_records}))
                .collect();
            ok(json!({
                "epoch": db.current_epoch(),
                "history": history,
            }))
        });
    }

    {
        // Maps a replicated record count to this leader's own (seq, offset)
        // so a rejoining ex-leader (whose segment layout differs) can resume
        // `/api/v1/wal/fetch` from the right place. 410 means the count
        // predates the newest checkpoint: the rejoiner must re-bootstrap.
        let db = db.clone();
        router.get("/api/v1/wal/locate", move |req| {
            let records: u64 = match req.query_param("records").map(str::parse) {
                Some(Ok(n)) => n,
                _ => return error(Status::BAD_REQUEST, "bad records parameter"),
            };
            match db.locate_records(records) {
                Ok(Some(pos)) => ok(json!({
                    "seq": pos.seq,
                    "offset": pos.offset,
                    "records": pos.records,
                })),
                Ok(None) => error(Status(410), format!("records {records} not locatable")),
                Err(e) => error(Status::NOT_FOUND, e.to_string()),
            }
        });
    }

    {
        // Epoch-fenced remote write: JSON `{"epoch": N, "samples":
        // [{"labels": {..}, "t_ms": .., "v": ..}, ..]}`. A stale epoch (or a
        // demoted node) answers 409 so a deposed leader can never accept
        // writes the cluster has moved past.
        let db = db.clone();
        router.post("/api/v1/write", move |req| {
            let body: Json = match serde_json::from_slice(&req.body) {
                Ok(v) => v,
                Err(e) => return error(Status::BAD_REQUEST, format!("bad body: {e}")),
            };
            let Some(epoch) = body["epoch"].as_u64() else {
                return error(Status::BAD_REQUEST, "missing epoch");
            };
            let Some(samples) = body["samples"].as_array() else {
                return error(Status::BAD_REQUEST, "missing samples");
            };
            let mut batch = Vec::with_capacity(samples.len());
            for s in samples {
                let Some(obj) = s["labels"].as_object() else {
                    return error(Status::BAD_REQUEST, "sample missing labels");
                };
                let labels = LabelSet::from_pairs(
                    obj.iter()
                        .map(|(k, v)| (k.as_str(), v.as_str().unwrap_or_default())),
                );
                let (Some(t_ms), Some(v)) = (s["t_ms"].as_i64(), s["v"].as_f64()) else {
                    return error(Status::BAD_REQUEST, "sample missing t_ms/v");
                };
                batch.push((labels, t_ms, v));
            }
            match db.append_batch_fenced(epoch, &batch) {
                Ok(()) => ok(json!({"appended": batch.len()})),
                // 409: the write carried a fenced-off epoch.
                Err(e) => error(Status(409), e.to_string()),
            }
        });
    }

    {
        let db = db.clone();
        router.get("/api/v1/wal/segments", move |_req| {
            match db.wal_segments() {
                Ok(segs) => ok(json!(segs
                    .iter()
                    .map(|(seq, bytes)| json!({"seq": seq, "bytes": bytes}))
                    .collect::<Vec<_>>())),
                Err(e) => error(Status::NOT_FOUND, e.to_string()),
            }
        });
    }

    {
        let db = db.clone();
        router.get("/api/v1/wal/checkpoint", move |_req| {
            match db.wal_checkpoint_bytes() {
                Ok(Some((seq, bytes))) => Response::status(Status::OK)
                    .with_header("content-type", "application/octet-stream")
                    .with_header("x-wal-checkpoint-seq", seq.to_string())
                    .with_body(bytes),
                Ok(None) => error(Status::NOT_FOUND, "no checkpoint taken yet"),
                Err(e) => error(Status::NOT_FOUND, e.to_string()),
            }
        });
    }

    {
        let db = db.clone();
        router.get("/api/v1/wal/fetch", move |req| {
            if let Some(limiter) = &wal_limit {
                let follower = req.header("x-wal-follower").unwrap_or("anonymous");
                if let Err(wait_s) = limiter.try_acquire(follower) {
                    return error(
                        Status::TOO_MANY_REQUESTS,
                        format!("wal fetch rate limit for follower {follower:?}"),
                    )
                    .with_retry_after(wait_s);
                }
            }
            let parse_u64 = |name: &str| -> Result<u64, String> {
                match req.query_param(name) {
                    Some(s) => s.parse().map_err(|_| format!("bad {name} parameter")),
                    None => Ok(0),
                }
            };
            let (seq, offset) = match (parse_u64("seq"), parse_u64("offset")) {
                (Ok(s), Ok(o)) => (s, o),
                (Err(e), _) | (_, Err(e)) => return error(Status::BAD_REQUEST, e),
            };
            let last_seq = db.wal_position().map(|p| p.seq).unwrap_or(0);
            match db.read_wal_segment(seq, offset) {
                Ok(Some(bytes)) => Response::status(Status::OK)
                    .with_header("content-type", "application/octet-stream")
                    .with_header("x-wal-seq", seq.to_string())
                    .with_header("x-wal-last-seq", last_seq.to_string())
                    .with_body(bytes),
                // Gone: GC'd behind a checkpoint — the follower re-bootstraps.
                Ok(None) => error(Status(410), format!("segment {seq} gone")),
                Err(e) => error(Status::NOT_FOUND, e.to_string()),
            }
        });
    }

    {
        let db = db.clone();
        router.post("/api/v1/admin/tsdb/delete_series", move |req| {
            let matcher_sets = match parse_matchers(req) {
                Ok(m) => m,
                Err(e) => return error(Status::BAD_REQUEST, e),
            };
            let mut deleted = 0;
            for matchers in matcher_sets {
                deleted += db.delete_series(&matchers);
            }
            ok(json!({"deletedSeries": deleted}))
        });
    }

    router
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_http::{Client, HttpServer, ServerConfig};
    use ceems_metrics::labels;

    fn serve() -> (HttpServer, Arc<Tsdb>) {
        let db = Arc::new(Tsdb::default());
        for i in 0..10i64 {
            db.append(
                &labels! {"__name__" => "power_watts", "instance" => "n1"},
                i * 15_000,
                100.0,
            );
            db.append(
                &labels! {"__name__" => "power_watts", "instance" => "n2"},
                i * 15_000,
                200.0,
            );
        }
        let router = api_router(db.clone(), Arc::new(|| 135_000));
        let server = HttpServer::serve(ServerConfig::ephemeral(), router).unwrap();
        (server, db)
    }

    fn get_json(url: &str) -> serde_json::Value {
        let resp = Client::new().get(url).unwrap();
        serde_json::from_slice(&resp.body).unwrap()
    }

    #[test]
    fn instant_query_endpoint() {
        let (server, _db) = serve();
        let v = get_json(&format!(
            "{}/api/v1/query?query=sum(power_watts)",
            server.base_url()
        ));
        assert_eq!(v["status"], "success");
        assert_eq!(v["data"]["resultType"], "vector");
        assert_eq!(v["data"]["result"][0]["value"][1], "300");
        // Explicit time param.
        let v = get_json(&format!(
            "{}/api/v1/query?query=power_watts&time=135",
            server.base_url()
        ));
        assert_eq!(v["data"]["result"].as_array().unwrap().len(), 2);
        server.shutdown();
    }

    #[test]
    fn range_query_endpoint() {
        let (server, _db) = serve();
        let v = get_json(&format!(
            "{}/api/v1/query_range?query=power_watts&start=0&end=135&step=15",
            server.base_url()
        ));
        assert_eq!(v["status"], "success");
        let result = v["data"]["result"].as_array().unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(result[0]["values"].as_array().unwrap().len(), 10);
        server.shutdown();
    }

    #[test]
    fn labels_series_and_status() {
        let (server, _db) = serve();
        let v = get_json(&format!("{}/api/v1/labels", server.base_url()));
        assert!(v["data"].as_array().unwrap().iter().any(|x| x == "instance"));

        let v = get_json(&format!(
            "{}/api/v1/label/instance/values",
            server.base_url()
        ));
        assert_eq!(v["data"], json!(["n1", "n2"]));

        let v = get_json(&format!(
            "{}/api/v1/series?match[]=power_watts%7Binstance%3D%22n1%22%7D",
            server.base_url()
        ));
        assert_eq!(v["data"].as_array().unwrap().len(), 1);

        let v = get_json(&format!("{}/api/v1/status/tsdb", server.base_url()));
        assert_eq!(v["data"]["headStats"]["numSeries"], 2);
        server.shutdown();
    }

    #[test]
    fn delete_series_endpoint() {
        let (server, db) = serve();
        let resp = Client::new()
            .post(
                &format!(
                    "{}/api/v1/admin/tsdb/delete_series?match[]=%7Binstance%3D%22n1%22%7D",
                    server.base_url()
                ),
                Vec::new(),
                "application/json",
            )
            .unwrap();
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["data"]["deletedSeries"], 1);
        assert_eq!(db.series_count(), 1);
        server.shutdown();
    }

    #[test]
    fn trace_param_returns_stage_breakdown() {
        let (server, _db) = serve();
        let v = get_json(&format!(
            "{}/api/v1/query_range?query=power_watts&start=0&end=135&step=15&trace=1",
            server.base_url()
        ));
        let t = &v["data"]["trace"];
        assert_eq!(t["traceId"].as_str().unwrap().len(), 16);
        let stages = t["stages"].as_array().unwrap();
        assert!(stages.iter().any(|s| s["name"] == "parse"));
        assert!(stages.iter().any(|s| s["name"] == "eval"));
        let stage_sum: f64 = stages.iter().map(|s| s["ms"].as_f64().unwrap()).sum();
        assert!(stage_sum <= t["totalMs"].as_f64().unwrap() + 1e-6);
        assert_eq!(t["counts"]["steps"].as_u64(), Some(10));
        assert!(t["counts"]["series"].as_u64().unwrap() >= 2);

        // An upstream trace ID in the header is kept verbatim.
        let resp = Client::new()
            .with_header(TRACE_HEADER, "cafe0123cafe0123")
            .get(&format!(
                "{}/api/v1/query?query=power_watts&trace=1",
                server.base_url()
            ))
            .unwrap();
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["data"]["trace"]["traceId"], "cafe0123cafe0123");

        // Without trace=1 the payload stays untouched.
        let v = get_json(&format!(
            "{}/api/v1/query?query=power_watts",
            server.base_url()
        ));
        assert!(v["data"]["trace"].is_null());
        server.shutdown();
    }

    #[test]
    fn metrics_endpoint_serves_parseable_text() {
        let (server, _db) = serve();
        // Touch the query path so latency histograms have observations.
        get_json(&format!(
            "{}/api/v1/query?query=power_watts",
            server.base_url()
        ));
        let resp = Client::new()
            .get(&format!("{}/metrics", server.base_url()))
            .unwrap();
        assert_eq!(resp.status, Status::OK);
        let text = String::from_utf8(resp.body).unwrap();
        let parsed = ceems_metrics::parse_text(&text).expect("/metrics must parse");
        let has = |n: &str| parsed.samples.iter().any(|s| s.name == n);
        assert!(has("ceems_tsdb_head_series"));
        assert!(has("ceems_tsdb_select_duration_seconds_count"));
        assert!(has("ceems_tsdb_slow_queries_total"));
        server.shutdown();
    }

    #[test]
    fn wal_fetch_limiter_buckets_per_follower() {
        let limiter = WalFetchLimiter::new(1000.0, 2.0);
        assert!(limiter.try_acquire("a").is_ok());
        assert!(limiter.try_acquire("a").is_ok());
        let wait = limiter.try_acquire("a").expect_err("burst of 2 exhausted");
        assert!(wait > 0.0 && wait <= 1.0 / 1000.0 + 1e-6);
        // Another follower has its own bucket.
        assert!(limiter.try_acquire("b").is_ok());
        assert_eq!(limiter.throttled_counter().get(), 1.0);
        // The bucket refills with time.
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(limiter.try_acquire("a").is_ok());
    }

    #[test]
    fn wal_fetch_endpoint_sheds_with_retry_after() {
        let db = Arc::new(Tsdb::default());
        let mut opts = ApiOptions::new(Arc::new(|| 0));
        opts.wal_fetch_limit = Some(WalFetchLimiter::new(0.5, 1.0));
        let server =
            HttpServer::serve(ServerConfig::ephemeral(), api_router_with(db, opts)).unwrap();
        let url = format!("{}/api/v1/wal/fetch?seq=0&offset=0", server.base_url());
        let client = Client::new().with_header("x-wal-follower", "f1");
        // First request spends the only token (the un-WAL'd db 404s, but
        // the limiter sits in front of that).
        let first = client.get(&url).unwrap();
        assert_ne!(first.status, Status::TOO_MANY_REQUESTS);
        let second = client.get(&url).unwrap();
        assert_eq!(second.status, Status::TOO_MANY_REQUESTS);
        let retry = second.retry_after_secs().expect("Retry-After present");
        assert!(retry > 0.0 && retry <= 2.0, "retry_after={retry}");
        server.shutdown();
    }

    #[test]
    fn slow_query_log_fires_only_over_threshold() {
        let db = Arc::new(Tsdb::default());
        db.append(&labels! {"__name__" => "power_watts"}, 0, 1.0);
        let serve_with = |log: SlowQueryLog, db: Arc<Tsdb>| {
            let opts = ApiOptions {
                now: Arc::new(|| 0),
                registry: None,
                slow_query: Some(log),
                wal_fetch_limit: None,
                trace_sink: None,
            };
            HttpServer::serve(ServerConfig::ephemeral(), api_router_with(db, opts)).unwrap()
        };

        // Threshold below any real wall time: every query logs one line.
        let lines = Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
        let sink = lines.clone();
        let log = SlowQueryLog::new(1e-6).with_sink(move |l| sink.lock().unwrap().push(l.into()));
        let server = serve_with(log, db.clone());
        get_json(&format!(
            "{}/api/v1/query?query=power_watts",
            server.base_url()
        ));
        server.shutdown();
        let lines = Arc::try_unwrap(lines).unwrap().into_inner().unwrap();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("slow_query component=tsdb endpoint=/api/v1/query "));
        assert!(lines[0].ends_with("query=\"power_watts\""));

        // Threshold far above anything achievable: never fires.
        let fired = Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
        let sink = fired.clone();
        let log = SlowQueryLog::new(1e12).with_sink(move |l| sink.lock().unwrap().push(l.into()));
        let server = serve_with(log, db);
        get_json(&format!(
            "{}/api/v1/query?query=power_watts",
            server.base_url()
        ));
        server.shutdown();
        assert!(fired.lock().unwrap().is_empty());
    }

    #[test]
    fn range_query_resolution_is_capped() {
        let (server, _db) = serve();
        // 10^13 steps, and an `end` that saturates to `i64::MAX`.
        for params in [
            "start=0&end=9999999999&step=0.001",
            "start=-5&end=1e300&step=15",
        ] {
            let resp = Client::new()
                .get(&format!(
                    "{}/api/v1/query_range?query=1&{params}",
                    server.base_url()
                ))
                .unwrap();
            assert_eq!(resp.status, Status::UNPROCESSABLE, "{params}");
            let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
            let error = v["error"].as_str().unwrap();
            assert!(
                error.contains("exceeded maximum resolution of 11,000 points"),
                "{error}"
            );
        }
        // Exactly the cap is served; `end < start` is an empty matrix.
        let v = get_json(&format!(
            "{}/api/v1/query_range?query=1&start=0&end=10.999&step=0.001",
            server.base_url()
        ));
        assert_eq!(
            v["data"]["result"][0]["values"].as_array().unwrap().len(),
            11_000
        );
        let v = get_json(&format!(
            "{}/api/v1/query_range?query=power_watts&start=135&end=0&step=15",
            server.base_url()
        ));
        assert_eq!(v["status"], "success");
        assert!(v["data"]["result"].as_array().unwrap().is_empty());
        server.shutdown();
    }

    /// `NaN` cast to ms is 0 and `inf` the end of time; both used to be
    /// answered as if asked for those.
    #[test]
    fn non_finite_times_are_a_bad_request() {
        let (server, _db) = serve();
        for (params, error) in [
            ("query?query=up&time=NaN", "bad time parameter: \"NaN\""),
            ("query?query=up&time=-inf", "bad time parameter: \"-inf\""),
            (
                "query_range?query=up&start=NaN&end=10&step=15",
                "bad start parameter: \"NaN\"",
            ),
            (
                "query_range?query=up&start=0&end=inf&step=15",
                "bad end parameter: \"inf\"",
            ),
            (
                "query_range?query=up&start=0&end=10&step=inf",
                "bad step parameter",
            ),
        ] {
            let resp = Client::new()
                .get(&format!("{}/api/v1/{params}", server.base_url()))
                .unwrap();
            assert_eq!(resp.status, Status::BAD_REQUEST, "{params}");
            let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
            assert_eq!(v, json!({"status": "error", "error": error}), "{params}");
        }
        server.shutdown();
    }

    #[test]
    fn error_responses() {
        let (server, _db) = serve();
        let resp = Client::new()
            .get(&format!("{}/api/v1/query", server.base_url()))
            .unwrap();
        assert_eq!(resp.status, Status::BAD_REQUEST);
        let resp = Client::new()
            .get(&format!(
                "{}/api/v1/query?query=rate(power_watts)",
                server.base_url()
            ))
            .unwrap();
        assert_eq!(resp.status, Status::UNPROCESSABLE);
        let resp = Client::new()
            .get(&format!(
                "{}/api/v1/query_range?query=up&start=0&end=10&step=0",
                server.base_url()
            ))
            .unwrap();
        assert_eq!(resp.status, Status::BAD_REQUEST);
        let resp = Client::new()
            .get(&format!("{}/api/v1/series", server.base_url()))
            .unwrap();
        assert_eq!(resp.status, Status::BAD_REQUEST);
        server.shutdown();
    }
}
