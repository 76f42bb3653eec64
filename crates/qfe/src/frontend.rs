//! The query frontend proper: request classification, split/cache/merge
//! orchestration, per-tenant admission, and self-monitoring.
//!
//! `query_range` requests whose expression is split-safe are decomposed
//! into `split_interval`-aligned extents ([`crate::split`]); settled
//! extents are served from the results cache ([`crate::cache`]) and only
//! the uncovered remainder is fetched from the TSDB, in parallel. An
//! untraced answer that is one fetched extent is the TSDB's body, relayed
//! as it stands; only answers that combine extents, use a cached one or
//! carry the frontend's trace stages are decoded, merged and encoded
//! again. Anything else — instant queries, label/series lookups,
//! split-unsafe expressions (`topk`, `offset`, …), malformed parameters —
//! passes through to the downstream verbatim, so error bodies and
//! edge-case semantics stay byte-identical to an unfronted deployment.
//!
//! Every query first takes a slot from the [`FairScheduler`]; tenants that
//! overflow their queue get `429 Too Many Requests` with a `Retry-After`
//! the shared `ceems-http` client knows how to honor.

use std::cell::OnceCell;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

use ceems_http::{HttpServer, Request, Response, Router, ServerConfig, Status, StreamWriter};
use ceems_metrics::{Counter, CounterVec, Gauge, GaugeVec, Histogram, Registry};
use ceems_obs::http::TRACE_STORED_HEADER;
use ceems_obs::trace::QueryTrace;
use ceems_obs::{HttpInstruments, TraceSink, TRACE_HEADER};
use ceems_tsdb::promapi::{self, EvalAt, QueryData};
use ceems_tsdb::promql::{normalize, parse_expr, range_points, split_safety, SplitSafety};

use crate::cache::{ExtentKey, ResultsCache};
use crate::downstream::Downstream;
use crate::sched::{FairScheduler, SchedulerConfig};
use crate::split::{merge_extents, split_grid, Extent, ExtentData, StepGrid};

/// Clock supplying "now" in Unix milliseconds (the `recent_window`
/// reference point). Simulated deployments pass the simulation clock.
pub type NowFn = Arc<dyn Fn() -> i64 + Send + Sync>;

/// Frontend tuning knobs. Times are milliseconds.
#[derive(Clone)]
pub struct QfeConfig {
    /// Split window width; sub-queries are aligned to multiples of this.
    pub split_interval_ms: i64,
    /// Results-cache budget in bytes; `0` disables caching.
    pub cache_bytes: usize,
    /// Results newer than `now − recent_window` are never cached (they may
    /// still change as ingestion catches up).
    pub recent_window_ms: i64,
    /// Admission limits.
    pub scheduler: SchedulerConfig,
    /// Maximum workers fetching one request's sub-queries, the calling
    /// thread one of them (`ceems_tsdb::fan_out`).
    pub max_fanout: usize,
    /// Clock for the `recent_window` horizon.
    pub now: NowFn,
    /// Trace sink (S22): when set, every split range query records its
    /// `qfe_cache`/`qfe_split` stages and offers the finished report;
    /// stored traces tag the response with [`TRACE_STORED_HEADER`].
    pub trace_sink: Option<Arc<TraceSink>>,
    /// Live `query_live` subscriptions allowed per tenant (S23); excess
    /// subscribers shed with `429 Too Many Requests`.
    pub max_live_per_tenant: usize,
    /// Per-tenant head-sampling rate overrides (`obs.tenant_sample_rates`).
    /// The effective rate is forwarded downstream in
    /// `x-ceems-trace-sample-rate` so every hop reaches the same sampling
    /// verdict. The reserved `__ceems_meta__` tenant is always pinned to
    /// 1.0 — self-monitoring traces are never sampled away.
    pub tenant_sample_rates: std::collections::BTreeMap<String, f64>,
    /// Staleness bound for degraded stale-cache serves (S24): when every
    /// replica is down and the freshest cached step is older than this,
    /// the frontend answers 502 instead of a silently ancient "success".
    /// `0` (the default) keeps the bound off.
    pub max_stale_ms: i64,
}

impl Default for QfeConfig {
    fn default() -> Self {
        QfeConfig {
            split_interval_ms: 86_400_000,
            cache_bytes: 64 << 20,
            recent_window_ms: 600_000,
            scheduler: SchedulerConfig::default(),
            max_fanout: 8,
            now: system_now(),
            trace_sink: None,
            max_live_per_tenant: 16,
            tenant_sample_rates: Default::default(),
            max_stale_ms: 0,
        }
    }
}

/// The wall clock as a [`NowFn`].
pub fn system_now() -> NowFn {
    Arc::new(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as i64)
            .unwrap_or(0)
    })
}

struct QfeInstruments {
    cache_requests: CounterVec,
    cached_steps: Counter,
    fetched_steps: Counter,
    split_subqueries: Histogram,
    shed: Counter,
    fallbacks: Counter,
    stale_serves: Counter,
    queue_depth: GaugeVec,
    cache_bytes: Gauge,
    cache_extents: Gauge,
    live_subscribers: Gauge,
    live_deltas: Counter,
    live_shed: Counter,
}

impl QfeInstruments {
    fn new(registry: &Registry) -> QfeInstruments {
        QfeInstruments {
            cache_requests: registry.counter_vec(
                "ceems_qfe_cache_requests_total",
                "Range queries by cache outcome (hit, partial, miss, bypass, fallback, degraded).",
                &["outcome"],
            ),
            cached_steps: registry.counter(
                "ceems_qfe_cached_steps_total",
                "Grid steps served from the results cache.",
            ),
            fetched_steps: registry.counter(
                "ceems_qfe_fetched_steps_total",
                "Grid steps fetched from the TSDB.",
            ),
            split_subqueries: registry.histogram(
                "ceems_qfe_split_subqueries",
                "Extents per split range query (fan-out width).",
                vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
            ),
            shed: registry.counter(
                "ceems_qfe_shed_total",
                "Queries refused with 429 because a tenant queue overflowed.",
            ),
            fallbacks: registry.counter(
                "ceems_qfe_downstream_fallback_total",
                "Split queries re-proxied whole after a sub-query failed.",
            ),
            stale_serves: registry.counter(
                "ceems_qfe_stale_serves_total",
                "Degraded answers built from cached extents because every replica was down.",
            ),
            queue_depth: registry.gauge_vec(
                "ceems_qfe_tenant_queue_depth",
                "Queries currently queued, per tenant.",
                &["tenant"],
            ),
            cache_bytes: registry.gauge(
                "ceems_qfe_cache_bytes",
                "Resident bytes in the results cache.",
            ),
            cache_extents: registry.gauge(
                "ceems_qfe_cache_extents",
                "Extents resident in the results cache.",
            ),
            live_subscribers: registry.gauge(
                "ceems_qfe_live_subscribers",
                "Open query_live subscriptions.",
            ),
            live_deltas: registry.counter(
                "ceems_qfe_live_deltas_total",
                "Step deltas pushed to live subscribers.",
            ),
            live_shed: registry.counter(
                "ceems_qfe_live_shed_total",
                "query_live subscriptions refused at the per-tenant cap.",
            ),
        }
    }
}

/// The query frontend. Construct with [`QueryFrontend::new`], then either
/// mount [`QueryFrontend::router`] behind a server or call
/// [`QueryFrontend::handle`] directly (in-process deployments, tests).
pub struct QueryFrontend {
    downstream: Arc<dyn Downstream>,
    cfg: QfeConfig,
    cache: ResultsCache,
    sched: Arc<FairScheduler>,
    registry: Registry,
    ins: QfeInstruments,
    http: HttpInstruments,
    live: Mutex<Vec<LiveSubscription>>,
}

/// One open `query_live` stream: the query re-renders on the step grid the
/// initial full render established, and each completed step past
/// `last_sent_step_ms` goes out as an SSE `delta` event.
struct LiveSubscription {
    tenant: String,
    query: String,
    step_ms: i64,
    last_sent_step_ms: i64,
    writer: StreamWriter,
}

impl QueryFrontend {
    /// Creates a frontend over a downstream.
    pub fn new(downstream: Arc<dyn Downstream>, cfg: QfeConfig) -> Arc<QueryFrontend> {
        let registry = Registry::new();
        let ins = QfeInstruments::new(&registry);
        let http = HttpInstruments::new("qfe", &registry);
        ceems_obs::register_build_info(&registry, "qfe");
        Arc::new(QueryFrontend {
            downstream,
            cache: ResultsCache::new(cfg.cache_bytes),
            sched: FairScheduler::new(cfg.scheduler),
            cfg,
            registry,
            ins,
            http,
            live: Mutex::new(Vec::new()),
        })
    }

    /// The frontend's metrics registry (served at `/metrics`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The results cache (tests peek at residency).
    pub fn cache(&self) -> &ResultsCache {
        &self.cache
    }

    /// The admission scheduler (tests peek at shed counts).
    pub fn scheduler(&self) -> &Arc<FairScheduler> {
        &self.sched
    }

    /// Handles one request end to end.
    pub fn handle(self: &Arc<Self>, req: &Request) -> Response {
        match req.path.as_str() {
            "/api/v1/query_range" => self.admitted(req, |fe| fe.handle_range(req)),
            "/api/v1/query" => self.admitted(req, |fe| fe.passthrough(req, None)),
            "/api/v1/query_live" => self.admitted(req, |fe| fe.handle_live(req)),
            _ => self.forward_or_gateway_error(req),
        }
    }

    /// The per-tenant head-sampling rate override, if any. The reserved
    /// meta tenant is pinned to 1.0 (self-monitoring traces always kept).
    fn effective_sample_rate(&self, tenant: &str) -> Option<f64> {
        if tenant == "__ceems_meta__" {
            return Some(1.0);
        }
        self.cfg.tenant_sample_rates.get(tenant).copied()
    }

    /// Opens a live query subscription (S23): one full render of the
    /// trailing window, then the response is held open as an SSE stream and
    /// [`QueryFrontend::push_live`] appends per-step `delta` events as
    /// samples arrive. `query` and `step` are required; `since` (seconds of
    /// history in the initial render) defaults to 300.
    fn handle_live(self: &Arc<Self>, req: &Request) -> Response {
        let (Some(query), Ok(step_ms)) = (req.query_param("query"), promapi::step_param(req))
        else {
            return Response::error(
                Status::BAD_REQUEST,
                "query_live requires query and step parameters",
            );
        };
        let since_ms = req
            .query_param("since")
            .and_then(|v| v.parse::<f64>().ok())
            .map(|s| (s * 1000.0) as i64)
            .filter(|s| *s > 0)
            .unwrap_or(300_000);
        let tenant = tenant_of(req).to_string();

        {
            let live = self.live.lock().unwrap();
            let held = live.iter().filter(|s| s.tenant == tenant).count();
            if held >= self.cfg.max_live_per_tenant {
                self.ins.live_shed.inc();
                return Response::error(
                    Status::TOO_MANY_REQUESTS,
                    format!(
                        "qfe: tenant {tenant:?} at live subscription cap ({})",
                        self.cfg.max_live_per_tenant
                    ),
                )
                .with_retry_after(1.0);
            }
        }

        // Full render over the phase-0 step grid ending at the last
        // completed step; deltas continue the same grid, so assembling
        // full+deltas reproduces a poll-mode render byte-for-byte.
        let now_ms = (self.cfg.now)();
        let end_ms = now_ms.div_euclid(step_ms) * step_ms;
        let start_ms = end_ms - (since_ms.div_euclid(step_ms).max(1)) * step_ms;
        let full = self.render_window(req, query, start_ms, end_ms, step_ms);
        if full.status != Status::OK {
            return full;
        }

        let (resp, writer) = Response::streaming(Status::OK);
        if !writer.send(sse_event("full", &full.body)) {
            return Response::error(Status::INTERNAL, "qfe: live stream closed at open");
        }
        self.live.lock().unwrap().push(LiveSubscription {
            tenant,
            query: query.to_string(),
            step_ms,
            last_sent_step_ms: end_ms,
            writer,
        });
        self.ins
            .live_subscribers
            .set(self.live.lock().unwrap().len() as f64);
        resp.with_header("content-type", "text/event-stream")
            .with_header("x-ceems-qfe-live-from", promapi::secs_param(end_ms))
    }

    /// Pushes newly completed steps to every live subscriber. Called by the
    /// ingest path (the stream bus wires this up after each push batch);
    /// polling deployments may also drive it off a timer. Returns the
    /// number of delta events sent; dead subscribers are dropped.
    pub fn push_live(self: &Arc<Self>, now_ms: i64) -> u64 {
        // Snapshot due work without holding the lock across renders.
        let due: Vec<(usize, String, String, i64, i64, i64)> = {
            let live = self.live.lock().unwrap();
            live.iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    let latest = now_ms.div_euclid(s.step_ms) * s.step_ms;
                    (latest > s.last_sent_step_ms).then(|| {
                        (
                            i,
                            s.tenant.clone(),
                            s.query.clone(),
                            s.last_sent_step_ms + s.step_ms,
                            latest,
                            s.step_ms,
                        )
                    })
                })
                .collect()
        };
        if due.is_empty() {
            return 0;
        }

        let mut sent = 0u64;
        let mut dead: Vec<usize> = Vec::new();
        for (idx, tenant, query, from_ms, to_ms, step_ms) in due {
            let qtrace = QueryTrace::begin(None);
            let stage = qtrace.stage("live_delta");
            let mut sub = Request::new(ceems_http::Method::Get, "/api/v1/query_live");
            sub = sub.with_header("x-grafana-user", &tenant);
            let delta = self.render_window(&sub, &query, from_ms, to_ms, step_ms);
            stage.finish();
            if let Some(sink) = &self.cfg.trace_sink {
                sink.offer_at_rate(
                    "qfe",
                    "/api/v1/query_live",
                    &tenant,
                    &qtrace.report(),
                    self.effective_sample_rate(&tenant),
                );
            }
            if delta.status != Status::OK {
                continue; // transient downstream trouble; retry next push
            }
            let mut live = self.live.lock().unwrap();
            let Some(sub) = live.get_mut(idx) else { continue };
            // A concurrent subscribe may have shifted indices; re-check
            // identity before updating state.
            if sub.query != query || sub.tenant != tenant {
                continue;
            }
            if sub.writer.send(sse_event("delta", &delta.body)) {
                sub.last_sent_step_ms = to_ms;
                sent += 1;
                self.ins.live_deltas.inc();
            } else {
                dead.push(idx);
            }
        }
        if !dead.is_empty() {
            let mut live = self.live.lock().unwrap();
            dead.sort_unstable_by(|a, b| b.cmp(a));
            for idx in dead {
                if idx < live.len() {
                    live.remove(idx);
                }
            }
            self.ins.live_subscribers.set(live.len() as f64);
        }
        sent
    }

    /// Open live subscriptions (tests and status endpoints).
    pub fn live_subscriber_count(&self) -> usize {
        self.live.lock().unwrap().len()
    }

    /// Renders one aligned window through the split/cache path by
    /// synthesizing an internal `query_range` request — live full renders
    /// and deltas therefore hit the same extent cache as polled queries.
    fn render_window(
        self: &Arc<Self>,
        req: &Request,
        query: &str,
        start_ms: i64,
        end_ms: i64,
        step_ms: i64,
    ) -> Response {
        let mut sub = Request::new(ceems_http::Method::Get, "/api/v1/query_range");
        sub.query = vec![
            ("query".to_string(), query.to_string()),
            ("start".to_string(), promapi::secs_param(start_ms)),
            ("end".to_string(), promapi::secs_param(end_ms)),
            ("step".to_string(), promapi::secs_param(step_ms)),
        ];
        for name in ["x-grafana-user", TRACE_HEADER] {
            if let Some(v) = req.header(name) {
                sub = sub.with_header(name, v);
            }
        }
        self.handle_range(&sub)
    }

    /// Runs `f` under a scheduler permit, or sheds with 429 + Retry-After.
    fn admitted(
        self: &Arc<Self>,
        req: &Request,
        f: impl FnOnce(&Arc<Self>) -> Response,
    ) -> Response {
        let tenant = tenant_of(req);
        let permit = self.sched.acquire(tenant);
        self.ins
            .queue_depth
            .with_label_values(&[tenant])
            .set(self.sched.queue_depth(tenant) as f64);
        match permit {
            Ok(_permit) => f(self),
            Err(shed) => {
                self.ins.shed.inc();
                Response::error(
                    Status::TOO_MANY_REQUESTS,
                    format!("qfe: tenant {tenant:?} queue full, retry later"),
                )
                .with_retry_after(shed.retry_after_s)
            }
        }
    }

    /// The split/cache/merge path. Anything it cannot prove it can
    /// reproduce byte-for-byte falls back to [`Self::passthrough`].
    fn handle_range(self: &Arc<Self>, req: &Request) -> Response {
        // The TSDB's own parameter parser; whatever it refuses, the TSDB
        // answers with its own error.
        let params = (EvalAt::parse(req, true, 0), req.query_param("query"));
        let (
            Ok(EvalAt::Range {
                start_ms,
                end_ms,
                step_ms,
            }),
            Some(query),
        ) = params
        else {
            return self.passthrough(req, Some("bypass"));
        };
        let expr = match parse_expr(query) {
            Ok(e) => e,
            Err(_) => return self.passthrough(req, Some("bypass")),
        };
        // Every sub-query re-reads its own lookback window (`rate`,
        // `increase`, `*_over_time`, the instant-vector staleness window)
        // from storage, so splitting never changes what a step sees — only
        // provably split-safe shapes get here at all.
        if let SplitSafety::Unsafe { .. } = split_safety(&expr) {
            return self.passthrough(req, Some("bypass"));
        }
        // An empty grid, or one the TSDB refuses (zero step, more than
        // `MAX_RANGE_POINTS` steps), is never walked here.
        if !matches!(range_points(start_ms, end_ms, step_ms), Ok(1..)) {
            return self.passthrough(req, Some("bypass"));
        }
        let grid = StepGrid { start_ms, end_ms, step_ms };

        let qtrace = QueryTrace::begin(req.header(TRACE_HEADER));
        let extents = split_grid(grid, self.cfg.split_interval_ms);
        let phase_ms = start_ms.rem_euclid(step_ms);
        let tenant = tenant_of(req);
        let traced = promapi::trace_requested(req);
        // An extent is stored once its last step is at or before the
        // horizon, and the horizon only moves forward: an extent past it,
        // or any with the cache off, was never stored, so it is neither
        // looked up nor keyed.
        let horizon_ms = (self.cfg.now)() - self.cfg.recent_window_ms;
        let cacheable = |e: &Extent| self.cfg.cache_bytes > 0 && e.last_step_ms <= horizon_ms;
        let norm = OnceCell::new();
        let key = |e: &Extent| {
            let norm = norm.get_or_init(|| normalize(&expr));
            extent_key(tenant, norm, step_ms, phase_ms, e)
        };

        // Cache lookup.
        let lookup_started = Instant::now();
        let mut slots: Vec<Option<Arc<ExtentData>>> = Vec::with_capacity(extents.len());
        let mut cached_steps = 0usize;
        for e in &extents {
            let hit = cacheable(e).then(|| self.cache.get(&key(e))).flatten();
            if hit.is_some() {
                cached_steps += e.step_count();
            }
            slots.push(hit);
        }
        let lookup_ms = lookup_started.elapsed().as_secs_f64() * 1e3;

        // An answer that is one fetched extent, untraced, is the
        // downstream's body as it stands: it is relayed, and read only if
        // the extent is going into the cache. Anything else is merged from
        // read extents and encoded again.
        let relay = extents.len() == 1 && slots[0].is_none() && !traced;

        // Fetch the misses on at most `max_fanout` workers, the calling
        // thread one of them. No worker runs under the caller's trace, so
        // every fetch leaves with the same headers.
        let missing: Vec<usize> =
            (0..extents.len()).filter(|i| slots[*i].is_none()).collect();
        let fetched_steps: usize = missing.iter().map(|i| extents[*i].step_count()).sum();
        let fetch_started = Instant::now();
        let fetched = {
            let _untraced = ceems_obs::trace::enter(None);
            ceems_tsdb::fan_out(&missing, self.cfg.max_fanout, Vec::new, |got, &i| {
                let read = !relay || cacheable(&extents[i]);
                got.push((i, self.fetch_extent(req, &extents[i], read)))
            })
        };
        let fetch_ms = fetch_started.elapsed().as_secs_f64() * 1e3;
        let mut failed = false;
        let mut relayed = None;
        for (slot, fetched) in fetched.into_iter().flatten() {
            match fetched {
                Some(Fetched { body, data }) => {
                    slots[slot] = data;
                    relayed = relay.then_some(body);
                }
                None => failed = true,
            }
        }
        if failed {
            // A sub-query failed (transport error, non-success status,
            // unexpected shape): re-run the query whole so the client sees
            // exactly what the TSDB would say. When the whole-query retry
            // cannot reach any replica either, degrade: answer from the
            // cached extents (with a warning) rather than failing the
            // dashboard outright.
            self.ins.fallbacks.inc();
            let fallback = self.passthrough(req, Some("fallback"));
            if fallback.status != Status::BAD_GATEWAY || cached_steps == 0 {
                return fallback;
            }
            self.ins.stale_serves.inc();
            return self.serve_stale(&extents, &slots, cached_steps);
        }

        // Store settled extents for the next request.
        for &i in &missing {
            if let (true, Some(data)) = (cacheable(&extents[i]), &slots[i]) {
                self.cache.put(key(&extents[i]), data.clone());
            }
        }

        // Merge back into the unsplit answer.
        let merge_started = Instant::now();
        let merged = match relayed {
            Some(_) => Vec::new(),
            None => merge_extents(slots.iter().flatten().map(|d| &**d)),
        };
        let merge_ms = merge_started.elapsed().as_secs_f64() * 1e3;

        let outcome = if missing.is_empty() {
            "hit"
        } else if cached_steps > 0 {
            "partial"
        } else {
            "miss"
        };
        self.ins.cache_requests.with_label_values(&[outcome]).inc();
        self.ins.cached_steps.add(cached_steps as f64);
        self.ins.fetched_steps.add(fetched_steps as f64);
        self.ins.split_subqueries.observe(extents.len() as f64);
        self.ins.cache_bytes.set(self.cache.bytes() as f64);
        self.ins.cache_extents.set(self.cache.len() as f64);

        // Stages are recorded for explicit `?trace=1` requests AND whenever
        // a trace sink is wired (always-on sampling) — the sink then decides
        // whether this trace is stored (head sample or slow-query tail).
        // One report serves both the `?trace=1` body and the sink.
        let report = (traced || self.cfg.trace_sink.is_some()).then(|| {
            qtrace.record_stage_ms("qfe_cache", lookup_ms + merge_ms);
            qtrace.record_stage_ms("qfe_split", fetch_ms);
            qtrace.add_count("subqueries", missing.len() as u64);
            qtrace.add_count("cachedSteps", cached_steps as u64);
            qtrace.add_count("fetchedSteps", fetched_steps as u64);
            qtrace.report()
        });
        let resp = match relayed {
            Some(body) => Response::json(body),
            None => promapi::answer(
                &QueryData::Matrix(merged),
                report.as_ref().filter(|_| traced),
                &[],
            ),
        };
        let resp = resp
            .with_header("x-ceems-qfe-cache", outcome)
            .with_header("x-ceems-qfe-cached-steps", cached_steps.to_string())
            .with_header("x-ceems-qfe-fetched-steps", fetched_steps.to_string());
        let sink = self.cfg.trace_sink.as_ref().zip(report.as_ref());
        let stored = sink.and_then(|(sink, report)| {
            sink.offer_at_rate(
                "qfe",
                "/api/v1/query_range",
                tenant,
                report,
                self.effective_sample_rate(tenant),
            )
        });
        match stored {
            Some(key) => resp.with_header(TRACE_STORED_HEADER, key),
            None => resp,
        }
    }

    /// Degraded render (S19): every replica is down, but part of the range
    /// sits in the results cache. Serves the cached extents (with gaps
    /// where nothing is cached), flags the response with a root-level
    /// `warnings` array and an `x-ceems-qfe-degraded: stale; age=<s>s`
    /// header — a stale dashboard beats a dead one, and the stamped age
    /// keeps it honest. When `max_stale_ms` bounds staleness (S24) and the
    /// freshest cached step is older than that, the degraded serve itself
    /// is refused with 502: past the bound, "no answer" is more truthful
    /// than an ancient one.
    fn serve_stale(
        &self,
        extents: &[Extent],
        slots: &[Option<Arc<ExtentData>>],
        cached_steps: usize,
    ) -> Response {
        // Age of the answer = distance from "now" to the freshest step we
        // can actually serve.
        let freshest_ms = extents
            .iter()
            .zip(slots)
            .filter_map(|(e, s)| s.as_ref().map(|_| e.last_step_ms))
            .max()
            .unwrap_or(0);
        let age_ms = ((self.cfg.now)() - freshest_ms).max(0);
        let age_s = age_ms / 1000;
        if self.cfg.max_stale_ms > 0 && age_ms > self.cfg.max_stale_ms {
            self.ins
                .cache_requests
                .with_label_values(&["too-stale"])
                .inc();
            return Response::error(
                Status::BAD_GATEWAY,
                format!(
                    "qfe: all replicas down and cached data is {age_s}s stale \
                     (max_stale {}s)",
                    self.cfg.max_stale_ms / 1000,
                ),
            );
        }
        let missing = slots.iter().filter(|s| s.is_none()).count();
        let data = QueryData::Matrix(merge_extents(slots.iter().flatten().map(|d| &**d)));
        self.ins
            .cache_requests
            .with_label_values(&["degraded"])
            .inc();
        let warning = format!(
            "qfe: {missing} of {} extents unavailable (all replicas down); \
             serving {cached_steps} cached steps ({age_s}s stale)",
            extents.len(),
        );
        promapi::answer(&data, None, &[warning])
            .with_header("x-ceems-qfe-cache", "degraded")
            .with_header("x-ceems-qfe-degraded", format!("stale; age={age_s}s"))
            .with_header("x-ceems-qfe-cached-steps", cached_steps.to_string())
    }

    /// One extent's sub-query, its answer `read` into series or only
    /// checked to be JSON; `None` when it fails.
    fn fetch_extent(&self, req: &Request, extent: &Extent, read: bool) -> Option<Fetched> {
        let mut sub = sub_request(req, extent);
        if let Some(rate) = self.effective_sample_rate(tenant_of(req)) {
            sub = sub.with_header(SAMPLE_RATE_HEADER, format!("{rate}"));
        }
        let body = match self.downstream.forward(&sub) {
            Ok(resp) if resp.status.is_success() => resp.body,
            _ => return None,
        };
        if !read {
            return promapi::is_json(&body).then_some(Fetched { body, data: None });
        }
        let data = promapi::decode_matrix(&body).ok()?;
        Some(Fetched {
            body,
            data: Some(Arc::new(data)),
        })
    }

    /// Forwards the request verbatim. When this replaces a traced query,
    /// the inner trace gets a `qfe_proxy` stage accounting for the
    /// frontend's own overhead, and `totalMs` is re-rooted here.
    fn passthrough(self: &Arc<Self>, req: &Request, outcome: Option<&str>) -> Response {
        if let Some(outcome) = outcome {
            self.ins.cache_requests.with_label_values(&[outcome]).inc();
        }
        let started = Instant::now();
        let forwarded;
        let req = match self.effective_sample_rate(tenant_of(req)) {
            Some(rate) if req.header(SAMPLE_RATE_HEADER).is_none() => {
                forwarded = req.clone().with_header(SAMPLE_RATE_HEADER, format!("{rate}"));
                &forwarded
            }
            _ => req,
        };
        let mut resp = match self.downstream.forward(req) {
            Ok(resp) => resp,
            Err(e) => {
                return Response::error(
                    Status::BAD_GATEWAY,
                    format!("qfe: downstream unavailable: {e}"),
                )
            }
        };
        if promapi::trace_requested(req) && resp.status.is_success() {
            let total_ms = started.elapsed().as_secs_f64() * 1e3;
            if let Some(body) =
                promapi::add_hop(&resp.body, &[], ("qfe_proxy", total_ms), total_ms, &[])
            {
                resp.body = body;
            }
        }
        match outcome {
            Some(outcome) => resp.with_header("x-ceems-qfe-cache", outcome),
            None => resp,
        }
    }

    /// Non-query traffic (labels, series, federation, …): proxy, no
    /// scheduling, no rewriting.
    fn forward_or_gateway_error(&self, req: &Request) -> Response {
        match self.downstream.forward(req) {
            Ok(resp) => resp,
            Err(e) => Response::error(
                Status::BAD_GATEWAY,
                format!("qfe: downstream unavailable: {e}"),
            ),
        }
    }

    /// Builds the frontend router: `/metrics` first, then everything else
    /// into [`Self::handle`].
    pub fn router(self: &Arc<Self>) -> Router {
        let mut router = Router::new();
        ceems_obs::add_metrics_route(&mut router, self.registry.clone());
        for method in [
            ceems_http::Method::Get,
            ceems_http::Method::Post,
            ceems_http::Method::Delete,
        ] {
            let me = self.clone();
            router.route(method, "/*rest", move |req| me.handle(req));
        }
        router
    }

    /// Serves the frontend on an ephemeral port with request
    /// instrumentation. Workers are sized past the scheduler's global
    /// concurrency cap so queued queries (which block their worker) cannot
    /// starve `/metrics`.
    pub fn serve(self: &Arc<Self>) -> std::io::Result<HttpServer> {
        self.serve_with(ServerConfig::ephemeral())
    }

    /// Serves the frontend with explicit server tuning. The worker count is
    /// still derived from the scheduler caps (overriding it risks queued
    /// queries starving the server's threads), but connection caps, idle
    /// timeout and backlog come from `config`.
    pub fn serve_with(self: &Arc<Self>, config: ServerConfig) -> std::io::Result<HttpServer> {
        let workers = self.cfg.scheduler.max_concurrency + self.cfg.scheduler.tenant_queue_depth + 4;
        HttpServer::serve_fn(config.with_workers(workers), self.http.wrap(self.router()))
    }
}

/// A sub-query's success answer: its body, and its series when read.
struct Fetched {
    body: Vec<u8>,
    data: Option<Arc<ExtentData>>,
}

/// Tenant identity: the LB forwards the authenticated user in
/// `X-Grafana-User`; direct/anonymous traffic shares one bucket.
fn tenant_of(req: &Request) -> &str {
    req.header("x-grafana-user").unwrap_or("anonymous")
}

/// Header carrying the effective head-sampling rate to downstream hops.
pub const SAMPLE_RATE_HEADER: &str = "x-ceems-trace-sample-rate";

/// Serializes one SSE event. Bodies are single-line JSON, so one `data:`
/// line suffices.
fn sse_event(event: &str, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + event.len() + 16);
    out.extend_from_slice(b"event: ");
    out.extend_from_slice(event.as_bytes());
    out.extend_from_slice(b"\ndata: ");
    out.extend_from_slice(body);
    out.extend_from_slice(b"\n\n");
    out
}

fn extent_key(tenant: &str, norm: &str, step_ms: i64, phase_ms: i64, e: &Extent) -> ExtentKey {
    ExtentKey {
        tenant: tenant.to_string(),
        expr: norm.to_string(),
        step_ms,
        phase_ms,
        first_step_ms: e.first_step_ms,
        last_step_ms: e.last_step_ms,
    }
}

/// Builds the sub-request for one extent: same query string and step
/// parameter verbatim, `start`/`end` trimmed to the extent, identity and
/// trace headers forwarded, `trace` param stripped (the frontend reports
/// its own stages).
fn sub_request(req: &Request, e: &Extent) -> Request {
    let mut sub = Request::new(req.method, &req.path);
    sub.query = vec![
        ("query".to_string(), req.query_param("query").unwrap_or("").to_string()),
        ("start".to_string(), promapi::secs_param(e.first_step_ms)),
        ("end".to_string(), promapi::secs_param(e.last_step_ms)),
        ("step".to_string(), req.query_param("step").unwrap_or("").to_string()),
    ];
    for name in ["x-grafana-user", TRACE_HEADER] {
        if let Some(v) = req.header(name) {
            sub = sub.with_header(name, v);
        }
    }
    sub
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_http::Method;
    use serde_json::{json, Value as Json};

    use std::sync::atomic::{AtomicBool, Ordering};

    /// Downstream that records sub-requests and evaluates a fixed series:
    /// `m` has value `t/1000` at every step. `fail` can be flipped mid-test
    /// to simulate every replica going down.
    struct FakeDownstream {
        calls: Mutex<Vec<String>>,
        fail: AtomicBool,
    }

    impl Downstream for FakeDownstream {
        fn forward(&self, req: &Request) -> Result<Response, String> {
            self.calls.lock().unwrap().push(req.path_and_query());
            if self.fail.load(Ordering::Relaxed) {
                return Err("boom".to_string());
            }
            let start = (req.query_param("start").unwrap().parse::<f64>().unwrap() * 1000.0) as i64;
            let end = (req.query_param("end").unwrap().parse::<f64>().unwrap() * 1000.0) as i64;
            let step = (req.query_param("step").unwrap().parse::<f64>().unwrap() * 1000.0) as i64;
            let values: Vec<Json> = StepGrid { start_ms: start, end_ms: end, step_ms: step }
                .steps()
                .map(|t| json!([t as f64 / 1000.0, format!("{}", t / 1000)]))
                .collect();
            let data = json!({
                "resultType": "matrix",
                "result": [{"metric": {"__name__": "m"}, "values": values}],
            });
            let body = serde_json::to_vec(&json!({"status": "success", "data": data})).unwrap();
            Ok(Response::json(body))
        }
    }

    fn frontend(fail: bool, now_ms: i64) -> (Arc<QueryFrontend>, Arc<FakeDownstream>) {
        let ds = Arc::new(FakeDownstream {
            calls: Mutex::new(Vec::new()),
            fail: AtomicBool::new(fail),
        });
        let cfg = QfeConfig {
            split_interval_ms: 60_000,
            recent_window_ms: 0,
            now: Arc::new(move || now_ms),
            ..QfeConfig::default()
        };
        (QueryFrontend::new(ds.clone() as Arc<dyn Downstream>, cfg), ds)
    }

    fn range_req(query: &str, start_s: i64, end_s: i64, step_s: i64) -> Request {
        Request::new(
            Method::Get,
            &format!("/api/v1/query_range?query={query}&start={start_s}&end={end_s}&step={step_s}"),
        )
    }

    fn traced_req(query: &str, start_s: i64, end_s: i64, step_s: i64) -> Request {
        let req = range_req(query, start_s, end_s, step_s);
        Request::new(Method::Get, &format!("{}&trace=1", req.path_and_query()))
    }

    #[test]
    fn splits_then_serves_second_request_from_cache() {
        let (fe, ds) = frontend(false, 10_000_000);
        let req = range_req("m", 0, 179, 15);
        let first = fe.handle(&req);
        assert_eq!(first.status, Status::OK);
        assert_eq!(first.header("x-ceems-qfe-cache"), Some("miss"));
        let fanned = ds.calls.lock().unwrap().len();
        assert_eq!(fanned, 3, "0..179 at 60s windows spans 3 extents");

        let second = fe.handle(&req);
        assert_eq!(second.header("x-ceems-qfe-cache"), Some("hit"));
        assert_eq!(ds.calls.lock().unwrap().len(), fanned, "no new sub-queries");
        assert_eq!(first.body, second.body, "cached render is byte-identical");
    }

    #[test]
    fn unsafe_expressions_bypass_split_and_cache() {
        let (fe, ds) = frontend(false, 10_000_000);
        let req = range_req("topk(2, m)", 0, 179, 15);
        let resp = fe.handle(&req);
        assert_eq!(resp.header("x-ceems-qfe-cache"), Some("bypass"));
        let calls = ds.calls.lock().unwrap();
        assert_eq!(calls.len(), 1, "forwarded whole, not split");
        assert!(calls[0].contains("query=topk"));
        assert!(fe.cache().is_empty());
    }

    /// Grids over the TSDB's resolution cap (10^13 steps, a saturated
    /// `end`, a step that rounds to 0 ms) used to be walked step by step in
    /// `split_grid`; they are relayed whole and the TSDB's error comes back.
    #[test]
    fn grids_the_tsdb_refuses_bypass_unsplit() {
        let db = Arc::new(ceems_tsdb::Tsdb::default());
        let router = ceems_tsdb::httpapi::api_router(db, Arc::new(|| 0));
        let fe = QueryFrontend::new(
            Arc::new(crate::RouterDownstream::new(router)),
            QfeConfig::default(),
        );
        for (params, error) in [
            (
                "start=0&end=9999999999&step=0.001",
                "exceeded maximum resolution of 11,000 points",
            ),
            (
                "start=-5&end=1e300&step=15",
                "exceeded maximum resolution of 11,000 points",
            ),
            ("start=0&end=60&step=0.0001", "step must be positive"),
        ] {
            let req = Request::new(
                Method::Get,
                &format!("/api/v1/query_range?query=1&{params}"),
            );
            let resp = fe.handle(&req);
            assert_eq!(resp.header("x-ceems-qfe-cache"), Some("bypass"), "{params}");
            assert_eq!(resp.status, Status::UNPROCESSABLE, "{params}");
            let body = String::from_utf8_lossy(&resp.body).into_owned();
            assert!(body.contains(error), "{params}: {body}");
        }
    }

    /// The frontend reads `start`/`end` with the TSDB's parser, so a time
    /// the TSDB refuses gets the TSDB's own 400, byte for byte.
    #[test]
    fn non_finite_times_get_the_tsdbs_answer() {
        let tsdb = || {
            let db = Arc::new(ceems_tsdb::Tsdb::default());
            ceems_tsdb::httpapi::api_router(db, Arc::new(|| 0))
        };
        let downstream = Arc::new(crate::RouterDownstream::new(tsdb()));
        let fe = QueryFrontend::new(downstream, QfeConfig::default());
        let direct = tsdb();
        for path in [
            "/api/v1/query?query=up&time=NaN",
            "/api/v1/query_range?query=up&start=NaN&end=60&step=15",
            "/api/v1/query_range?query=up&start=0&end=inf&step=15",
        ] {
            let req = Request::new(Method::Get, path);
            let resp = fe.handle(&req);
            assert_eq!(resp.status, Status::BAD_REQUEST, "{path}");
            assert_eq!(resp.body, direct.dispatch(req).body, "{path}");
        }
    }

    #[test]
    fn recent_window_is_never_cached() {
        // now = 120s; recent_window covers everything ⇒ nothing cacheable.
        let ds = Arc::new(FakeDownstream { calls: Mutex::new(Vec::new()), fail: AtomicBool::new(false) });
        let cfg = QfeConfig {
            split_interval_ms: 60_000,
            recent_window_ms: 1_000_000,
            now: Arc::new(|| 120_000),
            ..QfeConfig::default()
        };
        let fe = QueryFrontend::new(ds.clone() as Arc<dyn Downstream>, cfg);
        let resp = fe.handle(&range_req("m", 0, 119, 15));
        assert_eq!(resp.status, Status::OK);
        assert!(fe.cache().is_empty(), "recent extents must not be cached");
        let again = fe.handle(&range_req("m", 0, 119, 15));
        assert_eq!(again.header("x-ceems-qfe-cache"), Some("miss"));
    }

    #[test]
    fn failed_subquery_falls_back_to_whole_proxy() {
        let (fe, ds) = frontend(true, 10_000_000);
        let resp = fe.handle(&range_req("m", 0, 179, 15));
        // Sub-queries failed, then the whole-proxy fallback failed too (the
        // fake downstream fails everything): a 502 surfaces.
        assert_eq!(resp.status, Status::BAD_GATEWAY);
        assert!(ds.calls.lock().unwrap().len() >= 2);
    }

    #[test]
    fn all_replicas_down_serves_stale_cache_with_warning() {
        let (fe, ds) = frontend(false, 10_000_000);
        let warm = fe.handle(&range_req("m", 0, 179, 15));
        assert_eq!(warm.status, Status::OK);
        ds.fail.store(true, Ordering::Relaxed);

        // The longer range needs one fresh extent. Every replica is down,
        // so the frontend serves the three cached extents and says so.
        let resp = fe.handle(&range_req("m", 0, 239, 15));
        assert_eq!(resp.status, Status::OK, "body: {}", resp.body_string());
        // now = 10_000s and the freshest cached step is 165s: the stamped
        // age is the distance between them.
        assert_eq!(resp.header("x-ceems-qfe-degraded"), Some("stale; age=9835s"));
        assert_eq!(resp.header("x-ceems-qfe-cache"), Some("degraded"));
        let v: Json = serde_json::from_slice(&resp.body).unwrap();
        let warnings = v["warnings"].as_array().unwrap();
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings[0].as_str().unwrap().contains("1 of 4 extents"),
            "warning: {}",
            warnings[0]
        );
        // The cached 0..179 window is present; the missing extent is a
        // gap, not an error.
        let values = v["data"]["result"][0]["values"].as_array().unwrap();
        assert_eq!(values.first().unwrap()[0].as_f64(), Some(0.0));
        assert_eq!(values.last().unwrap()[0].as_f64(), Some(165.0));
        assert_eq!(fe.ins.stale_serves.get(), 1.0);

        // With nothing cached there is nothing to degrade to: plain 502.
        let miss = fe.handle(&range_req("other", 0, 59, 15));
        assert_eq!(miss.status, Status::BAD_GATEWAY);
        assert_eq!(fe.ins.stale_serves.get(), 1.0);
    }

    #[test]
    fn stale_serves_beyond_max_stale_are_refused() {
        let ds = Arc::new(FakeDownstream {
            calls: Mutex::new(Vec::new()),
            fail: AtomicBool::new(false),
        });
        let cfg = QfeConfig {
            split_interval_ms: 60_000,
            recent_window_ms: 0,
            now: Arc::new(|| 10_000_000),
            // Freshest cacheable step is 165s; 10_000s − 165s ≫ 900s.
            max_stale_ms: 900_000,
            ..QfeConfig::default()
        };
        let fe = QueryFrontend::new(ds.clone() as Arc<dyn Downstream>, cfg);
        let warm = fe.handle(&range_req("m", 0, 179, 15));
        assert_eq!(warm.status, Status::OK);
        ds.fail.store(true, Ordering::Relaxed);

        let resp = fe.handle(&range_req("m", 0, 239, 15));
        assert_eq!(
            resp.status,
            Status::BAD_GATEWAY,
            "a degraded answer older than max_stale must be refused"
        );
        assert!(resp.body_string().contains("stale"), "body: {}", resp.body_string());
        assert!(resp.header("x-ceems-qfe-degraded").is_none());
    }

    #[test]
    fn trace_reports_qfe_stages() {
        let (fe, _ds) = frontend(false, 10_000_000);
        let req = Request::new(
            Method::Get,
            "/api/v1/query_range?query=m&start=0&end=179&step=15&trace=1",
        );
        let resp = fe.handle(&req);
        let v: Json = serde_json::from_slice(&resp.body).unwrap();
        let trace = &v["data"]["trace"];
        let stages: Vec<&str> = trace["stages"]
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s["name"].as_str().unwrap())
            .collect();
        assert!(stages.contains(&"qfe_cache"), "stages: {stages:?}");
        assert!(stages.contains(&"qfe_split"));
        let sum: f64 = trace["stages"]
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s["ms"].as_f64().unwrap())
            .sum();
        assert!(sum <= trace["totalMs"].as_f64().unwrap() + 1e-6);
        assert_eq!(trace["counts"]["subqueries"], 3);
    }

    /// Today's answer for one fetched extent: its body read into series,
    /// merged and encoded again.
    fn reencoded(body: &[u8]) -> Vec<u8> {
        let series = promapi::decode_matrix(body).unwrap();
        promapi::answer(&QueryData::Matrix(merge_extents([&series])), None, &[]).body
    }

    /// A one-extent miss is the downstream's body, byte for byte, which
    /// is also what reading it and encoding it again writes; it carries
    /// the headers and moves the counters the encoded answer does.
    #[test]
    fn a_one_extent_miss_relays_the_downstream_body() {
        // now = 30 s with no recent window: 0..45 ends past the horizon,
        // so the extent is relayed and never read.
        let (fe, ds) = frontend(false, 30_000);
        let req = range_req("m", 0, 59, 15);
        let resp = fe.handle(&req);
        assert_eq!(resp.status, Status::OK);
        let downstream = ds.forward(&req).unwrap().body;
        assert_eq!(resp.body, downstream);
        assert_eq!(resp.body, reencoded(&downstream));
        assert!(fe.cache().is_empty());

        // A traced request takes the encoding path; a fresh frontend
        // answers it with the same headers.
        let (traced_fe, _) = frontend(false, 30_000);
        let traced = traced_fe.handle(&traced_req("m", 0, 59, 15));
        assert_eq!(resp.headers, traced.headers);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.header("x-ceems-qfe-cache"), Some("miss"));
        assert_eq!(resp.header("x-ceems-qfe-cached-steps"), Some("0"));
        assert_eq!(resp.header("x-ceems-qfe-fetched-steps"), Some("4"));

        let misses = fe.ins.cache_requests.with_label_values(&["miss"]);
        assert_eq!((misses.get(), fe.ins.fetched_steps.get()), (1.0, 4.0));
        fe.handle(&req);
        assert_eq!((misses.get(), fe.ins.fetched_steps.get()), (2.0, 8.0));
        assert_eq!(fe.ins.cached_steps.get(), 0.0);
    }

    /// A settled single extent is read on its way into the cache, still
    /// relayed, and the next request for it is a hit with the same bytes.
    #[test]
    fn a_settled_one_extent_miss_is_stored_and_then_hit() {
        let (fe, ds) = frontend(false, 10_000_000);
        let req = range_req("m", 0, 59, 15);
        let first = fe.handle(&req);
        assert_eq!(first.header("x-ceems-qfe-cache"), Some("miss"));
        assert_eq!(first.body, ds.forward(&req).unwrap().body);
        assert_eq!(fe.cache().len(), 1);
        let calls = ds.calls.lock().unwrap().len();

        let second = fe.handle(&req);
        assert_eq!(second.header("x-ceems-qfe-cache"), Some("hit"));
        assert_eq!(ds.calls.lock().unwrap().len(), calls);
        assert_eq!(second.body, first.body);
        assert_eq!(fe.ins.cached_steps.get(), 4.0);
    }

    /// A 2xx sub-answer that is not JSON is not relayed: the query is
    /// re-proxied whole, settled or not.
    #[test]
    fn a_non_json_success_falls_back_whether_relayed_or_read() {
        struct Garbled;
        impl Downstream for Garbled {
            fn forward(&self, _req: &Request) -> Result<Response, String> {
                Ok(Response::json(&b"{\"status\":\"success\","[..]))
            }
        }
        for now_ms in [30_000, 10_000_000] {
            let cfg = QfeConfig {
                split_interval_ms: 60_000,
                recent_window_ms: 0,
                now: Arc::new(move || now_ms),
                ..QfeConfig::default()
            };
            let fe = QueryFrontend::new(Arc::new(Garbled), cfg);
            let resp = fe.handle(&range_req("m", 0, 59, 15));
            let outcome = resp.header("x-ceems-qfe-cache");
            assert_eq!(outcome, Some("fallback"), "{now_ms}");
            assert_eq!(fe.ins.fallbacks.get(), 1.0);
            assert!(fe.cache().is_empty());
        }
    }

    /// `?trace=1` on one extent still carries the frontend's stages.
    #[test]
    fn a_traced_one_extent_answer_carries_the_qfe_stages() {
        for now_ms in [30_000, 10_000_000] {
            let (fe, _ds) = frontend(false, now_ms);
            let resp = fe.handle(&traced_req("m", 0, 59, 15));
            assert_eq!(resp.header("x-ceems-qfe-cache"), Some("miss"));
            let v: Json = serde_json::from_slice(&resp.body).unwrap();
            let stages: Vec<&str> = v["data"]["trace"]["stages"]
                .as_array()
                .unwrap()
                .iter()
                .map(|s| s["name"].as_str().unwrap())
                .collect();
            assert_eq!(stages, ["qfe_cache", "qfe_split"], "{now_ms}");
            assert_eq!(v["data"]["trace"]["counts"]["subqueries"], 1);
            let values = v["data"]["result"][0]["values"].as_array().unwrap();
            assert_eq!(values.len(), 4);
        }
    }

    fn sse_events(chunks: &[Vec<u8>]) -> Vec<(String, Json)> {
        let text: String = chunks
            .iter()
            .map(|c| String::from_utf8_lossy(c).into_owned())
            .collect();
        text.split("\n\n")
            .filter(|e| !e.trim().is_empty())
            .map(|e| {
                let mut event = String::new();
                let mut data = Json::Null;
                for line in e.lines() {
                    if let Some(v) = line.strip_prefix("event: ") {
                        event = v.to_string();
                    } else if let Some(v) = line.strip_prefix("data: ") {
                        data = serde_json::from_str(v).unwrap();
                    }
                }
                (event, data)
            })
            .collect()
    }

    fn values_of(data: &Json) -> Vec<Json> {
        data["data"]["result"][0]["values"]
            .as_array()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn query_live_pushes_step_deltas_matching_poll_mode() {
        use std::sync::atomic::AtomicI64;
        let ds = Arc::new(FakeDownstream {
            calls: Mutex::new(Vec::new()),
            fail: AtomicBool::new(false),
        });
        let clock = Arc::new(AtomicI64::new(100_000));
        let c = clock.clone();
        let cfg = QfeConfig {
            split_interval_ms: 60_000,
            recent_window_ms: 0,
            now: Arc::new(move || c.load(Ordering::Relaxed)),
            ..QfeConfig::default()
        };
        let fe = QueryFrontend::new(ds as Arc<dyn Downstream>, cfg);

        let req = Request::new(Method::Get, "/api/v1/query_live?query=m&step=15&since=60");
        let resp = fe.handle(&req);
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.header("content-type"), Some("text/event-stream"));
        let stream = resp.stream.clone().expect("live response streams");
        let (chunks, _) = stream.take_chunks();
        let events = sse_events(&chunks);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, "full");
        // Full render: steps 30..=90 (end floored to the 15s grid).
        let full_values = values_of(&events[0].1);
        assert_eq!(full_values.first().unwrap()[0].as_f64(), Some(30.0));
        assert_eq!(full_values.last().unwrap()[0].as_f64(), Some(90.0));
        assert_eq!(fe.live_subscriber_count(), 1);

        // Nothing new yet: same step, no delta.
        assert_eq!(fe.push_live(101_000), 0);

        // Two steps complete: one delta carrying both.
        clock.store(121_000, Ordering::Relaxed);
        assert_eq!(fe.push_live(121_000), 1);
        let (chunks, _) = stream.take_chunks();
        let events = sse_events(&chunks);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, "delta");
        let delta_values = values_of(&events[0].1);
        assert_eq!(delta_values.first().unwrap()[0].as_f64(), Some(105.0));
        assert_eq!(delta_values.last().unwrap()[0].as_f64(), Some(120.0));

        // Assembled full+delta equals a poll-mode render of the same grid.
        let poll = fe.handle(&range_req("m", 30, 120, 15));
        let poll_v: Json = serde_json::from_slice(&poll.body).unwrap();
        let mut assembled = full_values.clone();
        assembled.extend(delta_values);
        assert_eq!(
            serde_json::to_vec(&assembled).unwrap(),
            serde_json::to_vec(&poll_v["data"]["result"][0]["values"]).unwrap(),
            "live assembly must be byte-identical to poll mode"
        );

        // Consumer disconnect: the subscription is dropped at next push.
        stream.abort();
        clock.store(136_000, Ordering::Relaxed);
        assert_eq!(fe.push_live(136_000), 0);
        assert_eq!(fe.live_subscriber_count(), 0);
    }

    #[test]
    fn query_live_caps_subscriptions_per_tenant() {
        let ds = Arc::new(FakeDownstream {
            calls: Mutex::new(Vec::new()),
            fail: AtomicBool::new(false),
        });
        let cfg = QfeConfig {
            split_interval_ms: 60_000,
            recent_window_ms: 0,
            now: Arc::new(|| 100_000),
            max_live_per_tenant: 1,
            ..QfeConfig::default()
        };
        let fe = QueryFrontend::new(ds as Arc<dyn Downstream>, cfg);
        let req = Request::new(Method::Get, "/api/v1/query_live?query=m&step=15");
        let first = fe.handle(&req);
        assert_eq!(first.status, Status::OK);
        let second = fe.handle(&req);
        assert_eq!(second.status, Status::TOO_MANY_REQUESTS);
        assert!(second.header("retry-after").is_some());
        // Another tenant still fits.
        let other = fe.handle(&req.clone().with_header("x-grafana-user", "bob"));
        assert_eq!(other.status, Status::OK);
        assert_eq!(fe.ins.live_shed.get(), 1.0);
    }

    #[test]
    fn tenant_sample_rate_propagates_downstream() {
        let ds = Arc::new(FakeDownstream {
            calls: Mutex::new(Vec::new()),
            fail: AtomicBool::new(false),
        });
        let mut rates = std::collections::BTreeMap::new();
        rates.insert("alice".to_string(), 0.25);
        let cfg = QfeConfig {
            split_interval_ms: 60_000,
            recent_window_ms: 0,
            now: Arc::new(|| 10_000_000),
            tenant_sample_rates: rates,
            ..QfeConfig::default()
        };
        let fe = QueryFrontend::new(ds as Arc<dyn Downstream>, cfg);
        assert_eq!(fe.effective_sample_rate("alice"), Some(0.25));
        assert_eq!(fe.effective_sample_rate("bob"), None);
        assert_eq!(
            fe.effective_sample_rate("__ceems_meta__"),
            Some(1.0),
            "meta tenant pinned to full sampling"
        );
        let resp = fe.handle(&range_req("m", 0, 59, 15).with_header("x-grafana-user", "alice"));
        assert_eq!(resp.status, Status::OK);
    }

    /// One missing extent is fetched on the calling thread. The downstream
    /// must not notice: same sub-request, same headers, and no current
    /// trace (a fan-out worker never had one), so a `TsdbClient` adds the
    /// trace header exactly when the request carried it.
    #[test]
    fn single_extent_fetch_looks_like_a_fanned_out_one() {
        #[derive(Clone, Debug, PartialEq)]
        struct Seen {
            url: String,
            trace_header: Option<String>,
            sample_rate: Option<String>,
            in_trace: bool,
        }
        struct Recording {
            inner: FakeDownstream,
            seen: Mutex<Vec<Seen>>,
        }
        impl Downstream for Recording {
            fn forward(&self, req: &Request) -> Result<Response, String> {
                self.seen.lock().unwrap().push(Seen {
                    url: req.path_and_query(),
                    trace_header: req.header(TRACE_HEADER).map(str::to_string),
                    sample_rate: req.header(SAMPLE_RATE_HEADER).map(str::to_string),
                    in_trace: ceems_obs::trace::current().is_some(),
                });
                self.inner.forward(req)
            }
        }
        let run = |req: &Request| {
            let ds = Arc::new(Recording {
                inner: FakeDownstream {
                    calls: Mutex::new(Vec::new()),
                    fail: AtomicBool::new(false),
                },
                seen: Mutex::new(Vec::new()),
            });
            let cfg = QfeConfig {
                split_interval_ms: 60_000,
                recent_window_ms: 0,
                now: Arc::new(|| 10_000_000),
                tenant_sample_rates: [("alice".to_string(), 0.25)].into(),
                ..QfeConfig::default()
            };
            let fe = QueryFrontend::new(ds.clone() as Arc<dyn Downstream>, cfg);
            let _outer = ceems_obs::trace::enter(Some(QueryTrace::begin(None)));
            let resp = fe.handle(req);
            assert_eq!(resp.status, Status::OK);
            let seen = ds.seen.lock().unwrap().clone();
            (resp, seen)
        };

        // 0..59 is one extent, 0..179 three.
        let one = range_req("m", 0, 59, 15).with_header("x-grafana-user", "alice");
        let three = range_req("m", 0, 179, 15).with_header("x-grafana-user", "alice");
        let (resp, seen) = run(&one);
        assert_eq!(resp.header("x-ceems-qfe-cache"), Some("miss"));
        let (_, fanned) = run(&three);
        assert_eq!((seen.len(), fanned.len()), (1, 3));
        assert!(
            fanned.contains(&seen[0]),
            "0..45 is the first extent of both"
        );
        assert_eq!(seen[0].trace_header, None);
        assert_eq!(seen[0].sample_rate.as_deref(), Some("0.25"));
        assert!(
            !seen[0].in_trace,
            "the caller's trace must not leak into the fetch"
        );

        let (_, seen) = run(&one.clone().with_header(TRACE_HEADER, "feedface"));
        assert_eq!(seen[0].trace_header.as_deref(), Some("feedface"));
    }

    #[test]
    fn shed_returns_429_with_retry_after() {
        let ds = Arc::new(FakeDownstream { calls: Mutex::new(Vec::new()), fail: AtomicBool::new(false) });
        let cfg = QfeConfig {
            scheduler: SchedulerConfig {
                tenant_queue_depth: 0,
                max_tenant_concurrency: 1,
                max_concurrency: 1,
                retry_after_s: 0.25,
            },
            ..QfeConfig::default()
        };
        let fe = QueryFrontend::new(ds as Arc<dyn Downstream>, cfg);
        // Hold the only slot on another thread, then overflow the queue.
        let _held = fe.scheduler().acquire("alice").unwrap();
        let resp = fe.handle(&range_req("m", 0, 10, 5).with_header("x-grafana-user", "alice"));
        assert_eq!(resp.status, Status::TOO_MANY_REQUESTS);
        assert_eq!(resp.retry_after_secs(), Some(0.25));
        assert_eq!(fe.scheduler().shed_count(), 1);
    }
}
