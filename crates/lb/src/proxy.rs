//! The reverse proxy.
//!
//! Flow per request (§II.B.c): read the user from `X-Grafana-User` → for
//! query endpoints, introspect the PromQL for unit uuids → verify ownership
//! (admins skip) → pick a backend by strategy → forward and relay the
//! response. Unscoped or unverifiable queries are forbidden for non-admins:
//! the LB fails closed.
//!
//! Observability (S17): forwards carry a trace ID (minted here or accepted
//! from the `x-ceems-trace-id` header); `?trace=1` replies come back with
//! the LB's own `lb_auth`/`lb_forward` stages merged into `data.trace`.
//! Resilience (S19): forward failures, 5xx answers and corrupt 2xx bodies
//! feed a per-backend circuit breaker (three strikes opens it) and retry the
//! next pick; when everything is demoted or open, on-demand revival probes
//! re-promote recovered backends before the LB answers 503. `/metrics`
//! serves forwarding latency, per-backend outcome counters and breaker
//! open/rejection events.

use std::sync::Arc;
use std::time::Instant;

#[cfg(test)]
use serde_json::Value as Json;

use ceems_http::{Client, HttpServer, Request, Response, Router, ServerConfig, Status};
use ceems_metrics::{Counter, CounterVec, Histogram, MetricType, Registry, Sink};
use ceems_obs::http::TRACE_STORED_HEADER;
use ceems_obs::trace::QueryTrace;
use ceems_obs::{HttpInstruments, TraceSink, TRACE_HEADER};
use ceems_tsdb::promapi;

use crate::acl::Authorizer;
use crate::backend::BackendPool;
use crate::introspect::{introspect, Introspection};

/// LB configuration.
#[derive(Default)]
pub struct LbConfig {
    /// Users allowed to run unscoped queries (operators).
    pub admin_users: Vec<String>,
    /// Base URL of the query frontend (`ceems-qfe`). When set, authorized
    /// query traffic goes through the frontend (which splits, caches and
    /// fans out to the replicas itself); the LB falls back to its own
    /// backend pool if the frontend is unreachable. Non-query traffic
    /// always uses the pool.
    pub query_frontend: Option<String>,
    /// Trace sink (S22): every query's finished trace is offered here;
    /// head sampling or tail (slow) capture decides whether it is stored.
    /// When a trace is stored the response carries [`TRACE_STORED_HEADER`]
    /// and the forward histogram gets the trace ID as an exemplar.
    pub trace_sink: Option<Arc<TraceSink>>,
}

/// The LB's own telemetry: forwarding latency, per-backend outcomes,
/// retries and denials.
struct LbInstruments {
    forward_seconds: Histogram,
    requests: CounterVec,
    retries: Counter,
    denied: Counter,
    unavailable: Counter,
    frontend_fallbacks: Counter,
    breaker_events: CounterVec,
    corrupt: Counter,
    repromotions: Counter,
}

impl LbInstruments {
    fn new(registry: &Registry) -> LbInstruments {
        LbInstruments {
            forward_seconds: registry.histogram(
                "ceems_lb_forward_duration_seconds",
                "One backend forward: connect, request, response.",
                Histogram::duration_buckets(),
            ),
            requests: registry.counter_vec(
                "ceems_lb_proxy_requests_total",
                "Forwarded requests by backend and outcome.",
                &["backend", "outcome"],
            ),
            retries: registry.counter(
                "ceems_lb_retries_total",
                "Forwards retried on another backend after a failure.",
            ),
            denied: registry.counter(
                "ceems_lb_denied_total",
                "Requests rejected by access control.",
            ),
            unavailable: registry.counter(
                "ceems_lb_unavailable_total",
                "Requests refused because no healthy backend existed.",
            ),
            frontend_fallbacks: registry.counter(
                "ceems_lb_frontend_fallback_total",
                "Queries sent straight to the pool after the query frontend failed.",
            ),
            breaker_events: registry.counter_vec(
                "ceems_lb_breaker_events_total",
                "Circuit-breaker opens and rejections by backend.",
                &["backend", "event"],
            ),
            corrupt: registry.counter(
                "ceems_lb_corrupt_responses_total",
                "Successful query responses dropped because the body failed to parse.",
            ),
            repromotions: registry.counter(
                "ceems_lb_repromotions_total",
                "Backends re-promoted into rotation by on-demand revival probes.",
            ),
        }
    }
}

/// What the forward paths share about the request in flight.
struct Flight<'a> {
    req: &'a Request,
    /// The LB's span; queries only.
    qtrace: Option<QueryTrace>,
    /// The client asked for `data.trace` in the reply.
    trace_requested: bool,
    auth_ms: f64,
    total_start: Instant,
}

/// What one forward amounted to, in the vocabulary of the `outcome` label
/// of `ceems_lb_proxy_requests_total`: `error` (no response at all),
/// `corrupt` (a 2xx whose body should be JSON and is not), `5xx`, `fenced`
/// (409: the backend lost its write epoch) or `ok`.
fn outcome_of<E>(result: &Result<Response, E>, expect_json: bool) -> &'static str {
    match result {
        Err(_) => "error",
        Ok(r) if expect_json && r.status.is_success() && !promapi::is_json(&r.body) => "corrupt",
        Ok(r) if r.status.0 >= 500 => "5xx",
        Ok(r) if r.status.0 == 409 => "fenced",
        Ok(_) => "ok",
    }
}

/// Whether an outcome counts against the backend's breaker.
fn is_failure(outcome: &str) -> bool {
    matches!(outcome, "error" | "corrupt" | "5xx")
}

/// The load balancer.
pub struct CeemsLb {
    pool: Arc<BackendPool>,
    authorizer: Authorizer,
    config: LbConfig,
    client: Client,
    registry: Registry,
    instruments: LbInstruments,
    http: HttpInstruments,
}

impl CeemsLb {
    /// Creates the LB.
    pub fn new(pool: BackendPool, authorizer: Authorizer, config: LbConfig) -> CeemsLb {
        let pool = Arc::new(pool);
        let registry = Registry::new();
        let instruments = LbInstruments::new(&registry);
        let http = HttpInstruments::new("lb", &registry);
        ceems_obs::register_build_info(&registry, "lb");
        {
            // Failover visibility (S24): how many times the epoch-keyed write
            // route moved to a different leader, the epoch it currently
            // trusts, and each replica's WAL lag — read at scrape time from
            // what the health checks already computed for staleness
            // demotion (the replica-lag alert rule queries this instead of
            // re-deriving it).
            let p = pool.clone();
            registry.register(
                "lb_failovers",
                Arc::new(move |out: &mut dyn Sink| {
                    out.family(
                        "ceems_lb_failovers_total",
                        "Write-route leader changes observed by health checks.",
                        MetricType::Counter,
                    );
                    out.sample("", &[], p.failovers() as f64);
                    out.family(
                        "ceems_lb_write_epoch",
                        "Epoch of the leader the write route currently targets.",
                        MetricType::Gauge,
                    );
                    out.sample("", &[], p.write_epoch() as f64);
                    out.family(
                        "ceems_lb_backend_wal_lag_records",
                        "WAL records each replica lags behind the freshest one, per the last health check.",
                        MetricType::Gauge,
                    );
                    for b in p.backends() {
                        out.sample("", &[("backend", &b.id)], b.wal_lag() as f64);
                    }
                }),
            );
        }
        CeemsLb {
            pool,
            authorizer,
            config,
            client: Client::new(),
            registry,
            instruments,
            http,
        }
    }

    /// The backend pool (health checks, stats).
    pub fn pool(&self) -> &BackendPool {
        &self.pool
    }

    /// The LB's metrics registry (served at `/metrics`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    fn is_admin(&self, user: &str) -> bool {
        self.config.admin_users.iter().any(|a| a == user)
    }

    /// Authorizes one request; returns an error response when denied.
    fn authorize(&self, req: &Request) -> Result<(), Response> {
        let Some(user) = req.header("x-grafana-user").map(str::to_string) else {
            return Err(Response::error(
                Status::UNAUTHORIZED,
                "missing X-Grafana-User header",
            ));
        };
        if self.is_admin(&user) {
            return Ok(());
        }

        // Which expressions does this request evaluate?
        let mut exprs: Vec<&str> = Vec::new();
        if req.path.ends_with("/query") || req.path.ends_with("/query_range") {
            match req.query_param("query") {
                Some(q) => exprs.push(q),
                None => return Ok(()), // no expression; backend will 400
            }
        } else if req.path.ends_with("/series") || req.path.ends_with("/delete_series") {
            exprs.extend(req.query_params("match[]"));
            if req.path.ends_with("/delete_series") {
                return Err(Response::error(
                    Status::FORBIDDEN,
                    "admin endpoint requires an admin user",
                ));
            }
        } else {
            // Metadata endpoints (labels, status) carry no per-unit data.
            return Ok(());
        }

        let mut uuids = Vec::new();
        for q in exprs {
            match introspect(q) {
                Introspection::Units(u) => uuids.extend(u),
                Introspection::Unscoped => {
                    return Err(Response::error(
                        Status::FORBIDDEN,
                        "query is not scoped to your compute units (add a uuid matcher)",
                    ))
                }
                Introspection::Unverifiable => {
                    return Err(Response::error(
                        Status::FORBIDDEN,
                        "query ownership could not be verified",
                    ))
                }
            }
        }
        uuids.sort();
        uuids.dedup();
        if self.authorizer.verify(&user, &uuids) {
            Ok(())
        } else {
            Err(Response::error(
                Status::FORBIDDEN,
                "compute unit does not belong to you",
            ))
        }
    }

    /// Handles one request end to end.
    pub fn handle(&self, req: &Request) -> Response {
        let total_start = Instant::now();
        let is_query = req.path.ends_with("/query") || req.path.ends_with("/query_range");
        let qtrace = is_query.then(|| QueryTrace::begin(req.header(TRACE_HEADER)));
        let auth_start = Instant::now();
        if let Err(denied) = self.authorize(req) {
            self.instruments.denied.inc();
            return denied;
        }
        let flight = Flight {
            req,
            qtrace,
            trace_requested: is_query && promapi::trace_requested(req),
            auth_ms: auth_start.elapsed().as_secs_f64() * 1000.0,
            total_start,
        };

        // Ingest writes must land on the leader, not on an arbitrary replica
        // pick: follow the epoch-keyed write route learned by health checks
        // (S24). A fenced 409 from a deposed leader is relayed untouched so
        // the writer re-resolves instead of silently losing the append.
        if req.method == ceems_http::Method::Post && req.path.ends_with("/api/v1/write") {
            return self.forward_write(&flight);
        }

        // Query traffic prefers the query frontend when one is configured;
        // an unreachable frontend, or one whose 2xx body does not parse (as
        // useless as a refused connection), demotes to the replica pool.
        if let (true, Some(front)) = (is_query, &self.config.query_frontend) {
            let (result, forward_secs) = self.forward_once(front, &flight);
            let outcome = outcome_of(&result, true);
            self.count("qfe", outcome);
            match result {
                Ok(resp) if outcome != "corrupt" => {
                    return self.finish(&flight, resp, "qfe", forward_secs, 0);
                }
                _ => self.instruments.frontend_fallbacks.inc(),
            }
        }

        let max_attempts = self.pool.backends().len().max(1);
        let mut attempts: usize = 0;
        loop {
            let backend = match self.pool.pick() {
                Some(b) => b,
                None => {
                    // Degraded: every backend is demoted or circuit-open.
                    // Probe the demoted ones before refusing — live traffic
                    // re-promotes recovered backends without waiting for the
                    // periodic health check.
                    let revived = self.pool.revive(&self.client);
                    for _ in 0..revived {
                        self.instruments.repromotions.inc();
                    }
                    match self.pool.pick() {
                        Some(b) if revived > 0 => b,
                        _ => {
                            self.instruments.unavailable.inc();
                            return Response::error(
                                Status::UNAVAILABLE,
                                "no healthy TSDB backend",
                            );
                        }
                    }
                }
            };
            // The pick filtered on `available()`; `try_acquire` claims the
            // half-open probe slot (or loses a race with another request).
            if !backend.breaker().try_acquire() {
                self.instruments
                    .breaker_events
                    .with_label_values(&[&backend.id, "rejected"])
                    .inc();
                attempts += 1;
                if attempts >= max_attempts {
                    self.instruments.unavailable.inc();
                    return Response::error(
                        Status::UNAVAILABLE,
                        "all TSDB backends are circuit-open",
                    );
                }
                continue;
            }
            let _inflight = backend.begin();
            let (result, forward_secs) = self.forward_once(&backend.base_url, &flight);
            // The LB is the last hop before the client, so it is the last
            // chance to catch a corrupted success: a 2xx query response
            // whose body is not JSON is dropped, not relayed.
            let outcome = outcome_of(&result, is_query);
            self.count(&backend.id, outcome);
            let failed = match result {
                Ok(resp) if !is_failure(outcome) => {
                    backend.breaker().on_success();
                    return self.finish(&flight, resp, &backend.id, forward_secs, attempts as u64);
                }
                // Only when every backend says 5xx is the last answer relayed.
                Ok(resp) if outcome == "5xx" => resp,
                Ok(_) => {
                    Response::error(Status::BAD_GATEWAY, "backend returned a corrupt response")
                }
                Err(e) => Response::error(Status::BAD_GATEWAY, format!("backend error: {e}")),
            };
            // The pick looked healthy but the forward failed: feed the
            // breaker (three strikes open it, taking the backend out of
            // rotation until the cooldown or a health probe) and try the
            // next backend before giving up.
            self.instruments.forward_seconds.observe(forward_secs);
            self.note_failure(&backend);
            attempts += 1;
            if attempts >= max_attempts {
                return failed;
            }
            self.instruments.retries.inc();
        }
    }

    /// Forwards one write to the current leader per the epoch-keyed routing
    /// table. No leader known (no health check ran yet, or no backend claims
    /// leadership) → 503 so the writer backs off and retries; fenced writes
    /// (409 from a backend that lost its epoch) are relayed as-is.
    fn forward_write(&self, flight: &Flight) -> Response {
        let Some(backend) = self.pool.write_backend() else {
            self.instruments.unavailable.inc();
            return Response::error(Status::UNAVAILABLE, "no write leader known");
        };
        let _inflight = backend.begin();
        let (result, forward_secs) = self.forward_once(&backend.base_url, flight);
        self.instruments.forward_seconds.observe(forward_secs);
        let outcome = outcome_of(&result, false);
        self.count(&backend.id, outcome);
        if is_failure(outcome) {
            self.note_failure(&backend);
        } else {
            backend.breaker().on_success();
        }
        match result {
            Ok(resp) => resp.with_header("x-ceems-lb-backend", backend.id.clone()),
            Err(e) => Response::error(Status::BAD_GATEWAY, format!("write forward error: {e}")),
        }
    }

    /// One forward of the request to `base_url`, carrying the caller's
    /// identity, its content-type and the LB's trace id. Returns the result
    /// with the forward's wall time in seconds.
    fn forward_once(
        &self,
        base_url: &str,
        flight: &Flight,
    ) -> (Result<Response, ceems_http::client::ClientError>, f64) {
        let req = flight.req;
        let url = format!("{base_url}{}", req.path_and_query());
        let mut client = self.client.clone();
        if let Some(u) = req.header("x-grafana-user") {
            client = client.with_header("X-Grafana-User", u);
        }
        if let Some(t) = &flight.qtrace {
            client = client.with_header(TRACE_HEADER, t.id());
        }
        let content_type = req.header("content-type");
        let forward_start = Instant::now();
        let result = client.request(req.method, &url, req.body.clone(), content_type);
        (result, forward_start.elapsed().as_secs_f64())
    }

    /// Counts one forward under `ceems_lb_proxy_requests_total`.
    fn count(&self, backend: &str, outcome: &str) {
        if outcome == "corrupt" {
            self.instruments.corrupt.inc();
        }
        self.instruments
            .requests
            .with_label_values(&[backend, outcome])
            .inc();
    }

    /// Finishes a successful forward: names the backend in
    /// `x-ceems-lb-backend`, and for queries closes the LB's own trace span
    /// — records the `lb_auth`/`lb_forward` stages, offers the report to
    /// the trace sink (head sampling or tail capture decides storage), when
    /// stored tags the response with [`TRACE_STORED_HEADER`] and attaches
    /// the trace ID as an exemplar on the forward-latency histogram, and
    /// merges the LB's stages into a requested `data.trace`. Non-query
    /// requests carry no trace and just observe.
    fn finish(
        &self,
        flight: &Flight,
        resp: Response,
        backend: &str,
        forward_secs: f64,
        retries: u64,
    ) -> Response {
        let resp = resp.with_header("x-ceems-lb-backend", backend);
        let Some(t) = &flight.qtrace else {
            self.instruments.forward_seconds.observe(forward_secs);
            return resp;
        };
        t.record_stage_ms("lb_auth", flight.auth_ms);
        t.record_stage_ms("lb_forward", forward_secs * 1000.0);
        if retries > 0 {
            t.add_count("lb_retries", retries);
        }
        let stored = self.config.trace_sink.as_ref().and_then(|sink| {
            let tenant = flight.req.header("x-grafana-user").unwrap_or("anonymous");
            sink.offer("lb", &flight.req.path, tenant, &t.report())
        });
        let mut resp = match stored {
            Some(key) => {
                self.instruments
                    .forward_seconds
                    .observe_with_exemplar(forward_secs, &key);
                resp.with_header(TRACE_STORED_HEADER, key)
            }
            None => {
                self.instruments.forward_seconds.observe(forward_secs);
                resp
            }
        };
        // The LB's overhead joins a requested `data.trace`: `lb_auth`, and
        // `lb_forward` as the forward's wall time less the inner total;
        // `totalMs` becomes the LB's end-to-end time, and a forward that
        // needed retries says so in `lbRetries`.
        if flight.trace_requested {
            let total_ms = flight.total_start.elapsed().as_secs_f64() * 1000.0;
            if let Some(body) = promapi::add_hop(
                &resp.body,
                &[("lb_auth", flight.auth_ms)],
                ("lb_forward", forward_secs * 1000.0),
                total_ms,
                &[("lbRetries", retries)],
            ) {
                resp.body = body;
            }
        }
        resp
    }

    /// Feeds a forward failure into the backend's breaker and counts the
    /// open transition if this failure tripped it.
    fn note_failure(&self, backend: &crate::backend::Backend) {
        let before = backend.breaker().opens();
        backend.breaker().on_failure();
        if backend.breaker().opens() > before {
            self.instruments
                .breaker_events
                .with_label_values(&[&backend.id, "open"])
                .inc();
        }
    }

    /// Builds the proxy router: `/metrics` first (the router is
    /// first-match-wins), then `/*rest` → handle.
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

    /// Serves the LB on an ephemeral port, with request instrumentation.
    pub fn serve(self: &Arc<Self>) -> std::io::Result<HttpServer> {
        self.serve_with(ServerConfig::ephemeral())
    }

    /// Serves the LB with explicit server tuning (connection caps, idle
    /// timeout, backlog — e.g. from the `http:` config section).
    pub fn serve_with(self: &Arc<Self>, config: ServerConfig) -> std::io::Result<HttpServer> {
        HttpServer::serve_fn(config, self.http.wrap(self.router()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, Strategy};
    use ceems_metrics::labels;
    use ceems_tsdb::httpapi::api_router;
    use ceems_tsdb::Tsdb;
    use parking_lot::Mutex;

    use ceems_apiserver::metrics_source::TsdbLocalSource;
    use ceems_apiserver::rm::{ResourceManagerClient, UnitInfo};
    use ceems_apiserver::updater::{Updater, UpdaterConfig};
    use ceems_relstore::Db;

    struct OneUnitRm;

    impl ResourceManagerClient for OneUnitRm {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn units_since(&self, _s: i64) -> Vec<UnitInfo> {
            vec![UnitInfo {
                uuid: "slurm-1".into(),
                resource_manager: "slurm".into(),
                user: "alice".into(),
                project: "p".into(),
                partition: "cpu".into(),
                state: "RUNNING".into(),
                submitted_at_ms: 0,
                started_at_ms: Some(0),
                ended_at_ms: None,
                nnodes: 1,
                ncpus: 4,
                ngpus: 0,
            }]
        }
    }

    fn updater_with_unit() -> Arc<Mutex<Updater>> {
        let dir = std::env::temp_dir().join(format!(
            "ceems-lb-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let mut upd = Updater::new(
            Db::open(&dir).unwrap(),
            Arc::new(OneUnitRm),
            Arc::new(TsdbLocalSource::new(Arc::new(Tsdb::default()))),
            None,
            UpdaterConfig::default(),
        )
        .unwrap();
        upd.poll(1000).unwrap();
        Arc::new(Mutex::new(upd))
    }

    fn tsdb_server() -> (ceems_http::HttpServer, Arc<Tsdb>) {
        let db = Arc::new(Tsdb::default());
        for i in 0..10i64 {
            db.append(
                &labels! {"__name__" => "watts", "uuid" => "slurm-1"},
                i * 15_000,
                100.0,
            );
            db.append(
                &labels! {"__name__" => "watts", "uuid" => "slurm-2"},
                i * 15_000,
                200.0,
            );
        }
        let router = api_router(db.clone(), Arc::new(|| 135_000));
        let server = HttpServer::serve(ServerConfig::ephemeral(), router).unwrap();
        (server, db)
    }

    fn lb_over(backends: Vec<Arc<Backend>>, strategy: Strategy) -> Arc<CeemsLb> {
        Arc::new(CeemsLb::new(
            BackendPool::new(backends, strategy),
            Authorizer::DirectDb(updater_with_unit()),
            LbConfig {
                admin_users: vec!["root".into()],
                query_frontend: None,
                trace_sink: None,
            },
        ))
    }

    fn get(url: &str, user: Option<&str>) -> Response {
        let mut c = Client::new();
        if let Some(u) = user {
            c = c.with_header("X-Grafana-User", u);
        }
        c.get(url).unwrap()
    }

    #[test]
    fn owned_unit_query_passes_through() {
        let (tsdb_srv, _db) = tsdb_server();
        let lb = lb_over(
            vec![Backend::new("b1", tsdb_srv.base_url())],
            Strategy::round_robin(),
        );
        let lb_srv = lb.serve().unwrap();
        let resp = get(
            &format!(
                "{}/api/v1/query?query=watts%7Buuid%3D%22slurm-1%22%7D",
                lb_srv.base_url()
            ),
            Some("alice"),
        );
        assert_eq!(resp.status, Status::OK, "body: {}", resp.body_string());
        assert!(resp.body_string().contains("slurm-1"));
        assert_eq!(resp.header("x-ceems-lb-backend"), Some("b1"));
        lb_srv.shutdown();
        tsdb_srv.shutdown();
    }

    #[test]
    fn foreign_unit_forbidden() {
        let (tsdb_srv, _db) = tsdb_server();
        let lb = lb_over(
            vec![Backend::new("b1", tsdb_srv.base_url())],
            Strategy::round_robin(),
        );
        let lb_srv = lb.serve().unwrap();
        let url = format!(
            "{}/api/v1/query?query=watts%7Buuid%3D%22slurm-2%22%7D",
            lb_srv.base_url()
        );
        assert_eq!(get(&url, Some("alice")).status, Status::FORBIDDEN);
        // Admin may read anything.
        assert_eq!(get(&url, Some("root")).status, Status::OK);
        // Missing identity → 401.
        assert_eq!(get(&url, None).status, Status::UNAUTHORIZED);
        lb_srv.shutdown();
        tsdb_srv.shutdown();
    }

    #[test]
    fn unscoped_and_unverifiable_fail_closed() {
        let (tsdb_srv, _db) = tsdb_server();
        let lb = lb_over(
            vec![Backend::new("b1", tsdb_srv.base_url())],
            Strategy::round_robin(),
        );
        let lb_srv = lb.serve().unwrap();
        let unscoped = format!("{}/api/v1/query?query=watts", lb_srv.base_url());
        assert_eq!(get(&unscoped, Some("alice")).status, Status::FORBIDDEN);
        assert_eq!(get(&unscoped, Some("root")).status, Status::OK);
        let wild = format!(
            "{}/api/v1/query?query=watts%7Buuid%3D~%22slurm-.%2A%22%7D",
            lb_srv.base_url()
        );
        assert_eq!(get(&wild, Some("alice")).status, Status::FORBIDDEN);
        // Admin delete endpoint blocked for non-admins.
        let del = format!(
            "{}/api/v1/admin/tsdb/delete_series?match[]=watts",
            lb_srv.base_url()
        );
        let resp = Client::new()
            .with_header("X-Grafana-User", "alice")
            .post(&del, Vec::new(), "application/json")
            .unwrap();
        assert_eq!(resp.status, Status::FORBIDDEN);
        lb_srv.shutdown();
        tsdb_srv.shutdown();
    }

    #[test]
    fn round_robin_spreads_load_and_failover() {
        let (srv1, _d1) = tsdb_server();
        let (srv2, _d2) = tsdb_server();
        let lb = lb_over(
            vec![
                Backend::new("b1", srv1.base_url()),
                Backend::new("b2", srv2.base_url()),
            ],
            Strategy::round_robin(),
        );
        let lb_srv = lb.serve().unwrap();
        let url = format!(
            "{}/api/v1/query?query=watts%7Buuid%3D%22slurm-1%22%7D",
            lb_srv.base_url()
        );
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..4 {
            let resp = get(&url, Some("alice"));
            assert_eq!(resp.status, Status::OK);
            seen.insert(resp.header("x-ceems-lb-backend").unwrap().to_string());
        }
        assert_eq!(seen.len(), 2);

        // Kill one backend; health check should route everything to the other.
        srv2.shutdown();
        lb.pool().health_check(&Client::new());
        for _ in 0..3 {
            let resp = get(&url, Some("alice"));
            assert_eq!(resp.status, Status::OK);
            assert_eq!(resp.header("x-ceems-lb-backend"), Some("b1"));
        }
        lb_srv.shutdown();
        srv1.shutdown();
    }

    #[test]
    fn metadata_endpoints_pass_without_uuid() {
        let (tsdb_srv, _db) = tsdb_server();
        let lb = lb_over(
            vec![Backend::new("b1", tsdb_srv.base_url())],
            Strategy::round_robin(),
        );
        let lb_srv = lb.serve().unwrap();
        let resp = get(&format!("{}/api/v1/labels", lb_srv.base_url()), Some("alice"));
        assert_eq!(resp.status, Status::OK);
        lb_srv.shutdown();
        tsdb_srv.shutdown();
    }

    #[test]
    fn trace_flows_through_the_proxy() {
        let (tsdb_srv, _db) = tsdb_server();
        let lb = lb_over(
            vec![Backend::new("b1", tsdb_srv.base_url())],
            Strategy::round_robin(),
        );
        let lb_srv = lb.serve().unwrap();
        let resp = Client::new()
            .with_header("X-Grafana-User", "root")
            .with_header(TRACE_HEADER, "feedc0defeedc0de")
            .get(&format!(
                "{}/api/v1/query_range?query=watts&start=0&end=135&step=15&trace=1",
                lb_srv.base_url()
            ))
            .unwrap();
        assert_eq!(resp.status, Status::OK, "body: {}", resp.body_string());
        let v: Json = serde_json::from_slice(&resp.body).unwrap();
        let t = &v["data"]["trace"];
        // The injected ID survived LB → TSDB → back.
        assert_eq!(t["traceId"], "feedc0defeedc0de");
        let stages = t["stages"].as_array().unwrap();
        let names: Vec<&str> = stages
            .iter()
            .map(|s| s["name"].as_str().unwrap())
            .collect();
        for expected in ["parse", "eval", "lb_auth", "lb_forward"] {
            assert!(names.contains(&expected), "missing stage {expected}");
        }
        // The LB replaced totalMs with its own end-to-end time, so the
        // stage sum stays under it even with the LB's overhead appended.
        let stage_sum: f64 = stages.iter().map(|s| s["ms"].as_f64().unwrap()).sum();
        assert!(stage_sum <= t["totalMs"].as_f64().unwrap() + 1e-6);
        lb_srv.shutdown();
        tsdb_srv.shutdown();
    }

    #[test]
    fn failed_forward_retries_next_backend() {
        let (srv1, _d1) = tsdb_server();
        let lb = lb_over(
            vec![
                Backend::new("dead", "http://127.0.0.1:1"),
                Backend::new("live", srv1.base_url()),
            ],
            Strategy::round_robin(),
        );
        let lb_srv = lb.serve().unwrap();
        let url = format!(
            "{}/api/v1/query?query=watts%7Buuid%3D%22slurm-1%22%7D",
            lb_srv.base_url()
        );
        // Whenever round-robin lands on the dead backend, the forward fails,
        // the backend is demoted, and the request retries to the live one —
        // the client always sees a success.
        for _ in 0..4 {
            let resp = get(&url, Some("alice"));
            assert_eq!(resp.status, Status::OK);
            assert_eq!(resp.header("x-ceems-lb-backend"), Some("live"));
        }

        let text = Client::new()
            .get(&format!("{}/metrics", lb_srv.base_url()))
            .unwrap()
            .body_string();
        let parsed = ceems_metrics::parse_text(&text).expect("LB /metrics must parse");
        let value = |n: &str| {
            parsed
                .samples
                .iter()
                .find(|s| s.name == n)
                .map(|s| s.value)
        };
        assert!(value("ceems_lb_retries_total").unwrap() >= 1.0);
        assert!(value("ceems_lb_forward_duration_seconds_count").unwrap() >= 4.0);
        assert!(value("ceems_lb_http_requests_total").is_some());
        let dead_errors = parsed
            .samples
            .iter()
            .find(|s| {
                s.name == "ceems_lb_proxy_requests_total"
                    && s.labels.get("backend") == Some("dead")
                    && s.labels.get("outcome") == Some("error")
            })
            .map(|s| s.value);
        assert!(dead_errors.unwrap() >= 1.0);
        lb_srv.shutdown();
        srv1.shutdown();
    }

    fn lb_with_frontend(
        backends: Vec<Arc<Backend>>,
        frontend: Option<String>,
    ) -> Arc<CeemsLb> {
        Arc::new(CeemsLb::new(
            BackendPool::new(backends, Strategy::round_robin()),
            Authorizer::DirectDb(updater_with_unit()),
            LbConfig {
                admin_users: vec!["root".into()],
                query_frontend: frontend,
                trace_sink: None,
            },
        ))
    }

    #[test]
    fn query_traffic_routes_through_frontend() {
        let (tsdb_srv, _db) = tsdb_server();
        let fe = ceems_qfe::QueryFrontend::new(
            Arc::new(ceems_qfe::HttpDownstream::new(vec![tsdb_srv.base_url()])),
            ceems_qfe::QfeConfig::default(),
        );
        let fe_srv = fe.serve().unwrap();
        let lb = lb_with_frontend(
            vec![Backend::new("b1", tsdb_srv.base_url())],
            Some(fe_srv.base_url()),
        );
        let lb_srv = lb.serve().unwrap();

        // Range query: the frontend handles it (and says so in its header).
        let resp = get(
            &format!(
                "{}/api/v1/query_range?query=watts%7Buuid%3D%22slurm-1%22%7D&start=0&end=135&step=15",
                lb_srv.base_url()
            ),
            Some("alice"),
        );
        assert_eq!(resp.status, Status::OK, "body: {}", resp.body_string());
        assert_eq!(resp.header("x-ceems-lb-backend"), Some("qfe"));
        assert!(resp.header("x-ceems-qfe-cache").is_some());

        // Non-query traffic still uses the pool directly.
        let labels = get(&format!("{}/api/v1/labels", lb_srv.base_url()), Some("alice"));
        assert_eq!(labels.header("x-ceems-lb-backend"), Some("b1"));
        lb_srv.shutdown();
        fe_srv.shutdown();
        tsdb_srv.shutdown();
    }

    #[test]
    fn dead_frontend_falls_back_to_pool() {
        let (tsdb_srv, _db) = tsdb_server();
        let lb = lb_with_frontend(
            vec![Backend::new("b1", tsdb_srv.base_url())],
            Some("http://127.0.0.1:1".to_string()),
        );
        let lb_srv = lb.serve().unwrap();
        let resp = get(
            &format!(
                "{}/api/v1/query?query=watts%7Buuid%3D%22slurm-1%22%7D",
                lb_srv.base_url()
            ),
            Some("alice"),
        );
        assert_eq!(resp.status, Status::OK, "body: {}", resp.body_string());
        assert_eq!(resp.header("x-ceems-lb-backend"), Some("b1"));
        assert_eq!(lb.instruments.frontend_fallbacks.get(), 1.0);
        lb_srv.shutdown();
        tsdb_srv.shutdown();
    }

    #[test]
    fn demoted_but_recovered_backend_is_revived_by_traffic() {
        let (tsdb_srv, _db) = tsdb_server();
        let lb = lb_over(
            vec![Backend::new("b1", tsdb_srv.base_url())],
            Strategy::round_robin(),
        );
        // Demoted during a blip; the server is back but no periodic health
        // check has run yet. The next request probes and re-promotes it.
        lb.pool().backends()[0].set_healthy(false);
        let lb_srv = lb.serve().unwrap();
        let resp = get(
            &format!(
                "{}/api/v1/query?query=watts%7Buuid%3D%22slurm-1%22%7D",
                lb_srv.base_url()
            ),
            Some("alice"),
        );
        assert_eq!(resp.status, Status::OK, "body: {}", resp.body_string());
        assert_eq!(resp.header("x-ceems-lb-backend"), Some("b1"));
        assert!(lb.pool().backends()[0].is_healthy());
        assert_eq!(lb.instruments.repromotions.get(), 1.0);
        lb_srv.shutdown();
        tsdb_srv.shutdown();
    }

    #[test]
    fn writes_follow_the_epoch_keyed_route() {
        let (srv1, db1) = tsdb_server();
        let (srv2, db2) = tsdb_server();
        let pool = BackendPool::new(
            vec![
                Backend::new("b1", srv1.base_url()),
                Backend::new("b2", srv2.base_url()),
            ],
            Strategy::round_robin(),
        )
        .with_write_routing();
        let lb = Arc::new(CeemsLb::new(
            pool,
            Authorizer::DirectDb(updater_with_unit()),
            LbConfig::default(),
        ));
        lb.pool().health_check(&Client::new());
        let lb_srv = lb.serve().unwrap();
        let url = format!("{}/api/v1/write", lb_srv.base_url());
        let body = |epoch: u64| {
            format!(
                "{{\"epoch\":{epoch},\"samples\":[{{\"labels\":{{\"__name__\":\"ingest\",\"uuid\":\"slurm-1\"}},\"t_ms\":1000,\"v\":7.0}}]}}"
            )
            .into_bytes()
        };
        // Both replicas claim leadership at epoch 0; the route breaks the tie
        // deterministically on the lowest backend id.
        let post = |b: Vec<u8>| {
            Client::new()
                .with_header("X-Grafana-User", "alice")
                .post(&url, b, "application/json")
                .unwrap()
        };
        let resp = post(body(0));
        assert_eq!(resp.status, Status::OK, "body: {}", resp.body_string());
        assert_eq!(resp.header("x-ceems-lb-backend"), Some("b1"));
        assert!(resp.body_string().contains("\"appended\":1"));

        // b2 wins an election: higher epoch takes over the write route and
        // the move is counted as a failover.
        db1.set_leader(false);
        db2.bump_epoch(1, 0).unwrap();
        lb.pool().health_check(&Client::new());
        assert_eq!(lb.pool().failovers(), 1);
        let resp = post(body(1));
        assert_eq!(resp.status, Status::OK, "body: {}", resp.body_string());
        assert_eq!(resp.header("x-ceems-lb-backend"), Some("b2"));

        // A write stamped with the fenced-off old epoch is rejected with 409.
        let stale = post(body(0));
        assert_eq!(stale.status, Status(409), "body: {}", stale.body_string());
        assert!(stale.body_string().contains("stale-epoch"));
        lb_srv.shutdown();
        srv1.shutdown();
        srv2.shutdown();
    }

    #[test]
    fn all_backends_down_is_503() {
        let lb = lb_over(vec![Backend::new("b1", "http://127.0.0.1:1")], Strategy::round_robin());
        lb.pool().backends()[0].set_healthy(false);
        let lb_srv = lb.serve().unwrap();
        let resp = get(
            &format!(
                "{}/api/v1/query?query=watts%7Buuid%3D%22slurm-1%22%7D",
                lb_srv.base_url()
            ),
            Some("alice"),
        );
        assert_eq!(resp.status, Status::UNAVAILABLE);
        lb_srv.shutdown();
    }
}
