//! The API server's HTTP endpoints.
//!
//! Grafana uses this as a data source for aggregate panels (Fig. 2a/2b),
//! and the CEEMS load balancer calls `/api/v1/verify` for ownership checks
//! when it cannot read the DB file directly. The requesting identity
//! arrives in the `X-Grafana-User` header, exactly as Grafana forwards it
//! (§II.B.c).

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde_json::{json, Value as Json};

use ceems_http::{HttpServer, Request, Response, Router, ServerConfig, Status};
use ceems_metrics::{CounterVec, Histogram, HistogramVec, MetricType, Registry, Sink};
use ceems_relstore::{Filter, Order, Query, Value};

use crate::schema::{unit_cols, UNITS_TABLE, USAGE_TABLE};
use crate::updater::{usage_row_values, verify_ownership_in_db, Updater};

/// The API server.
pub struct ApiServer {
    updater: Arc<Mutex<Updater>>,
    admin_users: Vec<String>,
    registry: Registry,
    requests: CounterVec,
    duration: HistogramVec,
    trace_store: Option<Arc<ceems_obs::TraceStore>>,
}

fn val_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(i) => json!(i),
        Value::Real(r) => json!(r),
        Value::Text(t) => json!(t),
    }
}

fn unit_to_json(row: &[Value]) -> Json {
    json!({
        "uuid": val_to_json(&row[unit_cols::UUID]),
        "resource_manager": val_to_json(&row[unit_cols::RESOURCE_MANAGER]),
        "user": val_to_json(&row[unit_cols::USER]),
        "project": val_to_json(&row[unit_cols::PROJECT]),
        "partition": val_to_json(&row[unit_cols::PARTITION]),
        "state": val_to_json(&row[unit_cols::STATE]),
        "submitted_at_ms": val_to_json(&row[unit_cols::SUBMITTED_AT]),
        "started_at_ms": val_to_json(&row[unit_cols::STARTED_AT]),
        "ended_at_ms": val_to_json(&row[unit_cols::ENDED_AT]),
        "elapsed_s": val_to_json(&row[unit_cols::ELAPSED_S]),
        "nnodes": val_to_json(&row[unit_cols::NNODES]),
        "ncpus": val_to_json(&row[unit_cols::NCPUS]),
        "ngpus": val_to_json(&row[unit_cols::NGPUS]),
        "avg_cpu_usage_pct": val_to_json(&row[unit_cols::AVG_CPU_USAGE]),
        "avg_mem_bytes": val_to_json(&row[unit_cols::AVG_MEM]),
        "avg_gpu_usage_pct": val_to_json(&row[unit_cols::AVG_GPU_USAGE]),
        "total_energy_kwh": val_to_json(&row[unit_cols::ENERGY_KWH]),
        "total_emissions_g": val_to_json(&row[unit_cols::EMISSIONS_G]),
    })
}

fn grafana_user(req: &Request) -> Option<String> {
    req.header("x-grafana-user").map(|s| s.to_string())
}

impl ApiServer {
    /// Creates the server over a shared updater.
    pub fn new(updater: Arc<Mutex<Updater>>, admin_users: Vec<String>) -> ApiServer {
        let registry = Registry::new();
        let requests = registry.counter_vec(
            "ceems_api_requests_total",
            "API server requests by endpoint and status code.",
            &["endpoint", "code"],
        );
        let duration = HistogramVec::new(
            "ceems_api_request_duration_seconds",
            "API server request handling wall time, by endpoint.",
            &["endpoint"],
            Histogram::duration_buckets(),
        );
        registry.register("api_request_duration", Arc::new(duration.clone()));
        {
            let updater = updater.clone();
            registry.register(
                "api_updater",
                Arc::new(move |out: &mut dyn Sink| {
                    let upd = updater.lock();
                    let stats = upd.stats();
                    out.family(
                        "ceems_api_updater_tsdb_queries_total",
                        "Instant queries the updater sent to the TSDB.",
                        MetricType::Counter,
                    );
                    out.sample("", &[], stats.tsdb_queries as f64);
                    out.family(
                        "ceems_api_updater_units_folded_total",
                        "Unit intervals folded into stored aggregates.",
                        MetricType::Counter,
                    );
                    out.sample("", &[], stats.units_folded as f64);
                    out.family(
                        "ceems_api_updater_failed_polls_total",
                        "Updater polls in which a TSDB query failed; they folded nothing.",
                        MetricType::Counter,
                    );
                    out.sample("", &[], stats.failed_polls as f64);
                    out.family(
                        "ceems_api_unpriced_intervals_total",
                        "Unit intervals whose energy was folded with no emission factor.",
                        MetricType::Counter,
                    );
                    out.sample("", &[], stats.unpriced_intervals as f64);
                    out.family(
                        "ceems_api_updater_poll_duration_seconds",
                        "Wall time of one updater poll.",
                        MetricType::Histogram,
                    );
                    upd.poll_duration().write(out, &[]);
                }),
            );
        }
        ceems_obs::register_build_info(&registry, "apiserver");
        ApiServer {
            updater,
            admin_users,
            registry,
            requests,
            duration,
            trace_store: None,
        }
    }

    /// Attaches the stack's trace store (S22), enabling
    /// `GET /api/v1/traces` and `GET /api/v1/traces/:id`.
    pub fn with_trace_store(mut self, store: Arc<ceems_obs::TraceStore>) -> ApiServer {
        self.trace_store = Some(store);
        self
    }

    fn is_admin(&self, user: &str) -> bool {
        self.admin_users.iter().any(|a| a == user)
    }

    /// The server's metrics registry (served at `/metrics`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Runs one handler under the request instruments.
    fn timed(&self, endpoint: &'static str, f: impl FnOnce() -> Response) -> Response {
        let start = Instant::now();
        let resp = f();
        self.duration
            .with_label_values(&[endpoint])
            .observe(start.elapsed().as_secs_f64());
        self.requests
            .with_label_values(&[endpoint, &resp.status.0.to_string()])
            .inc();
        resp
    }

    /// Builds the router.
    pub fn router(self: &Arc<Self>) -> Router {
        let mut router = Router::new();

        router.get("/health", |_req| Response::text("ok"));
        ceems_obs::add_metrics_route(&mut router, self.registry.clone());

        {
            let me = self.clone();
            router.get("/api/v1/units", move |req| {
                me.timed("/api/v1/units", || me.handle_units(req))
            });
        }
        {
            let me = self.clone();
            router.get("/api/v1/units/:uuid", move |req| {
                me.timed("/api/v1/units/:uuid", || me.handle_unit(req))
            });
        }
        {
            let me = self.clone();
            router.get("/api/v1/usage/current", move |req| {
                me.timed("/api/v1/usage/current", || me.handle_usage(req, false))
            });
        }
        {
            let me = self.clone();
            router.get("/api/v1/usage/global", move |req| {
                me.timed("/api/v1/usage/global", || me.handle_usage(req, true))
            });
        }
        {
            let me = self.clone();
            router.get("/api/v1/verify", move |req| {
                me.timed("/api/v1/verify", || me.handle_verify(req))
            });
        }
        if self.trace_store.is_some() {
            {
                let me = self.clone();
                router.get("/api/v1/traces", move |req| {
                    me.timed("/api/v1/traces", || me.handle_traces(req))
                });
            }
            {
                let me = self.clone();
                router.get("/api/v1/traces/:id", move |req| {
                    me.timed("/api/v1/traces/:id", || me.handle_trace(req))
                });
            }
        }
        router
    }

    /// Serves on an ephemeral port.
    pub fn serve(self: &Arc<Self>) -> std::io::Result<HttpServer> {
        self.serve_with(ServerConfig::ephemeral())
    }

    /// Serves with explicit server tuning (connection caps, idle timeout,
    /// backlog — e.g. from the `http:` config section).
    pub fn serve_with(self: &Arc<Self>, config: ServerConfig) -> std::io::Result<HttpServer> {
        HttpServer::serve(config, self.router())
    }

    fn handle_units(&self, req: &Request) -> Response {
        let Some(requester) = grafana_user(req) else {
            return Response::error(Status::UNAUTHORIZED, "missing X-Grafana-User");
        };
        let target = req.query_param("user").unwrap_or(&requester).to_string();
        if target != requester && !self.is_admin(&requester) {
            return Response::error(Status::FORBIDDEN, "not your units");
        }
        let mut filters = vec![Filter::Eq("user".into(), target.as_str().into())];
        if let Some(project) = req.query_param("project") {
            filters.push(Filter::Eq("project".into(), project.into()));
        }
        let q = Query::all()
            .filter(Filter::And(filters))
            .order_by("submitted_at_ms", Order::Desc);
        let upd = self.updater.lock();
        match upd.db().query(UNITS_TABLE, &q) {
            Ok(rows) => {
                let units: Vec<Json> = rows.iter().map(|r| unit_to_json(r)).collect();
                Response::json(serde_json::to_vec(&json!({"units": units})).unwrap())
            }
            Err(e) => Response::error(Status::INTERNAL, e.to_string()),
        }
    }

    fn handle_unit(&self, req: &Request) -> Response {
        let Some(requester) = grafana_user(req) else {
            return Response::error(Status::UNAUTHORIZED, "missing X-Grafana-User");
        };
        let uuid = req.path_param("uuid").unwrap_or_default().to_string();
        let upd = self.updater.lock();
        match upd.db().get(UNITS_TABLE, &uuid.as_str().into()) {
            Ok(Some(row)) => {
                let owner = row[unit_cols::USER].as_text().unwrap_or("");
                if owner != requester && !self.is_admin(&requester) {
                    return Response::error(Status::FORBIDDEN, "not your unit");
                }
                Response::json(serde_json::to_vec(&unit_to_json(&row)).unwrap())
            }
            Ok(None) => Response::error(Status::NOT_FOUND, "no such unit"),
            Err(e) => Response::error(Status::INTERNAL, e.to_string()),
        }
    }

    fn handle_usage(&self, req: &Request, global: bool) -> Response {
        let Some(requester) = grafana_user(req) else {
            return Response::error(Status::UNAUTHORIZED, "missing X-Grafana-User");
        };
        if global && !self.is_admin(&requester) {
            return Response::error(Status::FORBIDDEN, "admin only");
        }
        let q = if global {
            Query::all()
        } else {
            Query::all().filter(Filter::Eq("user".into(), requester.as_str().into()))
        };
        let upd = self.updater.lock();
        match upd.db().query(USAGE_TABLE, &q) {
            Ok(rows) => {
                let usage: Vec<Json> = rows
                    .iter()
                    .map(|r| {
                        let (user, project, n, cpu_h, gpu_h, kwh, g) = usage_row_values(r);
                        json!({
                            "user": user,
                            "project": project,
                            "num_units": n,
                            "total_cpu_hours": cpu_h,
                            "total_gpu_hours": gpu_h,
                            "total_energy_kwh": kwh,
                            "total_emissions_g": g,
                        })
                    })
                    .collect();
                Response::json(serde_json::to_vec(&json!({"usage": usage})).unwrap())
            }
            Err(e) => Response::error(Status::INTERNAL, e.to_string()),
        }
    }

    /// `GET /api/v1/traces?endpoint=&min_ms=&tenant=&limit=` — stored
    /// trace summaries, newest first. Non-admins only see their own tenant.
    fn handle_traces(&self, req: &Request) -> Response {
        let Some(store) = &self.trace_store else {
            return Response::error(Status::NOT_FOUND, "trace store not configured");
        };
        let Some(requester) = grafana_user(req) else {
            return Response::error(Status::UNAUTHORIZED, "missing X-Grafana-User");
        };
        let tenant_param = req.query_param("tenant");
        let tenant = if self.is_admin(&requester) {
            tenant_param
        } else {
            match tenant_param {
                Some(t) if t != requester => {
                    return Response::error(Status::FORBIDDEN, "not your traces");
                }
                _ => Some(requester.as_str()),
            }
        };
        let min_ms = match req.query_param("min_ms") {
            Some(raw) => match raw.parse::<f64>() {
                Ok(v) => Some(v),
                Err(_) => return Response::error(Status::BAD_REQUEST, "bad min_ms"),
            },
            None => None,
        };
        let limit = match req.query_param("limit") {
            Some(raw) => match raw.parse::<usize>() {
                Ok(v) => v.min(1000),
                Err(_) => return Response::error(Status::BAD_REQUEST, "bad limit"),
            },
            None => 100,
        };
        let traces = store.list(req.query_param("endpoint"), min_ms, tenant, limit);
        Response::json(serde_json::to_vec(&json!({"traces": traces})).unwrap())
    }

    /// `GET /api/v1/traces/:id` — every component's span for the trace
    /// (the full stage breakdown). Non-admins may only read traces whose
    /// spans all belong to their own tenant.
    fn handle_trace(&self, req: &Request) -> Response {
        let Some(store) = &self.trace_store else {
            return Response::error(Status::NOT_FOUND, "trace store not configured");
        };
        let Some(requester) = grafana_user(req) else {
            return Response::error(Status::UNAUTHORIZED, "missing X-Grafana-User");
        };
        let id = req.path_param("id").unwrap_or_default().to_string();
        let Some(doc) = store.get(&id) else {
            return Response::error(Status::NOT_FOUND, "no such trace (sampled out or evicted)");
        };
        if !self.is_admin(&requester) {
            let owned = doc["spans"].as_array().is_some_and(|spans| {
                !spans.is_empty()
                    && spans.iter().all(|s| s["tenant"] == json!(requester))
            });
            if !owned {
                return Response::error(Status::FORBIDDEN, "not your trace");
            }
        }
        Response::json(serde_json::to_vec(&doc).unwrap())
    }

    fn handle_verify(&self, req: &Request) -> Response {
        let Some(requester) = grafana_user(req) else {
            return Response::error(Status::UNAUTHORIZED, "missing X-Grafana-User");
        };
        let uuids = req.query_params("uuid");
        if uuids.is_empty() {
            return Response::error(Status::BAD_REQUEST, "missing uuid parameter");
        }
        if self.is_admin(&requester) {
            return Response::text("ok");
        }
        let upd = self.updater.lock();
        let all_owned = uuids
            .iter()
            .all(|uuid| verify_ownership_in_db(upd.db(), &requester, uuid));
        if all_owned {
            Response::text("ok")
        } else {
            Response::error(Status::FORBIDDEN, "unit not owned by user")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rm::{ResourceManagerClient, UnitInfo};
    use crate::updater::UpdaterConfig;
    use ceems_http::Client;
    use ceems_relstore::Db;
    use ceems_tsdb::Tsdb;

    struct FakeRm;

    impl ResourceManagerClient for FakeRm {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn units_since(&self, _since: i64) -> Vec<UnitInfo> {
            vec![
                UnitInfo {
                    uuid: "slurm-1".into(),
                    resource_manager: "slurm".into(),
                    user: "alice".into(),
                    project: "projA".into(),
                    partition: "cpu".into(),
                    state: "RUNNING".into(),
                    submitted_at_ms: 0,
                    started_at_ms: Some(1000),
                    ended_at_ms: None,
                    nnodes: 1,
                    ncpus: 8,
                    ngpus: 0,
                },
                UnitInfo {
                    uuid: "slurm-2".into(),
                    resource_manager: "slurm".into(),
                    user: "bob".into(),
                    project: "projB".into(),
                    partition: "gpu".into(),
                    state: "COMPLETED".into(),
                    submitted_at_ms: 0,
                    started_at_ms: Some(1000),
                    ended_at_ms: Some(2000),
                    nnodes: 1,
                    ncpus: 4,
                    ngpus: 2,
                },
            ]
        }
    }

    fn serve() -> (ceems_http::HttpServer, Arc<ApiServer>) {
        let dir = std::env::temp_dir().join(format!(
            "ceems-api-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let mut upd = Updater::new(
            Db::open(&dir).unwrap(),
            Arc::new(FakeRm),
            Arc::new(Tsdb::default()),
            None,
            UpdaterConfig::default(),
        )
        .unwrap();
        upd.poll(10_000).unwrap();
        let api = Arc::new(ApiServer::new(
            Arc::new(Mutex::new(upd)),
            vec!["root".to_string()],
        ));
        let server = api.serve().unwrap();
        (server, api)
    }

    fn get(url: &str, user: Option<&str>) -> ceems_http::Response {
        let mut c = Client::new();
        if let Some(u) = user {
            c = c.with_header("X-Grafana-User", u);
        }
        c.get(url).unwrap()
    }

    #[test]
    fn units_listing_scoped_to_requester() {
        let (server, _api) = serve();
        let resp = get(&format!("{}/api/v1/units", server.base_url()), Some("alice"));
        assert_eq!(resp.status, Status::OK);
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["units"].as_array().unwrap().len(), 1);
        assert_eq!(v["units"][0]["uuid"], "slurm-1");

        // alice cannot list bob's units...
        let resp = get(
            &format!("{}/api/v1/units?user=bob", server.base_url()),
            Some("alice"),
        );
        assert_eq!(resp.status, Status::FORBIDDEN);
        // ...but an admin can.
        let resp = get(
            &format!("{}/api/v1/units?user=bob", server.base_url()),
            Some("root"),
        );
        assert_eq!(resp.status, Status::OK);
        // No identity header → 401.
        let resp = get(&format!("{}/api/v1/units", server.base_url()), None);
        assert_eq!(resp.status, Status::UNAUTHORIZED);
        server.shutdown();
    }

    #[test]
    fn single_unit_access_control() {
        let (server, _api) = serve();
        let url = format!("{}/api/v1/units/slurm-2", server.base_url());
        assert_eq!(get(&url, Some("bob")).status, Status::OK);
        assert_eq!(get(&url, Some("alice")).status, Status::FORBIDDEN);
        assert_eq!(get(&url, Some("root")).status, Status::OK);
        let missing = format!("{}/api/v1/units/slurm-404", server.base_url());
        assert_eq!(get(&missing, Some("bob")).status, Status::NOT_FOUND);
        server.shutdown();
    }

    #[test]
    fn usage_endpoints() {
        let (server, _api) = serve();
        let resp = get(
            &format!("{}/api/v1/usage/current", server.base_url()),
            Some("alice"),
        );
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["usage"].as_array().unwrap().len(), 1);
        assert_eq!(v["usage"][0]["user"], "alice");

        let resp = get(
            &format!("{}/api/v1/usage/global", server.base_url()),
            Some("alice"),
        );
        assert_eq!(resp.status, Status::FORBIDDEN);
        let resp = get(
            &format!("{}/api/v1/usage/global", server.base_url()),
            Some("root"),
        );
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["usage"].as_array().unwrap().len(), 2);
        server.shutdown();
    }

    #[test]
    fn metrics_export_the_updater_cost() {
        let (server, _api) = serve();
        let resp = get(&format!("{}/metrics", server.base_url()), None);
        let text = String::from_utf8(resp.body).unwrap();
        // One poll so far; its units are too young to query the TSDB for.
        for line in [
            "ceems_api_updater_poll_duration_seconds_count 1",
            "ceems_api_updater_tsdb_queries_total 0",
            "ceems_api_updater_units_folded_total 0",
            "ceems_api_updater_failed_polls_total 0",
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "missing {line:?} in\n{text}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn verify_endpoint() {
        let (server, _api) = serve();
        let base = server.base_url();
        assert_eq!(
            get(&format!("{base}/api/v1/verify?uuid=slurm-1"), Some("alice")).status,
            Status::OK
        );
        assert_eq!(
            get(&format!("{base}/api/v1/verify?uuid=slurm-2"), Some("alice")).status,
            Status::FORBIDDEN
        );
        // Multiple uuids: all must be owned.
        assert_eq!(
            get(
                &format!("{base}/api/v1/verify?uuid=slurm-1&uuid=slurm-2"),
                Some("alice")
            )
            .status,
            Status::FORBIDDEN
        );
        // Admin sees everything.
        assert_eq!(
            get(&format!("{base}/api/v1/verify?uuid=slurm-2"), Some("root")).status,
            Status::OK
        );
        assert_eq!(
            get(&format!("{base}/api/v1/verify"), Some("alice")).status,
            Status::BAD_REQUEST
        );
        server.shutdown();
    }
}

#[cfg(test)]
mod more_tests {
    use super::tests_support::*;
    use ceems_http::Client;

    #[test]
    fn units_project_filter() {
        let (server, _api) = serve_two_users();
        let resp = Client::new()
            .with_header("X-Grafana-User", "alice")
            .get(&format!(
                "{}/api/v1/units?project=projA",
                server.base_url()
            ))
            .unwrap();
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["units"].as_array().unwrap().len(), 1);
        let resp = Client::new()
            .with_header("X-Grafana-User", "alice")
            .get(&format!(
                "{}/api/v1/units?project=doesnotexist",
                server.base_url()
            ))
            .unwrap();
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["units"].as_array().unwrap().len(), 0);
        server.shutdown();
    }

    #[test]
    fn health_endpoint_is_public() {
        let (server, _api) = serve_two_users();
        let resp = Client::new()
            .get(&format!("{}/health", server.base_url()))
            .unwrap();
        assert_eq!(resp.status.0, 200);
        server.shutdown();
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::rm::{ResourceManagerClient, UnitInfo};
    use crate::updater::{Updater, UpdaterConfig};
    use ceems_relstore::Db;
    use ceems_tsdb::Tsdb;

    struct TwoUserRm;

    impl ResourceManagerClient for TwoUserRm {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn units_since(&self, _since: i64) -> Vec<UnitInfo> {
            let base = UnitInfo {
                uuid: String::new(),
                resource_manager: "slurm".into(),
                user: String::new(),
                project: String::new(),
                partition: "cpu".into(),
                state: "RUNNING".into(),
                submitted_at_ms: 0,
                started_at_ms: Some(1000),
                ended_at_ms: None,
                nnodes: 1,
                ncpus: 8,
                ngpus: 0,
            };
            vec![
                UnitInfo {
                    uuid: "slurm-1".into(),
                    user: "alice".into(),
                    project: "projA".into(),
                    ..base.clone()
                },
                UnitInfo {
                    uuid: "slurm-2".into(),
                    user: "alice".into(),
                    project: "projB".into(),
                    ..base
                },
            ]
        }
    }

    pub(crate) fn serve_two_users() -> (ceems_http::HttpServer, std::sync::Arc<ApiServer>) {
        let dir = std::env::temp_dir().join(format!(
            "ceems-api2-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let mut upd = Updater::new(
            Db::open(&dir).unwrap(),
            std::sync::Arc::new(TwoUserRm),
            std::sync::Arc::new(Tsdb::default()),
            None,
            UpdaterConfig::default(),
        )
        .unwrap();
        upd.poll(10_000).unwrap();
        let api = std::sync::Arc::new(ApiServer::new(
            std::sync::Arc::new(parking_lot::Mutex::new(upd)),
            vec![],
        ));
        let server = api.serve().unwrap();
        (server, api)
    }
}
