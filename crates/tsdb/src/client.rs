//! The TSDB from the caller's side.
//!
//! Every component that talks to a TSDB (or to anything speaking its
//! Prometheus-compatible API: the LB, the query frontend) over a socket goes
//! through [`TsdbClient`]: alert evaluation, the API-server updater, the
//! query frontend's downstream, WAL followers, and the health probes of the
//! LB and the election coordinator. It owns what those hops share — URL
//! shapes, header propagation, endpoint resolution, retry and breaker — and
//! the parser of the WAL position report; instant answers are decoded by
//! [`crate::promapi`]. What differs per hop (how often to retry, whether a
//! breaker guards it) is passed in where the client is built.
//!
//! A component that reads a TSDB it does not own — the alerting service's
//! rules, the API-server updater's aggregates and its cardinality cleanup —
//! holds a [`QuerySource`]: the database in process ([`Tsdb`]), the
//! failover write route ([`WriteRouter`]: whichever node leads now) or
//! HTTP ([`TsdbClient`]). The three give one answer.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ceems_http::resilience::{CircuitBreaker, RetryPolicy};
use ceems_http::url::encode_component;
use ceems_http::{Client, Method, Request, Response};
use ceems_metrics::labels::LabelSet;
use ceems_metrics::matcher::LabelMatcher;
use ceems_obs::{trace, TRACE_HEADER};

use crate::election::{NodeRole, WriteRouter};
use crate::promapi;
use crate::promql::{Expr, PreparedQuery, Value};
use crate::storage::Tsdb;
use crate::wal::WalPosition;

/// A TSDB read, and cleaned up, by a component that does not own it.
pub trait QuerySource: Send + Sync {
    /// Evaluates `expr` (parsed from `src`) at `t_ms` as an instant query:
    /// a vector, or a scalar as one sample with empty labels; a range
    /// vector is an error. In process, instant selectors look back
    /// `lookback_ms` and `plan` carries the reads from one evaluation to
    /// the next (keep one per standing query); over HTTP the query is
    /// one-shot and the server's lookback applies.
    fn instant(
        &self,
        src: &str,
        expr: &Expr,
        t_ms: i64,
        lookback_ms: i64,
        plan: &mut PreparedQuery,
    ) -> Result<Vec<(LabelSet, f64)>, String>;

    /// Deletes every series matching all of `matchers`. Returns the number
    /// of series deleted, 0 when the call failed.
    fn delete_series(&self, matchers: &[LabelMatcher]) -> usize;
}

impl QuerySource for Tsdb {
    fn instant(
        &self,
        _src: &str,
        expr: &Expr,
        t_ms: i64,
        lookback_ms: i64,
        plan: &mut PreparedQuery,
    ) -> Result<Vec<(LabelSet, f64)>, String> {
        match plan.instant(self, expr, t_ms, lookback_ms) {
            Ok(Value::Vector(v)) => Ok(v),
            Ok(Value::Scalar(x)) => Ok(vec![(LabelSet::empty(), x)]),
            Ok(Value::Matrix(_)) => Err("an instant query returned a range vector; \
                 wrap it in a *_over_time or rate function"
                .into()),
            Err(e) => Err(e.to_string()),
        }
    }

    fn delete_series(&self, matchers: &[LabelMatcher]) -> usize {
        Tsdb::delete_series(self, matchers)
    }
}

/// Reads and deletes on the current leader. While leaderless a query is an
/// error and a delete removes nothing.
impl QuerySource for WriteRouter {
    fn instant(
        &self,
        src: &str,
        expr: &Expr,
        t_ms: i64,
        lookback_ms: i64,
        plan: &mut PreparedQuery,
    ) -> Result<Vec<(LabelSet, f64)>, String> {
        let db = self.leader_db().ok_or("no leader elected")?;
        db.instant(src, expr, t_ms, lookback_ms, plan)
    }

    fn delete_series(&self, matchers: &[LabelMatcher]) -> usize {
        self.leader_db()
            .map_or(0, |db| Tsdb::delete_series(&db, matchers))
    }
}

/// Through `/api/v1/query` and the admin API's `delete_series`.
impl QuerySource for TsdbClient {
    fn instant(
        &self,
        src: &str,
        _expr: &Expr,
        t_ms: i64,
        _lookback_ms: i64,
        _plan: &mut PreparedQuery,
    ) -> Result<Vec<(LabelSet, f64)>, String> {
        TsdbClient::instant(self, src, t_ms)
    }

    fn delete_series(&self, matchers: &[LabelMatcher]) -> usize {
        let selector: Vec<String> = matchers.iter().map(ToString::to_string).collect();
        let path = format!(
            "/api/v1/admin/tsdb/delete_series?match[]={}",
            encode_component(&format!("{{{}}}", selector.join(",")))
        );
        self.call(Method::Post, &path)
            .ok()
            .and_then(|r| serde_json::from_slice::<serde_json::Value>(&r.body).ok())
            .and_then(|v| v["data"]["deletedSeries"].as_u64())
            .unwrap_or(0) as usize
    }
}

/// A pointer answers as what it points to: `Arc<Tsdb>` and
/// `Arc<dyn QuerySource>` are sources too.
impl<P> QuerySource for P
where
    P: Deref + Send + Sync,
    P::Target: QuerySource,
{
    fn instant(
        &self,
        src: &str,
        expr: &Expr,
        t_ms: i64,
        lookback_ms: i64,
        plan: &mut PreparedQuery,
    ) -> Result<Vec<(LabelSet, f64)>, String> {
        (**self).instant(src, expr, t_ms, lookback_ms, plan)
    }

    fn delete_series(&self, matchers: &[LabelMatcher]) -> usize {
        (**self).delete_series(matchers)
    }
}

/// Resolves the endpoint per call — e.g. following a failover routing table
/// so callers re-target the new leader without rebuilding the client.
/// `None` means "no endpoint known right now" and falls back to the
/// configured endpoints.
pub type UrlResolver = Arc<dyn Fn() -> Option<String> + Send + Sync>;

/// Why a call failed.
#[derive(Debug)]
pub enum CallError {
    /// No HTTP response: refused, reset, timed out, or the breaker is open.
    Transport(String),
    /// The endpoint answered, but unusably: a non-2xx status or a body that
    /// is not the payload the call expects.
    Api(String),
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::Transport(e) | CallError::Api(e) => f.write_str(e),
        }
    }
}

/// What `/api/v1/wal/position` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PositionReport {
    /// [`NodeRole::Leader`] or [`NodeRole::Follower`], as the node sees itself.
    pub role: NodeRole,
    /// The node's current write epoch.
    pub epoch: u64,
    /// Whether a WAL is attached; `pos` is all zeroes without one.
    pub wal_enabled: bool,
    /// The position the node has logged (leader) or applied (follower).
    pub pos: WalPosition,
}

/// Headers the HTTP client writes itself; relaying the inbound copies would
/// describe the previous hop's connection, not this one.
const HOP_HEADERS: [&str; 4] = ["connection", "content-length", "content-type", "host"];

/// A client of one TSDB, or of a set of interchangeable replicas.
pub struct TsdbClient {
    endpoints: Vec<String>,
    resolver: Option<UrlResolver>,
    next: AtomicUsize,
    client: Client,
    retry: RetryPolicy,
    breaker: Option<CircuitBreaker>,
}

impl TsdbClient {
    /// A client pinned to `base_url` (e.g. `http://127.0.0.1:9090`, no
    /// trailing slash): one attempt per call, no breaker.
    pub fn new(base_url: impl Into<String>) -> TsdbClient {
        TsdbClient::rotating(vec![base_url.into()])
    }

    /// A client over replica base URLs. Calls round-robin over them and try
    /// the next replica on transport failure; one full rotation counts as
    /// one attempt of the retry policy.
    pub fn rotating(replicas: Vec<String>) -> TsdbClient {
        assert!(!replicas.is_empty(), "need at least one replica URL");
        TsdbClient {
            endpoints: replicas,
            resolver: None,
            next: AtomicUsize::new(0),
            client: Client::new(),
            retry: RetryPolicy::disabled(),
            breaker: None,
        }
    }

    /// Resolves the endpoint per call instead of using the configured ones.
    pub fn with_resolver(mut self, resolver: UrlResolver) -> TsdbClient {
        self.resolver = Some(resolver);
        self
    }

    /// Replaces the HTTP client (pool size, timeout, identity headers, fault
    /// plan).
    pub fn with_client(mut self, client: Client) -> TsdbClient {
        self.client = client;
        self
    }

    /// Retries failed attempts under `retry`. Transport failures are always
    /// retried; the typed calls also retry 5xx answers.
    pub fn with_retry(mut self, retry: RetryPolicy) -> TsdbClient {
        self.retry = retry;
        self
    }

    /// Guards every call with `breaker`: calls that exhaust their retries
    /// feed it, and while it is open calls fail without touching the wire.
    pub fn with_breaker(mut self, breaker: CircuitBreaker) -> TsdbClient {
        self.breaker = Some(breaker);
        self
    }

    /// Forwards `req` as it is — method, path, query, body and the headers
    /// it carries (identity, content-type, sampling hints) — adding the
    /// current trace id when the request does not name one. Any HTTP
    /// response is an answer; only transport failures are errors.
    pub fn relay(&self, req: &Request) -> Result<Response, String> {
        let path = req.path_and_query();
        let content_type = req.headers.get("content-type").map(String::as_str);
        self.guarded(&req.headers, |client| {
            self.rotate(client, req.method, &path, &req.body, content_type)
        })
        .map_err(|e| e.to_string())
    }

    /// GETs `path_and_query` and returns whatever the endpoint answers —
    /// for endpoints whose statuses and bodies the caller interprets itself
    /// (WAL segment bytes, checkpoints, liveness probes).
    pub fn get(&self, path_and_query: &str) -> Result<Response, CallError> {
        self.guarded(&BTreeMap::new(), |client| {
            self.rotate(client, Method::Get, path_and_query, &[], None)
        })
    }

    /// Evaluates `expr` at `t_ms` via `/api/v1/query`. Scalar results
    /// become a single sample with empty labels.
    pub fn instant(&self, expr: &str, t_ms: i64) -> Result<Vec<(LabelSet, f64)>, String> {
        let path = format!(
            "/api/v1/query?query={}&time={}",
            encode_component(expr),
            promapi::secs_param(t_ms)
        );
        let resp = self.call(Method::Get, &path).map_err(|e| e.to_string())?;
        promapi::decode_instant(&resp.body)
    }

    /// Asks the node for its role, epoch and WAL position.
    pub fn wal_position(&self) -> Result<PositionReport, CallError> {
        let resp = self.call(Method::Get, "/api/v1/wal/position")?;
        parse_position(&resp.body).map_err(CallError::Api)
    }

    /// A bodiless call that needs a 2xx: 5xx answers are retried like
    /// transport failures, and whatever non-2xx is left is an error.
    fn call(&self, method: Method, path: &str) -> Result<Response, CallError> {
        let refused = |r: &Response| {
            let endpoint = path.split('?').next().unwrap_or(path);
            let body: String = r.body_string().chars().take(200).collect();
            CallError::Api(format!("{endpoint} returned {}: {body}", r.status.0))
        };
        let resp = self.guarded(&BTreeMap::new(), |client| {
            match self.rotate(client, method, path, &[], None) {
                Ok(r) if r.status.0 >= 500 => Err(refused(&r)),
                other => other,
            }
        })?;
        if resp.status.is_success() {
            Ok(resp)
        } else {
            Err(refused(&resp))
        }
    }

    /// Runs `op` under the breaker and the retry policy, handing it the
    /// HTTP client decorated with `headers` and the current trace id.
    fn guarded(
        &self,
        headers: &BTreeMap<String, String>,
        mut op: impl FnMut(&Client) -> Result<Response, CallError>,
    ) -> Result<Response, CallError> {
        if self.breaker.as_ref().is_some_and(|b| !b.try_acquire()) {
            return Err(CallError::Transport(
                "TSDB client circuit breaker is open".into(),
            ));
        }
        let mut client = self.client.clone();
        for (name, value) in headers {
            if !HOP_HEADERS.contains(&name.as_str()) {
                client = client.with_header(name, value.clone());
            }
        }
        if !headers.contains_key(TRACE_HEADER) {
            if let Some(t) = trace::current() {
                client = client.with_header(TRACE_HEADER, t.id());
            }
        }
        let result = self.retry.run(|_attempt| op(&client));
        if let Some(b) = &self.breaker {
            match &result {
                Ok(_) => b.on_success(),
                Err(_) => b.on_failure(),
            }
        }
        result
    }

    /// One pass over the endpoints, starting one past where the previous
    /// pass started: the first HTTP response wins.
    fn rotate(
        &self,
        client: &Client,
        method: Method,
        path_and_query: &str,
        body: &[u8],
        content_type: Option<&str>,
    ) -> Result<Response, CallError> {
        let resolved = self.resolver.as_ref().and_then(|r| r());
        let bases = resolved
            .as_ref()
            .map_or(&self.endpoints[..], std::slice::from_ref);
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        let mut last_err = String::new();
        for i in 0..bases.len() {
            let url = format!("{}{path_and_query}", bases[(start + i) % bases.len()]);
            match client.request(method, &url, body.to_vec(), content_type) {
                Ok(resp) => return Ok(resp),
                Err(e) => last_err = e.to_string(),
            }
        }
        Err(CallError::Transport(last_err))
    }
}

/// Parses the `/api/v1/wal/position` payload.
fn parse_position(body: &[u8]) -> Result<PositionReport, String> {
    let v: serde_json::Value =
        serde_json::from_slice(body).map_err(|e| format!("bad position report JSON: {e}"))?;
    let data = &v["data"];
    let records = data["records"]
        .as_u64()
        .ok_or("position report carries no record count")?;
    Ok(PositionReport {
        role: if data["role"] == "leader" {
            NodeRole::Leader
        } else {
            NodeRole::Follower
        },
        epoch: data["epoch"].as_u64().unwrap_or(0),
        wal_enabled: data["walEnabled"] == serde_json::Value::Bool(true),
        pos: WalPosition {
            seq: data["seq"].as_u64().unwrap_or(0),
            offset: data["offset"].as_u64().unwrap_or(0),
            records,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::election::{FailoverConfig, ReplicationGroup};
    use crate::httpapi::api_router;
    use crate::promql::eval::DEFAULT_LOOKBACK_MS;
    use crate::promql::parse_expr;
    use crate::storage::{Tsdb, TsdbConfig};
    use crate::wal::WalOptions;
    use ceems_http::{HttpServer, Router, ServerConfig};
    use ceems_metrics::labels;
    use ceems_metrics::matcher::MatchOp;
    use ceems_obs::trace::QueryTrace;
    use parking_lot::Mutex;

    fn serve(db: Arc<Tsdb>, now_ms: i64) -> HttpServer {
        HttpServer::serve(
            ServerConfig::ephemeral(),
            api_router(db, Arc::new(move || now_ms)),
        )
        .unwrap()
    }

    fn watts_db(value: f64) -> Arc<Tsdb> {
        let db = Arc::new(Tsdb::default());
        for i in 0..10i64 {
            db.append(
                &labels! {"__name__" => "watts", "uuid" => "slurm-1"},
                i * 15_000,
                value,
            );
        }
        db
    }

    #[test]
    fn typed_calls_round_trip_through_real_api() {
        let db = watts_db(100.0);
        let server = serve(db.clone(), 150_000);
        let api = TsdbClient::new(server.base_url());

        let v = api.instant("watts{uuid=\"slurm-1\"}", 150_000).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0.get("uuid"), Some("slurm-1"));
        assert_eq!(v[0].1, 100.0);

        // Scalar result type.
        let v = api.instant("scalar(sum(watts))", 150_000).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 100.0);

        // A rejected query is an error naming the endpoint and the status.
        let err = api.instant("rate(watts)", 150_000).unwrap_err();
        assert!(err.starts_with("/api/v1/query returned 4"), "{err}");

        assert_eq!(api.delete_series(&[LabelMatcher::eq("uuid", "slurm-1")]), 1);
        assert!(api.instant("watts", 150_000).unwrap().is_empty());
        server.shutdown();
    }

    /// The in-process database, the write route of a two-node group, and
    /// HTTP against the leader's API: one database, one answer; and the two
    /// routes that can lose their TSDB fail once it is gone.
    #[test]
    fn every_route_gives_one_answer() {
        let dir = std::env::temp_dir().join(format!("ceems-client-routes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let clock = Arc::new(std::sync::atomic::AtomicI64::new(150_000));
        let c = clock.clone();
        let failover = FailoverConfig {
            probe_interval_ms: 100,
            election_timeout_ms: 300,
            ..FailoverConfig::default()
        };
        let mut group = ReplicationGroup::new(
            &dir,
            2,
            WalOptions::default(),
            TsdbConfig::default(),
            failover,
            Arc::new(move || c.load(Ordering::Relaxed)),
        )
        .unwrap();
        let router = group.write_router();
        for u in 0..3i64 {
            for (name, v) in [("watts", 100.0 * (u + 1) as f64), ("joules", 1e3)] {
                let series = labels! {"__name__" => name, "uuid" => format!("u{u}")};
                let batch: Vec<_> = (0..10).map(|i| (series.clone(), i * 15_000, v)).collect();
                router.append_batch(&batch).unwrap();
            }
        }
        let db = router.leader_db().unwrap();
        let routes: [(&str, Box<dyn QuerySource>); 3] = [
            ("in process", Box::new(db.clone())),
            ("write route", Box::new(router.clone())),
            ("http", Box::new(TsdbClient::new(router.route().leader_url))),
        ];
        let ask = |src: &dyn QuerySource, q: &str| {
            let expr = parse_expr(q).unwrap();
            src.instant(
                q,
                &expr,
                150_000,
                DEFAULT_LOOKBACK_MS,
                &mut PreparedQuery::default(),
            )
        };

        for q in [
            "watts > 150",
            "scalar(sum(watts))",
            "sum by (uuid) (watts + joules)",
        ] {
            let want = ask(&db, q).unwrap();
            assert!(!want.is_empty(), "{q}");
            for (name, src) in &routes {
                assert_eq!(ask(src.as_ref(), q).unwrap(), want, "{name}: {q}");
            }
        }
        for (name, src) in &routes {
            assert!(ask(src.as_ref(), "watts[1m]").is_err(), "{name}");
        }

        // Each route deletes one unit's two series, named by an equality and
        // a regex matcher.
        let labels_of = |m: &[LabelMatcher]| -> Vec<String> {
            db.select(m, 0, i64::MAX)
                .iter()
                .map(|s| s.labels.to_string())
                .collect()
        };
        for (u, (name, src)) in routes.iter().enumerate() {
            let unit = [
                LabelMatcher::eq("uuid", format!("u{u}")),
                LabelMatcher::new("__name__", MatchOp::Re, "watts|joules").unwrap(),
            ];
            assert_eq!(labels_of(&unit).len(), 2, "{name}");
            assert_eq!(src.delete_series(&unit), 2, "{name}");
            assert!(labels_of(&unit).is_empty(), "{name}");
            let left = labels_of(&[LabelMatcher::new("uuid", MatchOp::Re, ".+").unwrap()]);
            assert_eq!(left.len(), 2 * (2 - u), "{name}");
        }

        // Both nodes die: once the probe timeout deposes the leader with no
        // candidate left, the group is leaderless and its server is gone.
        group.kill("node-1");
        group.kill("node-0");
        for _ in 0..6 {
            let now = clock.fetch_add(100, Ordering::Relaxed) + 100;
            group.tick(now);
        }
        assert!(group.leader_id().is_none(), "{:?}", group.events());
        for (name, src) in &routes[1..] {
            assert!(ask(src.as_ref(), "watts").is_err(), "{name}");
            let unit = [LabelMatcher::eq("uuid", "u2")];
            assert_eq!(src.delete_series(&unit), 0, "{name}");
        }
        drop(group);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_backend_is_a_transport_error() {
        let api = TsdbClient::new("http://127.0.0.1:1");
        assert!(api.instant("up", 0).is_err());
        assert!(matches!(api.wal_position(), Err(CallError::Transport(_))));
        assert_eq!(api.delete_series(&[LabelMatcher::eq("uuid", "x")]), 0);
    }

    #[test]
    fn follows_a_url_resolver() {
        let old_leader = serve(watts_db(100.0), 150_000);
        let new_leader = serve(watts_db(200.0), 150_000);

        let target = Arc::new(Mutex::new(old_leader.base_url()));
        let t = target.clone();
        let api = TsdbClient::new("http://127.0.0.1:1")
            .with_resolver(Arc::new(move || Some(t.lock().clone())));
        assert_eq!(api.instant("watts", 150_000).unwrap()[0].1, 100.0);

        // Failover: the routing table now points at the new leader; the
        // same client follows it without being rebuilt.
        *target.lock() = new_leader.base_url();
        assert_eq!(api.instant("watts", 150_000).unwrap()[0].1, 200.0);
        old_leader.shutdown();
        new_leader.shutdown();
    }

    #[test]
    fn rotation_skips_a_dead_replica_and_breaker_stops_a_dead_set() {
        let live = serve(watts_db(100.0), 150_000);
        let api = TsdbClient::rotating(vec!["http://127.0.0.1:1".into(), live.base_url()]);
        for _ in 0..3 {
            assert_eq!(api.instant("watts", 150_000).unwrap().len(), 1);
        }
        live.shutdown();

        let breaker = CircuitBreaker::new(Default::default());
        let dead = TsdbClient::new("http://127.0.0.1:1").with_breaker(breaker);
        for _ in 0..3 {
            assert!(dead.get("/api/v1/labels").is_err());
        }
        let err = dead.get("/api/v1/labels").unwrap_err();
        assert!(err.to_string().contains("circuit breaker is open"), "{err}");
    }

    #[test]
    fn position_report_covers_leader_follower_and_no_wal() {
        let dir = std::env::temp_dir().join(format!("ceems-client-pos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable =
            Arc::new(Tsdb::open(&dir, WalOptions::default(), TsdbConfig::default()).unwrap());
        durable.append(&labels! {"__name__" => "watts"}, 1_000, 1.0);
        durable.append(&labels! {"__name__" => "watts"}, 2_000, 2.0);
        durable.bump_epoch(3, 0).unwrap();
        let server = serve(durable.clone(), 2_000);
        let api = TsdbClient::new(server.base_url());

        durable.set_leader(true);
        let leader = api.wal_position().unwrap();
        assert_eq!(leader.role, NodeRole::Leader);
        assert_eq!(leader.epoch, 3);
        assert!(leader.wal_enabled);
        assert_eq!(leader.pos, durable.reported_wal_position());
        assert!(leader.pos.records >= 2);

        durable.set_leader(false);
        let follower = api.wal_position().unwrap();
        assert_eq!(follower.role, NodeRole::Follower);
        assert_eq!(follower.pos, leader.pos);
        server.shutdown();

        let server = serve(Arc::new(Tsdb::default()), 0);
        let bare = TsdbClient::new(server.base_url()).wal_position().unwrap();
        assert!(!bare.wal_enabled);
        assert_eq!(bare.pos, WalPosition::default());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        assert!(parse_position(br#"{"status":"success","data":{"role":"leader"}}"#).is_err());
        assert!(parse_position(b"\x00\xff").is_err());
    }

    #[test]
    fn relay_carries_identity_content_type_and_trace_id_and_nothing_else() {
        let mut router = Router::new();
        router.post("/echo", |req| {
            Response::json(serde_json::to_vec(&(&req.headers, req.body.len())).unwrap())
        });
        let server = HttpServer::serve(ServerConfig::ephemeral(), router).unwrap();
        let api = TsdbClient::new(server.base_url());

        // As a proxy sees it: the inbound request still carries the headers
        // of the connection it arrived on.
        let req = Request::new(Method::Post, "/echo?x=1")
            .with_header("X-Grafana-User", "alice")
            .with_header("content-type", "text/plain")
            .with_header("host", "lb.example:9030")
            .with_header("connection", "close")
            .with_header("content-length", "999")
            .with_body("abc");
        let qtrace = QueryTrace::begin(None);
        let resp = {
            let _cur = trace::enter(Some(qtrace.clone()));
            api.relay(&req).unwrap()
        };
        let (seen, body_len): (BTreeMap<String, String>, usize) =
            serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(body_len, 3);
        let authority = server.base_url().trim_start_matches("http://").to_string();
        let expected: BTreeMap<String, String> = [
            ("connection", "keep-alive"),
            ("content-length", "3"),
            ("content-type", "text/plain"),
            ("host", authority.as_str()),
            (TRACE_HEADER, qtrace.id()),
            ("x-grafana-user", "alice"),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        assert_eq!(seen, expected);

        // A trace id the request names wins over the thread's; without
        // either, none is invented.
        let named = req.clone().with_header(TRACE_HEADER, "inbound-id");
        let _cur = trace::enter(Some(qtrace));
        let resp = api.relay(&named).unwrap();
        let (seen, _): (BTreeMap<String, String>, usize) =
            serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(
            seen.get(TRACE_HEADER).map(String::as_str),
            Some("inbound-id")
        );
        drop(_cur);
        let resp = api.relay(&req).unwrap();
        let (seen, _): (BTreeMap<String, String>, usize) =
            serde_json::from_slice(&resp.body).unwrap();
        assert!(!seen.contains_key(TRACE_HEADER));
        server.shutdown();
    }
}
