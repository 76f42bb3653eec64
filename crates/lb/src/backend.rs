//! TSDB backend pool and balancing strategies.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ceems_http::resilience::{BreakerConfig, CircuitBreaker};
use ceems_http::Client;
use ceems_tsdb::{NodeRole, TsdbClient};

/// One TSDB replica behind the LB.
pub struct Backend {
    /// Backend id (for logs/metrics).
    pub id: String,
    /// Base URL, e.g. `http://127.0.0.1:9090`.
    pub base_url: String,
    healthy: AtomicBool,
    active: AtomicUsize,
    served: AtomicU64,
    /// WAL records behind the most advanced replica at the last health
    /// check (0 for leaders and non-WAL backends).
    wal_lag: AtomicU64,
    /// Reported leadership at the last health check (S24 write routing).
    leader: AtomicBool,
    /// Reported epoch at the last health check.
    epoch: AtomicU64,
    /// Per-backend circuit breaker: consecutive forward failures open it,
    /// taking the backend out of rotation until the cooldown admits a
    /// half-open probe (or an external health probe force-closes it).
    breaker: CircuitBreaker,
}

impl Backend {
    /// Creates a backend assumed healthy, with a default-config breaker.
    pub fn new(id: impl Into<String>, base_url: impl Into<String>) -> Arc<Backend> {
        Backend::with_breaker(id, base_url, CircuitBreaker::new(BreakerConfig::default()))
    }

    /// Creates a backend with an explicit breaker (tests inject a manual
    /// clock; deployments tune thresholds/cooldowns).
    pub fn with_breaker(
        id: impl Into<String>,
        base_url: impl Into<String>,
        breaker: CircuitBreaker,
    ) -> Arc<Backend> {
        Arc::new(Backend {
            id: id.into(),
            base_url: base_url.into(),
            healthy: AtomicBool::new(true),
            active: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            wal_lag: AtomicU64::new(0),
            leader: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            breaker,
        })
    }

    /// The backend's circuit breaker. The proxy feeds forward outcomes into
    /// it; [`BackendPool::pick`] skips backends whose breaker is open.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Health flag.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }

    /// Sets the health flag.
    pub fn set_healthy(&self, ok: bool) {
        self.healthy.store(ok, Ordering::Relaxed);
    }

    /// WAL records this replica lagged behind the freshest one at the last
    /// health check.
    pub fn wal_lag(&self) -> u64 {
        self.wal_lag.load(Ordering::Relaxed)
    }

    /// Whether the backend reported itself leader at the last health check.
    pub fn is_leader(&self) -> bool {
        self.leader.load(Ordering::Relaxed)
    }

    /// The epoch the backend reported at the last health check.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// In-flight request count.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Total requests served.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// The backend's API over `client`, for probes.
    fn api(&self, client: &Client) -> TsdbClient {
        TsdbClient::new(self.base_url.as_str()).with_client(client.clone())
    }

    /// Marks a request in flight; the guard releases on drop.
    pub fn begin(self: &Arc<Self>) -> InFlight {
        self.active.fetch_add(1, Ordering::Relaxed);
        self.served.fetch_add(1, Ordering::Relaxed);
        InFlight {
            backend: self.clone(),
        }
    }
}

/// Whether a backend answers the labels probe.
fn responds(api: &TsdbClient) -> bool {
    api.get("/api/v1/labels")
        .is_ok_and(|r| r.status.is_success())
}

/// RAII guard for an in-flight proxied request.
pub struct InFlight {
    backend: Arc<Backend>,
}

impl Drop for InFlight {
    fn drop(&mut self) {
        self.backend.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Balancing strategy (§II.B.c names both).
#[derive(Debug)]
pub enum Strategy {
    /// Rotate through healthy backends.
    RoundRobin(AtomicUsize),
    /// Pick the healthy backend with the fewest in-flight requests.
    LeastConnection,
}

impl Strategy {
    /// Round-robin starting at 0.
    pub fn round_robin() -> Strategy {
        Strategy::RoundRobin(AtomicUsize::new(0))
    }
}

/// The pool.
pub struct BackendPool {
    backends: Vec<Arc<Backend>>,
    strategy: Strategy,
    /// Demote replicas whose WAL record count trails the freshest replica
    /// by more than this many records. `None` disables the staleness check
    /// (plain responsiveness probing).
    max_wal_lag: Option<u64>,
    /// Learn an epoch-keyed write route from health probes (S24 failover).
    route_writes: bool,
    /// The write route learned at the last health check: the id of the
    /// backend reporting itself leader, at which epoch.
    write_leader: std::sync::Mutex<Option<(String, u64)>>,
    /// Leader changes observed across health checks (failovers seen).
    failovers: AtomicU64,
}

impl BackendPool {
    /// Creates a pool.
    pub fn new(backends: Vec<Arc<Backend>>, strategy: Strategy) -> BackendPool {
        BackendPool {
            backends,
            strategy,
            max_wal_lag: None,
            route_writes: false,
            write_leader: std::sync::Mutex::new(None),
            failovers: AtomicU64::new(0),
        }
    }

    /// Enables write routing: health checks learn which backend reports
    /// itself leader (and at which epoch) from `/api/v1/wal/position`, and
    /// [`BackendPool::write_backend`] pins write traffic to it. A leader
    /// change between checks counts one failover.
    pub fn with_write_routing(mut self) -> BackendPool {
        self.route_writes = true;
        self
    }

    /// Enables WAL-position staleness demotion: a replica answering probes
    /// but lagging the freshest replica by more than `records` WAL records
    /// is marked unhealthy (a frozen-but-responsive replica serves stale
    /// `rate()`s, which silently corrupts energy totals).
    pub fn with_max_wal_lag(mut self, records: u64) -> BackendPool {
        self.max_wal_lag = Some(records);
        self
    }

    /// All backends.
    pub fn backends(&self) -> &[Arc<Backend>] {
        &self.backends
    }

    /// Picks a healthy backend whose circuit breaker admits traffic, or
    /// `None` when every backend is down or open. `available()` does not
    /// consume half-open probe slots — the proxy calls `try_acquire` on the
    /// picked backend's breaker at forward time.
    pub fn pick(&self) -> Option<Arc<Backend>> {
        let healthy: Vec<&Arc<Backend>> = self
            .backends
            .iter()
            .filter(|b| b.is_healthy() && b.breaker.available())
            .collect();
        if healthy.is_empty() {
            return None;
        }
        match &self.strategy {
            Strategy::RoundRobin(counter) => {
                let i = counter.fetch_add(1, Ordering::Relaxed) % healthy.len();
                Some(healthy[i].clone())
            }
            Strategy::LeastConnection => healthy
                .into_iter()
                .min_by_key(|b| b.active())
                .cloned(),
        }
    }

    /// Probes every backend's Prometheus API and updates health flags.
    ///
    /// A backend is healthy when it answers the labels probe — and, when
    /// staleness demotion is enabled, when its reported WAL record count is
    /// within `max_wal_lag` of the most advanced responsive replica. A 200
    /// alone is not enough: a replica whose ingest froze keeps answering
    /// queries with ever-staler data.
    ///
    /// Returns the number of healthy backends.
    pub fn health_check(&self, client: &Client) -> usize {
        // Phase 1: responsiveness + WAL position probes.
        let mut responsive: Vec<bool> = Vec::with_capacity(self.backends.len());
        let mut wal_records: Vec<Option<u64>> = Vec::with_capacity(self.backends.len());
        for b in &self.backends {
            let api = b.api(client);
            let ok = responds(&api);
            responsive.push(ok);
            let position = if ok && (self.max_wal_lag.is_some() || self.route_writes) {
                api.wal_position().ok()
            } else {
                None
            };
            if self.route_writes {
                // Role and epoch are meaningful even without a WAL (an
                // in-memory replica can still hold leadership). An
                // unresponsive backend cannot claim leadership: forget
                // whatever it reported before it died.
                let is_leader = position.is_some_and(|p| p.role == NodeRole::Leader);
                b.leader.store(is_leader, Ordering::Relaxed);
                if ok {
                    b.epoch
                        .store(position.map_or(0, |p| p.epoch), Ordering::Relaxed);
                }
            }
            // Lag comparison only makes sense for durable replicas.
            wal_records.push(position.filter(|p| p.wal_enabled).map(|p| p.pos.records));
        }
        if self.route_writes {
            self.update_write_route();
        }

        // Phase 2: staleness — lag is measured against the freshest
        // responsive replica. Backends without a WAL report no position and
        // are exempt (nothing to compare).
        let freshest = wal_records.iter().flatten().copied().max().unwrap_or(0);
        let mut healthy = 0;
        for (i, b) in self.backends.iter().enumerate() {
            let lag = wal_records[i].map_or(0, |r| freshest.saturating_sub(r));
            b.wal_lag.store(lag, Ordering::Relaxed);
            let fresh_enough = match self.max_wal_lag {
                Some(max) => lag <= max,
                None => true,
            };
            let ok = responsive[i] && fresh_enough;
            b.set_healthy(ok);
            if ok {
                // A passing probe is positive evidence: clear any breaker
                // state accumulated from earlier forward failures so the
                // backend re-enters rotation immediately.
                b.breaker.force_close();
                healthy += 1;
            }
        }
        healthy
    }

    /// Re-derives the write route from the backends' last-probed leader
    /// claims. The table is epoch-keyed: when two backends both claim
    /// leadership (a deposed leader that never saw the bump), the higher
    /// epoch wins — exactly the fencing rule the TSDB itself enforces.
    fn update_write_route(&self) {
        let new = self
            .backends
            .iter()
            .filter(|b| b.is_leader())
            .max_by_key(|b| (b.epoch(), std::cmp::Reverse(b.id.clone())))
            .map(|b| (b.id.clone(), b.epoch()));
        let mut cur = self.write_leader.lock().unwrap();
        if *cur != new {
            if let (Some((old_id, _)), Some((new_id, _))) = (cur.as_ref(), new.as_ref()) {
                if old_id != new_id {
                    self.failovers.fetch_add(1, Ordering::Relaxed);
                }
            }
            *cur = new;
        }
    }

    /// The backend write traffic routes to: the highest-epoch leader
    /// claimant from the last health check, while it stays healthy. `None`
    /// while leaderless (writes should fail fast, not land on a stale
    /// replica).
    pub fn write_backend(&self) -> Option<Arc<Backend>> {
        let (id, _) = self.write_leader.lock().unwrap().clone()?;
        self.backends
            .iter()
            .find(|b| b.id == id && b.is_healthy() && b.breaker.available())
            .cloned()
    }

    /// The epoch of the current write route (0 while unknown).
    pub fn write_epoch(&self) -> u64 {
        self.write_leader
            .lock()
            .unwrap()
            .as_ref()
            .map_or(0, |(_, e)| *e)
    }

    /// Leader changes observed across health checks.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Probes only the backends currently *out* of rotation (demoted or
    /// breaker-open) and re-promotes the ones that answer the labels
    /// endpoint. Cheaper than a full [`BackendPool::health_check`]; the
    /// proxy calls this before refusing a request with 503 so a recovered
    /// backend is readmitted by live traffic, not just the periodic probe.
    ///
    /// Returns the number of backends re-promoted.
    pub fn revive(&self, client: &Client) -> usize {
        let mut revived = 0;
        for b in &self.backends {
            if b.is_healthy() && b.breaker.available() {
                continue;
            }
            if responds(&b.api(client)) {
                b.set_healthy(true);
                b.breaker.force_close();
                revived += 1;
            }
        }
        revived
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(strategy: Strategy) -> BackendPool {
        BackendPool::new(
            vec![
                Backend::new("a", "http://a"),
                Backend::new("b", "http://b"),
                Backend::new("c", "http://c"),
            ],
            strategy,
        )
    }

    #[test]
    fn round_robin_rotates() {
        let p = pool(Strategy::round_robin());
        let picks: Vec<String> = (0..6).map(|_| p.pick().unwrap().id.clone()).collect();
        assert_eq!(picks, vec!["a", "b", "c", "a", "b", "c"]);
    }

    #[test]
    fn round_robin_skips_unhealthy() {
        let p = pool(Strategy::round_robin());
        p.backends()[1].set_healthy(false);
        let picks: Vec<String> = (0..4).map(|_| p.pick().unwrap().id.clone()).collect();
        assert!(!picks.contains(&"b".to_string()));
    }

    #[test]
    fn all_down_yields_none() {
        let p = pool(Strategy::round_robin());
        for b in p.backends() {
            b.set_healthy(false);
        }
        assert!(p.pick().is_none());
    }

    #[test]
    fn least_connection_prefers_idle() {
        let p = pool(Strategy::LeastConnection);
        let a = p.backends()[0].clone();
        let _guard1 = a.begin();
        let _guard2 = a.begin();
        let b = p.backends()[1].clone();
        let _guard3 = b.begin();
        // c has 0 in flight.
        assert_eq!(p.pick().unwrap().id, "c");
        drop(_guard3);
        // After c picks up two, b (1 dropped to 0) wins.
        let c = p.backends()[2].clone();
        let _g4 = c.begin();
        let _g5 = c.begin();
        assert_eq!(p.pick().unwrap().id, "b");
    }

    #[test]
    fn inflight_guard_releases() {
        let b = Backend::new("x", "http://x");
        {
            let _g = b.begin();
            assert_eq!(b.active(), 1);
        }
        assert_eq!(b.active(), 0);
        assert_eq!(b.served(), 1);
    }

    #[test]
    fn open_breaker_excludes_backend_from_pick() {
        use ceems_http::resilience::BreakerState;
        use std::sync::atomic::AtomicU64;

        let clock = Arc::new(AtomicU64::new(0));
        let c = clock.clone();
        let breaker = CircuitBreaker::with_clock(
            BreakerConfig::default(),
            Arc::new(move || c.load(Ordering::Relaxed)),
        );
        let p = BackendPool::new(
            vec![
                Backend::with_breaker("a", "http://a", breaker),
                Backend::new("b", "http://b"),
            ],
            Strategy::round_robin(),
        );
        for _ in 0..3 {
            p.backends()[0].breaker().on_failure();
        }
        assert_eq!(p.backends()[0].breaker().state(), BreakerState::Open);
        for _ in 0..4 {
            assert_eq!(p.pick().unwrap().id, "b");
        }
        // The cooldown elapses: the breaker becomes available again (the
        // forward path consumes the half-open probe slot via try_acquire).
        clock.store(1_500, Ordering::Relaxed);
        let picks: Vec<String> = (0..4).map(|_| p.pick().unwrap().id.clone()).collect();
        assert!(picks.contains(&"a".to_string()));
    }

    #[test]
    fn revive_repromotes_recovered_backend() {
        let mut router = ceems_http::Router::new();
        router.route(ceems_http::Method::Get, "/api/v1/labels", |_| {
            ceems_http::Response::json(br#"{"status":"success","data":[]}"#.to_vec())
        });
        let srv =
            ceems_http::HttpServer::serve(ceems_http::ServerConfig::ephemeral(), router).unwrap();

        let p = BackendPool::new(
            vec![
                Backend::new("recovered", srv.base_url()),
                Backend::new("gone", "http://127.0.0.1:1"),
            ],
            Strategy::round_robin(),
        );
        // Both out of rotation: one demoted, one with a tripped breaker.
        p.backends()[0].set_healthy(false);
        p.backends()[1].set_healthy(false);
        for _ in 0..3 {
            p.backends()[1].breaker().on_failure();
        }
        assert!(p.pick().is_none());

        // Only the responsive one comes back; its breaker is force-closed.
        assert_eq!(p.revive(&Client::new()), 1);
        assert_eq!(p.pick().unwrap().id, "recovered");
        assert!(p.backends()[0].is_healthy());
        assert!(p.backends()[0].breaker().available());
        assert!(!p.backends()[1].is_healthy());
        srv.shutdown();
    }

    #[test]
    fn health_check_marks_dead_backends() {
        let p = BackendPool::new(
            vec![Backend::new("dead", "http://127.0.0.1:1")],
            Strategy::round_robin(),
        );
        let n = p.health_check(&Client::new());
        assert_eq!(n, 0);
        assert!(!p.backends()[0].is_healthy());
    }

    #[test]
    fn frozen_replica_is_demoted_by_wal_staleness() {
        use ceems_metrics::labels;
        use ceems_tsdb::httpapi::api_router;
        use ceems_tsdb::wal::{FsyncMode, WalOptions};
        use ceems_tsdb::{Tsdb, TsdbConfig};
        use std::sync::Arc;

        let opts = WalOptions {
            segment_bytes: 1 << 20,
            fsync: FsyncMode::Never,
        };
        let serve = |tag: &str, records: i64| {
            let dir = std::env::temp_dir()
                .join(format!("ceems-lb-stale-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let db = Arc::new(Tsdb::open(&dir, opts, TsdbConfig::default()).unwrap());
            for t in 0..records {
                db.append(&labels! {"__name__" => "power"}, t * 1_000, 1.0);
            }
            let server = ceems_http::HttpServer::serve(
                ceems_http::ServerConfig::ephemeral(),
                api_router(db, Arc::new(|| 10_000_000)),
            )
            .unwrap();
            (server, dir)
        };
        // The frozen replica still answers every probe with 200s — only its
        // WAL position gives it away.
        let (fresh, fresh_dir) = serve("fresh", 100);
        let (frozen, frozen_dir) = serve("frozen", 10);

        let backends = || {
            vec![
                Backend::new("fresh", fresh.base_url()),
                Backend::new("frozen", frozen.base_url()),
            ]
        };
        // Plain responsiveness probing: both look healthy (the old bug).
        let plain = BackendPool::new(backends(), Strategy::round_robin());
        assert_eq!(plain.health_check(&Client::new()), 2);

        // With staleness demotion the frozen replica is dropped from rotation.
        let strict =
            BackendPool::new(backends(), Strategy::round_robin()).with_max_wal_lag(25);
        assert_eq!(strict.health_check(&Client::new()), 1);
        assert!(strict.backends()[0].is_healthy());
        assert!(!strict.backends()[1].is_healthy());
        assert_eq!(strict.backends()[0].wal_lag(), 0);
        assert_eq!(strict.backends()[1].wal_lag(), 90);
        assert_eq!(strict.pick().unwrap().id, "fresh");

        fresh.shutdown();
        frozen.shutdown();
        let _ = std::fs::remove_dir_all(&fresh_dir);
        let _ = std::fs::remove_dir_all(&frozen_dir);
    }
}
