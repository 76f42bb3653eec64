//! Typed configuration for the whole stack, loadable from one YAML file
//! (§II.D: "All the CEEMS components can be configured in a single YAML
//! file where each component will read its relevant configuration").

use ceems_simnode::ClusterSpec;
use ceems_tsdb::promql::lexer::{lex, Token};

use crate::yaml::{parse, Yaml};

/// Query-frontend (`ceems-qfe`) settings.
#[derive(Clone, Debug)]
pub struct QfeSettings {
    /// Sub-range width for range splitting (seconds). Default: one day.
    pub split_interval_s: f64,
    /// Results-cache budget in bytes; 0 disables caching.
    pub cache_bytes: usize,
    /// Window before "now" that is never cached (seconds).
    pub recent_window_s: f64,
    /// Queued queries allowed per tenant before shedding with 429.
    pub tenant_queue_depth: usize,
    /// Concurrent queries allowed per tenant.
    pub max_tenant_concurrency: usize,
    /// Staleness bound (seconds) for degraded stale-cache serves: a cached
    /// answer older than this is a 502, not a silently ancient "success".
    /// 0 (the default) keeps the bound off — any cached extent may serve.
    pub max_stale_s: f64,
}

impl Default for QfeSettings {
    fn default() -> Self {
        QfeSettings {
            split_interval_s: 86_400.0,
            cache_bytes: 64 << 20,
            recent_window_s: 600.0,
            tenant_queue_depth: 16,
            max_tenant_concurrency: 4,
            max_stale_s: 0.0,
        }
    }
}

/// The `failover:` YAML section (S24): automatic leader failover for the
/// TSDB replication group. Presence of the section enables it; the stack
/// then runs `replicas` TSDB nodes under a [`ceems_tsdb::ReplicationGroup`]
/// with epoch-fenced writes and deterministic elections.
#[derive(Clone, Debug)]
pub struct FailoverSettings {
    /// Master switch; presence of the `failover:` section enables it.
    pub enabled: bool,
    /// TSDB nodes in the replication group (one leader + followers).
    pub replicas: usize,
    /// Leader liveness probe interval (seconds).
    pub probe_interval_s: f64,
    /// Missed-probe window before the leader is deposed and an election
    /// runs (seconds).
    pub election_timeout_s: f64,
    /// Catch-up gate: a follower lagging the dead leader's last known
    /// position by more than this many WAL records is not promotable.
    /// `u64::MAX` (the default) promotes the most-caught-up candidate
    /// unconditionally.
    pub min_catchup_records: u64,
}

impl Default for FailoverSettings {
    fn default() -> Self {
        FailoverSettings {
            enabled: false,
            replicas: 3,
            probe_interval_s: 1.0,
            election_timeout_s: 3.0,
            min_catchup_records: u64::MAX,
        }
    }
}

impl FailoverSettings {
    /// These settings as the TSDB crate's [`ceems_tsdb::FailoverConfig`].
    pub fn failover_config(&self) -> ceems_tsdb::FailoverConfig {
        ceems_tsdb::FailoverConfig {
            probe_interval_ms: (self.probe_interval_s * 1000.0).max(1.0) as i64,
            election_timeout_ms: (self.election_timeout_s * 1000.0).max(1.0) as i64,
            min_catchup_records: self.min_catchup_records,
            ..Default::default()
        }
    }
}

/// The `http:` YAML section: tuning for the shared epoll HTTP substrate
/// (S20) — every served component and every pooled client reads these.
#[derive(Clone, Debug)]
pub struct HttpSettings {
    /// Open-connection cap per server; accepts beyond it are shed so the
    /// process never exhausts its fd table.
    pub max_connections: usize,
    /// Keep-alive connections idle for longer than this are closed (s).
    pub idle_timeout_s: f64,
    /// Not read: a server runs its `workers` threads and no event loops
    /// besides (S20). The YAML key is still accepted.
    pub reactor_threads: usize,
    /// Idle keep-alive connections a client pools per host; 0 disables
    /// client-side connection reuse.
    pub pool_per_host: usize,
    /// Listen backlog for the accept queue.
    pub backlog: i32,
}

impl Default for HttpSettings {
    fn default() -> Self {
        let sc = ceems_http::ServerConfig::default();
        HttpSettings {
            max_connections: sc.max_connections,
            idle_timeout_s: sc.idle_timeout.as_secs_f64(),
            reactor_threads: 2,
            pool_per_host: ceems_http::pool::DEFAULT_POOL_PER_HOST,
            backlog: sc.backlog,
        }
    }
}

impl HttpSettings {
    /// These settings as a [`ceems_http::ServerConfig`] bound to an
    /// ephemeral port (components override `addr`/`workers`/auth on top).
    pub fn server_config(&self) -> ceems_http::ServerConfig {
        ceems_http::ServerConfig::ephemeral()
            .with_max_connections(self.max_connections)
            .with_idle_timeout(std::time::Duration::from_secs_f64(
                self.idle_timeout_s.max(0.001),
            ))
            .with_backlog(self.backlog)
    }

    /// A pooled [`ceems_http::Client`] honoring `pool_per_host`.
    pub fn client(&self) -> ceems_http::Client {
        ceems_http::Client::new().with_pool_per_host(self.pool_per_host)
    }
}

/// The `alerting:` YAML section (`ceems-alertsrv`): evaluation cadence,
/// Alertmanager-style group timers, delivery target, and thresholds for
/// the built-in rule packs (a non-positive threshold disables its pack).
#[derive(Clone, Debug)]
pub struct AlertingSettings {
    /// Master switch; the stack only builds an alerting service when true.
    pub enabled: bool,
    /// Rule-evaluation interval (seconds).
    pub eval_interval_s: f64,
    /// Delay before a new group's first notification (seconds).
    pub group_wait_s: f64,
    /// Minimum spacing between notifications for a changed group (s).
    pub group_interval_s: f64,
    /// Re-notification interval for an unchanged firing group (s).
    pub repeat_interval_s: f64,
    /// How long resolved alerts are retained before GC (seconds).
    pub resolved_retention_s: f64,
    /// Webhook receiver URL; unset routes everything to the log sink.
    pub webhook_url: Option<String>,
    /// Per-project energy budget (W); the pack fires per `uuid` above it.
    pub energy_budget_watts: f64,
    /// `for:` hold of the energy-budget pack (seconds).
    pub energy_budget_for_s: f64,
    /// Emission-factor staleness bound (seconds) before the
    /// factor-source-down pack fires.
    pub factor_max_age_s: f64,
    /// Per-node power bound (W) for the node-anomaly pack.
    pub node_power_max_watts: f64,
    /// Replica WAL-lag bound (records) for the replica-lag pack.
    pub wal_lag_max_records: f64,
}

impl Default for AlertingSettings {
    fn default() -> Self {
        AlertingSettings {
            enabled: false,
            eval_interval_s: 30.0,
            group_wait_s: 15.0,
            group_interval_s: 60.0,
            repeat_interval_s: 4.0 * 3600.0,
            resolved_retention_s: 300.0,
            webhook_url: None,
            energy_budget_watts: 0.0,
            energy_budget_for_s: 120.0,
            factor_max_age_s: 0.0,
            node_power_max_watts: 0.0,
            wal_lag_max_records: 0.0,
        }
    }
}

/// The `obs:` YAML section (S22): always-on trace sampling and the durable
/// trace store every component ships finished `TraceReport`s to.
#[derive(Clone, Debug)]
pub struct ObsSettings {
    /// Head-sampling probability for finished traces, in `[0, 1]`. The
    /// decision hashes the trace ID, so every hop of a request reaches the
    /// same verdict. 0 disables head sampling (tail capture still applies).
    pub trace_sample_rate: f64,
    /// Per-tenant overrides of `trace_sample_rate`, each in `[0, 1]`. The
    /// query frontend resolves the effective rate and propagates it
    /// downstream; the reserved `__ceems_meta__` tenant is always pinned
    /// to 1.0 regardless of this map.
    pub tenant_sample_rates: std::collections::BTreeMap<String, f64>,
    /// Tail-capture threshold (ms): every trace slower than this is stored
    /// regardless of the head decision. Non-positive disables tail capture.
    pub trace_slow_ms: f64,
    /// Byte bound of the trace ring buffer; oldest spans are evicted first.
    pub trace_store_max_bytes: u64,
    /// Age bound (seconds) for stored spans, enforced by GC on
    /// `CeemsStack::advance`. Non-positive disables age eviction.
    pub trace_store_max_age_s: f64,
}

impl Default for ObsSettings {
    fn default() -> Self {
        ObsSettings {
            trace_sample_rate: 0.1,
            tenant_sample_rates: Default::default(),
            trace_slow_ms: 250.0,
            trace_store_max_bytes: 4 << 20,
            trace_store_max_age_s: 3600.0,
        }
    }
}

/// The `stream:` YAML section (S23): push-mode sample ingest over the
/// streaming bus plus live query push. Presence of the section enables it;
/// exporters then publish renders instead of being scraped, recording rules
/// re-evaluate incrementally, and `query_live` subscriptions are served.
#[derive(Clone, Debug)]
pub struct StreamSettings {
    /// Master switch; presence of the `stream:` section enables it.
    pub enabled: bool,
    /// Topic exporter renders are published on.
    pub topic: String,
    /// Replay-ring capacity per (tenant, topic); subscribers resuming from
    /// an offset older than the ring receive a gap record.
    pub ring_capacity: usize,
    /// Raw-frame subscriber cap per tenant on `/api/v1/stream/subscribe`.
    pub max_subscribers_per_tenant: usize,
    /// Live `query_live` subscription cap per tenant at the frontend.
    pub max_live_per_tenant: usize,
}

impl Default for StreamSettings {
    fn default() -> Self {
        StreamSettings {
            enabled: false,
            topic: "node-metrics".to_string(),
            ring_capacity: 256,
            max_subscribers_per_tenant: 64,
            max_live_per_tenant: 16,
        }
    }
}

/// The `meta:` YAML section (S22): self-scrape meta-monitoring — the stack
/// scrapes every component's own `/metrics` into the reserved
/// `__ceems_meta__` tenant of its own TSDB.
#[derive(Clone, Debug)]
pub struct MetaSettings {
    /// Master switch; presence of the `meta:` section enables it.
    pub enabled: bool,
    /// Self-scrape interval (seconds).
    pub scrape_interval_s: f64,
    /// Staleness bound (seconds) before the `MetaScrapeStale` alert fires.
    pub stale_after_s: f64,
    /// Breaker opens over 5 minutes before `BreakerOpenStorm` fires.
    pub breaker_storm_opens: f64,
}

impl Default for MetaSettings {
    fn default() -> Self {
        MetaSettings {
            enabled: false,
            scrape_interval_s: 30.0,
            stale_after_s: 90.0,
            breaker_storm_opens: 3.0,
        }
    }
}

/// Churn generator settings.
#[derive(Clone, Debug)]
pub struct ChurnSettings {
    /// Distinct users.
    pub users: usize,
    /// Projects.
    pub projects: usize,
    /// Mean arrivals per simulated hour.
    pub arrivals_per_hour: f64,
}

/// Full stack configuration.
#[derive(Clone, Debug)]
pub struct CeemsConfig {
    /// Cluster shape.
    pub cluster: ClusterSpec,
    /// RNG seed for the whole simulation.
    pub seed: u64,
    /// Scrape interval (seconds).
    pub scrape_interval_s: f64,
    /// Recording-rule `rate()` window (PromQL duration, e.g. `2m`).
    pub rule_window: String,
    /// Recording-rule evaluation interval (seconds).
    pub rule_interval_s: f64,
    /// API-server updater poll interval (seconds).
    pub updater_interval_s: f64,
    /// §II.C cleanup: purge TSDB series of units shorter than this
    /// (seconds); 0 disables.
    pub cleanup_cutoff_s: f64,
    /// Country/zone for emission factors.
    pub zone: String,
    /// Emission providers to enable, in priority order
    /// (`rte`, `emaps`, `owid`).
    pub emission_providers: Vec<String>,
    /// Operators allowed unscoped queries.
    pub admin_users: Vec<String>,
    /// LB strategy: `round_robin` or `least_connection`.
    pub lb_strategy: String,
    /// Churn generation; `None` means jobs are submitted manually.
    pub churn: Option<ChurnSettings>,
    /// Worker threads for stepping the simulated nodes and for an ingest
    /// pass: a scrape pass in pull mode, a push pass in stream mode. The
    /// pass's workers take the sources one at a time (`ceems_tsdb::fan_out`).
    pub threads: usize,
    /// Worker threads for rule groups evaluated side by side; each group's
    /// rules still run in order (1 = the groups in order on the calling
    /// thread).
    pub query_threads: usize,
    /// Capacity of the TSDB matcher-result posting cache; 0 disables it.
    pub posting_cache_size: usize,
    /// WAL directory for the hot TSDB; `None` (default) keeps the head
    /// purely in memory with no durability.
    pub wal_dir: Option<String>,
    /// WAL segment rotation size in bytes.
    pub wal_segment_bytes: u64,
    /// Seconds between WAL checkpoints (covered segments are GC'd).
    pub wal_checkpoint_interval_s: f64,
    /// WAL fsync policy: `always`, `batch`, or `never`.
    pub wal_fsync: String,
    /// Slow-query log threshold in milliseconds; queries slower than this
    /// emit one structured log line. Non-positive (the default) disables.
    pub slow_query_ms: f64,
    /// Sustained `/api/v1/wal/fetch` rate allowed per follower (req/s).
    pub wal_fetch_rate_per_s: f64,
    /// Token-bucket burst for `/api/v1/wal/fetch`.
    pub wal_fetch_burst: f64,
    /// Query-frontend settings (always present; the stack only runs a
    /// frontend when one is served explicitly).
    pub qfe: QfeSettings,
    /// HTTP substrate tuning shared by every server and client.
    pub http: HttpSettings,
    /// Alerting service settings (disabled by default).
    pub alerting: AlertingSettings,
    /// Trace sampling + durable trace-store settings.
    pub obs: ObsSettings,
    /// Self-scrape meta-monitoring settings (disabled by default).
    pub meta: MetaSettings,
    /// Streaming ingest bus + live query push (disabled by default).
    pub stream: StreamSettings,
    /// TSDB leader failover (disabled by default).
    pub failover: FailoverSettings,
}

impl Default for CeemsConfig {
    fn default() -> Self {
        CeemsConfig {
            cluster: ClusterSpec::small(),
            seed: 42,
            scrape_interval_s: 15.0,
            rule_window: "2m".to_string(),
            rule_interval_s: 30.0,
            updater_interval_s: 60.0,
            cleanup_cutoff_s: 0.0,
            zone: "FR".to_string(),
            emission_providers: vec!["rte".into(), "owid".into()],
            admin_users: vec!["root".into()],
            lb_strategy: "round_robin".to_string(),
            churn: None,
            threads: 4,
            query_threads: 4,
            posting_cache_size: 128,
            wal_dir: None,
            wal_segment_bytes: 4 << 20,
            wal_checkpoint_interval_s: 300.0,
            wal_fsync: "batch".to_string(),
            slow_query_ms: 0.0,
            wal_fetch_rate_per_s: 200.0,
            wal_fetch_burst: 50.0,
            qfe: QfeSettings::default(),
            http: HttpSettings::default(),
            alerting: AlertingSettings::default(),
            obs: ObsSettings::default(),
            meta: MetaSettings::default(),
            stream: StreamSettings::default(),
            failover: FailoverSettings::default(),
        }
    }
}

impl CeemsConfig {
    /// Parses the single-file YAML configuration; unset keys keep defaults.
    pub fn from_yaml(text: &str) -> Result<CeemsConfig, String> {
        let doc = parse(text).map_err(|e| e.to_string())?;
        let mut cfg = CeemsConfig::default();

        if let Some(c) = doc.get("cluster") {
            let mut spec = ClusterSpec::small();
            let get = |k: &str, default: usize| -> usize {
                c.get(k).and_then(Yaml::as_i64).map(|v| v as usize).unwrap_or(default)
            };
            spec.intel_nodes = get("intel_nodes", spec.intel_nodes);
            spec.amd_nodes = get("amd_nodes", spec.amd_nodes);
            spec.v100_nodes = get("v100_nodes", spec.v100_nodes);
            spec.a100_nodes = get("a100_nodes", spec.a100_nodes);
            spec.h100_nodes = get("h100_nodes", spec.h100_nodes);
            if c.get("preset").and_then(Yaml::as_str) == Some("jean-zay") {
                spec = ClusterSpec::jean_zay();
            }
            cfg.cluster = spec;
            if let Some(seed) = c.get("seed").and_then(Yaml::as_i64) {
                cfg.seed = seed as u64;
            }
        }
        if let Some(t) = doc.get("tsdb") {
            if let Some(v) = t.get("scrape_interval_s").and_then(Yaml::as_f64) {
                cfg.scrape_interval_s = v;
            }
            if let Some(v) = t.get("rule_window") {
                // The window lands inside every `rate(…[window])`.
                let positive =
                    |w: &&str| matches!(lex(w).as_deref(), Ok([Token::Duration(ms)]) if *ms > 0);
                let Some(w) = v.as_str().filter(positive) else {
                    return Err(format!(
                        "bad tsdb.rule_window value {v:?} (expected a positive PromQL duration, e.g. 2m)"
                    ));
                };
                cfg.rule_window = w.to_string();
            }
            if let Some(v) = t.get("rule_interval_s").and_then(Yaml::as_f64) {
                cfg.rule_interval_s = v;
            }
            if let Some(v) = t.get("query_threads").and_then(Yaml::as_i64) {
                cfg.query_threads = (v as usize).max(1);
            }
            if let Some(v) = t.get("posting_cache_size").and_then(Yaml::as_i64) {
                cfg.posting_cache_size = (v.max(0)) as usize;
            }
            if let Some(v) = t.get("wal_dir").and_then(Yaml::as_str) {
                cfg.wal_dir = Some(v.to_string());
            }
            if let Some(v) = t.get("wal_segment_bytes").and_then(Yaml::as_i64) {
                cfg.wal_segment_bytes = v.max(1) as u64;
            }
            if let Some(v) = t.get("wal_checkpoint_interval_s").and_then(Yaml::as_f64) {
                cfg.wal_checkpoint_interval_s = v;
            }
            if let Some(v) = t.get("slow_query_ms").and_then(Yaml::as_f64) {
                cfg.slow_query_ms = v;
            }
            if let Some(v) = t.get("wal_fsync").and_then(Yaml::as_str) {
                if ceems_tsdb::FsyncMode::parse(v).is_none() {
                    return Err(format!(
                        "bad tsdb.wal_fsync value {v:?} (expected always|batch|never)"
                    ));
                }
                cfg.wal_fsync = v.to_string();
            }
            if let Some(v) = t.get("wal_fetch_rate_per_s").and_then(Yaml::as_f64) {
                cfg.wal_fetch_rate_per_s = v.max(0.001);
            }
            if let Some(v) = t.get("wal_fetch_burst").and_then(Yaml::as_f64) {
                cfg.wal_fetch_burst = v.max(1.0);
            }
        }
        if let Some(q) = doc.get("qfe") {
            if let Some(v) = q.get("split_interval_s").and_then(Yaml::as_f64) {
                if v <= 0.0 {
                    return Err(format!("qfe.split_interval_s must be positive, got {v}"));
                }
                cfg.qfe.split_interval_s = v;
            }
            if let Some(v) = q.get("cache_bytes").and_then(Yaml::as_i64) {
                cfg.qfe.cache_bytes = v.max(0) as usize;
            }
            if let Some(v) = q.get("recent_window_s").and_then(Yaml::as_f64) {
                cfg.qfe.recent_window_s = v.max(0.0);
            }
            if let Some(v) = q.get("tenant_queue_depth").and_then(Yaml::as_i64) {
                cfg.qfe.tenant_queue_depth = (v as usize).max(1);
            }
            if let Some(v) = q.get("max_tenant_concurrency").and_then(Yaml::as_i64) {
                cfg.qfe.max_tenant_concurrency = (v as usize).max(1);
            }
            if let Some(v) = q.get("max_stale_s").and_then(Yaml::as_f64) {
                if v < 0.0 {
                    return Err(format!("qfe.max_stale_s must be non-negative, got {v}"));
                }
                cfg.qfe.max_stale_s = v;
            }
        }
        if let Some(a) = doc.get("api_server") {
            if let Some(v) = a.get("update_interval_s").and_then(Yaml::as_f64) {
                cfg.updater_interval_s = v;
            }
            if let Some(v) = a.get("cleanup_cutoff_s").and_then(Yaml::as_f64) {
                cfg.cleanup_cutoff_s = v;
            }
            if let Some(admins) = a.get("admin_users").and_then(Yaml::as_seq) {
                cfg.admin_users = admins
                    .iter()
                    .filter_map(|y| y.as_str().map(str::to_string))
                    .collect();
            }
        }
        if let Some(e) = doc.get("emissions") {
            if let Some(v) = e.get("zone").and_then(Yaml::as_str) {
                cfg.zone = v.to_string();
            }
            if let Some(ps) = e.get("providers").and_then(Yaml::as_seq) {
                cfg.emission_providers = ps
                    .iter()
                    .filter_map(|y| y.as_str().map(str::to_string))
                    .collect();
            }
        }
        if let Some(l) = doc.get("lb") {
            if let Some(v) = l.get("strategy").and_then(Yaml::as_str) {
                match v {
                    "round_robin" | "least_connection" => cfg.lb_strategy = v.to_string(),
                    other => return Err(format!("unknown lb strategy {other:?}")),
                }
            }
        }
        if let Some(c) = doc.get("churn") {
            cfg.churn = Some(ChurnSettings {
                users: c.get("users").and_then(Yaml::as_i64).unwrap_or(20) as usize,
                projects: c.get("projects").and_then(Yaml::as_i64).unwrap_or(5) as usize,
                arrivals_per_hour: c
                    .get("arrivals_per_hour")
                    .and_then(Yaml::as_f64)
                    .unwrap_or(100.0),
            });
        }
        if let Some(h) = doc.get("http") {
            if let Some(v) = h.get("max_connections").and_then(Yaml::as_i64) {
                cfg.http.max_connections = (v as usize).max(1);
            }
            if let Some(v) = h.get("idle_timeout_s").and_then(Yaml::as_f64) {
                if v <= 0.0 {
                    return Err(format!("http.idle_timeout_s must be positive, got {v}"));
                }
                cfg.http.idle_timeout_s = v;
            }
            if let Some(v) = h.get("reactor_threads").and_then(Yaml::as_i64) {
                cfg.http.reactor_threads = (v as usize).clamp(1, 64);
            }
            if let Some(v) = h.get("pool_per_host").and_then(Yaml::as_i64) {
                cfg.http.pool_per_host = v.max(0) as usize;
            }
            if let Some(v) = h.get("backlog").and_then(Yaml::as_i64) {
                cfg.http.backlog = (v as i32).max(1);
            }
        }
        if let Some(a) = doc.get("alerting") {
            cfg.alerting.enabled = a.get("enabled").and_then(Yaml::as_bool).unwrap_or(true);
            if let Some(v) = a.get("eval_interval_s").and_then(Yaml::as_f64) {
                if v <= 0.0 {
                    return Err(format!(
                        "alerting.eval_interval_s must be positive, got {v}"
                    ));
                }
                cfg.alerting.eval_interval_s = v;
            }
            if let Some(v) = a.get("group_wait_s").and_then(Yaml::as_f64) {
                cfg.alerting.group_wait_s = v.max(0.0);
            }
            if let Some(v) = a.get("group_interval_s").and_then(Yaml::as_f64) {
                cfg.alerting.group_interval_s = v.max(0.0);
            }
            if let Some(v) = a.get("repeat_interval_s").and_then(Yaml::as_f64) {
                cfg.alerting.repeat_interval_s = v.max(0.0);
            }
            if let Some(v) = a.get("resolved_retention_s").and_then(Yaml::as_f64) {
                cfg.alerting.resolved_retention_s = v.max(0.0);
            }
            if let Some(v) = a.get("webhook_url").and_then(Yaml::as_str) {
                cfg.alerting.webhook_url = Some(v.to_string());
            }
            if let Some(v) = a.get("energy_budget_watts").and_then(Yaml::as_f64) {
                cfg.alerting.energy_budget_watts = v;
            }
            if let Some(v) = a.get("energy_budget_for_s").and_then(Yaml::as_f64) {
                cfg.alerting.energy_budget_for_s = v.max(0.0);
            }
            if let Some(v) = a.get("factor_max_age_s").and_then(Yaml::as_f64) {
                cfg.alerting.factor_max_age_s = v;
            }
            if let Some(v) = a.get("node_power_max_watts").and_then(Yaml::as_f64) {
                cfg.alerting.node_power_max_watts = v;
            }
            if let Some(v) = a.get("wal_lag_max_records").and_then(Yaml::as_f64) {
                cfg.alerting.wal_lag_max_records = v;
            }
        }
        if let Some(o) = doc.get("obs") {
            if let Some(v) = o.get("trace_sample_rate").and_then(Yaml::as_f64) {
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!(
                        "obs.trace_sample_rate must be in [0, 1], got {v}"
                    ));
                }
                cfg.obs.trace_sample_rate = v;
            }
            if let Some(Yaml::Map(rates)) = o.get("tenant_sample_rates") {
                for (tenant, rate) in rates {
                    let v = rate.as_f64().ok_or_else(|| {
                        format!("obs.tenant_sample_rates.{tenant} must be a number")
                    })?;
                    if !(0.0..=1.0).contains(&v) {
                        return Err(format!(
                            "obs.tenant_sample_rates.{tenant} must be in [0, 1], got {v}"
                        ));
                    }
                    cfg.obs.tenant_sample_rates.insert(tenant.clone(), v);
                }
            }
            if let Some(v) = o.get("trace_slow_ms").and_then(Yaml::as_f64) {
                cfg.obs.trace_slow_ms = v;
            }
            if let Some(v) = o.get("trace_store_max_bytes").and_then(Yaml::as_i64) {
                cfg.obs.trace_store_max_bytes = v.max(1) as u64;
            }
            if let Some(v) = o.get("trace_store_max_age_s").and_then(Yaml::as_f64) {
                cfg.obs.trace_store_max_age_s = v;
            }
        }
        if let Some(m) = doc.get("meta") {
            cfg.meta.enabled = m.get("enabled").and_then(Yaml::as_bool).unwrap_or(true);
            if let Some(v) = m.get("scrape_interval_s").and_then(Yaml::as_f64) {
                if v <= 0.0 {
                    return Err(format!(
                        "meta.scrape_interval_s must be positive, got {v}"
                    ));
                }
                cfg.meta.scrape_interval_s = v;
            }
            if let Some(v) = m.get("stale_after_s").and_then(Yaml::as_f64) {
                cfg.meta.stale_after_s = v.max(0.0);
            }
            if let Some(v) = m.get("breaker_storm_opens").and_then(Yaml::as_f64) {
                cfg.meta.breaker_storm_opens = v.max(0.0);
            }
        }
        if let Some(s) = doc.get("stream") {
            cfg.stream.enabled = s.get("enabled").and_then(Yaml::as_bool).unwrap_or(true);
            if let Some(v) = s.get("topic").and_then(Yaml::as_str) {
                if v.is_empty() {
                    return Err("stream.topic must be non-empty".to_string());
                }
                cfg.stream.topic = v.to_string();
            }
            if let Some(v) = s.get("ring_capacity").and_then(Yaml::as_i64) {
                if v <= 0 {
                    return Err(format!("stream.ring_capacity must be positive, got {v}"));
                }
                cfg.stream.ring_capacity = v as usize;
            }
            if let Some(v) = s.get("max_subscribers_per_tenant").and_then(Yaml::as_i64) {
                cfg.stream.max_subscribers_per_tenant = v.max(0) as usize;
            }
            if let Some(v) = s.get("max_live_per_tenant").and_then(Yaml::as_i64) {
                cfg.stream.max_live_per_tenant = v.max(0) as usize;
            }
        }
        if let Some(f) = doc.get("failover") {
            cfg.failover.enabled = f.get("enabled").and_then(Yaml::as_bool).unwrap_or(true);
            if let Some(v) = f.get("replicas").and_then(Yaml::as_i64) {
                if v < 2 {
                    return Err(format!(
                        "failover.replicas must be at least 2, got {v}"
                    ));
                }
                cfg.failover.replicas = v as usize;
            }
            if let Some(v) = f.get("probe_interval_s").and_then(Yaml::as_f64) {
                if v <= 0.0 {
                    return Err(format!(
                        "failover.probe_interval_s must be positive, got {v}"
                    ));
                }
                cfg.failover.probe_interval_s = v;
            }
            if let Some(v) = f.get("election_timeout_s").and_then(Yaml::as_f64) {
                if v <= 0.0 {
                    return Err(format!(
                        "failover.election_timeout_s must be positive, got {v}"
                    ));
                }
                cfg.failover.election_timeout_s = v;
            }
            if cfg.failover.election_timeout_s < cfg.failover.probe_interval_s {
                return Err(format!(
                    "failover.election_timeout_s ({}) must be at least probe_interval_s ({})",
                    cfg.failover.election_timeout_s, cfg.failover.probe_interval_s
                ));
            }
            if let Some(v) = f.get("min_catchup_records").and_then(Yaml::as_i64) {
                cfg.failover.min_catchup_records = v.max(0) as u64;
            }
        }
        if let Some(v) = doc.get("threads").and_then(Yaml::as_i64) {
            cfg.threads = (v as usize).max(1);
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = CeemsConfig::default();
        assert_eq!(c.scrape_interval_s, 15.0);
        assert_eq!(c.zone, "FR");
        assert!(c.churn.is_none());
    }

    #[test]
    fn parse_full_config() {
        let text = "\
cluster:
  intel_nodes: 2
  amd_nodes: 1
  v100_nodes: 0
  a100_nodes: 1
  h100_nodes: 0
  seed: 7
tsdb:
  scrape_interval_s: 30
  rule_window: 1m
  rule_interval_s: 60
  query_threads: 6
  posting_cache_size: 0
  slow_query_ms: 250
api_server:
  update_interval_s: 120
  cleanup_cutoff_s: 300
  admin_users:
    - root
    - ops
emissions:
  zone: DE
  providers:
    - emaps
    - owid
lb:
  strategy: least_connection
qfe:
  split_interval_s: 43200
  cache_bytes: 1048576
  recent_window_s: 120
  tenant_queue_depth: 8
  max_tenant_concurrency: 2
churn:
  users: 50
  projects: 10
  arrivals_per_hour: 200
threads: 8
";
        let c = CeemsConfig::from_yaml(text).unwrap();
        assert_eq!(c.cluster.intel_nodes, 2);
        assert_eq!(c.cluster.total_nodes(), 4);
        assert_eq!(c.seed, 7);
        assert_eq!(c.scrape_interval_s, 30.0);
        assert_eq!(c.rule_window, "1m");
        assert_eq!(c.updater_interval_s, 120.0);
        assert_eq!(c.cleanup_cutoff_s, 300.0);
        assert_eq!(c.admin_users, vec!["root", "ops"]);
        assert_eq!(c.zone, "DE");
        assert_eq!(c.emission_providers, vec!["emaps", "owid"]);
        assert_eq!(c.lb_strategy, "least_connection");
        assert_eq!(c.churn.as_ref().unwrap().users, 50);
        assert_eq!(c.threads, 8);
        assert_eq!(c.query_threads, 6);
        assert_eq!(c.posting_cache_size, 0);
        assert_eq!(c.slow_query_ms, 250.0);
        assert_eq!(c.qfe.split_interval_s, 43_200.0);
        assert_eq!(c.qfe.cache_bytes, 1 << 20);
        assert_eq!(c.qfe.recent_window_s, 120.0);
        assert_eq!(c.qfe.tenant_queue_depth, 8);
        assert_eq!(c.qfe.max_tenant_concurrency, 2);
    }

    #[test]
    fn qfe_defaults_and_floors() {
        let c = CeemsConfig::from_yaml("").unwrap();
        assert_eq!(c.qfe.split_interval_s, 86_400.0);
        assert_eq!(c.qfe.cache_bytes, 64 << 20);
        let c = CeemsConfig::from_yaml(
            "qfe:\n  tenant_queue_depth: 0\n  max_tenant_concurrency: 0\n  cache_bytes: -5\n",
        )
        .unwrap();
        assert_eq!(c.qfe.tenant_queue_depth, 1);
        assert_eq!(c.qfe.max_tenant_concurrency, 1);
        assert_eq!(c.qfe.cache_bytes, 0);
        assert!(CeemsConfig::from_yaml("qfe:\n  split_interval_s: 0\n").is_err());
    }

    #[test]
    fn alerting_section_parses_with_floors() {
        let c = CeemsConfig::from_yaml("").unwrap();
        assert!(!c.alerting.enabled);
        assert_eq!(c.alerting.eval_interval_s, 30.0);

        let text = "\
alerting:
  eval_interval_s: 10
  group_wait_s: 5
  group_interval_s: 30
  repeat_interval_s: 600
  webhook_url: http://127.0.0.1:9093/hook
  energy_budget_watts: 900
  energy_budget_for_s: 60
  factor_max_age_s: 900
  node_power_max_watts: 1500
  wal_lag_max_records: 200
";
        let c = CeemsConfig::from_yaml(text).unwrap();
        // Presence of the section enables the service.
        assert!(c.alerting.enabled);
        assert_eq!(c.alerting.eval_interval_s, 10.0);
        assert_eq!(c.alerting.group_wait_s, 5.0);
        assert_eq!(
            c.alerting.webhook_url.as_deref(),
            Some("http://127.0.0.1:9093/hook")
        );
        assert_eq!(c.alerting.energy_budget_watts, 900.0);
        assert_eq!(c.alerting.wal_lag_max_records, 200.0);

        let c = CeemsConfig::from_yaml("alerting:\n  enabled: false\n  group_wait_s: -3\n")
            .unwrap();
        assert!(!c.alerting.enabled);
        assert_eq!(c.alerting.group_wait_s, 0.0);
        assert!(CeemsConfig::from_yaml("alerting:\n  eval_interval_s: 0\n").is_err());
    }

    #[test]
    fn obs_and_meta_sections_parse() {
        let c = CeemsConfig::from_yaml("").unwrap();
        assert_eq!(c.obs.trace_sample_rate, 0.1);
        assert_eq!(c.obs.trace_slow_ms, 250.0);
        assert_eq!(c.obs.trace_store_max_bytes, 4 << 20);
        assert_eq!(c.obs.trace_store_max_age_s, 3600.0);
        assert!(!c.meta.enabled);
        assert_eq!(c.meta.scrape_interval_s, 30.0);

        let text = "\
obs:
  trace_sample_rate: 0.5
  trace_slow_ms: 100
  trace_store_max_bytes: 1048576
  trace_store_max_age_s: 600
meta:
  scrape_interval_s: 15
  stale_after_s: 45
  breaker_storm_opens: 5
";
        let c = CeemsConfig::from_yaml(text).unwrap();
        assert_eq!(c.obs.trace_sample_rate, 0.5);
        assert_eq!(c.obs.trace_slow_ms, 100.0);
        assert_eq!(c.obs.trace_store_max_bytes, 1 << 20);
        assert_eq!(c.obs.trace_store_max_age_s, 600.0);
        // Presence of the section enables meta-monitoring.
        assert!(c.meta.enabled);
        assert_eq!(c.meta.scrape_interval_s, 15.0);
        assert_eq!(c.meta.stale_after_s, 45.0);
        assert_eq!(c.meta.breaker_storm_opens, 5.0);

        let c = CeemsConfig::from_yaml("meta:\n  enabled: false\n").unwrap();
        assert!(!c.meta.enabled);
        assert!(CeemsConfig::from_yaml("obs:\n  trace_sample_rate: 1.5\n").is_err());
        assert!(CeemsConfig::from_yaml("meta:\n  scrape_interval_s: 0\n").is_err());
    }

    #[test]
    fn obs_tenant_sample_rate_overrides_parse() {
        let c = CeemsConfig::from_yaml("").unwrap();
        assert!(c.obs.tenant_sample_rates.is_empty());

        let text = "\
obs:
  trace_sample_rate: 0.1
  tenant_sample_rates:
    prj-alpha: 1.0
    prj-beta: 0.02
";
        let c = CeemsConfig::from_yaml(text).unwrap();
        assert_eq!(c.obs.tenant_sample_rates.get("prj-alpha"), Some(&1.0));
        assert_eq!(c.obs.tenant_sample_rates.get("prj-beta"), Some(&0.02));
        assert_eq!(c.obs.tenant_sample_rates.len(), 2);

        assert!(CeemsConfig::from_yaml(
            "obs:\n  tenant_sample_rates:\n    prj-x: 2.0\n"
        )
        .is_err());
        assert!(CeemsConfig::from_yaml(
            "obs:\n  tenant_sample_rates:\n    prj-x: nope\n"
        )
        .is_err());
    }

    #[test]
    fn stream_section_parses_with_presence_enabling() {
        let c = CeemsConfig::from_yaml("").unwrap();
        assert!(!c.stream.enabled);
        assert_eq!(c.stream.topic, "node-metrics");
        assert_eq!(c.stream.ring_capacity, 256);
        assert_eq!(c.stream.max_subscribers_per_tenant, 64);
        assert_eq!(c.stream.max_live_per_tenant, 16);

        let text = "\
stream:
  topic: gpu-metrics
  ring_capacity: 512
  max_subscribers_per_tenant: 8
  max_live_per_tenant: 4
";
        let c = CeemsConfig::from_yaml(text).unwrap();
        // Presence of the section enables streaming.
        assert!(c.stream.enabled);
        assert_eq!(c.stream.topic, "gpu-metrics");
        assert_eq!(c.stream.ring_capacity, 512);
        assert_eq!(c.stream.max_subscribers_per_tenant, 8);
        assert_eq!(c.stream.max_live_per_tenant, 4);

        let c = CeemsConfig::from_yaml("stream:\n  enabled: false\n").unwrap();
        assert!(!c.stream.enabled);
        assert!(CeemsConfig::from_yaml("stream:\n  ring_capacity: 0\n").is_err());
        assert!(CeemsConfig::from_yaml("stream:\n  topic: \"\"\n").is_err());
    }

    #[test]
    fn failover_section_parses_with_presence_enabling() {
        let c = CeemsConfig::from_yaml("").unwrap();
        assert!(!c.failover.enabled);
        assert_eq!(c.failover.replicas, 3);
        assert_eq!(c.failover.probe_interval_s, 1.0);
        assert_eq!(c.failover.election_timeout_s, 3.0);
        assert_eq!(c.failover.min_catchup_records, u64::MAX);

        let text = "\
failover:
  replicas: 5
  probe_interval_s: 0.5
  election_timeout_s: 2
  min_catchup_records: 100
";
        let c = CeemsConfig::from_yaml(text).unwrap();
        // Presence of the section enables failover.
        assert!(c.failover.enabled);
        assert_eq!(c.failover.replicas, 5);
        assert_eq!(c.failover.probe_interval_s, 0.5);
        assert_eq!(c.failover.election_timeout_s, 2.0);
        assert_eq!(c.failover.min_catchup_records, 100);
        let fc = c.failover.failover_config();
        assert_eq!(fc.probe_interval_ms, 500);
        assert_eq!(fc.election_timeout_ms, 2_000);
        assert_eq!(fc.min_catchup_records, 100);

        let c = CeemsConfig::from_yaml("failover:\n  enabled: false\n").unwrap();
        assert!(!c.failover.enabled);
        assert!(CeemsConfig::from_yaml("failover:\n  replicas: 1\n").is_err());
        assert!(CeemsConfig::from_yaml("failover:\n  probe_interval_s: 0\n").is_err());
        assert!(CeemsConfig::from_yaml("failover:\n  election_timeout_s: 0\n").is_err());
        assert!(
            CeemsConfig::from_yaml(
                "failover:\n  probe_interval_s: 5\n  election_timeout_s: 2\n"
            )
            .is_err(),
            "election timeout shorter than the probe interval must be rejected"
        );
    }

    #[test]
    fn qfe_max_stale_parses_with_zero_meaning_unbounded() {
        let c = CeemsConfig::from_yaml("").unwrap();
        assert_eq!(c.qfe.max_stale_s, 0.0);
        let c = CeemsConfig::from_yaml("qfe:\n  max_stale_s: 900\n").unwrap();
        assert_eq!(c.qfe.max_stale_s, 900.0);
        assert!(CeemsConfig::from_yaml("qfe:\n  max_stale_s: -1\n").is_err());
    }

    #[test]
    fn query_threads_floor_is_one() {
        let c = CeemsConfig::from_yaml("tsdb:\n  query_threads: 0\n").unwrap();
        assert_eq!(c.query_threads, 1);
        assert_eq!(c.posting_cache_size, CeemsConfig::default().posting_cache_size);
    }

    #[test]
    fn http_section_parses_and_builds_server_config() {
        let text = "\
http:
  max_connections: 20000
  idle_timeout_s: 15
  reactor_threads: 4
  pool_per_host: 16
  backlog: 2048
";
        let c = CeemsConfig::from_yaml(text).unwrap();
        assert_eq!(c.http.max_connections, 20_000);
        assert_eq!(c.http.idle_timeout_s, 15.0);
        assert_eq!(c.http.reactor_threads, 4);
        assert_eq!(c.http.pool_per_host, 16);
        assert_eq!(c.http.backlog, 2048);
        let sc = c.http.server_config();
        assert_eq!(sc.max_connections, 20_000);
        assert_eq!(sc.idle_timeout, std::time::Duration::from_secs(15));
        assert_eq!(sc.backlog, 2048);
    }

    #[test]
    fn http_defaults_and_floors() {
        let c = CeemsConfig::from_yaml("").unwrap();
        let sc = ceems_http::ServerConfig::default();
        assert_eq!(c.http.max_connections, sc.max_connections);
        assert_eq!(c.http.reactor_threads, 2);
        assert_eq!(c.http.backlog, sc.backlog);
        assert_eq!(c.http.pool_per_host, ceems_http::pool::DEFAULT_POOL_PER_HOST);

        let c = CeemsConfig::from_yaml(
            "http:\n  max_connections: 0\n  reactor_threads: 0\n  backlog: -1\n  pool_per_host: -3\n",
        )
        .unwrap();
        assert_eq!(c.http.max_connections, 1);
        assert_eq!(c.http.reactor_threads, 1);
        assert_eq!(c.http.backlog, 1);
        assert_eq!(c.http.pool_per_host, 0, "negative pool size clamps to disabled");
        assert!(CeemsConfig::from_yaml("http:\n  idle_timeout_s: 0\n").is_err());
    }

    #[test]
    fn jean_zay_preset() {
        let c = CeemsConfig::from_yaml("cluster:\n  preset: jean-zay\n").unwrap();
        assert_eq!(c.cluster.total_nodes(), 1400);
    }

    #[test]
    fn bad_strategy_rejected() {
        assert!(CeemsConfig::from_yaml("lb:\n  strategy: random\n").is_err());
    }

    #[test]
    fn bad_rule_window_rejected() {
        for bad in ["abc", "0s", "2m]", "-1m", "5"] {
            let err = CeemsConfig::from_yaml(&format!("tsdb:\n  rule_window: {bad}\n"));
            assert!(err.unwrap_err().contains("tsdb.rule_window"), "{bad}");
        }
        let c = CeemsConfig::from_yaml("tsdb:\n  rule_window: 90s\n").unwrap();
        assert_eq!(c.rule_window, "90s");
    }

    #[test]
    fn empty_config_is_default() {
        let c = CeemsConfig::from_yaml("").unwrap();
        assert_eq!(c.scrape_interval_s, CeemsConfig::default().scrape_interval_s);
    }
}
