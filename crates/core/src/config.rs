//! Typed configuration for the whole stack, loadable from one YAML file
//! (§II.D: "All the CEEMS components can be configured in a single YAML
//! file where each component will read its relevant configuration").

use std::collections::BTreeMap;

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
    /// Oldest cached answer (s) served while every replica is down; 0 (the default): any.
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

/// The `failover:` YAML section (S24): `replicas` TSDB nodes under a
/// [`ceems_tsdb::ReplicationGroup`], epoch-fenced writes, deterministic elections.
#[derive(Clone, Debug)]
pub struct FailoverSettings {
    /// Master switch; presence of the `failover:` section enables it.
    pub enabled: bool,
    /// TSDB nodes in the replication group (one leader + followers).
    pub replicas: usize,
    /// Leader liveness probe interval (seconds).
    pub probe_interval_s: f64,
    /// Missed-probe window (seconds) before the leader is deposed and an election runs.
    pub election_timeout_s: f64,
    /// Most WAL records a winner may lag the dead leader; `u64::MAX` (the default): any.
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
    /// Open-connection cap per server; accepts beyond it are shed.
    pub max_connections: usize,
    /// Keep-alive connections idle for longer than this are closed (s).
    pub idle_timeout_s: f64,
    /// Not read: a server runs only its `workers` threads (S20). The YAML key is still accepted.
    pub reactor_threads: usize,
    /// Idle keep-alive connections a client pools per host; 0 disables reuse.
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

/// The `alerting:` YAML section (`ceems-alertsrv`): evaluation cadence, group
/// timers, delivery target and the rule packs' thresholds (≤ 0 turns a pack off).
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
    /// Emission-factor age bound (seconds) of the factor-source-down pack.
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
    /// Head-sampling probability in `[0, 1]`, decided on the trace ID's hash; 0 disables.
    pub trace_sample_rate: f64,
    /// Per-tenant overrides of `trace_sample_rate` (`__ceems_meta__` is pinned to 1.0).
    pub tenant_sample_rates: std::collections::BTreeMap<String, f64>,
    /// Tail capture: traces slower than this (ms) are stored; non-positive disables.
    pub trace_slow_ms: f64,
    /// Byte bound of the trace ring buffer; oldest spans are evicted first.
    pub trace_store_max_bytes: u64,
    /// Age bound (seconds) of stored spans, swept on `advance`; non-positive disables.
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

/// The `stream:` YAML section (S23): exporters push renders over the streaming
/// bus, rules re-evaluate incrementally, and `query_live` is served.
#[derive(Clone, Debug)]
pub struct StreamSettings {
    /// Master switch; presence of the `stream:` section enables it.
    pub enabled: bool,
    /// Topic exporter renders are published on.
    pub topic: String,
    /// Not read: the bus keeps no replay ring (S23). The YAML key is still accepted.
    pub ring_capacity: usize,
    /// Not read: the bus serves no raw-frame subscribers (S23). The YAML key is still accepted.
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

/// The `meta:` YAML section (S22): the stack scrapes its components' own
/// `/metrics` into the reserved `__ceems_meta__` tenant of its TSDB.
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

impl Default for ChurnSettings {
    fn default() -> Self {
        ChurnSettings { users: 20, projects: 5, arrivals_per_hour: 100.0 }
    }
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
    /// §II.C cleanup: purge series of units shorter than this (seconds); 0 disables.
    pub cleanup_cutoff_s: f64,
    /// Country/zone for emission factors.
    pub zone: String,
    /// Emission providers in priority order (`rte`, `emaps`, `owid`).
    pub emission_providers: Vec<String>,
    /// Operators allowed unscoped queries.
    pub admin_users: Vec<String>,
    /// LB strategy: `round_robin` or `least_connection`.
    pub lb_strategy: String,
    /// Churn generation; `None` means jobs are submitted manually.
    pub churn: Option<ChurnSettings>,
    /// Workers that step the nodes and run an ingest pass (`ceems_tsdb::fan_out`).
    pub threads: usize,
    /// Workers for rule groups evaluated side by side (1: in order on the calling thread).
    pub query_threads: usize,
    /// Not read: a select resolves on the TSDB's live index every time. The YAML key is still accepted.
    pub posting_cache_size: usize,
    /// WAL directory of the hot TSDB; `None` (the default) keeps the head in memory only.
    pub wal_dir: Option<String>,
    /// WAL segment rotation size in bytes.
    pub wal_segment_bytes: u64,
    /// Seconds between WAL checkpoints (covered segments are GC'd).
    pub wal_checkpoint_interval_s: f64,
    /// WAL fsync policy: `always`, `batch`, or `never`.
    pub wal_fsync: String,
    /// Slow-query log threshold (ms); non-positive (the default) disables the log.
    pub slow_query_ms: f64,
    /// Sustained `/api/v1/wal/fetch` rate allowed per follower (req/s).
    pub wal_fetch_rate_per_s: f64,
    /// Token-bucket burst for `/api/v1/wal/fetch`.
    pub wal_fetch_burst: f64,
    /// Query-frontend settings (a frontend runs only when one is served explicitly).
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

/// One configuration key: where it sits in the YAML, the field it sets,
/// what its value must satisfy, and what it does.
struct Key {
    path: &'static str,
    slot: Slot,
    check: Check,
    doc: &'static str,
}

/// Rows of [`KEYS`]: `"section.key" => Kind(field), check, "doc";`, where
/// `field` is a place in the config `c` and `Kind` a [`Slot`] variant.
macro_rules! keys {
    ($c:ident; $($path:literal => $kind:ident($field:expr), $check:expr, $doc:literal;)*) => {
        &[$(Key { path: $path, slot: Slot::$kind(|$c| &mut $field), check: $check, doc: $doc }),*]
    };
}

/// Every key the configuration file may hold, in the order the example
/// prints them. Defaults live in the `Default` impls and are read from there.
#[rustfmt::skip]
static KEYS: &[Key] = {
    use Check::*;
    keys![c;
    "threads" => Count(c.threads), Floor(1.0), "workers that step the nodes and run an ingest pass";
    "cluster.preset" => Preset(c.cluster), OneOf(&["jean-zay"]), "a named fleet instead of the node counts";
    "cluster.intel_nodes" => Count(c.cluster.intel_nodes), AtLeast(0.0), "Intel CPU-only nodes";
    "cluster.amd_nodes" => Count(c.cluster.amd_nodes), AtLeast(0.0), "AMD CPU-only nodes";
    "cluster.v100_nodes" => Count(c.cluster.v100_nodes), AtLeast(0.0), "4×V100 nodes (IPMI includes GPU power)";
    "cluster.a100_nodes" => Count(c.cluster.a100_nodes), AtLeast(0.0), "8×A100 nodes (IPMI excludes GPU power)";
    "cluster.h100_nodes" => Count(c.cluster.h100_nodes), AtLeast(0.0), "4×H100 nodes (IPMI includes GPU power)";
    "cluster.seed" => U64(c.seed), AtLeast(0.0), "RNG seed of the whole simulation";
    "tsdb.scrape_interval_s" => Num(c.scrape_interval_s), Positive, "exporter scrape interval (s)";
    "tsdb.rule_window" => Str(c.rule_window), Duration, "`rate()` window of the Eq. (1) recording rules";
    "tsdb.rule_interval_s" => Num(c.rule_interval_s), Positive, "recording-rule evaluation interval (s)";
    "tsdb.query_threads" => Count(c.query_threads), Floor(1.0), "workers for rule groups evaluated side by side";
    "tsdb.posting_cache_size" => Count(c.posting_cache_size), Floor(0.0), "accepted so older files load: selects resolve on the index every time";
    "tsdb.wal_dir" => OptStr(c.wal_dir), Any, "write-ahead log directory; unset keeps the head in memory only";
    "tsdb.wal_segment_bytes" => U64(c.wal_segment_bytes), Floor(1.0), "WAL segment rotation size (bytes)";
    "tsdb.wal_checkpoint_interval_s" => Num(c.wal_checkpoint_interval_s), Positive, "interval between WAL checkpoints (s)";
    "tsdb.wal_fsync" => Str(c.wal_fsync), OneOf(&["always", "batch", "never"]), "when the WAL syncs to disk";
    "tsdb.wal_fetch_rate_per_s" => Num(c.wal_fetch_rate_per_s), Floor(0.001), "`/api/v1/wal/fetch` requests/s allowed per follower";
    "tsdb.wal_fetch_burst" => Num(c.wal_fetch_burst), Floor(1.0), "token-bucket burst of the same limiter";
    "tsdb.slow_query_ms" => Num(c.slow_query_ms), Any, "slow-query log threshold (ms); ≤ 0 disables the log";
    "api_server.update_interval_s" => Num(c.updater_interval_s), Positive, "updater poll interval (s)";
    "api_server.cleanup_cutoff_s" => Num(c.cleanup_cutoff_s), Any, "purge TSDB series of units shorter than this (s); 0 disables";
    "api_server.admin_users" => List(c.admin_users), Any, "users allowed unscoped queries";
    "emissions.zone" => Str(c.zone), Any, "country or zone of the emission factors";
    "emissions.providers" => List(c.emission_providers), OneOf(&["rte", "emaps", "owid"]), "emission providers, in priority order";
    "lb.strategy" => Str(c.lb_strategy), OneOf(&["round_robin", "least_connection"]), "how the load balancer picks a backend";
    "churn.users" => Count(c.churn.get_or_insert_with(Default::default).users), AtLeast(0.0), "distinct users submitting jobs";
    "churn.projects" => Count(c.churn.get_or_insert_with(Default::default).projects), AtLeast(0.0), "projects the jobs are charged to";
    "churn.arrivals_per_hour" => Num(c.churn.get_or_insert_with(Default::default).arrivals_per_hour), AtLeast(0.0), "mean job arrivals per simulated hour";
    "qfe.split_interval_s" => Num(c.qfe.split_interval_s), Positive, "range-splitting window (s)";
    "qfe.cache_bytes" => Count(c.qfe.cache_bytes), Floor(0.0), "results-cache budget (bytes); 0 disables caching";
    "qfe.recent_window_s" => Num(c.qfe.recent_window_s), Floor(0.0), "window before now that is never cached (s)";
    "qfe.tenant_queue_depth" => Count(c.qfe.tenant_queue_depth), Floor(1.0), "queries a tenant may queue before a 429";
    "qfe.max_tenant_concurrency" => Count(c.qfe.max_tenant_concurrency), Floor(1.0), "concurrent downstream queries per tenant";
    "qfe.max_stale_s" => Num(c.qfe.max_stale_s), AtLeast(0.0), "oldest cached answer served with every replica down (s); 0: any";
    "http.max_connections" => Count(c.http.max_connections), Floor(1.0), "open-connection cap per server";
    "http.idle_timeout_s" => Num(c.http.idle_timeout_s), Positive, "idle keep-alive connections close after this (s)";
    "http.reactor_threads" => Count(c.http.reactor_threads), Floor(1.0), "accepted so older files load: a server runs only its `workers` threads";
    "http.pool_per_host" => Count(c.http.pool_per_host), Floor(0.0), "idle keep-alive connections a client pools per host; 0 disables";
    "http.backlog" => I32(c.http.backlog), Floor(1.0), "listen(2) accept-queue depth";
    "alerting.enabled" => Bool(c.alerting.enabled), Any, "true when the section is present; false parses but disables";
    "alerting.eval_interval_s" => Num(c.alerting.eval_interval_s), Positive, "rule-evaluation interval (s)";
    "alerting.group_wait_s" => Num(c.alerting.group_wait_s), Floor(0.0), "delay before a new group's first notification (s)";
    "alerting.group_interval_s" => Num(c.alerting.group_interval_s), Floor(0.0), "minimum spacing of a changed group's notifications (s)";
    "alerting.repeat_interval_s" => Num(c.alerting.repeat_interval_s), Floor(0.0), "re-notification interval of an unchanged firing group (s)";
    "alerting.resolved_retention_s" => Num(c.alerting.resolved_retention_s), Floor(0.0), "how long resolved alerts are kept (s)";
    "alerting.webhook_url" => OptStr(c.alerting.webhook_url), Any, "webhook receiver; unset delivers to the log sink only";
    "alerting.energy_budget_watts" => Num(c.alerting.energy_budget_watts), Any, "ProjectEnergyBudgetExceeded: power bound per `uuid` (W); ≤ 0: off";
    "alerting.energy_budget_for_s" => Num(c.alerting.energy_budget_for_s), Floor(0.0), "`for:` hold of the energy-budget pack (s)";
    "alerting.factor_max_age_s" => Num(c.alerting.factor_max_age_s), Any, "EmissionFactorSourceDown: factor age bound (s); ≤ 0: off";
    "alerting.node_power_max_watts" => Num(c.alerting.node_power_max_watts), Any, "NodePowerAnomaly: power bound per node (W); ≤ 0: off";
    "alerting.wal_lag_max_records" => Num(c.alerting.wal_lag_max_records), Any, "ReplicaWalLagHigh: WAL lag bound (records); ≤ 0: off";
    "obs.trace_sample_rate" => Num(c.obs.trace_sample_rate), Unit, "head-sampling probability of a finished trace";
    "obs.tenant_sample_rates" => Rates(c.obs.tenant_sample_rates), Unit, "per-tenant overrides of that rate, `tenant: rate`";
    "obs.trace_slow_ms" => Num(c.obs.trace_slow_ms), Any, "traces slower than this are kept (ms); ≤ 0 disables";
    "obs.trace_store_max_bytes" => U64(c.obs.trace_store_max_bytes), Floor(1.0), "trace-store size bound; the oldest spans go first";
    "obs.trace_store_max_age_s" => Num(c.obs.trace_store_max_age_s), Any, "age bound of stored spans (s); ≤ 0 disables";
    "meta.enabled" => Bool(c.meta.enabled), Any, "true when the section is present; false parses but disables";
    "meta.scrape_interval_s" => Num(c.meta.scrape_interval_s), Positive, "self-scrape interval (s)";
    "meta.stale_after_s" => Num(c.meta.stale_after_s), Floor(0.0), "MetaScrapeStale threshold (s); 0: off";
    "meta.breaker_storm_opens" => Num(c.meta.breaker_storm_opens), Floor(0.0), "BreakerOpenStorm threshold (opens in 5 min); 0: off";
    "stream.enabled" => Bool(c.stream.enabled), Any, "true when the section is present; false parses but disables";
    "stream.topic" => Str(c.stream.topic), NonEmpty, "topic exporters publish to";
    "stream.ring_capacity" => Count(c.stream.ring_capacity), Positive, "accepted so older files load: the bus keeps no replay ring";
    "stream.max_subscribers_per_tenant" => Count(c.stream.max_subscribers_per_tenant), Floor(0.0), "accepted so older files load: the bus serves no raw-frame subscribers";
    "stream.max_live_per_tenant" => Count(c.stream.max_live_per_tenant), Floor(0.0), "`query_live` subscriptions per tenant";
    "failover.enabled" => Bool(c.failover.enabled), Any, "true when the section is present; false parses but disables";
    "failover.replicas" => Count(c.failover.replicas), AtLeast(2.0), "TSDB nodes in the replication group";
    "failover.probe_interval_s" => Num(c.failover.probe_interval_s), Positive, "leader liveness probe interval (s)";
    "failover.election_timeout_s" => Num(c.failover.election_timeout_s), Positive, "missed-probe window before an election (s); ≥ probe_interval_s";
    "failover.min_catchup_records" => U64(c.failover.min_catchup_records), Floor(0.0), "most WAL records a winner may lag the dead leader";
    ]
};

type Enable = fn(&mut CeemsConfig);

/// Sections whose presence turns their feature on (`enabled: false` turns it off).
const ENABLED_BY_PRESENCE: &[(&str, Enable)] = &[
    ("alerting", |c| c.alerting.enabled = true),
    ("meta", |c| c.meta.enabled = true),
    ("stream", |c| c.stream.enabled = true),
    ("failover", |c| c.failover.enabled = true),
    ("churn", |c| _ = c.churn.get_or_insert_with(Default::default)),
];

/// Keys still accepted, so older files load, that nothing reads.
const NO_EFFECT: &[&str] = &[
    "tsdb.posting_cache_size",
    "http.reactor_threads",
    "stream.ring_capacity",
    "stream.max_subscribers_per_tenant",
];

/// A typed accessor: the field of a config a key sets.
#[derive(Clone, Copy)]
enum Slot {
    Num(fn(&mut CeemsConfig) -> &mut f64),
    Count(fn(&mut CeemsConfig) -> &mut usize),
    U64(fn(&mut CeemsConfig) -> &mut u64),
    I32(fn(&mut CeemsConfig) -> &mut i32),
    Bool(fn(&mut CeemsConfig) -> &mut bool),
    Str(fn(&mut CeemsConfig) -> &mut String),
    OptStr(fn(&mut CeemsConfig) -> &mut Option<String>),
    List(fn(&mut CeemsConfig) -> &mut Vec<String>),
    /// A free-form mapping of names to numbers; each number is checked.
    Rates(fn(&mut CeemsConfig) -> &mut BTreeMap<String, f64>),
    /// `cluster.preset`: a named fleet replaces the node counts.
    Preset(fn(&mut CeemsConfig) -> &mut ClusterSpec),
}

/// A value as the example and the reference print it (a block: the YAML lines under its key).
enum Shown {
    Unset,
    Scalar(String),
    Block(Vec<String>),
}

impl Slot {
    /// Sets the field from `y`, or says what is wrong with `y`.
    fn set(self, c: &mut CeemsConfig, y: &Yaml, check: Check) -> Result<(), String> {
        match self {
            Slot::Num(f) => *f(c) = check.number(number(y)?)?,
            Slot::Count(f) => *f(c) = count(y, check)?.try_into().unwrap_or(usize::MAX),
            Slot::U64(f) => *f(c) = count(y, check)?.try_into().unwrap_or(u64::MAX),
            Slot::I32(f) => *f(c) = count(y, check)?.try_into().unwrap_or(i32::MAX),
            Slot::Bool(f) => *f(c) = y.as_bool().ok_or_else(|| expected("true or false", y))?,
            Slot::Str(f) => *f(c) = string(y, check)?,
            Slot::OptStr(f) => *f(c) = (*y != Yaml::Null).then(|| string(y, check)).transpose()?,
            Slot::List(f) => {
                let none = *y == Yaml::Null;
                let items = if none { &[] } else { y.as_seq().ok_or_else(|| expected("a list", y))? };
                *f(c) = items.iter().map(|item| string(item, check)).collect::<Result<_, _>>()?;
            }
            Slot::Rates(f) => {
                let rate = |(name, v): (&String, &Yaml)| match number(v).and_then(|v| check.number(v)) {
                    Ok(rate) => Ok((name.clone(), rate)),
                    Err(e) => Err(format!("{name} {e}")),
                };
                *f(c) = mapping(y, "")?.into_iter().flatten().map(rate).collect::<Result<_, _>>()?;
            }
            Slot::Preset(f) => *f(c) = string(y, check).map(|_| ClusterSpec::jean_zay())?,
        }
        Ok(())
    }

    /// The field's value in `c`.
    fn show(self, c: &mut CeemsConfig) -> Shown {
        match self {
            Slot::Num(f) => Shown::Scalar(f(c).to_string()),
            Slot::Count(f) => Shown::Scalar(f(c).to_string()),
            Slot::U64(f) => Shown::Scalar(f(c).to_string()),
            Slot::I32(f) => Shown::Scalar(f(c).to_string()),
            Slot::Bool(f) => Shown::Scalar(f(c).to_string()),
            Slot::Str(f) => Shown::Scalar(f(c).clone()),
            Slot::OptStr(f) => f(c).clone().map_or(Shown::Unset, Shown::Scalar),
            Slot::List(f) => Shown::Block(f(c).iter().map(|s| format!("- {s}")).collect()),
            Slot::Rates(f) => Shown::Block(f(c).iter().map(|(k, v)| format!("{k}: {v}")).collect()),
            Slot::Preset(_) => Shown::Unset,
        }
    }
}

/// What a key's value must satisfy. A floor moves a number into range;
/// every other rule refuses a value outside it.
#[derive(Clone, Copy)]
enum Check {
    Any,
    Positive,
    Unit,
    AtLeast(f64),
    Floor(f64),
    OneOf(&'static [&'static str]),
    NonEmpty,
    /// A positive PromQL duration (it lands inside `rate(…[window])`).
    Duration,
}

impl Check {
    /// `v` moved into range, or refused.
    fn number(self, v: f64) -> Result<f64, String> {
        let ok = match self {
            Check::Positive => v > 0.0,
            Check::Unit => (0.0..=1.0).contains(&v),
            Check::AtLeast(min) => v >= min,
            Check::Floor(min) => return Ok(v.max(min)),
            _ => true,
        };
        ok.then_some(v).ok_or_else(|| format!("must be {}, got {v}", self.rule()))
    }

    /// `s`, or why it is refused.
    fn text(self, s: &str) -> Result<String, String> {
        let ok = match self {
            Check::OneOf(options) => options.contains(&s),
            Check::NonEmpty => !s.is_empty(),
            Check::Duration => matches!(lex(s).as_deref(), Ok([Token::Duration(ms)]) if *ms > 0),
            _ => true,
        };
        ok.then(|| s.to_string()).ok_or_else(|| format!("must be {}, got {s:?}", self.rule()))
    }

    /// The rule in words, for errors and the printed references.
    fn rule(self) -> String {
        match self {
            Check::Any => String::new(),
            Check::Positive => "> 0".into(),
            Check::Unit => "in [0, 1]".into(),
            Check::AtLeast(min) => format!("≥ {min}"),
            Check::Floor(min) => format!("floor {min}"),
            Check::OneOf(options) => format!("one of {}", options.join(", ")),
            Check::NonEmpty => "non-empty".into(),
            Check::Duration => "a PromQL duration > 0".into(),
        }
    }
}

fn expected(what: &str, y: &Yaml) -> String {
    let got = if let Yaml::Map(_) | Yaml::Seq(_) = y { "a block".into() } else { format!("{y:?}") };
    format!("expected {what}, got {got}")
}

fn number(y: &Yaml) -> Result<f64, String> {
    y.as_f64().filter(|v| v.is_finite()).ok_or_else(|| expected("a number", y))
}

fn string(y: &Yaml, check: Check) -> Result<String, String> {
    check.text(y.as_str().ok_or_else(|| expected("a string", y))?)
}

/// A count, checked as a signed number and then raised to 0, so a negative
/// count never wraps; one too large for its field saturates.
fn count(y: &Yaml, check: Check) -> Result<i128, String> {
    let n = match *y {
        Yaml::Int(i) => i as i128,
        Yaml::Float(f) if f.fract() == 0.0 => f as i128,
        _ => return Err(expected("a whole number", y)),
    };
    let checked = check.number(n as f64)?;
    Ok(if checked == n as f64 { n } else { checked as i128 }.max(0))
}

/// A mapping, or `None` for an empty value; `at` prefixes the error.
fn mapping<'y>(y: &'y Yaml, at: &str) -> Result<Option<&'y BTreeMap<String, Yaml>>, String> {
    match y {
        Yaml::Map(map) => Ok(Some(map)),
        Yaml::Null => Ok(None),
        _ => Err(format!("{at}{}", expected("a mapping", y))),
    }
}

/// `path` split into its section (`""` at the top) and its name.
fn split(path: &str) -> (&str, &str) {
    path.rsplit_once('.').unwrap_or(("", path))
}

/// Sets every key of the mapping `node` at `prefix`. A name the table does
/// not hold is an error, at any depth.
fn set_keys(c: &mut CeemsConfig, node: &Yaml, prefix: &str) -> Result<(), String> {
    for (name, value) in mapping(node, &format!("{prefix}: "))?.into_iter().flatten() {
        let path = if prefix.is_empty() { name.clone() } else { format!("{prefix}.{name}") };
        if let Some(key) = KEYS.iter().find(|k| k.path == path) {
            key.slot.set(c, value, key.check).map_err(|e| format!("{path}: {e}"))?;
        } else if KEYS.iter().any(|k| split(k.path).0 == path) {
            set_keys(c, value, &path)?;
        } else {
            return Err(format!("unknown key {path}"));
        }
    }
    Ok(())
}

impl CeemsConfig {
    /// Parses the single-file YAML configuration; unset keys keep their
    /// defaults. An unknown key, a value of the wrong type and one its rule
    /// refuses are errors that name the key's dotted path.
    pub fn from_yaml(text: &str) -> Result<CeemsConfig, String> {
        let doc = parse(text).map_err(|e| e.to_string())?;
        let mut cfg = CeemsConfig::default();
        for (_, enable) in ENABLED_BY_PRESENCE.iter().filter(|(s, _)| doc.get(s).is_some()) {
            enable(&mut cfg);
        }
        set_keys(&mut cfg, &doc, "")?;
        if let Some(Yaml::Map(c)) = doc.get("cluster") {
            if c.contains_key("preset") && c.keys().any(|k| k.ends_with("_nodes")) {
                return Err("cluster.preset replaces the node counts: give one or the other".into());
            }
        }
        if cfg.failover.election_timeout_s < cfg.failover.probe_interval_s {
            return Err("failover.election_timeout_s must be ≥ failover.probe_interval_s".into());
        }
        Ok(cfg)
    }
}

/// Each key with its default, read through the key's accessor.
fn with_defaults() -> impl Iterator<Item = (&'static Key, Shown)> {
    let mut defaults = CeemsConfig::default();
    KEYS.iter().map(move |key| (key, key.slot.show(&mut defaults)))
}

/// The file `ceems config-example` prints: every key at its default, with
/// its doc and rule. A key unset by default or of no effect is commented
/// out, and so is a section whose presence alone would turn a feature on.
pub fn example() -> String {
    let mut out = String::from("# CEEMS configuration (§II.D): every key at its default.\n");
    let mut section = "";
    for (key, shown) in with_defaults() {
        let (head, name) = split(key.path);
        let switch = format!("{head}.enabled");
        let off = ENABLED_BY_PRESENCE.iter().any(|(s, _)| *s == head)
            && !KEYS.iter().any(|k| k.path == switch);
        if head != section {
            section = head;
            out += &format!("{}{head}:\n", if off { "# " } else { "" });
        }
        let unset = matches!(shown, Shown::Unset) || NO_EFFECT.contains(&key.path);
        let hash = if off || unset { "# " } else { "" };
        let indent = if head.is_empty() { "" } else { "  " };
        let value = if let Shown::Scalar(v) = &shown { format!(" {v}") } else { String::new() };
        let rule = Some(key.check.rule()).filter(|r| !r.is_empty()).map(|r| format!(" ({r})"));
        let line = format!("{indent}{hash}{name}:{value}");
        out += &format!("{line:<40} # {}{}\n", key.doc, rule.unwrap_or_default());
        if let Shown::Block(lines) = shown {
            lines.iter().for_each(|l| out += &format!("{indent}  {hash}{l}\n"));
        }
    }
    out
}

/// The Markdown table of one section's keys (`""`: the top-level keys), as
/// README prints it.
pub fn reference(section: &str) -> String {
    let mut out = String::from("| key | default | rule | meaning |\n| --- | --- | --- | --- |\n");
    for (key, shown) in with_defaults().filter(|(k, _)| split(k.path).0 == section) {
        let default = match shown {
            Shown::Unset => "unset".to_string(),
            Shown::Scalar(v) => format!("`{v}`"),
            Shown::Block(lines) if lines.is_empty() => "empty".to_string(),
            Shown::Block(lines) => {
                let items = lines.iter().map(|l| format!("`{}`", l.trim_start_matches("- ")));
                items.collect::<Vec<_>>().join(", ")
            }
        };
        let rule = if NO_EFFECT.contains(&key.path) { "no effect".into() } else { key.check.rule() };
        out += &format!("| `{}` | {default} | {rule} | {} |\n", split(key.path).1, key.doc);
    }
    out
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

    #[test]
    fn typos_wrong_types_and_bad_periods_are_errors_naming_the_key() {
        let err = |text: &str| CeemsConfig::from_yaml(text).unwrap_err();
        assert!(err("tsbd:\n").contains("tsbd"));
        assert!(err("tsdb:\n  scrape_intervall_s: 5\n").contains("tsdb.scrape_intervall_s"));
        assert!(err("tsdb:\n  scrape_interval_s: fifteen\n").contains("tsdb.scrape_interval_s"));
        assert!(err("tsdb:\n  wal:\n    dir: x\n").contains("tsdb.wal"));
        assert!(err("tsdb: 15\n").contains("tsdb"));
        for (section, key) in [
            ("tsdb", "scrape_interval_s"),
            ("tsdb", "rule_interval_s"),
            ("tsdb", "wal_checkpoint_interval_s"),
            ("api_server", "update_interval_s"),
        ] {
            for bad in ["0", "-5", "NaN", "inf"] {
                let e = err(&format!("{section}:\n  {key}: {bad}\n"));
                assert!(e.contains(&format!("{section}.{key}")), "{key}: {bad}: {e}");
            }
        }
        assert!(err("cluster:\n  intel_nodes: -3\n").contains("cluster.intel_nodes"));
        assert!(err("threads: 2.5\n").contains("threads"));
        assert!(err("alerting:\n  enabled: yes\n").contains("alerting.enabled"));
        assert!(err("emissions:\n  providers:\n    - rtee\n").contains("emissions.providers"));
        assert!(err("obs:\n  tenant_sample_rates: 0.5\n").contains("obs.tenant_sample_rates"));
    }

    #[test]
    fn a_negative_count_is_floored_not_wrapped() {
        assert_eq!(CeemsConfig::from_yaml("threads: -1\n").unwrap().threads, 1);
        let c = CeemsConfig::from_yaml("obs:\n  trace_store_max_bytes: -7\n").unwrap();
        assert_eq!(c.obs.trace_store_max_bytes, 1);
        let c = CeemsConfig::from_yaml("failover:\n  min_catchup_records: 1e30\n").unwrap();
        assert_eq!(c.failover.min_catchup_records, u64::MAX);
    }

    #[test]
    fn a_preset_with_node_counts_is_an_error() {
        let e = CeemsConfig::from_yaml("cluster:\n  preset: jean-zay\n  intel_nodes: 2\n");
        assert!(e.unwrap_err().contains("cluster.preset"));
        assert!(CeemsConfig::from_yaml("cluster:\n  preset: jean-zey\n").is_err());
        let c = CeemsConfig::from_yaml("cluster:\n  preset: jean-zay\n  seed: 3\n").unwrap();
        assert_eq!((c.cluster.total_nodes(), c.seed), (1400, 3));
    }

    #[test]
    fn the_example_loads_as_the_defaults_and_holds_every_key() {
        let loaded = CeemsConfig::from_yaml(&example()).unwrap();
        assert_eq!(format!("{loaded:?}"), format!("{:?}", CeemsConfig::default()));
        // With its commented-out keys and sections back in, the example
        // names every key of the table.
        let uncommented: String = example()
            .lines()
            .skip(1)
            .map(|l| l.rsplit_once(" # ").map_or(l, |(kept, _)| kept).replacen("# ", "", 1) + "\n")
            .collect();
        let doc = parse(&uncommented).unwrap();
        for key in KEYS {
            assert!(doc.path(key.path).is_some(), "{} is not in the example", key.path);
        }
    }

    const README: &str = include_str!("../../../README.md");

    #[test]
    fn every_yaml_block_in_readme_loads() {
        let blocks: Vec<&str> = README
            .split("```yaml\n")
            .skip(1)
            .map(|rest| rest.split("```").next().unwrap())
            .collect();
        assert!(blocks.len() >= 5);
        for block in blocks {
            if let Err(e) = CeemsConfig::from_yaml(block) {
                panic!("{e}:\n{block}");
            }
        }
    }

    #[test]
    fn readme_key_tables_are_the_generated_ones() {
        let mut sections: Vec<&str> = KEYS.iter().map(|k| split(k.path).0).collect();
        sections.dedup();
        for section in sections {
            let table = reference(section);
            assert!(README.contains(&table), "README lacks the `{section}` table:\n{table}");
        }
    }
}
