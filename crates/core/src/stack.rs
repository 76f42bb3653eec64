//! Full-stack wiring (the paper's Fig. 1).
//!
//! [`CeemsStack`] assembles: simulated cluster → per-node exporters →
//! scrape manager → hot TSDB → recording rules (Eq. 1 per node group) →
//! API-server updater (backed by the relational store) → long-term store.
//! [`CeemsStack::advance`] moves the whole system one simulation step; the
//! 1,400-node Jean-Zay experiment is just this with the big cluster spec.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ceems_alertsrv::{
    packs, AlertConfig, AlertRule, AlertService, LocalQuerySource, LogSink, NotificationSink,
    QuerySource, RoutingTree, RuleSet, WebhookSink,
};
use ceems_apiserver::metrics_source::TsdbLocalSource;
use ceems_apiserver::rm::SlurmRmClient;
use ceems_apiserver::updater::{Updater, UpdaterConfig};
use ceems_emissions::emaps::{EMapsProvider, EMapsService};
use ceems_emissions::owid::OwidStatic;
use ceems_emissions::rte::RteSimulated;
use ceems_emissions::{EmissionProvider, LastKnownGood, ProviderChain};
use ceems_exporter::{CeemsExporter, ExporterConfig};
use ceems_metrics::{MetricType, Sink};
use ceems_obs::{TraceSampler, TraceSink, TraceStore, TraceStoreConfig};
use ceems_relstore::Db;
use ceems_simnode::{SimClock, SimCluster};
use ceems_slurm::{ChurnGenerator, JobRequest, Partition, Scheduler};
use ceems_stream::{PublishOutcome, SampleFrame, SinkReceipt, StreamBus, StreamBusConfig};
use ceems_tsdb::rules::RuleEngine;
use ceems_tsdb::scrape::{
    ScrapeManager, ScrapeStats, ScrapeTarget, SeriesCache, Stamp, TargetSource,
};
use ceems_tsdb::{fan_out, ReplicationGroup, Tsdb, TsdbConfig, WriteRouter};

use crate::attribution::{all_rule_groups, NodeGroup};
use crate::config::CeemsConfig;
use crate::meta::{MetaMonitor, MetaScrapeStats, MetaTarget};

/// Cumulative stack statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct StackStats {
    /// Scrape passes performed.
    pub scrape_passes: u64,
    /// Samples ingested by scraping.
    pub samples_scraped: u64,
    /// Scrape failures.
    pub scrape_failures: u64,
    /// Recording-rule series written.
    pub rule_series_written: u64,
    /// Updater polls performed.
    pub updater_polls: u64,
    /// Jobs submitted by the churn generator.
    pub jobs_submitted: u64,
    /// WAL checkpoints taken (0 unless `wal_dir` is configured).
    pub wal_checkpoints: u64,
    /// Alert-rule evaluation passes (0 unless `alerting:` is enabled).
    pub alert_ticks: u64,
    /// Alert notifications delivered.
    pub alert_notifications: u64,
    /// Self-scrape meta passes (0 unless `meta:` is enabled).
    pub meta_passes: u64,
    /// Samples ingested into the `__ceems_meta__` tenant.
    pub meta_samples: u64,
    /// Meta targets that failed a pass.
    pub meta_failures: u64,
    /// Trace spans evicted by the store's byte/age GC.
    pub traces_evicted: u64,
    /// Push passes over the stream bus (0 unless `stream:` is enabled).
    pub stream_pushes: u64,
    /// Samples ingested through the stream bus.
    pub samples_pushed: u64,
    /// Publish attempts the bus's sink rejected.
    pub stream_failures: u64,
    /// Recording rules evaluated incrementally (stream mode).
    pub incremental_rule_evals: u64,
    /// Leader failovers completed by the replication group (0 unless
    /// `failover:` is enabled).
    pub tsdb_failovers: u64,
}

/// The assembled CEEMS deployment.
pub struct CeemsStack {
    /// Shared simulated clock.
    pub clock: SimClock,
    /// The node fleet.
    pub cluster: SimCluster,
    /// The batch scheduler.
    pub scheduler: Arc<Mutex<Scheduler>>,
    /// The hot TSDB.
    pub tsdb: Arc<Tsdb>,
    /// The API-server updater (shared with the HTTP API layer).
    pub updater: Arc<Mutex<Updater>>,
    /// Per-node exporters, index-aligned with `cluster.nodes()`.
    pub exporters: Vec<Arc<CeemsExporter>>,

    /// The alerting service (`None` unless `alerting:` is enabled). Its
    /// default log sink keeps the notification audit trail in-process.
    pub alertsrv: Option<Arc<AlertService>>,
    /// The alerting service's log sink (present iff `alertsrv` is).
    pub alert_log: Option<Arc<LogSink>>,

    scrape_mgr: ScrapeManager,
    rule_engine: RuleEngine,
    replication: Option<FailoverState>,
    churn: Option<ChurnGenerator>,
    trace_sink: Arc<TraceSink>,
    meta_mon: Option<MetaMonitor>,
    stream_bus: Option<Arc<StreamBus>>,
    push_sources: Vec<PushSource>,
    config: CeemsConfig,
    schedule: Schedule,
    stats: StackStats,
}

/// One interval-driven task of [`CeemsStack::advance`].
struct Periodic {
    interval_ms: i64,
    last_ms: i64,
}

impl Periodic {
    /// Due on the first `advance`.
    const AT_ONCE: i64 = i64::MIN / 2;

    /// A task that counts its first interval from `last_ms`.
    fn new(interval_s: f64, last_ms: i64) -> Periodic {
        Periodic {
            interval_ms: (interval_s * 1000.0) as i64,
            last_ms,
        }
    }

    /// True once per elapsed interval: arms itself for the next one.
    fn due(&mut self, now: i64) -> bool {
        let due = now - self.last_ms >= self.interval_ms;
        if due {
            self.last_ms = now;
        }
        due
    }
}

/// `advance`'s task table, in the order the tasks run.
struct Schedule {
    scrape: Periodic,
    rules: Periodic,
    update: Periodic,
    checkpoint: Periodic,
    meta: Periodic,
    alerts: Periodic,
}

/// Push-mode identity of one exporter: who it publishes as and the target
/// labels its samples get stamped with (same as its scrape target, so a
/// push-mode run lands byte-identical series).
struct PushSource {
    exporter: Arc<CeemsExporter>,
    publisher: String,
    instance: String,
    extra_labels: Vec<(String, String)>,
    /// Advanced only by the push worker that owns the source during a pass;
    /// the pass's join orders it before the next pass reads it.
    next_seq: AtomicU64,
}

/// What one push worker's sources delivered.
#[derive(Default)]
struct PushTally {
    samples: u64,
    failures: u64,
    arrived: HashSet<String>,
}

/// The S24 failover machinery when `failover:` is enabled: the
/// deterministic election coordinator plus the shared write route that
/// every in-process writer follows across leader changes.
struct FailoverState {
    group: Arc<Mutex<ReplicationGroup>>,
    router: WriteRouter,
}

/// Alert evaluation that follows the write route: each query resolves the
/// current leader's database, so rule evaluation re-targets within one
/// probe interval of a failover instead of pinning the original leader.
struct RoutedQuerySource {
    router: WriteRouter,
    fallback: Arc<Tsdb>,
    lookback_ms: i64,
}

impl QuerySource for RoutedQuerySource {
    fn name(&self) -> &'static str {
        "routed-local"
    }

    fn query(
        &self,
        expr_src: &str,
        expr: &ceems_tsdb::promql::Expr,
        now_ms: i64,
        plan: &mut ceems_tsdb::promql::PreparedQuery,
    ) -> Result<Vec<(ceems_metrics::labels::LabelSet, f64)>, String> {
        let db = self
            .router
            .leader_db()
            .unwrap_or_else(|| self.fallback.clone());
        LocalQuerySource::new(db, self.lookback_ms).query(expr_src, expr, now_ms, plan)
    }
}

fn build_providers(cfg: &CeemsConfig) -> Vec<Arc<dyn EmissionProvider>> {
    let mut providers: Vec<Arc<dyn EmissionProvider>> = cfg
        .emission_providers
        .iter()
        .filter_map(|name| -> Option<Arc<dyn EmissionProvider>> {
            match name.as_str() {
                "owid" => Some(Arc::new(OwidStatic)),
                "rte" => Some(Arc::new(RteSimulated::default())),
                "emaps" => {
                    let service = Arc::new(EMapsService::new("ceems-sim-token", 1000));
                    Some(Arc::new(EMapsProvider::new(service, "ceems-sim-token")))
                }
                _ => None,
            }
        })
        .collect();
    // Alongside the raw per-provider factors, expose one resilient series:
    // the configured chain (priority order) wrapped in last-known-good
    // retention, so a real-time feed outage degrades to the most recent
    // factor instead of a gap (S19).
    if !providers.is_empty() {
        let chain = ProviderChain::new(providers.clone());
        providers.push(Arc::new(LastKnownGood::new(Arc::new(chain))));
    }
    providers
}

impl CeemsStack {
    /// Builds the full stack from a configuration. `db_dir` hosts the API
    /// server's relational store.
    pub fn build(config: CeemsConfig, db_dir: &std::path::Path) -> Result<CeemsStack, String> {
        let clock = SimClock::new();
        let cluster = SimCluster::build(&config.cluster, clock.clone(), config.seed);

        // Partitions by hostname prefix.
        let mut partitions: Vec<Partition> = Vec::new();
        for (name, prefix, walltime_h) in [
            ("cpu-intel", "jz-intel-", 72u64),
            ("cpu-amd", "jz-amd-", 72),
            ("gpu-v100", "jz-v100-", 20),
            ("gpu-a100", "jz-a100-", 20),
            ("gpu-h100", "jz-h100-", 20),
        ] {
            let nodes: Vec<_> = cluster
                .nodes()
                .iter()
                .filter(|n| n.lock().hostname().starts_with(prefix))
                .cloned()
                .collect();
            if !nodes.is_empty() {
                partitions.push(Partition::new(name, nodes, walltime_h * 3600));
            }
        }
        let partition_weights: Vec<(String, f64)> = partitions
            .iter()
            .map(|p| (p.name.clone(), p.nodes.len() as f64))
            .collect();
        let scheduler = Arc::new(Mutex::new(Scheduler::new(partitions, config.seed ^ 0x5eed)));

        // Exporters + scrape targets, one per node, grouped per §III.
        let providers = build_providers(&config);
        let mut exporters = Vec::with_capacity(cluster.len());
        let mut targets = Vec::with_capacity(cluster.len());
        let mut push_sources = Vec::with_capacity(cluster.len());
        for node in cluster.nodes() {
            let group = NodeGroup::for_profile(&node.lock().spec().profile);
            let hostname = node.lock().hostname().to_string();
            let exporter = Arc::new(CeemsExporter::new(
                node.clone(),
                clock.clone(),
                ExporterConfig {
                    emission_providers: providers.clone(),
                    zone: config.zone.clone(),
                    ..Default::default()
                },
            ));
            let instance = format!("{hostname}:9100");
            let extra_labels = vec![("nodegroup".to_string(), group.label().to_string())];
            targets.push(ScrapeTarget {
                instance: instance.clone(),
                job: "ceems".to_string(),
                extra_labels: extra_labels.clone(),
                source: TargetSource::InProcess(exporter.render_fn()),
            });
            push_sources.push(PushSource {
                exporter: exporter.clone(),
                publisher: hostname,
                instance,
                extra_labels,
                next_seq: AtomicU64::new(1),
            });
            exporters.push(exporter);
        }
        let scrape_mgr = ScrapeManager::new(targets);

        let tsdb_config = TsdbConfig {
            query_threads: config.query_threads,
            posting_cache_size: config.posting_cache_size,
            ..TsdbConfig::default()
        };
        // Durable sampled trace store (S22): one store + sampling policy
        // shared by every component the stack wires. The sim clock stamps
        // stored spans so eviction is deterministic under a fixed seed.
        let trace_store = Arc::new(TraceStore::open(
            &db_dir.join("traces"),
            TraceStoreConfig {
                max_bytes: config.obs.trace_store_max_bytes,
                max_age_ms: (config.obs.trace_store_max_age_s * 1000.0) as i64,
            },
        )?);
        let trace_clock = clock.clone();
        let trace_sink = Arc::new(
            TraceSink::new(
                TraceSampler::new(config.obs.trace_sample_rate, config.obs.trace_slow_ms),
                trace_store.clone(),
            )
            .with_now(Arc::new(move || trace_clock.now_ms())),
        );

        let wal_opts = ceems_tsdb::WalOptions {
            segment_bytes: config.wal_segment_bytes,
            fsync: ceems_tsdb::FsyncMode::parse(&config.wal_fsync)
                .ok_or_else(|| format!("bad wal_fsync {:?}", config.wal_fsync))?,
        };
        // Leader failover (S24): a replication group replaces the single
        // durable head. Node WAL directories live under `wal_dir`; the sim
        // clock paces probes and elections so a fixed seed replays the same
        // failover trace.
        let replication = if config.failover.enabled {
            let dir = config.wal_dir.as_ref().ok_or(
                "failover: requires tsdb.wal_dir (replicas elect on WAL position)",
            )?;
            let fo_clock = clock.clone();
            let group = ReplicationGroup::new(
                std::path::Path::new(dir),
                config.failover.replicas,
                wal_opts,
                tsdb_config.clone(),
                config.failover.failover_config(),
                Arc::new(move || fo_clock.now_ms()),
            )
            .map_err(|e| format!("build replication group under {dir:?}: {e}"))?
            .with_trace_sink(trace_sink.clone());
            let router = group.write_router();
            Some(FailoverState {
                group: Arc::new(Mutex::new(group)),
                router,
            })
        } else {
            None
        };
        let tsdb = match &replication {
            // `tsdb` tracks the elected leader; `advance` re-points it
            // after every failover so scrape/rule/checkpoint traffic
            // follows the route.
            Some(f) => f.router.leader_db().expect("a fresh group elects node-0"),
            None => Arc::new(match &config.wal_dir {
                // Durable head: recover whatever a previous run logged,
                // keep logging + checkpointing from here on.
                Some(dir) => Tsdb::open(std::path::Path::new(dir), wal_opts, tsdb_config)
                    .map_err(|e| format!("open WAL dir {dir:?}: {e}"))?,
                None => Tsdb::new(tsdb_config),
            }),
        };
        let rule_engine = RuleEngine::new(all_rule_groups(
            &config.rule_window,
            (config.rule_interval_s * 1000.0) as i64,
        ))
        .with_eval_threads(config.query_threads);

        // Streaming ingest bus (S23): exporters publish renders instead of
        // being scraped. The sink ingests the exposition text through the
        // same entry point as a scrape, one series cache per publisher, and
        // appends synchronously — one acked frame is one TSDB batch (and one
        // WAL group commit when durability is on) — returning the metric
        // names that arrived so the rule engine can re-evaluate just the
        // affected sub-DAG.
        let stream_bus = if config.stream.enabled {
            let sink_db = tsdb.clone();
            let sink_router = replication.as_ref().map(|f| f.router.clone());
            // The map lock is held only to find a publisher's cache: the bus
            // runs the sink for different publishers at once.
            let caches: Mutex<HashMap<String, Arc<Mutex<SeriesCache>>>> = Mutex::default();
            let sink: ceems_stream::IngestSink = Arc::new(move |f: &SampleFrame| {
                let (db, epoch) = match &sink_router {
                    // Failover mode: append through the write route, fenced
                    // with the route's epoch. A leaderless window or a stale
                    // epoch rejects the frame; the publisher keeps it
                    // buffered and resumes after the election.
                    Some(router) => {
                        let route = router.route();
                        (route.db.ok_or("no leader elected")?, Some(route.epoch))
                    }
                    None => (sink_db.clone(), None),
                };
                let cache = Arc::clone(caches.lock().entry(f.publisher.clone()).or_default());
                let stamp = Stamp {
                    instance: &f.instance,
                    job: &f.job,
                    extra_labels: &f.extra_labels,
                };
                let got = cache.lock().ingest(&db, epoch, &f.body, stamp, f.produced_ms, &[])?;
                Ok(SinkReceipt {
                    samples: got.samples,
                    names: got.names.into_iter().map(str::to_string).collect(),
                })
            });
            Some(Arc::new(StreamBus::new(
                StreamBusConfig {
                    ring_capacity: config.stream.ring_capacity,
                    max_subscribers_per_tenant: config.stream.max_subscribers_per_tenant,
                },
                sink,
            )))
        } else {
            None
        };

        let rm = Arc::new(SlurmRmClient::new(scheduler.clone()));
        let metrics = Arc::new(TsdbLocalSource::new(tsdb.clone()));
        let admin: Arc<dyn ceems_apiserver::updater::TsdbAdmin> = Arc::new(tsdb.clone());
        let updater = Updater::new(
            Db::open(db_dir).map_err(|e| e.to_string())?,
            rm,
            metrics,
            Some(admin),
            UpdaterConfig {
                cleanup_cutoff_s: config.cleanup_cutoff_s,
                ..Default::default()
            },
        )
        .map_err(|e| e.to_string())?;

        let churn = config.churn.as_ref().map(|c| {
            ChurnGenerator::new(
                ceems_slurm::churn::ChurnConfig {
                    users: c.users,
                    projects: c.projects,
                    mean_arrivals_per_hour: c.arrivals_per_hour,
                    partitions: partition_weights,
                    gpu_fraction: 0.6,
                },
                config.seed ^ 0xc4u64,
            )
        });

        // Alerting service over the hot TSDB (S21). Rules come from the
        // built-in packs whose thresholds are set; notifications go to the
        // webhook when one is configured, always mirrored to the log sink.
        let (alertsrv, alert_log) = if config.alerting.enabled {
            let a = &config.alerting;
            let mut rules: Vec<AlertRule> = Vec::new();
            if a.energy_budget_watts > 0.0 {
                rules.push(packs::energy_budget(
                    a.energy_budget_watts,
                    (a.energy_budget_for_s * 1000.0) as i64,
                ));
            }
            if a.factor_max_age_s > 0.0 {
                rules.push(packs::emission_factor_stale(a.factor_max_age_s, 0));
            }
            if a.node_power_max_watts > 0.0 {
                rules.push(packs::node_power_anomaly(a.node_power_max_watts, 0));
            }
            if a.wal_lag_max_records > 0.0 {
                rules.push(packs::replica_wal_lag(a.wal_lag_max_records, 0));
            }
            // The meta pack (S22) rides along whenever self-scrape runs:
            // its rules query the `__ceems_meta__` series the meta monitor
            // writes into the same TSDB these rules evaluate over.
            if config.meta.enabled {
                let m = &config.meta;
                rules.push(packs::component_down(0));
                if m.stale_after_s > 0.0 {
                    rules.push(packs::meta_scrape_stale(m.stale_after_s, 0));
                }
                if m.breaker_storm_opens > 0.0 {
                    rules.push(packs::breaker_open_storm(m.breaker_storm_opens, 0));
                }
            }
            let log = LogSink::new();
            let mut sinks: Vec<Arc<dyn NotificationSink>> = vec![log.clone()];
            let default_sink = match &a.webhook_url {
                Some(url) => {
                    sinks.push(Arc::new(
                        WebhookSink::new(url.clone()).with_client(config.http.client()),
                    ));
                    "webhook"
                }
                None => "log",
            };
            // Rule queries look back far enough to bridge one recording-rule
            // interval plus a scrape, so a fresh tick still sees data.
            let lookback_ms =
                ((config.rule_interval_s + config.scrape_interval_s) * 2.0 * 1000.0) as i64;
            let source: Arc<dyn QuerySource> = match &replication {
                Some(f) => Arc::new(RoutedQuerySource {
                    router: f.router.clone(),
                    fallback: tsdb.clone(),
                    lookback_ms,
                }),
                None => Arc::new(LocalQuerySource::new(tsdb.clone(), lookback_ms)),
            };
            let svc = AlertService::new(
                RuleSet::compile(rules),
                source,
                sinks,
                RoutingTree::new(default_sink),
                AlertConfig {
                    group_wait_ms: (a.group_wait_s * 1000.0) as i64,
                    group_interval_ms: (a.group_interval_s * 1000.0) as i64,
                    repeat_interval_ms: (a.repeat_interval_s * 1000.0) as i64,
                    resolved_retention_ms: (a.resolved_retention_s * 1000.0) as i64,
                    lookback_ms,
                },
                &db_dir.join("alertsrv"),
            )?
            .with_trace_sink(trace_sink.clone());
            (Some(Arc::new(svc)), Some(log))
        } else {
            (None, None)
        };

        // Self-scrape meta monitor (S22): the stack's own components as
        // scrape targets, ingested into the reserved `__ceems_meta__`
        // tenant of the same TSDB. In-process components register render
        // closures here; socket-served ones (LB, qfe, apiserver) join via
        // [`Self::register_meta_target`].
        let meta_mon = if config.meta.enabled {
            let mut targets: Vec<MetaTarget> = Vec::new();
            // The TSDB's own registry, extended with build identity and the
            // trace-store health gauges so `ceems_trace_store_bytes` rides
            // the meta tenant too.
            let reg = ceems_tsdb::selfmon::default_registry(tsdb.clone());
            ceems_obs::register_build_info(&reg, "tsdb");
            trace_store.register_metrics(&reg);
            if let Some(f) = &replication {
                Self::register_failover_metrics(&reg, &f.group);
            }
            targets.push(MetaTarget::in_process(
                "tsdb",
                "tsdb:0",
                Arc::new(move || reg.render()),
            ));
            if let Some(svc) = &alertsrv {
                let reg = svc.registry();
                targets.push(MetaTarget::in_process(
                    "alertsrv",
                    "alertsrv:0",
                    Arc::new(move || reg.render()),
                ));
            }
            // One representative node exporter; the full fleet is already
            // scraped as regular `job="ceems"` targets.
            if let Some(exporter) = exporters.first() {
                targets.push(MetaTarget::in_process(
                    "exporter",
                    "exporter:0",
                    exporter.render_fn(),
                ));
            }
            // The stream bus's health gauges (ring occupancy, publisher
            // lag, subscriber counts) join the meta tenant when streaming
            // is on.
            if let Some(bus) = &stream_bus {
                let reg = ceems_metrics::registry::Registry::new();
                bus.register_metrics(&reg);
                ceems_obs::register_build_info(&reg, "stream");
                targets.push(MetaTarget::in_process(
                    "stream",
                    "stream:0",
                    Arc::new(move || reg.render()),
                ));
            }
            Some(MetaMonitor::new(targets))
        } else {
            None
        };

        Ok(CeemsStack {
            clock,
            cluster,
            scheduler,
            tsdb,
            updater: Arc::new(Mutex::new(updater)),
            exporters,
            alertsrv,
            alert_log,
            scrape_mgr,
            rule_engine,
            replication,
            churn,
            trace_sink,
            meta_mon,
            stream_bus,
            push_sources,
            schedule: Schedule {
                scrape: Periodic::new(config.scrape_interval_s, Periodic::AT_ONCE),
                rules: Periodic::new(config.rule_interval_s, Periodic::AT_ONCE),
                update: Periodic::new(config.updater_interval_s, Periodic::AT_ONCE),
                // The first checkpoint waits one interval from time zero.
                checkpoint: Periodic::new(config.wal_checkpoint_interval_s, 0),
                meta: Periodic::new(config.meta.scrape_interval_s, Periodic::AT_ONCE),
                alerts: Periodic::new(config.alerting.eval_interval_s, Periodic::AT_ONCE),
            },
            config,
            stats: StackStats::default(),
        })
    }

    /// Convenience: build with defaults into a temp DB dir.
    pub fn build_default() -> CeemsStack {
        let dir = std::env::temp_dir().join(format!(
            "ceems-stack-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        CeemsStack::build(CeemsConfig::default(), &dir).expect("default stack builds")
    }

    /// The configuration.
    pub fn config(&self) -> &CeemsConfig {
        &self.config
    }

    /// The shared trace sink (sampling policy + durable store + sim clock).
    /// Hand this to every served component (`LbConfig::trace_sink`,
    /// `QfeConfig::trace_sink`, [`Self::tsdb_api_options`] wires it itself)
    /// so all hops of a request reach the same sampling verdict.
    pub fn trace_sink(&self) -> Arc<TraceSink> {
        self.trace_sink.clone()
    }

    /// The durable trace store behind the sink (the apiserver's
    /// `/api/v1/traces` endpoints serve from this).
    pub fn trace_store(&self) -> Arc<TraceStore> {
        self.trace_sink.store().clone()
    }

    /// Registers a socket-served component for self-scrape by its full
    /// `/metrics` URL. No-op unless `meta:` is enabled.
    pub fn register_meta_target(&mut self, component: &str, instance: &str, metrics_url: &str) {
        if let Some(mon) = &mut self.meta_mon {
            mon.add_target(MetaTarget::http(component, instance, metrics_url));
        }
    }

    /// Registers an in-process component for self-scrape via a render
    /// closure. No-op unless `meta:` is enabled.
    pub fn register_meta_render(
        &mut self,
        component: &str,
        instance: &str,
        render: Arc<dyn Fn() -> String + Send + Sync>,
    ) {
        if let Some(mon) = &mut self.meta_mon {
            mon.add_target(MetaTarget::in_process(component, instance, render));
        }
    }

    /// TSDB API-router options wired to this stack's observability
    /// configuration: the default TSDB metrics registry extended with the
    /// per-group rule-evaluation histogram and the rule-plan counters
    /// (`ceems_tsdb_rule_plan_{reused,extended,rebuilt}_total`), and a
    /// slow-query log honoring `tsdb.slow_query_ms`. Serve the result with
    /// [`ceems_tsdb::httpapi::api_router_with`].
    pub fn tsdb_api_options(
        &self,
        now: ceems_tsdb::httpapi::NowFn,
    ) -> ceems_tsdb::httpapi::ApiOptions {
        let registry = ceems_tsdb::selfmon::default_registry(self.tsdb.clone());
        registry.register("tsdb_rule_eval", Arc::new(self.rule_engine.eval_histogram()));
        registry.register("tsdb_rule_plans", self.rule_engine.plan_collector());
        if let Some(f) = &self.replication {
            Self::register_failover_metrics(&registry, &f.group);
        }
        let slow_query = (self.config.slow_query_ms > 0.0)
            .then(|| ceems_obs::slowlog::SlowQueryLog::new(self.config.slow_query_ms));
        ceems_tsdb::httpapi::ApiOptions {
            now,
            registry: Some(registry),
            slow_query,
            wal_fetch_limit: Some(ceems_tsdb::httpapi::WalFetchLimiter::new(
                self.config.wal_fetch_rate_per_s,
                self.config.wal_fetch_burst,
            )),
            trace_sink: Some(self.trace_sink.clone()),
        }
    }

    /// Query-frontend configuration mapped from the stack's YAML `qfe:`
    /// section (seconds → milliseconds, scheduler limits filled in). Pass
    /// it to [`ceems_qfe::QueryFrontend::new`] over an
    /// [`ceems_qfe::HttpDownstream`] of the replica URLs (deployments) or a
    /// [`ceems_qfe::RouterDownstream`] of the TSDB router (single binary).
    /// The clock should match the one given to [`Self::tsdb_api_options`]
    /// so the `recent_window` tracks simulated time.
    pub fn qfe_config(&self, now: ceems_qfe::NowFn) -> ceems_qfe::QfeConfig {
        let q = &self.config.qfe;
        ceems_qfe::QfeConfig {
            split_interval_ms: (q.split_interval_s * 1000.0).max(1.0) as i64,
            cache_bytes: q.cache_bytes,
            recent_window_ms: (q.recent_window_s * 1000.0).max(0.0) as i64,
            scheduler: ceems_qfe::SchedulerConfig {
                tenant_queue_depth: q.tenant_queue_depth,
                max_tenant_concurrency: q.max_tenant_concurrency,
                // Leave headroom for several tenants at their caps.
                max_concurrency: q.max_tenant_concurrency.saturating_mul(4).max(1),
                retry_after_s: 1.0,
            },
            max_fanout: 8,
            now,
            trace_sink: Some(self.trace_sink.clone()),
            max_live_per_tenant: self.config.stream.max_live_per_tenant,
            tenant_sample_rates: self.config.obs.tenant_sample_rates.clone(),
            max_stale_ms: (q.max_stale_s * 1000.0).max(0.0) as i64,
        }
    }

    /// The replication group coordinator (`None` unless `failover:` is
    /// enabled). Chaos tests drive kills and rejoins through this; its
    /// event log is the deterministic failover trace.
    pub fn replication_group(&self) -> Option<Arc<Mutex<ReplicationGroup>>> {
        self.replication.as_ref().map(|f| f.group.clone())
    }

    /// The shared write route (`None` unless `failover:` is enabled).
    /// Every clone follows failovers; out-of-process writers consult
    /// `route().leader_url` instead.
    pub fn write_router(&self) -> Option<WriteRouter> {
        self.replication.as_ref().map(|f| f.router.clone())
    }

    /// Registers the S24 failover gauges on a component registry: the
    /// group's write epoch, fenced (stale-epoch) write rejections, and
    /// completed failovers.
    fn register_failover_metrics(
        registry: &ceems_metrics::registry::Registry,
        group: &Arc<Mutex<ReplicationGroup>>,
    ) {
        let g = group.clone();
        registry.register(
            "tsdb_failover",
            Arc::new(move |out: &mut dyn Sink| {
                let g = g.lock();
                for (name, help, metric_type, v) in [
                    (
                        "ceems_tsdb_epoch",
                        "Current write epoch of the TSDB replication group.",
                        MetricType::Gauge,
                        g.epoch(),
                    ),
                    (
                        "ceems_tsdb_fenced_writes_total",
                        "Writes rejected by stale-epoch fencing across the group.",
                        MetricType::Counter,
                        g.fenced_writes(),
                    ),
                    (
                        "ceems_tsdb_failovers_total",
                        "Completed leader failovers.",
                        MetricType::Counter,
                        g.failovers(),
                    ),
                ] {
                    out.family(name, help, metric_type);
                    out.sample("", &[], v as f64);
                }
            }),
        );
    }

    /// The streaming ingest bus (`None` unless `stream:` is enabled).
    /// Mount its HTTP surface with [`ceems_stream::http::mount`] to accept
    /// out-of-process publishers and raw-frame subscribers.
    pub fn stream_bus(&self) -> Option<Arc<StreamBus>> {
        self.stream_bus.clone()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> StackStats {
        self.stats
    }

    /// One push pass (stream mode): every exporter renders and publishes
    /// onto the bus, the sources handed out one at a time to
    /// `config.threads` workers as a scrape pass's targets are, then the
    /// rule engine re-evaluates only the sub-DAG whose input series
    /// actually arrived.
    fn push_pass(&mut self, now: i64) {
        let Some(bus) = self.stream_bus.clone() else {
            return;
        };
        let topic = &self.config.stream.topic;
        let fold = |tally: &mut PushTally, src: &PushSource| {
            let frame = SampleFrame {
                topic: topic.clone(),
                publisher: src.publisher.clone(),
                seq: src.next_seq.load(Ordering::Relaxed),
                instance: src.instance.clone(),
                job: "ceems".to_string(),
                extra_labels: src.extra_labels.clone(),
                body: src.exporter.render_for_push(),
                produced_ms: now,
            };
            match bus.publish("anonymous", frame, now) {
                Ok(PublishOutcome::Ingested { receipt, .. }) => {
                    src.next_seq.fetch_add(1, Ordering::Relaxed);
                    tally.samples += receipt.samples;
                    tally.arrived.extend(receipt.names);
                }
                Ok(PublishOutcome::Duplicate { .. }) => {
                    src.next_seq.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => tally.failures += 1,
            }
        };
        let threads = self.config.threads;
        let tallies = fan_out(&self.push_sources, threads, PushTally::default, fold);
        let mut arrived: HashSet<String> = HashSet::new();
        for tally in tallies {
            self.stats.samples_pushed += tally.samples;
            self.stats.stream_failures += tally.failures;
            arrived.extend(tally.arrived);
        }
        self.stats.stream_pushes += 1;
        if !arrived.is_empty() {
            let before = self.rule_engine.total_evals();
            self.stats.rule_series_written +=
                self.rule_engine.tick_incremental(&self.tsdb, now, &arrived);
            self.stats.incremental_rule_evals += self.rule_engine.total_evals() - before;
        }
    }

    /// Submits a job by hand (examples/tests that do not use churn).
    pub fn submit(&self, req: JobRequest) -> Result<u64, ceems_slurm::sched::SubmitError> {
        let now = self.clock.now_ms();
        self.scheduler.lock().submit(req, now)
    }

    /// Advances the whole deployment by `dt_s` simulated seconds: cluster
    /// step → churn submissions → scheduler tick → scrape (on interval) →
    /// recording rules → updater poll.
    pub fn advance(&mut self, dt_s: f64) {
        self.cluster.step_all(dt_s, self.config.threads);
        let now = self.clock.now_ms();

        // Drive the failover state machine first, then re-point `tsdb` at
        // the elected leader so everything below this line (ingest, rules,
        // checkpoints, meta) already writes to the new route this step.
        if let Some(f) = &self.replication {
            let mut g = f.group.lock();
            g.tick(now);
            self.stats.tsdb_failovers = g.failovers();
            drop(g);
            if let Some(db) = f.router.leader_db() {
                if !Arc::ptr_eq(&db, &self.tsdb) {
                    self.tsdb = db;
                }
            }
        }

        if let Some(churn) = &mut self.churn {
            let reqs = churn.poll(now);
            let mut sched = self.scheduler.lock();
            for req in reqs {
                if sched.submit(req, now).is_ok() {
                    self.stats.jobs_submitted += 1;
                }
            }
        }
        self.scheduler.lock().tick(now);

        if self.schedule.scrape.due(now) {
            if self.stream_bus.is_some() {
                self.push_pass(now);
            } else {
                let s: ScrapeStats =
                    self.scrape_mgr.scrape_once(&self.tsdb, now, self.config.threads);
                self.stats.scrape_passes += 1;
                self.stats.samples_scraped += s.samples;
                self.stats.scrape_failures += s.failed;
            }
        }
        // In stream mode rule evaluation is event-driven: `push_pass` ticks
        // the affected sub-DAG as samples arrive, so the timer-driven full
        // tick only runs in pull mode.
        if self.stream_bus.is_none() && self.schedule.rules.due(now) {
            self.stats.rule_series_written += self.rule_engine.tick(&self.tsdb, now);
        }
        if self.schedule.update.due(now) && self.updater.lock().poll(now).is_ok() {
            self.stats.updater_polls += 1;
        }
        if self.tsdb.wal_enabled()
            && self.schedule.checkpoint.due(now)
            && self.tsdb.checkpoint().is_ok()
        {
            self.stats.wal_checkpoints += 1;
        }
        if let Some(meta) = &mut self.meta_mon {
            if self.schedule.meta.due(now) {
                let s: MetaScrapeStats = meta.scrape_once(&self.tsdb, now);
                self.stats.meta_passes += 1;
                self.stats.meta_samples += s.samples;
                self.stats.meta_failures += s.failed;
            }
        }
        if let Some(alertsrv) = &self.alertsrv {
            if self.schedule.alerts.due(now) {
                let s = alertsrv.tick(now);
                self.stats.alert_ticks += 1;
                self.stats.alert_notifications += s.notifications_sent as u64;
            }
        }
        // Trace-store GC every step: the age sweep stops at the first young
        // span and the byte re-check is O(1) when nothing is over bound.
        self.stats.traces_evicted += self.trace_sink.store().gc(now);
    }

    /// Runs the stack for `seconds` of simulated time in `step_s` slices.
    pub fn run_for(&mut self, seconds: f64, step_s: f64) {
        let steps = (seconds / step_s).ceil() as usize;
        for _ in 0..steps {
            self.advance(step_s);
        }
    }

    /// Sum of the latest per-job attributed power (W) across the cluster.
    ///
    /// Applies a staleness horizon of two rule intervals: finished jobs
    /// keep their last recorded sample forever in the TSDB, and counting
    /// those would overstate the live fleet draw (Prometheus handles the
    /// same problem with staleness markers).
    pub fn total_attributed_power(&self) -> f64 {
        let horizon =
            self.clock.now_ms() - 2 * (self.config.rule_interval_s * 1000.0) as i64 - 1000;
        // Restrict to units the scheduler currently runs: rate() windows
        // keep a finished job's series warm briefly after it retires, and
        // counting that tail would double-count with its successor.
        let running: std::collections::HashSet<String> = {
            let sched = self.scheduler.lock();
            sched
                .dbd()
                .all()
                .filter(|r| r.state == ceems_slurm::JobState::Running)
                .map(|r| r.uuid.clone())
                .collect()
        };
        self.tsdb
            .select_latest(&[ceems_metrics::matcher::LabelMatcher::eq(
                "__name__",
                "uuid:ceems_power:watts",
            )])
            .iter()
            .filter(|(l, s)| {
                s.t_ms >= horizon
                    && l.get("uuid").is_some_and(|u| running.contains(u))
            })
            .map(|(_, s)| s.v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::matcher::{LabelMatcher, MatchOp};
    use ceems_simnode::WorkloadProfile;

    fn cpu_job(user: &str, cores: usize) -> JobRequest {
        JobRequest {
            user: user.into(),
            account: "proj".into(),
            partition: "cpu-intel".into(),
            nodes: 1,
            cores_per_node: cores,
            memory_per_node: 16 << 30,
            gpus_per_node: 0,
            walltime_s: 7200,
            workload: WorkloadProfile::CpuBound { intensity: 0.9 },
        }
    }

    #[test]
    fn stack_builds_and_monitors_a_job() {
        let mut stack = CeemsStack::build_default();
        assert_eq!(stack.cluster.len(), 8);
        assert_eq!(stack.exporters.len(), 8);

        stack.submit(cpu_job("alice", 16)).unwrap();
        // 10 simulated minutes at 15 s steps.
        stack.run_for(600.0, 15.0);

        let st = stack.stats();
        assert!(st.scrape_passes >= 35, "passes={}", st.scrape_passes);
        assert_eq!(st.scrape_failures, 0);
        assert!(st.samples_scraped > 1000);
        assert!(st.rule_series_written > 0);
        assert!(st.updater_polls >= 9);

        // Raw job metrics flowed in.
        let cpu = stack.tsdb.select(
            &[
                LabelMatcher::eq("__name__", "ceems_compute_unit_cpu_user_seconds_total"),
                LabelMatcher::eq("uuid", "slurm-1"),
            ],
            0,
            i64::MAX,
        );
        assert_eq!(cpu.len(), 1);
        assert!(cpu[0].samples.last().unwrap().v > 100.0);

        // Eq. (1) produced attributed power for the job.
        let power = stack.tsdb.select_latest(&[
            LabelMatcher::eq("__name__", "uuid:ceems_power:watts"),
            LabelMatcher::eq("uuid", "slurm-1"),
        ]);
        assert_eq!(power.len(), 1);
        let w = power[0].1.v;
        // A 16-core hot job on a ~40-core node draws a substantial share.
        assert!(w > 30.0 && w < 500.0, "attributed {w} W");

        // API server has the unit with aggregates.
        let upd = stack.updater.lock();
        let rows = upd
            .db()
            .query(
                ceems_apiserver::schema::UNITS_TABLE,
                &ceems_relstore::Query::all(),
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        let energy = rows[0][ceems_apiserver::schema::unit_cols::ENERGY_KWH].as_real();
        assert!(energy.is_some(), "energy not filled: {rows:?}");
        assert!(energy.unwrap() > 0.0);
    }

    #[test]
    fn scrape_passes_after_the_first_ingest_by_series_id() {
        let mut stack = CeemsStack::build_default();
        stack.submit(cpu_job("alice", 16)).unwrap();
        stack.run_for(150.0, 15.0);

        let st = stack.stats();
        let ins = stack.tsdb.instruments();
        let (hits, misses) = (ins.series_ref_hits.get(), ins.series_ref_misses.get());
        // Every scraped sample and every `up` went through `append_refs`...
        assert_eq!(hits + misses, (st.samples_scraped + st.scrape_passes * 8) as f64);
        // ...and only the first of the eleven passes (and the lines the job
        // added when it started) went by label set.
        assert!(hits > 5.0 * misses, "hits {hits} misses {misses}");
        assert_eq!(ins.stale_ref_batches.get(), 0.0);

        let up = stack.tsdb.select(&[LabelMatcher::eq("__name__", "up")], 0, i64::MAX);
        assert_eq!(up.len(), 8);
        for s in &up {
            assert_eq!(s.samples.len() as u64, st.scrape_passes);
            assert!(s.samples.iter().all(|p| p.v == 1.0));
        }
    }

    /// The rule-plan counters as an operator reads them off the TSDB's
    /// registry: once a stack's series have settled every tick reuses every
    /// plan, and a job that starts extends the plans its series fall under
    /// without any plan being resolved again.
    #[test]
    fn steady_ticks_reuse_rule_plans_and_a_new_job_extends_them() {
        let mut stack = CeemsStack::build_default();
        stack.submit(cpu_job("alice", 16)).unwrap();
        stack.run_for(300.0, 15.0);
        let registry = stack
            .tsdb_api_options(Arc::new(|| 0))
            .registry
            .expect("registry wired");
        let counts = || {
            let parsed = ceems_metrics::parse_text(&registry.render()).unwrap();
            ["reused", "extended", "rebuilt"].map(|kind| {
                let name = format!("ceems_tsdb_rule_plan_{kind}_total");
                parsed
                    .samples
                    .iter()
                    .find(|s| s.name == name)
                    .unwrap()
                    .value
            })
        };
        let [reused, extended, rebuilt] = counts();
        assert!(rebuilt > 0.0, "the first tick builds every plan");

        stack.run_for(120.0, 15.0);
        let steady = counts();
        assert!(steady[0] > reused, "{steady:?}");
        assert_eq!(
            steady[1..],
            [extended, rebuilt],
            "nothing new, nothing resolved"
        );

        stack.submit(cpu_job("bob", 8)).unwrap();
        stack.run_for(120.0, 15.0);
        let [_, extended, rebuilt] = counts();
        assert!(extended > steady[1], "the new job's series extend plans");
        assert_eq!(rebuilt, steady[2], "and nothing is resolved again");
    }

    #[test]
    fn gpu_job_gets_gpu_power_attributed() {
        let mut stack = CeemsStack::build_default();
        stack
            .submit(JobRequest {
                user: "ml".into(),
                account: "proj".into(),
                partition: "gpu-a100".into(),
                nodes: 1,
                cores_per_node: 8,
                memory_per_node: 64 << 30,
                gpus_per_node: 4,
                walltime_s: 7200,
                workload: WorkloadProfile::GpuTraining {
                    intensity: 0.9,
                    period_s: 600.0,
                },
            })
            .unwrap();
        stack.run_for(300.0, 15.0);

        let comp = stack.tsdb.select_latest(&[
            LabelMatcher::eq("__name__", "uuid:ceems_power_component:watts"),
            LabelMatcher::eq("uuid", "slurm-1"),
            LabelMatcher::eq("component", "gpu"),
        ]);
        assert_eq!(comp.len(), 1);
        // 4 busy A100s: >1 kW of GPU power.
        assert!(comp[0].1.v > 1000.0, "gpu component {} W", comp[0].1.v);

        let total = stack.tsdb.select_latest(&[
            LabelMatcher::eq("__name__", "uuid:ceems_power:watts"),
            LabelMatcher::eq("uuid", "slurm-1"),
        ]);
        assert!(total[0].1.v > comp[0].1.v);
    }

    #[test]
    fn stream_mode_pushes_samples_and_matches_pull_mode() {
        let dir = |tag: &str| {
            std::env::temp_dir().join(format!(
                "ceems-streamstack-{tag}-{}-{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            ))
        };
        let push_dir = dir("push");
        let pull_dir = dir("pull");
        let stream_cfg = CeemsConfig {
            stream: crate::config::StreamSettings {
                enabled: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut push = CeemsStack::build(stream_cfg, &push_dir).unwrap();
        let mut pull = CeemsStack::build(CeemsConfig::default(), &pull_dir).unwrap();
        for stack in [&mut push, &mut pull] {
            stack.submit(cpu_job("alice", 16)).unwrap();
            stack.run_for(600.0, 15.0);
        }

        let st = push.stats();
        assert_eq!(st.scrape_passes, 0, "stream mode must not scrape");
        assert!(st.stream_pushes >= 35, "pushes={}", st.stream_pushes);
        assert!(st.samples_pushed > 1000);
        assert_eq!(st.stream_failures, 0);
        assert!(st.incremental_rule_evals > 0);
        assert!(st.rule_series_written > 0);
        let bus = push.stream_bus().expect("bus present in stream mode");
        assert_eq!(bus.stats().published, st.stream_pushes * 8);

        // Push-mode ingest lands the database a pull-mode run does, rule
        // outputs included: same labels, timestamps and value bits. Left out
        // are the scrape's `up` and the exporter's account of itself
        // (`ceems_exporter_*`: render wall time, payload bytes, samples per
        // render mode), which differs between any two runs. The push workers
        // create series in another order than the scrape, so the whole head
        // is compared.
        for stack in [&push, &pull] {
            let power = stack.tsdb.select_latest(&[
                LabelMatcher::eq("__name__", "uuid:ceems_power:watts"),
                LabelMatcher::eq("uuid", "slurm-1"),
            ]);
            assert_eq!(power.len(), 1);
        }
        let head = |stack: &CeemsStack| {
            let mut series: Vec<(String, Vec<(i64, u64)>)> = stack
                .tsdb
                .select(&[], 0, i64::MAX)
                .into_iter()
                .filter(|s| {
                    let name = s.labels.metric_name().unwrap_or_default();
                    name != "up" && !name.starts_with("ceems_exporter_")
                })
                .map(|s| {
                    let samples = s.samples.iter().map(|p| (p.t_ms, p.v.to_bits())).collect();
                    (s.labels.to_string(), samples)
                })
                .collect();
            series.sort();
            series
        };
        let (a, b) = (head(&push), head(&pull));
        assert!(a.len() > 100, "{} series", a.len());
        for (sa, sb) in a.iter().zip(&b) {
            assert_eq!(sa, sb);
        }
        assert_eq!(a.len(), b.len());
        std::fs::remove_dir_all(push_dir).ok();
        std::fs::remove_dir_all(pull_dir).ok();
    }

    /// Sources handed out one at a time and rule groups side by side change
    /// no answer: under churn, a stack at one worker and one at two record
    /// the same rule series, value bits and all, in pull and in push mode.
    #[test]
    fn one_worker_and_two_record_the_same_rule_series() {
        let rule_series = |stack: &CeemsStack| {
            let recorded = LabelMatcher::new("__name__", MatchOp::Re, ".+:.+").unwrap();
            let series = stack.tsdb.select(&[recorded], 0, i64::MAX).into_iter();
            let bits = series.map(|s| {
                let samples: Vec<(i64, u64)> =
                    s.samples.iter().map(|p| (p.t_ms, p.v.to_bits())).collect();
                (s.labels.to_string(), samples)
            });
            bits.collect::<std::collections::BTreeMap<_, _>>()
        };
        for stream in [false, true] {
            let run = |threads: usize| {
                let dir = std::env::temp_dir().join(format!(
                    "ceems-workers-{stream}-{threads}-{}",
                    std::process::id()
                ));
                let cfg = CeemsConfig {
                    churn: Some(crate::config::ChurnSettings {
                        users: 10,
                        projects: 3,
                        arrivals_per_hour: 400.0,
                    }),
                    stream: crate::config::StreamSettings {
                        enabled: stream,
                        ..Default::default()
                    },
                    threads,
                    query_threads: threads,
                    ..Default::default()
                };
                let mut stack = CeemsStack::build(cfg, &dir).unwrap();
                stack.run_for(600.0, 15.0);
                let out = (stack.stats(), rule_series(&stack));
                drop(stack);
                std::fs::remove_dir_all(dir).ok();
                out
            };
            let ((one, serial), (two, parallel)) = (run(1), run(2));
            assert!(one.scrape_passes + one.stream_pushes >= 20, "{one:?}");
            assert!(one.jobs_submitted > 0 && serial.len() > 50, "{one:?}");
            let written = [one, two].map(|st| (st.rule_series_written, st.incremental_rule_evals));
            assert_eq!(written[0], written[1], "stream {stream}");
            assert_eq!(serial.len(), parallel.len(), "stream {stream}");
            for ((a, sa), (b, sb)) in serial.iter().zip(&parallel) {
                assert_eq!((a, sa), (b, sb), "stream {stream}");
            }
        }
    }

    #[test]
    fn failover_reroutes_ingest_to_a_new_leader() {
        let dir = std::env::temp_dir().join(format!(
            "ceems-fostack-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let cfg = CeemsConfig {
            wal_dir: Some(dir.join("wal").to_string_lossy().into_owned()),
            failover: crate::config::FailoverSettings {
                enabled: true,
                replicas: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut stack = CeemsStack::build(cfg, &dir.join("db")).unwrap();
        stack.submit(cpu_job("alice", 16)).unwrap();
        stack.run_for(300.0, 15.0);

        let group = stack.replication_group().expect("failover enabled");
        {
            let g = group.lock();
            assert_eq!(g.epoch(), 1);
            assert_eq!(g.leader_id(), Some("node-0"));
        }
        let kill_ms = stack.clock.now_ms();
        group.lock().kill("node-0");
        stack.run_for(300.0, 15.0);

        {
            let g = group.lock();
            assert_eq!(g.leader_id(), Some("node-1"), "events: {:?}", g.events());
            assert_eq!(g.epoch(), 2);
        }
        assert_eq!(stack.stats().tsdb_failovers, 1);
        // `tsdb` re-pointed at the new leader, and ingest + rules kept
        // flowing: attributed power exists with post-kill timestamps.
        assert!(Arc::ptr_eq(
            &stack.tsdb,
            &group.lock().node_db("node-1").unwrap()
        ));
        let power = stack.tsdb.select_latest(&[
            LabelMatcher::eq("__name__", "uuid:ceems_power:watts"),
            LabelMatcher::eq("uuid", "slurm-1"),
        ]);
        assert_eq!(power.len(), 1);
        assert!(
            power[0].1.t_ms > kill_ms,
            "no post-failover rule writes: t={} kill={kill_ms}",
            power[0].1.t_ms
        );
        // The failover gauges ride the TSDB registry.
        let reg = stack
            .tsdb_api_options(Arc::new(|| 0))
            .registry
            .expect("registry wired");
        let text = reg.render();
        assert!(text.contains("ceems_tsdb_epoch 2"), "{text}");
        assert!(text.contains("ceems_tsdb_failovers_total 1"), "{text}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn churn_driven_stack_sustains_load() {
        let cfg = CeemsConfig {
            churn: Some(crate::config::ChurnSettings {
                users: 10,
                projects: 3,
                arrivals_per_hour: 400.0,
            }),
            ..Default::default()
        };
        let dir = std::env::temp_dir().join(format!(
            "ceems-churnstack-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let mut stack = CeemsStack::build(cfg, &dir).unwrap();
        stack.run_for(1800.0, 15.0);
        let st = stack.stats();
        assert!(st.jobs_submitted > 50, "submitted {}", st.jobs_submitted);
        let upd = stack.updater.lock();
        let n_units = upd
            .db()
            .table(ceems_apiserver::schema::UNITS_TABLE)
            .unwrap()
            .len();
        assert!(n_units > 50, "units {n_units}");
        drop(upd);
        assert!(stack.total_attributed_power() > 0.0);
        std::fs::remove_dir_all(dir).ok();
    }
}
