//! What the window driver needs from a stack, and the traced driver.
//!
//! End-to-end numbers come from [`CeemsStack::advance`]. The traced run needs
//! a span around every layer call inside one cycle, and `advance` owns its
//! parts privately, so [`TracedStack`] assembles the same parts from the
//! crates' public constructors and calls them in `advance`'s order. That is a
//! mirror of `CeemsStack::build`/`advance` for the configuration the benchmark
//! uses (WAL, alerting and meta on; no churn, no failover); a traced run fails unless
//! it lands the same samples, series and rule outputs as `advance` does.

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ceems_alertsrv::{
    packs, AlertConfig, AlertRule, AlertService, LocalQuerySource, LogSink, NotificationSink,
    RoutingTree, RuleSet,
};
use ceems_apiserver::metrics_source::TsdbLocalSource;
use ceems_apiserver::rm::SlurmRmClient;
use ceems_apiserver::updater::{TsdbAdmin, Updater, UpdaterConfig};
use ceems_core::attribution::all_rule_groups;
use ceems_core::meta::{MetaMonitor, MetaTarget};
use ceems_core::{CeemsConfig, CeemsStack, NodeGroup};
use ceems_emissions::owid::OwidStatic;
use ceems_emissions::rte::RteSimulated;
use ceems_emissions::{EmissionProvider, LastKnownGood, ProviderChain};
use ceems_exporter::{CeemsExporter, ExporterConfig};
use ceems_metrics::labels::{LabelSetBuilder, METRIC_NAME_LABEL};
use ceems_obs::{TraceSampler, TraceSink, TraceStore, TraceStoreConfig};
use ceems_qfe::QfeConfig;
use ceems_relstore::Db;
use ceems_simnode::{SimClock, SimCluster};
use ceems_slurm::{JobRequest, Partition, Scheduler};
use ceems_stream::{PublishOutcome, SampleFrame, SinkReceipt, StreamBus, StreamBusConfig};
use ceems_tsdb::httpapi::{ApiOptions, NowFn, WalFetchLimiter};
use ceems_tsdb::rules::RuleEngine;
use ceems_tsdb::scrape::exposition_to_batch;
use ceems_tsdb::{FsyncMode, Tsdb, TsdbConfig, WalOptions, WalPosition};

use crate::trace::Tracer;

/// A stack the window driver can advance and read through.
pub trait Pipeline {
    /// One ingest cycle of `dt_s` simulated seconds.
    fn advance(&mut self, dt_s: f64);
    /// Submits a job at the current simulated time; `false` when the
    /// scheduler rejects it as unsatisfiable.
    fn submit(&mut self, req: JobRequest) -> bool;
    /// Names the cycle about to run (the identifier its spans share).
    fn set_cycle(&mut self, _cycle: u32) {}
    /// The simulated clock.
    fn clock(&self) -> &SimClock;
    /// The hot TSDB.
    fn tsdb(&self) -> &Arc<Tsdb>;
    /// The API-server updater (owns the units DB the LB authorizes against).
    fn updater(&self) -> &Arc<Mutex<Updater>>;
    /// The batch scheduler.
    fn scheduler(&self) -> &Arc<Mutex<Scheduler>>;
    /// The shared trace sink.
    fn trace_sink(&self) -> Arc<TraceSink>;
    /// `scrape_failures + stream_failures + meta_failures` so far.
    fn ingest_failures(&self) -> u64;
    /// Recording-rule series written so far; moves exactly on rule cycles.
    fn rule_series_written(&self) -> u64;
    /// TSDB API options wired to this stack.
    fn api_options(&self, now: NowFn) -> ApiOptions;
    /// Query-frontend configuration from the stack's settings.
    fn qfe_config(&self, now: ceems_qfe::NowFn) -> QfeConfig;
}

impl Pipeline for CeemsStack {
    fn advance(&mut self, dt_s: f64) {
        CeemsStack::advance(self, dt_s);
    }
    fn submit(&mut self, req: JobRequest) -> bool {
        CeemsStack::submit(self, req).is_ok()
    }
    fn clock(&self) -> &SimClock {
        &self.clock
    }
    fn tsdb(&self) -> &Arc<Tsdb> {
        &self.tsdb
    }
    fn updater(&self) -> &Arc<Mutex<Updater>> {
        &self.updater
    }
    fn scheduler(&self) -> &Arc<Mutex<Scheduler>> {
        &self.scheduler
    }
    fn trace_sink(&self) -> Arc<TraceSink> {
        CeemsStack::trace_sink(self)
    }
    fn ingest_failures(&self) -> u64 {
        let s = self.stats();
        s.scrape_failures + s.stream_failures + s.meta_failures
    }
    fn rule_series_written(&self) -> u64 {
        self.stats().rule_series_written
    }
    fn api_options(&self, now: NowFn) -> ApiOptions {
        self.tsdb_api_options(now)
    }
    fn qfe_config(&self, now: ceems_qfe::NowFn) -> QfeConfig {
        CeemsStack::qfe_config(self, now)
    }
}

/// WAL options as `CeemsStack::build` derives them from the configuration.
pub fn wal_options(cfg: &CeemsConfig) -> Result<WalOptions, String> {
    Ok(WalOptions {
        segment_bytes: cfg.wal_segment_bytes,
        fsync: FsyncMode::parse(&cfg.wal_fsync)
            .ok_or_else(|| format!("bad wal_fsync {:?}", cfg.wal_fsync))?,
    })
}

/// TSDB options as `CeemsStack::build` derives them from the configuration.
pub fn tsdb_config(cfg: &CeemsConfig) -> TsdbConfig {
    TsdbConfig {
        query_threads: cfg.query_threads,
        posting_cache_size: cfg.posting_cache_size,
        ..TsdbConfig::default()
    }
}

/// One exporter with the identity its samples are stamped with.
struct Target {
    exporter: Arc<CeemsExporter>,
    publisher: String,
    instance: String,
    extra_labels: Vec<(String, String)>,
    next_seq: u64,
}

/// Running totals the spans cannot carry.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounts {
    /// Exposition bytes rendered.
    pub render_bytes: u64,
    /// Samples parsed out of exposition text.
    pub parse_samples: u64,
    /// Bytes the WAL writer logged (checkpoint files not included).
    pub wal_bytes_logged: u64,
    /// Recording rules evaluated.
    pub rule_evals: u64,
    /// Alert rules evaluated.
    pub alert_rules_evaluated: u64,
}

/// The traced driver: `CeemsStack`'s parts, advanced with a span per layer
/// call.
pub struct TracedStack {
    clock: SimClock,
    cluster: SimCluster,
    scheduler: Arc<Mutex<Scheduler>>,
    tsdb: Arc<Tsdb>,
    updater: Arc<Mutex<Updater>>,
    alertsrv: Arc<AlertService>,
    targets: Vec<Target>,
    rule_engine: RuleEngine,
    trace_sink: Arc<TraceSink>,
    meta_mon: MetaMonitor,
    stream_bus: Option<Arc<StreamBus>>,
    config: CeemsConfig,
    last_scrape_ms: i64,
    last_rule_ms: i64,
    last_update_ms: i64,
    last_checkpoint_ms: i64,
    last_alert_ms: i64,
    last_meta_ms: i64,
    failures: u64,
    rule_series_written: u64,
    /// Spans land here.
    pub tracer: Arc<Tracer>,
    /// Cycle id stamped on spans; 0 during warm-up.
    cycle: u32,
    /// Span the sink's child spans hang under while a publish is in flight.
    publish_parent: Arc<AtomicU64>,
    render_bytes: Arc<AtomicU64>,
    parse_samples: Arc<AtomicU64>,
    alert_rules_evaluated: u64,
    wal_bytes_logged: u64,
    wal_pos: Option<WalPosition>,
}

fn emission_providers(cfg: &CeemsConfig) -> Result<Vec<Arc<dyn EmissionProvider>>, String> {
    let mut providers: Vec<Arc<dyn EmissionProvider>> = Vec::new();
    for name in &cfg.emission_providers {
        providers.push(match name.as_str() {
            "owid" => Arc::new(OwidStatic),
            "rte" => Arc::new(RteSimulated::default()),
            other => return Err(format!("traced driver does not mirror provider {other:?}")),
        });
    }
    if !providers.is_empty() {
        let chain = ProviderChain::new(providers.clone());
        providers.push(Arc::new(LastKnownGood::new(Arc::new(chain))));
    }
    Ok(providers)
}

impl TracedStack {
    /// Assembles the stack as `CeemsStack::build` does.
    pub fn build(
        config: CeemsConfig,
        db_dir: &Path,
        tracer: Arc<Tracer>,
    ) -> Result<TracedStack, String> {
        if config.failover.enabled
            || config.churn.is_some()
            || !config.alerting.enabled
            || !config.meta.enabled
        {
            return Err("traced driver mirrors the benchmark configuration only".into());
        }
        let clock = SimClock::new();
        let cluster = SimCluster::build(&config.cluster, clock.clone(), config.seed);

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
        let scheduler = Arc::new(Mutex::new(Scheduler::new(partitions, config.seed ^ 0x5eed)));

        let providers = emission_providers(&config)?;
        let mut targets = Vec::with_capacity(cluster.len());
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
            targets.push(Target {
                exporter,
                instance: format!("{hostname}:9100"),
                publisher: hostname,
                extra_labels: vec![("nodegroup".to_string(), group.label().to_string())],
                next_seq: 1,
            });
        }

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

        let wal_dir = config
            .wal_dir
            .as_ref()
            .ok_or("traced driver needs tsdb.wal_dir")?;
        let tsdb = Arc::new(
            Tsdb::open(
                Path::new(wal_dir),
                wal_options(&config)?,
                tsdb_config(&config),
            )
            .map_err(|e| format!("open WAL dir {wal_dir:?}: {e}"))?,
        );
        let rule_engine = RuleEngine::new(all_rule_groups(
            &config.rule_window,
            (config.rule_interval_s * 1000.0) as i64,
        ))
        .with_eval_threads(config.query_threads);

        let publish_parent = Arc::new(AtomicU64::new(0));
        let parse_samples = Arc::new(AtomicU64::new(0));
        let stream_bus = config.stream.enabled.then(|| {
            let sink_db = tsdb.clone();
            let (tr, parent, parsed) = (
                tracer.clone(),
                publish_parent.clone(),
                parse_samples.clone(),
            );
            let sink: ceems_stream::IngestSink = Arc::new(move |f: &SampleFrame| {
                // `publish_parent` packs (span id << 32 | cycle).
                let packed = parent.load(Ordering::Relaxed);
                let (pid, cycle) = ((packed >> 32) as u32, packed as u32);
                let batch = tr.span("metrics.parse", pid, cycle, || {
                    exposition_to_batch(
                        &f.body,
                        &f.instance,
                        &f.job,
                        &f.extra_labels,
                        f.produced_ms,
                    )
                })?;
                let names: std::collections::BTreeSet<String> = batch
                    .iter()
                    .filter_map(|(ls, _, _)| ls.metric_name().map(str::to_string))
                    .collect();
                let samples = batch.len() as u64;
                parsed.fetch_add(samples, Ordering::Relaxed);
                tr.span("tsdb.append", pid, cycle, || sink_db.append_batch(&batch));
                Ok(SinkReceipt {
                    samples,
                    names: names.into_iter().collect(),
                })
            });
            Arc::new(StreamBus::new(
                StreamBusConfig {
                    ring_capacity: config.stream.ring_capacity,
                    max_subscribers_per_tenant: config.stream.max_subscribers_per_tenant,
                },
                sink,
            ))
        });

        let admin: Arc<dyn TsdbAdmin> = Arc::new(tsdb.clone());
        let updater = Updater::new(
            Db::open(db_dir).map_err(|e| e.to_string())?,
            Arc::new(SlurmRmClient::new(scheduler.clone())),
            Arc::new(TsdbLocalSource::new(tsdb.clone())),
            Some(admin),
            UpdaterConfig {
                cleanup_cutoff_s: config.cleanup_cutoff_s,
                ..Default::default()
            },
        )
        .map_err(|e| e.to_string())?;

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
        let m = &config.meta;
        rules.push(packs::component_down(0));
        if m.stale_after_s > 0.0 {
            rules.push(packs::meta_scrape_stale(m.stale_after_s, 0));
        }
        if m.breaker_storm_opens > 0.0 {
            rules.push(packs::breaker_open_storm(m.breaker_storm_opens, 0));
        }
        if a.webhook_url.is_some() {
            return Err("traced driver does not mirror the webhook sink".into());
        }
        let sinks: Vec<Arc<dyn NotificationSink>> = vec![LogSink::new()];
        let lookback_ms =
            ((config.rule_interval_s + config.scrape_interval_s) * 2.0 * 1000.0) as i64;
        let alertsrv = Arc::new(
            AlertService::new(
                RuleSet::compile(rules),
                Arc::new(LocalQuerySource::new(tsdb.clone(), lookback_ms)),
                sinks,
                RoutingTree::new("log"),
                AlertConfig {
                    group_wait_ms: (a.group_wait_s * 1000.0) as i64,
                    group_interval_ms: (a.group_interval_s * 1000.0) as i64,
                    repeat_interval_ms: (a.repeat_interval_s * 1000.0) as i64,
                    resolved_retention_ms: (a.resolved_retention_s * 1000.0) as i64,
                    lookback_ms,
                },
                &db_dir.join("alertsrv"),
            )?
            .with_trace_sink(trace_sink.clone()),
        );

        let mut meta_targets: Vec<MetaTarget> = Vec::new();
        let reg = ceems_tsdb::selfmon::default_registry(tsdb.clone());
        ceems_obs::register_build_info(&reg, "tsdb");
        trace_store.register_metrics(&reg);
        meta_targets.push(MetaTarget::in_process(
            "tsdb",
            "tsdb:0",
            Arc::new(move || ceems_metrics::encode_families(&reg.gather())),
        ));
        let reg = alertsrv.registry();
        meta_targets.push(MetaTarget::in_process(
            "alertsrv",
            "alertsrv:0",
            Arc::new(move || ceems_metrics::encode_families(&reg.gather())),
        ));
        if let Some(t) = targets.first() {
            meta_targets.push(MetaTarget::in_process(
                "exporter",
                "exporter:0",
                t.exporter.render_fn(),
            ));
        }
        if let Some(bus) = &stream_bus {
            let reg = ceems_metrics::registry::Registry::new();
            bus.register_metrics(&reg);
            ceems_obs::register_build_info(&reg, "stream");
            meta_targets.push(MetaTarget::in_process(
                "stream",
                "stream:0",
                Arc::new(move || ceems_metrics::encode_families(&reg.gather())),
            ));
        }

        Ok(TracedStack {
            clock,
            cluster,
            scheduler,
            tsdb,
            updater: Arc::new(Mutex::new(updater)),
            alertsrv,
            targets,
            rule_engine,
            trace_sink,
            meta_mon: MetaMonitor::new(meta_targets),
            stream_bus,
            config,
            last_scrape_ms: i64::MIN / 2,
            last_rule_ms: i64::MIN / 2,
            last_update_ms: i64::MIN / 2,
            last_checkpoint_ms: 0,
            last_alert_ms: i64::MIN / 2,
            last_meta_ms: i64::MIN / 2,
            failures: 0,
            rule_series_written: 0,
            tracer,
            cycle: 0,
            publish_parent,
            render_bytes: Arc::new(AtomicU64::new(0)),
            parse_samples,
            alert_rules_evaluated: 0,
            wal_bytes_logged: 0,
            wal_pos: None,
        })
    }

    /// Totals accumulated since the stack was built.
    pub fn layer_counts(&self) -> LayerCounts {
        LayerCounts {
            render_bytes: self.render_bytes.load(Ordering::Relaxed),
            parse_samples: self.parse_samples.load(Ordering::Relaxed),
            wal_bytes_logged: self.wal_bytes_logged,
            rule_evals: self.rule_engine.total_evals(),
            alert_rules_evaluated: self.alert_rules_evaluated,
        }
    }

    /// Adds the bytes logged since the last call. A rotation (checkpoint or
    /// full segment) restarts the offset, so the new segment counts whole.
    fn account_wal(&mut self) {
        let now = self.tsdb.wal_position();
        if let (Some(a), Some(b)) = (self.wal_pos, now) {
            self.wal_bytes_logged += if a.seq == b.seq {
                b.offset.saturating_sub(a.offset)
            } else {
                b.offset
            };
        }
        self.wal_pos = now;
    }

    /// `ScrapeManager::scrape_once`, with the per-target steps spanned.
    fn scrape_pass(&mut self, now: i64, root: u32) {
        let (tr, cycle, db) = (&*self.tracer, self.cycle, &*self.tsdb);
        let (render_bytes, parse_samples) = (&*self.render_bytes, &*self.parse_samples);
        let failed = AtomicU64::new(0);
        let threads = self.config.threads.max(1);
        let chunk = self.targets.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            for targets in self.targets.chunks(chunk) {
                let failed = &failed;
                s.spawn(move || {
                    for t in targets {
                        let body = tr.span("exporter.render", root, cycle, || t.exporter.render());
                        render_bytes.fetch_add(body.len() as u64, Ordering::Relaxed);
                        let batch = tr.span("metrics.parse", root, cycle, || {
                            exposition_to_batch(&body, &t.instance, "ceems", &t.extra_labels, now)
                        });
                        let up = |v: f64| {
                            let mut b = LabelSetBuilder::new()
                                .label(METRIC_NAME_LABEL, "up")
                                .label("instance", &t.instance)
                                .label("job", "ceems");
                            for (k, val) in &t.extra_labels {
                                b = b.label(k, val);
                            }
                            db.append(&b.build(), now, v);
                        };
                        match batch {
                            Ok(batch) => {
                                parse_samples.fetch_add(batch.len() as u64, Ordering::Relaxed);
                                tr.span("tsdb.append", root, cycle, || {
                                    db.append_batch(&batch);
                                    up(1.0);
                                });
                            }
                            Err(_) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                                up(0.0);
                            }
                        }
                    }
                });
            }
        });
        self.failures += failed.load(Ordering::Relaxed);
    }

    /// `CeemsStack::push_pass`, spanned.
    fn push_pass(&mut self, now: i64, root: u32) {
        let Some(bus) = self.stream_bus.clone() else {
            return;
        };
        let (tr, cycle) = (self.tracer.clone(), self.cycle);
        let mut arrived: HashSet<String> = HashSet::new();
        for t in &mut self.targets {
            let body = tr.span("exporter.render", root, cycle, || {
                t.exporter.render_for_push()
            });
            self.render_bytes
                .fetch_add(body.len() as u64, Ordering::Relaxed);
            let frame = SampleFrame {
                topic: self.config.stream.topic.clone(),
                publisher: t.publisher.clone(),
                seq: t.next_seq,
                instance: t.instance.clone(),
                job: "ceems".to_string(),
                extra_labels: t.extra_labels.clone(),
                body,
                produced_ms: now,
            };
            let open = tr.begin("stream.publish", root, cycle);
            self.publish_parent.store(
                (u64::from(open.id) << 32) | u64::from(cycle),
                Ordering::Relaxed,
            );
            let outcome = bus.publish("anonymous", frame, now);
            tr.end(open);
            match outcome {
                Ok(PublishOutcome::Ingested { receipt, .. }) => {
                    t.next_seq += 1;
                    arrived.extend(receipt.names);
                }
                Ok(PublishOutcome::Duplicate { .. }) => t.next_seq += 1,
                Err(_) => self.failures += 1,
            }
        }
        if !arrived.is_empty() {
            self.rule_series_written += tr.span("tsdb.rules_tick", root, cycle, || {
                self.rule_engine.tick_incremental(&self.tsdb, now, &arrived)
            });
        }
    }
}

impl Pipeline for TracedStack {
    /// `CeemsStack::advance`, one span per layer call.
    fn advance(&mut self, dt_s: f64) {
        let (tr, cycle) = (self.tracer.clone(), self.cycle);
        let root_open = tr.begin("core.advance", 0, cycle);
        let root = root_open.id;
        let due = |last: i64, now: i64, interval_s: f64| now - last >= (interval_s * 1000.0) as i64;

        tr.span("simnode.step", root, cycle, || {
            self.cluster.step_all(dt_s, self.config.threads)
        });
        let now = self.clock.now_ms();

        tr.span("slurm.tick", root, cycle, || {
            self.scheduler.lock().tick(now)
        });

        if due(self.last_scrape_ms, now, self.config.scrape_interval_s) {
            self.last_scrape_ms = now;
            let open = tr.begin("core.ingest_pass", root, cycle);
            if self.stream_bus.is_some() {
                self.push_pass(now, open.id);
            } else {
                self.scrape_pass(now, open.id);
            }
            tr.end(open);
        }
        if self.stream_bus.is_none() && due(self.last_rule_ms, now, self.config.rule_interval_s) {
            self.last_rule_ms = now;
            self.rule_series_written += tr.span("tsdb.rules_tick", root, cycle, || {
                self.rule_engine.tick(&self.tsdb, now)
            });
        }
        if due(self.last_update_ms, now, self.config.updater_interval_s) {
            self.last_update_ms = now;
            // As in `advance`: a failed poll is skipped, not counted.
            let _ = tr.span("apiserver.updater_poll", root, cycle, || {
                self.updater.lock().poll(now)
            });
        }
        if due(
            self.last_checkpoint_ms,
            now,
            self.config.wal_checkpoint_interval_s,
        ) {
            self.last_checkpoint_ms = now;
            self.account_wal();
            // As in `advance`: a failed checkpoint only skips its counter.
            let _ = tr.span("tsdb.checkpoint", root, cycle, || self.tsdb.checkpoint());
            self.wal_pos = self.tsdb.wal_position();
        }
        if due(self.last_meta_ms, now, self.config.meta.scrape_interval_s) {
            self.last_meta_ms = now;
            let s = tr.span("core.meta_scrape", root, cycle, || {
                self.meta_mon.scrape_once(&self.tsdb, now)
            });
            self.failures += s.failed;
        }
        if due(
            self.last_alert_ms,
            now,
            self.config.alerting.eval_interval_s,
        ) {
            self.last_alert_ms = now;
            let s = tr.span("alertsrv.tick", root, cycle, || self.alertsrv.tick(now));
            self.alert_rules_evaluated += s.rules_evaluated as u64;
        }
        tr.span("obs.trace_gc", root, cycle, || {
            self.trace_sink.store().gc(now)
        });
        tr.end(root_open);
        self.account_wal();
    }

    fn submit(&mut self, req: JobRequest) -> bool {
        let now = self.clock.now_ms();
        self.scheduler.lock().submit(req, now).is_ok()
    }
    fn set_cycle(&mut self, cycle: u32) {
        self.cycle = cycle;
    }
    fn clock(&self) -> &SimClock {
        &self.clock
    }
    fn tsdb(&self) -> &Arc<Tsdb> {
        &self.tsdb
    }
    fn updater(&self) -> &Arc<Mutex<Updater>> {
        &self.updater
    }
    fn scheduler(&self) -> &Arc<Mutex<Scheduler>> {
        &self.scheduler
    }
    fn trace_sink(&self) -> Arc<TraceSink> {
        self.trace_sink.clone()
    }
    fn ingest_failures(&self) -> u64 {
        self.failures
    }
    fn rule_series_written(&self) -> u64 {
        self.rule_series_written
    }

    fn api_options(&self, now: NowFn) -> ApiOptions {
        let registry = ceems_tsdb::selfmon::default_registry(self.tsdb.clone());
        registry.register(
            "tsdb_rule_eval",
            Arc::new(self.rule_engine.eval_histogram()),
        );
        ApiOptions {
            now,
            registry: Some(registry),
            slow_query: None,
            wal_fetch_limit: Some(WalFetchLimiter::new(
                self.config.wal_fetch_rate_per_s,
                self.config.wal_fetch_burst,
            )),
            trace_sink: Some(self.trace_sink.clone()),
        }
    }

    fn qfe_config(&self, now: ceems_qfe::NowFn) -> QfeConfig {
        let q = &self.config.qfe;
        QfeConfig {
            split_interval_ms: (q.split_interval_s * 1000.0).max(1.0) as i64,
            cache_bytes: q.cache_bytes,
            recent_window_ms: (q.recent_window_s * 1000.0).max(0.0) as i64,
            scheduler: ceems_qfe::SchedulerConfig {
                tenant_queue_depth: q.tenant_queue_depth,
                max_tenant_concurrency: q.max_tenant_concurrency,
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
}
