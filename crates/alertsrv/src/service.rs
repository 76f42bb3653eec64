//! The alerting service: in-order rule evaluation, lifecycle, grouped delivery.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ceems_http::resilience::fnv1a;
use ceems_http::router::Router;
use ceems_http::types::{Response, Status};
use ceems_metrics::instruments::{Counter, CounterVec, GaugeVec, Histogram};
use ceems_metrics::labels::{LabelSetBuilder, METRIC_NAME_LABEL};
use ceems_metrics::matcher::LabelMatcher;
use ceems_metrics::registry::Registry;
use ceems_obs::trace::QueryTrace;
use ceems_obs::{add_metrics_route, trace, TraceSink};
use ceems_tsdb::promql::PreparedQuery;
use ceems_tsdb::{Tsdb, TsdbConfig};
use parking_lot::Mutex;

use crate::pipeline::RoutingTree;
use crate::query::{value_to_vector, QuerySource};
use crate::rules::{render_template, RuleSet, ALERTS_METRIC};
use crate::sink::{Notification, NotificationAlert, NotificationSink};
use crate::state::{
    matcher_from_json, matcher_json, AlertInstance, AlertState, AlertStore, GroupState, Silence,
};

/// Service timing knobs (all ms, sim clock).
#[derive(Clone, Debug)]
pub struct AlertConfig {
    /// How long after the first alert a new group waits before its first
    /// notification, letting related alerts batch.
    pub group_wait_ms: i64,
    /// Minimum spacing between notifications for a changed group.
    pub group_interval_ms: i64,
    /// Re-notification interval for an unchanged, still-firing group.
    pub repeat_interval_ms: i64,
    /// How long resolved alerts are retained (and notifiable) before GC.
    pub resolved_retention_ms: i64,
    /// Instant-selector lookback for rule evaluation.
    pub lookback_ms: i64,
}

impl Default for AlertConfig {
    fn default() -> AlertConfig {
        AlertConfig {
            group_wait_ms: 15_000,
            group_interval_ms: 60_000,
            repeat_interval_ms: 4 * 3_600_000,
            resolved_retention_ms: 300_000,
            lookback_ms: 45_000,
        }
    }
}

/// What one [`AlertService::tick`] did.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickStats {
    /// Rules evaluated.
    pub rules_evaluated: usize,
    /// Rule evaluations that errored (query failures included).
    pub eval_errors: usize,
    /// Alerts pending after the tick.
    pub pending: usize,
    /// Alerts firing after the tick.
    pub firing: usize,
    /// Notifications delivered.
    pub notifications_sent: usize,
    /// Deliveries that failed (will be retried).
    pub notifications_failed: usize,
    /// Alerts suppressed by silences this tick.
    pub silenced: usize,
}

struct Inner {
    store: AlertStore,
    alerts: BTreeMap<String, AlertInstance>,
    groups: BTreeMap<String, GroupState>,
    silences: BTreeMap<String, Silence>,
    /// In-memory `ALERTS` series store for meta-rules, holding only what
    /// a meta-rule can still read (see [`AlertService::new`]).
    alerts_db: Tsdb,
    /// One plan per rule, in rule order, kept from tick to tick: a rule's
    /// evaluation reads only what arrived since the last one.
    plans: Vec<PreparedQuery>,
    /// Ordered record of every delivery attempt, for determinism checks.
    notification_trace: Vec<serde_json::Value>,
}

/// The alerting service. Drive it with [`AlertService::tick`] on the sim
/// clock; share it behind an [`Arc`] to serve its HTTP API.
pub struct AlertService {
    rules: RuleSet,
    source: Arc<dyn QuerySource>,
    sinks: Vec<Arc<dyn NotificationSink>>,
    routing: RoutingTree,
    cfg: AlertConfig,
    registry: Registry,
    inner: Mutex<Inner>,
    eval_hist: Histogram,
    alerts_gauge: GaugeVec,
    notifications: CounterVec,
    eval_errors: Counter,
    trace_sink: Option<Arc<TraceSink>>,
}

impl AlertService {
    /// Builds a service with durable state under `state_dir`.
    ///
    /// Restart-safe: alerts, group notification times and silences load
    /// from the store, so an alert firing before a restart does not
    /// re-notify after it.
    ///
    /// The `ALERTS` samples meta-rules read are kept as far back as the
    /// farthest meta-rule selector reaches (`offset` plus its range, or the
    /// lookback for an instant selector) and dropped after that, so alerts
    /// that come and go under job churn do not pile up series.
    pub fn new(
        rules: RuleSet,
        source: Arc<dyn QuerySource>,
        sinks: Vec<Arc<dyn NotificationSink>>,
        routing: RoutingTree,
        cfg: AlertConfig,
        state_dir: &Path,
    ) -> Result<AlertService, String> {
        let store = AlertStore::open(state_dir)?;
        let alerts = store.load_alerts();
        let groups = store.load_groups();
        let silences = store.load_silences();
        let reach = (0..rules.rules.len())
            .filter(|&i| rules.is_meta(i))
            .flat_map(|i| rules.rules[i].expr.selectors())
            .map(|sel| sel.offset_ms + sel.range_ms.unwrap_or(cfg.lookback_ms))
            .max();
        let alerts_db = Tsdb::new(TsdbConfig {
            retention_ms: reach.unwrap_or(0),
            ..TsdbConfig::default()
        });
        let registry = Registry::new();
        let eval_hist = registry.histogram(
            "ceems_alertsrv_rule_eval_duration_seconds",
            "Wall time evaluating one alert rule.",
            Histogram::duration_buckets(),
        );
        let alerts_gauge = registry.gauge_vec(
            "ceems_alertsrv_alerts",
            "Current alerts by lifecycle state.",
            &["state"],
        );
        let notifications = registry.counter_vec(
            "ceems_alertsrv_notifications_total",
            "Notification pipeline outcomes.",
            &["outcome"],
        );
        let eval_errors = registry.counter(
            "ceems_alertsrv_rule_eval_failures_total",
            "Alert-rule evaluations that failed.",
        );
        ceems_obs::register_build_info(&registry, "alertsrv");
        let plans = rules.rules.iter().map(|_| PreparedQuery::default()).collect();
        Ok(AlertService {
            rules,
            source,
            sinks,
            routing,
            cfg,
            registry,
            inner: Mutex::new(Inner {
                store,
                alerts,
                groups,
                silences,
                alerts_db,
                plans,
                notification_trace: Vec::new(),
            }),
            eval_hist,
            alerts_gauge,
            notifications,
            eval_errors,
            trace_sink: None,
        })
    }

    /// Attaches a trace sink (S22): every tick's evaluation trace is
    /// offered to it; head sampling or tail (slow-tick) capture decides
    /// whether the trace is persisted.
    pub fn with_trace_sink(mut self, sink: Arc<TraceSink>) -> AlertService {
        self.trace_sink = Some(sink);
        self
    }

    /// The service's metrics registry (serve with
    /// [`ceems_obs::metrics_handler`] or [`Self::router`]).
    pub fn registry(&self) -> Registry {
        self.registry.clone()
    }

    /// Evaluates the rules in order, advances alert lifecycles, and drives
    /// grouped notification delivery. A meta-rule reads the `ALERTS` that
    /// earlier rules wrote this tick, and those of later rules from the
    /// tick before, within the lookback — Prometheus rule-group semantics.
    pub fn tick(&self, now_ms: i64) -> TickStats {
        let mut stats = TickStats::default();
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let qtrace = QueryTrace::begin(None);
        let _cur = trace::enter(Some(qtrace.clone()));

        // Expired silences drop out before evaluation.
        inner.silences.retain(|_, s| s.ends_ms > now_ms);
        inner.alerts_db.enforce_retention(now_ms);

        for (ri, rule) in self.rules.rules.iter().enumerate() {
            stats.rules_evaluated += 1;
            let stage = qtrace.stage("alert_eval");
            let t0 = Instant::now();
            let plan = &mut inner.plans[ri];
            let result = if self.rules.is_meta(ri) {
                plan.instant(&inner.alerts_db, &rule.expr, now_ms, self.cfg.lookback_ms)
                    .map_err(|e| e.to_string())
                    .and_then(value_to_vector)
            } else {
                self.source.query(&rule.expr_src, &rule.expr, now_ms, plan)
            };
            self.eval_hist.observe(t0.elapsed().as_secs_f64());
            stage.finish();

            let mut vector = match result {
                Ok(v) => v,
                Err(_) => {
                    // A failed evaluation neither fires nor resolves:
                    // existing alerts for the rule hold their state
                    // until data comes back.
                    stats.eval_errors += 1;
                    self.eval_errors.inc();
                    continue;
                }
            };
            vector.sort_by_key(|(labels, _)| labels.fingerprint());

            let mut seen: BTreeSet<String> = BTreeSet::new();
            for (series_labels, value) in vector {
                let mut b = LabelSetBuilder::from(series_labels.without(METRIC_NAME_LABEL))
                    .label("alertname", &rule.name);
                for (k, v) in &rule.labels {
                    b = b.label(k, v);
                }
                let labels = b.build();
                let fp = AlertInstance::fingerprint_of(&labels);
                // Label-fingerprint dedup: two rules (or one rule's
                // duplicate series) producing identical labels
                // collapse into one alert.
                if !seen.insert(fp.clone()) {
                    continue;
                }
                let firing_now = rule.for_ms == 0;
                let alert = inner
                    .alerts
                    .entry(fp.clone())
                    .or_insert_with(|| AlertInstance {
                        fingerprint: fp,
                        rule: rule.name.clone(),
                        labels,
                        state: AlertState::Resolved,
                        active_since_ms: now_ms,
                        firing_since_ms: None,
                        resolved_at_ms: None,
                        value,
                    });
                if alert.state == AlertState::Resolved {
                    // A new alert, or a re-violation after resolution: the
                    // hold starts now.
                    alert.state = if firing_now {
                        AlertState::Firing
                    } else {
                        AlertState::Pending
                    };
                    alert.active_since_ms = now_ms;
                    alert.firing_since_ms = firing_now.then_some(now_ms);
                    alert.resolved_at_ms = None;
                }
                alert.value = value;
                if alert.state == AlertState::Pending
                    && now_ms - alert.active_since_ms >= rule.for_ms
                {
                    alert.state = AlertState::Firing;
                    alert.firing_since_ms = Some(now_ms);
                }
            }

            // Series that stopped violating resolve; the rule's other
            // active alerts become ALERTS samples, so later meta-rules see
            // them at this tick.
            for a in inner.alerts.values_mut() {
                if a.rule != rule.name || a.state == AlertState::Resolved {
                    continue;
                }
                if !seen.contains(&a.fingerprint) {
                    a.state = AlertState::Resolved;
                    a.resolved_at_ms = Some(now_ms);
                    continue;
                }
                let ls = LabelSetBuilder::from(a.labels.clone())
                    .label(METRIC_NAME_LABEL, ALERTS_METRIC)
                    .label("alertstate", a.state.as_str())
                    .build();
                inner.alerts_db.append(&ls, now_ms, 1.0);
            }
        }

        // GC resolved alerts past retention.
        let retention = self.cfg.resolved_retention_ms;
        inner
            .alerts
            .retain(|_, a| a.resolved_at_ms.is_none_or(|t| now_ms - t < retention));

        self.notify(inner, now_ms, &mut stats);
        // One commit of what changed; a failed one is retried by the next
        // tick's, which diffs against what the store holds.
        let _ = inner
            .store
            .save(&inner.alerts, &inner.groups, &inner.silences);

        let count = |state| inner.alerts.values().filter(|a| a.state == state).count();
        stats.pending = count(AlertState::Pending);
        stats.firing = count(AlertState::Firing);
        for state in [
            AlertState::Pending,
            AlertState::Firing,
            AlertState::Resolved,
        ] {
            let gauge = self.alerts_gauge.with_label_values(&[state.as_str()]);
            gauge.set(count(state) as f64);
        }
        if let Some(sink) = &self.trace_sink {
            sink.offer("alertsrv", "tick", "system", &qtrace.report());
        }
        stats
    }

    /// Grouping, silence filtering, and timed delivery.
    fn notify(&self, inner: &mut Inner, now_ms: i64, stats: &mut TickStats) {
        // Firing and resolved alerts are notifiable; pending never is.
        // Silenced alerts drop out here but keep their lifecycle state.
        // Every alert's group key is live: a group dies once its alerts
        // are all GC'd.
        let mut live: BTreeSet<String> = BTreeSet::new();
        let mut groups: BTreeMap<String, (String, Vec<AlertInstance>)> = BTreeMap::new();
        for a in inner.alerts.values() {
            let (route, sink, group_by) = self.routing.route_for(&a.labels);
            let key = RoutingTree::group_key(route, &a.labels, group_by);
            live.insert(key.clone());
            if a.state == AlertState::Pending {
                continue;
            }
            if inner
                .silences
                .values()
                .any(|s| s.matches(&a.labels, now_ms))
            {
                stats.silenced += 1;
                self.notifications.with_label_values(&["silenced"]).inc();
                continue;
            }
            groups
                .entry(key)
                .or_insert_with(|| (sink.to_string(), Vec::new()))
                .1
                .push(a.clone());
        }

        for (key, (sink_name, mut alerts)) in groups {
            alerts.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
            let firing = alerts
                .iter()
                .filter(|a| a.state == AlertState::Firing)
                .count();
            let hash = {
                let body: Vec<String> = alerts
                    .iter()
                    .map(|a| format!("{}:{}", a.fingerprint, a.state.as_str()))
                    .collect();
                format!("{:016x}", fnv1a(body.join(",").as_bytes()))
            };
            let g = inner.groups.entry(key.clone()).or_insert(GroupState {
                key: key.clone(),
                sink: sink_name.clone(),
                first_active_ms: now_ms,
                last_notified_ms: None,
                next_attempt_ms: None,
                last_hash: String::new(),
            });
            let changed = g.last_hash != hash;
            if !changed && firing == 0 {
                // Resolution already delivered; the group dies once its
                // alerts are GC'd.
                continue;
            }
            let due = if let Some(na) = g.next_attempt_ms {
                // A failed delivery is pending; retry when the receiver
                // said to, not on the group timers.
                now_ms >= na
            } else {
                match g.last_notified_ms {
                    None => now_ms - g.first_active_ms >= self.cfg.group_wait_ms,
                    Some(last) => {
                        if changed {
                            now_ms - last >= self.cfg.group_interval_ms
                        } else {
                            firing > 0 && now_ms - last >= self.cfg.repeat_interval_ms
                        }
                    }
                }
            };
            if !due {
                if !changed && firing > 0 && g.last_notified_ms.is_some() {
                    self.notifications.with_label_values(&["deduped"]).inc();
                }
                continue;
            }

            let rendered: Vec<NotificationAlert> = alerts
                .iter()
                .map(|a| {
                    let annotations = self
                        .rules
                        .rules
                        .iter()
                        .find(|r| r.name == a.rule)
                        .map(|r| {
                            r.annotations
                                .iter()
                                .map(|(k, tpl)| {
                                    (k.clone(), render_template(tpl, &a.labels, a.value))
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    NotificationAlert::from_instance(a, annotations)
                })
                .collect();
            let n = Notification {
                group_key: key.clone(),
                status: if firing > 0 { "firing" } else { "resolved" }.to_string(),
                alerts: rendered,
                at_ms: now_ms,
            };
            let sink = self.sinks.iter().find(|s| s.name() == sink_name);
            let outcome = match sink {
                Some(sink) => sink.deliver(&n),
                None => Err(crate::sink::SinkError {
                    message: format!("no sink named {sink_name:?}"),
                    retry_after_ms: None,
                }),
            };
            match outcome {
                Ok(()) => {
                    stats.notifications_sent += 1;
                    self.notifications.with_label_values(&["sent"]).inc();
                    g.last_notified_ms = Some(now_ms);
                    g.last_hash = hash;
                    g.next_attempt_ms = None;
                    inner.notification_trace.push(serde_json::json!({
                        "t": now_ms,
                        "group": key,
                        "status": n.status,
                        "alerts": n.alerts.iter().map(|a| {
                            let m: BTreeMap<&str, &str> = a.labels.iter().collect();
                            serde_json::json!(m)
                        }).collect::<Vec<_>>(),
                        "sink": sink_name,
                        "outcome": "sent",
                    }));
                }
                Err(e) => {
                    stats.notifications_failed += 1;
                    self.notifications.with_label_values(&["failed"]).inc();
                    // Come back when told to, else at the next tick.
                    g.next_attempt_ms = Some(now_ms + e.retry_after_ms.unwrap_or(0).max(0));
                    inner.notification_trace.push(serde_json::json!({
                        "t": now_ms,
                        "group": key,
                        "status": n.status,
                        "sink": sink_name,
                        "outcome": "failed",
                    }));
                }
            }
            // Saved at once, not at the tick's end: a crash between two
            // deliveries must not send the first one again.
            let _ = inner.store.save_group(g);
        }

        inner.groups.retain(|k, _| live.contains(k));
    }

    /// Current alerts, sorted by fingerprint.
    pub fn alerts(&self) -> Vec<AlertInstance> {
        self.inner.lock().alerts.values().cloned().collect()
    }

    /// Active silences, sorted by id.
    pub fn silences(&self) -> Vec<Silence> {
        self.inner.lock().silences.values().cloned().collect()
    }

    /// Creates a silence; returns its (deterministic) id.
    pub fn add_silence(
        &self,
        matchers: Vec<LabelMatcher>,
        ends_ms: i64,
        comment: impl Into<String>,
    ) -> Result<String, String> {
        if matchers.is_empty() {
            return Err("silence needs at least one matcher".into());
        }
        let comment = comment.into();
        let mut key = String::new();
        for m in &matchers {
            key.push_str(&format!("{}{}{};", m.name, m.op.as_str(), m.value));
        }
        key.push_str(&ends_ms.to_string());
        let id = format!("s{:016x}", fnv1a(key.as_bytes()));
        let s = Silence {
            id: id.clone(),
            matchers,
            ends_ms,
            comment,
        };
        self.change_silences(|silences| silences.insert(id.clone(), s))?;
        Ok(id)
    }

    /// Removes a silence. Returns whether it existed (and the store
    /// forgot it).
    pub fn remove_silence(&self, id: &str) -> bool {
        self.change_silences(|silences| silences.remove(id).is_some())
            .unwrap_or(false)
    }

    /// Changes a copy of the silences and keeps it once the store holds it:
    /// a failed save leaves the silences as they were.
    fn change_silences<T>(
        &self,
        change: impl FnOnce(&mut BTreeMap<String, Silence>) -> T,
    ) -> Result<T, String> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let mut silences = inner.silences.clone();
        let out = change(&mut silences);
        inner.store.save(&inner.alerts, &inner.groups, &silences)?;
        inner.silences = silences;
        Ok(out)
    }

    /// Ordered record of every delivery attempt (sim time, group, alerts,
    /// outcome) — the determinism tests' ground truth.
    pub fn notification_trace(&self) -> Vec<serde_json::Value> {
        self.inner.lock().notification_trace.clone()
    }

    /// Compacts the durable store's WAL into a snapshot.
    pub fn checkpoint(&self) -> Result<(), String> {
        self.inner.lock().store.snapshot()
    }

    /// HTTP API: `/metrics`, `GET /api/v1/alerts`,
    /// `GET|POST /api/v1/silences`, `DELETE /api/v1/silences/{id}`.
    pub fn router(self: &Arc<Self>) -> Router {
        let mut router = Router::new();
        add_metrics_route(&mut router, self.registry());

        let svc = self.clone();
        router.get("/api/v1/alerts", move |_req| {
            let alerts: Vec<serde_json::Value> = svc
                .alerts()
                .iter()
                .map(|a| {
                    let labels: BTreeMap<&str, &str> = a.labels.iter().collect();
                    serde_json::json!({
                        "fingerprint": a.fingerprint,
                        "rule": a.rule,
                        "labels": labels,
                        "state": a.state.as_str(),
                        "activeSince": a.active_since_ms,
                        "value": a.value,
                    })
                })
                .collect();
            Response::json(
                serde_json::json!({"status": "success", "data": alerts}).to_string(),
            )
        });

        let svc = self.clone();
        router.get("/api/v1/silences", move |_req| {
            let silences: Vec<serde_json::Value> = svc
                .silences()
                .iter()
                .map(|s| {
                    serde_json::json!({
                        "id": s.id,
                        "matchers": s.matchers.iter().map(matcher_json).collect::<Vec<_>>(),
                        "endsAt": s.ends_ms,
                        "comment": s.comment,
                    })
                })
                .collect();
            Response::json(
                serde_json::json!({"status": "success", "data": silences}).to_string(),
            )
        });

        let svc = self.clone();
        router.post("/api/v1/silences", move |req| {
            let Ok(body) = serde_json::from_slice::<serde_json::Value>(&req.body) else {
                return Response::error(Status::BAD_REQUEST, "invalid JSON body");
            };
            let Some(ends_ms) = body["endsAt"].as_i64() else {
                return Response::error(Status::BAD_REQUEST, "missing endsAt (ms)");
            };
            let matchers = body["matchers"].as_array().into_iter().flatten();
            let matchers = match matchers.map(matcher_from_json).collect() {
                Ok(matchers) => matchers,
                Err(e) => return Response::error(Status::BAD_REQUEST, e),
            };
            let comment = body["comment"].as_str().unwrap_or("").to_string();
            match svc.add_silence(matchers, ends_ms, comment) {
                Ok(id) => Response::json(
                    serde_json::json!({"status": "success", "data": {"id": id}}).to_string(),
                ),
                Err(e) => Response::error(Status::BAD_REQUEST, e),
            }
        });

        let svc = self.clone();
        router.delete("/api/v1/silences/:id", move |req| {
            match req.path_param("id") {
                Some(id) if svc.remove_silence(id) => {
                    Response::json(r#"{"status":"success"}"#.to_string())
                }
                Some(_) => Response::error(Status::NOT_FOUND, "no such silence"),
                None => Response::error(Status::BAD_REQUEST, "missing id"),
            }
        });

        router
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packs;
    use crate::query::LocalQuerySource;
    use crate::rules::AlertRule;
    use crate::sink::LogSink;
    use ceems_metrics::labels;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "alertsrv-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).ok();
        dir
    }

    fn test_cfg() -> AlertConfig {
        AlertConfig {
            group_wait_ms: 0,
            group_interval_ms: 10_000,
            repeat_interval_ms: 1_000_000,
            resolved_retention_ms: 60_000,
            lookback_ms: 15_000,
        }
    }

    fn power_rule(for_ms: i64) -> AlertRule {
        AlertRule::new("HotNode", "power > 50", for_ms)
            .unwrap()
            .with_annotation("summary", "{{ $labels.instance }} at {{ $value }} W")
    }

    fn service_over(
        db: &Arc<Tsdb>,
        rules: Vec<AlertRule>,
        dir: &Path,
    ) -> (AlertService, Arc<LogSink>) {
        let sink = LogSink::new();
        let svc = AlertService::new(
            RuleSet::compile(rules),
            Arc::new(LocalQuerySource::new(db.clone(), 15_000)),
            vec![sink.clone()],
            RoutingTree::new("log"),
            test_cfg(),
            dir,
        )
        .unwrap();
        (svc, sink)
    }

    #[test]
    fn lifecycle_pending_firing_notify_resolve() {
        let db = Arc::new(Tsdb::default());
        let dir = tempdir("lifecycle");
        let (svc, sink) = service_over(&db, vec![power_rule(15_000)], &dir);
        let series = labels! {"__name__" => "power", "instance" => "n1"};

        db.append(&series, 10_000, 100.0);
        let s = svc.tick(10_000);
        assert_eq!((s.pending, s.firing), (1, 0));
        assert!(sink.delivered().is_empty(), "pending never notifies");

        db.append(&series, 20_000, 100.0);
        let s = svc.tick(20_000);
        assert_eq!((s.pending, s.firing), (1, 0), "hold not yet elapsed");

        db.append(&series, 30_000, 100.0);
        let s = svc.tick(30_000);
        assert_eq!((s.pending, s.firing), (0, 1));
        assert_eq!(s.notifications_sent, 1);
        let n = &sink.delivered()[0];
        assert_eq!(n.status, "firing");
        assert_eq!(n.alerts[0].annotations[0].1, "n1 at 100.0 W");

        // Unchanged group inside repeat_interval: deduped.
        db.append(&series, 40_000, 100.0);
        let s = svc.tick(40_000);
        assert_eq!(s.notifications_sent, 0);
        assert_eq!(sink.delivered().len(), 1);

        // Recovery resolves and notifies once.
        db.append(&series, 50_000, 10.0);
        let s = svc.tick(50_000);
        assert_eq!((s.pending, s.firing), (0, 0));
        assert_eq!(s.notifications_sent, 1);
        assert_eq!(sink.delivered()[1].status, "resolved");

        // Nothing more to say afterwards.
        db.append(&series, 60_000, 10.0);
        svc.tick(60_000);
        assert_eq!(sink.delivered().len(), 2);
    }

    #[test]
    fn silences_suppress_matching_alerts() {
        let db = Arc::new(Tsdb::default());
        let dir = tempdir("silence");
        let (svc, sink) = service_over(&db, vec![power_rule(0)], &dir);
        let series = labels! {"__name__" => "power", "instance" => "n1"};

        svc.add_silence(
            vec![LabelMatcher::eq("alertname", "HotNode")],
            25_000,
            "maintenance",
        )
        .unwrap();

        db.append(&series, 10_000, 100.0);
        let s = svc.tick(10_000);
        assert_eq!(s.firing, 1, "silence mutes delivery, not the lifecycle");
        assert_eq!(s.silenced, 1);
        assert!(sink.delivered().is_empty());

        // Silence expires → delivery resumes.
        db.append(&series, 30_000, 100.0);
        let s = svc.tick(30_000);
        assert_eq!(s.notifications_sent, 1);
        assert!(svc.silences().is_empty(), "expired silence got GC'd");
    }

    #[test]
    fn restart_does_not_renotify_an_unchanged_group() {
        let db = Arc::new(Tsdb::default());
        let dir = tempdir("restart");
        let series = labels! {"__name__" => "power", "instance" => "n1"};
        {
            let (svc, sink) = service_over(&db, vec![power_rule(0)], &dir);
            db.append(&series, 10_000, 100.0);
            let s = svc.tick(10_000);
            assert_eq!(s.notifications_sent, 1);
            assert_eq!(sink.delivered().len(), 1);
        }
        // New process, same state dir, alert still violating.
        let (svc, sink) = service_over(&db, vec![power_rule(0)], &dir);
        assert_eq!(svc.alerts().len(), 1, "alert state survived restart");
        db.append(&series, 20_000, 100.0);
        let s = svc.tick(20_000);
        assert_eq!(s.firing, 1);
        assert_eq!(s.notifications_sent, 0, "no duplicate after restart");
        assert!(sink.delivered().is_empty());
    }

    #[test]
    fn group_wait_counts_from_first_activity_across_a_restart() {
        let db = Arc::new(Tsdb::default());
        let dir = tempdir("group-wait");
        let series = labels! {"__name__" => "power", "instance" => "n1"};
        let start = || {
            let sink = LogSink::new();
            let svc = AlertService::new(
                RuleSet::compile(vec![power_rule(0)]),
                Arc::new(LocalQuerySource::new(db.clone(), 15_000)),
                vec![sink.clone()],
                RoutingTree::new("log"),
                AlertConfig {
                    group_wait_ms: 30_000,
                    ..test_cfg()
                },
                &dir,
            )
            .unwrap();
            (svc, sink)
        };
        let run = |svc: &AlertService, from: i64, to: i64| {
            for t in (from..=to).step_by(5_000) {
                db.append(&series, t, 100.0);
                svc.tick(t);
            }
        };
        let (svc, sink) = start();
        run(&svc, 10_000, 20_000);
        assert!(sink.delivered().is_empty(), "inside group_wait");
        drop(svc);
        // Restart at 25 s: the group's wait still counts from 10 s.
        let (svc, sink) = start();
        run(&svc, 25_000, 60_000);
        let sent: Vec<i64> = sink.delivered().iter().map(|n| n.at_ms).collect();
        assert_eq!(sent, [40_000]);
    }

    /// Bytes of the store's relstore WAL under `dir`.
    fn wal_bytes(dir: &Path) -> u64 {
        let segments = std::fs::read_dir(dir.join("wal")).unwrap();
        segments.map(|e| e.unwrap().metadata().unwrap().len()).sum()
    }

    #[test]
    fn a_tick_that_changes_nothing_writes_nothing() {
        let db = Arc::new(Tsdb::default());
        let dir = tempdir("quiet");
        let (svc, sink) = service_over(&db, vec![power_rule(0)], &dir);
        let series = labels! {"__name__" => "power", "instance" => "n1"};
        for t in [10_000, 20_000] {
            db.append(&series, t, 100.0);
            svc.tick(t);
        }
        assert_eq!(sink.delivered().len(), 1);
        let before = wal_bytes(&dir);
        db.append(&series, 30_000, 100.0);
        let s = svc.tick(30_000);
        assert_eq!((s.firing, s.notifications_sent), (1, 0));
        assert_eq!(wal_bytes(&dir), before);
    }

    /// Delivers to a log, or fails with the scripted `Retry-After`.
    struct FlakySink {
        log: Arc<LogSink>,
        down: Mutex<Option<Option<i64>>>,
    }

    impl NotificationSink for FlakySink {
        fn name(&self) -> &str {
            "log"
        }

        fn deliver(&self, n: &Notification) -> Result<(), crate::sink::SinkError> {
            match *self.down.lock() {
                Some(retry_after_ms) => Err(crate::sink::SinkError {
                    message: "down".into(),
                    retry_after_ms,
                }),
                None => self.log.deliver(n),
            }
        }
    }

    /// One tick of a schedule: how far the clock moves, each instance's
    /// power (none: no sample), a silence to add (instance, seconds), one
    /// to remove (index into the current ones) and whether the sink is
    /// down (with an optional `Retry-After`).
    #[derive(Debug)]
    struct Step {
        dt_s: i64,
        watts: (Option<u8>, Option<u8>, Option<u8>),
        silence: Option<(u8, i64)>,
        unsilence: Option<usize>,
        down: Option<Option<i64>>,
    }

    fn step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        let watts = || proptest::option::of(0u8..100);
        let down =
            prop_oneof![3 => Just(None), 1 => proptest::option::of(0i64..40_000).prop_map(Some)];
        (
            5i64..40,
            (watts(), watts(), watts()),
            proptest::option::of((0u8..3, 1i64..90)),
            proptest::option::of(0usize..3),
            down,
        )
            .prop_map(|(dt_s, watts, silence, unsilence, down)| Step {
                dt_s,
                watts,
                silence,
                unsilence,
                down,
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// After every tick, a store opened fresh on the service's
        /// directory loads exactly the service's alerts, groups and
        /// silences.
        #[test]
        fn the_store_mirrors_the_service_after_every_tick(
            steps in proptest::collection::vec(step(), 1..40),
            hold_s in 0i64..3,
        ) {
            let db = Arc::new(Tsdb::default());
            let dir = tempdir("mirror");
            let sink = Arc::new(FlakySink { log: LogSink::new(), down: Mutex::new(None) });
            let mut routing = RoutingTree::new("log");
            routing.group_by = vec!["alertname".into(), "instance".into()];
            let svc = AlertService::new(
                RuleSet::compile(vec![
                    power_rule(hold_s * 10_000),
                    AlertRule::new("WarmNode", "power > 20", 0).unwrap(),
                ]),
                Arc::new(LocalQuerySource::new(db.clone(), 15_000)),
                vec![sink.clone()],
                routing,
                test_cfg(),
                &dir,
            )
            .unwrap();
            let mut now = 0;
            for step in &steps {
                now += step.dt_s * 1_000;
                let (a, b, c) = step.watts;
                for (i, w) in [a, b, c].into_iter().enumerate() {
                    if let Some(w) = w {
                        let series = labels! {"__name__" => "power", "instance" => format!("n{i}")};
                        db.append(&series, now, f64::from(w));
                    }
                }
                if let Some((i, secs)) = step.silence {
                    let m = LabelMatcher::eq("instance", format!("n{i}"));
                    svc.add_silence(vec![m], now + secs * 1_000, "test").unwrap();
                }
                if let Some(k) = step.unsilence {
                    if let Some(s) = svc.silences().get(k) {
                        assert!(svc.remove_silence(&s.id));
                    }
                }
                *sink.down.lock() = step.down;
                svc.tick(now);

                let store = AlertStore::open(&dir).unwrap();
                let inner = svc.inner.lock();
                assert_eq!(format!("{:?}", store.load_alerts()), format!("{:?}", inner.alerts));
                assert_eq!(format!("{:?}", store.load_groups()), format!("{:?}", inner.groups));
                assert_eq!(
                    format!("{:?}", store.load_silences()),
                    format!("{:?}", inner.silences)
                );
            }
        }
    }

    #[test]
    fn meta_rules_see_same_tick_alerts() {
        let db = Arc::new(Tsdb::default());
        let dir = tempdir("meta");
        let meta = AlertRule::new("AnyNodeHot", "sum(ALERTS) > 0", 0).unwrap();
        let (svc, _sink) = service_over(&db, vec![power_rule(0), meta], &dir);

        db.append(&labels! {"__name__" => "power", "instance" => "n1"}, 10_000, 100.0);
        let s = svc.tick(10_000);
        assert_eq!(s.firing, 2, "meta-rule fired off the base rule's ALERTS");
        let names: Vec<String> = svc.alerts().iter().map(|a| a.rule.clone()).collect();
        assert!(names.contains(&"AnyNodeHot".to_string()));
    }

    #[test]
    fn a_meta_rule_reads_later_rules_from_the_tick_before() {
        let db = Arc::new(Tsdb::default());
        let dir = tempdir("order");
        let rules = vec![
            AlertRule::new("HotA", "power > 50", 0).unwrap(),
            AlertRule::new("Many", "count(ALERTS) > 1", 0).unwrap(),
            AlertRule::new("HotB", "power > 50", 0).unwrap(),
        ];
        let (svc, _sink) = service_over(&db, rules, &dir);
        let series = labels! {"__name__" => "power", "instance" => "n1"};
        let fired = |svc: &AlertService| {
            let mut names: Vec<String> = svc.alerts().iter().map(|a| a.rule.clone()).collect();
            names.sort();
            names
        };

        db.append(&series, 10_000, 100.0);
        svc.tick(10_000);
        assert_eq!(fired(&svc), ["HotA", "HotB"], "Many saw only HotA's ALERTS");

        db.append(&series, 20_000, 100.0);
        svc.tick(20_000);
        assert_eq!(
            fired(&svc),
            ["HotA", "HotB", "Many"],
            "and HotB's from the tick before"
        );
    }

    #[test]
    fn alerts_store_stays_bounded_under_churn_and_meta_rules_read_the_same() {
        let db = Arc::new(Tsdb::default());
        let rules = || {
            vec![
                AlertRule::new("JobHot", "power > 50", 0).unwrap(),
                AlertRule::new("ManyHot", "count(ALERTS) > 2", 0).unwrap(),
                AlertRule::new(
                    "HotLately",
                    "count(count_over_time(ALERTS{alertname=\"JobHot\"}[1m] offset 30s)) > 3",
                    0,
                )
                .unwrap(),
            ]
        };
        let (bounded, _) = service_over(&db, rules(), &tempdir("churn-bounded"));
        let (unbounded, _) = service_over(&db, rules(), &tempdir("churn-unbounded"));
        // The default 30-day retention: nothing ever ages out.
        unbounded.inner.lock().alerts_db = Tsdb::default();
        let view = |svc: &AlertService| format!("{:?}", svc.alerts());
        let mut most = 0;
        for tick in 0..200i64 {
            let now = 15_000 * (tick + 1);
            // A new job every tick, each running hot for three ticks.
            for job in (tick - 2).max(0)..=tick {
                let series = labels! {"__name__" => "power", "uuid" => format!("job-{job}")};
                db.append(&series, now, 100.0 + job as f64);
            }
            let (b, u) = (bounded.tick(now), unbounded.tick(now));
            assert_eq!(
                (b.pending, b.firing, b.eval_errors),
                (u.pending, u.firing, u.eval_errors)
            );
            assert_eq!(view(&bounded), view(&unbounded), "tick {tick}");
            most = most.max(bounded.inner.lock().alerts_db.series_count());
        }
        assert!(view(&bounded).contains("HotLately") && view(&bounded).contains("ManyHot"));
        assert_eq!(bounded.notification_trace(), unbounded.notification_trace());
        assert!(unbounded.inner.lock().alerts_db.series_count() >= 200);
        // 90 s of reach at one job per 15 s tick, plus the meta alerts.
        assert!(most <= 16, "the ALERTS store grew to {most} series");
    }

    #[test]
    fn packs_evaluate_against_recording_rule_output() {
        let db = Arc::new(Tsdb::default());
        let dir = tempdir("packs");
        let (svc, sink) =
            service_over(&db, vec![packs::energy_budget(900.0, 0)], &dir);
        db.append(
            &labels! {"__name__" => "uuid:ceems_power:watts", "uuid" => "job-1", "instance" => "n1"},
            5_000,
            600.0,
        );
        db.append(
            &labels! {"__name__" => "uuid:ceems_power:watts", "uuid" => "job-1", "instance" => "n2"},
            5_000,
            600.0,
        );
        db.append(
            &labels! {"__name__" => "uuid:ceems_power:watts", "uuid" => "job-2", "instance" => "n1"},
            5_000,
            100.0,
        );
        let s = svc.tick(5_000);
        assert_eq!(s.firing, 1, "only job-1 exceeds 900 W summed");
        let n = &sink.delivered()[0];
        assert!(n.alerts[0].annotations[0].1.contains("job-1"));
        assert_eq!(n.alerts[0].value, 1200.0);
    }
}
