//! Self-scrape meta-monitoring (S22).
//!
//! The stack watches itself the same way it watches the cluster: every
//! component's own `/metrics` exposition is scraped on an interval and
//! ingested — through the normal ingest path — into a reserved
//! `__ceems_meta__` tenant of the stack's own TSDB. PromQL, the qfe cache
//! and the S21 alert rules then work over the stack's own health series
//! exactly as they do over job telemetry.
//!
//! Per target, every pass also writes three synthetic series:
//!
//! * `ceems_meta_up` — 1 when the target answered and parsed, else 0.
//! * `ceems_meta_scrape_duration_seconds` — wall time of the scrape.
//! * `ceems_meta_scrape_staleness_seconds` — seconds since the last
//!   successful scrape (0 while healthy; grows while a target is down).
//!
//! Targets are in-process render closures (the single-binary stack) or
//! HTTP URLs (components served behind real sockets, registered via
//! [`crate::CeemsStack::register_meta_target`]).

use std::sync::Arc;

use ceems_http::Client;
use ceems_tsdb::scrape::{fetch_exposition, SeriesCache, Stamp, TargetSource};
use ceems_tsdb::Tsdb;

/// The reserved tenant meta-monitoring series live under.
pub const META_TENANT: &str = "__ceems_meta__";

/// The `job` label stamped on every meta series.
pub const META_JOB: &str = "ceems-meta";

/// One component under self-scrape.
pub struct MetaTarget {
    /// `instance` label value.
    pub instance: String,
    /// Exposition source.
    pub source: TargetSource,
    /// The `tenant` and `component` labels stamped on every series.
    labels: Vec<(String, String)>,
    last_ok_ms: Option<i64>,
    cache: SeriesCache,
}

impl MetaTarget {
    fn new(component: &str, instance: &str, source: TargetSource) -> MetaTarget {
        MetaTarget {
            instance: instance.to_string(),
            source,
            labels: vec![
                ("tenant".to_string(), META_TENANT.to_string()),
                ("component".to_string(), component.to_string()),
            ],
            last_ok_ms: None,
            cache: SeriesCache::default(),
        }
    }

    /// An in-process target rendering its exposition via `f`; `component`
    /// is its `component` label value (`tsdb`, `lb`, `qfe`, ...).
    pub fn in_process(
        component: &str,
        instance: &str,
        f: Arc<dyn Fn() -> String + Send + Sync>,
    ) -> MetaTarget {
        MetaTarget::new(component, instance, TargetSource::InProcess(f))
    }

    /// An HTTP target scraping `url` (a full `/metrics` URL).
    pub fn http(component: &str, instance: &str, url: &str) -> MetaTarget {
        let source = TargetSource::Http {
            url: url.to_string(),
            auth: None,
        };
        MetaTarget::new(component, instance, source)
    }
}

/// Result of one meta pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetaScrapeStats {
    /// Targets that answered and parsed.
    pub ok: u64,
    /// Targets that were down or unparseable.
    pub failed: u64,
    /// Exposition samples ingested (excludes the synthetic health series).
    pub samples: u64,
}

/// Scrapes the stack's own components into the meta tenant of a TSDB.
pub struct MetaMonitor {
    targets: Vec<MetaTarget>,
    client: Client,
}

impl MetaMonitor {
    /// Creates a monitor over an initial target set.
    pub fn new(targets: Vec<MetaTarget>) -> MetaMonitor {
        MetaMonitor {
            targets,
            client: Client::new(),
        }
    }

    /// Registers another component (components served later, e.g. an LB or
    /// qfe bound to a real socket).
    pub fn add_target(&mut self, t: MetaTarget) {
        self.targets.push(t);
    }

    /// Scrapes every target once at simulated time `now_ms`.
    ///
    /// The handful of stack components doesn't warrant a thread fan-out the
    /// way 1,400 node exporters do, so this is a serial pass.
    pub fn scrape_once(&mut self, db: &Tsdb, now_ms: i64) -> MetaScrapeStats {
        let mut stats = MetaScrapeStats::default();
        for t in &mut self.targets {
            let started = std::time::Instant::now();
            let fetched = fetch_exposition(&self.client, &t.source);
            let duration_s = started.elapsed().as_secs_f64();
            let stamp = Stamp {
                instance: &t.instance,
                job: META_JOB,
                extra_labels: &t.labels,
            };
            // One pass over a target — its samples and its three health
            // series — is one group commit; a target that is down or does
            // not parse reports the health series alone.
            let health = |up: f64, staleness_s: f64| {
                [
                    ("ceems_meta_up", up),
                    ("ceems_meta_scrape_duration_seconds", duration_s),
                    ("ceems_meta_scrape_staleness_seconds", staleness_s),
                ]
            };
            let ingested = fetched.and_then(|body| {
                let got = t.cache.ingest(db, None, &body, stamp, now_ms, &health(1.0, 0.0))?;
                Ok(got.samples)
            });
            match ingested {
                Ok(samples) => {
                    stats.ok += 1;
                    stats.samples += samples;
                    t.last_ok_ms = Some(now_ms);
                }
                Err(_) => {
                    stats.failed += 1;
                    let staleness = t
                        .last_ok_ms
                        .map(|ok| (now_ms - ok).max(0) as f64 / 1000.0)
                        .unwrap_or(0.0);
                    t.cache
                        .ingest(db, None, "", stamp, now_ms, &health(0.0, staleness))
                        .expect("an empty body has no bad line and the write is unfenced");
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::matcher::LabelMatcher;

    fn render_target(component: &str, body: &'static str) -> MetaTarget {
        MetaTarget::in_process(
            component,
            &format!("{component}:0"),
            Arc::new(move || body.to_string()),
        )
    }

    #[test]
    fn meta_scrape_ingests_under_meta_tenant() {
        let db = Tsdb::default();
        let mut mon = MetaMonitor::new(vec![render_target(
            "tsdb",
            "# TYPE ceems_build_info gauge\nceems_build_info{component=\"tsdb\"} 1\ntsdb_head_series 42\n",
        )]);
        let s = mon.scrape_once(&db, 30_000);
        assert_eq!(s.ok, 1);
        assert_eq!(s.failed, 0);
        assert_eq!(s.samples, 2);

        let got = db.select(
            &[LabelMatcher::eq("__name__", "tsdb_head_series")],
            0,
            i64::MAX,
        );
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].labels.get("tenant"), Some(META_TENANT));
        assert_eq!(got[0].labels.get("component"), Some("tsdb"));
        assert_eq!(got[0].labels.get("job"), Some(META_JOB));

        let up = db.select(&[LabelMatcher::eq("__name__", "ceems_meta_up")], 0, i64::MAX);
        assert_eq!(up.len(), 1);
        assert_eq!(up[0].samples[0].v, 1.0);
        let dur = db.select(
            &[LabelMatcher::eq("__name__", "ceems_meta_scrape_duration_seconds")],
            0,
            i64::MAX,
        );
        assert_eq!(dur.len(), 1);
    }

    #[test]
    fn dead_target_drops_up_and_staleness_grows() {
        let db = Tsdb::default();
        let mut mon = MetaMonitor::new(vec![MetaTarget::http(
            "lb",
            "lb:0",
            "http://127.0.0.1:1/metrics",
        )]);
        // A healthy in-process target first, so last_ok is set.
        let alive = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let alive2 = alive.clone();
        let mut mon2 = MetaMonitor::new(vec![MetaTarget::in_process(
            "qfe",
            "qfe:0",
            Arc::new(move || {
                if alive2.load(std::sync::atomic::Ordering::SeqCst) {
                    "qfe_cache_hits_total 3\n".to_string()
                } else {
                    "{{{ dead".to_string()
                }
            }),
        )]);

        let s = mon.scrape_once(&db, 1000);
        assert_eq!(s.failed, 1);
        let up = db.select(
            &[
                LabelMatcher::eq("__name__", "ceems_meta_up"),
                LabelMatcher::eq("component", "lb"),
            ],
            0,
            i64::MAX,
        );
        assert_eq!(up[0].samples[0].v, 0.0);

        // Healthy, then killed: staleness counts up from the last success.
        assert_eq!(mon2.scrape_once(&db, 1000).ok, 1);
        alive.store(false, std::sync::atomic::Ordering::SeqCst);
        assert_eq!(mon2.scrape_once(&db, 31_000).failed, 1);
        assert_eq!(mon2.scrape_once(&db, 61_000).failed, 1);
        let stale = db.select(
            &[
                LabelMatcher::eq("__name__", "ceems_meta_scrape_staleness_seconds"),
                LabelMatcher::eq("component", "qfe"),
            ],
            0,
            i64::MAX,
        );
        let vals: Vec<f64> = stale[0].samples.iter().map(|s| s.v).collect();
        assert_eq!(vals, vec![0.0, 30.0, 60.0]);
    }

    #[test]
    fn unparseable_body_is_a_failure() {
        let db = Tsdb::default();
        let mut mon = MetaMonitor::new(vec![render_target("exporter", "{{{ nope")]);
        let s = mon.scrape_once(&db, 0);
        assert_eq!(s.failed, 1);
        assert_eq!(s.samples, 0);
    }
}
