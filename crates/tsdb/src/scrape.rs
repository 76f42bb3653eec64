//! The scrape manager.
//!
//! Pulls exporters on an interval and ingests their samples with target
//! labels (`instance`, `job`, plus per-group extra labels — the paper's
//! "scrape target groups" that let different node families get different
//! recording rules). Targets can be HTTP endpoints (the real path) or
//! in-process closures (used for the 1,400-node simulation, where spinning
//! up 1,400 OS sockets would measure the kernel, not CEEMS).

use std::sync::Arc;

use ceems_http::auth::BasicAuth;
use ceems_http::Client;
use ceems_metrics::labels::{LabelSetBuilder, METRIC_NAME_LABEL};
use ceems_metrics::parse::parse_text;

use crate::storage::Tsdb;

/// Where a target's exposition text comes from.
#[derive(Clone)]
pub enum TargetSource {
    /// Scrape over HTTP.
    Http {
        /// Full URL of the metrics endpoint.
        url: String,
        /// Optional basic auth.
        auth: Option<BasicAuth>,
    },
    /// Call a closure returning exposition text (in-process exporter).
    InProcess(Arc<dyn Fn() -> String + Send + Sync>),
}

/// One scrape target.
#[derive(Clone)]
pub struct ScrapeTarget {
    /// `instance` label value (hostname:port on real deployments).
    pub instance: String,
    /// `job` label value.
    pub job: String,
    /// Extra labels stamped on every sample (the target-group labels §III
    /// uses to pick recording rules, e.g. `nodegroup="intel-dram"`).
    pub extra_labels: Vec<(String, String)>,
    /// Text source.
    pub source: TargetSource,
}

/// Result of one scrape pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrapeStats {
    /// Targets scraped successfully.
    pub ok: u64,
    /// Targets that failed (down or parse error).
    pub failed: u64,
    /// Samples ingested.
    pub samples: u64,
}

/// Scrapes a set of targets into a TSDB.
pub struct ScrapeManager {
    targets: Vec<ScrapeTarget>,
    client: Client,
}

impl ScrapeManager {
    /// Creates a manager.
    pub fn new(targets: Vec<ScrapeTarget>) -> ScrapeManager {
        ScrapeManager {
            targets,
            client: Client::new(),
        }
    }

    /// Target count.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Adds a target.
    pub fn add_target(&mut self, t: ScrapeTarget) {
        self.targets.push(t);
    }

    /// Scrapes every target once at simulated time `now_ms`, fanning out
    /// over `threads` OS threads. Ingests an `up` gauge per target.
    pub fn scrape_once(&self, db: &Tsdb, now_ms: i64, threads: usize) -> ScrapeStats {
        use std::sync::atomic::{AtomicU64, Ordering};
        let ok = AtomicU64::new(0);
        let failed = AtomicU64::new(0);
        let samples = AtomicU64::new(0);

        let threads = threads.max(1);
        let chunk = self.targets.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            for targets in self.targets.chunks(chunk) {
                let (ok, failed, samples) = (&ok, &failed, &samples);
                let client = &self.client;
                s.spawn(move || {
                    for t in targets {
                        match scrape_target(client, t, db, now_ms) {
                            Ok(n) => {
                                ok.fetch_add(1, Ordering::Relaxed);
                                samples.fetch_add(n, Ordering::Relaxed);
                            }
                            Err(_) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                                ingest_up(db, t, now_ms, 0.0);
                            }
                        }
                    }
                });
            }
        });
        ScrapeStats {
            ok: ok.load(Ordering::Relaxed),
            failed: failed.load(Ordering::Relaxed),
            samples: samples.load(Ordering::Relaxed),
        }
    }
}

fn ingest_up(db: &Tsdb, target: &ScrapeTarget, now_ms: i64, v: f64) {
    let mut b = LabelSetBuilder::new()
        .label(METRIC_NAME_LABEL, "up")
        .label("instance", &target.instance)
        .label("job", &target.job);
    for (k, val) in &target.extra_labels {
        b = b.label(k, val);
    }
    db.append(&b.build(), now_ms, v);
}

/// Parses exposition text into an ingestable batch with target labels
/// stamped — the exact transformation a scrape pass applies. Public so the
/// S23 push path (exporters publishing over the stream bus) produces
/// series byte-identical to poll-mode scraping of the same payload.
pub fn exposition_to_batch(
    body: &str,
    instance: &str,
    job: &str,
    extra_labels: &[(String, String)],
    now_ms: i64,
) -> Result<Vec<(ceems_metrics::labels::LabelSet, i64, f64)>, String> {
    let parsed = parse_text(body).map_err(|e| e.to_string())?;
    let mut batch = Vec::with_capacity(parsed.samples.len());
    for s in parsed.samples {
        let mut b = LabelSetBuilder::from(s.labels)
            .label(METRIC_NAME_LABEL, &s.name)
            .label("instance", instance)
            .label("job", job);
        for (k, v) in extra_labels {
            b = b.label(k, v);
        }
        batch.push((b.build(), s.timestamp_ms.unwrap_or(now_ms), s.value));
    }
    Ok(batch)
}

/// Fetches one target's exposition text: calls the in-process closure, or
/// GETs the URL (with the target's basic auth) and requires a 2xx.
pub fn fetch_exposition(client: &Client, source: &TargetSource) -> Result<String, String> {
    match source {
        TargetSource::InProcess(f) => Ok(f()),
        TargetSource::Http { url, auth } => {
            let c = match auth {
                Some(a) => client.clone().with_basic_auth(a.clone()),
                None => client.clone(),
            };
            let resp = c.get(url).map_err(|e| e.to_string())?;
            if !resp.status.is_success() {
                return Err(format!("scrape returned {}", resp.status.0));
            }
            Ok(resp.body_string())
        }
    }
}

fn scrape_target(
    client: &Client,
    target: &ScrapeTarget,
    db: &Tsdb,
    now_ms: i64,
) -> Result<u64, String> {
    let body = fetch_exposition(client, &target.source)?;
    // One target pass becomes one batch: with a WAL attached this is one
    // group commit (one writer lock + one flush) instead of one per sample.
    let batch = exposition_to_batch(
        &body,
        &target.instance,
        &target.job,
        &target.extra_labels,
        now_ms,
    )?;
    let n = batch.len() as u64;
    db.append_batch(&batch);
    ingest_up(db, target, now_ms, 1.0);
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_http::{HttpServer, Response, Router, ServerConfig};
    use ceems_metrics::matcher::LabelMatcher;

    fn in_process_target(instance: &str, body: &'static str) -> ScrapeTarget {
        ScrapeTarget {
            instance: instance.to_string(),
            job: "ceems".to_string(),
            extra_labels: vec![("nodegroup".to_string(), "intel-dram".to_string())],
            source: TargetSource::InProcess(Arc::new(move || body.to_string())),
        }
    }

    #[test]
    fn in_process_scrape_ingests_with_target_labels() {
        let db = Tsdb::default();
        let mgr = ScrapeManager::new(vec![
            in_process_target("n1", "power_watts 250\nmem_bytes 1024\n"),
            in_process_target("n2", "power_watts 300\n"),
        ]);
        let stats = mgr.scrape_once(&db, 15_000, 2);
        assert_eq!(stats.ok, 2);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.samples, 3);

        let got = db.select(&[LabelMatcher::eq("__name__", "power_watts")], 0, i64::MAX);
        assert_eq!(got.len(), 2);
        for s in &got {
            assert_eq!(s.labels.get("job"), Some("ceems"));
            assert_eq!(s.labels.get("nodegroup"), Some("intel-dram"));
            assert_eq!(s.samples[0].t_ms, 15_000);
        }
        // up series written.
        let up = db.select(&[LabelMatcher::eq("__name__", "up")], 0, i64::MAX);
        assert_eq!(up.len(), 2);
        assert!(up.iter().all(|s| s.samples[0].v == 1.0));
    }

    #[test]
    fn http_scrape_end_to_end() {
        let mut router = Router::new();
        router.get("/metrics", |_| {
            Response::text("# TYPE rapl_joules_total counter\nrapl_joules_total{package=\"0\"} 12345.5\n")
        });
        let server = HttpServer::serve(ServerConfig::ephemeral(), router).unwrap();
        let db = Tsdb::default();
        let mgr = ScrapeManager::new(vec![ScrapeTarget {
            instance: "n1".into(),
            job: "ceems".into(),
            extra_labels: vec![],
            source: TargetSource::Http {
                url: format!("{}/metrics", server.base_url()),
                auth: None,
            },
        }]);
        let stats = mgr.scrape_once(&db, 1000, 1);
        assert_eq!(stats.ok, 1);
        assert_eq!(stats.samples, 1);
        let got = db.select(&[LabelMatcher::eq("__name__", "rapl_joules_total")], 0, i64::MAX);
        assert_eq!(got[0].labels.get("package"), Some("0"));
        server.shutdown();
    }

    #[test]
    fn failed_target_marks_up_zero() {
        let db = Tsdb::default();
        let mgr = ScrapeManager::new(vec![ScrapeTarget {
            instance: "dead".into(),
            job: "ceems".into(),
            extra_labels: vec![],
            source: TargetSource::Http {
                url: "http://127.0.0.1:1/metrics".into(),
                auth: None,
            },
        }]);
        let stats = mgr.scrape_once(&db, 1000, 1);
        assert_eq!(stats.failed, 1);
        let up = db.select(&[LabelMatcher::eq("__name__", "up")], 0, i64::MAX);
        assert_eq!(up[0].samples[0].v, 0.0);
    }

    #[test]
    fn authenticated_scrape() {
        let auth = BasicAuth::new("prom", "pw");
        let mut router = Router::new();
        router.get("/metrics", |_| Response::text("m 1\n"));
        let server = HttpServer::serve(
            ServerConfig::ephemeral().with_basic_auth(auth.clone()),
            router,
        )
        .unwrap();
        let db = Tsdb::default();
        // Without credentials: fail.
        let mgr = ScrapeManager::new(vec![ScrapeTarget {
            instance: "n1".into(),
            job: "j".into(),
            extra_labels: vec![],
            source: TargetSource::Http {
                url: format!("{}/metrics", server.base_url()),
                auth: None,
            },
        }]);
        assert_eq!(mgr.scrape_once(&db, 0, 1).failed, 1);
        // With credentials: succeed.
        let mgr = ScrapeManager::new(vec![ScrapeTarget {
            instance: "n1".into(),
            job: "j".into(),
            extra_labels: vec![],
            source: TargetSource::Http {
                url: format!("{}/metrics", server.base_url()),
                auth: Some(auth),
            },
        }]);
        assert_eq!(mgr.scrape_once(&db, 0, 1).ok, 1);
        server.shutdown();
    }

    #[test]
    fn malformed_body_counts_as_failure() {
        let db = Tsdb::default();
        let mgr = ScrapeManager::new(vec![in_process_target("n1", "{{{ not metrics")]);
        let stats = mgr.scrape_once(&db, 0, 1);
        assert_eq!(stats.failed, 1);
    }
}
