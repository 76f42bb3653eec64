//! The scrape manager and the ingest path every exposition source shares.
//!
//! Pulls exporters on an interval and ingests their samples with target
//! labels (`instance`, `job`, plus per-group extra labels — the paper's
//! "scrape target groups" that let different node families get different
//! recording rules). Targets can be HTTP endpoints (the real path) or
//! in-process closures (used for the 1,400-node simulation, where spinning
//! up 1,400 OS sockets would measure the kernel, not CEEMS).
//!
//! Text becomes samples in one place, [`SeriesCache::ingest`]: a scrape
//! target, a stream publisher and a meta target each own a cache, so a line
//! the source also exposed last time reaches the head by series id without
//! a label set being built.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use ceems_http::auth::BasicAuth;
use ceems_http::Client;
use ceems_metrics::labels::{LabelSet, LabelSetBuilder, METRIC_NAME_LABEL};
use ceems_metrics::parse::{parse_sample_rest, parse_series, sample_lines, series_text_len};

use crate::fan_out;
use crate::storage::{RefError, RefToken, SeriesRef, Tsdb};
use crate::types::SeriesId;

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
    /// Each target with the series cache of its exposition.
    targets: Vec<(ScrapeTarget, Mutex<SeriesCache>)>,
    client: Client,
}

impl ScrapeManager {
    /// Creates a manager.
    pub fn new(targets: Vec<ScrapeTarget>) -> ScrapeManager {
        ScrapeManager {
            targets: targets.into_iter().map(|t| (t, Mutex::default())).collect(),
            client: Client::new(),
        }
    }

    /// Adds a target.
    pub fn add_target(&mut self, t: ScrapeTarget) {
        self.targets.push((t, Mutex::default()));
    }

    /// Scrapes every target once at simulated time `now_ms`, the targets
    /// handed out one at a time to `threads` workers ([`crate::fan_out`]).
    /// Ingests an `up` gauge per target.
    pub fn scrape_once(&self, db: &Tsdb, now_ms: i64, threads: usize) -> ScrapeStats {
        let scrape = |stats: &mut ScrapeStats, (t, cache): &(ScrapeTarget, Mutex<SeriesCache>)| {
            match scrape_target(&self.client, t, &mut cache.lock(), db, now_ms) {
                Ok(n) => {
                    stats.ok += 1;
                    stats.samples += n;
                }
                Err(_) => stats.failed += 1,
            }
        };
        let stats = fan_out(&self.targets, threads, ScrapeStats::default, scrape);
        stats.into_iter().fold(ScrapeStats::default(), |a, b| ScrapeStats {
            ok: a.ok + b.ok,
            failed: a.failed + b.failed,
            samples: a.samples + b.samples,
        })
    }
}

/// The target labels stamped on every sample of one source.
#[derive(Clone, Copy, Debug)]
pub struct Stamp<'a> {
    /// `instance` label value.
    pub instance: &'a str,
    /// `job` label value.
    pub job: &'a str,
    /// Extra labels (a scrape group's, a meta target's).
    pub extra_labels: &'a [(String, String)],
}

impl Stamp<'_> {
    /// The label set of the series an exposed `name{labels}` is stored as;
    /// target labels win over exposed ones of the same name.
    fn series(&self, name: &str, labels: LabelSet) -> LabelSet {
        let mut b = LabelSetBuilder::from(labels)
            .label(METRIC_NAME_LABEL, name)
            .label("instance", self.instance)
            .label("job", self.job);
        for (k, v) in self.extra_labels {
            b = b.label(k, v);
        }
        b.build()
    }

    fn is(&self, (instance, job, extra_labels): &OwnedStamp) -> bool {
        self.instance == instance && self.job == job && self.extra_labels == extra_labels
    }
}

/// A [`Stamp`]'s `(instance, job, extra_labels)`, kept.
type OwnedStamp = (String, String, Vec<(String, String)>);

/// Parses one sample line in full: the stamped label set, the timestamp
/// (`now_ms` unless the line carries one), the value, and the byte length of
/// the line's series text.
fn parse_stamped(
    line: &str,
    lineno: usize,
    stamp: Stamp<'_>,
    now_ms: i64,
) -> Result<(LabelSet, i64, f64, usize), String> {
    let (name, labels, end) = parse_series(line, lineno).map_err(|e| e.to_string())?;
    let (v, t_ms) = parse_tail(&line[end..], lineno, now_ms)?;
    Ok((stamp.series(&name, labels), t_ms, v, end))
}

/// Value and timestamp of a sample line's tail (what follows the series
/// text); an exemplar suffix is checked and dropped.
fn parse_tail(rest: &str, lineno: usize, now_ms: i64) -> Result<(f64, i64), String> {
    let (v, t_ms, _exemplar) = parse_sample_rest(rest, lineno).map_err(|e| e.to_string())?;
    Ok((v, t_ms.unwrap_or(now_ms)))
}

/// Parses exposition text into an ingestable batch with target labels
/// stamped: what [`SeriesCache::ingest`] appends when it knows none of the
/// lines. Public so a caller can split parsing from appending.
pub fn exposition_to_batch(
    body: &str,
    instance: &str,
    job: &str,
    extra_labels: &[(String, String)],
    now_ms: i64,
) -> Result<Vec<(LabelSet, i64, f64)>, String> {
    let stamp = Stamp {
        instance,
        job,
        extra_labels,
    };
    sample_lines(body)
        .map(|(lineno, line)| {
            parse_stamped(line, lineno, stamp, now_ms).map(|(labels, t_ms, v, _)| (labels, t_ms, v))
        })
        .collect()
}

/// What one [`SeriesCache::ingest`] appended.
#[derive(Debug, Default, PartialEq)]
pub struct Ingested<'a> {
    /// Samples from the body (the `up` series not counted).
    pub samples: u64,
    /// The distinct metric names of the body's samples, sorted.
    pub names: Vec<&'a str>,
}

/// A series text a [`SeriesCache`] knows.
#[derive(Clone)]
struct Known {
    text: Arc<str>,
    id: SeriesId,
    /// Its index in the cache's `order`, current while `order[at]` names
    /// this entry back.
    at: u32,
}

/// No entry (a ref whose text is new, an entry dropped), or no place in
/// the order.
const NONE: u32 = u32::MAX;

/// One source's memory of which series its lines are.
///
/// Keeps the series texts (`name` or `name{…}`) of the last payload the
/// database accepted, in line order, each with the id the TSDB resolved it
/// to, for one stamp and one [`RefToken`]. A cursor walks that order beside
/// the next payload: a line that starts with the text at the cursor and
/// goes on with `' '` takes that id with one comparison, and only its value
/// is parsed. Any other line is scanned for its series text and looked up
/// in a map over the same texts; a hit moves the cursor to after that
/// text's place, so a job that started or ended costs one lookup, not the
/// rest of the payload. Only a new text is parsed into a label set.
///
/// Everything is forgotten when the stamp changes or the database refuses
/// the token ([`RefError::Stale`]). Texts the source stopped exposing go
/// once the map holds more than `KEEP_FACTOR` times the entries the last
/// payload used. A payload without sample lines (a failed scrape's `up`
/// alone) changes neither the order nor what is kept.
#[derive(Default)]
pub struct SeriesCache {
    /// Series text → index into `known`.
    ids: HashMap<Arc<str>, u32>,
    known: Vec<Known>,
    /// The last accepted payload's refs in order — its sample lines, then
    /// its health series — as indices into `known`.
    order: Vec<u32>,
    /// The payload being read, in the same form; [`NONE`] for a new text.
    /// It becomes `order` once the database accepts it.
    next: Vec<u32>,
    token: Option<RefToken>,
    stamp: Option<OwnedStamp>,
    /// Lines parsed into label sets since creation.
    #[cfg(test)]
    pub(crate) label_sets_built: u64,
    /// Sample lines that missed the cursor since creation.
    #[cfg(test)]
    pub(crate) fallbacks: u64,
}

impl SeriesCache {
    /// Entries kept per entry the last payload used; beyond it, those the
    /// payload did not use go. A query plan's label table keeps as many.
    pub(crate) const KEEP_FACTOR: usize = 2;

    /// Cached series texts.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn forget(&mut self) {
        self.ids.clear();
        self.known.clear();
        self.order.clear();
    }

    /// The entry at `cursor` in the order and its text's length, when
    /// `line` starts with that text and a space.
    fn at_cursor(&self, cursor: usize, line: &str) -> Option<(u32, usize)> {
        let k = *self.order.get(cursor)?;
        let text = self.known[k as usize].text.as_bytes();
        let line = line.as_bytes();
        let hit = line.get(text.len()) == Some(&b' ') && line[..text.len()] == *text;
        hit.then_some((k, text.len()))
    }

    /// The entry of a series text, by the map; `cursor` moves to after the
    /// text's place in the order.
    fn lookup(&self, text: &str, cursor: &mut usize) -> Option<u32> {
        let k = *self.ids.get(text)?;
        let at = self.known[k as usize].at as usize;
        if self.order.get(at) == Some(&k) {
            *cursor = at + 1;
        }
        Some(k)
    }

    /// The entry of a text the database resolved to `id`: added, unless an
    /// earlier line of the payload added it.
    fn remember(&mut self, text: &str, id: SeriesId) -> u32 {
        if let Some(&k) = self.ids.get(text) {
            return k;
        }
        let k = self.known.len() as u32;
        let text: Arc<str> = text.into();
        self.ids.insert(Arc::clone(&text), k);
        self.known.push(Known { text, id, at: NONE });
        k
    }

    /// Makes the accepted payload in `next`, whose new texts are the entries
    /// `fresh` in order, the order. Then, once the entries outnumber its
    /// refs `KEEP_FACTOR` times, drops those it does not use.
    fn accept(&mut self, fresh: Vec<u32>) {
        let mut fresh = fresh.into_iter();
        for k in self.next.iter_mut().filter(|k| **k == NONE) {
            *k = fresh.next().expect("an entry for every new text");
        }
        std::mem::swap(&mut self.order, &mut self.next);
        if self.known.len() > Self::KEEP_FACTOR * self.order.len() {
            let mut renumbered = vec![NONE; self.known.len()];
            let mut kept = Vec::with_capacity(self.order.len());
            for k in &mut self.order {
                let new = &mut renumbered[*k as usize];
                if *new == NONE {
                    *new = kept.len() as u32;
                    kept.push(self.known[*k as usize].clone());
                }
                *k = *new;
            }
            self.known = kept;
            self.ids.retain(|_, k| {
                *k = renumbered[*k as usize];
                *k != NONE
            });
        }
        for (at, &k) in self.order.iter().enumerate() {
            self.known[k as usize].at = at as u32;
        }
    }

    /// Appends the samples of exposition text `body`, stamped, and then one
    /// sample at `now_ms` for each `(name, value)` of `up` — a source's
    /// health series, stamped like a bare `name` line — as one group commit
    /// in document order. Samples without a timestamp get `now_ms`.
    ///
    /// Any bad line fails the whole payload before anything is written,
    /// with the error [`exposition_to_batch`] gives. `epoch` fences the
    /// write as [`Tsdb::append_batch_fenced`] does; a fenced write fails
    /// with the [`crate::StaleEpoch`] message.
    pub fn ingest<'a>(
        &mut self,
        db: &Tsdb,
        epoch: Option<u64>,
        body: &'a str,
        stamp: Stamp<'_>,
        now_ms: i64,
        up: &[(&'a str, f64)],
    ) -> Result<Ingested<'a>, String> {
        if !self.stamp.as_ref().is_some_and(|s| stamp.is(s)) {
            self.forget();
            self.stamp = Some((
                stamp.instance.to_string(),
                stamp.job.to_string(),
                stamp.extra_labels.to_vec(),
            ));
        }
        loop {
            // Ids are kept under the token they were returned under; an
            // empty map holds none, so it takes the database's current one.
            let token = match self.token {
                Some(token) if !self.ids.is_empty() => token,
                _ => *self.token.insert(db.ref_token()),
            };

            let mut refs: Vec<(SeriesRef, i64, f64)> =
                Vec::with_capacity(self.order.len() + up.len());
            // The series text of each `SeriesRef::Labels` in `refs`, in order.
            let mut unknown: Vec<&str> = Vec::new();
            let mut out = Ingested::default();
            self.next.clear();
            let mut cursor = 0;
            for (lineno, line) in sample_lines(body) {
                let known = match self.at_cursor(cursor, line) {
                    Some(hit) => {
                        cursor += 1;
                        Some(hit)
                    }
                    None => {
                        #[cfg(test)]
                        {
                            self.fallbacks += 1;
                        }
                        series_text_len(line)
                            .and_then(|end| Some((self.lookup(&line[..end], &mut cursor)?, end)))
                    }
                };
                let end = match known {
                    Some((k, end)) => {
                        let (v, t_ms) = parse_tail(&line[end..], lineno, now_ms)?;
                        refs.push((SeriesRef::Id(self.known[k as usize].id), t_ms, v));
                        self.next.push(k);
                        end
                    }
                    None => {
                        let (labels, t_ms, v, end) = parse_stamped(line, lineno, stamp, now_ms)?;
                        refs.push((SeriesRef::Labels(labels), t_ms, v));
                        unknown.push(&line[..end]);
                        self.next.push(NONE);
                        end
                    }
                };
                // Exposition groups a family's lines, so comparing with the
                // previous name leaves few duplicates for the sort below.
                let name = &line[..line[..end].find('{').unwrap_or(end)];
                if out.names.last() != Some(&name) {
                    out.names.push(name);
                }
                out.samples += 1;
            }
            for &(name, v) in up {
                match self.ids.get(name) {
                    Some(&k) => {
                        refs.push((SeriesRef::Id(self.known[k as usize].id), now_ms, v));
                        self.next.push(k);
                    }
                    None => {
                        let labels = stamp.series(name, LabelSet::empty());
                        refs.push((SeriesRef::Labels(labels), now_ms, v));
                        unknown.push(name);
                        self.next.push(NONE);
                    }
                }
            }
            #[cfg(test)]
            {
                self.label_sets_built += unknown.len() as u64;
            }

            match db.append_refs(token, epoch, &refs) {
                Ok(ids) => {
                    let fresh: Vec<u32> = unknown
                        .into_iter()
                        .zip(ids)
                        .map(|(text, id)| self.remember(text, id))
                        .collect();
                    // A payload without sample lines says nothing about
                    // which texts the source still exposes.
                    if out.samples > 0 {
                        self.accept(fresh);
                    }
                    out.names.sort_unstable();
                    out.names.dedup();
                    return Ok(out);
                }
                // The database removed series since the ids were cached,
                // or is not the one they came from: forget them and send
                // the payload again by label sets.
                Err(RefError::Stale) => self.forget(),
                Err(RefError::Fenced(e)) => return Err(e.to_string()),
            }
        }
    }
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

/// One target pass — its samples and its `up` — is one group commit. A
/// target that is down or exposes a bad line reports `up 0` alone.
fn scrape_target(
    client: &Client,
    target: &ScrapeTarget,
    cache: &mut SeriesCache,
    db: &Tsdb,
    now_ms: i64,
) -> Result<u64, String> {
    let stamp = Stamp {
        instance: &target.instance,
        job: &target.job,
        extra_labels: &target.extra_labels,
    };
    let scraped = fetch_exposition(client, &target.source).and_then(|body| {
        let got = cache.ingest(db, None, &body, stamp, now_ms, &[("up", 1.0)])?;
        Ok(got.samples)
    });
    if scraped.is_err() {
        cache.ingest(db, None, "", stamp, now_ms, &[("up", 0.0)])?;
    }
    scraped
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

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

    // A failed scrape (`up 0` alone) leaves the target's cache as the last
    // good scrape left it: the next good one builds no label set.
    #[test]
    fn a_failed_scrape_keeps_the_cache() {
        let failing = Arc::new(AtomicBool::new(false));
        let body: String = (0..50)
            .map(|i| format!("job_cpu{{uuid=\"j-{i}\"}} {i}\n"))
            .collect();
        let source = {
            let failing = Arc::clone(&failing);
            move || match failing.load(Ordering::SeqCst) {
                true => "{{{ not metrics".to_string(),
                false => body.clone(),
            }
        };
        let mgr = ScrapeManager::new(vec![ScrapeTarget {
            instance: "n1".into(),
            job: "ceems".into(),
            extra_labels: vec![],
            source: TargetSource::InProcess(Arc::new(source)),
        }]);
        let db = Tsdb::default();
        let built = || mgr.targets[0].1.lock().label_sets_built;
        assert_eq!(mgr.scrape_once(&db, 15_000, 1).ok, 1);
        let warm = built();
        failing.store(true, Ordering::SeqCst);
        assert_eq!(mgr.scrape_once(&db, 30_000, 1).failed, 1);
        failing.store(false, Ordering::SeqCst);
        assert_eq!(mgr.scrape_once(&db, 45_000, 1).ok, 1);
        assert_eq!(
            built(),
            warm,
            "the good scrape after a failed one built label sets"
        );
        let up = db.select(&[LabelMatcher::eq("__name__", "up")], 0, i64::MAX);
        let values: Vec<f64> = up[0].samples.iter().map(|s| s.v).collect();
        assert_eq!(values, [1.0, 0.0, 1.0]);
    }
}

/// [`SeriesCache::ingest`] against its definition: `exposition_to_batch`,
/// then `append_batch`, then the `up` samples.
#[cfg(test)]
mod cache_tests {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use proptest::prelude::*;

    use ceems_metrics::matcher::LabelMatcher;

    use super::*;
    use crate::types::SeriesData;
    use crate::wal::{decode_frames, list_segments, FsyncMode, WalOptions, WalRecord};
    use crate::TsdbConfig;

    const EXTRA: &[(&str, &str)] = &[("nodegroup", "intel")];

    fn extra() -> Vec<(String, String)> {
        EXTRA.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    fn stamp<'a>(instance: &'a str, extra_labels: &'a [(String, String)]) -> Stamp<'a> {
        Stamp {
            instance,
            job: "ceems",
            extra_labels,
        }
    }

    /// The definition: every line by label set, `up` by `append`.
    fn ingest_uncached(
        db: &Tsdb,
        body: &str,
        stamp: Stamp<'_>,
        now_ms: i64,
        up: &[(&str, f64)],
    ) -> Result<u64, String> {
        let batch = exposition_to_batch(body, stamp.instance, stamp.job, stamp.extra_labels, now_ms)?;
        db.append_batch(&batch);
        for &(name, v) in up {
            db.append(&stamp.series(name, LabelSet::empty()), now_ms, v);
        }
        Ok(batch.len() as u64)
    }

    /// Every series with every sample, in label order; values as bits so
    /// NaN compares.
    fn dump(db: &Tsdb) -> Vec<(String, Vec<(i64, u64)>)> {
        let mut all: Vec<SeriesData> = db.select(&[], i64::MIN, i64::MAX);
        all.sort_by(|a, b| a.labels.cmp(&b.labels));
        all.iter()
            .map(|s| {
                let samples = s.samples.iter().map(|p| (p.t_ms, p.v.to_bits())).collect();
                (s.labels.to_string(), samples)
            })
            .collect()
    }

    fn assert_same(cached: &Tsdb, reference: &Tsdb) {
        assert_eq!(cached.series_count(), reference.series_count());
        assert_eq!(cached.samples_appended(), reference.samples_appended());
        assert_eq!(cached.out_of_order_dropped(), reference.out_of_order_dropped());
        assert_eq!(dump(cached), dump(reference));
        assert_eq!(cached.orphan_head_series(), 0);
    }

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ceems-seriescache-{tag}-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn wal_options() -> WalOptions {
        WalOptions {
            segment_bytes: 4096,
            fsync: FsyncMode::Never,
        }
    }

    /// A small series alphabet; each entry lists texts of one series that
    /// differ in label order, spacing or an empty block.
    const ALPHABET: &[&[&str]] = &[
        &["plain", "plain{}", "plain{ }"],
        &[r#"m{a="x",b="y"}"#, r#"m{b="y",a="x"}"#, r#"m{ a="x" , b="y" }"#, r#"m{a="x",b="y",}"#],
        &[r#"m{a="}\"\\,#é{"}"#, r#"m{ a="}\"\\,#é{" }"#],
        &[r#"m{a="\é\n"}"#],
        &[r#"cpu:rate5m{uuid="j-1",instance="exposed",le="+Inf"}"#],
        &["up"],
        // Texts that begin with another text of the alphabet.
        &["plain_total"],
        &[r#"plain{a="x"}"#, r#"plain{ a="x" }"#],
    ];

    #[derive(Clone, Debug)]
    struct Line {
        series: usize,
        variant: usize,
        value: usize,
        timestamp: Option<i64>,
        exemplar: bool,
        crlf: bool,
        /// A tab, not a space, after the series text.
        tab: bool,
        comment_before: bool,
    }

    fn line_strategy() -> impl Strategy<Value = Line> {
        (
            0..ALPHABET.len(),
            0..4usize,
            0..6usize,
            proptest::option::of(-20_000i64..20_000),
            0..64u8,
        )
            .prop_map(|(series, variant, value, timestamp, flags)| Line {
                series,
                variant,
                value,
                timestamp,
                exemplar: flags & 1 != 0,
                crlf: flags & 2 != 0,
                tab: flags & 4 != 0,
                comment_before: flags >> 3 == 0,
            })
    }

    /// How a payload is made from the one before it.
    #[derive(Clone, Debug)]
    enum Edit {
        Fresh(Vec<Line>),
        Insert(usize, Line),
        Drop(usize),
        Duplicate(usize),
        Move(usize, usize),
    }

    fn edit_strategy() -> impl Strategy<Value = Edit> {
        let at = any::<usize>;
        prop_oneof![
            1 => proptest::collection::vec(line_strategy(), 0..12).prop_map(Edit::Fresh),
            3 => (at(), line_strategy()).prop_map(|(i, line)| Edit::Insert(i, line)),
            3 => at().prop_map(Edit::Drop),
            2 => at().prop_map(Edit::Duplicate),
            3 => (at(), at()).prop_map(|(from, to)| Edit::Move(from, to)),
        ]
    }

    /// Applies `edit` to a payload's lines; positions wrap around.
    fn apply(lines: &mut Vec<Line>, edit: &Edit) {
        let n = lines.len();
        match edit {
            Edit::Fresh(fresh) => *lines = fresh.clone(),
            Edit::Insert(at, line) => lines.insert(at % (n + 1), line.clone()),
            Edit::Drop(at) if n > 0 => {
                lines.remove(at % n);
            }
            Edit::Duplicate(at) if n > 0 => {
                let line = lines[at % n].clone();
                lines.insert(at % n, line);
            }
            Edit::Move(from, to) if n > 0 => {
                let line = lines.remove(from % n);
                lines.insert(to % n, line);
            }
            _ => {}
        }
    }

    fn render(lines: &[Line], now_ms: i64) -> String {
        const VALUES: [&str; 6] = ["1", "-2.5", "1e3", "NaN", "+Inf", "0"];
        let mut body = String::new();
        for l in lines {
            if l.comment_before {
                body.push_str("# TYPE m gauge\n\n");
            }
            let texts = ALPHABET[l.series];
            body.push_str(texts[l.variant % texts.len()]);
            body.push(if l.tab { '\t' } else { ' ' });
            body.push_str(VALUES[l.value]);
            if let Some(dt) = l.timestamp {
                body.push_str(&format!(" {}", now_ms + dt));
            }
            if l.exemplar {
                body.push_str(" # {trace_id=\"ab#}\"} 0.5");
            }
            body.push_str(if l.crlf { "\r\n" } else { "\n" });
        }
        body
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // (a) Payload sequences land the same state as the uncached
        // definition, in memory and replayed from the WAL: after a random
        // first payload, each is the one before with lines inserted,
        // dropped, duplicated or moved, or a random one again.
        #[test]
        fn cached_ingest_equals_uncached(
            first in proptest::collection::vec(line_strategy(), 0..12),
            edits in proptest::collection::vec(
                proptest::collection::vec(edit_strategy(), 0..4),
                0..8,
            ),
            durable in any::<bool>(),
        ) {
            let mut payloads = vec![first];
            for step in &edits {
                let mut lines = payloads[payloads.len() - 1].clone();
                for edit in step {
                    apply(&mut lines, edit);
                }
                payloads.push(lines);
            }
            let dirs = durable.then(|| (temp_dir("cached"), temp_dir("reference")));
            let open = |dir: Option<&PathBuf>| match dir {
                Some(dir) => Tsdb::open(dir, wal_options(), TsdbConfig::default()).unwrap(),
                None => Tsdb::default(),
            };
            let cached = open(dirs.as_ref().map(|d| &d.0));
            let reference = open(dirs.as_ref().map(|d| &d.1));
            let extra = extra();
            let stamp = stamp("n1:9100", &extra);
            let mut cache = SeriesCache::default();
            for (i, lines) in payloads.iter().enumerate() {
                let now_ms = 15_000 * (i as i64 + 1);
                let body = render(lines, now_ms);
                let records = cached.wal_position().map(|p| p.records);
                let got = cache.ingest(&cached, None, &body, stamp, now_ms, &[("up", 1.0)]).unwrap();
                let n = ingest_uncached(&reference, &body, stamp, now_ms, &[("up", 1.0)]).unwrap();
                prop_assert_eq!(got.samples, n);
                prop_assert_eq!(got.samples as usize, lines.len());
                let mut names: Vec<&str> = lines
                    .iter()
                    .map(|l| ALPHABET[l.series][0].split('{').next().unwrap())
                    .collect();
                names.sort_unstable();
                names.dedup();
                prop_assert_eq!(got.names, names);
                if let (Some(before), Some(after)) = (records, cached.wal_position()) {
                    // One `Samples` record, plus a `SeriesCreate` per new series.
                    let created = cached.series_count() as u64;
                    prop_assert!(after.records - before <= 1 + created);
                }
            }
            assert_same(&cached, &reference);
            if let Some((cached_dir, reference_dir)) = dirs {
                drop((cached, reference));
                // The existing decoder reads the log, and every id is
                // created before a sample names it.
                let mut known = std::collections::HashSet::new();
                for (_, path) in list_segments(&cached_dir).unwrap() {
                    let data = std::fs::read(path).unwrap();
                    let (records, consumed) = decode_frames(&data);
                    prop_assert_eq!(consumed, data.len());
                    for rec in records {
                        match rec {
                            WalRecord::SeriesCreate { id, .. } => {
                                known.insert(id);
                            }
                            WalRecord::Samples(samples) => {
                                prop_assert!(samples.iter().all(|(id, _, _)| known.contains(id)));
                            }
                            other => prop_assert!(false, "unexpected record {:?}", other),
                        }
                    }
                }
                let reopen = |dir| Tsdb::open(dir, wal_options(), TsdbConfig::default()).unwrap();
                let (cached, reference) = (reopen(&cached_dir), reopen(&reference_dir));
                assert_same(&cached, &reference);
                drop((cached, reference));
                let _ = std::fs::remove_dir_all(cached_dir);
                let _ = std::fs::remove_dir_all(reference_dir);
            }
        }
    }

    const GOOD: &str = "plain 1\nm{a=\"x\",b=\"y\"} 2\nm{a=\"z\"} 3\n";

    // (b) A bad line anywhere fails the payload with the uncached error,
    // writes nothing and creates nothing; the next payload is unaffected.
    #[test]
    fn bad_line_fails_the_payload_and_writes_nothing() {
        let bad_lines = [
            "m{a=\"x\",b=\"y\"} notanumber",
            "plain 1 2 3",
            "plain 1 # nolabels 2",
            "plain 1 # {trace_id=\"x\"}",
            "m{a=\"x\",b=\"y\"}junk 1",
            "plain{ 1",
            "m{a=\"x 1",
            "m{a=\"x\\",
            "fresh{a=} 1",
            "{} 1",
            "plain",
        ];
        let dir = temp_dir("badline");
        let cached = Tsdb::open(&dir, wal_options(), TsdbConfig::default()).unwrap();
        let reference = Tsdb::default();
        let extra = extra();
        let stamp = stamp("n1", &extra);
        let mut cache = SeriesCache::default();
        let mut now_ms = 1_000;
        cache.ingest(&cached, None, GOOD, stamp, now_ms, &[("up", 1.0)]).unwrap();
        ingest_uncached(&reference, GOOD, stamp, now_ms, &[("up", 1.0)]).unwrap();

        let good: Vec<&str> = GOOD.lines().collect();
        for bad in bad_lines {
            for at in 0..=good.len() {
                now_ms += 1_000;
                let mut lines = good.clone();
                lines.insert(at, bad);
                // A line the cache has never seen rides along before the
                // bad one: it must not become a series.
                lines.insert(0, "never_created 9");
                let body = lines.join("\n");
                let expected = exposition_to_batch(&body, "n1", "ceems", &extra, now_ms).unwrap_err();
                let before = (cached.samples_appended(), cached.series_count(), cached.wal_position());
                let err = cache.ingest(&cached, None, &body, stamp, now_ms, &[("up", 1.0)]).unwrap_err();
                assert_eq!(err, expected, "{bad:?} at {at}");
                assert_eq!(
                    before,
                    (cached.samples_appended(), cached.series_count(), cached.wal_position()),
                    "{bad:?} at {at}"
                );
            }
            now_ms += 1_000;
            cache.ingest(&cached, None, GOOD, stamp, now_ms, &[("up", 1.0)]).unwrap();
            ingest_uncached(&reference, GOOD, stamp, now_ms, &[("up", 1.0)]).unwrap();
        }
        assert_same(&cached, &reference);
        drop(cached);
        let _ = std::fs::remove_dir_all(dir);
    }

    // (c) A removal between two payloads: the second lands on re-created
    // series; nothing reaches a removed id.
    #[test]
    fn removals_outdate_cached_ids() {
        type Removal = fn(&Tsdb) -> usize;
        let removals: [(&str, Removal); 3] = [
            ("delete_series", |db| {
                db.delete_series(&[LabelMatcher::eq("__name__", "m")])
            }),
            ("enforce_retention", |db| db.enforce_retention(i64::MAX / 2)),
            ("clear_for_resync", |db| db.clear_for_resync()),
        ];
        for durable in [false, true] {
            for (what, remove) in removals {
                let dir = durable.then(|| temp_dir(what));
                let cached = match &dir {
                    Some(dir) => Tsdb::open(dir, wal_options(), TsdbConfig::default()).unwrap(),
                    None => Tsdb::default(),
                };
                let reference = Tsdb::default();
                let extra = extra();
                let stamp = stamp("n1", &extra);
                let mut cache = SeriesCache::default();
                for now_ms in [1_000, 2_000] {
                    cache.ingest(&cached, None, GOOD, stamp, now_ms, &[("up", 1.0)]).unwrap();
                    ingest_uncached(&reference, GOOD, stamp, now_ms, &[("up", 1.0)]).unwrap();
                }
                let ids_before = cached.select(&[], 0, i64::MAX).len();
                assert!(remove(&cached) > 0, "{what}");
                remove(&reference);
                assert_eq!(cached.instruments().stale_ref_batches.get(), 0.0);

                cache.ingest(&cached, None, GOOD, stamp, 3_000, &[("up", 1.0)]).unwrap();
                ingest_uncached(&reference, GOOD, stamp, 3_000, &[("up", 1.0)]).unwrap();
                assert_eq!(cached.instruments().stale_ref_batches.get(), 1.0, "{what}");
                assert_same(&cached, &reference);
                assert!(ids_before >= cached.select(&[], 0, i64::MAX).len());
                // The removed series came back under new ids with only the
                // third payload's sample.
                for s in cached.select(&[LabelMatcher::eq("__name__", "m")], 0, i64::MAX) {
                    assert_eq!(s.samples.len(), 1, "{what}");
                    assert_eq!(s.samples[0].t_ms, 3_000, "{what}");
                }
                if let Some(dir) = dir {
                    drop(cached);
                    let reopened = Tsdb::open(&dir, wal_options(), TsdbConfig::default()).unwrap();
                    assert_same(&reopened, &reference);
                    drop(reopened);
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
        }
    }

    // (d) A cache handed another database (failover re-points the stack)
    // writes the right series there; a stale epoch writes nothing.
    #[test]
    fn another_database_and_a_stale_epoch() {
        let (first, second, reference) = (Tsdb::default(), Tsdb::default(), Tsdb::default());
        // Ids in `second` start elsewhere, so a carried-over id would be wrong.
        second.append(&ceems_metrics::labels! {"__name__" => "other"}, 0, 0.0);
        reference.append(&ceems_metrics::labels! {"__name__" => "other"}, 0, 0.0);
        let extra = extra();
        let stamp = stamp("n1", &extra);
        let mut cache = SeriesCache::default();
        for now_ms in [1_000, 2_000] {
            cache.ingest(&first, None, GOOD, stamp, now_ms, &[("up", 1.0)]).unwrap();
        }
        let first_before = dump(&first);
        for now_ms in [3_000, 4_000] {
            cache.ingest(&second, None, GOOD, stamp, now_ms, &[("up", 1.0)]).unwrap();
            ingest_uncached(&reference, GOOD, stamp, now_ms, &[("up", 1.0)]).unwrap();
        }
        assert_same(&second, &reference);
        assert_eq!(dump(&first), first_before);
        assert_eq!(second.instruments().stale_ref_batches.get(), 1.0);

        let err = cache.ingest(&second, Some(3), GOOD, stamp, 5_000, &[]).unwrap_err();
        assert!(err.contains("stale-epoch"), "{err}");
        assert_eq!(second.fenced_writes(), 1);
        assert_same(&second, &reference);
        cache.ingest(&second, Some(second.current_epoch()), GOOD, stamp, 5_000, &[]).unwrap();
        ingest_uncached(&reference, GOOD, stamp, 5_000, &[]).unwrap();
        assert_same(&second, &reference);
    }

    // (e) A source whose jobs churn keeps the map within twice its payload.
    #[test]
    fn churning_source_keeps_the_map_bounded() {
        let db = Tsdb::default();
        let extra = extra();
        let stamp = stamp("n1", &extra);
        let mut cache = SeriesCache::default();
        for pass in 0..200i64 {
            let mut body = String::from("node_power 250\nnode_mem 1024\n");
            for metric in ["cpu", "mem", "io"] {
                for job in 0..4 {
                    body.push_str(&format!("job_{metric}{{uuid=\"j-{pass}-{job}\"}} 1\n"));
                }
            }
            let got = cache.ingest(&db, None, &body, stamp, pass * 15_000, &[("up", 1.0)]).unwrap();
            assert_eq!(got.samples, 14);
            assert!(cache.len() <= 2 * 15, "pass {pass}: {} cached", cache.len());
        }
        // The steady lines stayed cached throughout.
        let ins = db.instruments();
        assert_eq!(ins.series_ref_hits.get(), 199.0 * 3.0);
        assert_eq!(ins.series_ref_misses.get(), 200.0 * 12.0 + 3.0);
    }

    // (f) A payload under another stamp is stamped anew.
    #[test]
    fn changed_stamp_restamps() {
        let (cached, reference) = (Tsdb::default(), Tsdb::default());
        let extra_a = extra();
        let extra_b = vec![("nodegroup".to_string(), "amd".to_string())];
        let mut cache = SeriesCache::default();
        let stamps = [
            stamp("n1", &extra_a),
            stamp("n1", &extra_a),
            stamp("n2", &extra_a),
            stamp("n2", &extra_b),
            Stamp { job: "other", ..stamp("n2", &extra_b) },
            stamp("n1", &extra_a),
        ];
        for (i, st) in stamps.into_iter().enumerate() {
            let now_ms = 1_000 * (i as i64 + 1);
            cache.ingest(&cached, None, GOOD, st, now_ms, &[("up", 1.0)]).unwrap();
            ingest_uncached(&reference, GOOD, st, now_ms, &[("up", 1.0)]).unwrap();
        }
        assert_same(&cached, &reference);
        assert_eq!(cached.series_count(), 4 * 4);
    }

    // (g) A warm payload builds no label set and is one WAL record.
    #[test]
    fn warm_payload_builds_no_label_set_and_is_one_record() {
        let dir = temp_dir("warm");
        let db = Tsdb::open(&dir, wal_options(), TsdbConfig::default()).unwrap();
        let extra = extra();
        let stamp = stamp("n1", &extra);
        let mut cache = SeriesCache::default();
        let n = 500u64;
        let body: String = (0..n)
            .map(|i| format!("job_cpu_seconds_total{{uuid=\"j-{i}\",mode=\"user\"}} {i}.5\n"))
            .collect();
        cache.ingest(&db, None, &body, stamp, 1_000, &[("up", 1.0)]).unwrap();
        assert_eq!(cache.label_sets_built, n + 1);
        assert_eq!(cache.len() as u64, n + 1);

        let records = db.wal_position().unwrap().records;
        let got = cache.ingest(&db, None, &body, stamp, 2_000, &[("up", 1.0)]).unwrap();
        assert_eq!(got.samples, n);
        assert_eq!(got.names, vec!["job_cpu_seconds_total"]);
        assert_eq!(cache.label_sets_built, n + 1, "a known line was parsed in full");
        assert_eq!(db.wal_position().unwrap().records, records + 1);
        let ins = db.instruments();
        assert_eq!(ins.series_ref_hits.get(), (n + 1) as f64);
        assert_eq!(ins.series_ref_misses.get(), (n + 1) as f64);
        assert_eq!(db.samples_appended(), 2 * (n + 1));
        drop(db);
        let _ = std::fs::remove_dir_all(dir);
    }

    // (h) A warm payload is read by position: a line inserted, dropped or
    // moved costs one map lookup, and the lines after it follow the cursor.
    #[test]
    fn the_cursor_follows_the_payload() {
        let db = Tsdb::default();
        let extra = extra();
        let stamp = stamp("n1", &extra);
        let mut cache = SeriesCache::default();
        let mut lines: Vec<String> = (0..40)
            .map(|i| format!("job_cpu{{uuid=\"j-{i}\"}} {i}"))
            .collect();
        let mut now_ms = 0;
        let mut fallbacks = |cache: &mut SeriesCache, lines: &[String]| {
            now_ms += 15_000;
            let before = cache.fallbacks;
            let body = lines.join("\n");
            cache
                .ingest(&db, None, &body, stamp, now_ms, &[("up", 1.0)])
                .unwrap();
            cache.fallbacks - before
        };
        assert_eq!(fallbacks(&mut cache, &lines), 40, "a cold cache");
        assert_eq!(fallbacks(&mut cache, &lines), 0, "a warm payload");
        lines.insert(10, "job_cpu{uuid=\"new\"} 1".to_string());
        assert_eq!(fallbacks(&mut cache, &lines), 1, "a started job");
        lines.remove(20);
        assert_eq!(fallbacks(&mut cache, &lines), 1, "an ended job");
        let last = lines.pop().unwrap();
        lines.insert(0, last);
        assert_eq!(
            fallbacks(&mut cache, &lines),
            2,
            "a line moved to the front"
        );
        assert_eq!(fallbacks(&mut cache, &lines), 0, "the moved payload again");
        assert_eq!(cache.label_sets_built, 40 + 1 + 1);
    }
}

