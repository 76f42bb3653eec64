//! The exporter's self-metrics: scrape counters, durations and an estimate
//! of its own memory footprint. §II.B.a claims 15–20 MB of memory and
//! sub-microsecond CPU per scrape; the E4 experiment measures this
//! collector's numbers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ceems_metrics::model::MetricType;
use ceems_metrics::registry::Collector;
use ceems_metrics::sink::Sink;
use ceems_metrics::Histogram;

/// Shared scrape statistics, updated by the exporter on each render.
///
/// The mean-only atomics (`scrapes`, `render_ns`) stay as-is — the E4
/// experiment consumes them — and a shared [`Histogram`] instrument sits
/// alongside them so the exposition carries render-latency quantiles too.
#[derive(Debug)]
pub struct SelfStats {
    /// Scrapes served.
    pub scrapes: AtomicU64,
    /// Total time spent rendering, nanoseconds.
    pub render_ns: AtomicU64,
    /// Bytes of the last rendered payload.
    pub last_payload_bytes: AtomicU64,
    /// Samples served to pull-mode scrapes.
    pub samples_scraped: AtomicU64,
    /// Samples published over the streaming push path (S23).
    pub samples_pushed: AtomicU64,
    /// Render latency distribution (`_bucket`/`_sum`/`_count`).
    render_seconds: Histogram,
}

impl Default for SelfStats {
    fn default() -> SelfStats {
        SelfStats {
            scrapes: AtomicU64::new(0),
            render_ns: AtomicU64::new(0),
            last_payload_bytes: AtomicU64::new(0),
            samples_scraped: AtomicU64::new(0),
            samples_pushed: AtomicU64::new(0),
            render_seconds: Histogram::new(Histogram::duration_buckets()),
        }
    }
}

/// How a render left the exporter: pulled by a scraper or pushed onto the
/// streaming bus. Distinguished in `ceems_exporter_samples_total{mode=}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RenderMode {
    /// Pull: a scraper fetched `/metrics` (or the in-process equivalent).
    Scrape,
    /// Push: the exporter published the render onto the stream bus.
    Push,
}

impl SelfStats {
    /// Records one render.
    pub fn record(&self, elapsed_ns: u64, payload_bytes: usize) {
        self.scrapes.fetch_add(1, Ordering::Relaxed);
        self.render_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        self.render_seconds.observe(elapsed_ns as f64 / 1e9);
        self.last_payload_bytes
            .store(payload_bytes as u64, Ordering::Relaxed);
    }

    /// Records `n` samples leaving by `mode`.
    pub fn record_samples(&self, mode: RenderMode, n: u64) {
        match mode {
            RenderMode::Scrape => self.samples_scraped.fetch_add(n, Ordering::Relaxed),
            RenderMode::Push => self.samples_pushed.fetch_add(n, Ordering::Relaxed),
        };
    }

    /// Mean render time in nanoseconds.
    pub fn mean_render_ns(&self) -> f64 {
        let n = self.scrapes.load(Ordering::Relaxed);
        if n == 0 {
            0.0
        } else {
            self.render_ns.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// A clone of the render-latency histogram (shares state).
    pub fn render_histogram(&self) -> Histogram {
        self.render_seconds.clone()
    }
}

/// The self-metrics collector.
pub struct SelfCollector {
    stats: Arc<SelfStats>,
}

impl SelfCollector {
    /// Creates the collector.
    pub fn new(stats: Arc<SelfStats>) -> SelfCollector {
        SelfCollector { stats }
    }
}

impl Collector for SelfCollector {
    fn collect(&self, out: &mut dyn Sink) {
        let stats = &self.stats;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        out.family(
            "ceems_exporter_scrapes_total",
            "Scrapes served by this exporter",
            MetricType::Counter,
        );
        out.sample("", &[], load(&stats.scrapes));
        out.family(
            "ceems_exporter_render_seconds_total",
            "Cumulative time spent rendering /metrics",
            MetricType::Counter,
        );
        out.sample("", &[], load(&stats.render_ns) / 1e9);
        out.family(
            "ceems_exporter_payload_bytes",
            "Size of the last /metrics payload",
            MetricType::Gauge,
        );
        out.sample("", &[], load(&stats.last_payload_bytes));
        out.family(
            "ceems_exporter_samples_total",
            "Samples leaving this exporter, by transport mode",
            MetricType::Counter,
        );
        out.sample("", &[("mode", "scrape")], load(&stats.samples_scraped));
        out.sample("", &[("mode", "push")], load(&stats.samples_pushed));
        out.family(
            "ceems_exporter_render_duration_seconds",
            "Distribution of /metrics render wall time",
            MetricType::Histogram,
        );
        stats.render_seconds.write(out, &[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports() {
        let stats = Arc::new(SelfStats::default());
        stats.record(1_000, 512);
        stats.record(3_000, 600);
        assert_eq!(stats.mean_render_ns(), 2_000.0);
        let fams = SelfCollector::new(stats.clone()).families();
        assert_eq!(fams[0].metrics[0].sample.value, 2.0);
        assert_eq!(fams[2].metrics[0].sample.value, 600.0);
        // The histogram family carries the same observations as quantiles.
        assert_eq!(fams[4].name, "ceems_exporter_render_duration_seconds");
        assert_eq!(stats.render_histogram().count(), 2);
        let count = fams[4]
            .metrics
            .iter()
            .find(|m| m.name_suffix == "_count")
            .unwrap();
        assert_eq!(count.sample.value, 2.0);
    }

    #[test]
    fn empty_stats_mean_is_zero() {
        assert_eq!(SelfStats::default().mean_render_ns(), 0.0);
    }

    #[test]
    fn samples_total_distinguishes_push_from_scrape() {
        let stats = Arc::new(SelfStats::default());
        stats.record_samples(RenderMode::Scrape, 10);
        stats.record_samples(RenderMode::Push, 3);
        stats.record_samples(RenderMode::Push, 4);
        let fams = SelfCollector::new(stats).families();
        let samples = fams
            .iter()
            .find(|f| f.name == "ceems_exporter_samples_total")
            .unwrap();
        let by_mode: std::collections::BTreeMap<&str, f64> = samples
            .metrics
            .iter()
            .map(|m| (m.labels.get("mode").unwrap(), m.sample.value))
            .collect();
        assert_eq!(by_mode["scrape"], 10.0);
        assert_eq!(by_mode["push"], 7.0);
    }
}
