#![warn(missing_docs)]
//! CEEMS self-monitoring facility.
//!
//! The stack positions itself as *the* monitoring layer for a platform, so it
//! must be able to watch itself with its own tools ("CEEMS scrapes CEEMS").
//! This crate is the shared substrate every component threads through:
//!
//! - [`Obs`] — a per-process instrument registry built on
//!   [`ceems_metrics::Registry`]: named counters/gauges/histograms that render
//!   through the repo's own text encoder and are served from a `/metrics`
//!   endpoint ([`metrics_handler`]).
//! - [`trace`] — span-based query tracing: a trace ID minted at the LB (or
//!   accepted via the `x-ceems-trace-id` header) propagates proxy → TSDB HTTP
//!   API → PromQL eval; each stage records wall time, and work counts (series
//!   touched, samples decoded, steps fanned out) accumulate on the trace.
//! - [`slowlog`] — a configurable slow-query log emitting one structured
//!   `key=value` line per offending query.
//! - [`http`] — request-handling instruments that wrap any
//!   [`ceems_http::Router`] for [`ceems_http::HttpServer::serve_fn`].

pub mod http;
pub mod slowlog;
pub mod store;
pub mod trace;

use std::sync::Arc;

use ceems_http::{Request, Response, Router};
use ceems_metrics::labels::LabelSet;
use ceems_metrics::{
    Collector, Counter, CounterVec, Gauge, GaugeVec, Histogram, Metric, MetricFamily,
    MetricType, Registry, Sample,
};

/// The standard HTTP header carrying a query trace ID across components.
pub const TRACE_HEADER: &str = "x-ceems-trace-id";

/// Default latency bucket bounds in seconds (1µs → ~4s, ×4 per bucket).
pub fn duration_buckets() -> Vec<f64> {
    Histogram::duration_buckets()
}

/// Renders a bare [`Counter`] as a single-sample family.
pub fn counter_family(name: &str, help: &str, c: &Counter) -> MetricFamily {
    MetricFamily::new(name, help, MetricType::Counter).with_metric(LabelSet::empty(), c.get())
}

/// Renders a bare [`Gauge`] as a single-sample family.
pub fn gauge_family(name: &str, help: &str, g: &Gauge) -> MetricFamily {
    MetricFamily::new(name, help, MetricType::Gauge).with_metric(LabelSet::empty(), g.get())
}

/// Renders a value computed at scrape time as a counter family.
pub fn counter_value_family(name: &str, help: &str, v: f64) -> MetricFamily {
    MetricFamily::new(name, help, MetricType::Counter).with_metric(LabelSet::empty(), v)
}

/// Renders a bare (unlabelled) [`Histogram`] as a `_bucket`/`_sum`/`_count`
/// family.
pub fn histogram_family(name: &str, help: &str, h: &Histogram) -> MetricFamily {
    let mut fam = MetricFamily::new(name, help, MetricType::Histogram);
    fam.metrics = h.render(&LabelSet::empty());
    fam
}

/// A per-process instrument registry: creates named instruments and registers
/// a rendering collector for each, so `registry().gather()` (and therefore
/// `/metrics`) always reflects every instrument handed out.
#[derive(Clone, Default)]
pub struct Obs {
    registry: Registry,
}

impl Obs {
    /// Creates an empty instrument registry.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// The underlying collector registry (for extra hand-written collectors).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Creates and registers a named counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let c = Counter::new();
        let (n, h, c2) = (name.to_string(), help.to_string(), c.clone());
        self.registry
            .register(name, Arc::new(move || vec![counter_family(&n, &h, &c2)]));
        c
    }

    /// Creates and registers a named gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let g = Gauge::new();
        let (n, h, g2) = (name.to_string(), help.to_string(), g.clone());
        self.registry
            .register(name, Arc::new(move || vec![gauge_family(&n, &h, &g2)]));
        g
    }

    /// Creates and registers a named histogram with the given bucket bounds.
    pub fn histogram(&self, name: &str, help: &str, bounds: Vec<f64>) -> Histogram {
        let hist = Histogram::new(bounds);
        let (n, h, h2) = (name.to_string(), help.to_string(), hist.clone());
        self.registry
            .register(name, Arc::new(move || vec![histogram_family(&n, &h, &h2)]));
        hist
    }

    /// Creates and registers a labelled counter family.
    pub fn counter_vec(&self, name: &str, help: &str, label_names: &[&str]) -> CounterVec {
        let cv = CounterVec::new(name, help, label_names);
        self.registry.register(name, Arc::new(cv.clone()));
        cv
    }

    /// Creates and registers a labelled gauge family.
    pub fn gauge_vec(&self, name: &str, help: &str, label_names: &[&str]) -> GaugeVec {
        let gv = GaugeVec::new(name, help, label_names);
        self.registry.register(name, Arc::new(gv.clone()));
        gv
    }

    /// Registers an arbitrary collector under a unique name.
    pub fn register(&self, name: &str, collector: Arc<dyn Collector>) {
        self.registry.register(name, collector);
    }

    /// Renders the whole registry in the text exposition format.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

/// Builds a `/metrics` handler over a registry, using the repo's own encoder.
pub fn metrics_handler(
    registry: Registry,
) -> impl Fn(&Request) -> Response + Send + Sync + 'static {
    move |_req| {
        Response::text(registry.render())
            .with_header("content-type", "text/plain; version=0.0.4")
    }
}

/// Adds a `GET /metrics` route serving the registry. Register this **before**
/// any wildcard route (first match wins in [`Router`]).
pub fn add_metrics_route(router: &mut Router, registry: Registry) {
    router.get("/metrics", metrics_handler(registry));
}

// Re-exported so downstream crates can build families without importing
// ceems-metrics model types directly.
pub use ceems_metrics::{Metric as ObsMetric, Sample as ObsSample};
pub use http::HttpInstruments;
pub use store::{TraceSampler, TraceSink, TraceStore, TraceStoreConfig};

/// Registers a `ceems_build_info{component,version} 1` gauge on a registry,
/// the standard "what is running here" identity series that meta-monitoring
/// scrapes from every component.
pub fn register_build_info(registry: &Registry, component: &str) {
    let component = component.to_string();
    registry.register(
        "ceems_build_info",
        Arc::new(move || {
            vec![MetricFamily::new(
                "ceems_build_info",
                "Build identity of this CEEMS component",
                MetricType::Gauge,
            )
            .with_metric(
                LabelSet::from_pairs([
                    ("component".to_string(), component.clone()),
                    ("version".to_string(), env!("CARGO_PKG_VERSION").to_string()),
                ]),
                1.0,
            )]
        }),
    );
}

/// Convenience: a `MetricFamily` for a precomputed histogram-style snapshot
/// (used by collectors that expose another component's internal histogram).
pub fn family_with_metrics(
    name: &str,
    help: &str,
    metric_type: MetricType,
    metrics: Vec<Metric>,
) -> MetricFamily {
    let mut fam = MetricFamily::new(name, help, metric_type);
    fam.metrics = metrics;
    fam
}

/// Builds a plain metric sample (no suffix) for collector implementations.
pub fn metric(labels: LabelSet, value: f64) -> Metric {
    Metric::new(labels, Sample::now(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::parse_text;

    #[test]
    fn obs_registers_and_renders_instruments() {
        let obs = Obs::new();
        let c = obs.counter("ceems_test_ops_total", "ops");
        let g = obs.gauge("ceems_test_depth", "depth");
        let h = obs.histogram("ceems_test_latency_seconds", "lat", vec![0.1, 1.0]);
        c.add(3.0);
        g.set(7.0);
        h.observe(0.05);
        h.observe(2.0);

        let text = obs.render();
        let parsed = parse_text(&text).expect("self-rendered text must parse");
        let get = |n: &str| {
            parsed
                .samples
                .iter()
                .find(|s| s.name == n)
                .map(|s| s.value)
        };
        assert_eq!(get("ceems_test_ops_total"), Some(3.0));
        assert_eq!(get("ceems_test_depth"), Some(7.0));
        assert_eq!(get("ceems_test_latency_seconds_count"), Some(2.0));
        assert_eq!(
            parsed.types.get("ceems_test_latency_seconds"),
            Some(&MetricType::Histogram)
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_rejected() {
        let obs = Obs::new();
        obs.counter("ceems_dup_total", "a");
        obs.counter("ceems_dup_total", "b");
    }

    #[test]
    fn metrics_handler_serves_text() {
        let obs = Obs::new();
        obs.counter("ceems_x_total", "x").inc();
        let handler = metrics_handler(obs.registry().clone());
        let req = Request::new(ceems_http::Method::Get, "/metrics");
        let resp = handler(&req);
        assert!(resp.status.is_success());
        assert!(resp.body_string().contains("ceems_x_total 1"));
    }
}
