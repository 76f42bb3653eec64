#![warn(missing_docs)]
//! CEEMS self-monitoring facility.
//!
//! The stack positions itself as *the* monitoring layer for a platform, so it
//! must be able to watch itself with its own tools ("CEEMS scrapes CEEMS").
//! This crate is the shared substrate every component threads through:
//!
//! - [`metrics_handler`] — serves a component's [`ceems_metrics::Registry`]
//!   (its instruments come from the registry's own constructors) at
//!   `/metrics`, plus [`register_build_info`], the identity series every
//!   component exposes.
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
use ceems_metrics::{MetricType, Registry, Sink};

/// The standard HTTP header carrying a query trace ID across components.
pub const TRACE_HEADER: &str = "x-ceems-trace-id";

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

pub use http::HttpInstruments;
pub use store::{TraceSampler, TraceSink, TraceStore, TraceStoreConfig};

/// Registers a `ceems_build_info{component,version} 1` gauge on a registry,
/// the standard "what is running here" identity series that meta-monitoring
/// scrapes from every component.
pub fn register_build_info(registry: &Registry, component: &str) {
    let component = component.to_string();
    registry.register(
        "ceems_build_info",
        Arc::new(move |out: &mut dyn Sink| {
            out.family(
                "ceems_build_info",
                "Build identity of this CEEMS component",
                MetricType::Gauge,
            );
            let version = env!("CARGO_PKG_VERSION");
            out.sample("", &[("component", &component), ("version", version)], 1.0);
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::parse_text;

    #[test]
    fn obs_registers_and_renders_instruments() {
        let registry = Registry::new();
        let c = registry.counter("ceems_test_ops_total", "ops");
        let g = registry.gauge("ceems_test_depth", "depth");
        let h = registry.histogram("ceems_test_latency_seconds", "lat", vec![0.1, 1.0]);
        c.add(3.0);
        g.set(7.0);
        h.observe(0.05);
        h.observe(2.0);
        let jobs = registry.counter_vec("ceems_test_jobs_total", "jobs", &["state"]);
        jobs.with_label_values(&["done"]).add(2.0);
        let queued = registry.gauge_vec("ceems_test_queued", "queued", &["tenant"]);
        queued.with_label_values(&["alice"]).set(4.0);

        let text = registry.render();
        assert_eq!(text, ceems_metrics::encode_families(&registry.gather()));
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
        assert_eq!(get("ceems_test_jobs_total"), Some(2.0));
        assert_eq!(get("ceems_test_queued"), Some(4.0));
        assert_eq!(
            parsed.types.get("ceems_test_latency_seconds"),
            Some(&MetricType::Histogram)
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_rejected() {
        let registry = Registry::new();
        registry.counter("ceems_dup_total", "a");
        registry.counter("ceems_dup_total", "b");
    }

    #[test]
    fn metrics_handler_serves_text() {
        let registry = Registry::new();
        registry.counter("ceems_x_total", "x").inc();
        let handler = metrics_handler(registry.clone());
        let req = Request::new(ceems_http::Method::Get, "/metrics");
        let resp = handler(&req);
        assert!(resp.status.is_success());
        assert!(resp.body_string().contains("ceems_x_total 1"));
    }
}
