//! HTTP server request instrumentation.
//!
//! Wraps a [`Router`] into a handler for [`ceems_http::HttpServer::serve_fn`]
//! that counts requests by method/status class and observes handling latency,
//! so every component's server exports a uniform
//! `ceems_<component>_http_requests_total` / `..._http_request_duration_seconds`
//! pair from the same registry its `/metrics` endpoint serves.
//!
//! Two clocks matter under the epoll server: the latency histogram (and any
//! trace stage clock) starts at **handler dispatch**, while the server stamps
//! `Request::received_at` with the **read that brought the request's bytes**.
//! On a pipelined keep-alive connection a request can sit read-but-queued
//! behind its predecessors; that gap is surfaced separately as
//! `..._http_queue_delay_seconds` instead of being folded into handler time,
//! which keeps `sum(stages) ≤ totalMs` for traces. When a handler stores the request's trace (sampled or slow), it
//! sets [`TRACE_STORED_HEADER`] on the response and the duration histogram
//! records the trace ID as an OpenMetrics exemplar on the landing bucket.

use std::sync::Arc;
use std::time::Instant;

use ceems_http::{Request, Response, Router};
use ceems_metrics::{CounterVec, Histogram, Registry};

/// Response header a handler sets (to the trace ID) when the request's trace
/// was persisted to the trace store — picked up by [`HttpInstruments::wrap`]
/// to attach the ID as a histogram exemplar.
pub const TRACE_STORED_HEADER: &str = "x-ceems-trace-stored";

/// Request counter + latency/queue-delay histograms for one HTTP server.
#[derive(Clone)]
pub struct HttpInstruments {
    requests: CounterVec,
    duration: Histogram,
    queue_delay: Histogram,
}

impl HttpInstruments {
    /// Creates the instruments with `ceems_<component>_http_*` names and
    /// registers them in the registry.
    pub fn new(component: &str, registry: &Registry) -> HttpInstruments {
        HttpInstruments {
            requests: registry.counter_vec(
                &format!("ceems_{component}_http_requests_total"),
                "HTTP requests handled, by method and status class.",
                &["method", "code"],
            ),
            duration: registry.histogram(
                &format!("ceems_{component}_http_request_duration_seconds"),
                "HTTP request handling latency in seconds (from handler dispatch).",
                Histogram::duration_buckets(),
            ),
            queue_delay: registry.histogram(
                &format!("ceems_{component}_http_queue_delay_seconds"),
                "Seconds between request parse completion and handler dispatch \
                 (pipelined keep-alive queueing).",
                Histogram::duration_buckets(),
            ),
        }
    }

    /// Records one handled request.
    pub fn observe(&self, method: &str, status: u16, seconds: f64) {
        self.observe_with_exemplar(method, status, seconds, None)
    }

    /// Records one handled request, attaching a trace-ID exemplar to the
    /// duration bucket when the request's trace was stored.
    pub fn observe_with_exemplar(
        &self,
        method: &str,
        status: u16,
        seconds: f64,
        trace_id: Option<&str>,
    ) {
        let class = match status {
            100..=199 => "1xx",
            200..=299 => "2xx",
            300..=399 => "3xx",
            400..=499 => "4xx",
            _ => "5xx",
        };
        self.requests.with_label_values(&[method, class]).inc();
        match trace_id {
            Some(id) => self.duration.observe_with_exemplar(seconds, id),
            None => self.duration.observe(seconds),
        }
    }

    /// Wraps a router into an instrumented handler for `serve_fn`.
    pub fn wrap(&self, router: Router) -> Arc<dyn Fn(Request) -> Response + Send + Sync> {
        let me = self.clone();
        Arc::new(move |req: Request| {
            let method = req.method.as_str();
            if let Some(received) = req.received_at {
                me.queue_delay.observe(received.elapsed().as_secs_f64());
            }
            // The duration clock anchors here, at dispatch, NOT at socket
            // readability — queue time on pipelined connections is counted
            // above, never inside handler latency or trace stages.
            let start = Instant::now();
            let resp = router.dispatch(req);
            let stored = resp.headers.get(TRACE_STORED_HEADER).cloned();
            me.observe_with_exemplar(
                method,
                resp.status.0,
                start.elapsed().as_secs_f64(),
                stored.as_deref(),
            );
            resp
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_http::{Method, Status};

    #[test]
    fn wrapped_router_counts_by_status_class() {
        let registry = Registry::new();
        let http = HttpInstruments::new("test", &registry);
        let mut router = Router::new();
        router.get("/ok", |_req| Response::text("fine"));
        let handler = http.wrap(router);

        handler(Request::new(Method::Get, "/ok"));
        handler(Request::new(Method::Get, "/ok"));
        handler(Request::new(Method::Get, "/missing"));

        assert_eq!(
            http.requests.with_label_values(&["GET", "2xx"]).get(),
            2.0
        );
        assert_eq!(
            http.requests.with_label_values(&["GET", "4xx"]).get(),
            1.0
        );
        assert_eq!(http.duration.count(), 3);

        let fams = registry.gather();
        assert!(fams
            .iter()
            .any(|f| f.name == "ceems_test_http_requests_total"));
        assert!(fams
            .iter()
            .any(|f| f.name == "ceems_test_http_request_duration_seconds"));
        assert!(fams
            .iter()
            .any(|f| f.name == "ceems_test_http_queue_delay_seconds"));
        let _ = Status::OK;
    }

    #[test]
    fn queue_delay_observed_from_received_at() {
        let registry = Registry::new();
        let http = HttpInstruments::new("qd", &registry);
        let mut router = Router::new();
        router.get("/ok", |_req| Response::text("fine"));
        let handler = http.wrap(router);

        let mut req = Request::new(Method::Get, "/ok");
        req.received_at = Some(Instant::now() - std::time::Duration::from_millis(5));
        handler(req);
        // Client-built requests without a parse stamp don't observe.
        handler(Request::new(Method::Get, "/ok"));
        assert_eq!(http.queue_delay.count(), 1);
        assert!(http.queue_delay.sum() >= 0.005);
    }

    #[test]
    fn stored_trace_header_becomes_duration_exemplar() {
        let registry = Registry::new();
        let http = HttpInstruments::new("ex", &registry);
        let mut router = Router::new();
        router.get("/traced", |_req| {
            Response::text("ok").with_header(TRACE_STORED_HEADER, "feedc0de")
        });
        let handler = http.wrap(router);
        handler(Request::new(Method::Get, "/traced"));

        let text = registry.render();
        assert!(
            text.contains("# {trace_id=\"feedc0de\"}"),
            "exemplar missing from:\n{text}"
        );
    }
}
