//! Where the frontend sends the queries it cannot answer from cache.

use std::sync::Arc;
use std::time::Duration;

use ceems_http::resilience::RetryPolicy;
use ceems_http::{Client, Request, Response, Router};
use ceems_tsdb::TsdbClient;

/// A sink for sub-queries and passthrough requests. Implementations must be
/// callable from several fan-out threads at once.
pub trait Downstream: Send + Sync {
    /// Executes one request and returns the response, or a transport-level
    /// error message.
    fn forward(&self, req: &Request) -> Result<Response, String>;
}

/// HTTP downstream: a rotating [`TsdbClient`] over TSDB replica base URLs,
/// trying the next replica on transport failure. One full rotation through
/// the replicas counts as one attempt of the retry policy: when every
/// replica refuses, the rotation is retried under jittered backoff (a
/// restarting replica often comes back within tens of milliseconds) until
/// the policy's attempts or deadline run out.
pub struct HttpDownstream(TsdbClient);

impl HttpDownstream {
    /// Creates a downstream over replica base URLs (no trailing slashes),
    /// with this hop's retry policy: 3 rotations, 10 → 200 ms backoff,
    /// 2 s total deadline.
    pub fn new(replicas: Vec<String>) -> HttpDownstream {
        HttpDownstream(
            TsdbClient::rotating(replicas).with_retry(
                RetryPolicy::new(3)
                    .with_backoff(Duration::from_millis(10), Duration::from_millis(200))
                    .with_deadline(Duration::from_secs(2)),
            ),
        )
    }

    /// Replaces the HTTP client (tests inject fault-plan-wrapped clients).
    pub fn with_client(self, client: Client) -> HttpDownstream {
        HttpDownstream(self.0.with_client(client))
    }

    /// Replaces the retry policy ([`RetryPolicy::disabled`] for strict
    /// one-shot forwarding).
    pub fn with_retry(self, retry: RetryPolicy) -> HttpDownstream {
        HttpDownstream(self.0.with_retry(retry))
    }
}

impl Downstream for HttpDownstream {
    fn forward(&self, req: &Request) -> Result<Response, String> {
        self.0.relay(req)
    }
}

/// In-process downstream dispatching straight into a [`Router`] — used by
/// tests and benches to avoid socket round-trips, and by single-binary
/// deployments embedding the TSDB.
pub struct RouterDownstream {
    router: Arc<Router>,
}

impl RouterDownstream {
    /// Wraps a router (e.g. `ceems_tsdb::httpapi::api_router`).
    pub fn new(router: Router) -> RouterDownstream {
        RouterDownstream { router: Arc::new(router) }
    }
}

impl Downstream for RouterDownstream {
    fn forward(&self, req: &Request) -> Result<Response, String> {
        Ok(self.router.dispatch(req.clone()))
    }
}
