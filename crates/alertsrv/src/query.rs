//! Where alert-rule expressions get their data: any [`QuerySource`] — the
//! TSDB in process, the failover write route, or HTTP ([`http_source`]).
//! The service keeps a [`ceems_tsdb::promql::PreparedQuery`] per rule and
//! hands it to every evaluation.

use std::ops::Deref;
use std::sync::Arc;

use ceems_http::resilience::{BreakerConfig, CircuitBreaker, RetryPolicy};
use ceems_tsdb::{Tsdb, TsdbClient};

pub use ceems_tsdb::QuerySource;

/// A second name for the in-process source, which code such as
/// `e2ebench`'s pipeline still spells: it answers as the [`Tsdb`] it points
/// to, a [`QuerySource`].
pub struct LocalQuerySource(Arc<Tsdb>);

impl LocalQuerySource {
    /// A source over `db`. Rules evaluate with
    /// [`crate::AlertConfig::lookback_ms`]; `_lookback_ms` is not read.
    pub fn new(db: Arc<Tsdb>, _lookback_ms: i64) -> LocalQuerySource {
        LocalQuerySource(db)
    }
}

impl Deref for LocalQuerySource {
    type Target = Tsdb;

    fn deref(&self) -> &Tsdb {
        &self.0
    }
}

/// The alerting service's HTTP read path: a [`TsdbClient`] against a
/// Prometheus-compatible `/api/v1/query` endpoint (the TSDB API, the LB, or
/// the query frontend) with this hop's resilience — 2 attempts and a
/// default breaker, so a dead read path degrades to evaluation errors
/// instead of a stalled tick. Follow a failover routing table with
/// [`TsdbClient::with_resolver`].
pub fn http_source(base_url: impl Into<String>) -> TsdbClient {
    TsdbClient::new(base_url)
        .with_retry(RetryPolicy::new(2))
        .with_breaker(CircuitBreaker::new(BreakerConfig::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;
    use ceems_tsdb::promql::{parse_expr, PreparedQuery};

    #[test]
    fn local_source_filters_with_comparisons() {
        let db = Arc::new(Tsdb::default());
        db.append(
            &labels! {"__name__" => "watts", "instance" => "n1"},
            1_000,
            100.0,
        );
        db.append(
            &labels! {"__name__" => "watts", "instance" => "n2"},
            1_000,
            900.0,
        );
        let src: Arc<dyn QuerySource> = Arc::new(LocalQuerySource::new(db, 60_000));
        let expr = parse_expr("watts > 500").unwrap();
        let v = src
            .instant(
                "watts > 500",
                &expr,
                2_000,
                60_000,
                &mut PreparedQuery::default(),
            )
            .unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0.get("instance"), Some("n2"));
        assert_eq!(v[0].1, 900.0);
    }

    #[test]
    fn http_source_evaluates_over_the_real_api() {
        use ceems_http::{HttpServer, ServerConfig};
        use ceems_tsdb::httpapi::api_router;

        let db = Arc::new(Tsdb::default());
        db.append(
            &labels! {"__name__" => "watts", "instance" => "n2"},
            1_000,
            900.0,
        );
        let server = HttpServer::serve(
            ServerConfig::ephemeral(),
            api_router(db, Arc::new(|| 2_000)),
        )
        .unwrap();
        let src: Arc<dyn QuerySource> = Arc::new(http_source(server.base_url()));
        let expr = parse_expr("watts > 500").unwrap();
        let v = src
            .instant(
                "watts > 500",
                &expr,
                2_000,
                60_000,
                &mut PreparedQuery::default(),
            )
            .unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0.get("instance"), Some("n2"));
        assert!(src
            .instant(
                "watts >",
                &expr,
                2_000,
                60_000,
                &mut PreparedQuery::default()
            )
            .is_err());
        server.shutdown();
    }
}
