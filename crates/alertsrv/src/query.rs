//! Where alert-rule expressions get their data.
//!
//! Mirrors the qfe `Downstream` split: an in-process source over the hot
//! TSDB for the embedded stack, and the shared [`TsdbClient`] for running
//! the alerting service against the qfe/LB read path over HTTP. The
//! service keeps a [`PreparedQuery`] per rule and hands it to every
//! evaluation: the in-process source evaluates through it, reading only
//! what arrived since the last tick; over HTTP every evaluation is
//! one-shot.

use std::sync::Arc;

use ceems_http::resilience::{BreakerConfig, CircuitBreaker, RetryPolicy};
use ceems_metrics::labels::LabelSet;
use ceems_tsdb::promql::{Expr, PreparedQuery, Value};
use ceems_tsdb::{Tsdb, TsdbClient};

/// A source of instant-query results for rule evaluation.
pub trait QuerySource: Send + Sync {
    /// Source name, for logs and metrics.
    fn name(&self) -> &'static str;

    /// Evaluates an expression at `now_ms`, through `plan` where the source
    /// can carry one over (the caller keeps one per rule), returning the
    /// result vector. Scalar results become a single sample with empty
    /// labels.
    fn query(
        &self,
        expr_src: &str,
        expr: &Expr,
        now_ms: i64,
        plan: &mut PreparedQuery,
    ) -> Result<Vec<(LabelSet, f64)>, String>;
}

/// Converts an evaluation [`Value`] into the alert result vector.
pub(crate) fn value_to_vector(v: Value) -> Result<Vec<(LabelSet, f64)>, String> {
    match v {
        Value::Vector(v) => Ok(v),
        Value::Scalar(x) => Ok(vec![(LabelSet::empty(), x)]),
        Value::Matrix(_) => Err("alert expression returned a range vector; \
             wrap it in a *_over_time or rate function"
            .into()),
    }
}

/// Evaluates in-process against a [`Tsdb`] — what the embedded stack uses.
pub struct LocalQuerySource {
    db: Arc<Tsdb>,
    lookback_ms: i64,
}

impl LocalQuerySource {
    /// A source over `db` with the given instant-selector lookback.
    /// Like the recording-rule engine, alerting wants a tight lookback so
    /// series that stopped being written resolve promptly.
    pub fn new(db: Arc<Tsdb>, lookback_ms: i64) -> LocalQuerySource {
        LocalQuerySource { db, lookback_ms }
    }
}

impl QuerySource for LocalQuerySource {
    fn name(&self) -> &'static str {
        "local"
    }

    fn query(
        &self,
        _expr_src: &str,
        expr: &Expr,
        now_ms: i64,
        plan: &mut PreparedQuery,
    ) -> Result<Vec<(LabelSet, f64)>, String> {
        let v = plan
            .instant(self.db.as_ref(), expr, now_ms, self.lookback_ms)
            .map_err(|e| e.to_string())?;
        value_to_vector(v)
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

impl QuerySource for TsdbClient {
    fn name(&self) -> &'static str {
        "http"
    }

    fn query(
        &self,
        expr_src: &str,
        _expr: &Expr,
        now_ms: i64,
        _plan: &mut PreparedQuery,
    ) -> Result<Vec<(LabelSet, f64)>, String> {
        self.instant(expr_src, now_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;
    use ceems_tsdb::promql::parse_expr;

    #[test]
    fn local_source_filters_with_comparisons() {
        let db = Arc::new(Tsdb::default());
        db.append(&labels! {"__name__" => "watts", "instance" => "n1"}, 1_000, 100.0);
        db.append(&labels! {"__name__" => "watts", "instance" => "n2"}, 1_000, 900.0);
        let src = LocalQuerySource::new(db, 60_000);
        let expr = parse_expr("watts > 500").unwrap();
        let v = src
            .query("watts > 500", &expr, 2_000, &mut PreparedQuery::default())
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
            .query("watts > 500", &expr, 2_000, &mut PreparedQuery::default())
            .unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0.get("instance"), Some("n2"));
        assert!(src
            .query("watts >", &expr, 2_000, &mut PreparedQuery::default())
            .is_err());
        server.shutdown();
    }
}
