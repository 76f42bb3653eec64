//! How the API server fetches aggregate metrics from the TSDB.
//!
//! The real API server speaks the Prometheus HTTP API through the shared
//! [`TsdbClient`]; the simulation can also query the TSDB in-process. Both
//! implement [`MetricSource`]. The updater asks the same queries every poll
//! and keeps a [`PreparedQuery`] for each: the in-process source evaluates
//! through it, reading only what arrived since the last poll; over HTTP
//! every query is one-shot.

use std::sync::Arc;
use std::time::Duration;

use ceems_http::resilience::RetryPolicy;
use ceems_metrics::labels::LabelSet;
use ceems_tsdb::promql::eval::DEFAULT_LOOKBACK_MS;
use ceems_tsdb::promql::{parse_expr, PreparedQuery, Value};
use ceems_tsdb::{Tsdb, TsdbClient, WriteRouter};

/// An instant-query interface.
pub trait MetricSource: Send + Sync {
    /// Evaluates `query` at `t_ms`, through `plan` where the source can
    /// carry one over (the caller keeps one per standing query); returns the
    /// instant vector (empty on error — the updater treats missing metrics
    /// as "not yet available").
    fn instant(&self, query: &str, t_ms: i64, plan: &mut PreparedQuery) -> Vec<(LabelSet, f64)>;

    /// Convenience: the single scalar value of a query, if it returned
    /// exactly one sample.
    fn scalar(&self, query: &str, t_ms: i64, plan: &mut PreparedQuery) -> Option<f64> {
        let v = self.instant(query, t_ms, plan);
        if v.len() == 1 {
            Some(v[0].1)
        } else {
            None
        }
    }
}

/// In-process source over a shared TSDB.
pub struct TsdbLocalSource {
    db: Arc<Tsdb>,
}

impl TsdbLocalSource {
    /// Creates the source.
    pub fn new(db: Arc<Tsdb>) -> TsdbLocalSource {
        TsdbLocalSource { db }
    }
}

impl MetricSource for TsdbLocalSource {
    fn instant(&self, query: &str, t_ms: i64, plan: &mut PreparedQuery) -> Vec<(LabelSet, f64)> {
        instant_on(&self.db, query, t_ms, plan)
    }
}

/// With failover on (S24), the updater follows the write route: each query
/// reads the current leader's database. While leaderless there is no data,
/// as over HTTP while the TSDB is down.
impl MetricSource for WriteRouter {
    fn instant(&self, query: &str, t_ms: i64, plan: &mut PreparedQuery) -> Vec<(LabelSet, f64)> {
        match self.leader_db() {
            Some(db) => instant_on(&db, query, t_ms, plan),
            None => Vec::new(),
        }
    }
}

fn instant_on(db: &Tsdb, query: &str, t_ms: i64, plan: &mut PreparedQuery) -> Vec<(LabelSet, f64)> {
    let Ok(expr) = parse_expr(query) else {
        return Vec::new();
    };
    match plan.instant(db, &expr, t_ms, DEFAULT_LOOKBACK_MS) {
        Ok(Value::Vector(v)) => v,
        Ok(Value::Scalar(s)) => vec![(LabelSet::empty(), s)],
        _ => Vec::new(),
    }
}

/// The updater's HTTP path to the TSDB: a [`TsdbClient`] (it is both the
/// [`MetricSource`] and the [`crate::updater::TsdbAdmin`]) with this hop's
/// retry — 2 attempts under a short 20 → 100 ms jittered backoff, so a TSDB
/// restarting between two updater polls costs nothing. Only when the
/// retries run out does the source report "no data" and let the updater's
/// next poll try again.
pub fn http_source(base_url: impl Into<String>) -> TsdbClient {
    TsdbClient::new(base_url).with_retry(
        RetryPolicy::new(2).with_backoff(Duration::from_millis(20), Duration::from_millis(100)),
    )
}

impl MetricSource for TsdbClient {
    fn instant(&self, query: &str, t_ms: i64, _plan: &mut PreparedQuery) -> Vec<(LabelSet, f64)> {
        TsdbClient::instant(self, query, t_ms).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;

    fn db() -> Arc<Tsdb> {
        let db = Arc::new(Tsdb::default());
        for i in 0..10i64 {
            db.append(
                &labels! {"__name__" => "watts", "uuid" => "slurm-1"},
                i * 15_000,
                100.0,
            );
        }
        db
    }

    fn fresh() -> PreparedQuery {
        PreparedQuery::default()
    }

    #[test]
    fn local_source() {
        let src = TsdbLocalSource::new(db());
        let v = src.instant("watts", 150_000, &mut fresh());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 100.0);
        assert_eq!(src.scalar("sum(watts)", 150_000, &mut fresh()), Some(100.0));
        assert!(src.instant("bad{{{", 0, &mut fresh()).is_empty());
        assert_eq!(
            src.scalar("nonexistent_metric", 150_000, &mut fresh()),
            None
        );
    }

    #[test]
    fn http_source_reports_failures_as_no_data() {
        use ceems_http::{HttpServer, ServerConfig};
        use ceems_tsdb::httpapi::api_router;

        let server = HttpServer::serve(
            ServerConfig::ephemeral(),
            api_router(db(), Arc::new(|| 150_000)),
        )
        .unwrap();
        let src: Arc<dyn MetricSource> = Arc::new(http_source(server.base_url()));
        assert_eq!(src.scalar("sum(watts)", 150_000, &mut fresh()), Some(100.0));
        // A rejected query and a dead backend both come back empty.
        assert!(src.instant("rate(watts)", 150_000, &mut fresh()).is_empty());
        server.shutdown();
        let src: Arc<dyn MetricSource> = Arc::new(http_source("http://127.0.0.1:1"));
        assert!(src.instant("up", 0, &mut fresh()).is_empty());
    }
}
