//! How the API server reaches the TSDB: the updater reads and cleans up
//! through a [`ceems_tsdb::QuerySource`]; over HTTP that is the
//! [`TsdbClient`] [`http_source`] builds.

use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;

use ceems_http::resilience::RetryPolicy;
use ceems_tsdb::{Tsdb, TsdbClient};

/// A second name for the in-process source, which code such as
/// `e2ebench`'s pipeline still spells: it answers as the [`Tsdb`] it points
/// to, a [`ceems_tsdb::QuerySource`].
pub struct TsdbLocalSource(Arc<Tsdb>);

impl TsdbLocalSource {
    /// A source over `db`.
    pub fn new(db: Arc<Tsdb>) -> TsdbLocalSource {
        TsdbLocalSource(db)
    }
}

impl Deref for TsdbLocalSource {
    type Target = Tsdb;

    fn deref(&self) -> &Tsdb {
        &self.0
    }
}

/// The updater's HTTP path to the TSDB: a [`TsdbClient`] with this hop's
/// retry — 2 attempts under a short 20 → 100 ms jittered backoff, so a TSDB
/// restarting between two updater polls costs nothing. Only when the
/// retries run out does a query read as "no data" and the updater's next
/// poll try again.
pub fn http_source(base_url: impl Into<String>) -> TsdbClient {
    TsdbClient::new(base_url).with_retry(
        RetryPolicy::new(2).with_backoff(Duration::from_millis(20), Duration::from_millis(100)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updater::{instant, scalar};
    use ceems_metrics::labels;
    use ceems_tsdb::promql::PreparedQuery;
    use ceems_tsdb::QuerySource;

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
        let v = instant(&src, "watts", 150_000, &mut fresh());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 100.0);
        let sum = instant(&src, "sum(watts)", 150_000, &mut fresh());
        assert_eq!(scalar(&sum), Some(100.0));
        assert!(instant(&src, "bad{{{", 0, &mut fresh()).is_empty());
        let none = instant(&src, "nonexistent_metric", 150_000, &mut fresh());
        assert_eq!(scalar(&none), None);
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
        let src: Arc<dyn QuerySource> = Arc::new(http_source(server.base_url()));
        let sum = instant(&*src, "sum(watts)", 150_000, &mut fresh());
        assert_eq!(scalar(&sum), Some(100.0));
        // A rejected query and a dead backend both come back empty.
        assert!(instant(&*src, "rate(watts)", 150_000, &mut fresh()).is_empty());
        server.shutdown();
        let src: Arc<dyn QuerySource> = Arc::new(http_source("http://127.0.0.1:1"));
        assert!(instant(&*src, "up", 0, &mut fresh()).is_empty());
    }
}
