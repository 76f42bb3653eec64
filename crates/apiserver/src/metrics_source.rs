//! How the API server reaches the TSDB: the updater reads and cleans up
//! through a [`ceems_tsdb::QuerySource`] — the database in process, the
//! failover write route, or HTTP ([`ceems_tsdb::TsdbClient`]).

use std::ops::Deref;
use std::sync::Arc;

use ceems_tsdb::Tsdb;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updater::{instant, scalar};
    use ceems_metrics::labels;
    use ceems_tsdb::promql::PreparedQuery;

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
        let v = instant(&src, "watts", 150_000, &mut fresh()).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 100.0);
        let sum = instant(&src, "sum(watts)", 150_000, &mut fresh()).unwrap();
        assert_eq!(scalar(&sum), Some(100.0));
        assert_eq!(instant(&src, "bad{{{", 0, &mut fresh()), Ok(Vec::new()));
        let none = instant(&src, "nonexistent_metric", 150_000, &mut fresh()).unwrap();
        assert_eq!(scalar(&none), None);
    }
}
