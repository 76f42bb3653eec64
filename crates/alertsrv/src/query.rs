//! Where alert-rule expressions get their data: any [`QuerySource`] — the
//! TSDB in process, the failover write route, or HTTP
//! ([`ceems_tsdb::TsdbClient`]).
//! The service keeps a [`ceems_tsdb::promql::PreparedQuery`] per rule and
//! hands it to every evaluation.

use std::ops::Deref;
use std::sync::Arc;

use ceems_tsdb::Tsdb;

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
}
