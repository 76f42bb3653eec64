//! TSDB self-monitoring collector: the database's own counters, WAL state
//! and latency histograms as metric families, rendered through the stack's
//! own exposition encoder so a CEEMS instance can scrape its CEEMS TSDB.

use std::sync::Arc;

use ceems_metrics::MetricType::{Counter, Gauge, Histogram};
use ceems_metrics::{Collector, Registry, Sink};

use crate::storage::Tsdb;

/// Collects `ceems_tsdb_*` families from a [`Tsdb`].
pub struct TsdbCollector {
    db: Arc<Tsdb>,
}

impl TsdbCollector {
    /// Creates the collector.
    pub fn new(db: Arc<Tsdb>) -> TsdbCollector {
        TsdbCollector { db }
    }
}

impl Collector for TsdbCollector {
    fn collect(&self, out: &mut dyn Sink) {
        let db = &self.db;
        let ins = db.instruments();
        let (wal_syncs, wal_sync_secs) = db.wal_sync_stats();
        let wal_records = db.wal_position().map_or(0, |p| p.records);
        let values = [
            (
                "ceems_tsdb_head_series",
                "Live series in the head.",
                Gauge,
                db.series_count() as f64,
            ),
            (
                "ceems_tsdb_head_storage_bytes",
                "Approximate compressed bytes held in the head.",
                Gauge,
                db.storage_bytes() as f64,
            ),
            (
                "ceems_tsdb_samples_appended_total",
                "Samples successfully appended.",
                Counter,
                db.samples_appended() as f64,
            ),
            (
                "ceems_tsdb_out_of_order_total",
                "Out-of-order samples dropped at ingest.",
                Counter,
                db.out_of_order_dropped() as f64,
            ),
            (
                "ceems_tsdb_wal_enabled",
                "1 when a WAL is attached, else 0.",
                Gauge,
                if db.wal_enabled() { 1.0 } else { 0.0 },
            ),
            (
                "ceems_tsdb_wal_errors_total",
                "WAL write failures (ingest kept serving; durability degraded).",
                Counter,
                db.wal_errors() as f64,
            ),
            (
                "ceems_tsdb_wal_records_total",
                "Records written to the local WAL.",
                Counter,
                wal_records as f64,
            ),
            (
                "ceems_tsdb_wal_fsync_total",
                "fsync calls issued by the WAL writer.",
                Counter,
                wal_syncs as f64,
            ),
            (
                "ceems_tsdb_wal_fsync_seconds_total",
                "Cumulative seconds spent in WAL fsync calls.",
                Counter,
                wal_sync_secs,
            ),
            (
                "ceems_tsdb_ingest_series_ref_hits_total",
                "Ingested samples a source's series cache named by id.",
                Counter,
                ins.series_ref_hits.get(),
            ),
            (
                "ceems_tsdb_ingest_series_ref_misses_total",
                "Ingested samples resolved by label set (new series, job churn, a cold cache).",
                Counter,
                ins.series_ref_misses.get(),
            ),
            (
                "ceems_tsdb_ingest_stale_ref_batches_total",
                "Ingest batches refused and sent again: a series removal outdated their ids.",
                Counter,
                ins.stale_ref_batches.get(),
            ),
        ];
        for (name, help, metric_type, v) in values {
            out.family(name, help, metric_type);
            out.sample("", &[], v);
        }
        for (name, help, h) in [
            (
                "ceems_tsdb_ingest_duration_seconds",
                "One ingest group commit (a target's scrape pass, a pushed frame, a rule's outputs).",
                &ins.ingest_seconds,
            ),
            (
                "ceems_tsdb_select_duration_seconds",
                "Two-phase select wall time (resolve + materialize).",
                &ins.select_seconds,
            ),
            (
                "ceems_tsdb_select_resolve_duration_seconds",
                "Select phase-1 resolve wall time (index lock).",
                &ins.select_resolve_seconds,
            ),
            (
                "ceems_tsdb_wal_append_duration_seconds",
                "One WAL group commit (encode + write + fsync policy).",
                &ins.wal_append_seconds,
            ),
            (
                "ceems_tsdb_checkpoint_duration_seconds",
                "Checkpoint wall time: the cut, the encode and the durable write.",
                &ins.checkpoint_seconds,
            ),
        ] {
            out.family(name, help, Histogram);
            h.write(out, &[]);
        }
    }
}

/// Builds the default TSDB metrics registry: the [`TsdbCollector`] alone.
/// Callers (the stack, tests) register extra collectors — rule-evaluation
/// histograms, HTTP request instruments — into the same registry before
/// serving it at `/metrics`.
pub fn default_registry(db: Arc<Tsdb>) -> Registry {
    let registry = Registry::new();
    registry.register("tsdb", Arc::new(TsdbCollector::new(db)));
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;
    use ceems_metrics::matcher::LabelMatcher;
    use ceems_metrics::parse_text;

    #[test]
    fn collector_families_parse_and_track_activity() {
        let db = Arc::new(Tsdb::default());
        let batch: Vec<_> = (0..40)
            .map(|i| (labels! {"__name__" => "m", "i" => format!("{i}")}, 0i64, 1.0))
            .collect();
        db.append_batch(&batch);
        db.select(&[LabelMatcher::eq("__name__", "m")], 0, i64::MAX);

        let registry = default_registry(db.clone());
        let text = registry.render();
        let parsed = parse_text(&text).expect("self-exposition must parse");
        let get = |n: &str| parsed.samples.iter().find(|s| s.name == n).map(|s| s.value);
        assert_eq!(get("ceems_tsdb_head_series"), Some(40.0));
        assert_eq!(get("ceems_tsdb_samples_appended_total"), Some(40.0));
        assert_eq!(get("ceems_tsdb_ingest_duration_seconds_count"), Some(1.0));
        assert_eq!(get("ceems_tsdb_select_duration_seconds_count"), Some(1.0));
        assert_eq!(get("ceems_tsdb_wal_enabled"), Some(0.0));
    }
}
