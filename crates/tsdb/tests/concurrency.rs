//! Thread-safety under concurrent scraping, querying, rule evaluation and
//! deletion — the TSDB's production access pattern (scrape threads write
//! while dashboards read and the API server deletes).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ceems_metrics::labels::LabelSetBuilder;
use ceems_metrics::matcher::LabelMatcher;
use ceems_tsdb::promql::{instant_query, parse_expr};
use ceems_tsdb::Tsdb;

#[test]
fn concurrent_writers_readers_and_deleters() {
    let db = Arc::new(Tsdb::default());
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // 4 writer threads: disjoint instances, shared metric name.
        for w in 0..4u64 {
            let db = db.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let labels: Vec<_> = (0..50)
                    .map(|i| {
                        LabelSetBuilder::new()
                            .label("__name__", "conc_metric")
                            .label("instance", format!("w{w}-n{i}"))
                            .build()
                    })
                    .collect();
                let mut t = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    t += 1000;
                    for l in &labels {
                        db.append(l, t, t as f64);
                    }
                }
            });
        }
        // 2 reader threads: selects + PromQL.
        for _ in 0..2 {
            let db = db.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let expr = parse_expr("sum(conc_metric)").unwrap();
                let mut t = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    t += 5000;
                    let _ = db.select(&[LabelMatcher::eq("__name__", "conc_metric")], 0, t);
                    let _ = instant_query(db.as_ref(), &expr, t);
                    let _ = db.label_values("instance");
                }
            });
        }
        // 1 deleter: periodically purges one writer's series (the
        // cardinality cleanup racing live scrapes).
        {
            let db = db.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut round = 0;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    let victim = format!("w0-n{}", round % 50);
                    db.delete_series(&[LabelMatcher::eq("instance", victim)]);
                    std::thread::yield_now();
                }
            });
        }

        std::thread::sleep(std::time::Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
    });

    // The database is consistent afterwards: every surviving series is
    // selectable and ordered.
    let all = db.select(&[LabelMatcher::eq("__name__", "conc_metric")], 0, i64::MAX);
    assert!(!all.is_empty());
    for s in &all {
        assert!(s.samples.windows(2).all(|w| w[0].t_ms <= w[1].t_ms));
    }
    assert!(db.samples_appended() > 1000);
    assert_eq!(db.out_of_order_dropped(), 0);
}
