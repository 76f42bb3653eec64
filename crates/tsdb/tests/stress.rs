//! Stress test of the read path under series churn.
//!
//! Writers, regex readers, a deleter and a retention enforcer hammer one
//! `Tsdb` concurrently; afterwards we assert that no stable sample was lost
//! and that a regex select agrees exactly with an exact one. A model-checked
//! property holds a regex select to the live set after every create, delete
//! and retention step.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ceems_metrics::labels::{LabelSet, LabelSetBuilder};
use ceems_metrics::matcher::{LabelMatcher, MatchOp};
use ceems_tsdb::{Tsdb, TsdbConfig};
use proptest::prelude::*;

fn labels_for(name: &str, instance: &str) -> LabelSet {
    LabelSetBuilder::new()
        .label("__name__", name)
        .label("instance", instance)
        .build()
}

fn instances(series: &[ceems_tsdb::SeriesData]) -> BTreeSet<String> {
    series
        .iter()
        .map(|s| s.labels.get("instance").unwrap().to_string())
        .collect()
}

#[test]
fn stress_concurrent_append_select_delete_retention() {
    let db = Arc::new(Tsdb::new(TsdbConfig {
        // Retention cutoff used below is 150_000 - 100_000 = 50_000:
        // victim samples (t <= 10_000) get reaped, stable samples
        // (t >= 10_000_000) never do.
        retention_ms: 100_000,
        ..TsdbConfig::default()
    }));
    let stop = Arc::new(AtomicBool::new(false));
    let stable_re = LabelMatcher::new("instance", MatchOp::Re, "stable-.*").unwrap();
    let victim_re = LabelMatcher::new("instance", MatchOp::Re, "victim-.*").unwrap();

    let stable_appended: u64 = std::thread::scope(|s| {
        // 4 writers × 25 stable series, disjoint, strictly increasing
        // timestamps: every append must survive to the end.
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let db = db.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let labels: Vec<LabelSet> = (0..25)
                        .map(|i| labels_for("stress_metric", &format!("stable-w{w}-n{i}")))
                        .collect();
                    let mut t = 10_000_000i64;
                    let mut appended = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        t += 1000;
                        for l in &labels {
                            db.append(l, t, t as f64);
                            appended += 1;
                        }
                    }
                    appended
                })
            })
            .collect();

        // Churn writer: victim series at pre-cutoff timestamps, constantly
        // recreated after the deleter / retention reap them.
        {
            let db = db.clone();
            let stop = stop.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..20 {
                        db.append(&labels_for("victim_metric", &format!("victim-{i}")), 1000, 1.0);
                    }
                    std::thread::yield_now();
                }
            });
        }
        // Deleter: targeted tombstones against victims.
        {
            let db = db.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut round = 0;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    db.delete_series(&[LabelMatcher::eq(
                        "instance",
                        format!("victim-{}", round % 20),
                    )]);
                    std::thread::yield_now();
                }
            });
        }
        // Retention enforcer: reaps everything before t=50_000.
        {
            let db = db.clone();
            let stop = stop.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    db.enforce_retention(150_000);
                    std::thread::yield_now();
                }
            });
        }
        // 2 readers: regex selects resolve while membership churns under
        // them.
        for _ in 0..2 {
            let db = db.clone();
            let stop = stop.clone();
            let stable_re = stable_re.clone();
            let victim_re = victim_re.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let stable = db.select(std::slice::from_ref(&stable_re), 0, i64::MAX);
                    // A stable series can never vanish: anything selected is
                    // non-empty and internally ordered.
                    for series in &stable {
                        assert!(!series.samples.is_empty());
                        assert!(series.samples.windows(2).all(|w| w[0].t_ms < w[1].t_ms));
                    }
                    let _ = db.select(std::slice::from_ref(&victim_re), 0, i64::MAX);
                    let _ = db.label_values("instance");
                }
            });
        }

        std::thread::sleep(std::time::Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        writers
            .into_iter()
            .map(|h| h.join().expect("writer panicked"))
            .sum()
    });

    // No lost stable samples: every appended sample is still selectable.
    let stable = db.select(std::slice::from_ref(&stable_re), 0, i64::MAX);
    assert_eq!(stable.len(), 100, "all stable series survive churn");
    let total: u64 = stable.iter().map(|s| s.samples.len() as u64).sum();
    assert_eq!(total, stable_appended, "no stable sample lost");
    assert_eq!(db.out_of_order_dropped(), 0);

    // After churn, a regex resolution (a scan of the label's values) must
    // agree with an exact-matcher resolution (one posting list).
    for (re, name) in [(&stable_re, "stress_metric"), (&victim_re, "victim_metric")] {
        let via_regex = db.select(std::slice::from_ref(re), 0, i64::MAX);
        let via_exact = db.select(&[LabelMatcher::eq("__name__", name)], 0, i64::MAX);
        assert_eq!(
            instances(&via_regex),
            instances(&via_exact),
            "regex and exact selects diverged for {name}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every create, delete and retention step, a regex select
    /// returns exactly the model's live set.
    #[test]
    fn regex_select_equals_the_live_set_under_churn(
        ops in proptest::collection::vec((0u8..4, 0u8..8), 1..60)
    ) {
        let db = Tsdb::new(TsdbConfig {
            retention_ms: 1_000,
            ..TsdbConfig::default()
        });
        let re = LabelMatcher::new("instance", MatchOp::Re, "i[0-9]+").unwrap();
        // Model: last appended timestamp per live instance.
        let mut live: std::collections::BTreeMap<u8, i64> = std::collections::BTreeMap::new();
        let mut t = 1_000_000i64;
        for (op, i) in ops {
            match op {
                // Weighted 2:1 toward appends so series exist to delete.
                0 | 1 => {
                    t += 1000;
                    db.append(&labels_for("m", &format!("i{i}")), t, f64::from(i));
                    live.insert(i, t);
                }
                2 => {
                    db.delete_series(&[LabelMatcher::eq("instance", format!("i{i}"))]);
                    live.remove(&i);
                }
                _ => {
                    // Cutoff is t - 1_000: a series is reaped exactly when
                    // its newest sample predates the cutoff.
                    db.enforce_retention(t);
                    live.retain(|_, last| *last >= t - 1_000);
                }
            }
            let got = instances(&db.select(std::slice::from_ref(&re), 0, i64::MAX));
            let want: BTreeSet<String> = live.keys().map(|i| format!("i{i}")).collect();
            prop_assert_eq!(got, want, "select/model divergence after op {} on i{}", op, i);
        }
    }
}
