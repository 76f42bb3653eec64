//! Alerting: rule-evaluation throughput by meta-rule count (EXPERIMENTS E21).
//!
//! One `AlertService::tick` evaluates the rules in the order they are
//! written: plain rules query the TSDB, meta-rules (reading `ALERTS`) query
//! the service's own alert store. This bench measures tick latency — and
//! the derived rules/sec — for the same rule count with 0, 1 and 3
//! meta-rules at the tail, over a fleet of violating and non-violating
//! series.

use std::sync::Arc;

use ceems_alertsrv::{
    AlertConfig, AlertRule, AlertService, LocalQuerySource, LogSink, RoutingTree, RuleSet,
};
use ceems_bench::report::{time_iters, write_bench_json, LatencySummary};
use ceems_metrics::labels::{LabelSetBuilder, METRIC_NAME_LABEL};
use ceems_tsdb::Tsdb;
use criterion::{criterion_group, criterion_main, Criterion};

const INSTANCES: usize = 50;
const TOTAL_RULES: usize = 48;
/// Meta-rules at the tail of the rule list, one row each.
const META_RULES: [usize; 3] = [0, 1, 3];

fn fleet_db(now_ms: i64) -> Arc<Tsdb> {
    let db = Arc::new(Tsdb::default());
    for i in 0..INSTANCES {
        let labels = LabelSetBuilder::default()
            .label(METRIC_NAME_LABEL, "power")
            .label("instance", format!("n{i}"))
            .build();
        // Values 0..INSTANCES watts: thresholds pick out subsets.
        db.append(&labels, now_ms, i as f64);
    }
    db
}

/// `TOTAL_RULES` rules: `metas` meta-rules at the tail, the rest threshold
/// rules over the fleet.
fn rules_with_metas(metas: usize) -> RuleSet {
    let mut rules: Vec<AlertRule> = (0..TOTAL_RULES - metas)
        .map(|i| {
            AlertRule::new(
                format!("R{i}"),
                &format!("power > {}", 10 + (i % 30)),
                0,
            )
            .unwrap()
        })
        .collect();
    for m in 0..metas {
        rules.push(
            AlertRule::new(
                format!("Meta{m}"),
                "sum(ALERTS{alertstate=\"firing\"}) > 0",
                0,
            )
            .unwrap(),
        );
    }
    RuleSet::compile(rules)
}

fn service_with_metas(metas: usize, db: &Arc<Tsdb>, tag: &str) -> AlertService {
    let dir = std::env::temp_dir().join(format!(
        "ceems-bench-alerts-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).ok();
    AlertService::new(
        rules_with_metas(metas),
        Arc::new(LocalQuerySource::new(db.clone(), i64::MAX / 4)),
        vec![LogSink::new()],
        RoutingTree::new("log"),
        AlertConfig {
            group_wait_ms: 0,
            group_interval_ms: 1,
            repeat_interval_ms: i64::MAX / 4,
            resolved_retention_ms: i64::MAX / 4,
            lookback_ms: i64::MAX / 4,
        },
        &dir,
    )
    .unwrap()
}

fn bench_alert_eval(c: &mut Criterion) {
    let db = fleet_db(1_000);

    let mut group = c.benchmark_group("alert_eval");
    group.sample_size(20);
    for metas in META_RULES {
        let svc = service_with_metas(metas, &db, &format!("crit-m{metas}"));
        let mut t = 1_000i64;
        group.bench_function(format!("tick_meta{metas}"), |b| {
            b.iter(|| {
                t += 1_000;
                svc.tick(t)
            })
        });
    }
    group.finish();

    // Machine-readable artifact: rules/sec per meta-rule count.
    let mut configs = Vec::new();
    for metas in META_RULES {
        let svc = service_with_metas(metas, &db, &format!("json-m{metas}"));
        let mut t = 1_000i64;
        svc.tick(t); // warm: first tick pays alert creation + persistence
        let mut samples = time_iters(15, || {
            t += 1_000;
            svc.tick(t);
        });
        let summary = LatencySummary::from_samples(&mut samples);
        let rules_per_sec = TOTAL_RULES as f64 / (summary.p50_us / 1e6).max(1e-12);
        configs.push(serde_json::json!({
            "meta_rules": metas,
            "rules": TOTAL_RULES,
            "instances": INSTANCES,
            "tick": summary.to_json(),
            "rules_per_sec": rules_per_sec,
        }));
    }
    write_bench_json(
        "alerts",
        &serde_json::json!({
            "bench": "alert_eval",
            "configs": configs,
        }),
    );
}

criterion_group!(benches, bench_alert_eval);
criterion_main!(benches);
