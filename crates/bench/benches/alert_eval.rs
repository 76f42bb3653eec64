//! Alerting: rule-evaluation throughput by meta-rule count (EXPERIMENTS E21).
//!
//! One `AlertService::tick` evaluates the rules in the order they are
//! written: plain rules query the TSDB, meta-rules (reading `ALERTS`) query
//! the service's own alert store. This bench measures tick latency — and
//! the derived rules/sec — for the same rule count with 0, 1 and 3
//! meta-rules at the tail, over a fleet of violating and non-violating
//! series.
//!
//! `BENCH_alerts.json` times the three configs interleaved tick by tick,
//! each round starting at the next config, so warm-up and host drift land
//! on all three alike rather than on whichever would run first.
//! `noise_pct` is the largest p50 gap between the first and second half of
//! one config's ticks (`halves_p50_us`), over its p50: what the loop reads
//! when nothing differs. A meta
//! config's `meta<n>_resolved` flag is true when its p50 differs from the
//! 0-meta config's by more than that gap.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ceems_alertsrv::{
    AlertConfig, AlertRule, AlertService, LocalQuerySource, LogSink, RoutingTree, RuleSet,
};
use ceems_bench::report::{write_bench_json, LatencySummary};
use ceems_metrics::labels::{LabelSetBuilder, METRIC_NAME_LABEL};
use ceems_tsdb::Tsdb;
use criterion::{criterion_group, criterion_main, Criterion};

const INSTANCES: usize = 50;
const TOTAL_RULES: usize = 48;
/// Meta-rules at the tail of the rule list, one row each.
const META_RULES: [usize; 3] = [0, 1, 3];
/// Untimed ticks per config before the timed ones: the first tick pays
/// alert creation and persistence.
const WARM_TICKS: usize = 5;
/// Timed ticks per config, in two halves whose p50 gap is the noise.
const TICKS: usize = 120;

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

    let services: Vec<AlertService> = META_RULES
        .iter()
        .map(|&metas| service_with_metas(metas, &db, &format!("json-m{metas}")))
        .collect();
    let ticks = measure_interleaved(&services);
    let p50 = |samples: &[Duration]| LatencySummary::from_samples(&mut samples.to_vec()).p50_us;
    let halves = |samples: &[Duration]| {
        let (first, second) = samples.split_at(TICKS / 2);
        [p50(first), p50(second)]
    };
    let half_gap_pct = |samples: &[Duration]| {
        let [first, second] = halves(samples);
        (first - second).abs() / p50(samples) * 100.0
    };
    let noise_pct = ticks.iter().map(|s| half_gap_pct(s)).fold(0.0, f64::max);
    let vs_meta0_pct = |samples: &[Duration]| (p50(samples) / p50(&ticks[0]) - 1.0) * 100.0;
    let configs: Vec<serde_json::Value> = META_RULES
        .iter()
        .zip(&ticks)
        .map(|(metas, samples)| {
            let summary = LatencySummary::from_samples(&mut samples.clone());
            serde_json::json!({
                "meta_rules": metas,
                "rules": TOTAL_RULES,
                "instances": INSTANCES,
                "tick": summary.to_json(),
                "halves_p50_us": halves(samples).to_vec(),
                "rules_per_sec": TOTAL_RULES as f64 / (summary.p50_us / 1e6).max(1e-12),
                "vs_meta0_pct": vs_meta0_pct(samples),
            })
        })
        .collect();
    write_bench_json(
        "alerts",
        &serde_json::json!({
            "bench": "alert_eval",
            "warm_ticks": WARM_TICKS,
            "noise_pct": noise_pct,
            "meta1_resolved": vs_meta0_pct(&ticks[1]).abs() > noise_pct,
            "meta3_resolved": vs_meta0_pct(&ticks[2]).abs() > noise_pct,
            "configs": configs,
        }),
    );
}

/// One tick of every service per round, each round starting one service
/// later, after `WARM_TICKS` untimed rounds; `TICKS` timings per service.
fn measure_interleaved(services: &[AlertService]) -> Vec<Vec<Duration>> {
    let mut t = 1_000i64;
    let mut ticks = vec![Vec::with_capacity(TICKS); services.len()];
    for round in 0..WARM_TICKS + TICKS {
        t += 1_000;
        for k in 0..services.len() {
            let i = (round + k) % services.len();
            let start = Instant::now();
            services[i].tick(t);
            if round >= WARM_TICKS {
                ticks[i].push(start.elapsed());
            }
        }
    }
    ticks
}

criterion_group!(benches, bench_alert_eval);
criterion_main!(benches);
