//! E8 — §II.B.b: why the API server exists.
//!
//! "Although Prometheus is a highly performant TSDB, it is not suitable to
//! make queries that span a long duration. An example ... the total energy
//! usage of a given user or a project on a given cluster for all the
//! workloads during the last year."
//!
//! This bench stores a year of per-job power samples (hourly resolution,
//! 50 jobs) and compares answering "total energy of user X last year" by
//! (a) a raw TSDB range sweep and (b) the API server's pre-aggregated
//! usage table. The paper's architectural claim is the orders-of-magnitude
//! gap between the two; the bench fails if the two answers differ by more
//! than 0.1 %.

use std::sync::Arc;

use ceems_apiserver::schema::{usage_cols, USAGE_TABLE};
use ceems_metrics::labels::LabelSetBuilder;
use ceems_relstore::{Db, Filter, Query};
use ceems_tsdb::promql::{instant_query, parse_expr};
use ceems_tsdb::Tsdb;
use criterion::{criterion_group, criterion_main, Criterion};

const HOURS: i64 = 365 * 24;
const JOBS: usize = 50;

fn year_of_data() -> (Arc<Tsdb>, Db) {
    let db = Arc::new(Tsdb::default());
    // 50 jobs of user "alice", each sampled hourly for a year at ~300 W.
    for j in 0..JOBS {
        let labels = LabelSetBuilder::new()
            .label("__name__", "uuid:ceems_power:watts")
            .label("uuid", format!("slurm-{j}"))
            .label("user", "alice")
            .build();
        for h in 0..HOURS {
            db.append(&labels, h * 3_600_000, 300.0 + (h % 10) as f64);
        }
    }

    // The API server's rollup of the same data.
    let dir = ceems_bench::tmpdir("aggdb");
    let mut rel = Db::open(&dir).unwrap();
    ceems_apiserver::schema::create_tables(&mut rel).unwrap();
    // One usage row per user|project as the updater maintains it.
    rel.upsert(
        USAGE_TABLE,
        vec![
            "alice|proj".into(),
            "alice".into(),
            "proj".into(),
            ceems_relstore::Value::Int(JOBS as i64),
            ceems_relstore::Value::Real(123.0),
            ceems_relstore::Value::Real(0.0),
            // kWh: 50 jobs × ~304.5 W × 8760 h.
            ceems_relstore::Value::Real(JOBS as f64 * 304.5 * HOURS as f64 / 1000.0),
            ceems_relstore::Value::Real(7.0e6),
            ceems_relstore::Value::Int(0),
        ],
    )
    .unwrap();
    (db, rel)
}

fn bench_year_span(c: &mut Criterion) {
    let (tsdb, rel) = year_of_data();
    eprintln!(
        "[E8] raw store: {} series, {} samples, {:.1} MiB compressed",
        tsdb.series_count(),
        tsdb.samples_appended(),
        tsdb.storage_bytes() as f64 / (1 << 20) as f64
    );

    let mut group = c.benchmark_group("year_energy_of_user");
    group.sample_size(10);

    // (a) Raw: sum_over_time across the whole year, per job, then sum.
    // (Energy ≈ Σ watts × 1 h.)
    let expr = parse_expr("sum(sum_over_time({user=\"alice\"}[1y]))").unwrap();
    group.bench_function("raw_tsdb_range_sweep", |b| {
        b.iter(|| {
            let v = instant_query(tsdb.as_ref(), &expr, HOURS * 3_600_000).unwrap();
            v
        })
    });

    // (b) Aggregated: one indexed relational lookup.
    let q = Query::all().filter(Filter::Eq("user".into(), "alice".into()));
    group.bench_function("apiserver_usage_table", |b| {
        b.iter(|| {
            let rows = rel.query(USAGE_TABLE, &q).unwrap();
            rows[0][usage_cols::ENERGY_KWH].as_real().unwrap()
        })
    });
    group.finish();

    // Sanity: both roads lead to the same energy (within sampling error).
    let v = instant_query(tsdb.as_ref(), &expr, HOURS * 3_600_000).unwrap();
    let raw_kwh = match v {
        ceems_tsdb::promql::Value::Vector(v) => v[0].1 / 1000.0, // W·h → kWh
        _ => f64::NAN,
    };
    let agg_kwh = rel.query(USAGE_TABLE, &q).unwrap()[0][usage_cols::ENERGY_KWH]
        .as_real()
        .unwrap();
    let deviation = agg_kwh / raw_kwh - 1.0;
    eprintln!(
        "[E8] year energy: raw sweep {raw_kwh:.0} kWh vs rollup {agg_kwh:.0} kWh ({:+.3}%)",
        deviation * 100.0
    );
    // The stack has no cold tier (DESIGN S4): a year-long question is
    // answered from the usage row, so it must give the sweep's energy.
    assert!(
        deviation.abs() <= 1e-3,
        "the rollup is {:+.3}% off the raw sweep",
        deviation * 100.0
    );
}

criterion_group!(benches, bench_year_span);
criterion_main!(benches);
