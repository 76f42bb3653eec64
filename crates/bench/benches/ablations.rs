//! Ablation benches for the design choices called out in `DESIGN.md` §6:
//! scrape fan-out parallelism and in-process vs HTTP scrape targets, beside
//! the wide select S17's instrumentation budget is held against.

use std::sync::Arc;

use ceems_metrics::labels::LabelSetBuilder;
use ceems_metrics::matcher::LabelMatcher;
use ceems_tsdb::scrape::{ScrapeManager, ScrapeTarget, TargetSource};
use ceems_tsdb::Tsdb;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn text_body() -> String {
    // A realistic exporter payload: ~60 samples.
    let mut s = String::new();
    for i in 0..60 {
        s.push_str(&format!("metric_{i}{{uuid=\"slurm-1\"}} {}\n", i * 3));
    }
    s
}

/// Scrape fan-out: same 256 in-process targets, varying thread counts.
fn bench_scrape_threads(c: &mut Criterion) {
    let body = Arc::new(text_body());
    let targets: Vec<ScrapeTarget> = (0..256)
        .map(|i| {
            let body = body.clone();
            ScrapeTarget {
                instance: format!("n{i}"),
                job: "ceems".into(),
                extra_labels: vec![],
                source: TargetSource::InProcess(Arc::new(move || (*body).clone())),
            }
        })
        .collect();
    let mgr = ScrapeManager::new(targets);
    let mut group = c.benchmark_group("ablation_scrape_threads");
    group.sample_size(10);
    let mut t = 0i64;
    for threads in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &n| {
            b.iter(|| {
                t += 15_000;
                let db = Tsdb::default();
                mgr.scrape_once(&db, t, n)
            })
        });
    }
    group.finish();
}

/// In-process vs HTTP targets: what does the socket cost per target?
fn bench_scrape_transport(c: &mut Criterion) {
    let body = Arc::new(text_body());
    let in_process: Vec<ScrapeTarget> = (0..16)
        .map(|i| {
            let body = body.clone();
            ScrapeTarget {
                instance: format!("n{i}"),
                job: "ceems".into(),
                extra_labels: vec![],
                source: TargetSource::InProcess(Arc::new(move || (*body).clone())),
            }
        })
        .collect();

    let body2 = body.clone();
    let mut router = ceems_http::Router::new();
    router.get("/metrics", move |_| ceems_http::Response::text((*body2).clone()));
    let server =
        ceems_http::HttpServer::serve(ceems_http::ServerConfig::ephemeral(), router).unwrap();
    let http: Vec<ScrapeTarget> = (0..16)
        .map(|i| ScrapeTarget {
            instance: format!("n{i}"),
            job: "ceems".into(),
            extra_labels: vec![],
            source: TargetSource::Http {
                url: format!("{}/metrics", server.base_url()),
                auth: None,
            },
        })
        .collect();

    let mut group = c.benchmark_group("ablation_scrape_transport_16targets");
    group.sample_size(20);
    let mgr_ip = ScrapeManager::new(in_process);
    let mgr_http = ScrapeManager::new(http);
    let mut t = 0i64;
    group.bench_function("in_process", |b| {
        b.iter(|| {
            t += 15_000;
            let db = Tsdb::default();
            mgr_ip.scrape_once(&db, t, 4)
        })
    });
    group.bench_function("http", |b| {
        b.iter(|| {
            t += 15_000;
            let db = Tsdb::default();
            mgr_http.scrape_once(&db, t, 4)
        })
    });
    group.finish();
    server.shutdown();
}

/// A TSDB holding `series` series of 20 samples each.
fn wide_tsdb(series: usize) -> Tsdb {
    let db = Tsdb::default();
    for i in 0..series {
        let l = LabelSetBuilder::new()
            .label("__name__", "wide")
            .label("instance", format!("n{i:06}"))
            .build();
        for t in 0..20i64 {
            db.append(&l, t * 15_000, (i + t as usize) as f64);
        }
    }
    db
}

/// A select of every series' whole history, at 10k and 100k series (the
/// operation S17's instrumentation budget is held against).
fn bench_select_wide(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_wide");
    group.sample_size(10);
    for series in [10_000usize, 100_000] {
        let db = wide_tsdb(series);
        let m = [LabelMatcher::eq("__name__", "wide")];
        group.bench_function(BenchmarkId::new("series", series), |b| {
            b.iter(|| db.select(&m, 0, i64::MAX))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scrape_threads,
    bench_scrape_transport,
    bench_select_wide
);
criterion_main!(benches);
