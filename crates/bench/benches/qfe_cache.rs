//! E14 — query frontend: what the results cache and range splitting buy.
//!
//! Renders the Fig. 2c dashboard (5 panels, 10 min of data at 15 s step)
//! through `ceems-qfe` three ways: cold (every extent fetched from the
//! TSDB), warm (every extent served from the step-aligned results cache;
//! the ISSUE acceptance bar is a ≥5× latency reduction), and split vs
//! unsplit with the cache disabled (the cost/benefit of fanning one range
//! out over interval-aligned sub-queries). Unsplit and uncached, every
//! panel is one fetched extent, which the frontend relays unread.
//!
//! `promapi_codec` times the query answer codec a read passes through: a
//! merged answer four times (TSDB encode, frontend decode and encode, the
//! LB's body check), a relayed one-extent answer three (TSDB encode, the
//! frontend's and the LB's body checks). Its rows are one panel's answer
//! (1 series × 81 steps, a 20-minute range at 15 s) and one fleet answer
//! (10 series × 81 steps); the body check runs on both.
//!
//! `noise_pct` is the largest gap between the p50s of the first and second
//! half of one row's timed runs, over that row's p50 (`half_gap_pct` holds
//! each row's): what a loop reads when nothing differs, as the `wal` and
//! `stream` benches report it. A row moved by less says nothing.

use std::sync::Arc;

use ceems_bench::report::{time_iters, write_bench_json, LatencySummary, Noise};
use ceems_bench::small_stack_with_job;
use ceems_http::{Method, Request, Status};
use ceems_metrics::labels::LabelSet;
use ceems_qfe::{QfeConfig, QueryFrontend, RouterDownstream};
use ceems_tsdb::httpapi::api_router;
use ceems_tsdb::promapi::{self, QueryData};
use ceems_tsdb::{Sample, SeriesData};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// The Fig. 2c panel expressions (see `ceems_core::dashboards`).
fn panel_queries(uuid: &str) -> Vec<String> {
    vec![
        format!("sum(uuid:ceems_cpu_time:rate{{uuid=\"{uuid}\"}})"),
        format!("sum(ceems_compute_unit_memory_used_bytes{{uuid=\"{uuid}\"}}) / 1073741824"),
        format!("sum(uuid:ceems_power:watts{{uuid=\"{uuid}\"}})"),
        format!("sum(rate(ceems_compute_unit_perf_flops_total{{uuid=\"{uuid}\"}}[2m])) / 1e9"),
        format!("sum(rate(ceems_compute_unit_net_rx_bytes_total{{uuid=\"{uuid}\"}}[2m])) / 1e6"),
    ]
}

fn range_request(query: &str, end_s: i64) -> Request {
    Request::new(
        Method::Get,
        &format!(
            "/api/v1/query_range?query={}&start=0&end={end_s}&step=15",
            ceems_http::url::encode_component(query)
        ),
    )
    .with_header("x-grafana-user", "bench")
}

/// A range answer of `series` series × 81 steps of full-precision values:
/// a `sum(..)` panel has no labels, a fleet series one `uuid`.
fn range_answer(series: usize) -> QueryData {
    let start_ms = 1_700_000_000_000i64;
    QueryData::Matrix(
        (0..series)
            .map(|s| {
                let labels = match series {
                    1 => LabelSet::empty(),
                    _ => LabelSet::from_pairs([("uuid", format!("slurm-{s}"))]),
                };
                let samples = (0..81)
                    .map(|i| {
                        let v = 250.0 + 40.0 * ((i * (s + 1)) as f64 * 0.37).sin();
                        Sample::new(start_ms + 15_000 * i as i64, v)
                    })
                    .collect();
                SeriesData::new(labels, samples)
            })
            .collect(),
    )
}

fn bench_qfe(c: &mut Criterion) {
    eprintln!(
        "qfe_cache: detected parallelism = {}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    let stack = small_stack_with_job();
    let now_ms = stack.clock.now_ms();
    let end_s = now_ms / 1000;
    let queries = panel_queries("slurm-1");

    // Everything is in-process: the downstream is the TSDB's own router, so
    // the numbers isolate frontend work (split, cache, merge) + evaluation.
    let downstream = || {
        let now = now_ms;
        Arc::new(RouterDownstream::new(api_router(
            stack.tsdb.clone(),
            Arc::new(move || now),
        )))
    };
    // Split the 10-minute range into ~5 windows; the clock sits at `now`
    // with no recent-window holdback so every extent is cacheable.
    let cfg = |cache_bytes: usize, split_interval_ms: i64| QfeConfig {
        split_interval_ms,
        cache_bytes,
        recent_window_ms: 0,
        now: Arc::new(move || now_ms),
        ..QfeConfig::default()
    };
    let render = |fe: &Arc<QueryFrontend>| {
        for q in &queries {
            let resp = fe.handle(&range_request(q, end_s));
            assert_eq!(resp.status, Status::OK, "{}", resp.body_string());
        }
    };

    let mut group = c.benchmark_group("qfe_dashboard");
    group.sample_size(30);

    // Cold: a fresh (empty) cache for every render.
    group.bench_function("cold_render", |b| {
        b.iter(|| {
            let fe = QueryFrontend::new(downstream(), cfg(64 << 20, 120_000));
            render(&fe);
        })
    });

    // Warm: the same dashboard re-rendered against a primed cache — the
    // acceptance bar is ≥5× under cold_render.
    let warm = QueryFrontend::new(downstream(), cfg(64 << 20, 120_000));
    render(&warm);
    group.bench_function("warm_render", |b| b.iter(|| render(&warm)));

    // Splitting without caching: fan-out cost/benefit in isolation.
    let split = QueryFrontend::new(downstream(), cfg(0, 120_000));
    group.bench_function("split_nocache_render", |b| b.iter(|| render(&split)));
    let unsplit = QueryFrontend::new(downstream(), cfg(0, i64::MAX / 4));
    group.bench_function("unsplit_nocache_render", |b| b.iter(|| render(&unsplit)));

    group.finish();

    let panel = range_answer(1);
    let fleet = range_answer(10);
    let panel_body = promapi::answer(&panel, None, &[]).body;
    let fleet_body = promapi::answer(&fleet, None, &[]).body;
    let codec: [(&str, &dyn Fn()); 5] = [
        ("answer_panel", &|| {
            drop(black_box(promapi::answer(&panel, None, &[])))
        }),
        ("answer_fleet", &|| {
            drop(black_box(promapi::answer(&fleet, None, &[])))
        }),
        ("decode_panel", &|| {
            drop(black_box(promapi::decode_matrix(&panel_body)))
        }),
        ("check_panel", &|| {
            assert!(promapi::is_json(black_box(&panel_body)))
        }),
        ("check_fleet", &|| {
            assert!(promapi::is_json(black_box(&fleet_body)))
        }),
    ];
    let mut group = c.benchmark_group("promapi_codec");
    for (name, run) in &codec {
        group.bench_function(*name, |b| b.iter(run));
    }
    group.finish();

    // Machine-readable artifact: a short measured pass per scenario (the
    // criterion runs above remain the statistically careful numbers).
    let iters = 20;
    let mut cold = time_iters(iters, || {
        let fe = QueryFrontend::new(downstream(), cfg(64 << 20, 120_000));
        render(&fe);
    });
    let mut warm_s = time_iters(iters, || render(&warm));
    let mut split_s = time_iters(iters, || render(&split));
    let mut unsplit_s = time_iters(iters, || render(&unsplit));
    // Each row's half gap, while its samples are in timing order.
    let mut noise = Noise::default();
    noise.record("cold_render", &cold);
    noise.record("warm_render", &warm_s);
    noise.record("split_nocache_render", &split_s);
    noise.record("unsplit_nocache_render", &unsplit_s);
    let cold = LatencySummary::from_samples(&mut cold);
    let warm_sum = LatencySummary::from_samples(&mut warm_s);
    let codec: serde_json::Map<String, serde_json::Value> = codec
        .iter()
        .map(|(name, run)| {
            let mut samples = time_iters(1000, run);
            noise.record(format!("promapi_codec/{name}"), &samples);
            let summary = LatencySummary::from_samples(&mut samples).to_json();
            (name.to_string(), summary)
        })
        .collect();
    write_bench_json(
        "qfe_cache",
        &serde_json::json!({
            "bench": "qfe_cache",
            "dashboard_panels": queries.len(),
            "cold_render": cold.to_json(),
            "warm_render": warm_sum.to_json(),
            "split_nocache_render": LatencySummary::from_samples(&mut split_s).to_json(),
            "unsplit_nocache_render": LatencySummary::from_samples(&mut unsplit_s).to_json(),
            "warm_speedup_p50": cold.p50_us / warm_sum.p50_us.max(1e-9),
            "promapi_codec": codec,
            "promapi_codec_bytes": {"panel": panel_body.len(), "fleet": fleet_body.len()},
            "noise_pct": noise.pct(),
            "half_gap_pct": noise.0,
        }),
    );
}

criterion_group!(benches, bench_qfe);
criterion_main!(benches);
