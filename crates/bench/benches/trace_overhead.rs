//! Cost of always-on trace sampling on the query path (DESIGN.md S22).
//!
//! S17 budgets instrumentation at < 5% of the operation it wraps. The trace
//! pipeline adds three things per query on top of that: minting/accepting a
//! trace ID, the head-sampling hash, and — for kept traces — serialising the
//! report into the trace store's ring. The store's flusher commits the held
//! spans as one synced frame when `TraceStore::gc` wakes it, which the bench
//! calls every `GC_EVERY` queries, as `CeemsStack::advance` does between
//! dashboards. This bench runs the same PromQL instant query under three
//! policies and emits `BENCH_trace.json` with the measured overhead of each
//! rate and a verdict against the 5% budget for each (`within_budget` is
//! the default 10% head rate's):
//!
//! * `off`       — no sink; the bare eval the S17 budget is relative to.
//! * `sampled`   — `TraceSink` at the default `obs.trace_sample_rate` 0.1.
//! * `always_on` — rate 1.0, every trace persisted (worst case, for scale).
//!
//! `off` runs as two arms of the interleaved loop. `noise_pct` is the p50
//! gap between them: what the loop reads when nothing differs. A rate's
//! `*_resolved` flag is true when its overhead exceeds that gap; a verdict
//! on an unresolved overhead is the noise's, not the tracer's.
//!
//! After the run each store is dropped and reopened, and the bench fails if
//! the reopened store lacks a span the ring held: the flusher path, checked.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use ceems_bench::report::{time_iters, write_bench_json, LatencySummary};
use ceems_metrics::labels::{LabelSetBuilder, METRIC_NAME_LABEL};
use ceems_obs::trace::{self, QueryTrace};
use ceems_obs::{TraceSampler, TraceSink, TraceStore, TraceStoreConfig};
use ceems_tsdb::promql::{instant_query, parse_expr};
use ceems_tsdb::Tsdb;
use criterion::{criterion_group, criterion_main, Criterion};

const NODES: usize = 512;
const SAMPLES_PER_SERIES: i64 = 30;
const STEP_MS: i64 = 15_000;
const ITERS: usize = 600;
const BUDGET_PCT: f64 = 5.0;
/// Queries between two `TraceStore::gc` calls.
const GC_EVERY: usize = 64;

fn fleet_db() -> Tsdb {
    let db = Tsdb::default();
    for n in 0..NODES {
        let labels = LabelSetBuilder::new()
            .label(METRIC_NAME_LABEL, "ceems_ipmi_dcmi_current_watts")
            .label("instance", format!("node-{n:04}"))
            .label("hostname", format!("node-{n:04}"))
            .build();
        for s in 0..SAMPLES_PER_SERIES {
            db.append(&labels, s * STEP_MS, 180.0 + (n % 17) as f64);
        }
    }
    db
}

fn open_sink(tag: &str, rate: f64) -> (TraceSink, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "ceems-bench-trace-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(
        TraceStore::open(&dir, TraceStoreConfig::default()).expect("trace store opens"),
    );
    (TraceSink::new(TraceSampler::new(rate, 0.0), store), dir)
}

/// Drops the sink, whose store commits what it still holds, reopens the
/// store from `dir` and panics unless it holds exactly the spans the ring
/// held.
fn check_reopen(sink: TraceSink, dir: &Path) {
    let held = sink.store().list(None, None, None, usize::MAX);
    drop(sink);
    let store = TraceStore::open(dir, TraceStoreConfig::default()).expect("trace store reopens");
    let back = store.list(None, None, None, usize::MAX);
    assert!(
        back == held,
        "reopened trace store at {} holds {} spans, the ring held {}",
        dir.display(),
        back.len(),
        held.len()
    );
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

/// One traced query, exactly the shape of the tsdb HTTP handler: mint an ID,
/// begin + enter the trace, stage the eval, offer the finished report.
/// Returns whether the sink kept the trace.
fn traced_query(
    db: &Tsdb,
    expr: &ceems_tsdb::promql::Expr,
    now: i64,
    sink: Option<&TraceSink>,
) -> bool {
    match sink {
        None => {
            let v = instant_query(db, expr, now).expect("query evals");
            std::hint::black_box(v);
            false
        }
        Some(sink) => {
            let id = trace::mint_id();
            let t = QueryTrace::begin(Some(&id));
            let guard = trace::enter(Some(t.clone()));
            {
                let _s = t.stage("eval");
                let v = instant_query(db, expr, now).expect("query evals");
                std::hint::black_box(v);
            }
            drop(guard);
            sink.offer("tsdb", "/api/v1/query", "bench", &t.report())
                .is_some()
        }
    }
}

/// Measures the arms interleaved round-robin, so allocator and cache
/// warm-up, CPU frequency and scheduler noise land on all of them equally —
/// back-to-back blocks would charge the whole warm-up to whichever config
/// runs first.
fn measure_interleaved<const N: usize>(
    db: &Tsdb,
    expr: &ceems_tsdb::promql::Expr,
    sinks: [Option<&TraceSink>; N],
) -> ([Vec<Duration>; N], [u64; N]) {
    let now = (SAMPLES_PER_SERIES - 1) * STEP_MS;
    let mut samples = [const { Vec::new() }; N];
    let mut stored = [0u64; N];
    for _ in 0..20 {
        for sink in sinks {
            traced_query(db, expr, now, sink);
        }
    }
    for round in 0..ITERS {
        if round % GC_EVERY == GC_EVERY - 1 {
            for sink in sinks.into_iter().flatten() {
                sink.store().gc(now);
            }
        }
        for (i, sink) in sinks.into_iter().enumerate() {
            let mut kept = false;
            let mut t = time_iters(1, || kept = traced_query(db, expr, now, sink));
            samples[i].push(t.pop().unwrap());
            if kept {
                stored[i] += 1;
            }
        }
    }
    (samples, stored)
}

fn bench_trace_overhead(c: &mut Criterion) {
    let db = fleet_db();
    let expr =
        parse_expr("sum(rate(ceems_ipmi_dcmi_current_watts[60s]))").expect("bench expr parses");
    let now = (SAMPLES_PER_SERIES - 1) * STEP_MS;

    let (sampled, sampled_dir) = open_sink("sampled", 0.1);
    let (always, always_dir) = open_sink("always", 1.0);

    c.bench_function("trace_overhead/query_untraced", |b| {
        b.iter(|| traced_query(&db, &expr, now, None))
    });
    for (name, sink) in [
        ("trace_overhead/query_sampled_10pct", &sampled),
        ("trace_overhead/query_always_stored", &always),
    ] {
        let mut queries = 0;
        c.bench_function(name, |b| {
            b.iter(|| {
                queries += 1;
                if queries % GC_EVERY == 0 {
                    sink.store().gc(now);
                }
                traced_query(&db, &expr, now, Some(sink))
            })
        });
    }

    // Each untraced arm runs just before a traced one.
    let ([mut off, mut rate10, mut off_again, mut rate100], [_, stored10, _, stored100]) =
        measure_interleaved(&db, &expr, [None, Some(&sampled), None, Some(&always)]);
    let off_sum = LatencySummary::from_samples(&mut off);
    let off_again_sum = LatencySummary::from_samples(&mut off_again);
    let rate10_sum = LatencySummary::from_samples(&mut rate10);
    let rate100_sum = LatencySummary::from_samples(&mut rate100);

    // p50 is the stable basis: the mean folds in scheduler outliers, and the
    // p99 of short in-process loops is pure noise.
    let pct_over_off =
        |sum: &LatencySummary| (sum.p50_us - off_sum.p50_us) / off_sum.p50_us * 100.0;
    let overhead_pct = pct_over_off(&rate10_sum);
    let always_pct = pct_over_off(&rate100_sum);
    let noise_pct = pct_over_off(&off_again_sum).abs();

    write_bench_json(
        "trace",
        &serde_json::json!({
            "bench": "trace_overhead",
            "nodes": NODES,
            "iters": ITERS,
            "query": "sum(rate(ceems_ipmi_dcmi_current_watts[60s]))",
            "untraced": off_sum.to_json(),
            "untraced_again": off_again_sum.to_json(),
            "sampled_10pct": rate10_sum.to_json(),
            "always_stored": rate100_sum.to_json(),
            "sampled_overhead_pct": overhead_pct,
            "always_stored_overhead_pct": always_pct,
            "noise_pct": noise_pct,
            "sampled_resolved": overhead_pct > noise_pct,
            "always_stored_resolved": always_pct > noise_pct,
            "budget_pct": BUDGET_PCT,
            "within_budget": overhead_pct < BUDGET_PCT,
            "sampled_within_budget": overhead_pct < BUDGET_PCT,
            "always_stored_within_budget": always_pct < BUDGET_PCT,
            "stored_at_default_rate": stored10,
            "stored_at_full_rate": stored100,
            "gc_every_queries": GC_EVERY,
        }),
    );
    check_reopen(sampled, &sampled_dir);
    check_reopen(always, &always_dir);
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
