//! The traced run: the same schedule on [`TracedStack`], spans around every
//! layer call of the write path, the read path peeled depth by depth, and a
//! reference pass on `CeemsStack::advance` that checks the traced driver and
//! prices the tracing.

use std::sync::Arc;
use std::time::Instant;

use ceems_core::CeemsStack;
use ceems_http::{Method, Request};
use ceems_tsdb::Tsdb;

use crate::fixture::{self, resolve, Chain, Depth, Read, ADMIN};
use crate::pipeline::{LayerCounts, Pipeline, TracedStack};
use crate::run::{
    counts_of, fresh_dir, m, prepare, scaled_schedule, setup_untraced, Counts, Metric, Outcome,
    RunArgs,
};
use crate::schedule::{ReadOp, Schedule, CYCLES_PER_MINUTE};
use crate::stats::{median, percentile};
use crate::sys::{self, Calibration};
use crate::trace::{self, Span, Tracer};
use crate::window::run_window;

/// Names and units of the per-layer metrics, in report order.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("simnode.step_ms", "ms"),
    ("slurm.tick_ms", "ms"),
    ("exporter.render_ms", "ms"),
    ("exporter.render_bytes", "B"),
    ("metrics.parse_ms", "ms"),
    ("metrics.parse_samples", "count"),
    ("core.ingest_pass_ms", "ms"),
    ("tsdb.append_ms", "ms"),
    ("tsdb.append_p50_ms", "ms"),
    ("tsdb.wal_append_ms", "ms"),
    ("tsdb.head_append_ms", "ms"),
    ("tsdb.wal_fsyncs", "count"),
    ("tsdb.wal_fsync_ms", "ms"),
    ("tsdb.wal_bytes", "B"),
    ("tsdb.rules_tick_ms", "ms"),
    ("tsdb.rules_evals", "count"),
    ("tsdb.rules_series_written", "count"),
    ("tsdb.checkpoint_ms", "ms"),
    ("tsdb.checkpoint_bytes", "B"),
    ("stream.publish_ms", "ms"),
    ("apiserver.updater_poll_ms", "ms"),
    ("apiserver.units_list_ms", "ms"),
    ("alertsrv.tick_ms", "ms"),
    ("alertsrv.rules_evaluated", "count"),
    ("core.meta_scrape_ms", "ms"),
    ("core.advance_residual_ms", "ms"),
    ("core.ingest_samples_per_cpu_s", "1/s"),
    ("core.read_cpu_ms_per_dashboard", "ms"),
    ("dashboard_render_p95_ms", "ms"),
    ("http.hop_ms", "ms"),
    ("lb.self_ms", "ms"),
    ("qfe.self_ms", "ms"),
    ("tsdb.httpapi_self_ms", "ms"),
    ("tsdb.response_bytes", "B"),
    ("tsdb.promql_eval_ms", "ms"),
    ("tsdb.fleet_promql_eval_ms", "ms"),
    ("tsdb.select_ms", "ms"),
    ("tsdb.select_resolve_ms", "ms"),
    ("tsdb.select_calls_per_query", "count"),
    ("tsdb.posting_cache_hit_ratio", "ratio"),
    ("qfe.cache_hit_ratio", "ratio"),
    ("qfe.subqueries_per_request", "count"),
    ("qfe.shed_total", "count"),
    ("bench.host_calibration_ms", "ms"),
];

/// `bench.trace_overhead_pct` is reported last.
pub const OVERHEAD: (&str, &str) = ("bench.trace_overhead_pct", "%");

/// Sequential phases of one `advance`; their walls plus the root's self time
/// are the traced cycle wall. (A push pass runs its rule tick inside the
/// ingest pass, so `tsdb.rules_tick` is only a phase of its own when pulling.)
const PHASES: [&str; 9] = [
    "simnode.step",
    "slurm.tick",
    "core.ingest_pass",
    "tsdb.rules_tick",
    "apiserver.updater_poll",
    "tsdb.checkpoint",
    "core.meta_scrape",
    "alertsrv.tick",
    "obs.trace_gc",
];

/// Monotonic counters read before and after the window.
struct Totals {
    layer: LayerCounts,
    rule_series_written: u64,
    wal_append_s: f64,
    fsyncs: u64,
    fsync_s: f64,
    cache_hits: u64,
    cache_misses: u64,
    qfe_cached_steps: f64,
    qfe_fetched_steps: f64,
    qfe_subqueries: f64,
    qfe_requests: f64,
}

fn totals(stack: &TracedStack, chain: &Chain) -> Totals {
    let db = stack.tsdb();
    let (fsyncs, fsync_s) = db.wal_sync_stats();
    let cache = db.posting_cache_stats();
    // The frontend's counters are public only as its `/metrics` exposition.
    let text = ceems_metrics::encode_families(&chain.fe.registry().gather());
    let parsed = ceems_metrics::parse::parse_text(&text).map(|p| p.samples);
    let fe = |name: &str| -> f64 {
        parsed
            .iter()
            .flatten()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    };
    Totals {
        layer: stack.layer_counts(),
        rule_series_written: stack.rule_series_written(),
        wal_append_s: db.instruments().wal_append_seconds.sum(),
        fsyncs,
        fsync_s,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        qfe_cached_steps: fe("ceems_qfe_cached_steps_total"),
        qfe_fetched_steps: fe("ceems_qfe_fetched_steps_total"),
        qfe_subqueries: fe("ceems_qfe_split_subqueries_sum"),
        qfe_requests: fe("ceems_qfe_split_subqueries_count"),
    }
}

/// Per-depth latencies of one replayed read list, ms per read, index-aligned.
struct Replay {
    http: Vec<f64>,
    lb: Vec<f64>,
    qfe: Vec<f64>,
    api: Vec<f64>,
    promql: Vec<f64>,
    api_bytes: f64,
    select_ms: f64,
    select_resolve_ms: f64,
    select_calls_per_query: f64,
    http_cpu_ms: f64,
    failed: u64,
}

/// Replays the same reads at successive depths on a quiescent stack. Every
/// depth sees the caches as the previous replay of the same list left them.
fn replay(chain: &Chain, db: &Tsdb, reads: &[Read]) -> Replay {
    let (mut failed, mut bytes) = (0u64, 0usize);
    let mut at = |depth: Depth| -> Vec<f64> {
        reads
            .iter()
            .map(|r| match chain.read(r, depth) {
                Ok((wall, n)) => {
                    if depth == Depth::Api {
                        bytes += n;
                    }
                    wall.as_secs_f64() * 1e3
                }
                Err(_) => {
                    failed += 1;
                    0.0
                }
            })
            .collect()
    };
    let cpu0 = sys::process_cpu_s();
    let http = at(Depth::Http);
    let http_cpu_ms = (sys::process_cpu_s() - cpu0) * 1e3;
    let lb = at(Depth::Lb);
    let qfe = at(Depth::Qfe);
    let api = at(Depth::Api);
    let ins = db.instruments();
    let (sel_s, sel_n, res_s) = (
        ins.select_seconds.sum(),
        ins.select_seconds.count(),
        ins.select_resolve_seconds.sum(),
    );
    let promql = at(Depth::Promql);
    let n = reads.len().max(1) as f64;
    let queries = reads.iter().map(|r| r.queries.len()).sum::<usize>().max(1) as f64;
    Replay {
        http,
        lb,
        qfe,
        api,
        promql,
        api_bytes: bytes as f64 / n,
        select_ms: (ins.select_seconds.sum() - sel_s) * 1e3 / n,
        select_resolve_ms: (ins.select_resolve_seconds.sum() - res_s) * 1e3 / n,
        select_calls_per_query: (ins.select_seconds.count() - sel_n) as f64 / queries,
        http_cpu_ms: http_cpu_ms / n,
        failed,
    }
}

/// Median over the replayed reads of `a[i] - b[i]`: the self time of the
/// layers depth `a` enters and depth `b` skips.
fn paired_diff_ms(a: &[f64], b: &[f64]) -> f64 {
    let d: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    median(&d)
}

/// Summed wall ms of the spans called `name` in cycles `1..=upto`.
fn wall_ms(spans: &[Span], name: &str, upto: usize) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && (1..=upto as u32).contains(&s.cycle))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        // An empty f64 sum is -0.0.
        .sum::<f64>()
        + 0.0
}

/// Wall ms of listing every unit through the API server's router.
fn units_list_ms(stack: &TracedStack, admins: &[String]) -> f64 {
    let router = Arc::new(ceems_apiserver::ApiServer::new(
        stack.updater().clone(),
        admins.to_vec(),
    ))
    .router();
    let ms: Vec<f64> = (0..20)
        .map(|_| {
            let started = Instant::now();
            let resp = router.dispatch(
                Request::new(Method::Get, "/api/v1/units").with_header("x-grafana-user", ADMIN),
            );
            std::hint::black_box(resp.body.len());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

/// The traced run: every per-layer metric.
pub fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    let sizing = args.sizing();
    let schedule = scaled_schedule(args, &sizing);
    let mut notes = Vec::new();

    let dir = fresh_dir(&args.work_dir, "traced")?;
    let cfg = fixture::config(args.seed, args.spec.push, &dir, &sizing);
    let tracer = Arc::new(Tracer::new());
    let mut stack = TracedStack::build(cfg.clone(), &dir.join("db"), tracer.clone())?;
    let mut rig = prepare(&mut stack, &cfg, &args.spec, &schedule, &sizing)?;
    // Warm-up spans carry cycle 0 and are not part of the measured window.
    drop(tracer.take());
    let before = totals(&stack, &rig.chain);

    // The reference below repeats the leading cycles on `CeemsStack`; the
    // traced driver must have landed the same database by then.
    let reference_cycles = sizing.reference_cycles.min(schedule.cycles);
    let mut traced_at_reference = Counts::default();
    let w = {
        let jobs = rig.jobs.clone();
        run_window(
            &mut stack,
            &mut rig,
            &args.spec,
            &schedule,
            &mut |i, p: &TracedStack| {
                if i + 1 == reference_cycles {
                    traced_at_reference = counts_of(p, &jobs);
                }
            },
        )
    };
    let spans = tracer.take();
    let after = totals(&stack, &rig.chain);
    let db = stack.tsdb().clone();
    let counts = counts_of(&stack, &rig.jobs);

    // Read path: the same requests at successive depths, stack quiescent.
    let now_s = stack.clock().now_ms() / 1000;
    let pick = |dashboards: bool, n: usize| -> Vec<Read> {
        schedule
            .reads
            .iter()
            .filter(|op| matches!(op, ReadOp::Dashboard { .. }) == dashboards)
            .take(n)
            .map(|op| resolve(*op, &rig.jobs, now_s))
            .collect()
    };
    let dash = replay(&rig.chain, &db, &pick(true, sizing.replay_dashboards));
    let fleet = replay(&rig.chain, &db, &pick(false, sizing.replay_fleet));
    let units_ms = units_list_ms(&stack, &cfg.admin_users);
    let checkpoint_bytes = db
        .wal_checkpoint_bytes()
        .ok()
        .flatten()
        .map_or(0, |(_, bytes)| bytes.len());
    let shed = rig.chain.fe.scheduler().shed_count();
    let mut failed = w.reads.failed
        + w.probe_failures
        + stack.ingest_failures()
        + db.wal_errors()
        + db.out_of_order_dropped()
        + dash.failed
        + fleet.failed;
    if let Some(e) = &w.reads.first_error {
        notes.push(format!("first failed request: {e}"));
    }

    let trace_path = args
        .trace_dir
        .join(format!("e2e-trace-{}.jsonl", args.spec.name));
    trace::write_jsonl(&trace_path, &spans).map_err(|e| format!("write {trace_path:?}: {e}"))?;
    drop(db);
    drop(rig);
    drop(stack);

    // Reference: the same leading cycles and reads on `CeemsStack::advance`.
    let prefix = Schedule {
        cycles: reference_cycles,
        reads: (0..reference_cycles)
            .flat_map(|i| schedule.reads_after_cycle(i).to_vec())
            .collect(),
        warm_reads: schedule.warm_reads.clone(),
    };
    let (mut reference, _, mut ref_rig, _) = setup_untraced(args, &sizing, &prefix, "reference")?;
    let mut untraced_at_reference = Counts::default();
    let rw = {
        let jobs = ref_rig.jobs.clone();
        run_window(
            &mut reference,
            &mut ref_rig,
            &args.spec,
            &prefix,
            &mut |i, p: &CeemsStack| {
                if i + 1 == reference_cycles {
                    untraced_at_reference = counts_of(p, &jobs);
                }
            },
        )
    };
    failed += rw.reads.failed + rw.probe_failures;
    drop(ref_rig);
    drop(reference);
    let equivalent = traced_at_reference.matches(&untraced_at_reference);
    if !equivalent {
        notes.push(format!(
            "traced driver diverged from CeemsStack::advance after {reference_cycles} cycles: \
             {traced_at_reference:?} vs {untraced_at_reference:?}"
        ));
    }

    let minutes = (schedule.cycles / CYCLES_PER_MINUTE) as f64;
    let reference_minutes = reference_cycles as f64 / CYCLES_PER_MINUTE as f64;
    let per_min = |name: &str| wall_ms(&spans, name, schedule.cycles) / minutes;
    let count_per_min = |a: u64, b: u64| (a - b) as f64 / minutes;
    // The two passes ran minutes apart; each is stated at reference host
    // speed before they are compared.
    let traced_speed = Calibration::merged(&w.calibration[..reference_cycles]).compute_factor();
    let untraced_speed = rw.whole_calibration().compute_factor();
    let traced_wall_ms =
        w.cycle_wall_s[..reference_cycles].iter().sum::<f64>() * 1e3 / traced_speed;
    let untraced_wall_ms = rw.cycle_wall_s.iter().sum::<f64>() * 1e3 / untraced_speed;
    let phases_ms: f64 = PHASES
        .iter()
        .filter(|n| !(args.spec.push && **n == "tsdb.rules_tick"))
        .map(|n| wall_ms(&spans, n, reference_cycles))
        .sum::<f64>()
        / traced_speed;
    let append_ms = per_min("tsdb.append");
    let wal_append_ms = (after.wal_append_s - before.wal_append_s) * 1e3 / minutes;
    let append_spans: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "tsdb.append" && s.cycle >= 1)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    let publish_self_ms = trace::totals_by_name(&spans)
        .get("stream.publish")
        .map_or(0.0, |(_, self_ns)| *self_ns as f64 / 1e6);
    let hop_ms = paired_diff_ms(&dash.http, &dash.lb);
    let window_dash: Vec<f64> = w.reads.dashboard_ms.iter().map(|(_, ms)| *ms).collect();
    let ratio = |part: f64, rest: f64| {
        if part + rest > 0.0 {
            part / (part + rest)
        } else {
            0.0
        }
    };
    let window_samples: u64 = w.cycle_samples.iter().sum();

    let (l0, l1) = (before.layer, after.layer);
    let mut metrics: Vec<Metric> = vec![
        m("simnode.step_ms", per_min("simnode.step"), "ms"),
        m("slurm.tick_ms", per_min("slurm.tick"), "ms"),
        m("exporter.render_ms", per_min("exporter.render"), "ms"),
        m(
            "exporter.render_bytes",
            count_per_min(l1.render_bytes, l0.render_bytes),
            "B",
        ),
        m("metrics.parse_ms", per_min("metrics.parse"), "ms"),
        m(
            "metrics.parse_samples",
            count_per_min(l1.parse_samples, l0.parse_samples),
            "count",
        ),
        m("core.ingest_pass_ms", per_min("core.ingest_pass"), "ms"),
        m("tsdb.append_ms", append_ms, "ms"),
        m("tsdb.append_p50_ms", percentile(&append_spans, 50.0), "ms"),
        m("tsdb.wal_append_ms", wal_append_ms, "ms"),
        m(
            "tsdb.head_append_ms",
            (append_ms - wal_append_ms).max(0.0),
            "ms",
        ),
        m(
            "tsdb.wal_fsyncs",
            count_per_min(after.fsyncs, before.fsyncs),
            "count",
        ),
        m(
            "tsdb.wal_fsync_ms",
            (after.fsync_s - before.fsync_s) * 1e3 / minutes,
            "ms",
        ),
        m(
            "tsdb.wal_bytes",
            count_per_min(l1.wal_bytes_logged, l0.wal_bytes_logged),
            "B",
        ),
        m("tsdb.rules_tick_ms", per_min("tsdb.rules_tick"), "ms"),
        m(
            "tsdb.rules_evals",
            count_per_min(l1.rule_evals, l0.rule_evals),
            "count",
        ),
        m(
            "tsdb.rules_series_written",
            count_per_min(after.rule_series_written, before.rule_series_written),
            "count",
        ),
        m("tsdb.checkpoint_ms", per_min("tsdb.checkpoint"), "ms"),
        m("tsdb.checkpoint_bytes", checkpoint_bytes as f64, "B"),
        m("stream.publish_ms", publish_self_ms / minutes, "ms"),
        m(
            "apiserver.updater_poll_ms",
            per_min("apiserver.updater_poll"),
            "ms",
        ),
        m("apiserver.units_list_ms", units_ms, "ms"),
        m("alertsrv.tick_ms", per_min("alertsrv.tick"), "ms"),
        m(
            "alertsrv.rules_evaluated",
            count_per_min(l1.alert_rules_evaluated, l0.alert_rules_evaluated),
            "count",
        ),
        m("core.meta_scrape_ms", per_min("core.meta_scrape"), "ms"),
        m(
            "core.advance_residual_ms",
            (untraced_wall_ms - phases_ms) / reference_minutes,
            "ms",
        ),
        m(
            "core.ingest_samples_per_cpu_s",
            window_samples as f64 / w.cpu_s,
            "1/s",
        ),
        m("core.read_cpu_ms_per_dashboard", dash.http_cpu_ms, "ms"),
        m(
            "dashboard_render_p95_ms",
            percentile(&window_dash, 95.0),
            "ms",
        ),
        m("http.hop_ms", hop_ms, "ms"),
        m(
            "lb.self_ms",
            paired_diff_ms(&dash.lb, &dash.qfe) - hop_ms,
            "ms",
        ),
        m(
            "qfe.self_ms",
            paired_diff_ms(&dash.qfe, &dash.api) - hop_ms,
            "ms",
        ),
        m(
            "tsdb.httpapi_self_ms",
            paired_diff_ms(&dash.api, &dash.promql),
            "ms",
        ),
        m("tsdb.response_bytes", dash.api_bytes, "B"),
        m("tsdb.promql_eval_ms", median(&dash.promql), "ms"),
        m("tsdb.fleet_promql_eval_ms", median(&fleet.promql), "ms"),
        m("tsdb.select_ms", dash.select_ms, "ms"),
        m("tsdb.select_resolve_ms", dash.select_resolve_ms, "ms"),
        m(
            "tsdb.select_calls_per_query",
            dash.select_calls_per_query,
            "count",
        ),
        m(
            "tsdb.posting_cache_hit_ratio",
            ratio(
                (after.cache_hits - before.cache_hits) as f64,
                (after.cache_misses - before.cache_misses) as f64,
            ),
            "ratio",
        ),
        m(
            "qfe.cache_hit_ratio",
            ratio(
                after.qfe_cached_steps - before.qfe_cached_steps,
                after.qfe_fetched_steps - before.qfe_fetched_steps,
            ),
            "ratio",
        ),
        m(
            "qfe.subqueries_per_request",
            (after.qfe_subqueries - before.qfe_subqueries)
                / (after.qfe_requests - before.qfe_requests).max(1.0),
            "count",
        ),
        m("qfe.shed_total", shed as f64, "count"),
        m(
            "bench.host_calibration_ms",
            w.whole_calibration().mean_slice_ms(),
            "ms",
        ),
    ];
    debug_assert!(metrics.iter().map(|x| (x.name, x.unit)).eq(PER_LAYER));
    metrics.push(m(
        OVERHEAD.0,
        (traced_wall_ms - untraced_wall_ms) / untraced_wall_ms * 100.0,
        OVERHEAD.1,
    ));

    Ok(Outcome {
        correct: equivalent,
        attempted: w.attempted(&schedule) + rw.attempted(&prefix),
        failed,
        metrics,
        ungated: Vec::new(),
        counts,
        notes,
    })
}
