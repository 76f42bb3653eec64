//! TSDB engine micro-benchmarks: the substrate hot paths behind every
//! other experiment — chunk compression, ingest, index selection and
//! PromQL evaluation. Prints the achieved compression ratio (the reason a
//! single host can hold a 1,400-node fleet's metrics).
//!
//! `chunk/iterate_1k_samples` and `chunk/iterate_1k_samples_wide` decode a
//! chunk of few-bit and of full-precision values.
//!
//! E14 rows (EXPERIMENTS.md): what a read near the head costs at three
//! chunk fills (`head_tail_read`), what deriving one label set from another
//! costs (`labelset`), and one tick of the fixture's recording rules on one
//! worker and with its four groups side by side on two (`rule_tick`; E19).
//! E17 rows: the same tick
//! with six new jobs between ticks (`rule_tick/churn`) and with every plan
//! built again (`rule_tick/cold`).
//!
//! E16 rows: the benchmark's three fleet queries as range queries over the
//! fixture on the dashboards' grid (`fleet_range/*`), each beside the one
//! select it reads (`*/select_only`), and the `topk` query over ≈ 250
//! `uuid` series, the end-to-end benchmark's scale (E40). Before timing,
//! each row checks that its output is bit for bit one instant evaluation
//! per step. The `fleet_range` rows are timed again on their own and
//! written to `BENCH_tsdb_engine.json` with each row's `half_gap_pct` and
//! the largest, `noise_pct`.

use std::cell::{OnceCell, RefCell};
use std::time::Instant;

use ceems_bench::report::{time_iters, write_bench_json, LatencySummary, Noise};
use ceems_bench::{loaded_tsdb, tmpdir};
use ceems_core::attribution::all_rule_groups;
use ceems_core::{CeemsConfig, CeemsStack};
use ceems_metrics::labels::{LabelSet, LabelSetBuilder};
use ceems_metrics::matcher::{LabelMatcher, MatchOp};
use ceems_simnode::{ClusterSpec, WorkloadProfile};
use ceems_slurm::JobRequest;
use ceems_tsdb::chunk::XorChunk;
use ceems_tsdb::head::SeriesStore;
use ceems_tsdb::promql::{instant_query, parse_expr, range_query, reference};
use ceems_tsdb::rules::RuleEngine;
use ceems_tsdb::types::{Sample, SeriesData};
use ceems_tsdb::Tsdb;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, IntoBenchmarkLabel};

fn bench_chunk(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunk");
    group.bench_function("append_1k_samples", |b| {
        b.iter(|| {
            let mut chunk = XorChunk::new();
            for i in 0..1000i64 {
                chunk.append(Sample::new(i * 15_000, 100.0 + (i % 7) as f64)).unwrap();
            }
            chunk
        })
    });
    let mut chunk = XorChunk::new();
    for i in 0..1000i64 {
        chunk.append(Sample::new(i * 15_000, 100.0 + (i % 7) as f64)).unwrap();
    }
    eprintln!(
        "[tsdb] chunk: 1000 samples in {} bytes ({:.2} bytes/sample, {:.1}x vs raw 16B)",
        chunk.byte_len(),
        chunk.byte_len() as f64 / 1000.0,
        16_000.0 / chunk.byte_len() as f64
    );
    group.bench_function("iterate_1k_samples", |b| {
        b.iter(|| chunk.iter().map(|s| s.v).sum::<f64>())
    });
    // The same decode over values that fill their mantissa, as a counter
    // of joules does: each sample's XOR spans most of the 64 bits, where
    // `100 + i % 7` leaves a few.
    let mut wide = XorChunk::new();
    let mut joules = 1.0e6;
    for i in 0..1000i64 {
        joules += 215.0 + (i * 7_919 % 1_000) as f64 / 997.0;
        wide.append(Sample::new(i * 15_000, joules)).unwrap();
    }
    eprintln!(
        "[tsdb] chunk (wide values): 1000 samples in {} bytes ({:.2} bytes/sample)",
        wide.byte_len(),
        wide.byte_len() as f64 / 1000.0
    );
    group.bench_function("iterate_1k_samples_wide", |b| {
        b.iter(|| wide.iter().map(|s| s.v).sum::<f64>())
    });
    group.finish();
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest");
    group.sample_size(20);
    let labels: Vec<_> = (0..1000)
        .map(|i| {
            LabelSetBuilder::new()
                .label("__name__", "m")
                .label("instance", format!("n{i}"))
                .build()
        })
        .collect();
    group.bench_function("append_1k_series_x10", |b| {
        let mut t = 0i64;
        b.iter(|| {
            let db = Tsdb::default();
            for step in 0..10 {
                t += 15_000;
                for l in &labels {
                    db.append(l, t + step, 1.0);
                }
            }
            db
        })
    });
    group.finish();
}

fn bench_select_and_query(c: &mut Criterion) {
    let db = loaded_tsdb(5_000, 40);
    eprintln!(
        "[tsdb] loaded: {} series, {} samples, {} KiB compressed",
        db.series_count(),
        db.samples_appended(),
        db.storage_bytes() / 1024
    );
    let mut group = c.benchmark_group("query");
    group.bench_function("select_exact_1_of_5k", |b| {
        let m = [LabelMatcher::eq("uuid", "slurm-2500")];
        b.iter(|| db.select(&m, 0, i64::MAX))
    });
    group.bench_function("select_regex_10_of_5k", |b| {
        let m = [LabelMatcher::new("uuid", MatchOp::Re, "slurm-250\\d").unwrap()];
        b.iter(|| db.select(&m, 0, i64::MAX))
    });
    let exprs = [
        ("instant_selector", "bench_metric{uuid=\"slurm-1\"}"),
        ("rate_2m", "rate(bench_metric{uuid=\"slurm-1\"}[2m])"),
        ("sum_all_5k", "sum(bench_metric)"),
        (
            "topk_over_aggregation",
            "topk(5, avg_over_time(bench_metric[2m]))",
        ),
    ];
    for (name, q) in exprs {
        let expr = parse_expr(q).unwrap();
        group.bench_with_input(BenchmarkId::new("promql", name), &expr, |b, expr| {
            b.iter(|| instant_query(db.as_ref(), expr, 600_000).unwrap())
        });
    }
    group.finish();
}

/// A read near the head of one series, at three fills of its open chunk:
/// the newest sample, the last two minutes (what `rate(..[2m])` reads) and
/// everything. One store per series so a read starts cold in cache, as a
/// select over many series does.
fn bench_head_tail_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("head_tail_read");
    for fill in [40i64, 120, 240] {
        let stores: Vec<SeriesStore> = (0..512)
            .map(|series| {
                let mut store = SeriesStore::default();
                for i in 0..fill {
                    // Counter-like: a RAPL energy counter at ~150 W.
                    let v = (i * 2_250 + series * 17 + i % 13) as f64;
                    store.append(Sample::new(i * 15_000, v)).unwrap();
                }
                store
            })
            .collect();
        let now = (fill - 1) * 15_000;
        let mut at = 0;
        let mut next = move || {
            at = (at + 1) % 512;
            at
        };
        group.bench_with_input(BenchmarkId::new("last", fill), &fill, |b, _| {
            b.iter(|| stores[next()].last_sample())
        });
        group.bench_with_input(BenchmarkId::new("2m", fill), &fill, |b, _| {
            b.iter(|| stores[next()].samples_in(now - 120_000, now))
        });
        group.bench_with_input(BenchmarkId::new("all", fill), &fill, |b, _| {
            b.iter(|| stores[next()].samples_in(i64::MIN, i64::MAX))
        });
    }
    group.finish();
}

/// The label-set operations the evaluator runs per series per operator, on
/// five-label sets shaped like compute-unit series. A vector of 256 results
/// is built and then dropped, as an operator does with its output, so the
/// allocator is not handed back the block it just freed.
fn bench_labelset(c: &mut Criterion) {
    // Built from borrowed text, as the parser and the WAL reader build them.
    let text: Vec<(String, String)> = (0..256)
        .map(|uuid| {
            (
                format!("jz-intel-{:04}", uuid % 32),
                format!("slurm-{uuid}"),
            )
        })
        .collect();
    let build = |(instance, uuid): &(String, String)| {
        LabelSetBuilder::new()
            .label("__name__", "ceems_compute_unit_cpu_user_seconds_total")
            .label("instance", instance.as_str())
            .label("job", "ceems")
            .label("nodegroup", "intel-dram")
            .label("uuid", uuid.as_str())
            .build()
    };
    let sets: Vec<LabelSet> = text.iter().map(build).collect();
    let by = ["instance".to_string(), "uuid".to_string()];
    let mut group = c.benchmark_group("labelset");
    group.bench_function("clone_x256", |b| {
        b.iter(|| sets.to_vec())
    });
    group.bench_function("without_x256", |b| {
        b.iter(|| {
            sets.iter()
                .map(|l| l.without("__name__"))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("restrict_to_x256", |b| {
        b.iter(|| sets.iter().map(|l| l.restrict_to(&by)).collect::<Vec<_>>())
    });
    group.bench_function("build_x256", |b| {
        b.iter(|| text.iter().map(build).collect::<Vec<_>>())
    });
    group.finish();
}

/// A stack shaped like the end-to-end benchmark's fixture (Jean-Zay ÷ 16,
/// three submissions before every cycle, ten simulated minutes), for timing
/// one tick of its recording rules. Selects stay on the calling thread.
fn fleet_stack(dir: &std::path::Path) -> CeemsStack {
    let jz = ClusterSpec::jean_zay();
    let cfg = CeemsConfig {
        cluster: ClusterSpec {
            intel_nodes: jz.intel_nodes / 16,
            amd_nodes: jz.amd_nodes / 16,
            v100_nodes: jz.v100_nodes / 16,
            a100_nodes: jz.a100_nodes / 16,
            h100_nodes: jz.h100_nodes / 16,
        },
        threads: 2,
        query_threads: 1,
        wal_dir: Some(dir.join("wal").to_string_lossy().into_owned()),
        ..CeemsConfig::default()
    };
    let mut stack = CeemsStack::build(cfg, dir).unwrap();
    let partitions = [
        "cpu-intel",
        "cpu-amd",
        "gpu-v100",
        "gpu-a100",
        "gpu-h100",
        "cpu-intel",
    ];
    for cycle in 0..40usize {
        for k in 0..3 {
            let n = cycle * 3 + k;
            let partition = partitions[n % partitions.len()];
            // Submissions the scheduler cannot place yet stay queued.
            let _ = stack.submit(JobRequest {
                user: format!("user{:03}", n % 100),
                account: format!("proj{:02}", n % 20),
                partition: partition.into(),
                nodes: 1,
                cores_per_node: 1 + n % 8,
                memory_per_node: (2 + n as u64 % 14) << 30,
                gpus_per_node: if partition.starts_with("gpu") {
                    n % 3
                } else {
                    0
                },
                walltime_s: 7_200,
                workload: WorkloadProfile::CpuBound { intensity: 0.8 },
            });
        }
        stack.advance(15.0);
    }
    stack
}

/// Where rule ticks went: wall time, the groups' busy time (summed over the
/// workers) split by the TSDB's own select and ingest histograms, and how
/// the engine brought its plans up to date.
#[derive(Default)]
struct TickSplit {
    ticks: u64,
    wall: f64,
    /// Seconds inside group evaluations, every worker's.
    busy: f64,
    /// Resolve, read and append seconds.
    spent: [f64; 3],
    selects: u64,
    evaluations: u64,
    written: u64,
    plans: [u64; 3],
}

impl TickSplit {
    fn spent(db: &Tsdb) -> [f64; 3] {
        let ins = db.instruments();
        let (select, resolve) = (ins.select_seconds.sum(), ins.select_resolve_seconds.sum());
        [resolve, select - resolve, ins.ingest_seconds.sum()]
    }

    fn plans(engine: &RuleEngine) -> [u64; 3] {
        let p = engine.plan_counts();
        [p.reused, p.extended, p.rebuilt]
    }

    fn busy(engine: &RuleEngine) -> f64 {
        let groups = engine.eval_histogram();
        let names = engine.group_names().into_iter();
        names.map(|g| groups.with_label_values(&[g]).sum()).sum()
    }

    /// Runs one tick, booking it.
    fn tick(
        &mut self,
        db: &Tsdb,
        engine: &mut RuleEngine,
        tick: impl FnOnce(&mut RuleEngine) -> u64,
    ) {
        let (spent, plans, selects) = (
            Self::spent(db),
            Self::plans(engine),
            db.instruments().select_seconds.count(),
        );
        let (evaluations, busy) = (engine.stats().evaluations, Self::busy(engine));
        let t = Instant::now();
        self.written = tick(engine);
        self.wall += t.elapsed().as_secs_f64();
        self.busy += Self::busy(engine) - busy;
        let (spent_after, plans_after) = (Self::spent(db), Self::plans(engine));
        for k in 0..3 {
            self.spent[k] += spent_after[k] - spent[k];
            self.plans[k] += plans_after[k] - plans[k];
        }
        self.selects += db.instruments().select_seconds.count() - selects;
        self.evaluations += engine.stats().evaluations - evaluations;
        self.ticks += 1;
    }

    fn report(&self, row: &str) {
        let n = self.ticks.max(1) as f64;
        let ms = |s: f64| s * 1e3 / n;
        let [resolve, read, append] = self.spent.map(ms);
        let [reused, extended, rebuilt] = self.plans.map(|p| p as f64 / n);
        eprintln!(
            "[E14] rule tick {row}: mean {:.2} ms wall, {:.2} ms busy = resolve {resolve:.2} + \
             read {read:.2} + evaluate {:.2} + append {append:.2} ({} rules, {} selects, {} \
             series written; plans reused {reused:.1} / extended {extended:.1} / rebuilt \
             {rebuilt:.1} a tick)",
            ms(self.wall),
            ms(self.busy),
            ms(self.busy) - resolve - read - append,
            self.evaluations / self.ticks.max(1),
            self.selects / self.ticks.max(1),
            self.written,
        );
    }
}

/// Six jobs of the fixture's shape with short walltimes: what arrives
/// between two rule ticks at the end-to-end benchmark's rate.
fn submit_six(stack: &CeemsStack, first: usize) {
    let partitions = [
        "cpu-intel",
        "cpu-amd",
        "gpu-v100",
        "gpu-a100",
        "gpu-h100",
        "cpu-intel",
    ];
    for n in first..first + 6 {
        let partition = partitions[n % partitions.len()];
        // Submissions the scheduler cannot place yet stay queued.
        let _ = stack.submit(JobRequest {
            user: format!("user{:03}", n % 100),
            account: format!("proj{:02}", n % 20),
            partition: partition.into(),
            nodes: 1,
            cores_per_node: 1 + n % 8,
            memory_per_node: (2 + n as u64 % 14) << 30,
            gpus_per_node: if partition.starts_with("gpu") {
                n % 3
            } else {
                0
            },
            walltime_s: 600 + (n as u64 % 7) * 300,
            workload: WorkloadProfile::CpuBound { intensity: 0.8 },
        });
    }
}

/// One tick of the fixture's recording rules with every plan carried over:
/// the groups in order on one worker, and side by side on two
/// (`eval_threads/*`; the four attribution groups are one level). Then, with
/// six new jobs and two scrape cycles between ticks (`churn`), and with a
/// series removal before every tick, so every plan is built again (`cold`).
/// Beside criterion's row, where a mean tick goes (`[E14]` lines).
fn bench_rule_tick(c: &mut Criterion) {
    let dir = tmpdir("tick");
    // Built by the first row that runs, so a filtered-out group costs nothing.
    let stack = OnceCell::new();
    // Ticks of the rows on one stack share one clock: rule output is
    // append-only.
    let mut now = None;
    let groups = || all_rule_groups(&CeemsConfig::default().rule_window, 30_000);
    let mut group = c.benchmark_group("rule_tick");
    for eval_threads in [1usize, 2] {
        group.bench_function(BenchmarkId::new("eval_threads", eval_threads), |b| {
            let stack: &CeemsStack = stack.get_or_init(|| fleet_stack(&dir));
            let db = &stack.tsdb;
            let mut engine = RuleEngine::new(groups()).with_eval_threads(eval_threads);
            let now = now.get_or_insert_with(|| stack.clock.now_ms());
            let mut split = TickSplit::default();
            b.iter(|| {
                *now += 1;
                split.tick(db, &mut engine, |e| e.force_eval(db, *now))
            });
            let (groups, levels) = (engine.group_names().len(), engine.group_levels().len());
            let row = format!("eval_threads={eval_threads}, {groups} groups in {levels} levels");
            split.report(&row);
        });
    }
    group.bench_function("cold", |b| {
        let stack: &CeemsStack = stack.get_or_init(|| fleet_stack(&dir));
        let db = &stack.tsdb;
        let mut engine = RuleEngine::new(groups());
        let now = now.get_or_insert_with(|| stack.clock.now_ms());
        let removed = LabelSetBuilder::new()
            .label("__name__", "rule_tick_cold")
            .build();
        let mut split = TickSplit::default();
        b.iter_with_setup(
            || {
                db.append(&removed, 0, 0.0);
                db.delete_series(&[LabelMatcher::eq("__name__", "rule_tick_cold")]);
            },
            |()| {
                *now += 1;
                split.tick(db, &mut engine, |e| e.force_eval(db, *now))
            },
        );
        split.report("cold");
    });
    group.sample_size(40);
    group.bench_function("churn", |b| {
        let churn_dir = dir.join("churn");
        std::fs::create_dir_all(&churn_dir).unwrap();
        // Advanced between ticks, read by them.
        let stack = RefCell::new(fleet_stack(&churn_dir));
        let mut engine = RuleEngine::new(groups());
        // Plans are built once, before the row: churn extends them.
        engine.tick(&stack.borrow().tsdb, stack.borrow().clock.now_ms() + 1);
        let (mut jobs, mut split) = (10_000, TickSplit::default());
        b.iter_with_setup(
            || {
                let mut stack = stack.borrow_mut();
                submit_six(&stack, jobs);
                jobs += 6;
                stack.advance(15.0);
                stack.advance(15.0);
            },
            |()| {
                let stack = stack.borrow();
                let now = stack.clock.now_ms() + 1;
                split.tick(&stack.tsdb, &mut engine, |e| e.tick(&stack.tsdb, now))
            },
        );
        split.report("churn");
    });
    group.finish();
    drop(stack);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The end-to-end benchmark's fleet queries (`e2ebench` `FLEET_QUERIES`) on
/// its dashboard grid: the last 20 minutes at 15 s.
const FLEET_QUERIES: [(&str, &str); 3] = [
    ("topk_by_uuid", "topk(10, sum by (uuid) (uuid:ceems_power:watts))"),
    (
        "rate_by_nodegroup",
        "sum by (nodegroup) (rate(ceems_rapl_package_joules_total[2m]))",
    ),
    ("sum_all", "sum(uuid:ceems_power:watts)"),
];

/// Series in order with `(t, value bits)`: NaN equals NaN, nothing laxer.
fn bits(m: &[SeriesData]) -> Vec<(LabelSet, Vec<(i64, u64)>)> {
    m.iter()
        .map(|s| {
            let points = s.samples.iter().map(|x| (x.t_ms, x.v.to_bits())).collect();
            ((*s.labels).clone(), points)
        })
        .collect()
}

/// `uuid:ceems_power:watts` as the end-to-end benchmark's window holds it
/// at the dashboards' grid: ≈ 250 series of 230 jobs (every tenth on two
/// nodes) written every 30 s over the 25 minutes up to `end`, jobs
/// starting in the first ten minutes and a third of them ending early.
fn e2e_scale_power(end: i64) -> Tsdb {
    let db = Tsdb::default();
    let from = end - 25 * 60_000;
    for job in 0..230i64 {
        let start = from + (job * 37 % 20) * 30_000;
        let stop = match job % 3 {
            0 => end - (job * 53 % 16) * 30_000,
            _ => end,
        };
        for node in 0..1 + i64::from(job % 10 == 0) {
            let labels = LabelSetBuilder::new()
                .label("__name__", "uuid:ceems_power:watts")
                .label("uuid", format!("slurm-{job}"))
                .label("instance", format!("node-{}:9010", (job + node * 41) % 87))
                .label("nodegroup", format!("g{}", job % 4))
                .build();
            for t in (start..=stop).step_by(30_000) {
                let v = 100.0 + (job * 13 % 300) as f64 + 20.0 * ((t / 30_000 + job) as f64).sin();
                db.append(&labels, t, v);
            }
        }
    }
    db
}

/// Timed runs of each `fleet_range` row for `BENCH_tsdb_engine.json`.
const FLEET_ITERS: usize = 200;

/// Each fleet query as one range query, and beside it the select that query
/// makes (its one selector's window over the grid); then `topk_by_uuid` at
/// the end-to-end benchmark's scale (`topk_by_uuid_e2e_scale`). Every row is
/// then timed again on its own for `BENCH_tsdb_engine.json`: each row's p50
/// and `half_gap_pct` (the p50s of the first and second half of its runs,
/// apart by this share of its p50), and `noise_pct`, the largest.
fn bench_fleet_range(c: &mut Criterion) {
    let dir = tmpdir("fleet");
    let stack = fleet_stack(&dir);
    let db = stack.tsdb.as_ref();
    let end = stack.clock.now_ms();
    let (start, step) = (end - 20 * 60_000, 15_000);
    let scale = e2e_scale_power(end);
    let mut rows: Vec<(String, Box<dyn Fn() + '_>)> = Vec::new();
    let mut series: serde_json::Map<String, serde_json::Value> = serde_json::Map::new();
    let checked = |db: &Tsdb, name: &str, q: &str| {
        let expr = parse_expr(q).unwrap();
        let got = range_query(db, &expr, start, end, step).unwrap();
        let want = reference::range_query(db, &expr, start, end, step).unwrap();
        assert!(!got.is_empty(), "{q}: no series");
        assert_eq!(
            bits(&got),
            bits(&want),
            "{q}: range ≠ one instant query per step"
        );
        let sel = expr.selectors()[0].clone();
        let back = sel
            .range_ms
            .unwrap_or(ceems_tsdb::promql::eval::DEFAULT_LOOKBACK_MS);
        let read = db.select(&sel.matchers, start - back, end).len();
        eprintln!(
            "[E16] fleet_range/{name}: reads {read} series, answers {}",
            got.len()
        );
        (expr, sel, back, read)
    };
    for (name, q) in FLEET_QUERIES {
        let (expr, sel, back, read) = checked(db, name, q);
        series.insert(name.to_string(), read.into());
        rows.push((
            name.to_string(),
            Box::new(move || drop(range_query(db, &expr, start, end, step).unwrap())),
        ));
        rows.push((
            BenchmarkId::new(name, "select_only").into_label(),
            Box::new(move || drop(db.select(&sel.matchers, start - back, end))),
        ));
    }
    let (name, q) = ("topk_by_uuid_e2e_scale", FLEET_QUERIES[0].1);
    let (expr, _, _, read) = checked(&scale, name, q);
    series.insert(name.to_string(), read.into());
    let scale = &scale;
    rows.push((
        name.to_string(),
        Box::new(move || drop(range_query(scale, &expr, start, end, step).unwrap())),
    ));

    let mut group = c.benchmark_group("fleet_range");
    for (name, run) in &rows {
        group.bench_function(name.as_str(), |b| b.iter(run));
    }
    group.finish();

    let mut noise = Noise::default();
    let timed: serde_json::Map<String, serde_json::Value> = rows
        .iter()
        .map(|(name, run)| {
            let mut samples = time_iters(FLEET_ITERS, run);
            noise.record(format!("fleet_range/{name}"), &samples);
            let summary = LatencySummary::from_samples(&mut samples).to_json();
            (name.clone(), summary)
        })
        .collect();
    write_bench_json(
        "tsdb_engine",
        &serde_json::json!({
            "bench": "tsdb_engine",
            "grid": {"minutes": 20, "step_s": step / 1000},
            "fleet_range": timed,
            "fleet_range_series_read": series,
            "noise_pct": noise.pct(),
            "half_gap_pct": noise.0,
        }),
    );
    drop(rows);
    drop(stack);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_chunk,
    bench_ingest,
    bench_select_and_query,
    bench_head_tail_read,
    bench_labelset,
    bench_fleet_range,
    bench_rule_tick
);
criterion_main!(benches);
