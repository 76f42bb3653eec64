//! One benchmark run: set-up, the measured window, correctness checks,
//! recovery, and the metrics. `--trace 0` measures `CeemsStack::advance`;
//! `--trace 1` replays the same schedule on the traced driver.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ceems_core::{CeemsConfig, CeemsStack};
use ceems_http::{Method, Request};
use ceems_metrics::matcher::LabelMatcher;
use ceems_tsdb::httpapi::api_router;
use ceems_tsdb::Tsdb;

use crate::fixture::{
    self, now_fn, resolve, viewable_jobs, Chain, Depth, Job, JobMix, Read, Sizing,
};
use crate::pipeline::{tsdb_config, wal_options, Pipeline};
use crate::schedule::{ReadOp, Schedule, WorkloadSpec, CYCLES_PER_MINUTE, REFERENCE_SECONDS};
use crate::stats::{highest_supported_tail, median, percentile};
use crate::sys::{self, Calibration};
use crate::window::{run_window, submit_and_advance, LiveSub, Rig};

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// The workload.
    pub spec: WorkloadSpec,
    /// Seed of the fleet, the job mix and the read schedule.
    pub seed: u64,
    /// Requested run length; scales the operation counts.
    pub seconds: u64,
    /// Small fixture, checks only.
    pub smoke: bool,
    /// Directory scratch data (WAL, relstore) is created under.
    pub work_dir: PathBuf,
    /// Where `e2e-trace-<workload>.jsonl` goes.
    pub trace_dir: PathBuf,
}

impl RunArgs {
    /// The fixture size this run uses.
    pub fn sizing(&self) -> Sizing {
        if self.smoke {
            Sizing::smoke()
        } else {
            Sizing::full()
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Reported value. A timing is stated at reference host speed: the
    /// stopwatch reading divided by the run's [`Calibration`] factor.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// The stopwatch reading, when `value` was scaled from it.
    pub as_timed: Option<f64>,
}

pub(crate) fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        as_timed: None,
    }
}

/// A stopwatch reading divided by the host-speed factor of its clock.
fn timed(name: &'static str, as_timed: f64, unit: &'static str, factor: f64) -> Metric {
    Metric {
        name,
        value: as_timed / factor,
        unit,
        as_timed: Some(as_timed),
    }
}

/// `stat` over `(minute, reading)` pairs: as timed, and with every reading
/// first divided by the host-speed factor of its own simulated minute.
fn timed_by_minute(
    name: &'static str,
    unit: &'static str,
    readings: &[(usize, f64)],
    minute_factor: &[f64],
    stat: impl Fn(&[f64]) -> f64,
) -> Metric {
    let raw: Vec<f64> = readings.iter().map(|(_, v)| *v).collect();
    let scaled: Vec<f64> = readings
        .iter()
        .map(|(m, v)| v / minute_factor[*m])
        .collect();
    Metric {
        name,
        value: stat(&scaled),
        unit,
        as_timed: Some(stat(&raw)),
    }
}

/// Median over round-robin rounds of the round's mean latency. The three
/// fleet queries cost very differently, so the median of single queries is
/// the median of a three-mode mix; a round holds each once.
fn median_of_round_means(fleet_ms: &[f64]) -> f64 {
    let rounds: Vec<f64> = fleet_ms
        .chunks_exact(fixture::FLEET_QUERIES.len())
        .map(|round| round.iter().sum::<f64>() / round.len() as f64)
        .collect();
    median(&rounds)
}

/// Counts that must repeat exactly for one `(workload, seed, seconds)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// `Tsdb::samples_appended` at window end.
    pub samples_appended: u64,
    /// `Tsdb::series_count` at window end.
    pub series: u64,
    /// Recording-rule series written.
    pub rule_series_written: u64,
    /// Jobs dashboards were drawn from.
    pub jobs: u64,
    /// FNV-1a over the label set and timestamp of every
    /// `uuid:ceems_power:watts` sample.
    pub power_digest: u64,
    /// Sum of every `uuid:ceems_power:watts` value. Aggregations add in hash
    /// order, so two runs of one seed differ in the last bits of a value;
    /// this repeats to [`POWER_SUM_TOLERANCE`], not exactly.
    pub power_sum_watts: f64,
}

/// Relative tolerance on [`Counts::power_sum_watts`].
pub const POWER_SUM_TOLERANCE: f64 = 1e-9;

impl Counts {
    /// Same database: exact on every count and on which power samples exist,
    /// within tolerance on their values.
    pub fn matches(&self, other: &Counts) -> bool {
        let exact = |c: &Counts| {
            (
                c.samples_appended,
                c.series,
                c.rule_series_written,
                c.jobs,
                c.power_digest,
            )
        };
        exact(self) == exact(other)
            && (self.power_sum_watts - other.power_sum_watts).abs()
                <= POWER_SUM_TOLERANCE * self.power_sum_watts.abs()
    }
}

/// Result of a run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Metrics printed for the reader but left out of the result object.
    pub ungated: Vec<Metric>,
    /// Exact counts.
    pub counts: Counts,
    /// Failed checks and other remarks, one line each.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result object the driver reads from the last line of stdout.
    pub fn result_json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not a finite number", m.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Names and units of the end-to-end metrics, in report order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("pipeline_cpu_s", "s"),
    ("ingest_samples_per_s", "1/s"),
    ("freshness_ms", "ms"),
    ("dashboard_render_ms", "ms"),
    ("fleet_query_ms", "ms"),
    ("wal_bytes_per_sample", "B"),
    ("head_bytes_per_sample", "B"),
    ("rss_peak_mb", "MiB"),
    ("recovery_s", "s"),
];

/// Scales a workload's operation counts to the requested run length.
pub fn scaled_schedule(args: &RunArgs, sizing: &Sizing) -> Schedule {
    if args.smoke {
        return Schedule::build(args.seed, 8, 47, 3, sizing.warm_reads);
    }
    let scale = |n: usize| n * args.seconds as usize / REFERENCE_SECONDS as usize;
    let minutes = (scale(args.spec.cycles) / CYCLES_PER_MINUTE).max(1);
    let rounds = (scale(args.spec.fleet_queries) / fixture::FLEET_QUERIES.len()).max(1);
    Schedule::build(
        args.seed,
        minutes * CYCLES_PER_MINUTE,
        // p95 needs ten samples beyond it.
        scale(args.spec.dashboards).max(200),
        rounds * fixture::FLEET_QUERIES.len(),
        sizing.warm_reads,
    )
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest (which samples exist) and sum (their values) of the attributed
/// power, independent of series ids.
pub fn power_digest(db: &Tsdb) -> (u64, f64) {
    let mut series = db.select(
        &[LabelMatcher::eq("__name__", "uuid:ceems_power:watts")],
        0,
        i64::MAX,
    );
    series.sort_by(|a, b| a.labels.cmp(&b.labels));
    let (mut hash, mut sum) = (0xcbf2_9ce4_8422_2325u64, 0.0);
    for s in &series {
        fnv1a(&mut hash, s.labels.to_string().as_bytes());
        for p in &s.samples {
            fnv1a(&mut hash, &p.t_ms.to_le_bytes());
            sum += p.v;
        }
    }
    (hash, sum)
}

pub(crate) fn counts_of<P: Pipeline>(p: &P, jobs: &[Job]) -> Counts {
    let (power_digest, power_sum_watts) = power_digest(p.tsdb());
    Counts {
        samples_appended: p.tsdb().samples_appended(),
        series: p.tsdb().series_count() as u64,
        rule_series_written: p.rule_series_written(),
        jobs: jobs.len() as u64,
        power_digest,
        power_sum_watts,
    }
}

/// Warm-up, chain, job list, live subscription and the unmeasured reads —
/// everything between building a stack and the first measured operation.
pub(crate) fn prepare<P: Pipeline>(
    p: &mut P,
    cfg: &CeemsConfig,
    spec: &WorkloadSpec,
    schedule: &Schedule,
    sizing: &Sizing,
) -> Result<Rig, String> {
    let mut mix = JobMix::new(cfg.seed, cfg);
    for _ in 0..sizing.warmup_minutes * CYCLES_PER_MINUTE {
        submit_and_advance(p, &mut mix, sizing.jobs_per_cycle);
    }
    let chain = Chain::build(
        cfg,
        p.tsdb().clone(),
        p.updater().clone(),
        p.trace_sink(),
        || p.api_options(now_fn(p.clock())),
        p.qfe_config(now_fn(p.clock())),
    )?;
    let jobs = viewable_jobs(p.scheduler(), p.updater());
    if jobs.is_empty() {
        return Err("warm-up left no running job the API server knows".into());
    }
    let live = match spec.live() {
        true => Some(LiveSub::open(&chain.qfe_url)?),
        false => None,
    };
    let now_s = p.clock().now_ms() / 1000;
    for op in &schedule.warm_reads {
        chain.read(&resolve(*op, &jobs, now_s), Depth::Http)?;
    }
    Ok(Rig {
        chain,
        jobs,
        mix,
        jobs_per_cycle: sizing.jobs_per_cycle,
        live,
    })
}

pub(crate) fn fresh_dir(work_dir: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = work_dir.join(tag);
    // A leftover from a killed run would be recovered into the new stack.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    Ok(dir)
}

/// Calibration slices taken on each side of a one-shot timing.
const SLICES_AROUND_ONE_SHOT: usize = 8;

/// One set-up: its stopwatch seconds and the host speed around it.
pub(crate) struct SetupTime {
    as_timed_s: f64,
    calibration: Calibration,
}

/// Builds and prepares an untraced `CeemsStack`, timing the set-up.
pub(crate) fn setup_untraced(
    args: &RunArgs,
    sizing: &Sizing,
    schedule: &Schedule,
    tag: &str,
) -> Result<(CeemsStack, CeemsConfig, Rig, SetupTime), String> {
    let dir = fresh_dir(&args.work_dir, tag)?;
    let mut calibration = Calibration::default();
    calibration.sample(SLICES_AROUND_ONE_SHOT);
    let started = Instant::now();
    let cfg = fixture::config(args.seed, args.spec.push, &dir, sizing);
    let mut stack = CeemsStack::build(cfg.clone(), &dir.join("db"))?;
    let rig = prepare(&mut stack, &cfg, &args.spec, schedule, sizing)?;
    let as_timed_s = started.elapsed().as_secs_f64();
    calibration.sample(SLICES_AROUND_ONE_SHOT);
    Ok((
        stack,
        cfg,
        rig,
        SetupTime {
            as_timed_s,
            calibration,
        },
    ))
}

/// Instant queries whose answers a reopened database must reproduce.
const RECOVERY_QUERIES: [&str; 5] = [
    "sum(uuid:ceems_power:watts)",
    "count(up)",
    "sum by (nodegroup) (rate(ceems_rapl_package_joules_total[2m]))",
    "topk(5, sum by (uuid) (uuid:ceems_power:watts))",
    "count(ceems_compute_unit_memory_used_bytes)",
];

fn recovery_answers(db: Arc<Tsdb>, now_ms: i64) -> Vec<Vec<u8>> {
    let router = api_router(db, Arc::new(move || now_ms));
    RECOVERY_QUERIES
        .iter()
        .map(|q| {
            let path = format!(
                "/api/v1/query?query={}&time={}",
                ceems_http::url::encode_component(q),
                now_ms / 1000
            );
            router.dispatch(Request::new(Method::Get, &path)).body
        })
        .collect()
}

/// Compares sampled dashboards through the whole chain with the unsplit,
/// uncached answer of the TSDB router. Returns mismatches.
fn identity_mismatches(
    chain: &Chain,
    schedule: &Schedule,
    jobs: &[Job],
    now_s: i64,
    samples: usize,
) -> Vec<String> {
    let dashboards: Vec<ReadOp> = schedule
        .reads
        .iter()
        .copied()
        .filter(|op| matches!(op, ReadOp::Dashboard { .. }))
        .collect();
    let stride = (dashboards.len() / samples.max(1)).max(1);
    let mut out = Vec::new();
    for op in dashboards.iter().step_by(stride).take(samples) {
        let read: Read = resolve(*op, jobs, now_s);
        for q in &read.queries {
            let via_chain = chain.send(q, &read.user, Depth::Http);
            let direct = chain.send(q, &read.user, Depth::Api);
            if via_chain.is_err() || via_chain != direct {
                out.push(format!("{} as {}", q.expr, read.user));
            }
        }
    }
    out
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(args: &RunArgs) -> Result<Outcome, String> {
    let sizing = args.sizing();
    let schedule = scaled_schedule(args, &sizing);
    let mut notes = Vec::new();

    let (mut stack, cfg, mut rig, first_setup) = setup_untraced(args, &sizing, &schedule, "main")?;
    let mut setups = vec![first_setup];

    let w = run_window(&mut stack, &mut rig, &args.spec, &schedule, &mut |_, _| {});
    let rss_peak_mb = sys::rss_peak_mb();

    let db = stack.tsdb.clone();
    let now_ms = stack.clock.now_ms();
    let counts = counts_of(&stack, &rig.jobs);
    let wal_dir = PathBuf::from(cfg.wal_dir.as_ref().ok_or("fixture sets wal_dir")?);
    let wal_bytes = sys::dir_bytes(&wal_dir);
    let head_bytes = db.storage_bytes();

    let mismatches = identity_mismatches(
        &rig.chain,
        &schedule,
        &rig.jobs,
        now_ms / 1000,
        sizing.identity_samples,
    );
    for q in &mismatches {
        notes.push(format!("chain answer differs from the TSDB's own: {q}"));
    }
    let mut failed = w.reads.failed
        + w.probe_failures
        + stack.ingest_failures()
        + db.wal_errors()
        + db.out_of_order_dropped();
    if let Some(e) = &w.reads.first_error {
        notes.push(format!("first failed request: {e}"));
    }

    // Acked ⇒ readable after restart: drop every holder of the database,
    // reopen it from the WAL directory alone, and compare.
    let expected = recovery_answers(db.clone(), now_ms);
    drop(db);
    drop(rig);
    drop(stack);
    let mut recovery = Vec::new();
    let mut recovered = true;
    let mut recovery_cal = Calibration::default();
    recovery_cal.sample(SLICES_AROUND_ONE_SHOT);
    for _ in 0..sizing.recovery_repeats {
        let started = Instant::now();
        let reopened = Tsdb::open(&wal_dir, wal_options(&cfg)?, tsdb_config(&cfg))
            .map_err(|e| format!("reopen {wal_dir:?}: {e}"))?;
        recovery.push(started.elapsed().as_secs_f64());
        let reopened = Arc::new(reopened);
        if reopened.samples_appended() != counts.samples_appended
            || reopened.series_count() as u64 != counts.series
            || recovery_answers(reopened, now_ms) != expected
        {
            notes.push("reopened database differs from the one dropped".to_string());
            recovered = false;
            failed += 1;
        }
        recovery_cal.sample(4);
    }

    // Set-up again, after everything that reads peak memory or the WAL.
    for i in 1..sizing.setup_repeats {
        let (stack, _, rig, setup) =
            setup_untraced(args, &sizing, &schedule, &format!("setup{i}"))?;
        drop(rig);
        drop(stack);
        setups.push(setup);
    }
    // Each set-up is scaled by the host speed around it; the median set-up
    // is the one reported, with its own stopwatch reading.
    setups.sort_by(|a, b| {
        (a.as_timed_s / a.calibration.compute_factor())
            .total_cmp(&(b.as_timed_s / b.calibration.compute_factor()))
    });
    let setup = &setups[(setups.len() - 1) / 2];

    let samples = counts.samples_appended as f64;
    let by_minute = w.calibration_by_minute();
    let compute: Vec<f64> = by_minute.iter().map(Calibration::compute_factor).collect();
    let request: Vec<f64> = by_minute.iter().map(Calibration::request_factor).collect();
    // A rate scales the other way.
    let per_compute: Vec<f64> = compute.iter().map(|f| 1.0 / f).collect();
    let rates: Vec<(usize, f64)> = w
        .samples_per_s_by_minute()
        .into_iter()
        .enumerate()
        .collect();
    let dashboards = &w.reads.dashboard_ms;
    // The metric is called p95: outside the smoke run (whose numbers are not
    // gated) refuse to print it for fewer samples than a p95 needs.
    if !args.smoke && highest_supported_tail(dashboards.len()) < Some(95.0) {
        return Err(format!(
            "{} dashboards cannot support a p95",
            dashboards.len()
        ));
    }
    let metrics = vec![
        timed(
            "setup_s",
            setup.as_timed_s,
            "s",
            setup.calibration.compute_factor(),
        ),
        timed(
            "pipeline_cpu_s",
            w.cpu_s,
            "s",
            w.whole_calibration().cpu_factor(),
        ),
        timed_by_minute("ingest_samples_per_s", "1/s", &rates, &per_compute, median),
        timed_by_minute(
            "freshness_ms",
            "ms",
            &w.freshness_ms_by_minute(),
            &compute,
            median,
        ),
        timed_by_minute("dashboard_render_ms", "ms", dashboards, &request, |v| {
            percentile(v, 50.0)
        }),
        timed_by_minute(
            "fleet_query_ms",
            "ms",
            &w.reads.fleet_ms,
            &compute,
            median_of_round_means,
        ),
        m("wal_bytes_per_sample", wal_bytes as f64 / samples, "B"),
        m("head_bytes_per_sample", head_bytes as f64 / samples, "B"),
        m("rss_peak_mb", rss_peak_mb, "MiB"),
        timed(
            "recovery_s",
            median(&recovery),
            "s",
            recovery_cal.compute_factor(),
        ),
    ];
    debug_assert!(metrics.iter().map(|x| (x.name, x.unit)).eq(END_TO_END));
    // Printed, not gated: on this host the tail's run-to-run spread reaches
    // 100 %, so the gated list would never hold still with it.
    let ungated = vec![timed_by_minute(
        "dashboard_render_p95_ms",
        "ms",
        dashboards,
        &request,
        |v| percentile(v, 95.0),
    )];
    Ok(Outcome {
        correct: mismatches.is_empty() && recovered,
        attempted: w.attempted(&schedule),
        failed,
        metrics,
        ungated,
        counts,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::workload;

    fn args(name: &str, seconds: u64, smoke: bool) -> RunArgs {
        RunArgs {
            spec: workload(name).expect("known workload"),
            seed: 42,
            seconds,
            smoke,
            work_dir: PathBuf::new(),
            trace_dir: PathBuf::new(),
        }
    }

    #[test]
    fn seconds_scale_the_counts_in_whole_minutes_and_rounds() {
        let sizing = Sizing::full();
        let at = |name, seconds| scaled_schedule(&args(name, seconds, false), &sizing);
        let reads = |s: &Schedule| (s.cycles, s.reads.len());
        assert_eq!(reads(&at("ingest_pull", 10)), (48, 200 + 24));
        assert_eq!(reads(&at("ingest_pull", 20)), (96, 400 + 48));
        // Never below one minute, 200 dashboards (p95) and one fleet round.
        assert_eq!(reads(&at("dashboard_read", 1)), (4, 200 + 3));
        assert_eq!(at("mixed_live", 10), at("mixed_live", 10));
        let smoke = scaled_schedule(&args("ingest_pull", 10, true), &Sizing::smoke());
        assert_eq!(reads(&smoke), (8, 50));
    }

    #[test]
    fn counts_match_exactly_except_the_power_sum() {
        let a = Counts {
            samples_appended: 10,
            series: 3,
            rule_series_written: 2,
            jobs: 1,
            power_digest: 7,
            power_sum_watts: 1000.0,
        };
        let last_bits = Counts {
            power_sum_watts: 1000.0 + 1e-8,
            ..a.clone()
        };
        assert!(a.matches(&last_bits));
        assert!(!a.matches(&Counts {
            power_sum_watts: 1000.1,
            ..a.clone()
        }));
        assert!(!a.matches(&Counts {
            series: 4,
            ..a.clone()
        }));
    }
}
