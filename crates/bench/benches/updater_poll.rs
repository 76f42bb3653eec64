//! The API server's updater poll (EXPERIMENTS E22): ≈ 230 units over a
//! fixture TSDB, a minute of scrapes between polls, the shape of the
//! end-to-end benchmark's `ingest_pull` window.
//!
//! Each poll asks the TSDB its five aggregate queries, folds the minute into
//! every running unit's row, rolls up usage and writes the rows that
//! changed to the relational store. Pending and finished units are reported
//! on every poll, as the resource manager reports them; their rows are
//! written once. Three (user, project) groups hold only a finished and a
//! pending unit, as a queue's idle users do, so their usage rows do not
//! change from poll to poll. Only the poll is timed; the scrapes between
//! polls are not.
//! Emits `BENCH_updater.json` with the p50 of the polls and the bytes the
//! store's log grew by a poll. The timed polls run on two arms of the same
//! build, two fixtures polled in turn, each round starting at the next arm,
//! so warm-up and host drift land on both alike. `noise_pct` is the larger
//! gap between the p50s of the first and second half of one arm's polls,
//! over that arm's p50: what the loop reads when nothing differs. A change
//! to the poll is resolved when two builds' `poll` p50s differ by more than
//! both runs' `noise_pct`. `arms_resolved` is true when the two arms read
//! apart by more than the noise, which for one build says the floor is too
//! low.
//!
//! Uses only the public `Updater` API, so the file builds unchanged at
//! earlier commits and both sides of a comparison poll the same rows.

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceems_apiserver::updater::{Updater, UpdaterConfig};
use ceems_apiserver::{ResourceManagerClient, TsdbLocalSource, UnitInfo};
use ceems_bench::report::{write_bench_json, LatencySummary};
use ceems_metrics::labels::LabelSetBuilder;
use ceems_relstore::Db;
use ceems_tsdb::Tsdb;
use criterion::{criterion_group, criterion_main, Criterion};

const RUNNING: usize = 180;
const PENDING: usize = 30;
/// Finished units, reported again on every poll.
const ENDED: usize = 20;
/// Users of running units. Finished and pending units have three more, each
/// of whom has one of each in one project and nothing running.
const USERS: usize = 17;
const SCRAPE_MS: i64 = 15_000;
const POLL_MS: i64 = 60_000;
/// History in the TSDB before the first poll.
const HISTORY_MS: i64 = 30 * 60_000;
/// Untimed polls of each arm before the timed ones.
const WARM_POLLS: usize = 20;
/// Timed polls of each arm for the JSON artifact, in two halves whose p50
/// gap is the noise.
const POLLS: usize = 120;

/// Reports every unit on every poll, as it looks at the current time.
struct FixtureRm {
    units: Vec<UnitInfo>,
}

impl ResourceManagerClient for FixtureRm {
    fn name(&self) -> &'static str {
        "fixture"
    }

    fn units_since(&self, _since_ms: i64) -> Vec<UnitInfo> {
        self.units.clone()
    }
}

fn units() -> Vec<UnitInfo> {
    let unit = |i: usize, started: Option<i64>, ended: Option<i64>, state: &str| UnitInfo {
        uuid: format!("slurm-{i}"),
        resource_manager: "slurm".into(),
        user: format!("user{}", i % if state == "RUNNING" { USERS } else { USERS + 3 }),
        project: format!("proj{}", i % 5),
        partition: "cpu".into(),
        state: state.into(),
        submitted_at_ms: started.unwrap_or(HISTORY_MS) - 5_000,
        started_at_ms: started,
        ended_at_ms: ended,
        nnodes: 1,
        ncpus: 8 + i % 24,
        ngpus: usize::from(i.is_multiple_of(4)),
    };
    let mut out = Vec::new();
    for i in 0..RUNNING {
        let started = (i as i64 * 7_919) % (HISTORY_MS - POLL_MS);
        out.push(unit(i, Some(started), None, "RUNNING"));
    }
    for i in RUNNING..RUNNING + ENDED {
        let started = (i as i64 * 3_571) % (HISTORY_MS / 2);
        out.push(unit(i, Some(started), Some(started + 600_000), "COMPLETED"));
    }
    for i in RUNNING + ENDED..RUNNING + ENDED + PENDING {
        out.push(unit(i, None, None, "PENDING"));
    }
    out
}

/// The series the updater reads, per unit and scrape, over `(from, to]`.
fn scrape(db: &Tsdb, units: &[UnitInfo], from_ms: i64, to_ms: i64) {
    let first = (from_ms / SCRAPE_MS + 1) * SCRAPE_MS;
    for t in (first..=to_ms).step_by(SCRAPE_MS as usize) {
        for (i, u) in units.iter().enumerate() {
            let Some(start) = u.started_at_ms else {
                continue;
            };
            if t < start || u.ended_at_ms.is_some_and(|end| t > end) {
                continue;
            }
            let ran_s = (t - start) as f64 / 1000.0;
            let cores = 2.0 + (i % 7) as f64;
            let series = [
                ("ceems_compute_unit_cpu_user_seconds_total", cores * ran_s * 0.9),
                ("ceems_compute_unit_cpu_system_seconds_total", cores * ran_s * 0.1),
                ("ceems_compute_unit_memory_used_bytes", 1e9 * (1 + i % 5) as f64),
                ("uuid:ceems_power:watts", 150.0 + (i % 40) as f64 * 5.0),
            ];
            for (name, v) in series {
                let labels = LabelSetBuilder::new()
                    .label("__name__", name)
                    .label("uuid", u.uuid.as_str())
                    .label("instance", format!("n{}", i % 87))
                    .build();
                db.append(&labels, t, v);
            }
            if u.ngpus > 0 {
                let labels = LabelSetBuilder::new()
                    .label("__name__", "uuid:ceems_gpu_util:pct")
                    .label("uuid", u.uuid.as_str())
                    .label("gpu", "0")
                    .build();
                db.append(&labels, t, 30.0 + (i % 50) as f64);
            }
        }
        let labels = LabelSetBuilder::new()
            .label("__name__", "ceems_emissions_gCo2_kWh")
            .label("provider", "rte")
            .build();
        db.append(&labels, t, 40.0 + (t / POLL_MS % 7) as f64);
    }
}

/// A TSDB with the fixture's history and an updater that polled it once.
struct Fixture {
    tsdb: Arc<Tsdb>,
    units: Vec<UnitInfo>,
    updater: Updater,
    now_ms: i64,
    dir: std::path::PathBuf,
}

static DIR_ID: AtomicI64 = AtomicI64::new(0);

impl Fixture {
    fn new() -> Fixture {
        let dir = std::env::temp_dir().join(format!(
            "ceems-bench-updater-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let tsdb = Arc::new(Tsdb::default());
        let units = units();
        scrape(&tsdb, &units, -1, HISTORY_MS);
        let mut updater = Updater::new(
            Db::open(&dir).unwrap(),
            Arc::new(FixtureRm {
                units: units.clone(),
            }),
            Arc::new(TsdbLocalSource::new(tsdb.clone())),
            None,
            UpdaterConfig::default(),
        )
        .unwrap();
        updater.poll(HISTORY_MS).unwrap();
        Fixture {
            tsdb,
            units,
            updater,
            now_ms: HISTORY_MS,
            dir,
        }
    }

    /// Scrapes the next minute and polls at its end; returns the poll's
    /// wall time.
    fn next_poll(&mut self) -> Duration {
        let now_ms = self.now_ms + POLL_MS;
        scrape(&self.tsdb, &self.units, self.now_ms, now_ms);
        let t = Instant::now();
        self.updater.poll(now_ms).unwrap();
        self.now_ms = now_ms;
        t.elapsed()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn bench_updater_poll(c: &mut Criterion) {
    let mut group = c.benchmark_group("updater_poll");
    group.sample_size(20);
    let mut f = Fixture::new();
    group.bench_function(format!("units_{}", f.units.len()), |b| {
        let Fixture {
            tsdb,
            units,
            updater,
            now_ms,
            ..
        } = &mut f;
        let now = Cell::new(*now_ms);
        b.iter_with_setup(
            || {
                let next = now.get() + POLL_MS;
                scrape(tsdb, units, now.get(), next);
                now.set(next);
                next
            },
            |at| updater.poll(at).unwrap(),
        );
        *now_ms = now.get();
    });
    group.finish();
    drop(f);

    let mut arms = [Fixture::new(), Fixture::new()];
    let log_bytes = |dir: &std::path::Path| -> u64 {
        let segments = std::fs::read_dir(dir.join("wal")).unwrap();
        segments.map(|e| e.unwrap().metadata().unwrap().len()).sum()
    };
    let mut grown = Vec::new();
    let mut samples: [Vec<Duration>; 2] = Default::default();
    for round in 0..WARM_POLLS + POLLS {
        for k in 0..arms.len() {
            let i = (round + k) % arms.len();
            let f = &mut arms[i];
            let before = log_bytes(&f.dir);
            let poll = f.next_poll();
            if round >= WARM_POLLS {
                samples[i].push(poll);
                // A poll after which the store compacted its log has no
                // growth to count.
                grown.extend(log_bytes(&f.dir).checked_sub(before));
            }
        }
    }
    let log_bytes_per_poll = grown.iter().sum::<u64>() as f64 / grown.len() as f64;
    let polls = (WARM_POLLS + POLLS + 1) as u64;
    for f in &arms {
        assert_eq!(
            f.updater.stats().units_upserted,
            polls * RUNNING as u64 + (PENDING + ENDED) as u64,
            "running units are written on every poll, the others once"
        );
    }
    let p50 = |samples: &[Duration]| LatencySummary::from_samples(&mut samples.to_vec()).p50_us;
    let halves = |samples: &[Duration]| {
        let (first, second) = samples.split_at(samples.len() / 2);
        [p50(first), p50(second)]
    };
    let half_gap_pct = |samples: &[Duration]| {
        let [first, second] = halves(samples);
        (first - second).abs() / p50(samples) * 100.0
    };
    let noise_pct = samples.iter().map(|s| half_gap_pct(s)).fold(0.0, f64::max);
    let arms_pct = (p50(&samples[1]) / p50(&samples[0]) - 1.0) * 100.0;
    let arm_rows: Vec<serde_json::Value> = samples
        .iter()
        .map(|s| {
            serde_json::json!({
                "poll": LatencySummary::from_samples(&mut s.clone()).to_json(),
                "halves_p50_us": halves(s).to_vec(),
            })
        })
        .collect();
    let summary = LatencySummary::from_samples(&mut samples.concat());
    let stats = arms[0].updater.stats();
    write_bench_json(
        "updater",
        &serde_json::json!({
            "bench": "updater_poll",
            "units": arms[0].units.len(),
            "running": RUNNING,
            "ended": ENDED,
            "pending": PENDING,
            "poll_interval_ms": POLL_MS,
            "polls": POLLS,
            "warm_polls": WARM_POLLS,
            "poll": summary.to_json(),
            "noise_pct": noise_pct,
            "arms": arm_rows,
            "arms_pct": arms_pct,
            "arms_resolved": arms_pct.abs() > noise_pct,
            "tsdb_queries_per_poll": stats.tsdb_queries as f64 / polls as f64,
            "log_bytes_per_poll": log_bytes_per_poll,
        }),
    );
}

criterion_group!(benches, bench_updater_poll);
criterion_main!(benches);
