//! The API server's updater poll (EXPERIMENTS E22): ≈ 230 units over a
//! fixture TSDB, a minute of scrapes between polls, the shape of the
//! end-to-end benchmark's `ingest_pull` window.
//!
//! Each poll asks the TSDB its five aggregate queries, folds the minute into
//! every running unit's row, rolls up usage and writes the rows to the
//! relational store. Pending units are reported on every poll, as the
//! resource manager reports them, and get a row but no aggregates. Only the
//! poll is timed; the scrapes between polls are not. Emits
//! `BENCH_updater.json` with the p50 of the polls.
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
const SCRAPE_MS: i64 = 15_000;
const POLL_MS: i64 = 60_000;
/// History in the TSDB before the first poll.
const HISTORY_MS: i64 = 30 * 60_000;
/// Timed polls for the JSON artifact.
const POLLS: usize = 40;

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
        user: format!("user{}", i % 17),
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

    let mut f = Fixture::new();
    let mut samples: Vec<Duration> = (0..POLLS).map(|_| f.next_poll()).collect();
    let stats = f.updater.stats();
    assert_eq!(
        stats.units_upserted,
        ((POLLS + 1) * f.units.len()) as u64,
        "every unit is written on every poll"
    );
    let summary = LatencySummary::from_samples(&mut samples);
    write_bench_json(
        "updater",
        &serde_json::json!({
            "bench": "updater_poll",
            "units": f.units.len(),
            "running": RUNNING,
            "ended": ENDED,
            "pending": PENDING,
            "poll_interval_ms": POLL_MS,
            "polls": POLLS,
            "poll": summary.to_json(),
            "tsdb_queries_per_poll": stats.tsdb_queries as f64 / (POLLS + 1) as f64,
        }),
    );
}

criterion_group!(benches, bench_updater_poll);
criterion_main!(benches);
