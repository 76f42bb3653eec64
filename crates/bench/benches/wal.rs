//! WAL ingest overhead (S16): scrape-shaped `append_batch` throughput with
//! the WAL off vs on under each fsync policy, plus crash-recovery replay
//! speed and what one checkpoint costs in time and bytes. The acceptance
//! bar is WAL-on (group commit, `batch` fsync) staying within ~2× of the
//! in-memory append path. The `relstore_commit` rows are the relational
//! store's side of the same log (S6): one `Db::commit` of about 1 KiB
//! (`always`, a sync a commit) and the same records framed through the log
//! under `batch` (no sync). The `recovery_fixture` row reopens a database
//! of the end-to-end fixture's shape and splits the open into its phases.
//! The `checkpoint_cut` row checkpoints that database while a thread
//! appends to it: each checkpoint's wall time, and the longest
//! `append_batch` that overlapped it, beside the longest one of a window as
//! long with no checkpoint: what a checkpoint costs a writer.
//!
//! `noise_pct` is the largest gap between the p50s of the first and second
//! half of one row's timed runs, over that row's p50 (`half_gap_pct` holds
//! each row's): what a loop reads when nothing differs, as `alert_eval`
//! computes it. `checkpoint_cut.stall_resolved` is true when the stall
//! during checkpoints differs from the quiet one by more than that.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ceems_bench::report::{time_iters, write_bench_json, LatencySummary, Noise};
use ceems_metrics::labels::{LabelSet, LabelSetBuilder};
use ceems_relstore::log::Log;
use ceems_relstore::wal::{Commit, WalRecord};
use ceems_relstore::{Column, ColumnType, Db, Row, Schema, Value};
use ceems_tsdb::wal::{self, FsyncMode, WalOptions, WalPosition};
use ceems_tsdb::{Tsdb, TsdbConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ceems-walbench-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One scrape pass worth of samples: `series` series at one timestamp.
fn scrape_batches(series: usize, steps: i64) -> Vec<Vec<(LabelSet, i64, f64)>> {
    let labels: Vec<LabelSet> = (0..series)
        .map(|i| {
            LabelSetBuilder::new()
                .label("__name__", "power")
                .label("instance", format!("n{i:05}"))
                .build()
        })
        .collect();
    (0..steps)
        .map(|step| {
            labels
                .iter()
                .map(|l| (l.clone(), step * 15_000, step as f64))
                .collect()
        })
        .collect()
}

/// In-memory vs WAL-backed ingest, one group commit per scrape batch.
fn bench_wal_ingest(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("wal_ingest: available parallelism = {cores}");

    let batches = scrape_batches(256, 40);
    let samples = 256 * 40;
    let mut group = c.benchmark_group("wal_ingest");
    group.sample_size(10);
    let mut dirs: Vec<PathBuf> = Vec::new();
    for (label, fsync) in [
        ("off", None),
        ("on_never", Some(FsyncMode::Never)),
        ("on_batch", Some(FsyncMode::Batch)),
        ("on_always", Some(FsyncMode::Always)),
    ] {
        group.bench_function(BenchmarkId::new(format!("samples_{samples}"), label), |b| {
            b.iter_with_setup(
                || match fsync {
                    None => Tsdb::new(TsdbConfig::default()),
                    Some(mode) => {
                        let dir = temp_dir();
                        dirs.push(dir.clone());
                        let opts = WalOptions {
                            segment_bytes: 4 << 20,
                            fsync: mode,
                        };
                        Tsdb::open(&dir, opts, TsdbConfig::default()).unwrap()
                    }
                },
                |db| {
                    for batch in &batches {
                        db.append_batch(batch);
                    }
                },
            );
        });
    }
    group.finish();
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

const RECOVERY_OPTS: WalOptions = WalOptions {
    segment_bytes: 4 << 20,
    fsync: FsyncMode::Never,
};

/// The `wal_recovery` database in a new directory: every batch appended,
/// with a checkpoint after batch `checkpoint_after` if one is named.
fn recovery_db(
    batches: &[Vec<(LabelSet, i64, f64)>],
    checkpoint_after: Option<usize>,
    dirs: &mut Vec<PathBuf>,
) -> (PathBuf, Tsdb) {
    let dir = temp_dir();
    dirs.push(dir.clone());
    let db = Tsdb::open(&dir, RECOVERY_OPTS, TsdbConfig::default()).unwrap();
    for (i, batch) in batches.iter().enumerate() {
        db.append_batch(batch);
        if checkpoint_after == Some(i) {
            db.checkpoint().unwrap();
        }
    }
    (dir, db)
}

/// Reopening a crashed database: checkpoint + tail-segment replay.
fn bench_wal_recovery(c: &mut Criterion) {
    let batches = scrape_batches(256, 40);
    let mut group = c.benchmark_group("wal_recovery");
    group.sample_size(10);
    let mut dirs: Vec<PathBuf> = Vec::new();
    for (label, checkpoint_after) in [("segments_only", None), ("with_checkpoint", Some(20))] {
        group.bench_function(BenchmarkId::new("replay", label), |b| {
            b.iter_with_setup(
                || recovery_db(&batches, checkpoint_after, &mut dirs).0,
                |dir| Tsdb::open(&dir, RECOVERY_OPTS, TsdbConfig::default()).unwrap(),
            );
        });
    }
    group.finish();
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One `Tsdb::checkpoint` over the `wal_recovery` database: the time its
/// writers are shut out for. The bytes it leaves on disk are in the
/// `checkpoint_write` row of `BENCH_wal.json`.
fn bench_wal_checkpoint(c: &mut Criterion) {
    let batches = scrape_batches(256, 40);
    let mut group = c.benchmark_group("wal_checkpoint");
    group.sample_size(10);
    let mut dirs: Vec<PathBuf> = Vec::new();
    group.bench_function("write", |b| {
        b.iter_with_setup(
            || recovery_db(&batches, None, &mut dirs).1,
            |db| {
                db.checkpoint().unwrap();
                db
            },
        );
    });
    group.finish();
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Series of the `recovery_fixture` database: the end-to-end fixture's
/// 87-node fleet ended with about 10 k series.
const FIXTURE_SERIES: usize = 10_240;

/// Scrapes before its checkpoint, and after it (two minutes at 15 s).
const FIXTURE_SCRAPES: (i64, i64) = (48, 8);

/// Series `i` of the fixture: one of eight metrics of one job (`uuid`) on
/// one of 87 nodes.
fn fixture_labels(i: usize) -> LabelSet {
    const METRICS: [&str; 8] = [
        "ceems_compute_unit_cpu_user_seconds_total",
        "ceems_compute_unit_cpu_system_seconds_total",
        "ceems_compute_unit_memory_used_bytes",
        "ceems_compute_unit_memory_total_bytes",
        "ceems_rapl_package_joules_total",
        "ceems_ipmi_dcmi_current_watts",
        "uuid:ceems_power:watts",
        "instance:ceems_cpufrac:ratio",
    ];
    let node = i / 118;
    LabelSetBuilder::new()
        .label("__name__", METRICS[i % METRICS.len()])
        .label("instance", format!("jz-node-{node:04}:9010"))
        .label("job", "ceems")
        .label(
            "nodegroup",
            ["intel", "amd", "v100", "a100", "h100"][node % 5],
        )
        .label("uuid", format!("slurm-{}", 100_000 + i / METRICS.len()))
        .build()
}

/// One scrape of series `from..to` at `step`: counters and gauges that move
/// by a different amount each scrape, as the head sees them.
fn fixture_scrape(from: usize, to: usize, step: i64) -> Vec<(LabelSet, i64, f64)> {
    (from..to)
        .map(|i| {
            let jitter = ((i as i64 * 7_919 + step * 104_729) % 1_000) as f64 / 8.0;
            let v = (i % 977) as f64 * 1e3 + step as f64 * (10.0 + (i % 13) as f64) + jitter;
            (fixture_labels(i), step * 15_000, v)
        })
        .collect()
}

/// The fixture in two directories: `checkpointed` holds a checkpoint after
/// the first scrapes and no log after it; `with_log` is the same database
/// after two more minutes of scrapes, which add the last 4 % of the series.
fn fixture_dirs(dirs: &mut Vec<PathBuf>) -> (PathBuf, PathBuf) {
    let (before, after) = FIXTURE_SCRAPES;
    let old = FIXTURE_SERIES * 24 / 25;
    let checkpointed = temp_dir();
    let db = Tsdb::open(&checkpointed, RECOVERY_OPTS, TsdbConfig::default()).unwrap();
    for step in 0..before {
        db.append_batch(&fixture_scrape(0, old, step));
    }
    db.checkpoint().unwrap();
    drop(db);
    let with_log = temp_dir();
    std::fs::create_dir_all(&with_log).unwrap();
    for entry in std::fs::read_dir(&checkpointed).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, with_log.join(path.file_name().unwrap())).unwrap();
    }
    let db = Tsdb::open(&with_log, RECOVERY_OPTS, TsdbConfig::default()).unwrap();
    for step in before..before + after {
        db.append_batch(&fixture_scrape(0, FIXTURE_SERIES, step));
    }
    drop(db);
    dirs.extend([checkpointed.clone(), with_log.clone()]);
    (checkpointed, with_log)
}

/// Reopens the fixture and times the open's three phases apart:
/// `checkpoint_decode` is `wal::decode_checkpoint` of its bytes,
/// `install` what opening the checkpoint alone takes beyond that (index
/// and head), and `log_replay` what the two minutes of log add to it.
fn recovery_fixture_row(
    iters: usize,
    dirs: &mut Vec<PathBuf>,
    noise: &mut Noise,
) -> serde_json::Value {
    let (checkpointed, with_log) = fixture_dirs(dirs);
    let (_, bytes) = Tsdb::open(&checkpointed, RECOVERY_OPTS, TsdbConfig::default())
        .unwrap()
        .wal_checkpoint_bytes()
        .unwrap()
        .unwrap();
    let log_bytes: u64 = wal::list_segments(&with_log)
        .unwrap()
        .iter()
        .map(|(_, path)| std::fs::metadata(path).unwrap().len())
        .sum();
    let open = |dir: &PathBuf| Tsdb::open(dir, RECOVERY_OPTS, TsdbConfig::default()).unwrap();
    let (series, samples) = {
        let db = open(&with_log);
        (db.series_count(), db.samples_appended())
    };
    // Alternated, so a slow patch of the host lands on every phase alike.
    let (mut decode, mut checkpoint_only, mut whole) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..iters {
        decode.extend(time_iters(1, || {
            drop(wal::decode_checkpoint(&bytes).unwrap())
        }));
        checkpoint_only.extend(time_iters(1, || drop(open(&checkpointed))));
        whole.extend(time_iters(1, || drop(open(&with_log))));
    }
    noise.record("recovery_fixture/decode", &decode);
    noise.record("recovery_fixture/open_checkpoint_only", &checkpoint_only);
    noise.record("recovery_fixture/open", &whole);
    let [decode, checkpoint_only, whole] =
        [decode, checkpoint_only, whole].map(|mut lat| LatencySummary::from_samples(&mut lat));
    serde_json::json!({
        "series": series,
        "samples": samples,
        "checkpoint_bytes": bytes.len(),
        "log_bytes": log_bytes,
        "checkpoint_decode_p50_us": decode.p50_us,
        "install_p50_us": checkpoint_only.p50_us - decode.p50_us,
        "log_replay_p50_us": whole.p50_us - checkpoint_only.p50_us,
        "decode": decode.to_json(),
        "open_checkpoint_only": checkpoint_only.to_json(),
        "open": whole.to_json(),
    })
}

/// One node's series: an appender's batch.
const NODE_SERIES: usize = 118;

/// Between a checkpoint and the quiet window after it.
const SETTLE: Duration = Duration::from_millis(2);

/// Checkpoints the fixture's database (every series, the scrapes before
/// its checkpoint) `rounds` times while a thread appends to it, one node's
/// series a batch, node after node. Each round is a checkpoint, then after
/// [`SETTLE`] a window as long with none; a round's stall is the longest
/// `append_batch` that overlapped its checkpoint, its quiet stall the
/// longest one that overlapped its window.
fn checkpoint_cut_row(
    rounds: usize,
    dirs: &mut Vec<PathBuf>,
    noise: &mut Noise,
) -> serde_json::Value {
    let dir = temp_dir();
    dirs.push(dir.clone());
    let db = Tsdb::open(&dir, RECOVERY_OPTS, TsdbConfig::default()).unwrap();
    for step in 0..FIXTURE_SCRAPES.0 {
        db.append_batch(&fixture_scrape(0, FIXTURE_SERIES, step));
    }
    let labels: Vec<LabelSet> = (0..FIXTURE_SERIES).map(fixture_labels).collect();
    let stop = AtomicBool::new(false);
    let mut windows = Vec::with_capacity(rounds);
    let appends: Vec<(Instant, Duration)> = std::thread::scope(|scope| {
        let appender = scope.spawn(|| {
            let mut appends = Vec::new();
            let mut step = FIXTURE_SCRAPES.0;
            while !stop.load(Ordering::Relaxed) {
                for node in labels.chunks(NODE_SERIES) {
                    let batch: Vec<(LabelSet, i64, f64)> = node
                        .iter()
                        .map(|l| (l.clone(), step * 15_000, step as f64))
                        .collect();
                    let started = Instant::now();
                    db.append_batch(&batch);
                    appends.push((started, started.elapsed()));
                }
                step += 1;
            }
            appends
        });
        // One untimed round first: the appender warms up.
        db.checkpoint().unwrap();
        for _ in 0..rounds {
            let started = Instant::now();
            db.checkpoint().unwrap();
            let checkpoint = (started, Instant::now());
            // An append the checkpoint held up ends just after it.
            std::thread::sleep(SETTLE);
            let quiet = Instant::now();
            std::thread::sleep(checkpoint.1 - checkpoint.0);
            windows.push((checkpoint, (quiet, Instant::now())));
        }
        stop.store(true, Ordering::Relaxed);
        appender.join().unwrap()
    });
    let longest = |(from, to): (Instant, Instant)| {
        let overlapping = appends
            .iter()
            .filter(|(at, took)| *at < to && *at + *took > from);
        overlapping.map(|(_, took)| *took).max().unwrap_or_default()
    };
    let checkpoint: Vec<Duration> = windows.iter().map(|(c, _)| c.1 - c.0).collect();
    let during: Vec<Duration> = windows.iter().map(|(c, _)| longest(*c)).collect();
    let quiet: Vec<Duration> = windows.iter().map(|(_, q)| longest(*q)).collect();
    noise.record("checkpoint_cut/checkpoint", &checkpoint);
    noise.record("checkpoint_cut/stall", &during);
    noise.record("checkpoint_cut/quiet_stall", &quiet);
    let [checkpoint, during, quiet] =
        [checkpoint, during, quiet].map(|mut lat| LatencySummary::from_samples(&mut lat));
    serde_json::json!({
        "series": db.series_count(),
        "rounds": rounds,
        "appends": appends.len(),
        "batch_series": NODE_SERIES,
        "checkpoint_p50_us": checkpoint.p50_us,
        "stall_p50_us": during.p50_us,
        "quiet_stall_p50_us": quiet.p50_us,
        "stall_vs_quiet_pct": (during.p50_us / quiet.p50_us - 1.0) * 100.0,
        "checkpoint": checkpoint.to_json(),
        "stall": during.to_json(),
        "quiet_stall": quiet.to_json(),
    })
}

/// Eight rows, about 1 KiB of log as one commit.
fn relstore_rows(step: u32) -> impl Iterator<Item = (&'static str, Row)> {
    (0..8).map(move |i| {
        let user = Value::Text(format!("user-{i:0>96}"));
        let energy = Value::Real(f64::from(step) * 0.5);
        ("units", vec![Value::Int(i), user, energy])
    })
}

const RELSTORE_FSYNC: [&str; 2] = ["always", "batch"];

/// Commits `relstore_rows(step)` for each `step` it is called with.
/// `always` is `Db::commit` on a one-table database, which syncs before it
/// returns; `batch` writes the same records as one frame through a log
/// under `FsyncMode::Batch`. The gap between them is the sync (plus the row
/// checks and the apply `Db::commit` does around it).
fn relstore_committer(label: &str, dirs: &mut Vec<PathBuf>) -> Box<dyn FnMut(u32)> {
    let dir = temp_dir();
    dirs.push(dir.clone());
    if label == "always" {
        let mut db = Db::open(&dir).unwrap();
        let schema = Schema::new(
            vec![
                Column::required("uuid", ColumnType::Int),
                Column::required("user", ColumnType::Text),
                Column::required("energy_kwh", ColumnType::Real),
            ],
            "uuid",
            &[],
        )
        .unwrap();
        db.create_table("units", schema).unwrap();
        return Box::new(move |step| db.commit(relstore_rows(step), []).unwrap());
    }
    std::fs::create_dir_all(&dir).unwrap();
    let opts = WalOptions {
        fsync: FsyncMode::Batch,
        ..WalOptions::default()
    };
    let mut log = Log::open_at(&dir, opts, WalPosition::default()).unwrap();
    Box::new(move |step| {
        let records: Vec<WalRecord> = relstore_rows(step)
            .map(|(table, row)| WalRecord::Upsert {
                table: table.to_string(),
                row,
            })
            .collect();
        log.commit(&Commit(&records)).unwrap();
    })
}

/// One relational commit per fsync policy: what `always` adds is the sync.
fn bench_relstore_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("relstore_commit");
    let mut dirs: Vec<PathBuf> = Vec::new();
    for label in RELSTORE_FSYNC {
        let mut commit = relstore_committer(label, &mut dirs);
        let mut step = 0;
        group.bench_function(label, |b| {
            b.iter(|| {
                step += 1;
                commit(step);
            });
        });
    }
    group.finish();
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Machine-readable artifact: a short measured pass per fsync policy plus
/// a replay run (the criterion groups remain the careful numbers).
fn emit_wal_json(_c: &mut Criterion) {
    let batches = scrape_batches(256, 40);
    let samples = 256 * 40;
    let iters = 8;
    let mut scenarios = serde_json::Map::new();
    let mut noise = Noise::default();
    for (label, fsync) in [
        ("off", None),
        ("on_never", Some(FsyncMode::Never)),
        ("on_batch", Some(FsyncMode::Batch)),
        ("on_always", Some(FsyncMode::Always)),
    ] {
        let mut dirs: Vec<PathBuf> = Vec::new();
        let mut lat = time_iters(iters, || {
            let db = match fsync {
                None => Tsdb::new(TsdbConfig::default()),
                Some(mode) => {
                    let dir = temp_dir();
                    dirs.push(dir.clone());
                    let opts = WalOptions {
                        segment_bytes: 4 << 20,
                        fsync: mode,
                    };
                    Tsdb::open(&dir, opts, TsdbConfig::default()).unwrap()
                }
            };
            for batch in &batches {
                db.append_batch(batch);
            }
        });
        noise.record(format!("ingest_{label}"), &lat);
        let s = LatencySummary::from_samples(&mut lat);
        let mut obj = s.to_json();
        if let serde_json::Value::Object(ref mut map) = obj {
            map.insert(
                "samples_per_sec_p50".into(),
                serde_json::json!(samples as f64 / (s.p50_us / 1e6)),
            );
        }
        scenarios.insert(format!("ingest_{label}"), obj);
        for dir in dirs {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // Recovery: replay a full (uncheckpointed) WAL, then the same database
    // from a checkpoint taken halfway plus the tail after it.
    let mut dirs: Vec<PathBuf> = Vec::new();
    for (label, checkpoint_after) in [
        ("recovery_replay", None),
        ("recovery_with_checkpoint", Some(batches.len() / 2)),
    ] {
        let (dir, db) = recovery_db(&batches, checkpoint_after, &mut dirs);
        drop(db);
        let mut lat = time_iters(iters, || {
            Tsdb::open(&dir, RECOVERY_OPTS, TsdbConfig::default()).unwrap();
        });
        noise.record(label, &lat);
        scenarios.insert(label.into(), LatencySummary::from_samples(&mut lat).to_json());
    }
    scenarios.insert(
        "recovery_fixture".into(),
        recovery_fixture_row(15, &mut dirs, &mut noise),
    );
    scenarios.insert(
        "checkpoint_cut".into(),
        checkpoint_cut_row(24, &mut dirs, &mut noise),
    );

    // One checkpoint of the whole database: wall time and file size.
    let mut checkpoint_bytes = 0;
    let mut lat: Vec<std::time::Duration> = (0..iters)
        .map(|_| {
            let (_, db) = recovery_db(&batches, None, &mut dirs);
            let t = std::time::Instant::now();
            db.checkpoint().unwrap();
            let elapsed = t.elapsed();
            checkpoint_bytes = db.wal_checkpoint_bytes().unwrap().map_or(0, |(_, b)| b.len());
            elapsed
        })
        .collect();
    noise.record("checkpoint_write", &lat);
    let mut row = LatencySummary::from_samples(&mut lat).to_json();
    if let serde_json::Value::Object(ref mut map) = row {
        map.insert("bytes".into(), serde_json::json!(checkpoint_bytes));
        map.insert(
            "bytes_per_sample".into(),
            serde_json::json!(checkpoint_bytes as f64 / samples as f64),
        );
    }
    scenarios.insert("checkpoint_write".into(), row);

    for label in RELSTORE_FSYNC {
        let mut commit = relstore_committer(label, &mut dirs);
        let mut step = 0;
        let mut lat = time_iters(64, || {
            step += 1;
            commit(step);
        });
        noise.record(format!("relstore_commit_{label}"), &lat);
        scenarios.insert(
            format!("relstore_commit_{label}"),
            LatencySummary::from_samples(&mut lat).to_json(),
        );
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let noise_pct = noise.pct();
    if let Some(serde_json::Value::Object(row)) = scenarios.get_mut("checkpoint_cut") {
        let apart = row["stall_vs_quiet_pct"].as_f64().unwrap_or(0.0).abs();
        row.insert("stall_resolved".into(), serde_json::json!(apart > noise_pct));
    }
    write_bench_json(
        "wal",
        &serde_json::json!({
            "bench": "wal",
            "samples_per_run": samples,
            "noise_pct": noise_pct,
            "half_gap_pct": noise.0,
            "scenarios": serde_json::Value::Object(scenarios),
        }),
    );
}

criterion_group!(
    benches,
    bench_wal_ingest,
    bench_wal_recovery,
    bench_wal_checkpoint,
    bench_relstore_commit,
    emit_wal_json
);
criterion_main!(benches);
