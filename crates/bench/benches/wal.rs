//! WAL ingest overhead (S16): scrape-shaped `append_batch` throughput with
//! the WAL off vs on under each fsync policy, plus crash-recovery replay
//! speed and what one checkpoint costs in time and bytes. The acceptance
//! bar is WAL-on (group commit, `batch` fsync) staying within ~2× of the
//! in-memory append path. The `relstore_commit` rows are the relational
//! store's side of the same log (S6): one `Db::commit` of about 1 KiB
//! (`always`, a sync a commit) and the same records framed through the log
//! under `batch` (no sync).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ceems_bench::report::{time_iters, write_bench_json, LatencySummary};
use ceems_metrics::labels::{LabelSet, LabelSetBuilder};
use ceems_relstore::log::Log;
use ceems_relstore::wal::{Commit, WalRecord};
use ceems_relstore::{Column, ColumnType, Db, Row, Schema, Value};
use ceems_tsdb::wal::{FsyncMode, WalOptions, WalPosition};
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
        scenarios.insert(label.into(), LatencySummary::from_samples(&mut lat).to_json());
    }

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
        scenarios.insert(
            format!("relstore_commit_{label}"),
            LatencySummary::from_samples(&mut lat).to_json(),
        );
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }

    write_bench_json(
        "wal",
        &serde_json::json!({
            "bench": "wal",
            "samples_per_run": samples,
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
