//! A reopen on any number of workers is the database that was dropped.
//!
//! Random histories of creates, samples (some out of order), deletions,
//! retention cuts, epoch bumps and at most one checkpoint are written
//! through a durable database, which is dropped; a torn frame is left at
//! the end of its log. Every reopen, on one, two and three workers, must
//! hold what the dropped database held: ids and label sets, index clocks,
//! every chunk, the order `select` returns, the counters and the epoch
//! history. A retention cut or a deletion lands between scrapes that touch
//! the same head stripes, so a worker that applied samples across one would
//! show.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ceems_metrics::labels;
use ceems_metrics::labels::LabelSet;
use ceems_metrics::matcher::LabelMatcher;
use proptest::prelude::*;

use super::*;
use crate::head::SeriesStore;

/// Series a history draws from: enough that each head stripe has several.
const SERIES: u8 = 40;

#[derive(Clone, Debug)]
enum Step {
    /// One scrape 15 s after the last: each named series once, its time
    /// shifted by the given seconds (a shift back of more than 15 s is an
    /// out-of-order sample).
    Scrape(Vec<(u8, i8, f64)>),
    /// Deletes the series with this `instance`, when there is one.
    Delete(u8),
    /// A retention sweep at the last scrape's time.
    Retention,
    /// The next leadership epoch, starting at the log's record count.
    Bump,
}

fn step() -> impl Strategy<Value = Step> {
    let sample = (
        0..SERIES,
        -20i8..5,
        prop_oneof![Just(f64::NAN), -1e3..1e3f64],
    );
    prop_oneof![
        8 => proptest::collection::vec(sample, 1..30).prop_map(Step::Scrape),
        1 => (0..SERIES).prop_map(Step::Delete),
        1 => Just(Step::Retention),
        1 => Just(Step::Bump),
    ]
}

fn labels_of(series: u8) -> LabelSet {
    labels! {"__name__" => ["power", "energy"][usize::from(series % 2)], "instance" => format!("n{series}")}
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ceems-recovery-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

fn config() -> TsdbConfig {
    TsdbConfig {
        // Four scrapes: a series not scraped for that long is cut.
        retention_ms: 60_000,
        ..TsdbConfig::default()
    }
}

fn options() -> WalOptions {
    WalOptions {
        // Small enough that a history spans several segments.
        segment_bytes: 4 << 10,
        fsync: wal::FsyncMode::Never,
    }
}

/// A selected series as its labels and its samples' times and value bits
/// (a history holds NaNs).
type Selected = (Arc<LabelSet>, Vec<(i64, u64)>);

/// Everything a reopen is held to.
#[derive(Debug, PartialEq)]
struct State {
    series: Vec<(SeriesId, Arc<LabelSet>)>,
    clocks: (u64, SeriesId, u64),
    chunks: Vec<(SeriesId, SeriesStore)>,
    select: Vec<Selected>,
    counters: (u64, u64),
    epochs: (u64, Vec<EpochSpan>),
}

fn state(db: &Tsdb) -> State {
    let idx = db.index.read();
    let select = db.select(&[], i64::MIN, i64::MAX).into_iter();
    let bits = |s: SeriesData| -> Selected {
        (
            s.labels,
            s.samples.iter().map(|x| (x.t_ms, x.v.to_bits())).collect(),
        )
    };
    State {
        series: idx.all_series(),
        clocks: (idx.generation(), idx.next_id(), idx.backfills()),
        chunks: db.head.snapshot(),
        select: select.map(bits).collect(),
        counters: (db.samples_appended(), db.out_of_order_dropped()),
        epochs: (db.current_epoch(), db.epoch_history()),
    }
}

/// Writes `steps` through a database in `dir`, with a checkpoint before
/// step `checkpoint_at` when it is in range, and returns what it held when
/// dropped.
fn write(dir: &Path, steps: &[Step], checkpoint_at: usize) -> State {
    let db = Tsdb::open_on(dir, options(), config(), 1).unwrap();
    // A bulk of long series first, so a checkpoint spans several ranges
    // and a log without one replays on more than one thread.
    for t in 0..60 {
        let bulk: Vec<_> = (0..600)
            .map(|i| {
                (
                    labels! {"__name__" => "bulk", "i" => format!("{i}")},
                    t * 1_000,
                    (i * t) as f64,
                )
            })
            .collect();
        db.append_batch(&bulk);
    }
    let mut now = 60_000;
    for (i, step) in steps.iter().enumerate() {
        if i == checkpoint_at {
            db.checkpoint().unwrap();
        }
        match step {
            Step::Scrape(samples) => {
                now += 15_000;
                let batch: Vec<_> = samples
                    .iter()
                    .map(|&(series, shift, v)| {
                        (labels_of(series), now + i64::from(shift) * 1_000, v)
                    })
                    .collect();
                db.append_batch(&batch);
            }
            Step::Delete(series) => {
                db.delete_series(&[LabelMatcher::eq("instance", format!("n{series}"))]);
            }
            Step::Retention => {
                db.enforce_retention(now);
            }
            Step::Bump => {
                let records = db.wal_position().unwrap().records;
                db.bump_epoch(db.current_epoch() + 1, records).unwrap();
            }
        }
    }
    state(&db)
}

/// Leaves half a frame after the last one, as a write cut short does.
fn tear_the_tail(dir: &Path, garbage: &[u8]) {
    let (_, last) = wal::list_segments(dir).unwrap().pop().unwrap();
    let mut bytes = fs::read(&last).unwrap();
    bytes.extend_from_slice(&(garbage.len() as u32 + 16).to_le_bytes());
    bytes.extend_from_slice(garbage);
    fs::write(&last, bytes).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_reopen_on_any_number_of_workers_is_the_database_dropped(
        steps in proptest::collection::vec(step(), 1..40),
        checkpoint_at in 0usize..48,
        garbage in proptest::collection::vec(any::<u8>(), 0..12),
    ) {
        let dir = temp_dir("written");
        let dropped = write(&dir, &steps, checkpoint_at);
        tear_the_tail(&dir, &garbage);
        for workers in 1..=3 {
            let copy = temp_dir("reopened");
            copy_dir(&dir, &copy);
            let reopened = Tsdb::open_on(&copy, options(), config(), workers).unwrap();
            prop_assert_eq!(&state(&reopened), &dropped, "{} workers", workers);
            drop(reopened);
            let _ = fs::remove_dir_all(&copy);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
