//! Checkpoints taken while the database works, and the head's kept byte
//! count.
//!
//! A checkpoint holds the gate's write side only for its cut: its encode
//! runs beside appends to known and new series, while removals wait. One
//! thread checkpoints over and over while another writes; reopening the
//! directory afterwards must give what the database held when it was
//! dropped. The head keeps its chunk bytes per stripe as they change; after
//! every step of a random history the kept total must be the walked one.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ceems_metrics::labels;
use ceems_metrics::labels::LabelSet;
use ceems_metrics::matcher::LabelMatcher;
use proptest::prelude::*;

use super::*;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ceems-ckprops-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn options() -> WalOptions {
    WalOptions {
        segment_bytes: 1 << 20,
        fsync: wal::FsyncMode::Never,
    }
}

/// Retention of twenty scrapes: series that stop are emptied and removed.
fn config() -> TsdbConfig {
    TsdbConfig {
        retention_ms: 20 * 15_000,
        ..TsdbConfig::default()
    }
}

/// Series a history draws from; those past the first half are created as
/// the history goes.
const SERIES: u8 = 48;

#[derive(Clone, Debug)]
enum Step {
    /// One scrape 15 s after the last, each named series once.
    Scrape(Vec<(u8, f64)>),
    /// Deletes the series with this `instance`, when there is one.
    Delete(u8),
    /// A retention sweep at the last scrape's time.
    Retention,
    /// Puts a series back as a checkpoint would (byte count only).
    Install(u8),
    /// Checkpoints, drops and reopens the database (byte count only).
    Reopen,
}

fn labels_of(series: u8) -> LabelSet {
    labels! {
        "__name__" => ["power", "energy", "up"][usize::from(series % 3)],
        "instance" => format!("n{series}"),
        "job" => "ceems",
    }
}

fn scrape() -> impl Strategy<Value = Step> {
    let sample = (0..SERIES, prop_oneof![Just(f64::NAN), -1e6..1e6f64]);
    proptest::collection::vec(sample, 1..40).prop_map(Step::Scrape)
}

/// Applies a writing step; `t` is the last scrape's time.
fn write(db: &Tsdb, step: &Step, t: &mut i64) {
    match step {
        Step::Scrape(samples) => {
            *t += 15_000;
            // Each series once a scrape.
            let mut samples = samples.clone();
            samples.sort_by_key(|&(s, _)| s);
            samples.dedup_by_key(|&mut (s, _)| s);
            let batch: Vec<(LabelSet, i64, f64)> = samples
                .iter()
                .map(|&(s, v)| (labels_of(s), *t, v))
                .collect();
            db.append_batch(&batch);
        }
        Step::Delete(s) => {
            db.delete_series(&[LabelMatcher::eq("instance", format!("n{s}"))]);
        }
        Step::Retention => {
            db.enforce_retention(*t);
        }
        Step::Install(_) | Step::Reopen => {}
    }
}

/// Every series' labels and samples (value bits), and the counters.
type State = (Vec<(Arc<LabelSet>, i64, u64)>, u64, u64);

fn state(db: &Tsdb) -> State {
    let rows = db
        .select(&[], i64::MIN, i64::MAX)
        .into_iter()
        .flat_map(|s| {
            let labels = s.labels;
            s.samples
                .into_iter()
                .map(move |x| (Arc::clone(&labels), x.t_ms, x.v.to_bits()))
        });
    (
        rows.collect(),
        db.samples_appended(),
        db.out_of_order_dropped(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoints on one thread while another scrapes (into known series
    /// and new ones), deletes and sweeps retention: the directory reopens
    /// to the database that was never closed, whichever checkpoint the
    /// writer's last step fell after.
    #[test]
    fn checkpoints_beside_appends_reopen_to_the_database(
        steps in proptest::collection::vec(
            prop_oneof![
                10 => scrape(),
                1 => (0..SERIES).prop_map(Step::Delete),
                1 => Just(Step::Retention),
            ],
            20..80,
        ),
    ) {
        let dir = temp_dir("beside");
        let db = Tsdb::open(&dir, options(), config()).unwrap();
        let done = AtomicBool::new(false);
        let taken = std::thread::scope(|scope| {
            let checkpoints = scope.spawn(|| {
                let mut taken = 0;
                while !done.load(Ordering::SeqCst) || taken < 3 {
                    db.checkpoint().unwrap();
                    taken += 1;
                }
                taken
            });
            let mut t = 0;
            for step in &steps {
                write(&db, step, &mut t);
            }
            done.store(true, Ordering::SeqCst);
            checkpoints.join().unwrap()
        });
        prop_assert!(taken >= 3);
        let want = state(&db);
        drop(db);
        let reopened = Tsdb::open(&dir, options(), config()).unwrap();
        let got = state(&reopened);
        prop_assert_eq!(got.0.len(), want.0.len(), "samples");
        prop_assert!(got.0 == want.0, "series' labels and samples differ");
        prop_assert_eq!((got.1, got.2), (want.1, want.2), "samples_appended, out_of_order");
        prop_assert_eq!(reopened.orphan_head_series(), 0);
        drop(reopened);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The head's kept byte count is the walked one after every append,
    /// removal, retention sweep, install and reopen from a checkpoint.
    #[test]
    fn the_kept_byte_count_is_the_walked_one(
        steps in proptest::collection::vec(
            prop_oneof![
                8 => scrape(),
                1 => (0..SERIES).prop_map(Step::Delete),
                1 => Just(Step::Retention),
                1 => (0..SERIES).prop_map(Step::Install),
                1 => Just(Step::Reopen),
            ],
            1..60,
        ),
    ) {
        let dir = temp_dir("bytes");
        let mut db = Tsdb::open(&dir, options(), config()).unwrap();
        let mut t = 0;
        for step in &steps {
            match step {
                Step::Install(s) => {
                    // Whatever the id held, a store of a few samples.
                    let mut store = SeriesStore::default();
                    for i in 0..(i64::from(*s) * 7) {
                        store.append(Sample::new(i * 1_000, i as f64)).unwrap();
                    }
                    db.head.install(SeriesId::from(*s), store);
                }
                Step::Reopen => {
                    db.checkpoint().unwrap();
                    drop(db);
                    db = Tsdb::open(&dir, options(), config()).unwrap();
                }
                _ => write(&db, step, &mut t),
            }
            prop_assert_eq!(db.head.byte_len(), db.head.walked_byte_len(), "after {:?}", step);
        }
        drop(db);
        let _ = fs::remove_dir_all(&dir);
    }
}
