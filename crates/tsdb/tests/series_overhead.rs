//! What a series costs beyond its samples. Its own test binary: the
//! counting allocator is process-wide (`Tsdb::open` replays on several
//! threads), so nothing else may run beside the one test.
//!
//! The fixture is `checkpoint_memory.rs`'s: the end-to-end fleet's head at
//! the depth of its window, 10,240 series of exporter-like labels, 88
//! scrapes each, about 216 chunk bytes a series. The bytes the database
//! holds beyond `storage_bytes()` are its bookkeeping: the index, the
//! registry, each series' store and what its chunk buffers hold unused.
//! It reads 745 bytes after the appends and 688 after a reopen. The bound
//! fails after the appends if a series' first chunk push reserves four
//! chunk slots (1,009 bytes) or its fingerprint gets a list of its own
//! (803); with both, as before the slots and the fingerprint map were
//! trimmed, 1,067. It does not hold chunk buffers to their bytes: an open
//! chunk's buffer grows by doubling, and the 745 include that slack.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicIsize, Ordering};

use ceems_metrics::labels::{LabelSet, LabelSetBuilder};
use ceems_tsdb::wal::{FsyncMode, WalOptions};
use ceems_tsdb::{Tsdb, TsdbConfig};

struct Counting;

/// Bytes live in the process: allocated, less freed, on any thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: defers to `System` for every operation; the tally is one atomic
// add, which neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SERIES: usize = 10_240;

/// Scrapes in the window of the end-to-end benchmark's ingest workloads.
const SCRAPES: i64 = 88;

/// Bytes a series may hold beyond its chunk bytes.
const BOUND: usize = 768;

/// Series `i`: one of eight metrics of one job (`uuid`) on one of 87
/// nodes, labelled as the exporter and the rules label them.
fn labels(i: usize) -> LabelSet {
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

fn open(dir: &Path) -> Tsdb {
    let opts = WalOptions {
        segment_bytes: 16 << 20,
        fsync: FsyncMode::Never,
    };
    Tsdb::open(dir, opts, TsdbConfig::default()).unwrap()
}

fn fill(db: &Tsdb) {
    let labels: Vec<LabelSet> = (0..SERIES).map(labels).collect();
    for step in 0..SCRAPES {
        let batch: Vec<(LabelSet, i64, f64)> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let jitter = ((i as i64 * 7_919 + step * 104_729) % 1_000) as f64 / 8.0;
                let v = (i % 977) as f64 * 1e3 + step as f64 * (10.0 + (i % 13) as f64) + jitter;
                (l.clone(), step * 15_000, v)
            })
            .collect();
        db.append_batch(&batch);
    }
}

/// Bytes live above `base` and beyond the database's chunk bytes, a series.
fn overhead(db: &Tsdb, base: isize) -> usize {
    let held = LIVE.load(Ordering::Relaxed) - base - db.storage_bytes() as isize;
    held.max(0) as usize / SERIES
}

#[test]
fn a_series_holds_its_samples_and_little_more() {
    let dir = std::env::temp_dir().join(format!("ceems-overhead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = LIVE.load(Ordering::Relaxed);

    let db = open(&dir);
    fill(&db);
    assert_eq!(db.series_count(), SERIES);
    let appended = overhead(&db, base);
    assert!(
        appended <= BOUND,
        "{appended} bytes a series beyond its chunks after the appends (bound {BOUND})"
    );

    db.checkpoint().unwrap();
    drop(db);
    let db = open(&dir);
    assert_eq!(db.series_count(), SERIES);
    let reopened = overhead(&db, base);
    assert!(
        reopened <= BOUND,
        "{reopened} bytes a series beyond its chunks after a reopen (bound {BOUND})"
    );
    eprintln!("beyond the chunks: {appended} B a series appended, {reopened} B reopened");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
