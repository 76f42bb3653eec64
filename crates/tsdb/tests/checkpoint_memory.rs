//! What a checkpoint holds in memory while it runs. Its own test binary:
//! the tracking allocator is process-wide (the tallies are per thread, and
//! a checkpoint runs on the calling thread, so the tests may run side by
//! side).
//!
//! The fixture is the end-to-end fleet's head at the depth of its window:
//! 10,240 series of exporter-like labels, 88 scrapes each. A checkpoint
//! that copied the head's chunks and built its file in memory held more
//! than twice the head's bytes at its peak; one that cuts the database and
//! streams the file holds a few words a series.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use ceems_metrics::labels::{LabelSet, LabelSetBuilder};
use ceems_tsdb::wal::{FsyncMode, WalOptions};
use ceems_tsdb::{Tsdb, TsdbConfig};

struct Tracking;

thread_local! {
    /// Bytes live on this thread (allocated here, less freed here), and
    /// the most they were since the last reset.
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn grow(by: isize) {
    let _ = LIVE.try_with(|l| {
        let (live, peak) = l.get();
        l.set((live + by, peak.max(live + by)));
    });
}

// SAFETY: defers to `System` for every operation; the tally is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// from inside the allocator neither allocates nor re-enters.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// What `f` returns, and the most bytes live on this thread above the
/// level before it while it ran.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(|l| {
        let (live, _) = l.get();
        l.set((live, live));
        live
    });
    let out = f();
    let (_, peak) = LIVE.with(Cell::get);
    (out, (peak - base) as usize)
}

const SERIES: usize = 10_240;

/// Scrapes in the window of the end-to-end benchmark's ingest workloads.
const SCRAPES: i64 = 88;

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

fn fixture(tag: &str) -> (PathBuf, Tsdb) {
    let dir = std::env::temp_dir().join(format!("ceems-ckmem-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = WalOptions {
        segment_bytes: 16 << 20,
        fsync: FsyncMode::Never,
    };
    let db = Tsdb::open(&dir, opts, TsdbConfig::default()).unwrap();
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
    (dir, db)
}

/// The peak above the level before `Tsdb::checkpoint` stays at or below
/// half the head's bytes: no copy of the chunks, no file in memory.
#[test]
fn a_checkpoint_holds_at_most_half_the_head() {
    let (dir, db) = fixture("cut");
    let head = db.storage_bytes();
    let (covers, peak) = peak_of(|| db.checkpoint().unwrap());
    assert!(covers > 0);
    assert!(
        peak <= head / 2,
        "a checkpoint held {peak} bytes at its peak over a head of {head}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bytes a follower bootstraps from are read whole, and each series
/// goes through the checked decode alone: nothing but the file and one
/// series' store (with the table's index, a few words a string) is held.
#[test]
fn the_bootstrap_bytes_hold_the_file_and_one_series() {
    let (dir, db) = fixture("bootstrap");
    db.checkpoint().unwrap();
    let largest_store = db.storage_bytes() / SERIES * 4;
    let (bytes, peak) = peak_of(|| db.wal_checkpoint_bytes().unwrap().unwrap().1);
    // Names, instances, jobs, node groups and uuids: each string of the
    // table is one slice of the file the walk looks names up in.
    let table = 5 + 8 + 87 + 1 + 5 + SERIES / 8;
    let bound = bytes.len() + largest_store + 1024 + 40 * table;
    assert!(
        peak <= bound,
        "{peak} bytes held for a file of {} (bound {bound})",
        bytes.len()
    );
    drop(bytes);
    let _ = std::fs::remove_dir_all(&dir);
}
