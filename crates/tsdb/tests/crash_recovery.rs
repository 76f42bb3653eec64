//! Crash-recovery matrix for the TSDB WAL (S16).
//!
//! Every test drives a WAL-backed database and an identically-configured
//! in-memory reference through the same operation trace, "kills" the
//! durable one at some point (drops it — everything reaching the OS is
//! what a crash leaves behind), reopens it from its directory, and asserts
//! the recovered state answers queries *identically* to the reference:
//! full series dumps, instant and range PromQL, label introspection, and
//! the ingest counters. Crash points cover mid-trace, mid-segment-rotation
//! (tiny segments force rotations constantly), and mid-checkpoint (stray
//! `.tmp` and corrupt checkpoint files, a complete `.tmp` not yet renamed,
//! a renamed checkpoint whose covered files are not yet collected).

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ceems_metrics::labels;
use ceems_metrics::labels::LabelSet;
use ceems_metrics::matcher::LabelMatcher;
use ceems_tsdb::promql::{instant_query, parse_expr, range_query};
use ceems_tsdb::wal::{self, decode_frames, encode_record, FsyncMode, WalOptions, WalRecord};
use ceems_tsdb::{Tsdb, TsdbConfig};

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ceems-crash-{tag}-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn test_config() -> TsdbConfig {
    TsdbConfig {
        retention_ms: 120_000,
        query_threads: 2,
        posting_cache_size: 16,
    }
}

fn tiny_segments() -> WalOptions {
    WalOptions {
        segment_bytes: 512, // rotate constantly: crashes land mid-rotation
        fsync: FsyncMode::Never,
    }
}

/// One step of the recorded workload.
enum Op {
    Batch(Vec<(LabelSet, i64, f64)>),
    Delete(Vec<LabelMatcher>),
    Retention(i64),
    Checkpoint,
}

/// A deterministic trace exercising every record type: steady scrape
/// batches, a short-lived burst series, a mid-trace series creation, a
/// tombstone delete, retention (which purges the burst), out-of-order
/// drops, and two checkpoints.
fn op_trace() -> Vec<Op> {
    let mut ops = Vec::new();
    for step in 0..24i64 {
        let t = step * 15_000;
        let mut batch = Vec::new();
        for i in 0..6 {
            batch.push((
                labels! {"__name__" => "power", "instance" => format!("n{i}")},
                t,
                100.0 + i as f64 * 10.0 + step as f64,
            ));
        }
        if (2..=3).contains(&step) {
            batch.push((labels! {"__name__" => "burst", "instance" => "b0"}, t, 1.0));
        }
        if step >= 6 {
            batch.push((labels! {"__name__" => "gpu_watts", "gpu" => "0"}, t, 300.0));
        }
        if step == 13 {
            // Out-of-order: must be counted and dropped on both sides.
            batch.push((
                labels! {"__name__" => "power", "instance" => "n0"},
                t - 60_000,
                0.0,
            ));
        }
        ops.push(Op::Batch(batch));
        match step {
            8 => ops.push(Op::Delete(vec![LabelMatcher::eq("instance", "n3")])),
            12 => ops.push(Op::Checkpoint),
            16 => ops.push(Op::Retention(t)),
            20 => ops.push(Op::Checkpoint),
            _ => {}
        }
    }
    ops
}

fn apply(db: &Tsdb, op: &Op) {
    match op {
        Op::Batch(b) => db.append_batch(b),
        Op::Delete(m) => {
            db.delete_series(m);
        }
        Op::Retention(now) => {
            db.enforce_retention(*now);
        }
        // The in-memory reference has no WAL: checkpoint errors there, and
        // must not change query-visible state on the durable side either.
        Op::Checkpoint => {
            let _ = db.checkpoint();
        }
    }
}

/// Everything query-visible, for equality assertions.
fn assert_identical(recovered: &Tsdb, reference: &Tsdb, context: &str) {
    assert_eq!(
        recovered.select(&[], i64::MIN, i64::MAX),
        reference.select(&[], i64::MIN, i64::MAX),
        "{context}: full dump differs"
    );
    assert_eq!(
        recovered.series_count(),
        reference.series_count(),
        "{context}: series count"
    );
    assert_eq!(
        recovered.samples_appended(),
        reference.samples_appended(),
        "{context}: appended counter"
    );
    assert_eq!(
        recovered.out_of_order_dropped(),
        reference.out_of_order_dropped(),
        "{context}: out-of-order counter"
    );
    assert_eq!(
        *recovered.label_names(),
        *reference.label_names(),
        "{context}: label names"
    );
    assert_eq!(
        *recovered.label_values("instance"),
        *reference.label_values("instance"),
        "{context}: instance values"
    );
    for q in ["sum(power)", "power", "gpu_watts", "burst"] {
        let expr = parse_expr(q).unwrap();
        for t in [0i64, 180_000, 345_000] {
            assert_eq!(
                instant_query(recovered, &expr, t),
                instant_query(reference, &expr, t),
                "{context}: instant {q} @ {t}"
            );
        }
        assert_eq!(
            range_query(recovered, &expr, 0, 345_000, 15_000),
            range_query(reference, &expr, 0, 345_000, 15_000),
            "{context}: range {q}"
        );
    }
}

#[test]
fn crash_point_matrix_recovers_exactly() {
    let ops = op_trace();
    // Crash after K ops, for K across the whole trace: before any
    // checkpoint, right at both checkpoints, mid-rotation (every point is,
    // with 512-byte segments), and at the very end.
    for crash_after in [1, 3, 7, 10, 13, 14, 17, 22, 26, ops.len()] {
        let dir = temp_dir("matrix");
        let reference = Tsdb::new(test_config());
        {
            let durable = Tsdb::open(&dir, tiny_segments(), test_config()).unwrap();
            for op in ops.iter().take(crash_after) {
                apply(&durable, op);
                apply(&reference, op);
            }
            // `durable` dropped here: the crash.
        }
        let recovered = Tsdb::open(&dir, tiny_segments(), test_config()).unwrap();
        assert_identical(&recovered, &reference, &format!("crash after {crash_after}"));
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovered_database_keeps_ingesting_durably() {
    let dir = temp_dir("resume");
    let reference = Tsdb::new(test_config());
    let ops = op_trace();
    {
        let durable = Tsdb::open(&dir, tiny_segments(), test_config()).unwrap();
        for op in &ops {
            apply(&durable, op);
            apply(&reference, op);
        }
    }
    // Reopen, write more, crash again, reopen again.
    let tail = Op::Batch(vec![
        (labels! {"__name__" => "power", "instance" => "n0"}, 400_000, 1.0),
        (labels! {"__name__" => "fresh", "x" => "1"}, 400_000, 2.0),
    ]);
    {
        let durable = Tsdb::open(&dir, tiny_segments(), test_config()).unwrap();
        apply(&durable, &tail);
        apply(&reference, &tail);
    }
    let recovered = Tsdb::open(&dir, tiny_segments(), test_config()).unwrap();
    assert_identical(&recovered, &reference, "second crash");
    assert_eq!(recovered.wal_errors(), 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_truncated_and_replay_resumes() {
    let dir = temp_dir("torn");
    let reference = Tsdb::new(test_config());
    let a = Op::Batch(vec![
        (labels! {"__name__" => "m", "i" => "1"}, 1_000, 1.0),
        (labels! {"__name__" => "m", "i" => "2"}, 1_000, 2.0),
    ]);
    let b = Op::Batch(vec![(labels! {"__name__" => "m", "i" => "1"}, 2_000, 3.0)]);
    let opts = WalOptions {
        segment_bytes: 1 << 20, // one segment: the tear lands mid-segment
        fsync: FsyncMode::Never,
    };
    let boundary = {
        let durable = Tsdb::open(&dir, opts, test_config()).unwrap();
        apply(&durable, &a);
        apply(&reference, &a);
        let boundary = durable.wal_position().unwrap();
        apply(&durable, &b); // lost to the tear below
        boundary
    };
    // Tear the last record in half: a crash mid-`write`.
    let seg = dir.join(wal::segment_file_name(boundary.seq));
    let len = fs::metadata(&seg).unwrap().len();
    assert!(len > boundary.offset, "second batch must be on disk");
    let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(boundary.offset + 3).unwrap();
    drop(f);

    let recovered = Tsdb::open(&dir, opts, test_config()).unwrap();
    assert_identical(&recovered, &reference, "torn tail");
    // The torn bytes are gone from disk; new appends land cleanly after
    // the valid prefix and survive another reopen.
    assert_eq!(recovered.wal_position().unwrap().offset, boundary.offset);
    apply(&recovered, &b);
    apply(&reference, &b);
    drop(recovered);
    let again = Tsdb::open(&dir, opts, test_config()).unwrap();
    assert_identical(&again, &reference, "after tear + rewrite");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mid_checkpoint_crash_falls_back() {
    let dir = temp_dir("ckpt");
    let reference = Tsdb::new(test_config());
    let ops = op_trace();
    {
        let durable = Tsdb::open(&dir, tiny_segments(), test_config()).unwrap();
        for op in &ops {
            apply(&durable, op);
            apply(&reference, op);
        }
    }
    // Simulate a crash mid-checkpoint: a half-written temp file plus a
    // newer checkpoint whose bytes are corrupt. Recovery must ignore both
    // and use the last good checkpoint + segments.
    fs::write(dir.join("checkpoint-000000009999.ckpt.tmp"), b"partial").unwrap();
    let good = wal::list_checkpoints(&dir).unwrap();
    assert!(!good.is_empty(), "trace must have checkpointed");
    let mut corrupt = fs::read(&good.last().unwrap().1).unwrap();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    fs::write(dir.join(wal::checkpoint_file_name(9_998)), &corrupt).unwrap();

    let recovered = Tsdb::open(&dir, tiny_segments(), test_config()).unwrap();
    assert_identical(&recovered, &reference, "mid-checkpoint crash");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_gc_leaves_recoverable_state() {
    let dir = temp_dir("gc");
    let reference = Tsdb::new(test_config());
    let ops = op_trace();
    {
        let durable = Tsdb::open(&dir, tiny_segments(), test_config()).unwrap();
        for op in &ops {
            apply(&durable, op);
            apply(&reference, op);
        }
        let covers = durable.checkpoint().unwrap();
        // GC happened: nothing older than the checkpoint remains.
        for (seq, _) in wal::list_segments(&dir).unwrap() {
            assert!(seq >= covers, "segment {seq} should be GC'd (covers {covers})");
        }
        assert_eq!(wal::list_checkpoints(&dir).unwrap().len(), 1);
    }
    let recovered = Tsdb::open(&dir, tiny_segments(), test_config()).unwrap();
    assert_identical(&recovered, &reference, "post-GC recovery");
    let _ = fs::remove_dir_all(&dir);
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

/// A checkpoint writes its `.tmp` whole, syncs it, renames it and only
/// then collects what it covers. A crash between the file being complete
/// and its rename, or between the rename and the collection, leaves the
/// older checkpoint with every segment it needs beside the segments the
/// rotation started: each reopens to every sample acked, those appended
/// after the checkpoint included, and the next checkpoint removes the
/// stray `.tmp`.
#[test]
fn a_crash_before_the_rename_or_the_collection_loses_no_acked_sample() {
    let ops = op_trace();
    // After the trace's first checkpoint, so there is an older one.
    let first = ops.iter().position(|op| matches!(op, Op::Checkpoint)).unwrap();
    let (head, tail) = ops.split_at(first + 3);
    let dir = temp_dir("cut");
    let before = temp_dir("cut-before");
    let reference = Tsdb::new(test_config());
    let covers = {
        let durable = Tsdb::open(&dir, tiny_segments(), test_config()).unwrap();
        for op in head {
            apply(&durable, op);
            apply(&reference, op);
        }
        // What the directory holds when the checkpoint starts.
        copy_dir(&dir, &before);
        let covers = durable.checkpoint().unwrap();
        for op in tail.iter().filter(|op| !matches!(op, Op::Checkpoint)) {
            apply(&durable, op);
            apply(&reference, op);
        }
        covers
    };
    let name = wal::checkpoint_file_name(covers);
    for renamed in [false, true] {
        let crashed = temp_dir("cut-crashed");
        copy_dir(&before, &crashed);
        // The new checkpoint, and the segments from the rotation on.
        copy_dir(&dir, &crashed);
        if !renamed {
            fs::rename(crashed.join(&name), crashed.join(format!("{name}.tmp"))).unwrap();
        }
        let segments = wal::list_segments(&crashed).unwrap();
        assert!(segments[0].0 < covers, "the covered segments are still there");
        let recovered = Tsdb::open(&crashed, tiny_segments(), test_config()).unwrap();
        let context = if renamed { "crash before the collection" } else { "crash before the rename" };
        assert_identical(&recovered, &reference, context);
        recovered.checkpoint().unwrap();
        let left: Vec<String> = fs::read_dir(&crashed)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(left.is_empty(), "{context}: {left:?} left");
        drop(recovered);
        let again = Tsdb::open(&crashed, tiny_segments(), test_config()).unwrap();
        assert_identical(&again, &reference, &format!("{context}, checkpointed again"));
        let _ = fs::remove_dir_all(&crashed);
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&before);
}

// ---------------------------------------------------------------------------
// Property tests: codec roundtrip + torn-tail truncation
// ---------------------------------------------------------------------------

mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_labels() -> impl Strategy<Value = LabelSet> {
        proptest::collection::vec(("[a-z_]{1,8}", "[a-zA-Z0-9_:.-]{0,12}"), 1..5)
            .prop_map(LabelSet::from_pairs)
    }

    fn arb_record() -> impl Strategy<Value = WalRecord> {
        prop_oneof![
            (0u64..10_000, arb_labels())
                .prop_map(|(id, labels)| WalRecord::SeriesCreate { id, labels }),
            proptest::collection::vec(
                (
                    0u64..10_000,
                    -1_000_000_000i64..1_000_000_000,
                    // All bit patterns, including NaN payloads and infinities:
                    // the codec must preserve value bits exactly.
                    any::<u64>().prop_map(f64::from_bits),
                ),
                0..20
            )
            .prop_map(WalRecord::Samples),
            proptest::collection::vec(0u64..10_000, 0..20).prop_map(WalRecord::Tombstone),
            (any::<i64>()).prop_map(|cutoff_ms| WalRecord::Retention { cutoff_ms }),
        ]
    }

    fn records_eq(a: &WalRecord, b: &WalRecord) -> bool {
        // NaN-tolerant equality: the codec must preserve value bits.
        match (a, b) {
            (WalRecord::Samples(x), WalRecord::Samples(y)) => {
                x.len() == y.len()
                    && x.iter().zip(y).all(|((i1, t1, v1), (i2, t2, v2))| {
                        i1 == i2 && t1 == t2 && v1.to_bits() == v2.to_bits()
                    })
            }
            _ => a == b,
        }
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(recs in proptest::collection::vec(arb_record(), 0..20)) {
            let mut buf = Vec::new();
            for r in &recs {
                encode_record(&mut buf, r);
            }
            let (got, consumed) = decode_frames(&buf);
            prop_assert_eq!(consumed, buf.len());
            prop_assert_eq!(got.len(), recs.len());
            for (a, b) in got.iter().zip(&recs) {
                prop_assert!(records_eq(a, b), "mismatch: {:?} vs {:?}", a, b);
            }
        }

        #[test]
        fn truncation_yields_clean_prefix(
            recs in proptest::collection::vec(arb_record(), 1..12),
            cut_frac in 0.0f64..1.0,
        ) {
            let mut buf = Vec::new();
            let mut boundaries = Vec::new();
            for r in &recs {
                encode_record(&mut buf, r);
                boundaries.push(buf.len());
            }
            let cut = (buf.len() as f64 * cut_frac) as usize;
            let (got, consumed) = decode_frames(&buf[..cut]);
            // Consumed is a frame boundary <= the cut, and the decoded
            // records are exactly the full frames before it.
            prop_assert!(consumed <= cut);
            let whole = boundaries.iter().take_while(|&&b| b <= cut).count();
            prop_assert_eq!(got.len(), whole);
            prop_assert_eq!(consumed, if whole == 0 { 0 } else { boundaries[whole - 1] });
            for (a, b) in got.iter().zip(&recs) {
                prop_assert!(records_eq(a, b), "prefix mismatch");
            }
        }

        #[test]
        fn corruption_never_panics(
            recs in proptest::collection::vec(arb_record(), 1..8),
            flip in any::<u16>(),
        ) {
            let mut buf = Vec::new();
            for r in &recs {
                encode_record(&mut buf, r);
            }
            let idx = flip as usize % buf.len();
            buf[idx] ^= 0x5A;
            // Must stop cleanly at or before the corrupted frame.
            let (got, consumed) = decode_frames(&buf);
            prop_assert!(consumed <= buf.len());
            prop_assert!(got.len() <= recs.len());
        }
    }
}
