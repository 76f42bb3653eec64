//! A database directory is input the process did not write itself — a
//! restored backup, a disk that flipped bits — so `Db::open` over whatever
//! log bytes it finds returns: it does not panic, and it requests no more
//! memory than a fixed multiple of those bytes. Both formats are covered:
//! frames in `.seg` segments and the older line format's `.log` files. Its
//! own test binary: the measuring allocator is process-wide (the tallies
//! are per thread, so the tests may run side by side).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ceems_relstore::log::{crc32, segment_file_name};
use ceems_relstore::{Column, ColumnType, Db, Schema, Value};
use proptest::prelude::*;

#[path = "../../tsdb/tests/common/measuring.rs"]
mod measuring;
use measuring::requested_by;

static DIRS: AtomicU64 = AtomicU64::new(0);

/// A database with an empty table `t`, its log replaced by `seg` (the
/// first segment) and, when not empty, `lines` (a line-format file).
fn dir_with(seg: &[u8], lines: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ceems-relfuzz-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    let schema = Schema::new(
        vec![
            Column::required("id", ColumnType::Int),
            Column::nullable("v", ColumnType::Real),
            Column::nullable("note", ColumnType::Text),
        ],
        "id",
        &["note"],
    )
    .unwrap();
    Db::open(&dir).unwrap().create_table("t", schema).unwrap();
    fs::write(dir.join("wal").join(segment_file_name(0)), seg).unwrap();
    if !lines.is_empty() {
        fs::write(dir.join("wal").join("wal-000000000000.log"), lines).unwrap();
    }
    dir
}

/// Opens the database over `seg` and `lines` and holds the open to its
/// memory bound; returns how many rows it came up with, if it opened.
fn open_within_bounds(seg: &[u8], lines: &[u8]) -> Option<usize> {
    let dir = dir_with(seg, lines);
    let input = seg.len() + lines.len();
    let (db, total, largest) = requested_by(|| Db::open(&dir));
    assert!(
        largest <= 64 * input + (16 << 10),
        "one request of {largest} bytes for {input} of input"
    );
    assert!(
        total <= 256 * input + (64 << 10),
        "{total} bytes requested for {input} of input"
    );
    let rows = db.ok().map(|db| db.table("t").unwrap().len());
    fs::remove_dir_all(&dir).unwrap();
    rows
}

fn check(dir: &Path) -> usize {
    Db::open(dir).unwrap().table("t").unwrap().len()
}

/// `payload` behind a length and its CRC.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// `json` as the line format wrote it.
fn line(json: &str) -> String {
    format!("{:08x} {json}\n", crc32(json.as_bytes()))
}

/// Pieces of the JSON both formats carry, to be put together at random.
fn json_piece() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("["),
        Just("]"),
        Just("{"),
        Just("}"),
        Just(","),
        Just(":"),
        Just("\"Upsert\""),
        Just("\"Delete\""),
        Just("\"Checkpoint\""),
        Just("\"row\""),
        Just("\"table\""),
        Just("\"pk\""),
        Just("\"t\""),
        Just("\"Null\""),
        Just("{\"Int\":7}"),
        Just("{\"Real\":0.5}"),
        Just("{\"Real\":null}"),
        Just("{\"Real\":\"+Inf\"}"),
        Just("{\"Real\":\"-Inf\"}"),
        Just("{\"Real\":\"NaN\"}"),
        Just("{\"Real\":\"NaN:fff8000000000000\"}"),
        Just("{\"Real\":\"NaN:7ff0\"}"),
        Just("\"NaN:\""),
        Just("{\"Text\":\"x\"}"),
        Just("{\"Upsert\":{\"row\":[{\"Int\":1},\"Null\",\"Null\"],\"table\":\"t\"}}"),
        Just("{\"Delete\":{\"pk\":{\"Int\":1},\"table\":\"t\"}}"),
        Just("1e999"),
        Just("-0"),
        Just("\"\\u00e9\""),
    ]
}

fn json() -> impl Strategy<Value = String> {
    proptest::collection::vec(json_piece(), 0..24).prop_map(|pieces| pieces.concat())
}

/// The reals [`real_segment`]'s rows hold, one after another.
const REALS: [f64; 4] = [0.5, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN];

/// The segment bytes of real commits: one upsert, then two, then three.
fn real_segment() -> Vec<u8> {
    let dir = dir_with(b"", b"");
    let mut db = Db::open(&dir).unwrap();
    for n in 1..=3i64 {
        let rows = (0..n).map(|i| {
            let real = REALS[(10 * n + i) as usize % REALS.len()];
            ("t", vec![Value::Int(10 * n + i), Value::Real(real), "x".into()])
        });
        db.commit(rows, []).unwrap();
    }
    drop(db);
    assert_eq!(check(&dir), 6);
    let bytes = fs::read(dir.join("wal").join(segment_file_name(0))).unwrap();
    fs::remove_dir_all(&dir).unwrap();
    bytes
}

#[test]
fn real_commits_open_within_the_bounds() {
    let seg = real_segment();
    assert_eq!(open_within_bounds(&seg, b""), Some(6));
    let lines: String = [
        r#"{"Upsert":{"row":[{"Int":1},{"Real":0.5},"Null"],"table":"t"}}"#,
        r#""Checkpoint""#,
        r#"{"Upsert":{"row":[{"Int":2},"Null",{"Text":"y"}],"table":"t"}}"#,
    ]
    .map(line)
    .concat();
    assert_eq!(open_within_bounds(b"", lines.as_bytes()), Some(2));
    assert_eq!(open_within_bounds(&seg, lines.as_bytes()), Some(8));
}

#[test]
fn reals_that_are_not_finite_reopen_bit_for_bit() {
    let dir = dir_with(&real_segment(), b"");
    let db = Db::open(&dir).unwrap();
    for row in db.query("t", &ceems_relstore::Query::all()).unwrap() {
        let key = row[0].as_int().unwrap();
        let want = REALS[key as usize % REALS.len()];
        assert_eq!(row[1].as_real().unwrap().to_bits(), want.to_bits(), "row {key}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_in_both_formats(
        seg in proptest::collection::vec(any::<u8>(), 0..512),
        lines in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        open_within_bounds(&seg, &lines);
    }

    /// Payloads and lines put together from JSON pieces get past the CRC,
    /// so the JSON reader and the replay behind it see them.
    #[test]
    fn json_pieces_behind_a_matching_crc(
        payloads in proptest::collection::vec(json(), 0..4),
        texts in proptest::collection::vec(json(), 0..4),
    ) {
        let seg: Vec<u8> = payloads.iter().flat_map(|p| frame(p.as_bytes())).collect();
        let lines: String = texts.iter().map(|t| line(t)).collect();
        open_within_bounds(&seg, lines.as_bytes());
    }

    /// Real commits with bytes overwritten: a damaged frame ends the log
    /// and the commits before it open whole.
    #[test]
    fn real_commits_with_bytes_overwritten(
        damage in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut seg = real_segment();
        for (at, byte) in damage {
            let at = at % seg.len();
            seg[at] = byte;
        }
        if let Some(rows) = open_within_bounds(&seg, b"") {
            prop_assert!([0, 1, 3, 6].contains(&rows), "{} rows", rows);
        }
    }
}
