//! The relational store's log payloads: a commit's records as JSON.
//!
//! A commit is one frame of the shared segmented log ([`crate::log`]), so
//! it replays all or nothing. Its payload is the JSON array of its
//! [`WalRecord`]s, byte for byte what `serde_json` prints, written directly
//! without building a JSON tree ([`Commit`], and [`Snapshot`] for a whole
//! database) and read back with `serde_json` ([`replay`]).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::log::{self, LogEnd, WalPosition};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::{non_finite_text, Row, Value};

/// One logical WAL record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// Insert-or-replace a row in a table.
    Upsert {
        /// Table name.
        table: String,
        /// Full row.
        row: Row,
    },
    /// Delete by primary key.
    Delete {
        /// Table name.
        table: String,
        /// Primary key value.
        pk: Value,
    },
    /// Create a table, empty, in place of any of that name.
    Create {
        /// Table name.
        table: String,
        /// Its schema.
        schema: Schema,
    },
}

// ---------------------------------------------------------------------------
// Commits
// ---------------------------------------------------------------------------

/// A commit's records, framed as one payload: `[<json>,<json>,..]`, what
/// `serde_json::to_string` returns for the slice.
pub struct Commit<'a>(pub &'a [WalRecord]);

impl log::Record for Commit<'_> {
    fn put_payload(&self, out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, record) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            match record {
                WalRecord::Upsert { table, row } => write_upsert(out, table, row),
                WalRecord::Delete { table, pk } => write_delete(out, table, pk),
                WalRecord::Create { table, schema } => write_create(out, table, schema),
            }
        }
        out.push(b']');
    }
}

/// Every table of a database as one commit: each table's `Create`, then an
/// `Upsert` of each of its rows. Replayed after any part of the log that
/// came before it, it leaves the tables as they were when it was written.
pub struct Snapshot<'a>(pub &'a BTreeMap<String, Table>);

impl log::Record for Snapshot<'_> {
    fn put_payload(&self, out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, (name, table)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write_create(out, name, table.schema());
            for row in table.scan() {
                out.push(b',');
                write_upsert(out, name, row);
            }
        }
        out.push(b']');
    }
}

/// A record as `serde_json` prints it: a struct variant as `{"Name":{..}}`
/// with the fields' keys sorted.
fn write_upsert(out: &mut Vec<u8>, table: &str, row: &[Value]) {
    out.extend_from_slice(b"{\"Upsert\":{\"row\":[");
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_value(out, v);
    }
    out.extend_from_slice(b"],\"table\":");
    write_str(out, table);
    out.extend_from_slice(b"}}");
}

fn write_delete(out: &mut Vec<u8>, table: &str, pk: &Value) {
    out.extend_from_slice(b"{\"Delete\":{\"pk\":");
    write_value(out, pk);
    out.extend_from_slice(b",\"table\":");
    write_str(out, table);
    out.extend_from_slice(b"}}");
}

/// A table's creation is rare, so its schema goes through `serde_json`.
fn write_create(out: &mut Vec<u8>, table: &str, schema: &Schema) {
    out.extend_from_slice(b"{\"Create\":{\"schema\":");
    out.extend_from_slice(&serde_json::to_vec(schema).expect("a schema prints as JSON"));
    out.extend_from_slice(b",\"table\":");
    write_str(out, table);
    out.extend_from_slice(b"}}");
}

/// A value as `serde_json` prints it: a finite real in Rust's shortest
/// round-trip form, any other as its string ([`non_finite_text`]).
fn write_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.extend_from_slice(b"\"Null\""),
        Value::Int(i) => {
            out.extend_from_slice(b"{\"Int\":");
            write!(out, "{i}").expect("writing to a Vec cannot fail");
            out.push(b'}');
        }
        Value::Real(x) => {
            out.extend_from_slice(b"{\"Real\":");
            match non_finite_text(*x) {
                Some(text) => write_str(out, &text),
                None => write!(out, "{x:?}").expect("writing to a Vec cannot fail"),
            }
            out.push(b'}');
        }
        Value::Text(s) => {
            out.extend_from_slice(b"{\"Text\":");
            write_str(out, s);
            out.push(b'}');
        }
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// A JSON string as `serde_json` prints it: quote, backslash and control
/// characters escaped, everything else (non-ASCII included) as it is.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut from = 0;
    let mut code = *b"\\u00..";
    for (i, &b) in bytes.iter().enumerate() {
        let escaped: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0..=0x1f => {
                code[4] = HEX[usize::from(b >> 4)];
                code[5] = HEX[usize::from(b & 0xf)];
                &code
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[from..i]);
        out.extend_from_slice(escaped);
        from = i + 1;
    }
    out.extend_from_slice(&bytes[from..]);
    out.push(b'"');
}

/// Replays the commits of the log in `dir` up to its first bad frame (a
/// torn write), which ends the log: `visit` sees each commit's records and
/// the length of its frame, and returns whether to go on. Returns where the
/// replay ended.
pub fn replay(
    dir: &Path,
    mut visit: impl FnMut(Vec<WalRecord>, u64) -> bool,
) -> io::Result<LogEnd> {
    log::walk(dir, WalPosition::default(), |_, payload| {
        serde_json::from_slice::<Vec<WalRecord>>(payload)
            .is_ok_and(|commit| visit(commit, log::frame_len(payload)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{
        crc32, list_segments, next_frame, put_frame, segment_file_name, FsyncMode, Log, Record,
        WalOptions,
    };
    use crate::schema::{Column, ColumnType};
    use std::fs::{self, OpenOptions};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ceems-wal-{}-{}-{}",
            name,
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rec(i: i64) -> WalRecord {
        WalRecord::Upsert {
            table: "jobs".into(),
            row: vec![Value::Int(i), Value::Text(format!("job-{i}"))],
        }
    }

    fn schema() -> Schema {
        let columns = vec![
            Column::required("id", ColumnType::Int),
            Column::nullable("name", ColumnType::Text),
        ];
        Schema::new(columns, "id", &["name"]).unwrap()
    }

    fn create(table: &str) -> WalRecord {
        WalRecord::Create {
            table: table.into(),
            schema: schema(),
        }
    }

    fn open(dir: &Path, segment_bytes: u64) -> Log {
        let opts = WalOptions {
            segment_bytes,
            fsync: FsyncMode::Never,
        };
        let end = replay(dir, |_, _| true).unwrap();
        Log::open_at(dir, opts, end.at).unwrap()
    }

    /// Logs `records` as one commit.
    fn append(log: &mut Log, records: &[WalRecord]) {
        log.log(&[Commit(records)]).unwrap();
    }

    /// The records the log in `dir` replays, and whether a bad frame ended it.
    fn records(dir: &Path) -> (Vec<WalRecord>, bool) {
        let mut records = Vec::new();
        let end = replay(dir, |commit, _| {
            records.extend(commit);
            true
        })
        .unwrap();
        (records, end.torn)
    }

    fn frames_in(path: &Path) -> usize {
        let data = fs::read(path).unwrap();
        let (mut at, mut n) = (0, 0);
        while let Some((_, len)) = next_frame(&data[at..]) {
            at += len;
            n += 1;
        }
        n
    }

    #[test]
    fn crc32_vector() {
        // Standard test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_replay() {
        let dir = tmpdir("roundtrip");
        let mut wal = open(&dir, 1 << 20);
        for i in 0..10 {
            append(&mut wal, &[rec(i)]);
        }
        append(&mut wal, &[create("jobs")]);
        drop(wal);

        let (records, torn) = records(&dir);
        assert!(!torn);
        assert_eq!(records.len(), 11);
        assert_eq!(records[3], rec(3));
        assert_eq!(records[10], create("jobs"));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rotation_produces_multiple_segments() {
        let dir = tmpdir("rotate");
        let mut wal = open(&dir, 256);
        for i in 0..50 {
            append(&mut wal, &[rec(i)]);
        }
        let segs = list_segments(&dir).unwrap();
        assert!(
            segs.len() > 1,
            "expected rotation, got {} segments",
            segs.len()
        );
        assert_eq!(records(&dir).0.len(), 50);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn reopen_appends_to_latest_segment() {
        let dir = tmpdir("reopen");
        append(&mut open(&dir, 1 << 20), &[rec(1)]);
        append(&mut open(&dir, 1 << 20), &[rec(2)]);
        assert_eq!(records(&dir).0, [rec(1), rec(2)]);
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_tail_detected() {
        let dir = tmpdir("torn");
        let mut wal = open(&dir, 1 << 20);
        append(&mut wal, &[rec(1)]);
        append(&mut wal, &[rec(2)]);
        drop(wal);
        // Tear the last frame.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let content = fs::read(&path).unwrap();
        fs::write(&path, &content[..content.len() - 5]).unwrap();

        let (records, torn) = records(&dir);
        assert_eq!(records, [rec(1)]);
        assert!(torn);
        fs::remove_dir_all(dir).unwrap();
    }

    /// A crash tore the third commit; the commits written after the reopen
    /// follow the last good frame and replay with the first two.
    #[test]
    fn writes_after_a_torn_tail_survive_the_next_reopen() {
        let dir = tmpdir("torn-reopen");
        let mut wal = open(&dir, 1 << 20);
        append(&mut wal, &[rec(1), rec(2)]);
        drop(wal);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut frame = Vec::new();
        put_frame(&mut frame, &Commit(&[rec(3)]));
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(file);

        let mut wal = open(&dir, 1 << 20);
        append(&mut wal, &[rec(4)]);
        append(&mut wal, &[rec(5)]);
        drop(wal);
        assert_eq!(records(&dir), (vec![rec(1), rec(2), rec(4), rec(5)], false));
        fs::remove_dir_all(dir).unwrap();
    }

    /// A bad frame in one segment ends the log: the segments after it are
    /// neither replayed nor kept, so no later write lands behind a hole.
    #[test]
    fn a_bad_line_ends_the_log_later_segments_included() {
        let dir = tmpdir("torn-segments");
        let mut wal = open(&dir, 256);
        for i in 0..20 {
            append(&mut wal, &[rec(i)]);
        }
        drop(wal);
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3, "{segments:?}");
        // Flip a payload byte of the first frame of the second segment.
        let (_, second) = &segments[1];
        let mut bytes = fs::read(second).unwrap();
        let kept = frames_in(&segments[0].1);
        bytes[12] ^= 0x20;
        fs::write(second, bytes).unwrap();

        let (replayed, torn) = records(&dir);
        assert_eq!((replayed.len(), torn), (kept, true));
        let mut wal = open(&dir, 256);
        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        append(&mut wal, &[rec(99)]);
        drop(wal);
        let (replayed, torn) = records(&dir);
        assert!(!torn);
        assert_eq!(replayed.last(), Some(&rec(99)));
        assert_eq!(replayed.len(), kept + 1);
        fs::remove_dir_all(dir).unwrap();
    }

    /// A commit is one frame, written whole into one segment: the log
    /// rotates before a frame that would overflow the segment, never inside
    /// it. Commits of many records replay the records one commit per
    /// record does, and each segment holds exactly its commits' frames.
    #[test]
    fn a_batch_leaves_the_bytes_of_one_append_per_record() {
        let (one, batch) = (tmpdir("one-by-one"), tmpdir("batch"));
        let records_: Vec<WalRecord> = (0..40).map(rec).collect();
        let mut wal = open(&one, 300);
        for r in &records_ {
            append(&mut wal, std::slice::from_ref(r));
        }
        let mut batched = open(&batch, 300);
        append(&mut batched, &records_[..3]);
        append(&mut batched, &records_[3..]);
        assert!(list_segments(&one).unwrap().len() > 3);
        assert_eq!(records(&one), records(&batch));

        let mut first = Vec::new();
        put_frame(&mut first, &Commit(&records_[..3]));
        let mut second = Vec::new();
        put_frame(&mut second, &Commit(&records_[3..]));
        assert!(
            second.len() > 300,
            "the second commit overflows a segment by itself"
        );
        assert_eq!(batched.position().seq, 1);
        assert_eq!(fs::read(batch.join(segment_file_name(0))).unwrap(), first);
        assert_eq!(fs::read(batch.join(segment_file_name(1))).unwrap(), second);
        fs::remove_dir_all(one).unwrap();
        fs::remove_dir_all(batch).unwrap();
    }

    mod lines {
        use super::*;
        use proptest::prelude::*;

        fn text() -> impl Strategy<Value = String> {
            let c = prop_oneof![
                Just('"'),
                Just('\\'),
                (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
                Just('\u{7f}'),
                Just('é'),
                Just('€'),
                Just('\u{1F600}'),
                any::<char>(),
                "[a-z]".prop_map(|s| s.chars().next().unwrap()),
            ];
            proptest::collection::vec(c, 0..12).prop_map(|cs| cs.into_iter().collect())
        }

        fn real() -> impl Strategy<Value = f64> {
            prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(f64::MIN_POSITIVE / 2.0),
                Just(-f64::from_bits(1)),
                Just(f64::MAX),
                Just(1e16),
                Just(1e-7),
                proptest::num::f64::ANY,
                proptest::num::f64::NORMAL,
                -1e6..1e6f64,
            ]
        }

        fn value() -> impl Strategy<Value = Value> {
            let int = prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(0), any::<i64>()];
            prop_oneof![
                Just(Value::Null),
                int.prop_map(Value::Int),
                real().prop_map(Value::Real),
                text().prop_map(Value::Text),
            ]
        }

        fn record() -> impl Strategy<Value = WalRecord> {
            prop_oneof![
                (text(), proptest::collection::vec(value(), 0..6))
                    .prop_map(|(table, row)| WalRecord::Upsert { table, row }),
                (text(), value()).prop_map(|(table, pk)| WalRecord::Delete { table, pk }),
                text().prop_map(|table| WalRecord::Create {
                    table,
                    schema: schema()
                }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            /// The direct writer prints what `serde_json` prints for the
            /// commit's records, framed as `len | crc32 | json`.
            #[test]
            fn a_line_is_the_serde_json_text_behind_its_crc(
                records in proptest::collection::vec(record(), 0..4),
            ) {
                let json = serde_json::to_string(&records).unwrap();
                let mut frame = b"prefix".to_vec();
                put_frame(&mut frame, &Commit(&records));
                let mut want = (json.len() as u32).to_le_bytes().to_vec();
                want.extend_from_slice(&crc32(json.as_bytes()).to_le_bytes());
                want.extend_from_slice(json.as_bytes());
                prop_assert_eq!(&frame[6..], &want[..]);
            }
        }
    }

    /// A snapshot's payload is the commit of each table's `Create` and an
    /// `Upsert` of each of its rows, in name and key order.
    #[test]
    fn a_snapshot_is_the_commit_of_its_tables() {
        let mut tables = BTreeMap::new();
        let mut want = Vec::new();
        for (name, rows) in [("b", 3), ("a", 0), ("c", 2)] {
            let mut table = Table::new(schema());
            for i in (0..rows).rev() {
                table
                    .upsert(vec![Value::Int(i), format!("\"{i}\\").into()])
                    .unwrap();
            }
            tables.insert(name.to_string(), table);
        }
        for (name, table) in &tables {
            want.push(create(name));
            want.extend(table.scan().map(|row| WalRecord::Upsert {
                table: name.clone(),
                row: row.clone(),
            }));
        }
        for tables in [tables, BTreeMap::new()] {
            let mut payload = b"prefix".to_vec();
            Snapshot(&tables).put_payload(&mut payload);
            payload.drain(..6);
            let want = if tables.is_empty() {
                &[][..]
            } else {
                &want[..]
            };
            assert_eq!(payload, serde_json::to_vec(want).unwrap());
        }
    }

    #[test]
    fn truncate_before_removes_old_segments() {
        let dir = tmpdir("trunc");
        let mut wal = open(&dir, 128);
        for i in 0..40 {
            append(&mut wal, &[rec(i)]);
        }
        let latest = wal.position().seq;
        assert!(latest >= 2);
        let removed = log::truncate_before(&dir, latest).unwrap();
        assert!(removed >= 1);
        let segs = list_segments(&dir).unwrap();
        assert!(segs.iter().all(|(s, _)| *s >= latest));
        fs::remove_dir_all(dir).unwrap();
    }
}
