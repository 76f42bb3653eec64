//! The relational store's log payloads: a commit's records as JSON.
//!
//! A commit is one frame of the shared segmented log ([`crate::log`]), so
//! it replays all or nothing. Its payload is the JSON array of its
//! [`WalRecord`]s, byte for byte what `serde_json` prints, written directly
//! without building a JSON tree ([`Commit`]) and read back with
//! `serde_json` ([`replay`]).
//!
//! Directories an older build wrote hold `wal-<seq>.log` files instead, a
//! record a line: `<crc32-hex> <json>\n`. [`read_lines`] reads them up to
//! the first bad line so [`crate::Db::open`] can fold them into a snapshot.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::log::{self, crc32, Log, LogEnd, WalOptions, WalPosition};
use crate::value::{Row, Value};

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
    /// Marked a snapshot in the line-format log; read there, no longer
    /// written.
    Checkpoint,
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
            write_record(out, record);
        }
        out.push(b']');
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// A record as `serde_json` prints it: a unit variant as its name, a struct
/// variant as `{"Name":{..}}` with the fields' keys sorted.
fn write_record(out: &mut Vec<u8>, record: &WalRecord) {
    match record {
        WalRecord::Upsert { table, row } => {
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
        WalRecord::Delete { table, pk } => {
            out.extend_from_slice(b"{\"Delete\":{\"pk\":");
            write_value(out, pk);
            out.extend_from_slice(b",\"table\":");
            write_str(out, table);
            out.extend_from_slice(b"}}");
        }
        WalRecord::Checkpoint => out.extend_from_slice(b"\"Checkpoint\""),
    }
}

/// A value as `serde_json` prints it: a finite real in Rust's shortest
/// round-trip form, a NaN or an infinity as `null`.
fn write_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.extend_from_slice(b"\"Null\""),
        Value::Int(i) => {
            out.extend_from_slice(b"{\"Int\":");
            write!(out, "{i}").expect("writing to a Vec cannot fail");
            out.push(b'}');
        }
        Value::Real(x) if x.is_finite() => {
            out.extend_from_slice(b"{\"Real\":");
            write!(out, "{x:?}").expect("writing to a Vec cannot fail");
            out.push(b'}');
        }
        Value::Real(_) => out.extend_from_slice(b"{\"Real\":null}"),
        Value::Text(s) => {
            out.extend_from_slice(b"{\"Text\":");
            write_str(out, s);
            out.push(b'}');
        }
    }
}

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
/// torn write), which ends the log. Returns their records in order and
/// where the log ended.
pub fn replay(dir: &Path) -> io::Result<(Vec<WalRecord>, LogEnd)> {
    let mut records = Vec::new();
    let end = log::walk(dir, WalPosition::default(), |_, payload| {
        serde_json::from_slice::<Vec<WalRecord>>(payload)
            .map(|commit| records.extend(commit))
            .is_ok()
    })?;
    Ok((records, end))
}

/// Replays the log in `dir` and opens it for appending after the last
/// good frame ([`Log::open_at`] cuts what follows it).
pub fn recover(dir: &Path, opts: WalOptions) -> io::Result<(Log, Vec<WalRecord>)> {
    let (records, end) = replay(dir)?;
    Ok((Log::open_at(dir, opts, end.at)?, records))
}

// ---------------------------------------------------------------------------
// The line-format log
// ---------------------------------------------------------------------------

/// The records of the line-format log in `dir` up to its first bad line
/// (one that fails its CRC, does not parse or lacks its newline), and the
/// `wal-<seq>.log` files they came from.
pub fn read_lines(dir: &Path) -> io::Result<(Vec<WalRecord>, Vec<PathBuf>)> {
    let files: Vec<PathBuf> = log::numbered(dir, "wal-", ".log")?
        .into_iter()
        .map(|(_, path)| path)
        .collect();
    let mut records = Vec::new();
    'files: for path in &files {
        for line in fs::read(path)?.split_inclusive(|&b| b == b'\n') {
            let Some(record) = parse_line(line) else {
                break 'files;
            };
            records.push(record);
        }
    }
    Ok((records, files))
}

/// The record on one line, newline included; `None` for a bad line.
fn parse_line(line: &[u8]) -> Option<WalRecord> {
    let line = std::str::from_utf8(line.strip_suffix(b"\n")?).ok()?;
    let (crc_hex, json) = line.split_once(' ')?;
    let expect = u32::from_str_radix(crc_hex, 16).ok()?;
    if crc32(json.as_bytes()) != expect {
        return None;
    }
    serde_json::from_str(json).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{list_segments, next_frame, put_frame, segment_file_name, FsyncMode};
    use std::fs::OpenOptions;

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

    fn open(dir: &Path, segment_bytes: u64) -> Log {
        let opts = WalOptions {
            segment_bytes,
            fsync: FsyncMode::Never,
        };
        recover(dir, opts).unwrap().0
    }

    /// Logs `records` as one commit.
    fn append(log: &mut Log, records: &[WalRecord]) {
        log.log(&[Commit(records)]).unwrap();
    }

    /// The records the log in `dir` replays, and whether a bad frame ended it.
    fn records(dir: &Path) -> (Vec<WalRecord>, bool) {
        let (records, end) = replay(dir).unwrap();
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
        append(&mut wal, &[WalRecord::Checkpoint]);
        drop(wal);

        let (records, torn) = records(&dir);
        assert!(!torn);
        assert_eq!(records.len(), 11);
        assert_eq!(records[3], rec(3));
        assert_eq!(records[10], WalRecord::Checkpoint);
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
        let (mut wal, recovered) = recover(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered, replayed);
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
                Just(WalRecord::Checkpoint),
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
