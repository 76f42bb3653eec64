//! Write-ahead log: JSON-lines records with CRC32 protection and segment
//! rotation.
//!
//! Segment files are named `wal-<seq>.log`. Each line is
//! `<crc32-hex> <json-record>\n`, the JSON byte for byte what `serde_json`
//! prints for the [`WalRecord`]; the lines are written directly, without
//! building a JSON tree. [`Wal::append_all`] logs a batch of records with
//! one `write`.
//!
//! A crash mid-write leaves a torn tail: a line that fails its CRC or lacks
//! its newline. The first bad line ends the log — replay stops there, later
//! segments included, like SQLite's WAL recovery that Litestream piggybacks
//! on — and [`Wal::recover`] cuts the log there before appending, so what
//! is written after a crash follows the last good line.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

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
    /// Marks that a snapshot covering everything before it exists.
    Checkpoint,
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE), slice-by-8
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the byte-at-a-time table; `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which lets eight input bytes
/// be folded in by eight independent lookups.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC32 (IEEE 802.3) of a byte slice, eight bytes at a step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Lines
// ---------------------------------------------------------------------------

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends `record`'s line to `out`: `<crc32-hex> <json>\n`, where the JSON
/// is what `serde_json::to_string(record)` returns.
fn encode_line(out: &mut Vec<u8>, record: &WalRecord) {
    let start = out.len();
    out.extend_from_slice(b"00000000 ");
    write_record(out, record);
    let crc = crc32(&out[start + 9..]);
    for (i, digit) in out[start..start + 8].iter_mut().enumerate() {
        *digit = HEX[(crc >> (28 - 4 * i)) as usize & 0xf];
    }
    out.push(b'\n');
}

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
fn write_str(out: &mut Vec<u8>, s: &str) {
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

/// The record on one line as [`encode_line`] wrote it, newline included;
/// `None` for a bad line.
fn parse_line(line: &[u8]) -> Option<WalRecord> {
    let line = std::str::from_utf8(line.strip_suffix(b"\n")?).ok()?;
    let (crc_hex, json) = line.split_once(' ')?;
    let expect = u32::from_str_radix(crc_hex, 16).ok()?;
    if crc32(json.as_bytes()) != expect {
        return None;
    }
    serde_json::from_str(json).ok()
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// An append-only WAL with size-based segment rotation.
pub struct Wal {
    dir: PathBuf,
    current_seq: u64,
    current_file: File,
    current_bytes: u64,
    max_segment_bytes: u64,
    /// The lines of the batch being appended, kept for its capacity.
    buf: Vec<u8>,
}

/// WAL error.
#[derive(Debug)]
pub struct WalError(pub String);

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wal error: {}", self.0)
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError(e.to_string())
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:012}.log"))
}

/// Lists `(seq, path)` of WAL segments in a directory, sorted by seq.
pub fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Where a walk of the log stopped: after the last good line, at byte
/// `offset` of segment `seq`.
struct LogEnd {
    seq: u64,
    offset: u64,
    /// A bad line follows (and ends the log).
    torn: bool,
}

/// Hands the records of the log in `dir` to `visit` in order, up to the
/// first bad line: one that fails its CRC, does not parse or lacks its
/// newline. A bad line ends the log; later segments are not read.
fn walk(dir: &Path, mut visit: impl FnMut(WalRecord)) -> Result<LogEnd, WalError> {
    let mut end = LogEnd {
        seq: 0,
        offset: 0,
        torn: false,
    };
    for (seq, path) in list_segments(dir)? {
        let data = fs::read(&path)?;
        end.seq = seq;
        end.offset = 0;
        for line in data.split_inclusive(|&b| b == b'\n') {
            let Some(record) = parse_line(line) else {
                end.torn = true;
                return Ok(end);
            };
            visit(record);
            end.offset += line.len() as u64;
        }
    }
    Ok(end)
}

impl Wal {
    /// Opens (or creates) the WAL in `dir` for appending after its last
    /// good line ([`Wal::recover`] without the records).
    pub fn open(dir: &Path, max_segment_bytes: u64) -> Result<Wal, WalError> {
        Ok(Wal::recover(dir, max_segment_bytes)?.0)
    }

    /// Replays the WAL in `dir` (creating it if needed) and opens it for
    /// appending: a bad line and everything after it, later segments
    /// included, are cut first, so the next record follows the last good
    /// one. Returns the log and its records.
    pub fn recover(dir: &Path, max_segment_bytes: u64) -> Result<(Wal, Vec<WalRecord>), WalError> {
        fs::create_dir_all(dir)?;
        let mut records = Vec::new();
        let end = walk(dir, |record| records.push(record))?;
        if end.torn {
            for (seq, path) in list_segments(dir)? {
                if seq > end.seq {
                    fs::remove_file(path)?;
                } else if seq == end.seq {
                    OpenOptions::new()
                        .write(true)
                        .open(&path)?
                        .set_len(end.offset)?;
                }
            }
        }
        let current_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(dir, end.seq))?;
        let wal = Wal {
            dir: dir.to_path_buf(),
            current_seq: end.seq,
            current_bytes: current_file.metadata()?.len(),
            current_file,
            max_segment_bytes,
            buf: Vec::new(),
        };
        Ok((wal, records))
    }

    /// Appends one record ([`Wal::append_all`] of one).
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, WalError> {
        self.append_all(std::slice::from_ref(record))
    }

    /// Appends records in order, rotating segments when the current one is
    /// full, with one `write` per segment the batch lands in. The segments
    /// hold the bytes one [`Wal::append`] per record would have left.
    /// Returns the sequence number of the segment written to last.
    pub fn append_all(&mut self, records: &[WalRecord]) -> Result<u64, WalError> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        for record in records {
            let at = buf.len();
            encode_line(&mut buf, record);
            let held = self.current_bytes + at as u64;
            if held > 0 && held + (buf.len() - at) as u64 > self.max_segment_bytes {
                self.write(&buf[..at])?;
                self.rotate()?;
                buf.drain(..at);
            }
        }
        self.write(&buf)?;
        self.buf = buf;
        Ok(self.current_seq)
    }

    /// Writes whole lines to the current segment. A failed write is cut
    /// back off, so no later line follows a torn one.
    fn write(&mut self, lines: &[u8]) -> Result<(), WalError> {
        if lines.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.current_file.write_all(lines) {
            let _ = self.current_file.set_len(self.current_bytes);
            return Err(e.into());
        }
        self.current_bytes += lines.len() as u64;
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), WalError> {
        self.current_seq += 1;
        let path = segment_path(&self.dir, self.current_seq);
        self.current_file = OpenOptions::new().create(true).append(true).open(path)?;
        self.current_bytes = 0;
        Ok(())
    }

    /// Current segment sequence number.
    pub fn current_seq(&self) -> u64 {
        self.current_seq
    }

    /// Removes all segments strictly older than `keep_from` (used after a
    /// checkpointing snapshot).
    pub fn truncate_before(&mut self, keep_from: u64) -> Result<usize, WalError> {
        let mut removed = 0;
        for (seq, path) in list_segments(&self.dir)? {
            if seq < keep_from {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// Replays the records of the WAL in `dir` up to its first bad line (a
/// torn write), which ends the log. Returns the records and how many bad
/// lines ended it (0 or 1).
pub fn replay(dir: &Path) -> Result<(Vec<WalRecord>, usize), WalError> {
    let mut records = Vec::new();
    let end = walk(dir, |record| records.push(record))?;
    Ok((records, usize::from(end.torn)))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn crc32_vector() {
        // Standard test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_replay() {
        let dir = tmpdir("roundtrip");
        let mut wal = Wal::open(&dir, 1 << 20).unwrap();
        for i in 0..10 {
            wal.append(&rec(i)).unwrap();
        }
        wal.append(&WalRecord::Checkpoint).unwrap();
        drop(wal);

        let (records, corrupt) = replay(&dir).unwrap();
        assert_eq!(corrupt, 0);
        assert_eq!(records.len(), 11);
        assert_eq!(records[3], rec(3));
        assert_eq!(records[10], WalRecord::Checkpoint);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rotation_produces_multiple_segments() {
        let dir = tmpdir("rotate");
        let mut wal = Wal::open(&dir, 256).unwrap();
        for i in 0..50 {
            wal.append(&rec(i)).unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() > 1, "expected rotation, got {} segments", segs.len());
        let (records, _) = replay(&dir).unwrap();
        assert_eq!(records.len(), 50);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn reopen_appends_to_latest_segment() {
        let dir = tmpdir("reopen");
        {
            let mut wal = Wal::open(&dir, 1 << 20).unwrap();
            wal.append(&rec(1)).unwrap();
        }
        {
            let mut wal = Wal::open(&dir, 1 << 20).unwrap();
            wal.append(&rec(2)).unwrap();
        }
        let (records, _) = replay(&dir).unwrap();
        assert_eq!(records.len(), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_tail_detected() {
        let dir = tmpdir("torn");
        let mut wal = Wal::open(&dir, 1 << 20).unwrap();
        wal.append(&rec(1)).unwrap();
        wal.append(&rec(2)).unwrap();
        drop(wal);
        // Corrupt the last line.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let content = fs::read_to_string(&path).unwrap();
        let truncated = &content[..content.len() - 5];
        fs::write(&path, truncated).unwrap();

        let (records, corrupt) = replay(&dir).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(corrupt, 1);
        fs::remove_dir_all(dir).unwrap();
    }

    /// A crash tore the third line; the records written after the reopen
    /// follow the last good line and replay with the first two.
    #[test]
    fn writes_after_a_torn_tail_survive_the_next_reopen() {
        let dir = tmpdir("torn-reopen");
        let mut wal = Wal::open(&dir, 1 << 20).unwrap();
        wal.append_all(&[rec(1), rec(2)]).unwrap();
        drop(wal);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut line = Vec::new();
        encode_line(&mut line, &rec(3));
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&line[..line.len() / 2]).unwrap();
        drop(file);

        let mut wal = Wal::open(&dir, 1 << 20).unwrap();
        wal.append(&rec(4)).unwrap();
        wal.append(&rec(5)).unwrap();
        drop(wal);
        let (records, corrupt) = replay(&dir).unwrap();
        assert_eq!(records, [rec(1), rec(2), rec(4), rec(5)]);
        assert_eq!(corrupt, 0);
        fs::remove_dir_all(dir).unwrap();
    }

    /// A bad line in one segment ends the log: the segments after it are
    /// neither replayed nor kept, so no later write lands behind a hole.
    #[test]
    fn a_bad_line_ends_the_log_later_segments_included() {
        let dir = tmpdir("torn-segments");
        let mut wal = Wal::open(&dir, 256).unwrap();
        for i in 0..20 {
            wal.append(&rec(i)).unwrap();
        }
        drop(wal);
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3, "{segments:?}");
        // Flip a byte inside the first line of the second segment.
        let (_, second) = &segments[1];
        let mut bytes = fs::read(second).unwrap();
        let kept = lines_in(&segments[0].1);
        bytes[12] ^= 0x20;
        fs::write(second, bytes).unwrap();

        let (records, corrupt) = replay(&dir).unwrap();
        assert_eq!((records.len(), corrupt), (kept, 1));
        let (mut wal, recovered) = Wal::recover(&dir, 256).unwrap();
        assert_eq!(recovered, records);
        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        wal.append(&rec(99)).unwrap();
        drop(wal);
        let (records, corrupt) = replay(&dir).unwrap();
        assert_eq!(corrupt, 0);
        assert_eq!(records.last(), Some(&rec(99)));
        assert_eq!(records.len(), kept + 1);
        fs::remove_dir_all(dir).unwrap();
    }

    fn lines_in(path: &Path) -> usize {
        fs::read(path).unwrap().iter().filter(|&&b| b == b'\n').count()
    }

    /// A batch across rotations leaves the segments one append per record
    /// leaves.
    #[test]
    fn a_batch_leaves_the_bytes_of_one_append_per_record() {
        let (one, batch) = (tmpdir("one-by-one"), tmpdir("batch"));
        let records: Vec<WalRecord> = (0..40).map(rec).collect();
        let mut wal = Wal::open(&one, 300).unwrap();
        for r in &records {
            wal.append(r).unwrap();
        }
        let mut batched = Wal::open(&batch, 300).unwrap();
        batched.append_all(&records[..3]).unwrap();
        assert_eq!(
            batched.append_all(&records[3..]).unwrap(),
            wal.current_seq()
        );
        let read = |dir: &Path| -> Vec<(u64, Vec<u8>)> {
            let segments = list_segments(dir).unwrap();
            segments
                .into_iter()
                .map(|(seq, path)| (seq, fs::read(path).unwrap()))
                .collect()
        };
        assert!(read(&one).len() > 3);
        assert_eq!(read(&one), read(&batch));
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

            /// The direct writer prints what `serde_json` prints, framed as
            /// `<crc32-hex> <json>\n`.
            #[test]
            fn a_line_is_the_serde_json_text_behind_its_crc(record in record()) {
                let json = serde_json::to_string(&record).unwrap();
                let mut line = b"prefix".to_vec();
                encode_line(&mut line, &record);
                let want = format!("{:08x} {json}\n", crc32(json.as_bytes()));
                prop_assert_eq!(String::from_utf8(line[6..].to_vec()).unwrap(), want);
            }
        }
    }

    #[test]
    fn truncate_before_removes_old_segments() {
        let dir = tmpdir("trunc");
        let mut wal = Wal::open(&dir, 128).unwrap();
        for i in 0..40 {
            wal.append(&rec(i)).unwrap();
        }
        let latest = wal.current_seq();
        assert!(latest >= 2);
        let removed = wal.truncate_before(latest).unwrap();
        assert!(removed >= 1);
        let segs = list_segments(&dir).unwrap();
        assert!(segs.iter().all(|(s, _)| *s >= latest));
        fs::remove_dir_all(dir).unwrap();
    }
}
