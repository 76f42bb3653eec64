//! One segmented log under both stores (S6 and S16 in `DESIGN.md`).
//!
//! The TSDB's write-ahead log and the relational store's are the same
//! thing underneath, and this module is that thing:
//!
//! * **Frames** — `[payload len: u32 LE][crc32(payload): u32 LE][payload]`.
//!   A [`Record`] writes its own payload; [`put_frame`] puts the header
//!   around it, [`next_frame`] checks it.
//! * **Segments** — append-only `wal-<seq:012>.seg` files rotated by size.
//!   One [`Log::log`] call is one group commit: its frames go out with one
//!   `write` and at most one `fsync` (per [`FsyncMode`]). A commit whose
//!   write fails is cut back off. [`Log::commit`] is all or nothing: a
//!   failed fsync cuts it back off too, so the relational log never holds a
//!   commit its writer reported as failed.
//! * **Recovery** — [`walk`] hands out the frames up to the first that is
//!   incomplete, fails its CRC or is refused by the reader: that frame ends
//!   the log, later segments included, and [`cut`] drops it so the writer
//!   resumes on a frame boundary.
//! * **Durable files** — [`write_durable`]: temp file, fsync, rename,
//!   directory sync. A crash leaves the old file or the new one.
//! * **Disk faults** — [`DiskFaults`] hooks model short writes, `fsync`
//!   EIO and torn tails for the chaos and crash-point tests.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
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
    crc32_update(0, data)
}

/// The CRC32 of bytes whose CRC32 so far is `crc`, with `data` after them:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`, and `crc32_update(0, a)`
/// is `crc32(a)`. A writer that streams a file folds it in piece by piece.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
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
// Frames
// ---------------------------------------------------------------------------

/// Largest frame payload [`next_frame`] accepts; anything bigger is
/// treated as corruption (a real record is a few MB at most).
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Something a [`Log`] frames: it writes its own payload.
pub trait Record {
    /// Appends the payload to `out`.
    fn put_payload(&self, out: &mut Vec<u8>);
}

/// Bytes of a frame's header: the payload's length and CRC.
const HEADER: usize = 8;

/// Appends `rec` to `out` as one frame. The payload is written in place
/// and the header filled in after it.
pub fn put_frame(out: &mut Vec<u8>, rec: &(impl Record + ?Sized)) {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER]);
    rec.put_payload(out);
    let payload = &out[start + HEADER..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// The frame at the start of `buf`: its payload and its length, header
/// included. `None` when the frame is incomplete, longer than
/// [`MAX_FRAME_LEN`] or fails its CRC.
pub fn next_frame(buf: &[u8]) -> Option<(&[u8], usize)> {
    let len = u32::from_le_bytes(buf.get(..4)?.try_into().ok()?);
    let crc = u32::from_le_bytes(buf.get(4..HEADER)?.try_into().ok()?);
    if len > MAX_FRAME_LEN {
        return None;
    }
    let payload = buf.get(HEADER..HEADER + len as usize)?;
    (crc32(payload) == crc).then_some((payload, frame_len(payload) as usize))
}

/// Bytes of the frame around `payload`.
pub(crate) fn frame_len(payload: &[u8]) -> u64 {
    (HEADER + payload.len()) as u64
}

// ---------------------------------------------------------------------------
// Disk fault injection
// ---------------------------------------------------------------------------

/// Injectable disk faults behind the log's file operations, used by the
/// chaos and crash-point tests to model short writes, `fsync` EIO and torn
/// tails without touching a real flaky disk. The default implementation of
/// every hook is "no fault", and a [`Log`] without an injector pays one
/// `Option` check per group commit.
pub trait DiskFaults: Send + Sync {
    /// Called before a group-commit write of `len` bytes. Return `Some(n)`
    /// to write only the first `n` bytes and fail with `EIO`.
    fn before_write(&self, len: usize) -> Option<usize> {
        let _ = len;
        None
    }

    /// Return true to fail the next `fsync` with `EIO`.
    fn fail_fsync(&self) -> bool {
        false
    }

    /// After an injected short write: return true (the default) to repair
    /// the tail (truncate back to the last commit boundary, as the writer
    /// does on a real write error), or false to leave the torn bytes on
    /// disk so recovery has to truncate them.
    fn repair_after_short_write(&self) -> bool {
        true
    }
}

/// A scripted [`DiskFaults`] implementation: pop-from-front schedules of
/// short writes and fsync failures, deterministic by construction.
#[derive(Debug, Default)]
pub struct ScriptedDiskFaults {
    short_writes: parking_lot::Mutex<Vec<ScriptedShortWrite>>,
    fsync_failures: AtomicU64,
    leave_torn: AtomicBool,
}

/// One scheduled short write.
#[derive(Debug, Clone, Copy)]
pub struct ScriptedShortWrite {
    /// Group commits to let through before this fault fires.
    pub after_writes: u64,
    /// Fraction of the buffer to write before failing, in `[0, 1)`.
    pub keep_fraction: f64,
}

impl ScriptedDiskFaults {
    /// No faults scheduled; add some with the builder methods.
    pub fn new() -> ScriptedDiskFaults {
        ScriptedDiskFaults::default()
    }

    /// Schedules a short write after `after_writes` successful commits.
    pub fn with_short_write(self, after_writes: u64, keep_fraction: f64) -> ScriptedDiskFaults {
        self.short_writes.lock().push(ScriptedShortWrite {
            after_writes,
            keep_fraction: keep_fraction.clamp(0.0, 0.999),
        });
        self
    }

    /// Makes the next `n` fsyncs fail with `EIO`.
    pub fn with_fsync_failures(self, n: u64) -> ScriptedDiskFaults {
        self.fsync_failures.store(n, Ordering::Relaxed);
        self
    }

    /// Leaves torn bytes on disk after short writes (models a crash before
    /// the writer could repair the tail, or a repair that failed).
    pub fn leaving_torn_tails(self) -> ScriptedDiskFaults {
        self.leave_torn.store(true, Ordering::Relaxed);
        self
    }
}

impl DiskFaults for ScriptedDiskFaults {
    fn before_write(&self, len: usize) -> Option<usize> {
        let mut sw = self.short_writes.lock();
        if let Some(first) = sw.first_mut() {
            if first.after_writes == 0 {
                let keep = (len as f64 * first.keep_fraction) as usize;
                sw.remove(0);
                return Some(keep.min(len.saturating_sub(1)));
            }
            first.after_writes -= 1;
        }
        None
    }

    fn fail_fsync(&self) -> bool {
        let next = |n: u64| n.checked_sub(1);
        self.fsync_failures
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, next)
            .is_ok()
    }

    fn repair_after_short_write(&self) -> bool {
        !self.leave_torn.load(Ordering::Relaxed)
    }
}

fn injected_eio(what: &str) -> io::Error {
    io::Error::other(format!("injected disk fault: {what}"))
}

// ---------------------------------------------------------------------------
// Positions, options
// ---------------------------------------------------------------------------

/// A durable position in the log: segment sequence number, byte offset
/// within that segment, and the monotone count of records written so far.
/// `records` is what the load balancer compares across replicas — it is
/// comparable even when a follower's segment layout differs from the
/// leader's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct WalPosition {
    /// Segment sequence number.
    pub seq: u64,
    /// Byte offset within the segment.
    pub offset: u64,
    /// Total records logged since the log was created.
    pub records: u64,
}

/// When the log writer calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncMode {
    /// Sync after every group commit: a commit is durable when it returns.
    Always,
    /// Sync at segment rotation and checkpoint boundaries only; a crash can
    /// lose the OS-buffered tail of the current segment but never corrupts
    /// what recovery reads (frames are CRC-checked).
    #[default]
    Batch,
    /// Never sync explicitly (tests / throwaway stores).
    Never,
}

impl FsyncMode {
    /// Parses the YAML `wal_fsync` value.
    pub fn parse(s: &str) -> Option<FsyncMode> {
        match s {
            "always" => Some(FsyncMode::Always),
            "batch" => Some(FsyncMode::Batch),
            "never" => Some(FsyncMode::Never),
            _ => None,
        }
    }
}

/// Log tuning knobs (the YAML `tsdb:` keys).
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Fsync policy.
    pub fsync: FsyncMode,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 4 << 20,
            fsync: FsyncMode::Batch,
        }
    }
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

/// File name of segment `seq`.
pub fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:012}.seg")
}

/// Files in `dir` named `<prefix><number><suffix>`, sorted by number.
pub fn numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix(prefix)
            .and_then(|r| r.strip_suffix(suffix))
        {
            if let Ok(seq) = num.parse::<u64>() {
                out.push((seq, entry.path()));
            }
        }
    }
    out.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// Segment files in `dir`, sorted by sequence number.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    numbered(dir, "wal-", ".seg")
}

/// Removes every segment older than `keep_from`: what a snapshot frame or
/// a checkpoint covers. Returns how many were removed.
pub fn truncate_before(dir: &Path, keep_from: u64) -> io::Result<usize> {
    let mut removed = 0;
    for (seq, path) in list_segments(dir)? {
        if seq < keep_from {
            fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Best-effort directory sync so renames/creates survive a crash.
pub fn sync_dir(dir: &Path) {
    if let Ok(f) = File::open(dir) {
        let _ = f.sync_all();
    }
}

/// Writes `bytes` to `path` durably: a `.tmp` file beside it, fsync,
/// atomic rename, directory sync. A crash at any point leaves the old file
/// or the new one; an error leaves the old one.
pub fn write_durable(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_durable_with(path, |f| f.write_all(bytes))
}

/// [`write_durable`] of what `write` writes into the `.tmp` file: the file
/// is synced once `write` returns, then renamed.
pub fn write_durable_with(
    path: &Path,
    write: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = File::create(&tmp).and_then(|mut f| {
        write(&mut f)?;
        f.sync_data()
    });
    if let Err(e) = written {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Where a [`walk`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEnd {
    /// Just past the last valid frame.
    pub at: WalPosition,
    /// Bytes that are no valid frame follow `at` in its segment (a torn
    /// write or corruption). Nothing from there on is part of the log,
    /// later segments included.
    pub torn: bool,
}

/// Walks the log in `dir` as recovery reads it: every segment from
/// `start.seq` on, frame by frame, counting records on from
/// `start.records`. `visit` sees each payload with the position its frame
/// starts at and returns whether it decoded. The log ends at the first
/// frame that is incomplete, fails its CRC or does not decode.
pub fn walk(
    dir: &Path,
    start: WalPosition,
    mut visit: impl FnMut(WalPosition, &[u8]) -> bool,
) -> io::Result<LogEnd> {
    let mut at = start;
    for (seq, path) in list_segments(dir)? {
        if seq < start.seq {
            continue;
        }
        let data = fs::read(&path)?;
        at = WalPosition {
            seq,
            offset: 0,
            records: at.records,
        };
        while let Some((payload, len)) = next_frame(&data[at.offset as usize..]) {
            if !visit(at, payload) {
                break;
            }
            at.offset += len as u64;
            at.records += 1;
        }
        if (at.offset as usize) < data.len() {
            return Ok(LogEnd { at, torn: true });
        }
    }
    Ok(LogEnd { at, torn: false })
}

/// Cuts the log in `dir` at `at`: segment `at.seq` keeps its first
/// `at.offset` bytes and every later segment is deleted.
pub fn cut(dir: &Path, at: WalPosition) -> io::Result<()> {
    for (seq, path) in list_segments(dir)? {
        if seq > at.seq {
            fs::remove_file(&path)?;
        } else if seq == at.seq {
            let f = OpenOptions::new().write(true).open(&path)?;
            if f.metadata()?.len() > at.offset {
                f.set_len(at.offset)?;
                f.sync_data()?;
            }
        }
    }
    sync_dir(dir);
    Ok(())
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

/// The segmented log writer. Callers serialize access (the TSDB wraps it
/// in a mutex, the relational store's writes take `&mut`); one
/// [`Log::log`] call is one group commit.
pub struct Log {
    dir: PathBuf,
    opts: WalOptions,
    seq: u64,
    file: File,
    offset: u64,
    records: u64,
    /// Fsync telemetry: calls and cumulative nanoseconds across log/rotate/
    /// sync.
    syncs: u64,
    sync_ns: u64,
    /// Injected disk faults (chaos testing); `None` in production.
    faults: Option<Arc<dyn DiskFaults>>,
    /// The frames of the commit being written, kept for its capacity up to
    /// a segment.
    buf: Vec<u8>,
}

impl Log {
    /// Opens the writer at `at` (recovery passes the [`walk`] end, a fresh
    /// directory zeros), [`cut`]ting the log there first: a torn tail and
    /// any segment after it are dropped, so new appends start on a clean
    /// frame boundary.
    pub fn open_at(dir: &Path, opts: WalOptions, at: WalPosition) -> io::Result<Log> {
        cut(dir, at)?;
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(segment_file_name(at.seq)))?;
        let offset = file.seek(SeekFrom::End(0))?;
        sync_dir(dir);
        Ok(Log {
            dir: dir.to_path_buf(),
            opts,
            seq: at.seq,
            file,
            offset,
            records: at.records,
            syncs: 0,
            sync_ns: 0,
            faults: None,
            buf: Vec::new(),
        })
    }

    /// Installs a disk-fault injector (chaos testing).
    pub fn set_disk_faults(&mut self, faults: Arc<dyn DiskFaults>) {
        self.faults = Some(faults);
    }

    /// Current position.
    pub fn position(&self) -> WalPosition {
        WalPosition {
            seq: self.seq,
            offset: self.offset,
            records: self.records,
        }
    }

    /// Fsync telemetry since open: `(calls, cumulative_nanoseconds)`.
    pub fn sync_stats(&self) -> (u64, u64) {
        (self.syncs, self.sync_ns)
    }

    /// Syncs the active segment's data, accounting the call.
    fn timed_sync_data(&mut self) -> io::Result<()> {
        if let Some(f) = &self.faults {
            if f.fail_fsync() {
                self.syncs += 1;
                return Err(injected_eio("fsync EIO"));
            }
        }
        let start = std::time::Instant::now();
        let res = self.file.sync_data();
        self.syncs += 1;
        self.sync_ns += start.elapsed().as_nanos() as u64;
        res
    }

    /// Group commit: frames every record into one buffer and writes it with
    /// one syscall at the log's end, plus one fsync under
    /// [`FsyncMode::Always`]. Rotates first when the segment would exceed
    /// its size budget. A failed write cuts the commit's bytes back off (a
    /// [`DiskFaults`] hook can leave them, as a crash would) and leaves the
    /// position where it was. A failed fsync returns its error but leaves
    /// the commit in the segment and counted: the TSDB has already put it
    /// into its index and head, and recovery and followers must see what
    /// they saw. Nothing is written for no records.
    pub fn log<R: Record>(&mut self, recs: &[R]) -> io::Result<()> {
        self.append(recs, false)
    }

    /// One all-or-nothing commit of one frame: [`Log::log`], except that a
    /// failed fsync cuts the frame back off too, so the log never holds a
    /// commit its writer reported as failed.
    pub fn commit<R: Record>(&mut self, rec: &R) -> io::Result<()> {
        self.append(std::slice::from_ref(rec), true)
    }

    fn append<R: Record>(&mut self, recs: &[R], cut_unsynced: bool) -> io::Result<()> {
        if recs.is_empty() {
            return Ok(());
        }
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let mut too_long = false;
        for r in recs {
            let start = buf.len();
            put_frame(&mut buf, r);
            too_long |= buf.len() - start > HEADER + MAX_FRAME_LEN as usize;
        }
        let written = if too_long {
            // Recovery would take it for corruption and end the log there.
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame longer than MAX_FRAME_LEN",
            ))
        } else {
            self.write(&buf, recs.len() as u64, cut_unsynced)
        };
        // A snapshot's frame can be the size of a whole database.
        if buf.capacity() as u64 <= self.opts.segment_bytes {
            self.buf = buf;
        }
        written
    }

    /// Writes one commit, `records` frames, at `offset`: what a failed
    /// cut-back left there is overwritten, never written after.
    fn write(&mut self, frames: &[u8], records: u64, cut_unsynced: bool) -> io::Result<()> {
        if self.offset > 0 && self.offset + frames.len() as u64 > self.opts.segment_bytes {
            self.rotate()?;
        }
        if let Some(faults) = self.faults.clone() {
            if let Some(keep) = faults.before_write(frames.len()) {
                // Short write: part of the commit lands on disk, then EIO.
                let torn = &frames[..keep.min(frames.len())];
                self.file.write_all_at(torn, self.offset)?;
                if faults.repair_after_short_write() {
                    self.file.set_len(self.offset)?;
                }
                return Err(injected_eio("short write"));
            }
        }
        // A cut-back below is best effort: what a failed one leaves is
        // overwritten by the next commit or cut by `rotate`.
        if let Err(e) = self.file.write_all_at(frames, self.offset) {
            let _ = self.file.set_len(self.offset);
            return Err(e);
        }
        let synced = match self.opts.fsync {
            FsyncMode::Always => self.timed_sync_data(),
            FsyncMode::Batch | FsyncMode::Never => Ok(()),
        };
        if synced.is_err() && cut_unsynced {
            let _ = self.file.set_len(self.offset);
            return synced;
        }
        self.offset += frames.len() as u64;
        self.records += records;
        synced
    }

    /// Seals the active segment (syncing it unless `fsync = never`) and
    /// starts the next one. Returns the new segment's sequence number.
    pub fn rotate(&mut self) -> io::Result<u64> {
        // Nothing past the last commit is sealed into the segment.
        self.file.set_len(self.offset)?;
        if self.opts.fsync != FsyncMode::Never {
            self.timed_sync_data()?;
        }
        self.file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.dir.join(segment_file_name(self.seq + 1)))?;
        self.seq += 1;
        self.offset = 0;
        sync_dir(&self.dir);
        Ok(self.seq)
    }

    /// Forces the active segment to disk (unless `fsync = never`).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.opts.fsync != FsyncMode::Never {
            self.timed_sync_data()?;
        }
        Ok(())
    }
}
