//! Segmented write-ahead log + checkpoints (S16 in `DESIGN.md`).
//!
//! The hot TSDB head is purely in-memory; this module gives it a durability
//! and replication substrate, the same shape Prometheus' own WAL has:
//!
//! * **Records** ([`WalRecord`]) — series creations, sample batches,
//!   tombstones, retention cutoffs — encoded compactly (varints, zigzag
//!   deltas), each one frame of the segmented log both stores share
//!   ([`ceems_relstore::log`]: length + CRC32 header, so a torn tail is
//!   detected, never misread).
//! * **Segments** — append-only `wal-<seq>.seg` files rotated by size,
//!   written by the shared [`Wal`] writer. A scrape batch is logged as
//!   *one* record through a group-commit buffer: one lock, one `write`, at
//!   most one fsync per batch.
//! * **Checkpoints** — `checkpoint-<seq>.ckpt` files holding all live
//!   series at a rotation boundary: the label index's string table as it
//!   stands, then per series its label pairs as the index numbers them and
//!   its chunks byte for byte as the head holds them, written tmp+rename.
//!   Recovery loads the newest checkpoint whose CRC, symbol indices and
//!   chunks all check out and replays only the segments after it; covered
//!   segments and older checkpoints are garbage-collected.
//! * **Positions** ([`WalPosition`]) — `(segment, byte offset, record
//!   count)` triples; followers stream segment bytes from a position, and
//!   the load balancer compares record counts as a staleness signal.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::ops::{Deref, Range};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ceems_metrics::labels::LabelSet;
use ceems_relstore::log::{self, crc32_update, numbered, LogEnd, Record};

use crate::head::{SeriesStore, StoreMark};
use crate::par::{cores, fan_out};
use crate::types::{Sample, SeriesId};

/// The shared log's pieces the TSDB's WAL is made of: the CRC32 both logs
/// frame with, the segment writer, positions, options and disk faults.
pub use ceems_relstore::log::{
    crc32, list_segments, segment_file_name, DiskFaults, FsyncMode, Log as Wal, ScriptedDiskFaults,
    ScriptedShortWrite, WalOptions, WalPosition,
};

/// Samples per synthetic `Samples` record when a checkpoint is converted
/// into a record stream for follower bootstrap.
pub const BOOTSTRAP_BATCH: usize = 8_192;

// ---------------------------------------------------------------------------
// Varint / zigzag primitives
// ---------------------------------------------------------------------------

fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_uvarint(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Bounds-checked reader over an encoded payload. Every accessor returns
/// `None` past the end instead of panicking — decoding corrupt bytes must
/// degrade to "torn record", never crash recovery.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn uvarint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return None;
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    fn ivarint(&mut self) -> Option<i64> {
        let u = self.uvarint()?;
        Some(((u >> 1) as i64) ^ -((u & 1) as i64))
    }

    fn f64(&mut self) -> Option<f64> {
        let end = self.pos.checked_add(8)?;
        let bytes: [u8; 8] = self.buf.get(self.pos..end)?.try_into().ok()?;
        self.pos = end;
        Some(f64::from_le_bytes(bytes))
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.uvarint()? as usize;
        let end = self.pos.checked_add(len)?;
        let b = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(b)
    }

    fn string(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    /// A label count and that many name/value pairs.
    fn label_set(&mut self) -> Option<LabelSet> {
        let n = self.uvarint()? as usize;
        // A pair is at least two bytes.
        let mut pairs = Vec::with_capacity(n.min(self.remaining() / 2));
        for _ in 0..n {
            let k = Arc::from(self.string()?);
            pairs.push((k, Arc::from(self.string()?)));
        }
        Some(LabelSet::from_shared(pairs))
    }

    /// A label count and that many name/value pairs, each a number in
    /// `symbols`, appended to `numbers`; `None` for a number past them or
    /// names out of their order.
    fn numbered_pairs<S: Deref<Target = str>>(
        &mut self,
        symbols: &[S],
        numbers: &mut Vec<u32>,
    ) -> Option<()> {
        let n = self.uvarint()? as usize;
        let mut before: Option<&str> = None;
        for _ in 0..n {
            let name = self.symbol(symbols, numbers)?;
            if before.is_some_and(|before| before >= name) {
                return None;
            }
            before = Some(name);
            self.symbol(symbols, numbers)?;
        }
        Some(())
    }

    fn symbol<'s, S: Deref<Target = str>>(
        &mut self,
        symbols: &'s [S],
        numbers: &mut Vec<u32>,
    ) -> Option<&'s str> {
        let n = u32::try_from(self.uvarint()?).ok()?;
        let s = symbols.get(n as usize)?;
        numbers.push(n);
        Some(s)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet read: the most any count still to come can stand for.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

const TAG_SERIES_CREATE: u8 = 1;
const TAG_SAMPLES: u8 = 2;
const TAG_TOMBSTONE: u8 = 3;
const TAG_RETENTION: u8 = 4;
const TAG_EPOCH_BUMP: u8 = 5;

/// One durable event in the WAL. Replaying the record stream from an empty
/// database reconstructs the head and index exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A new series was registered under `id`. Always logged before any
    /// `Samples` record referencing the id (enforced by logging inside the
    /// index write-lock critical section).
    SeriesCreate {
        /// The id the index assigned.
        id: SeriesId,
        /// The full label set of the series.
        labels: LabelSet,
    },
    /// A batch of samples, `(series id, timestamp ms, value)`. One scrape
    /// pass over a target becomes one record (the group commit).
    Samples(Vec<(SeriesId, i64, f64)>),
    /// Series deleted by the §II.C cardinality cleanup.
    Tombstone(Vec<SeriesId>),
    /// A retention sweep dropped chunks ending before `cutoff_ms`.
    Retention {
        /// The cutoff the sweep ran with.
        cutoff_ms: i64,
    },
    /// The leadership epoch advanced (S24). Every record after this bump
    /// (until the next one) belongs to `epoch` — the Raft-style "term
    /// marker in the log" shape. A durable bump fences the previous
    /// leader: appends carrying an older epoch are rejected.
    EpochBump {
        /// The new epoch.
        epoch: u64,
    },
}

/// Appends one length+CRC framed record to `out` ([`log::put_frame`]).
///
/// Frame layout: `[payload len: u32 LE][crc32(payload): u32 LE][payload]`.
pub fn encode_record(out: &mut Vec<u8>, rec: &WalRecord) {
    log::put_frame(out, rec);
}

impl Record for WalRecord {
    fn put_payload(&self, payload: &mut Vec<u8>) {
        match self {
            WalRecord::SeriesCreate { id, labels } => {
                payload.push(TAG_SERIES_CREATE);
                put_uvarint(payload, *id);
                put_uvarint(payload, labels.len() as u64);
                for (k, v) in labels.iter() {
                    put_bytes(payload, k.as_bytes());
                    put_bytes(payload, v.as_bytes());
                }
            }
            WalRecord::Samples(samples) => {
                payload.push(TAG_SAMPLES);
                put_uvarint(payload, samples.len() as u64);
                // Ids and timestamps are delta-encoded against the previous
                // sample: a scrape batch shares one timestamp and ascends in
                // id, so both deltas are tiny.
                let (mut prev_id, mut prev_t) = (0i64, 0i64);
                for &(id, t, v) in samples {
                    put_ivarint(payload, id as i64 - prev_id);
                    put_ivarint(payload, t - prev_t);
                    payload.extend_from_slice(&v.to_le_bytes());
                    prev_id = id as i64;
                    prev_t = t;
                }
            }
            WalRecord::Tombstone(ids) => {
                payload.push(TAG_TOMBSTONE);
                put_uvarint(payload, ids.len() as u64);
                let mut prev = 0i64;
                for &id in ids {
                    put_ivarint(payload, id as i64 - prev);
                    prev = id as i64;
                }
            }
            WalRecord::Retention { cutoff_ms } => {
                payload.push(TAG_RETENTION);
                put_ivarint(payload, *cutoff_ms);
            }
            WalRecord::EpochBump { epoch } => {
                payload.push(TAG_EPOCH_BUMP);
                put_uvarint(payload, *epoch);
            }
        }
    }
}

/// Decodes one record's payload. A count read from it reserves no more
/// entries than the bytes left could hold at the smallest encoding of one
/// (a label pair: two length bytes; a sample: two varint bytes and an
/// `f64`; a tombstone: one varint byte), so a frame that passes its CRC
/// cannot make the decoder reserve more than a fixed multiple of its size.
fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
        TAG_SERIES_CREATE => WalRecord::SeriesCreate {
            id: r.uvarint()?,
            labels: r.label_set()?,
        },
        TAG_SAMPLES => {
            let n = r.uvarint()? as usize;
            let mut samples = Vec::with_capacity(n.min(r.remaining() / 10));
            let (mut prev_id, mut prev_t) = (0i64, 0i64);
            for _ in 0..n {
                let id = prev_id.checked_add(r.ivarint()?)?;
                let t = prev_t.checked_add(r.ivarint()?)?;
                let v = r.f64()?;
                if id < 0 {
                    return None;
                }
                samples.push((id as SeriesId, t, v));
                prev_id = id;
                prev_t = t;
            }
            WalRecord::Samples(samples)
        }
        TAG_TOMBSTONE => {
            let n = r.uvarint()? as usize;
            let mut ids = Vec::with_capacity(n.min(r.remaining()));
            let mut prev = 0i64;
            for _ in 0..n {
                let id = prev.checked_add(r.ivarint()?)?;
                if id < 0 {
                    return None;
                }
                ids.push(id as SeriesId);
                prev = id;
            }
            WalRecord::Tombstone(ids)
        }
        TAG_RETENTION => WalRecord::Retention {
            cutoff_ms: r.ivarint()?,
        },
        TAG_EPOCH_BUMP => WalRecord::EpochBump { epoch: r.uvarint()? },
        _ => return None,
    };
    r.done().then_some(rec)
}

/// Decodes consecutive frames from `buf`, stopping at the first incomplete
/// or corrupt frame (the torn tail a crash leaves) or one whose payload
/// does not decode. Returns the decoded records and how many bytes of
/// `buf` they cleanly consumed — the caller truncates (recovery) or
/// retries from there (a follower racing the leader's writer).
pub fn decode_frames(buf: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while let Some((payload, len)) = log::next_frame(&buf[pos..]) {
        let Some(rec) = decode_payload(payload) else {
            break;
        };
        out.push(rec);
        pos += len;
    }
    (out, pos)
}

/// File name of the checkpoint covering segments `< seq`.
pub fn checkpoint_file_name(seq: u64) -> String {
    format!("checkpoint-{seq:012}.ckpt")
}

/// Checkpoint files in `dir`, sorted by covered sequence number.
pub fn list_checkpoints(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    numbered(dir, "checkpoint-", ".ckpt")
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// What [`encode_checkpoint`] writes: the label index's string table, each
/// series' label pairs as numbers in it, and its chunks as the head holds
/// them.
const CKPT_MAGIC: &[u8; 5] = b"CKPT3";

/// The format before it: the same chunks, every series' label strings in
/// full. Read, so a directory an older build wrote still opens; not written.
const CKPT2_MAGIC: &[u8; 5] = b"CKPT2";

/// The format before that: each sample as a varint time delta and a raw
/// `f64`. Read; not written.
const CKPT1_MAGIC: &[u8; 5] = b"CKPT1";

/// One entry of the leadership-epoch history (S24): `epoch` began once
/// `start_records` records had been logged. The history is what a
/// rejoining old leader compares its WAL tail against — everything it
/// logged at or past the successor epoch's start is a divergent (never
/// acknowledged) suffix and must be truncated before re-entering as a
/// follower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSpan {
    /// The epoch number.
    pub epoch: u64,
    /// Monotone record count at which this epoch began.
    pub start_records: u64,
}

/// A full summary of the live database at a segment rotation boundary.
/// Recovery = load newest checkpoint + replay segments `>= covers_seq`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Checkpoint {
    /// Segments with `seq < covers_seq` are fully contained in this
    /// checkpoint and can be garbage-collected.
    pub covers_seq: u64,
    /// Index generation at snapshot time. The labels cache
    /// ([`crate::storage::Tsdb::label_names`]) checks it to see membership
    /// move; restoring it keeps the clock running on across a restart
    /// rather than starting at 0 again.
    pub generation: u64,
    /// Next series id the index would assign (ids of tombstoned series must
    /// not be reused differently after recovery).
    pub next_id: SeriesId,
    /// Lifetime appended-samples counter.
    pub appended: u64,
    /// Lifetime out-of-order-dropped counter.
    pub out_of_order: u64,
    /// Total WAL records logged up to `covers_seq` (seeds the position's
    /// record count on recovery).
    pub records: u64,
    /// Leadership epoch at snapshot time (S24).
    pub epoch: u64,
    /// Epoch history up to the snapshot; survives segment GC so rejoin
    /// divergence checks work long after the bump records are collected.
    pub epoch_history: Vec<EpochSpan>,
    /// The label index's strings by number, a free number's empty
    /// ([`crate::index::LabelIndex::checkpoint`]); none in a decoded
    /// `CKPT2` or `CKPT1` file.
    pub symbols: Vec<Arc<str>>,
    /// Every series' pairs as a name and a value number each, in turn.
    pub pairs: Vec<u32>,
    /// Every live series: id, labels, and its chunks as the head holds
    /// them. On disk a chunk is its sample count and its encoded bytes; a
    /// decoded checkpoint's chunks have all passed
    /// [`SeriesStore::push_encoded`].
    pub series: Vec<(SeriesId, Arc<LabelSet>, SeriesStore)>,
}

/// Serializes a checkpoint: magic, varint-packed header, the symbol table
/// (a count, then each string of `symbols` length-prefixed), the series
/// (id, label count, a name and a value number per pair, chunks), and a
/// trailing CRC32 over everything before it. It goes through the
/// `CheckpointWriter` that `Tsdb::checkpoint` streams a file with.
pub fn encode_checkpoint(ckpt: &Checkpoint) -> Vec<u8> {
    // Sized up front: growing a multi-megabyte buffer by doubling copies it
    // several times over and holds twice its size at the peak. A number
    // takes at most three bytes below 2^21 strings.
    let table_bytes: usize = ckpt.symbols.iter().map(|s| s.len() + 2).sum();
    let series_bytes: usize = ckpt
        .series
        .iter()
        .map(|(_, labels, store)| {
            32 + 6 * labels.len() + store.byte_len() + 8 * store.chunks().len()
        })
        .sum();
    let out = Vec::with_capacity(128 + table_bytes + series_bytes);
    let written = CheckpointWriter::start(out, ckpt, ckpt.series.len()).and_then(|mut w| {
        for (id, labels, store) in &ckpt.series {
            w.series(*id, labels.len(), |out| put_chunks(out, store))?;
        }
        w.finish()
    });
    written.expect("a Vec takes every write")
}

/// Writes a `CKPT3` file to `out` a piece at a time: the header and the
/// table, then one series per [`Self::series`], then the CRC, which it
/// folds in as the pieces go ([`crc32_update`]). Each piece is put
/// together in a buffer of its own and written whole, so what a series'
/// chunks are read under is held for a copy, never for a write.
pub(crate) struct CheckpointWriter<'h, W: Write> {
    out: W,
    crc: u32,
    piece: Vec<u8>,
    /// The header's pairs the series to come have.
    pairs: &'h [u32],
}

impl<'h, W: Write> CheckpointWriter<'h, W> {
    /// Writes the magic, `header`'s fields, its symbol table and the count
    /// of series to follow; `header.series` is not read.
    pub(crate) fn start(out: W, header: &'h Checkpoint, series: usize) -> io::Result<Self> {
        let mut w = CheckpointWriter {
            out,
            crc: 0,
            piece: Vec::new(),
            pairs: &header.pairs,
        };
        put_header(&mut w.piece, CKPT_MAGIC, header);
        put_uvarint(&mut w.piece, header.symbols.len() as u64);
        for s in &header.symbols {
            put_bytes(&mut w.piece, s.as_bytes());
            if w.piece.len() >= PIECE_BYTES {
                w.emit()?;
            }
        }
        put_uvarint(&mut w.piece, series as u64);
        w.emit()?;
        Ok(w)
    }

    /// Writes the next series: its id, its label count and the header's
    /// next `labels` pairs (a name and a value number each), then what
    /// `put_chunks` puts.
    pub(crate) fn series(
        &mut self,
        id: SeriesId,
        labels: usize,
        put_chunks: impl FnOnce(&mut Vec<u8>),
    ) -> io::Result<()> {
        put_uvarint(&mut self.piece, id);
        put_uvarint(&mut self.piece, labels as u64);
        let (pairs, rest) = self.pairs.split_at((2 * labels).min(self.pairs.len()));
        self.pairs = rest;
        for &n in pairs {
            put_uvarint(&mut self.piece, u64::from(n));
        }
        put_chunks(&mut self.piece);
        self.emit()
    }

    /// Writes the CRC of everything before it and hands `out` back.
    pub(crate) fn finish(mut self) -> io::Result<W> {
        self.out.write_all(&self.crc.to_le_bytes())?;
        Ok(self.out)
    }

    fn emit(&mut self) -> io::Result<()> {
        self.crc = crc32_update(self.crc, &self.piece);
        self.out.write_all(&self.piece)?;
        self.piece.clear();
        Ok(())
    }
}

/// Bytes of symbol table the writer puts together before it writes them.
const PIECE_BYTES: usize = 16 << 10;

/// The magic and the header fields every format starts with.
fn put_header(out: &mut Vec<u8>, magic: &[u8; 5], ckpt: &Checkpoint) {
    out.extend_from_slice(magic);
    put_uvarint(out, ckpt.covers_seq);
    put_uvarint(out, ckpt.generation);
    put_uvarint(out, ckpt.next_id);
    put_uvarint(out, ckpt.appended);
    put_uvarint(out, ckpt.out_of_order);
    put_uvarint(out, ckpt.records);
    put_uvarint(out, ckpt.epoch);
    put_uvarint(out, ckpt.epoch_history.len() as u64);
    for span in &ckpt.epoch_history {
        put_uvarint(out, span.epoch);
        put_uvarint(out, span.start_records);
    }
}

/// Appends the CRC32 of everything before it.
#[cfg(test)]
fn put_crc(out: &mut Vec<u8>) {
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// A series' chunks: their count, then each one's sample count and bytes.
fn put_chunks(out: &mut Vec<u8>, store: &SeriesStore) {
    put_chunks_at(out, store, store.mark());
}

/// [`put_chunks`] of the series as it stood at `mark`: the chunks sealed
/// then whole, the one open then as the bytes and samples it had, its last
/// byte as it was (appends since have OR-ed bits into it and pushed bytes
/// after it). Valid while no chunk was dropped from the series since.
pub(crate) fn put_chunks_at(out: &mut Vec<u8>, store: &SeriesStore, mark: StoreMark) {
    put_uvarint(out, u64::from(mark.chunks));
    let mut chunks = store.chunks().take(mark.chunks as usize);
    for chunk in chunks.by_ref().take(mark.chunks.saturating_sub(1) as usize) {
        put_uvarint(out, chunk.len() as u64);
        put_bytes(out, chunk.as_bytes());
    }
    if let Some(open) = chunks.next() {
        put_uvarint(out, u64::from(mark.samples));
        put_uvarint(out, u64::from(mark.bytes));
        if let Some((_, body)) = open.as_bytes()[..mark.bytes as usize].split_last() {
            out.extend_from_slice(body);
            out.push(mark.last);
        }
    }
}

/// The layout `CKPT2` and `CKPT1` share: the header, then each series' id,
/// its label strings in full and what `put_samples` writes.
#[cfg(test)]
fn encode_inline_labels(
    ckpt: &Checkpoint,
    magic: &[u8; 5],
    put_samples: impl Fn(&mut Vec<u8>, &SeriesStore),
) -> Vec<u8> {
    let mut out = Vec::new();
    put_header(&mut out, magic, ckpt);
    put_uvarint(&mut out, ckpt.series.len() as u64);
    for (id, labels, store) in &ckpt.series {
        put_uvarint(&mut out, *id);
        put_uvarint(&mut out, labels.len() as u64);
        for (k, v) in labels.iter() {
            put_bytes(&mut out, k.as_bytes());
            put_bytes(&mut out, v.as_bytes());
        }
        put_samples(&mut out, store);
    }
    put_crc(&mut out);
    out
}

/// The `CKPT2` writer as it was, for tests that `CKPT2` files still open.
#[cfg(test)]
pub(crate) fn encode_checkpoint_v2(ckpt: &Checkpoint) -> Vec<u8> {
    encode_inline_labels(ckpt, CKPT2_MAGIC, put_chunks)
}

/// The `CKPT1` writer as it was, for tests that `CKPT1` files still open.
#[cfg(test)]
pub(crate) fn encode_checkpoint_v1(ckpt: &Checkpoint) -> Vec<u8> {
    encode_inline_labels(ckpt, CKPT1_MAGIC, |out, store| {
        put_uvarint(out, store.sample_count());
        let mut prev_t = 0i64;
        for s in store.iter() {
            put_ivarint(out, s.t_ms - prev_t);
            out.extend_from_slice(&s.v.to_le_bytes());
            prev_t = s.t_ms;
        }
    })
}

/// Replaces the trailing CRC by the one the bytes before it have, so a test's
/// damage gets past it.
#[cfg(test)]
pub(crate) fn fix_crc(bytes: &mut [u8]) {
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
}

/// A series' chunks as `CKPT3` and `CKPT2` hold them, each through the
/// checked decode.
fn read_chunks(r: &mut Reader<'_>) -> Option<SeriesStore> {
    let n = r.uvarint()? as usize;
    // A chunk is at least two bytes.
    let mut store = SeriesStore::with_chunk_slots(n.min(r.remaining() / 2));
    for _ in 0..n {
        let n = u32::try_from(r.uvarint()?).ok()?;
        store.push_encoded(r.bytes()?.to_vec(), n)?;
    }
    Some(store)
}

/// Steps over a series' chunks as `CKPT3` and `CKPT2` hold them, decoding
/// none.
fn skip_chunks(r: &mut Reader<'_>) -> Option<()> {
    for _ in 0..r.uvarint()? {
        r.uvarint()?;
        r.bytes()?;
    }
    Some(())
}

/// A series' samples as `CKPT1` holds them, appended into chunks.
fn read_samples_v1(r: &mut Reader<'_>) -> Option<SeriesStore> {
    let mut store = SeriesStore::default();
    let mut prev_t = 0i64;
    for _ in 0..r.uvarint()? {
        let t = prev_t.checked_add(r.ivarint()?)?;
        store.append(Sample::new(t, r.f64()?)).ok()?;
        prev_t = t;
    }
    Some(store)
}

/// Steps over a series' samples as `CKPT1` holds them.
fn skip_samples_v1(r: &mut Reader<'_>) -> Option<()> {
    for _ in 0..r.uvarint()? {
        r.ivarint()?;
        r.f64()?;
    }
    Some(())
}

/// How a checkpoint format holds a series' samples: stepped over to find
/// the next series, read by whichever worker checks them.
struct SampleFormat {
    skip: fn(&mut Reader<'_>) -> Option<()>,
    read: fn(&mut Reader<'_>) -> Option<SeriesStore>,
}

const CHUNK_SAMPLES: SampleFormat = SampleFormat {
    skip: skip_chunks,
    read: read_chunks,
};

const CKPT1_SAMPLES: SampleFormat = SampleFormat {
    skip: skip_samples_v1,
    read: read_samples_v1,
};

/// Bytes of samples a worker checks at a time. Taking a range costs nothing
/// next to decoding it, and with many of them a worker that finishes early
/// takes the next one instead of waiting for the others.
const RANGE_BYTES: usize = 16 << 10;

/// A checkpoint read series by series, each handed out as it comes: the
/// header and the symbol table are read on opening. `S` is how the table
/// holds its strings: shared, for a reader whose label sets are built from
/// them, or borrowed from the bytes, for one that builds none.
struct CheckpointReader<'a, S> {
    r: Reader<'a>,
    /// The checkpoint's fields; its table, pairs and series are empty.
    header: Checkpoint,
    symbols: Vec<S>,
    /// Whether a pair of some series uses each number.
    used: Vec<bool>,
    /// `CKPT3` (label pairs as numbers) or not (label strings in full).
    numbered: bool,
    format: &'static SampleFormat,
    series_left: usize,
    last_id: Option<SeriesId>,
    /// The bytes the trailing CRC covers, and the CRC.
    body: &'a [u8],
    crc: u32,
}

/// A series' id, its label set in an older format, and its samples as the
/// file holds them.
type ReadSeries<'a> = (SeriesId, Option<LabelSet>, &'a [u8]);

impl<'a, S: Deref<Target = str> + From<&'a str>> CheckpointReader<'a, S> {
    /// Reads checkpoint bytes of any format up to its first series. `None`
    /// when they are no checkpoint so far: an unknown magic, a field cut
    /// short, a symbol that is not UTF-8. A count read from the bytes
    /// reserves no more than the bytes left could hold (a symbol is at
    /// least one byte, a span two).
    fn open(bytes: &'a [u8]) -> Option<Self> {
        let (body, tail) = bytes.split_at(bytes.len().checked_sub(4)?);
        let (format, numbered) = match body.get(..CKPT_MAGIC.len())? {
            magic if magic == CKPT_MAGIC => (&CHUNK_SAMPLES, true),
            magic if magic == CKPT2_MAGIC => (&CHUNK_SAMPLES, false),
            magic if magic == CKPT1_MAGIC => (&CKPT1_SAMPLES, false),
            _ => return None,
        };
        let mut r = Reader::new(&body[CKPT_MAGIC.len()..]);
        // Fields are read in the order they are written.
        let mut header = Checkpoint {
            covers_seq: r.uvarint()?,
            generation: r.uvarint()?,
            next_id: r.uvarint()?,
            appended: r.uvarint()?,
            out_of_order: r.uvarint()?,
            records: r.uvarint()?,
            epoch: r.uvarint()?,
            ..Checkpoint::default()
        };
        let n_spans = r.uvarint()? as usize;
        header.epoch_history = Vec::with_capacity(n_spans.min(r.remaining() / 2));
        for _ in 0..n_spans {
            header.epoch_history.push(EpochSpan {
                epoch: r.uvarint()?,
                start_records: r.uvarint()?,
            });
        }
        let mut symbols = Vec::new();
        if numbered {
            // A number is a `u32`; a symbol is at least one byte.
            let n = u32::try_from(r.uvarint()?).ok()? as usize;
            symbols.reserve(n.min(r.remaining()));
            for _ in 0..n {
                symbols.push(S::from(r.string()?));
            }
        }
        Some(CheckpointReader {
            series_left: r.uvarint()? as usize,
            r,
            header,
            used: vec![false; symbols.len()],
            symbols,
            numbered,
            format,
            last_id: None,
            body,
            crc: u32::from_le_bytes(tail.try_into().ok()?),
        })
    }

    /// The count of series the file says follow: at most one per three
    /// bytes left, the least a series takes.
    fn series_hint(&self) -> usize {
        self.series_left.min(self.r.remaining() / 3)
    }

    /// The next series' id, its label set in an older format (a `CKPT3`
    /// series' pairs' numbers go into `numbers`, emptied first) and its
    /// samples as the file holds them; `Some(None)` after the last. `None`
    /// when what it reads is no series: among others, a number past the
    /// table, label names out of their order, or an id not above the one
    /// before. Every writer of every format put the series in ascending id
    /// order (`Tsdb::checkpoint` over the index's sorted series).
    fn next_series(&mut self, numbers: &mut Vec<u32>) -> Option<Option<ReadSeries<'a>>> {
        if self.series_left == 0 {
            return Some(None);
        }
        self.series_left -= 1;
        let r = &mut self.r;
        let id = r.uvarint()?;
        if self.last_id.is_some_and(|before| before >= id) {
            return None;
        }
        self.last_id = Some(id);
        numbers.clear();
        let inline = match self.numbered {
            true => {
                r.numbered_pairs(&self.symbols, numbers)?;
                numbers.iter().for_each(|&n| self.used[n as usize] = true);
                None
            }
            false => Some(r.label_set()?),
        };
        let start = r.pos;
        (self.format.skip)(r)?;
        Some(Some((id, inline, &r.buf[start..r.pos])))
    }

    /// After the last series: the header, when the bytes ended there and
    /// no used string is under two numbers (that would split its postings;
    /// a free number is the empty string, which may repeat).
    fn finish(&mut self) -> Option<Checkpoint> {
        let text = |n: &u32| &*self.symbols[*n as usize];
        let mut used: Vec<u32> = (0..self.used.len() as u32)
            .filter(|&n| self.used[n as usize])
            .collect();
        used.sort_unstable_by(|a, b| text(a).cmp(text(b)));
        let once = used.windows(2).all(|w| text(&w[0]) != text(&w[1]));
        let done = once && self.series_left == 0 && self.r.done();
        done.then(|| std::mem::take(&mut self.header))
    }
}

/// Series `samples` in `format` through the checked decode.
fn read_store(format: &SampleFormat, samples: &[u8]) -> Option<SeriesStore> {
    let mut r = Reader::new(samples);
    let store = (format.read)(&mut r)?;
    r.done().then_some(store)
}

/// A checkpoint taken apart for workers: the header and every series' id
/// and labels decoded (a `CKPT3` file's label sets built from its symbol
/// table), each series' samples found but not decoded.
/// Nothing in it holds before [`Self::crc_ok`] and every [`Self::store`]
/// say so.
pub(crate) struct CheckpointView<'a> {
    /// The checkpoint's fields, its table and pairs; its `series` is empty.
    pub header: Checkpoint,
    /// Each series' id and labels, ids ascending.
    pub series: Vec<(SeriesId, Arc<LabelSet>)>,
    /// Each series' samples as the file holds them.
    samples: Vec<&'a [u8]>,
    format: &'static SampleFormat,
    /// The bytes the trailing CRC covers, and the CRC.
    body: &'a [u8],
    crc: u32,
}

/// One worker's share of checking a [`CheckpointView`].
pub(crate) enum Check {
    /// The file's CRC.
    Crc,
    /// The samples of these series.
    Series(Range<usize>),
}

impl<'a> CheckpointView<'a> {
    /// Reads checkpoint bytes of any format up to each series' samples
    /// ([`CheckpointReader`]); `None` when what it reads is not a
    /// checkpoint.
    pub(crate) fn parse(bytes: &'a [u8]) -> Option<CheckpointView<'a>> {
        let mut reader = CheckpointReader::<Arc<str>>::open(bytes)?;
        let mut series: Vec<(SeriesId, Arc<LabelSet>)> = Vec::with_capacity(reader.series_hint());
        let mut samples = Vec::with_capacity(series.capacity());
        let (mut numbers, mut pairs) = (Vec::new(), Vec::new());
        while let Some((id, inline, stored)) = reader.next_series(&mut numbers)? {
            let labels = inline.unwrap_or_else(|| {
                let text = |n: u32| Arc::clone(&reader.symbols[n as usize]);
                let shared = numbers.chunks_exact(2).map(|p| (text(p[0]), text(p[1])));
                LabelSet::from_shared(shared.collect())
            });
            pairs.extend_from_slice(&numbers);
            series.push((id, Arc::new(labels)));
            samples.push(stored);
        }
        let header = reader.finish()?;
        Some(CheckpointView {
            header: Checkpoint {
                symbols: reader.symbols,
                pairs,
                ..header
            },
            series,
            samples,
            format: reader.format,
            body: reader.body,
            crc: reader.crc,
        })
    }

    /// Whether the trailing CRC is that of the bytes before it.
    pub(crate) fn crc_ok(&self) -> bool {
        crc32(self.body) == self.crc
    }

    /// Series `i`'s samples through the checked decode.
    pub(crate) fn store(&self, i: usize) -> Option<SeriesStore> {
        read_store(self.format, self.samples[i])
    }

    /// What must pass before the checkpoint is believed: the CRC, then the
    /// series in ranges of about [`RANGE_BYTES`] of samples, in order.
    pub(crate) fn checks(&self) -> Vec<Check> {
        let mut checks = vec![Check::Crc];
        let (mut start, mut bytes) = (0, 0);
        for (i, samples) in self.samples.iter().enumerate() {
            bytes += samples.len();
            if bytes >= RANGE_BYTES || i + 1 == self.samples.len() {
                checks.push(Check::Series(start..i + 1));
                (start, bytes) = (i + 1, 0);
            }
        }
        checks
    }
}

/// The header of `bytes` when they are a checkpoint that
/// [`CheckpointView::parse`], its CRC and every series' checked decode
/// accept, as [`Tsdb::open`](crate::Tsdb::open) requires before it restores
/// one. The series go through the decode one at a time and none is kept;
/// the table is read as slices of `bytes`.
fn check_checkpoint(bytes: &[u8]) -> Option<Checkpoint> {
    let mut reader = CheckpointReader::<&str>::open(bytes)?;
    if crc32(reader.body) != reader.crc {
        return None;
    }
    let mut numbers = Vec::new();
    while let Some((_, _, samples)) = reader.next_series(&mut numbers)? {
        read_store(reader.format, samples)?;
    }
    reader.finish()
}

/// Parses checkpoint bytes of any format, validating magic, CRC and
/// every chunk. `None` means the file is corrupt or truncated (the loader
/// falls back to an older checkpoint). The chunks are checked on up to
/// `available_parallelism` threads.
pub fn decode_checkpoint(bytes: &[u8]) -> Option<Checkpoint> {
    decode_checkpoint_on(bytes, cores())
}

/// [`decode_checkpoint`] on at most `workers` threads: the CRC beside the
/// ranges of series. A checkpoint of one range decodes on the calling
/// thread.
fn decode_checkpoint_on(bytes: &[u8], workers: usize) -> Option<Checkpoint> {
    let view = CheckpointView::parse(bytes)?;
    let checks = view.checks();
    // Each check's stores by the first series it covers; the CRC's are none.
    let workers = workers.min(checks.len() - 1);
    let mut parts = fan_out(&checks, workers, Vec::new, |parts, check| {
        parts.push(match check {
            Check::Crc => (0, view.crc_ok().then(Vec::new)),
            Check::Series(range) => (range.start, range.clone().map(|i| view.store(i)).collect()),
        })
    })
    .concat();
    parts.sort_unstable_by_key(|(start, _)| *start);
    let stores: Vec<Vec<SeriesStore>> = parts
        .into_iter()
        .map(|(_, stores)| stores)
        .collect::<Option<_>>()?;
    let series = view.series.into_iter().zip(stores.into_iter().flatten());
    Some(Checkpoint {
        series: series
            .map(|((id, labels), store)| (id, labels, store))
            .collect(),
        ..view.header
    })
}

/// Writes the checkpoint covering `covers_seq` into `dir` durably
/// ([`log::write_durable_with`]): `write` streams its bytes into the `.tmp`
/// file beside its name through a buffer, which is flushed after `write`
/// returns; then fsync, atomic rename and directory sync. A crash at any
/// point leaves either the old state or the new one, and an error the old
/// one.
pub(crate) fn write_checkpoint_with(
    dir: &Path,
    covers_seq: u64,
    write: impl FnOnce(&mut BufWriter<&mut fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    let path = dir.join(checkpoint_file_name(covers_seq));
    log::write_durable_with(&path, |file| {
        let mut out = BufWriter::with_capacity(WRITE_BUFFER, file);
        write(&mut out)?;
        out.flush()
    })
}

/// The buffer a checkpoint file is written through.
const WRITE_BUFFER: usize = 64 << 10;

/// The newest checkpoint in `dir` that `Tsdb::open` would restore, as its
/// bytes and its header (no table, pairs or series): each one's CRC and
/// every series' checked decode pass, one series at a time, none kept.
/// Corrupt or truncated ones are skipped (a crash mid-checkpoint leaves a
/// `.tmp` that is never considered, but defense in depth costs nothing).
pub fn newest_checkpoint(dir: &Path) -> io::Result<Option<(Vec<u8>, Checkpoint)>> {
    for (_, path) in list_checkpoints(dir)?.into_iter().rev() {
        let bytes = fs::read(&path)?;
        if let Some(header) = check_checkpoint(&bytes) {
            return Ok(Some((bytes, header)));
        }
    }
    Ok(None)
}

/// Where the log in `dir` starts: the segment the newest valid checkpoint
/// covers up to, with the records it holds; the very beginning without one.
pub(crate) fn log_start(dir: &Path) -> io::Result<WalPosition> {
    let newest = newest_checkpoint(dir)?.map(|(_, c)| (c.covers_seq, c.records));
    let (seq, records) = newest.unwrap_or_default();
    Ok(WalPosition {
        seq,
        offset: 0,
        records,
    })
}

/// Walks the log in `dir` as recovery reads it ([`log::walk`]): every
/// segment from `start.seq` on (see [`log_start`]), each frame's CRC and
/// payload checked. The log ends at the first frame that fails. `visit`
/// sees each record with the position its frame starts at.
pub(crate) fn walk_log(
    dir: &Path,
    start: WalPosition,
    mut visit: impl FnMut(WalPosition, WalRecord),
) -> io::Result<LogEnd> {
    log::walk(dir, start, |at, payload| {
        decode_payload(payload)
            .map(|rec| visit(at, rec))
            .is_some()
    })
}

/// Outcome of [`truncate_to_records`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncateOutcome {
    /// The log held no records past the target — nothing was cut.
    AlreadyShort,
    /// The divergent suffix was cut: this many records were dropped.
    Truncated {
        /// Records removed from the tail.
        dropped_records: u64,
    },
    /// The newest checkpoint already covers records past the target, so a
    /// surgical cut is impossible — the caller must clear and re-bootstrap
    /// from the leader instead.
    NeedsResync,
}

/// Truncates the WAL in `dir` so it holds exactly `target` records (S24
/// rejoin): an old leader cutting the unacknowledged suffix it wrote past
/// the successor epoch's start. Walks the log as recovery does, cuts the
/// segment holding record `target` there and deletes every later segment.
/// Must only be called with no live writer on the directory.
pub fn truncate_to_records(dir: &Path, target: u64) -> io::Result<TruncateOutcome> {
    let start = log_start(dir)?;
    if start.records > target {
        return Ok(TruncateOutcome::NeedsResync);
    }
    let mut cut = None;
    let end = walk_log(dir, start, |at, _| {
        if at.records == target {
            cut = Some(at);
        }
    })?;
    if end.at.records < target {
        return Ok(TruncateOutcome::AlreadyShort);
    }
    log::cut(dir, cut.unwrap_or(end.at))?;
    Ok(match end.at.records - target {
        0 => TruncateOutcome::AlreadyShort,
        dropped_records => TruncateOutcome::Truncated { dropped_records },
    })
}

/// Garbage-collects everything a fresh checkpoint covers: segments with
/// `seq < covers_seq`, older checkpoints, and stray `.tmp` files. Returns
/// how many files were removed.
pub fn gc_covered(dir: &Path, covers_seq: u64) -> io::Result<usize> {
    let mut removed = log::truncate_before(dir, covers_seq)?;
    for (seq, path) in list_checkpoints(dir)? {
        if seq < covers_seq {
            fs::remove_file(&path)?;
            removed += 1;
        }
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            fs::remove_file(&path)?;
            removed += 1;
        }
    }
    log::sync_dir(dir);
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::LabelIndex;
    use ceems_metrics::labels;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::SeriesCreate {
                id: 0,
                labels: labels! {"__name__" => "power", "instance" => "n1"},
            },
            WalRecord::Samples(vec![(0, 15_000, 215.5), (0, 30_000, 220.0)]),
            WalRecord::Tombstone(vec![0]),
            WalRecord::Retention { cutoff_ms: -5_000 },
            WalRecord::EpochBump { epoch: 3 },
        ]
    }

    #[test]
    fn record_roundtrip() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(&mut buf, r);
        }
        let (got, consumed) = decode_frames(&buf);
        assert_eq!(consumed, buf.len());
        assert_eq!(got, recs);
    }

    #[test]
    fn torn_tail_stops_cleanly() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(&mut buf, r);
        }
        let mut whole = Vec::new();
        encode_record(&mut whole, &recs[0]);
        let keep = whole.len();
        // Truncate into the second record: only the first decodes.
        let (got, consumed) = decode_frames(&buf[..keep + 5]);
        assert_eq!(got.len(), 1);
        assert_eq!(consumed, keep);
        // Corrupt a payload byte of the second record: same stop point.
        let mut bad = buf.clone();
        bad[keep + 9] ^= 0xFF;
        let (got, consumed) = decode_frames(&bad);
        assert_eq!(got.len(), 1);
        assert_eq!(consumed, keep);
    }

    #[test]
    fn short_write_fault_repairs_and_recovers() {
        let dir = std::env::temp_dir().join(format!("ceems-wal-shortw-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut wal = Wal::open_at(&dir, WalOptions::default(), WalPosition::default()).unwrap();
        wal.set_disk_faults(Arc::new(ScriptedDiskFaults::new().with_short_write(1, 0.5)));
        wal.log(&[WalRecord::Samples(vec![(1, 1_000, 1.0)])])
            .unwrap();
        let pos_before = wal.position();
        // Second commit hits the scripted short write.
        let err = wal
            .log(&[WalRecord::Samples(vec![(1, 2_000, 2.0)])])
            .unwrap_err();
        assert!(err.to_string().contains("injected disk fault"));
        assert_eq!(wal.position(), pos_before, "failed commit must not advance");
        // The tail was repaired: the next commit lands on a clean boundary.
        wal.log(&[WalRecord::Samples(vec![(1, 3_000, 3.0)])])
            .unwrap();
        let data = fs::read(dir.join(segment_file_name(0))).unwrap();
        let (recs, consumed) = decode_frames(&data);
        assert_eq!(consumed, data.len(), "no torn bytes after repair");
        assert_eq!(
            recs,
            vec![
                WalRecord::Samples(vec![(1, 1_000, 1.0)]),
                WalRecord::Samples(vec![(1, 3_000, 3.0)]),
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unrepaired_short_write_leaves_torn_tail_for_recovery() {
        let dir = std::env::temp_dir().join(format!("ceems-wal-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut wal = Wal::open_at(&dir, WalOptions::default(), WalPosition::default()).unwrap();
        wal.set_disk_faults(Arc::new(
            ScriptedDiskFaults::new()
                .with_short_write(1, 0.5)
                .leaving_torn_tails(),
        ));
        wal.log(&[WalRecord::Samples(vec![(1, 1_000, 1.0)])])
            .unwrap();
        let pos = wal.position();
        wal.log(&[WalRecord::Samples(vec![(1, 2_000, 2.0)])])
            .unwrap_err();
        drop(wal);
        let path = dir.join(segment_file_name(0));
        let len_with_tail = fs::metadata(&path).unwrap().len();
        assert!(len_with_tail > pos.offset, "torn bytes must be on disk");
        // Frame decoding stops at the torn frame...
        let data = fs::read(&path).unwrap();
        let (recs, consumed) = decode_frames(&data);
        assert_eq!(recs.len(), 1);
        assert_eq!(consumed as u64, pos.offset);
        // ...and re-opening at the valid prefix truncates the tail away.
        let wal = Wal::open_at(&dir, WalOptions::default(), pos).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), pos.offset);
        assert_eq!(wal.position(), pos);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_eio_fault_surfaces_and_clears() {
        let dir = std::env::temp_dir().join(format!("ceems-wal-eio-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let opts = WalOptions {
            segment_bytes: 4 << 20,
            fsync: FsyncMode::Always,
        };
        let mut wal = Wal::open_at(&dir, opts, WalPosition::default()).unwrap();
        wal.set_disk_faults(Arc::new(ScriptedDiskFaults::new().with_fsync_failures(1)));
        // Write succeeds, fsync fails: the record is on disk but not durable,
        // and the error reaches the caller to count.
        let err = wal
            .log(&[WalRecord::Samples(vec![(1, 1_000, 1.0)])])
            .unwrap_err();
        assert!(err.to_string().contains("fsync EIO"));
        // The schedule is exhausted; the next commit syncs cleanly.
        wal.log(&[WalRecord::Samples(vec![(1, 2_000, 2.0)])])
            .unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_segments_rotate_by_size() {
        let dir = std::env::temp_dir().join(format!("ceems-wal-rot-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let opts = WalOptions {
            segment_bytes: 256,
            fsync: FsyncMode::Never,
        };
        let mut wal = Wal::open_at(&dir, opts, WalPosition::default()).unwrap();
        for i in 0..100 {
            wal.log(&[WalRecord::Samples(vec![(i, i as i64 * 1000, 1.0)])])
                .unwrap();
        }
        assert!(wal.position().seq > 0, "must have rotated");
        assert_eq!(wal.position().records, 100);
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.last().unwrap().0, wal.position().seq);
        // Every segment replays; total records survive the split.
        let mut total = 0;
        for (_, path) in &segs {
            let data = fs::read(path).unwrap();
            let (recs, consumed) = decode_frames(&data);
            assert_eq!(consumed, data.len());
            total += recs.len();
        }
        assert_eq!(total, 100);
        let _ = fs::remove_dir_all(&dir);
    }

    fn store_of(samples: &[Sample]) -> SeriesStore {
        let mut store = SeriesStore::default();
        for &s in samples {
            store.append(s).unwrap();
        }
        store
    }

    /// A checkpoint of these series, numbered by a [`LabelIndex`] as
    /// `Tsdb::checkpoint` numbers them.
    fn checkpoint_of(series: Vec<(SeriesId, LabelSet, SeriesStore)>) -> Checkpoint {
        let mut idx = LabelIndex::new();
        for (id, labels, _) in &series {
            idx.insert_replayed(*id, labels);
        }
        let mut ckpt = idx.checkpoint();
        for ((_, _, store), (_, _, want)) in ckpt.series.iter_mut().zip(series) {
            *store = want;
        }
        ckpt
    }

    fn sample_checkpoint() -> Checkpoint {
        // Long enough to hold a closed chunk and an open one.
        let long: Vec<Sample> = (0..300)
            .map(|i| Sample::new(i * 15_000, i as f64))
            .collect();
        Checkpoint {
            covers_seq: 7,
            generation: 42,
            next_id: 4,
            appended: 100,
            out_of_order: 2,
            records: 55,
            epoch: 4,
            epoch_history: vec![
                EpochSpan {
                    epoch: 1,
                    start_records: 0,
                },
                EpochSpan {
                    epoch: 4,
                    start_records: 40,
                },
            ],
            ..checkpoint_of(vec![
                (
                    0,
                    labels! {"__name__" => "power"},
                    store_of(&[Sample::new(0, 1.0), Sample::new(15_000, 2.5)]),
                ),
                (2, labels! {"__name__" => "up"}, SeriesStore::default()),
                (
                    3,
                    labels! {"__name__" => "energy", "instance" => "n1"},
                    store_of(&long),
                ),
            ])
        }
    }

    /// `ckpt` as a file without a symbol table decodes: the same series and
    /// header, no table and no pairs.
    fn without_symbols(ckpt: &Checkpoint) -> Checkpoint {
        Checkpoint {
            symbols: Vec::new(),
            pairs: Vec::new(),
            ..ckpt.clone()
        }
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption() {
        let ckpt = sample_checkpoint();
        let bytes = encode_checkpoint(&ckpt);
        assert!(bytes.starts_with(b"CKPT3"));
        assert_eq!(decode_checkpoint(&bytes).unwrap(), ckpt);
        // Any flipped byte must fail the CRC.
        for i in [0, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_checkpoint(&bad).is_none(), "flip at {i} accepted");
        }
        assert!(decode_checkpoint(&bytes[..bytes.len() - 3]).is_none());
        assert!(decode_checkpoint(b"CKPT").is_none());
    }

    /// What a checkpoint writes of a series from its mark is what it would
    /// have written then, whatever was appended since: at every fill of the
    /// open chunk, with appends that OR bits into its last byte, push bytes
    /// after it and cut new chunks.
    #[test]
    fn a_series_written_at_its_mark_is_the_series_as_it_was() {
        let sample = |i: i64| Sample::new(i * 15_000 + i % 3, (i * i) as f64 / 7.0);
        let mut store = SeriesStore::default();
        for i in 0..(2 * 240 + 30) {
            store.append(sample(i)).unwrap();
            let mark = store.mark();
            let mut then = Vec::new();
            put_chunks(&mut then, &store);
            let mut later = store.clone();
            for j in 1..=40 {
                later.append(sample(i + j)).unwrap();
            }
            let mut at_mark = Vec::new();
            put_chunks_at(&mut at_mark, &later, mark);
            assert_eq!(at_mark, then, "fill {i}");
        }
        let mut empty = Vec::new();
        put_chunks_at(&mut empty, &store, SeriesStore::default().mark());
        assert_eq!(empty, [0]);
    }

    /// A series comes back from a checkpoint with one slot a chunk; a
    /// count its bytes cannot hold reserves no more than they could.
    #[test]
    fn a_restored_series_has_a_slot_a_chunk() {
        let samples: Vec<Sample> = (0..5 * 240 + 7)
            .map(|i| Sample::new(i * 15_000, (i % 11) as f64))
            .collect();
        let store = store_of(&samples);
        let mut bytes = Vec::new();
        put_chunks(&mut bytes, &store);
        let restored = read_chunks(&mut Reader::new(&bytes)).unwrap();
        assert_eq!((restored.chunk_count(), restored.chunk_slots()), (6, 6));
        assert_eq!(restored, store);

        let mut damaged = Vec::new();
        put_uvarint(&mut damaged, u64::MAX >> 2);
        damaged.extend_from_slice(&bytes[1..]);
        assert!(read_chunks(&mut Reader::new(&damaged)).is_none());
    }

    #[test]
    fn a_checkpoint_holds_chunk_bytes_not_samples() {
        let ckpt = sample_checkpoint();
        let bytes = encode_checkpoint(&ckpt);
        for (_, _, store) in &ckpt.series {
            for chunk in store.chunks() {
                let at = bytes
                    .windows(chunk.as_bytes().len())
                    .position(|w| w == chunk.as_bytes());
                assert!(
                    at.is_some(),
                    "a chunk's bytes are not in the file as they are"
                );
            }
        }
        // 302 samples took 11 bytes each in `CKPT1`.
        assert!(bytes.len() < 302 * 11 / 2, "{} bytes", bytes.len());
    }

    #[test]
    fn a_chunk_that_fails_the_checked_decode_invalidates_the_checkpoint() {
        let ckpt = sample_checkpoint();
        let bytes = encode_checkpoint(&ckpt);
        let open = ckpt.series[2].2.chunks().last().unwrap().as_bytes();
        let at = bytes.windows(open.len()).position(|w| w == open).unwrap();
        // The second sample's delta (a set bit, then 64 bits of zigzag after
        // two 64-bit fields), made negative: the CRC is made to agree, the
        // chunk does not decode.
        let mut bad = bytes.clone();
        bad[at + 24] ^= 0x80;
        fix_crc(&mut bad);
        assert!(decode_checkpoint(&bad).is_none());
        // Its sample count, too many for the zero padding to stand for.
        let mut bad = bytes.clone();
        assert_eq!(bad[at - 2], 60, "300 samples: a chunk of 240 and one of 60");
        bad[at - 2] = 64;
        fix_crc(&mut bad);
        assert!(decode_checkpoint(&bad).is_none());
        // The whole file decodes again once the byte is back.
        bad[at - 2] = 60;
        fix_crc(&mut bad);
        assert_eq!(decode_checkpoint(&bad).unwrap(), ckpt);
    }

    #[test]
    fn a_checkpoint_decodes_the_same_on_any_number_of_workers() {
        let long: Vec<Sample> = (0..300)
            .map(|i| Sample::new(i * 15_000, (i * i) as f64 / 7.0))
            .collect();
        let ckpt = checkpoint_of(
            (0..400)
                .map(|id| {
                    let labels = labels! {"__name__" => "energy", "instance" => format!("n{id}")};
                    (id * 3, labels, store_of(&long[..(id as usize * 7) % 300]))
                })
                .collect(),
        );
        let bytes = encode_checkpoint(&ckpt);
        let view = CheckpointView::parse(&bytes).unwrap();
        assert!(view.checks().len() > 8, "{} checks", view.checks().len());
        for workers in 1..=3 {
            assert_eq!(
                decode_checkpoint_on(&bytes, workers).as_ref(),
                Some(&ckpt),
                "{workers}"
            );
        }
        // A bad chunk in the last range, the CRC made to agree; a bad CRC.
        let last = ckpt
            .series
            .last()
            .unwrap()
            .2
            .chunks()
            .last()
            .unwrap()
            .as_bytes();
        let at = bytes.windows(last.len()).rposition(|w| w == last).unwrap();
        let mut bad_chunk = bytes.clone();
        bad_chunk[at + 24] ^= 0x80;
        fix_crc(&mut bad_chunk);
        let mut bad_crc = bytes.clone();
        *bad_crc.last_mut().unwrap() ^= 1;
        for workers in 1..=3 {
            assert_eq!(decode_checkpoint_on(&bad_chunk, workers), None, "{workers}");
            assert_eq!(decode_checkpoint_on(&bad_crc, workers), None, "{workers}");
        }
    }

    #[test]
    fn series_out_of_id_order_are_a_corrupt_checkpoint() {
        for ids in [[3, 2], [2, 2]] {
            let mut ckpt = sample_checkpoint();
            ckpt.series.truncate(2);
            ckpt.series[0].0 = ids[0];
            ckpt.series[1].0 = ids[1];
            assert_eq!(
                decode_checkpoint(&encode_checkpoint(&ckpt)),
                None,
                "{ids:?}"
            );
        }
    }

    /// A decoded checkpoint builds its label sets from the table's strings,
    /// one allocation each; the creates a log holds share theirs once the
    /// index registers them.
    #[test]
    fn a_decode_shares_each_label_string() {
        let ckpt = sample_checkpoint();
        let decoded = decode_checkpoint(&encode_checkpoint(&ckpt)).unwrap();
        let names: Vec<&str> = decoded
            .series
            .iter()
            .flat_map(|(_, l, _)| l.iter().map(|(k, _)| k))
            .collect();
        assert!(
            names
                .windows(2)
                .all(|w| w[0] != w[1] || std::ptr::eq(w[0], w[1])),
            "{names:?}"
        );
        let mut idx = LabelIndex::new();
        let mut buf = Vec::new();
        for rec in [&sample_records()[0], &sample_records()[0]] {
            encode_record(&mut buf, rec);
        }
        let (records, _) = decode_frames(&buf);
        for (id, rec) in records.iter().enumerate() {
            if let WalRecord::SeriesCreate { labels, .. } = rec {
                idx.insert_replayed(id as SeriesId, labels);
            }
        }
        let value = |id| idx.labels(id).unwrap().get("instance").unwrap().as_ptr();
        assert_eq!((idx.series_count(), value(0)), (2, value(1)));
    }

    #[test]
    fn each_label_string_is_written_once() {
        let ckpt = sample_checkpoint();
        let bytes = encode_checkpoint(&ckpt);
        let count = |s: &[u8]| bytes.windows(s.len()).filter(|w| w == &s).count();
        // `__name__` names a label of all three series, `instance` one.
        assert_eq!((count(b"__name__"), count(b"instance")), (1, 1));
        let v2 = encode_checkpoint_v2(&ckpt);
        assert_eq!(v2.windows(8).filter(|w| w == b"__name__").count(), 3);
        assert!(
            bytes.len() < v2.len(),
            "{} against {}",
            bytes.len(),
            v2.len()
        );
    }

    /// A `CKPT3` file of one series, its label pairs as these numbers into
    /// the table `table`, and no chunks.
    fn one_series_ckpt3(table: [&[u8]; 2], pairs: &[(u8, u8)]) -> Vec<u8> {
        let mut bytes = b"CKPT3".to_vec();
        bytes.extend_from_slice(&[0; 8]);
        bytes.push(2);
        for s in table {
            put_bytes(&mut bytes, s);
        }
        bytes.extend_from_slice(&[1, 0, pairs.len() as u8]);
        for &(name, value) in pairs {
            bytes.extend_from_slice(&[name, value]);
        }
        bytes.push(0);
        bytes.extend_from_slice(&crc32(&bytes).to_le_bytes());
        bytes
    }

    #[test]
    fn a_bad_symbol_or_index_is_a_corrupt_checkpoint() {
        let ckpt = decode_checkpoint(&one_series_ckpt3([b"a", b"b"], &[(0, 1)])).unwrap();
        assert_eq!(*ckpt.series[0].1, labels! {"a" => "b"});
        assert_eq!(ckpt.pairs, [0, 1]);
        let ckpt = decode_checkpoint(&one_series_ckpt3([b"a", b"b"], &[(0, 1), (1, 1)])).unwrap();
        assert_eq!(*ckpt.series[0].1, labels! {"a" => "b", "b" => "b"});
        for bad in [
            one_series_ckpt3([b"a", b"b"], &[(0, 2)]),
            one_series_ckpt3([b"a", b"b"], &[(9, 1)]),
            one_series_ckpt3([b"a", b"\xff"], &[(0, 1)]),
            // Names out of their order, and one name twice.
            one_series_ckpt3([b"a", b"b"], &[(1, 1), (0, 1)]),
            one_series_ckpt3([b"a", b"b"], &[(0, 1), (0, 0)]),
            // One used string under two numbers.
            one_series_ckpt3([b"a", b"a"], &[(0, 1)]),
        ] {
            assert_eq!(decode_checkpoint(&bad), None);
        }
        // A number no pair uses is free, whatever it holds.
        let ckpt = decode_checkpoint(&one_series_ckpt3([b"a", b"a"], &[(0, 0)])).unwrap();
        assert_eq!(*ckpt.series[0].1, labels! {"a" => "a"});
    }

    #[test]
    fn ckpt2_files_still_decode() {
        let ckpt = sample_checkpoint();
        let bytes = encode_checkpoint_v2(&ckpt);
        assert!(bytes.starts_with(b"CKPT2"));
        let ckpt = without_symbols(&ckpt);
        assert_eq!(decode_checkpoint(&bytes).unwrap(), ckpt);
        for workers in 1..=3 {
            assert_eq!(decode_checkpoint_on(&bytes, workers).as_ref(), Some(&ckpt));
        }
    }

    #[test]
    fn ckpt1_files_still_decode() {
        let ckpt = sample_checkpoint();
        let bytes = encode_checkpoint_v1(&ckpt);
        assert!(bytes.starts_with(b"CKPT1"));
        assert_eq!(decode_checkpoint(&bytes).unwrap(), without_symbols(&ckpt));
        assert!(bytes.len() > 2 * encode_checkpoint(&ckpt).len());
        // Samples out of time order are no series: the first series' second
        // delta, ivarint(15 000) = b0 ea 01, with zigzag's sign bit set.
        let mut bad = bytes.clone();
        let delta = bad
            .windows(3)
            .position(|w| w == [0xb0, 0xea, 0x01])
            .unwrap();
        bad[delta] ^= 0x01;
        fix_crc(&mut bad);
        assert!(decode_checkpoint(&bad).is_none());
    }

    /// The definition [`crc32`] is tested against: one byte at a step, each
    /// byte's eight bits shifted out one by one.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_the_bytewise_definition() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        // Every length around the eight-byte step, at every alignment of
        // the tail, over bytes that are not a pattern of the step.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for len in 0..=64 {
            for start in 0..8 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "len {len} at {start}");
            }
        }
        for len in [65, 255, 256, 1000, 4095, 4096] {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
        // Folded in piece by piece, at every cut of a stretch that crosses
        // the eight-byte step: the CRC of the whole.
        for cut in 0..=40 {
            let (a, b) = data[..40].split_at(cut);
            assert_eq!(crc32_update(crc32(a), b), crc32(&data[..40]), "cut {cut}");
        }
    }

    #[test]
    fn gc_removes_covered_files() {
        let dir = std::env::temp_dir().join(format!("ceems-wal-gc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for seq in 0..4u64 {
            fs::write(dir.join(segment_file_name(seq)), b"x").unwrap();
        }
        fs::write(dir.join(checkpoint_file_name(1)), b"old").unwrap();
        fs::write(dir.join("checkpoint-000000000003.ckpt.tmp"), b"torn").unwrap();
        gc_covered(&dir, 3).unwrap();
        let segs: Vec<u64> = list_segments(&dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(segs, vec![3]);
        assert!(list_checkpoints(&dir).unwrap().is_empty());
        assert!(!dir.join("checkpoint-000000000003.ckpt.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
