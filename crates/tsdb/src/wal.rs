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
//!   series at a rotation boundary: a symbol table with each distinct label
//!   string once, then per series its label pairs as indices into it and
//!   its chunks byte for byte as the head holds them, written tmp+rename.
//!   Recovery loads the newest checkpoint whose CRC, symbol indices and
//!   chunks all check out and replays only the segments after it; covered
//!   segments and older checkpoints are garbage-collected.
//! * **Positions** ([`WalPosition`]) — `(segment, byte offset, record
//!   count)` triples; followers stream segment bytes from a position, and
//!   the load balancer compares record counts as a staleness signal.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ceems_metrics::labels::LabelSet;
use ceems_relstore::log::{self, numbered, write_durable, LogEnd, Record};

use crate::head::SeriesStore;
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

    /// A label count and that many name/value pairs, each string shared
    /// through `names`.
    fn label_set(&mut self, names: &mut Interner) -> Option<LabelSet> {
        let n = self.uvarint()? as usize;
        // A pair is at least two bytes.
        let mut pairs = Vec::with_capacity(n.min(self.remaining() / 2));
        for _ in 0..n {
            let k = names.get(self.string()?);
            pairs.push((k, names.get(self.string()?)));
        }
        Some(LabelSet::from_shared(pairs))
    }

    /// A symbol count and that many strings, each shared through `names`.
    fn symbols(&mut self, names: &mut Interner) -> Option<Vec<Arc<str>>> {
        let n = self.uvarint()? as usize;
        // A symbol is at least one byte.
        let mut symbols = Vec::with_capacity(n.min(self.remaining()));
        for _ in 0..n {
            symbols.push(names.get(self.string()?));
        }
        Some(symbols)
    }

    /// A label count and that many name/value pairs, each an index into
    /// `symbols`; `None` for an index past them.
    fn label_set_of(&mut self, symbols: &[Arc<str>]) -> Option<LabelSet> {
        let n = self.uvarint()? as usize;
        // A pair is at least two bytes.
        let mut pairs = Vec::with_capacity(n.min(self.remaining() / 2));
        for _ in 0..n {
            let k = self.symbol(symbols)?;
            pairs.push((k, self.symbol(symbols)?));
        }
        Some(LabelSet::from_shared(pairs))
    }

    fn symbol(&mut self, symbols: &[Arc<str>]) -> Option<Arc<str>> {
        let i = usize::try_from(self.uvarint()?).ok()?;
        symbols.get(i).cloned()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet read: the most any count still to come can stand for.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// One shared copy of every label name and value a decode has met: a
/// restart reads `__name__` or a node's `instance` once per series, and
/// keeps one allocation of it.
#[derive(Default)]
pub(crate) struct Interner(HashSet<Arc<str>>);

impl Interner {
    fn get(&mut self, s: &str) -> Arc<str> {
        if let Some(shared) = self.0.get(s) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(s);
        self.0.insert(Arc::clone(&shared));
        shared
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
/// Label strings come from `names`.
fn decode_payload(payload: &[u8], names: &mut Interner) -> Option<WalRecord> {
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
        TAG_SERIES_CREATE => WalRecord::SeriesCreate {
            id: r.uvarint()?,
            labels: r.label_set(names)?,
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
    let mut names = Interner::default();
    while let Some((payload, len)) = log::next_frame(&buf[pos..]) {
        let Some(rec) = decode_payload(payload, &mut names) else {
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

/// What [`encode_checkpoint`] writes: each distinct label string once, in
/// a symbol table, and each series' chunks as the head holds them.
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
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Segments with `seq < covers_seq` are fully contained in this
    /// checkpoint and can be garbage-collected.
    pub covers_seq: u64,
    /// Index generation at snapshot time, restored exactly so posting-cache
    /// invalidation survives a restart.
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
    /// Every live series: id, labels, and its chunks as the head holds
    /// them. On disk a chunk is its sample count and its encoded bytes; a
    /// decoded checkpoint's chunks have all passed
    /// [`SeriesStore::push_encoded`].
    pub series: Vec<(SeriesId, Arc<LabelSet>, SeriesStore)>,
}

/// Serializes a checkpoint: magic, varint-packed header, the symbol table
/// (a count, then each distinct label string length-prefixed, in first-use
/// order), the series (id, label count, a name and a value index per pair,
/// chunks), and a trailing CRC32 over everything before it.
pub fn encode_checkpoint(ckpt: &Checkpoint) -> Vec<u8> {
    let symbols = Symbols::of(&ckpt.series);
    // Sized up front: growing a multi-megabyte buffer by doubling copies it
    // several times over and holds twice its size at the peak. An index
    // takes at most three bytes below 2^21 strings.
    let table_bytes: usize = symbols.strings.iter().map(|s| s.len() + 2).sum();
    let series_bytes: usize = ckpt
        .series
        .iter()
        .map(|(_, labels, store)| {
            32 + 6 * labels.len() + store.byte_len() + 8 * store.chunks().len()
        })
        .sum();
    let mut out = Vec::with_capacity(128 + table_bytes + series_bytes);
    put_header(&mut out, CKPT_MAGIC, ckpt);
    put_uvarint(&mut out, symbols.strings.len() as u64);
    for s in &symbols.strings {
        put_bytes(&mut out, s.as_bytes());
    }
    let mut indices = symbols.indices.iter();
    put_uvarint(&mut out, ckpt.series.len() as u64);
    for (id, labels, store) in &ckpt.series {
        put_uvarint(&mut out, *id);
        put_uvarint(&mut out, labels.len() as u64);
        for &i in indices.by_ref().take(2 * labels.len()) {
            put_uvarint(&mut out, u64::from(i));
        }
        put_chunks(&mut out, store);
    }
    put_crc(&mut out);
    out
}

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
fn put_crc(out: &mut Vec<u8>) {
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// A series' chunks: their count, then each one's sample count and bytes.
fn put_chunks(out: &mut Vec<u8>, store: &SeriesStore) {
    let chunks = store.chunks();
    put_uvarint(out, chunks.len() as u64);
    for chunk in chunks {
        put_uvarint(out, chunk.len() as u64);
        put_bytes(out, chunk.as_bytes());
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

/// Every distinct label string of a checkpoint's series in first-use
/// order, and each label pair as two indices into them.
struct Symbols<'a> {
    strings: Vec<&'a str>,
    /// A name and a value index per pair, series after series.
    indices: Vec<u32>,
}

impl<'a> Symbols<'a> {
    /// At most one map lookup per label string: a series mostly shares its
    /// target's labels with the one before it (ids are handed out a payload
    /// at a time), so a pair is first compared with that series' pair in
    /// the same place, and its index taken from there when they agree. On
    /// the end-to-end benchmark's workloads that settles three strings in
    /// four, and the pass takes 55–70 % of the time a lookup of every
    /// string does.
    fn of(series: &'a [(SeriesId, Arc<LabelSet>, SeriesStore)]) -> Symbols<'a> {
        let pairs: usize = series.iter().map(|(_, labels, _)| labels.len()).sum();
        let mut numbered = HashMap::<&str, u32>::new();
        let mut strings = Vec::new();
        let mut index = |s: &'a str| {
            let next = strings.len() as u32;
            *numbered.entry(s).or_insert_with(|| {
                strings.push(s);
                next
            })
        };
        let mut indices = Vec::with_capacity(2 * pairs);
        // The previous series' pairs and their indices, and this one's.
        let (mut before, mut this) = (Vec::new(), Vec::new());
        for (_, labels, _) in series {
            this.clear();
            for (at, (k, v)) in labels.iter().enumerate() {
                let same = before.get(at);
                let k_at = match same {
                    Some(&(name, _, i, _)) if name == k => i,
                    _ => index(k),
                };
                let v_at = match same {
                    Some(&(_, value, _, i)) if value == v => i,
                    _ => index(v),
                };
                indices.extend([k_at, v_at]);
                this.push((k, v, k_at, v_at));
            }
            std::mem::swap(&mut before, &mut this);
        }
        Symbols { strings, indices }
    }
}

/// A series' chunks as `CKPT3` and `CKPT2` hold them, each through the
/// checked decode.
fn read_chunks(r: &mut Reader<'_>) -> Option<SeriesStore> {
    let mut store = SeriesStore::default();
    for _ in 0..r.uvarint()? {
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

/// A checkpoint taken apart for workers: the header and every series' id
/// and labels decoded (a `CKPT3` file's label sets built from its symbol
/// table, no string hashed but the table's), each series' samples found but
/// not decoded. Nothing in it holds before [`Self::crc_ok`] and every
/// [`Self::store`] say so.
pub(crate) struct CheckpointView<'a> {
    /// The checkpoint's fields; its `series` is empty.
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
    /// Reads checkpoint bytes of any format up to each series' samples,
    /// label strings (a `CKPT3` file's symbol table) through `names`. `None`
    /// when what it reads is not a checkpoint: among others, a symbol that
    /// is not UTF-8 or an index past the table. A count read from the bytes
    /// reserves no more than the bytes left could hold (a symbol is at least
    /// one byte, a span or a label pair two, a series three). Every writer
    /// of every format put the series in ascending id order
    /// (`Tsdb::checkpoint` over the index's sorted series); a file with an
    /// id out of that order is corrupt.
    pub(crate) fn parse(bytes: &'a [u8], names: &mut Interner) -> Option<CheckpointView<'a>> {
        let (body, tail) = bytes.split_at(bytes.len().checked_sub(4)?);
        let (format, has_symbols) = match body.get(..CKPT_MAGIC.len())? {
            magic if magic == CKPT_MAGIC => (&CHUNK_SAMPLES, true),
            magic if magic == CKPT2_MAGIC => (&CHUNK_SAMPLES, false),
            magic if magic == CKPT1_MAGIC => (&CKPT1_SAMPLES, false),
            _ => return None,
        };
        let mut r = Reader::new(&body[CKPT_MAGIC.len()..]);
        let covers_seq = r.uvarint()?;
        let generation = r.uvarint()?;
        let next_id = r.uvarint()?;
        let appended = r.uvarint()?;
        let out_of_order = r.uvarint()?;
        let records = r.uvarint()?;
        let epoch = r.uvarint()?;
        let n_spans = r.uvarint()? as usize;
        let mut epoch_history = Vec::with_capacity(n_spans.min(r.remaining() / 2));
        for _ in 0..n_spans {
            epoch_history.push(EpochSpan {
                epoch: r.uvarint()?,
                start_records: r.uvarint()?,
            });
        }
        let symbols = if has_symbols {
            Some(r.symbols(names)?)
        } else {
            None
        };
        let n_series = r.uvarint()? as usize;
        let mut series: Vec<(SeriesId, Arc<LabelSet>)> =
            Vec::with_capacity(n_series.min(r.remaining() / 3));
        let mut samples = Vec::with_capacity(series.capacity());
        for _ in 0..n_series {
            let id = r.uvarint()?;
            if series.last().is_some_and(|(before, _)| *before >= id) {
                return None;
            }
            let labels = match &symbols {
                Some(symbols) => r.label_set_of(symbols)?,
                None => r.label_set(names)?,
            };
            series.push((id, Arc::new(labels)));
            let start = r.pos;
            (format.skip)(&mut r)?;
            samples.push(&r.buf[start..r.pos]);
        }
        let header = Checkpoint {
            covers_seq,
            generation,
            next_id,
            appended,
            out_of_order,
            records,
            epoch,
            epoch_history,
            series: Vec::new(),
        };
        r.done().then_some(CheckpointView {
            header,
            series,
            samples,
            format,
            body,
            crc: u32::from_le_bytes(tail.try_into().ok()?),
        })
    }

    /// Whether the trailing CRC is that of the bytes before it.
    pub(crate) fn crc_ok(&self) -> bool {
        crc32(self.body) == self.crc
    }

    /// Series `i`'s samples through the checked decode.
    pub(crate) fn store(&self, i: usize) -> Option<SeriesStore> {
        let mut r = Reader::new(self.samples[i]);
        let store = (self.format.read)(&mut r)?;
        r.done().then_some(store)
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
    let view = CheckpointView::parse(bytes, &mut Interner::default())?;
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

/// Writes a checkpoint durably: temp file, fsync, atomic rename, directory
/// sync. A crash at any point leaves either the old state or the new one.
pub fn write_checkpoint(dir: &Path, ckpt: &Checkpoint) -> io::Result<PathBuf> {
    let path = dir.join(checkpoint_file_name(ckpt.covers_seq));
    write_durable(&path, &encode_checkpoint(ckpt))?;
    Ok(path)
}

/// Loads the newest checkpoint that validates, skipping corrupt or
/// truncated ones (a crash mid-checkpoint leaves a `.tmp` that is never
/// considered, but defense in depth costs nothing).
pub fn load_latest_checkpoint(dir: &Path) -> io::Result<Option<Checkpoint>> {
    for (_, path) in list_checkpoints(dir)?.into_iter().rev() {
        if let Some(ckpt) = decode_checkpoint(&fs::read(&path)?) {
            return Ok(Some(ckpt));
        }
    }
    Ok(None)
}

/// Where the log in `dir` starts: the segment the newest valid checkpoint
/// covers up to, with the records it holds; the very beginning without one.
pub(crate) fn log_start(dir: &Path) -> io::Result<WalPosition> {
    Ok(
        load_latest_checkpoint(dir)?.map_or_else(WalPosition::default, |c| WalPosition {
            seq: c.covers_seq,
            offset: 0,
            records: c.records,
        }),
    )
}

/// Walks the log in `dir` as recovery reads it ([`log::walk`]): every
/// segment from `start.seq` on (see [`log_start`]), each frame's CRC and
/// payload checked. The log ends at the first frame that fails. `visit`
/// sees each record with the position its frame starts at; label strings
/// come from `names`.
pub(crate) fn walk_log(
    dir: &Path,
    start: WalPosition,
    names: &mut Interner,
    mut visit: impl FnMut(WalPosition, WalRecord),
) -> io::Result<LogEnd> {
    log::walk(dir, start, |at, payload| {
        decode_payload(payload, names)
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
    let end = walk_log(dir, start, &mut Interner::default(), |at, _| {
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
            series: vec![
                (
                    0,
                    Arc::new(labels! {"__name__" => "power"}),
                    store_of(&[Sample::new(0, 1.0), Sample::new(15_000, 2.5)]),
                ),
                (
                    2,
                    Arc::new(labels! {"__name__" => "up"}),
                    SeriesStore::default(),
                ),
                (
                    3,
                    Arc::new(labels! {"__name__" => "energy", "instance" => "n1"}),
                    store_of(&long),
                ),
            ],
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
        let mut ckpt = sample_checkpoint();
        ckpt.series = (0..400)
            .map(|id| {
                let labels = labels! {"__name__" => "energy", "instance" => format!("n{id}")};
                (
                    id * 3,
                    Arc::new(labels),
                    store_of(&long[..(id as usize * 7) % 300]),
                )
            })
            .collect();
        let bytes = encode_checkpoint(&ckpt);
        let view = CheckpointView::parse(&bytes, &mut Interner::default()).unwrap();
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
        let (records, _) = decode_frames(&{
            let mut buf = Vec::new();
            for rec in sample_records().iter().chain(&sample_records()) {
                encode_record(&mut buf, rec);
            }
            buf
        });
        let creates: Vec<&LabelSet> = records
            .iter()
            .filter_map(|r| match r {
                WalRecord::SeriesCreate { labels, .. } => Some(labels),
                _ => None,
            })
            .collect();
        let value = |l: &LabelSet| l.get("instance").unwrap().as_ptr();
        assert_eq!((creates.len(), value(creates[0])), (2, value(creates[1])));
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

    proptest::proptest! {
        /// Whatever labels neighbours share, and in whichever places, the
        /// symbol pass holds each string once and its indices give back
        /// every pair: the neighbour comparison agrees with a lookup.
        #[test]
        fn the_symbol_table_holds_each_string_once_and_gives_back_every_pair(
            sets in proptest::collection::vec(
                proptest::collection::btree_map(0u8..6, 0u8..4, 0..5),
                0..40,
            ),
        ) {
            let series: Vec<_> = sets
                .iter()
                .enumerate()
                .map(|(id, set)| {
                    let pairs = set.iter().map(|(k, v)| (format!("k{k}"), format!("v{v}")));
                    (id as SeriesId, Arc::new(LabelSet::from_pairs(pairs)), SeriesStore::default())
                })
                .collect();
            let symbols = Symbols::of(&series);
            let distinct: HashSet<&str> = symbols.strings.iter().copied().collect();
            proptest::prop_assert_eq!(distinct.len(), symbols.strings.len());
            let mut indices = symbols.indices.iter().map(|&i| symbols.strings[i as usize]);
            for (_, labels, _) in &series {
                for (k, v) in labels.iter() {
                    proptest::prop_assert_eq!(indices.next(), Some(k));
                    proptest::prop_assert_eq!(indices.next(), Some(v));
                }
            }
            proptest::prop_assert_eq!(indices.next(), None);
        }
    }

    /// A `CKPT3` file of one series, `{a="b"}` as indices `name`, `value`
    /// into the table `["a", "b"]`, and no chunks.
    fn one_series_ckpt3(table: [&[u8]; 2], name: u8, value: u8) -> Vec<u8> {
        let mut bytes = b"CKPT3".to_vec();
        bytes.extend_from_slice(&[0; 8]);
        bytes.push(2);
        for s in table {
            put_bytes(&mut bytes, s);
        }
        bytes.extend_from_slice(&[1, 0, 1, name, value, 0]);
        bytes.extend_from_slice(&crc32(&bytes).to_le_bytes());
        bytes
    }

    #[test]
    fn a_bad_symbol_or_index_is_a_corrupt_checkpoint() {
        let ckpt = decode_checkpoint(&one_series_ckpt3([b"a", b"b"], 0, 1)).unwrap();
        assert_eq!(*ckpt.series[0].1, labels! {"a" => "b"});
        assert_eq!(
            decode_checkpoint(&one_series_ckpt3([b"a", b"b"], 0, 2)),
            None
        );
        assert_eq!(
            decode_checkpoint(&one_series_ckpt3([b"a", b"b"], 9, 1)),
            None
        );
        assert_eq!(
            decode_checkpoint(&one_series_ckpt3([b"a", b"\xff"], 0, 1)),
            None
        );
    }

    #[test]
    fn ckpt2_files_still_decode() {
        let ckpt = sample_checkpoint();
        let bytes = encode_checkpoint_v2(&ckpt);
        assert!(bytes.starts_with(b"CKPT2"));
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
        assert_eq!(decode_checkpoint(&bytes).unwrap(), ckpt);
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
