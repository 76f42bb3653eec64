//! The write head: per-series chunked storage with striped locking.
//!
//! Every series owns a deque of [`XorChunk`]s; the last one is the open
//! appender, cut when it reaches [`CHUNK_SAMPLES`]. Series are spread over
//! lock shards by id so concurrent scrape threads rarely contend — this is
//! the ingest hot path of the 1,400-node experiment.
//!
//! A read costs what it returns, not what is stored: the newest sample is
//! the open chunk's appender state, and a window near the head resumes
//! decoding at a copy of that state taken every [`RESUME_STRIDE`] appends.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use parking_lot::Mutex;

use crate::chunk::{CodecState, OutOfOrder, XorChunk};
use crate::types::{Sample, SeriesId};

/// Samples per chunk before cutting a new one (Prometheus uses 120; a
/// larger chunk compresses slightly better and is fine in memory).
pub const CHUNK_SAMPLES: u32 = 240;

/// Appends to the open chunk between two resume points. A window that starts
/// at most this many samples back decodes fewer than twice as many before
/// its first sample.
pub const RESUME_STRIDE: u32 = 16;

/// Storage of one series.
#[derive(Clone, Debug, Default)]
pub struct SeriesStore {
    chunks: VecDeque<XorChunk>,
    /// The open chunk's state at its last two multiples of
    /// [`RESUME_STRIDE`] samples, older first (its start until it has that
    /// many). Kept here, not on the chunk, so closed chunks carry none.
    resume: [CodecState; 2],
    /// Chunks retention dropped from the front: `chunks[i]` is the series'
    /// chunk number `dropped + i`, which is how a [`TailCursor`] names it.
    dropped: u64,
}

/// Two stores are equal when they hold the same chunks and resume points;
/// what was dropped before them is a reader's bookkeeping.
impl PartialEq for SeriesStore {
    fn eq(&self, other: &SeriesStore) -> bool {
        self.chunks == other.chunks && self.resume == other.resume
    }
}

/// Where a reader following a series stopped: after every sample it has
/// seen, at the codec state of the chunk it was in. Valid while no chunk is
/// dropped from the series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TailCursor {
    /// The series' `dropped` when the cursor was made.
    dropped: u64,
    /// The chunk number it is in.
    chunk: u64,
    state: CodecState,
}

impl SeriesStore {
    /// Appends a sample, cutting a new chunk when the open one is full.
    pub fn append(&mut self, s: Sample) -> Result<(), OutOfOrder> {
        self.append_grown(s).map(drop)
    }

    /// [`Self::append`], and the bytes the series grew by.
    fn append_grown(&mut self, s: Sample) -> Result<usize, OutOfOrder> {
        // Reject samples older than the series head (cheap global check).
        if let Some(last) = self.chunks.back() {
            if !last.is_empty() && s.t_ms < last.max_time() {
                return Err(OutOfOrder {
                    at: s.t_ms,
                    head: last.max_time(),
                });
            }
        }
        let need_new = match self.chunks.back() {
            None => true,
            Some(c) => c.len() >= CHUNK_SAMPLES,
        };
        if need_new {
            self.push_chunk(XorChunk::new());
            self.resume = Default::default();
        }
        let open = self
            .chunks
            .back_mut()
            .expect("an open chunk was just ensured");
        let before = open.byte_len();
        open.append(s)?;
        if open.len().is_multiple_of(RESUME_STRIDE) {
            self.resume = [self.resume[1], open.state()];
        }
        Ok(open.byte_len() - before)
    }

    /// Adds, after the chunks already here, the chunk that holds `n` samples
    /// in `bytes`: how a series comes back from a checkpoint, and the only
    /// way a chunk gets in that [`Self::append`] did not write. `None`
    /// (and nothing added) when the bytes fail the checked decode of
    /// [`XorChunk::from_encoded`], hold no sample, or start before the
    /// series' newest sample.
    pub fn push_encoded(&mut self, bytes: Vec<u8>, n: u32) -> Option<()> {
        let (chunk, resume) = XorChunk::from_encoded(bytes, n, RESUME_STRIDE)?;
        let after = self.chunks.back().map_or(i64::MIN, XorChunk::max_time);
        if chunk.is_empty() || chunk.min_time() < after {
            return None;
        }
        self.push_chunk(chunk);
        self.resume = resume;
        Some(())
    }

    /// A store with room for `n` chunks, for a checkpoint that says how
    /// many it holds.
    pub(crate) fn with_chunk_slots(n: usize) -> SeriesStore {
        SeriesStore {
            chunks: VecDeque::with_capacity(n),
            ..SeriesStore::default()
        }
    }

    /// Adds a chunk at the back. The first slot is reserved alone, where a
    /// deque's first push reserves four 88-byte chunks and most series
    /// never cut a second; later slots grow as the deque grows them, so a
    /// series of many chunks is not copied once per chunk.
    fn push_chunk(&mut self, chunk: XorChunk) {
        if self.chunks.capacity() == 0 {
            self.chunks.reserve_exact(1);
        }
        self.chunks.push_back(chunk);
    }

    /// The chunks, oldest first; the last one is open.
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = &XorChunk> {
        self.chunks.iter()
    }

    /// Every sample, in time order.
    pub fn iter(&self) -> impl Iterator<Item = Sample> + '_ {
        self.chunks.iter().flat_map(XorChunk::iter)
    }

    /// Samples with `tmin <= t <= tmax`, in time order. The open chunk is
    /// decoded from its newest resume point before `tmin`, a closed one from
    /// its start, and neither past the first sample after `tmax`.
    pub fn samples_in(&self, tmin: i64, tmax: i64) -> Vec<Sample> {
        let mut out = Vec::new();
        self.read_window(tmin, tmax, &mut out);
        out
    }

    /// [`Self::samples_in`] into `out`, and a cursor after every sample at
    /// or before `tmax`, for [`Self::read_on`] to go on from.
    pub fn read_window(&self, tmin: i64, tmax: i64, out: &mut Vec<Sample>) -> TailCursor {
        let mut cursor = TailCursor {
            dropped: self.dropped,
            chunk: self.dropped,
            state: CodecState::default(),
        };
        let resume = self.resume.iter().rev().find(|p| p.precedes(tmin));
        for (i, c) in self.chunks.iter().enumerate() {
            if c.min_time() > tmax {
                break;
            }
            cursor.chunk = self.dropped + i as u64;
            if c.max_time() < tmin {
                cursor.state = c.state();
                continue;
            }
            let open = i + 1 == self.chunks.len();
            cursor.state = resume.filter(|_| open).copied().unwrap_or_default();
            if !take(c, &mut cursor.state, tmin, tmax, out) {
                break;
            }
        }
        cursor
    }

    /// Goes on from `cursor`: the samples after it at or before `tmax` into
    /// `out`, decoding nothing it has passed. `false`, and nothing read,
    /// when chunks were dropped since the cursor was made.
    pub fn read_on(&self, cursor: &mut TailCursor, tmax: i64, out: &mut Vec<Sample>) -> bool {
        if cursor.dropped != self.dropped {
            return false;
        }
        let at = (cursor.chunk - self.dropped) as usize;
        for (i, c) in self.chunks.iter().enumerate().skip(at) {
            if i > at {
                cursor.chunk = self.dropped + i as u64;
                cursor.state = CodecState::default();
            }
            if !take(c, &mut cursor.state, i64::MIN, tmax, out) {
                break;
            }
        }
        true
    }

    /// Latest sample, if any. Decodes nothing.
    pub fn last_sample(&self) -> Option<Sample> {
        self.chunks.back().and_then(XorChunk::last)
    }

    /// Last sample with `tmin <= t <= tmax`: the newest one when the window
    /// reaches it (a read at `now`), else the end of [`Self::samples_in`].
    pub fn last_in(&self, tmin: i64, tmax: i64) -> Option<Sample> {
        let last = self.last_sample()?;
        match last.t_ms <= tmax {
            true => (last.t_ms >= tmin).then_some(last),
            false => self.samples_in(tmin, tmax).pop(),
        }
    }

    /// Drops whole chunks that end before `cutoff`; returns true when the
    /// series is left empty.
    pub fn drop_before(&mut self, cutoff: i64) -> bool {
        self.drop_counted(cutoff).0
    }

    /// Total stored samples.
    pub fn sample_count(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }

    /// Approximate compressed bytes held.
    pub fn byte_len(&self) -> usize {
        self.chunks.iter().map(|c| c.byte_len()).sum()
    }

    /// Chunk count (for tests).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Chunks the store has room for without growing.
    #[cfg(test)]
    pub(crate) fn chunk_slots(&self) -> usize {
        self.chunks.capacity()
    }

    /// What a checkpoint taken now needs of the series to write it later,
    /// while samples go on being appended: how many chunks it has, and how
    /// far the open one is filled.
    pub(crate) fn mark(&self) -> StoreMark {
        let open = self.chunks.back();
        let bytes = open.map_or(&[][..], XorChunk::as_bytes);
        StoreMark {
            chunks: self.chunks.len() as u32,
            samples: open.map_or(0, XorChunk::len),
            bytes: bytes.len() as u32,
            last: bytes.last().copied().unwrap_or(0),
        }
    }

    /// [`Self::drop_before`], and the bytes it dropped.
    fn drop_counted(&mut self, cutoff: i64) -> (bool, usize) {
        let mut dropped = 0;
        while let Some(front) = self.chunks.front() {
            if !front.is_empty() && front.max_time() < cutoff {
                dropped += front.byte_len();
                self.chunks.pop_front();
                self.dropped += 1;
            } else {
                break;
            }
        }
        (self.chunks.is_empty(), dropped)
    }
}

/// A series as a checkpoint cut it ([`SeriesStore::mark`]): its chunk
/// count, and the open chunk's sample count, byte length and last byte.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct StoreMark {
    /// Chunks the series had.
    pub(crate) chunks: u32,
    /// Samples of the last of them.
    pub(crate) samples: u32,
    /// Bytes of the last of them.
    pub(crate) bytes: u32,
    /// The last of those bytes: later appends OR bits into it.
    pub(crate) last: u8,
}

/// Reads `c` on from `state`: samples at or after `tmin` into `out`, `state`
/// moved past each sample taken. Stops before the first sample after `tmax`
/// and returns `false` there, `true` at the end of the chunk.
fn take(c: &XorChunk, state: &mut CodecState, tmin: i64, tmax: i64, out: &mut Vec<Sample>) -> bool {
    let mut it = c.iter_from(*state);
    if c.max_time() <= tmax {
        // All of it: the state to go on from is the appender's.
        out.extend(it.skip_while(|s| s.t_ms < tmin));
        *state = c.state();
        return true;
    }
    while let Some(s) = it.next() {
        if s.t_ms > tmax {
            return false;
        }
        *state = it.state();
        if s.t_ms >= tmin {
            out.push(s);
        }
    }
    true
}

/// Lock stripes of a [`Head`]: 4 to 64 measured the same under eight
/// concurrent writers.
pub(crate) const STRIPES: usize = 16;

/// Hashes a [`SeriesId`] with one multiplication. Ids are minted by the
/// database or read from its leader's log, never chosen by whoever sends
/// samples, so a map keyed by them needs no defence against keys made to
/// collide.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        // The table finds a bucket by the low bits, and a stripe's ids
        // share theirs: the product's mixed high half is folded onto them.
        let h = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One stripe's series, and their chunk bytes, kept as they change so a
/// scrape of the head's size reads sixteen numbers.
#[derive(Default)]
struct Stripe {
    series: HashMap<SeriesId, SeriesStore, BuildHasherDefault<IdHasher>>,
    bytes: usize,
}

impl Stripe {
    fn append(&mut self, id: SeriesId, s: Sample) -> Result<(), OutOfOrder> {
        self.bytes += self.series.entry(id).or_default().append_grown(s)?;
        Ok(())
    }

    fn remove(&mut self, id: SeriesId) {
        if let Some(store) = self.series.remove(&id) {
            self.bytes -= store.byte_len();
        }
    }
}

/// Striped series storage.
pub struct Head {
    shards: Vec<Mutex<Stripe>>,
}

impl Default for Head {
    fn default() -> Head {
        Head {
            shards: (0..STRIPES).map(|_| Mutex::default()).collect(),
        }
    }
}

impl Head {
    fn shard(&self, id: SeriesId) -> &Mutex<Stripe> {
        &self.shards[(id as usize) % self.shards.len()]
    }

    /// Appends those of `samples` whose stripe is worker `owner`'s of
    /// `owners` (each worker holds a run of neighbouring stripes), in the
    /// order given. It goes through them once per stripe, holding that
    /// stripe's lock, so the stripe's series are in cache while its samples
    /// go in. Returns how many samples were the worker's, and how many of
    /// those were in order and appended.
    pub(crate) fn append_owned(
        &self,
        owner: usize,
        owners: usize,
        samples: &[(SeriesId, i64, f64)],
    ) -> (u64, u64) {
        let (mut owned, mut appended) = (0, 0);
        for stripe in (0..STRIPES).filter(|s| s * owners / STRIPES == owner) {
            let mut series = self.shards[stripe].lock();
            let in_stripe = samples.iter().filter(|s| s.0 as usize % STRIPES == stripe);
            for &(id, t_ms, v) in in_stripe {
                owned += 1;
                appended += u64::from(series.append(id, Sample::new(t_ms, v)).is_ok());
            }
        }
        (owned, appended)
    }

    /// Appends to a series (creating it on first touch).
    pub fn append(&self, id: SeriesId, s: Sample) -> Result<(), OutOfOrder> {
        self.shard(id).lock().append(id, s)
    }

    /// Runs `f` on a series' store under its stripe's lock; on an empty
    /// store when the series has none.
    pub(crate) fn with_store<R>(&self, id: SeriesId, f: impl FnOnce(&SeriesStore) -> R) -> R {
        let stripe = self.shard(id).lock();
        match stripe.series.get(&id) {
            Some(store) => f(store),
            None => f(&SeriesStore::default()),
        }
    }

    /// Reads a series' samples in a range.
    pub fn read(&self, id: SeriesId, tmin: i64, tmax: i64) -> Vec<Sample> {
        self.with_store(id, |s| s.samples_in(tmin, tmax))
    }

    /// [`SeriesStore::read_window`] of a series; `None` (nothing read) when
    /// it has no samples yet.
    pub fn read_window(
        &self,
        id: SeriesId,
        tmin: i64,
        tmax: i64,
        out: &mut Vec<Sample>,
    ) -> Option<TailCursor> {
        let shard = self.shard(id).lock();
        Some(shard.series.get(&id)?.read_window(tmin, tmax, out))
    }

    /// [`SeriesStore::read_on`] of a series; `false` also when it is gone.
    pub fn read_on(
        &self,
        id: SeriesId,
        cursor: &mut TailCursor,
        tmax: i64,
        out: &mut Vec<Sample>,
    ) -> bool {
        let shard = self.shard(id).lock();
        shard.series.get(&id).is_some_and(|s| s.read_on(cursor, tmax, out))
    }

    /// Latest sample of a series.
    pub fn last_sample(&self, id: SeriesId) -> Option<Sample> {
        self.with_store(id, SeriesStore::last_sample)
    }

    /// Last sample of a series in `[tmin, tmax]`; see [`SeriesStore::last_in`].
    pub fn last_in(&self, id: SeriesId, tmin: i64, tmax: i64) -> Option<Sample> {
        self.with_store(id, |s| s.last_in(tmin, tmax))
    }

    /// Removes a series entirely.
    pub fn remove(&self, id: SeriesId) {
        self.shard(id).lock().remove(id);
    }

    /// Applies retention: drops chunks ending before `cutoff`, returning the
    /// ids of series that became empty (caller unregisters them).
    pub fn drop_before(&self, cutoff: i64) -> Vec<SeriesId> {
        let mut emptied = Vec::new();
        for shard in &self.shards {
            let stripe = &mut *shard.lock();
            let mut dropped = 0;
            let empty_ids: Vec<SeriesId> = stripe
                .series
                .iter_mut()
                .filter_map(|(&id, s)| {
                    let (empty, bytes) = s.drop_counted(cutoff);
                    dropped += bytes;
                    empty.then_some(id)
                })
                .collect();
            stripe.bytes -= dropped;
            for &id in &empty_ids {
                stripe.remove(id);
            }
            emptied.extend(empty_ids);
        }
        emptied
    }

    /// A copy of every series as it is stored, chunk bytes and all, sorted
    /// by id: what tests compare two heads by.
    #[cfg(test)]
    pub fn snapshot(&self) -> Vec<(SeriesId, SeriesStore)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let stripe = shard.lock();
            out.extend(stripe.series.iter().map(|(&id, s)| (id, s.clone())));
        }
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Puts a whole series in place (a checkpoint's), replacing what the id
    /// held.
    pub fn install(&self, id: SeriesId, store: SeriesStore) {
        let mut stripe = self.shard(id).lock();
        stripe.remove(id);
        stripe.bytes += store.byte_len();
        stripe.series.insert(id, store);
    }

    /// Total samples held.
    pub fn sample_count(&self) -> u64 {
        let stripe_samples = |s: &Mutex<Stripe>| -> u64 {
            s.lock().series.values().map(SeriesStore::sample_count).sum()
        };
        self.shards.iter().map(stripe_samples).sum()
    }

    /// Approximate compressed bytes held: each stripe's kept total.
    pub fn byte_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// [`Self::byte_len`] by a walk over every chunk, for tests to hold the
    /// kept totals to.
    #[cfg(test)]
    pub(crate) fn walked_byte_len(&self) -> usize {
        let stripe_bytes = |s: &Mutex<Stripe>| -> usize {
            s.lock().series.values().map(SeriesStore::byte_len).sum()
        };
        self.shards.iter().map(stripe_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The series a checkpoint of `s` restores: every chunk from its bytes
    /// and its count.
    pub fn rebuilt(s: &SeriesStore) -> SeriesStore {
        let mut out = SeriesStore::default();
        for c in s.chunks() {
            out.push_encoded(c.as_bytes().to_vec(), c.len()).expect("a chunk the head wrote");
        }
        out
    }

    #[test]
    fn chunk_cutting() {
        let mut s = SeriesStore::default();
        for i in 0..(CHUNK_SAMPLES as i64 * 2 + 10) {
            s.append(Sample::new(i * 1000, i as f64)).unwrap();
        }
        assert_eq!(s.chunk_count(), 3);
        assert_eq!(s.sample_count(), CHUNK_SAMPLES as u64 * 2 + 10);
    }

    #[test]
    fn range_reads_cross_chunks() {
        let mut s = SeriesStore::default();
        for i in 0..600i64 {
            s.append(Sample::new(i * 1000, i as f64)).unwrap();
        }
        let got = s.samples_in(239_000, 241_000);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].v, 239.0);
        assert_eq!(got[2].v, 241.0);
        assert_eq!(s.samples_in(10_000_000, 20_000_000).len(), 0);
        assert_eq!(s.last_sample().unwrap().v, 599.0);
    }

    /// Every fill of the open chunk, so every position of both resume
    /// points and the cut is crossed: tail windows and the newest sample
    /// must be what a decode from the first bit gives.
    #[test]
    fn tail_reads_at_every_fill_match_a_full_decode() {
        let mut s = SeriesStore::default();
        let mut all: Vec<Sample> = Vec::new();
        for i in 0..(CHUNK_SAMPLES as i64 * 2 + 40) {
            // Counter-like values; every seventh timestamp repeats.
            let sample = Sample::new((i - i / 7) * 15_000, (i * 150) as f64);
            s.append(sample).unwrap();
            all.push(sample);
            assert_eq!(s.last_sample(), Some(sample));
            // Resume points included: a restored series reads as cheaply.
            assert_eq!(rebuilt(&s), s, "fill {i}");
            for back in [0, 1, 2, 8, 15, 16, 17, 31, 32, 33, 48] {
                let tmin = sample.t_ms - back * 15_000;
                for tmax in [sample.t_ms, sample.t_ms - 15_000, i64::MAX] {
                    let want: Vec<Sample> = all
                        .iter()
                        .copied()
                        .filter(|x| x.t_ms >= tmin && x.t_ms <= tmax)
                        .collect();
                    assert_eq!(
                        s.samples_in(tmin, tmax),
                        want,
                        "fill {i}, window {tmin}..{tmax}"
                    );
                    assert_eq!(s.last_in(tmin, tmax), want.last().copied());
                }
            }
        }
        assert_eq!(s.chunk_count(), 3);
    }

    /// A window read once and then read on from its cursor, tick after
    /// tick, holds what a read of the whole window holds: across resume
    /// points and cuts, with samples past the window's end waiting for a
    /// later tick, and until retention drops a chunk under the cursor.
    #[test]
    fn reading_on_from_a_cursor_is_reading_the_window_again() {
        let mut s = SeriesStore::default();
        let (mut window, mut cursor, mut tmin) = (Vec::new(), None, 0);
        for i in 0..(CHUNK_SAMPLES as i64 * 2 + 60) {
            // A duplicate timestamp every eleventh sample.
            s.append(Sample::new((i - i / 11) * 1_000, i as f64))
                .unwrap();
            if i % 7 != 0 {
                continue;
            }
            // The window trails the newest sample by three seconds.
            let tmax = (i - i / 11) * 1_000 - 3_000;
            tmin = tmin.max(tmax - 30_000);
            match &mut cursor {
                None => cursor = Some(s.read_window(tmin, tmax, &mut window)),
                Some(c) => assert!(s.read_on(c, tmax, &mut window)),
            }
            window.retain(|x| x.t_ms >= tmin);
            assert_eq!(window, s.samples_in(tmin, tmax), "fill {i}");
        }
        let mut c = cursor.unwrap();
        assert!(!s.drop_before(230_000));
        assert!(!s.read_on(&mut c, i64::MAX, &mut window), "a chunk went");
    }

    #[test]
    fn a_rebuilt_series_goes_on_as_the_original() {
        let mut original = SeriesStore::default();
        for i in 0..(CHUNK_SAMPLES as i64 * 2 + 50) {
            original.append(Sample::new(i * 15_000, (i * 150) as f64)).unwrap();
        }
        let mut restored = rebuilt(&original);
        // Through the cut of the open chunk and well into the next one.
        for i in (CHUNK_SAMPLES as i64 * 2 + 50)..(CHUNK_SAMPLES as i64 * 3 + 40) {
            let s = Sample::new(i * 15_000, (i * 150) as f64);
            original.append(s).unwrap();
            restored.append(s).unwrap();
            assert_eq!(restored, original, "at {i}");
        }
        assert_eq!(restored.chunk_count(), 4);
        assert!(restored.append(Sample::new(0, 0.0)).is_err());
        assert_eq!(restored.iter().count() as u64, restored.sample_count());
    }

    /// A series' first chunk gets one slot; after it the slots grow as a
    /// deque grows them, appended or rebuilt from a checkpoint's chunks, so
    /// a series of many chunks moves a handful of times, not once a chunk.
    #[test]
    fn chunk_slots_grow_by_doubling_past_the_first() {
        const CHUNKS: usize = 48;
        let mut s = SeriesStore::default();
        let mut moves = 0;
        for i in 0..(CHUNK_SAMPLES as i64 * CHUNKS as i64) {
            let slots = s.chunk_slots();
            s.append(Sample::new(i * 15_000, (i % 7) as f64)).unwrap();
            moves += usize::from(s.chunk_slots() != slots);
            if i == 0 {
                assert_eq!(s.chunk_slots(), 1);
            }
        }
        assert_eq!(s.chunk_count(), CHUNKS);
        let most = 2 + CHUNKS.ilog2() as usize;
        assert!(moves <= most, "{moves} moves for {CHUNKS} chunks appended");

        let mut restored = SeriesStore::default();
        let mut moves = 0;
        for c in s.chunks() {
            let slots = restored.chunk_slots();
            restored.push_encoded(c.as_bytes().to_vec(), c.len()).unwrap();
            moves += usize::from(restored.chunk_slots() != slots);
        }
        assert_eq!(restored, s);
        assert!(moves <= most, "{moves} moves for {CHUNKS} chunks pushed");
    }

    #[test]
    fn chunks_that_are_no_series_are_not_pushed() {
        let chunk_of = |range: std::ops::Range<i64>| {
            let mut c = XorChunk::new();
            for i in range {
                c.append(Sample::new(i * 1000, 1.0)).unwrap();
            }
            (c.as_bytes().to_vec(), c.len())
        };
        let mut s = SeriesStore::default();
        let (bytes, n) = chunk_of(10..20);
        s.push_encoded(bytes, n).unwrap();
        // Empty; starting before the newest sample; not a chunk at all.
        assert!(s.push_encoded(Vec::new(), 0).is_none());
        let (bytes, n) = chunk_of(18..30);
        assert!(s.push_encoded(bytes, n).is_none());
        assert!(s.push_encoded(vec![0xff; 40], 3).is_none());
        assert_eq!((s.chunk_count(), s.sample_count()), (1, 10));
        // Starting at the newest sample's time is in order (duplicates are).
        let (bytes, n) = chunk_of(19..30);
        s.push_encoded(bytes, n).unwrap();
        assert_eq!(s.samples_in(19_000, 19_000).len(), 2);
        assert_eq!(s.last_sample(), Some(Sample::new(29_000, 1.0)));
    }

    #[test]
    fn out_of_order_rejected_across_chunks() {
        let mut s = SeriesStore::default();
        for i in 0..(CHUNK_SAMPLES as i64 + 1) {
            s.append(Sample::new(i * 1000, 0.0)).unwrap();
        }
        assert!(s.append(Sample::new(0, 0.0)).is_err());
    }

    #[test]
    fn retention_drops_whole_chunks() {
        let mut s = SeriesStore::default();
        for i in 0..600i64 {
            s.append(Sample::new(i * 1000, 0.0)).unwrap();
        }
        assert_eq!(s.chunk_count(), 3);
        // Cutoff midway through the second chunk: only the first is dropped.
        assert!(!s.drop_before(300_000));
        assert_eq!(s.chunk_count(), 2);
        // Everything before a far-future cutoff: series emptied.
        assert!(s.drop_before(i64::MAX));
        assert_eq!(s.sample_count(), 0);
    }

    #[test]
    fn head_concurrent_appends() {
        let head = std::sync::Arc::new(Head::default());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let head = head.clone();
                scope.spawn(move || {
                    for i in 0..1000i64 {
                        head.append(t, Sample::new(i, i as f64)).unwrap();
                    }
                });
            }
        });
        assert_eq!(head.sample_count(), 8000);
        assert_eq!(head.read(3, 0, 10).len(), 11);
        assert_eq!(head.last_sample(3).unwrap().t_ms, 999);
        assert!(head.byte_len() > 0);
    }

    #[test]
    fn head_remove_and_retention() {
        let head = Head::default();
        head.append(1, Sample::new(1000, 1.0)).unwrap();
        head.append(2, Sample::new(500_000, 1.0)).unwrap();
        head.remove(1);
        assert!(head.read(1, 0, i64::MAX).is_empty());
        let emptied = head.drop_before(i64::MAX);
        assert_eq!(emptied, vec![2]);
        assert_eq!(head.sample_count(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn bits(samples: &[Sample]) -> Vec<(i64, u64)> {
        samples.iter().map(|s| (s.t_ms, s.v.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `samples_in` is the filter over a decode from the first bit, and
        /// `last_in` / `last_sample` its last element: over series with
        /// duplicate timestamps, irregular deltas and any float, long
        /// enough to cut chunks, and windows that are empty, before the
        /// first sample, past the last, inside one stride or across a cut.
        #[test]
        fn windowed_reads_match_a_full_decode(
            start in -1_000_000i64..1_000_000,
            steps in proptest::collection::vec((0u8..4, 1i64..200_000), 0..600),
            values in proptest::collection::vec(proptest::num::f64::ANY, 600),
            windows in proptest::collection::vec((0usize..640, -1i64..2, 0usize..640, -1i64..2), 24),
        ) {
            let mut store = SeriesStore::default();
            let mut t = start;
            for (&(kind, delta), &v) in steps.iter().zip(&values) {
                t += match kind {
                    0 => 0,
                    1 => 15_000,
                    _ => delta,
                };
                store.append(Sample::new(t, v)).unwrap();
            }
            let all: Vec<Sample> = store.chunks.iter().flat_map(XorChunk::iter).collect();
            prop_assert_eq!(all.len(), steps.len());
            prop_assert_eq!(bits(&store.samples_in(i64::MIN, i64::MAX)), bits(&all));
            prop_assert_eq!(
                store.last_sample().map(|s| (s.t_ms, s.v.to_bits())),
                bits(&all).last().copied()
            );

            // An index past the end names a time past the last sample.
            let time_at = |i: usize, nudge: i64| match all.get(i) {
                Some(s) => s.t_ms + nudge,
                None => t + 1 + i as i64 + nudge,
            };
            let fixed = [(i64::MIN, start - 1), (t + 1, i64::MAX), (i64::MIN, i64::MAX), (t, t)];
            let drawn = windows.iter().map(|&(a, da, b, db)| (time_at(a, da), time_at(b, db)));
            for (tmin, tmax) in drawn.chain(fixed) {
                let want: Vec<Sample> = all
                    .iter()
                    .copied()
                    .filter(|s| s.t_ms >= tmin && s.t_ms <= tmax)
                    .collect();
                prop_assert_eq!(bits(&store.samples_in(tmin, tmax)), bits(&want));
                prop_assert_eq!(
                    store.last_in(tmin, tmax).map(|s| (s.t_ms, s.v.to_bits())),
                    bits(&want).last().copied()
                );
            }
            prop_assert_eq!(super::tests::rebuilt(&store), store);
        }
    }
}
