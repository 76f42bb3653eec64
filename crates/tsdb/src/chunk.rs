//! Gorilla-style chunk compression.
//!
//! Timestamps are stored as delta-of-delta with the Prometheus prefix
//! codes; values use Facebook Gorilla's XOR scheme. Monitoring data — a
//! fixed scrape interval and slowly moving values — compresses to a couple
//! of bits per sample, which is what lets one Prometheus host ingest a
//! 1,400-node fleet.

use crate::types::Sample;

/// Append-only bit writer.
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits used in the last byte (0..=8; 0 means byte boundary).
    used: u8,
    /// Every `(v, n)` written, for replay into the per-bit reference.
    #[cfg(test)]
    written: Vec<(u64, u8)>,
}

/// Equal streams; what a test build records beside them is not compared.
impl PartialEq for BitWriter {
    fn eq(&self, other: &BitWriter) -> bool {
        self.bytes == other.bytes && self.used == other.used
    }
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// A writer that goes on after the first `bit_len` bits of `bytes`.
    /// `None` unless those bits end in the last byte and the rest of it is
    /// zero, as a writer leaves it: later writes are OR-ed in.
    fn resume(bytes: Vec<u8>, bit_len: usize) -> Option<BitWriter> {
        if bit_len.div_ceil(8) != bytes.len() {
            return None;
        }
        let used = (bit_len - bytes.len().saturating_sub(1) * 8) as u8;
        if bytes.last().is_some_and(|last| used < 8 && last & (0xff >> used) != 0) {
            return None;
        }
        Some(BitWriter {
            bytes,
            used,
            #[cfg(test)]
            written: Vec::new(),
        })
    }

    /// Writes one bit.
    pub fn write_bit(&mut self, bit: bool) {
        #[cfg(test)]
        self.written.push((bit as u64, 1));
        if self.used == 0 || self.used == 8 {
            self.bytes.push(0);
            self.used = 0;
        }
        if bit {
            let last = self.bytes.len() - 1;
            self.bytes[last] |= 1 << (7 - self.used);
        }
        self.used += 1;
    }

    /// Writes the low `n` bits of `v`, most-significant first: what fits is
    /// OR-ed into the last byte, the rest appended as the whole bytes of
    /// one big-endian word.
    pub fn write_bits(&mut self, v: u64, n: u8) {
        debug_assert!(n <= 64);
        #[cfg(test)]
        self.written.push((v, n));
        let mut left = n;
        let free = if self.bytes.is_empty() {
            0
        } else {
            8 - self.used
        };
        if free > 0 && left > 0 {
            let take = free.min(left);
            // The first `take` of the `n` bits, right-aligned.
            let bits = ((v >> (left - take)) & ((1u64 << take) - 1)) as u8;
            let last = self.bytes.len() - 1;
            self.bytes[last] |= bits << (free - take);
            self.used += take;
            left -= take;
        }
        if left > 0 {
            // The low `left` bits of `v`, left-aligned: the bits above them
            // are shifted out.
            let word = (v << (64 - left)).to_be_bytes();
            let whole = left.div_ceil(8);
            self.bytes.extend_from_slice(&word[..whole as usize]);
            self.used = left - (whole - 1) * 8;
        }
    }

    /// Total bits written.
    pub fn bit_len(&self) -> usize {
        if self.bytes.is_empty() {
            0
        } else {
            (self.bytes.len() - 1) * 8 + self.used as usize
        }
    }

    /// Byte view of the stream.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Sequential bit reader.
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Reader over a byte stream.
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos: 0 }
    }

    /// Reads one bit; `None` at end of stream.
    pub fn read_bit(&mut self) -> Option<bool> {
        let byte = self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8) as u8)) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `n` bits MSB-first, a byte's worth at a step; `None` (and the
    /// reader left at end of stream) when fewer than `n` remain.
    pub fn read_bits(&mut self, n: u8) -> Option<u64> {
        debug_assert!(n <= 64);
        let end = self.pos + n as usize;
        if end > self.bytes.len() * 8 {
            self.pos = self.bytes.len() * 8;
            return None;
        }
        let mut v = 0u64;
        while self.pos < end {
            let avail = 8 - self.pos % 8;
            let take = avail.min(end - self.pos);
            // `take` bits of the current byte, starting `8 - avail` in.
            let bits = (self.bytes[self.pos / 8] >> (avail - take)) as u64 & ((1 << take) - 1);
            v = (v << take) | bits;
            self.pos += take;
        }
        Some(v)
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The codec's state between two samples of a chunk: what the appender
/// needs to write the next one is what a decoder needs to read it, so a copy
/// of the appender's state is a point a decoder can start from
/// ([`XorChunk::iter_from`]). The default is the start of a chunk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodecState {
    /// Bit offset of the next sample.
    bits: usize,
    /// Samples before it.
    n: u32,
    // The last of them (meaningless while `n == 0`).
    t: i64,
    delta: i64,
    v: u64,
    /// The XOR window in force; [`NO_WINDOW`] until a value has set one.
    leading: u8,
    trailing: u8,
}

/// `CodecState::leading` while no value has set an XOR window yet.
const NO_WINDOW: u8 = 0xff;

impl CodecState {
    /// True when every sample before this point is older than `t_ms` (a
    /// decoder looking for `t_ms` onwards may start here).
    pub fn precedes(&self, t_ms: i64) -> bool {
        self.n == 0 || self.t < t_ms
    }
}

/// A compressed chunk of one series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct XorChunk {
    w: BitWriter,
    /// The appender's state, after every stored sample.
    st: CodecState,
    min_t: i64,
    max_t: i64,
}

impl XorChunk {
    /// New empty chunk.
    pub fn new() -> XorChunk {
        XorChunk {
            min_t: i64::MAX,
            max_t: i64::MIN,
            ..Default::default()
        }
    }

    /// Samples stored.
    pub fn len(&self) -> u32 {
        self.st.n
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.st.n == 0
    }

    /// Earliest timestamp (meaningless when empty).
    pub fn min_time(&self) -> i64 {
        self.min_t
    }

    /// Latest timestamp (meaningless when empty).
    pub fn max_time(&self) -> i64 {
        self.max_t
    }

    /// Compressed size in bytes.
    pub fn byte_len(&self) -> usize {
        self.w.as_bytes().len()
    }

    /// The encoded samples: with [`Self::len`], all a checkpoint stores.
    pub fn as_bytes(&self) -> &[u8] {
        self.w.as_bytes()
    }

    /// Rebuilds the chunk that holds `n` samples in `bytes`, by one decode
    /// that checks every step (`decode_next`) and recovers what the
    /// appender knew: the rebuilt chunk equals the original and goes on
    /// appending the bytes the original would have. `None` when `bytes` is
    /// not what [`Self::append`] makes of `n` samples, whatever it is.
    ///
    /// Also returns the states after the last two multiples of `stride`
    /// samples, older first (the chunk start where there are fewer): points
    /// [`Self::iter_from`] can resume at.
    pub fn from_encoded(
        bytes: Vec<u8>,
        n: u32,
        stride: u32,
    ) -> Option<(XorChunk, [CodecState; 2])> {
        let mut r = BitReader::new(&bytes);
        let mut st = CodecState::default();
        let mut resume = [st; 2];
        let mut min_t = i64::MAX;
        // Every sample takes at least two bits, so a wrong `n` runs out of
        // input before it runs long.
        while st.n < n {
            decode_next(&mut r, &mut st)?;
            if st.n == 1 {
                min_t = st.t;
            }
            if st.n.is_multiple_of(stride) {
                resume = [resume[1], st];
            }
        }
        let max_t = if n == 0 { i64::MIN } else { st.t };
        let w = BitWriter::resume(bytes, st.bits)?;
        Some((XorChunk { w, st, min_t, max_t }, resume))
    }

    /// Appends a sample. Timestamps must be non-decreasing; out-of-order
    /// samples are rejected (the head drops them, as Prometheus does).
    pub fn append(&mut self, s: Sample) -> Result<(), OutOfOrder> {
        if self.st.n > 0 && s.t_ms < self.st.t {
            return Err(OutOfOrder {
                at: s.t_ms,
                head: self.st.t,
            });
        }
        match self.st.n {
            0 => {
                self.w.write_bits(zigzag(s.t_ms), 64);
                self.w.write_bits(s.v.to_bits(), 64);
                self.st.v = s.v.to_bits();
                self.st.leading = NO_WINDOW;
                self.st.trailing = 0;
            }
            // Deltas are taken modulo 2^64, and added back so by the decoder:
            // two timestamps further apart than `i64::MAX` still round-trip.
            1 => {
                let delta = s.t_ms.wrapping_sub(self.st.t);
                write_varbits(&mut self.w, zigzag(delta), 64);
                self.write_value(s.v);
                self.st.delta = delta;
            }
            _ => {
                let delta = s.t_ms.wrapping_sub(self.st.t);
                let dod = delta.wrapping_sub(self.st.delta);
                self.write_dod(dod);
                self.write_value(s.v);
                self.st.delta = delta;
            }
        }
        self.st.t = s.t_ms;
        self.st.n += 1;
        self.st.bits = self.w.bit_len();
        self.min_t = self.min_t.min(s.t_ms);
        self.max_t = self.max_t.max(s.t_ms);
        Ok(())
    }

    fn write_dod(&mut self, dod: i64) {
        // Prometheus prefix codes: 0 | 10+14b | 110+17b | 1110+20b | 1111+64b.
        let z = zigzag(dod);
        if dod == 0 {
            self.w.write_bit(false);
        } else if fits_bits(z, 14) {
            self.w.write_bits(0b10, 2);
            self.w.write_bits(z, 14);
        } else if fits_bits(z, 17) {
            self.w.write_bits(0b110, 3);
            self.w.write_bits(z, 17);
        } else if fits_bits(z, 20) {
            self.w.write_bits(0b1110, 4);
            self.w.write_bits(z, 20);
        } else {
            self.w.write_bits(0b1111, 4);
            self.w.write_bits(z, 64);
        }
    }

    fn write_value(&mut self, v: f64) {
        let bits = v.to_bits();
        let xor = bits ^ self.st.v;
        self.st.v = bits;
        if xor == 0 {
            self.w.write_bit(false);
            return;
        }
        self.w.write_bit(true);
        let leading = xor.leading_zeros().min(31) as u8;
        let trailing = xor.trailing_zeros() as u8;
        let st = &mut self.st;
        if st.leading != NO_WINDOW && leading >= st.leading && trailing >= st.trailing {
            // Reuse the previous window.
            self.w.write_bit(false);
            let sig = 64 - st.leading - st.trailing;
            self.w.write_bits(xor >> st.trailing, sig);
        } else {
            st.leading = leading;
            st.trailing = trailing;
            let sig = 64 - leading - trailing;
            self.w.write_bit(true);
            self.w.write_bits(leading as u64, 5);
            // 6 bits of significant-bit count; 64 wraps to 0.
            self.w.write_bits((sig & 63) as u64, 6);
            self.w.write_bits(xor >> trailing, sig);
        }
    }

    /// Iterates the samples back out.
    pub fn iter(&self) -> ChunkIter<'_> {
        self.iter_from(CodecState::default())
    }

    /// The appender's state: a point [`Self::iter_from`] can resume at once
    /// more samples follow.
    pub fn state(&self) -> CodecState {
        self.st
    }

    /// Iterates the samples after `from`, a state this chunk was in earlier.
    pub fn iter_from(&self, from: CodecState) -> ChunkIter<'_> {
        debug_assert!(from.n <= self.st.n && from.bits <= self.st.bits);
        ChunkIter {
            r: BitReader {
                bytes: self.w.as_bytes(),
                pos: from.bits,
            },
            remaining: self.st.n.saturating_sub(from.n),
            st: from,
        }
    }

    /// Newest sample, read from the appender's state: nothing is decoded.
    pub fn last(&self) -> Option<Sample> {
        (self.st.n > 0).then(|| Sample {
            t_ms: self.st.t,
            v: f64::from_bits(self.st.v),
        })
    }
}

fn fits_bits(z: u64, n: u8) -> bool {
    z < (1u64 << n)
}

/// Writes `z` as either a compact or full-width field. Used for the second
/// sample's delta: 14-bit fast path, 64-bit escape.
fn write_varbits(w: &mut BitWriter, z: u64, _max: u8) {
    if fits_bits(z, 14) {
        w.write_bit(false);
        w.write_bits(z, 14);
    } else {
        w.write_bit(true);
        w.write_bits(z, 64);
    }
}

fn read_varbits(r: &mut BitReader<'_>) -> Option<u64> {
    if r.read_bit()? {
        r.read_bits(64)
    } else {
        r.read_bits(14)
    }
}

/// Error appending an out-of-order sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfOrder {
    /// Rejected timestamp.
    pub at: i64,
    /// Current head timestamp.
    pub head: i64,
}

impl std::fmt::Display for OutOfOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "out-of-order sample at {} (head {})", self.at, self.head)
    }
}

impl std::error::Error for OutOfOrder {}

/// Iterator over a chunk's samples.
pub struct ChunkIter<'a> {
    r: BitReader<'a>,
    remaining: u32,
    st: CodecState,
}

impl ChunkIter<'_> {
    /// The state after the last sample returned: where a later
    /// [`XorChunk::iter_from`] takes over.
    pub fn state(&self) -> CodecState {
        self.st
    }
}

impl Iterator for ChunkIter<'_> {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        decode_next(&mut self.r, &mut self.st)?;
        Some(Sample {
            t_ms: self.st.t,
            v: f64::from_bits(self.st.v),
        })
    }
}

/// Reads the sample after `st` and moves `st` over it, to what the
/// appender's state was once it had written that sample. `None` when the
/// bits are nothing [`XorChunk::append`] writes: they end early, a timestamp
/// goes backwards, an XOR window is reused before one was set or does not
/// fit in 64 bits.
fn decode_next(r: &mut BitReader<'_>, st: &mut CodecState) -> Option<()> {
    match st.n {
        0 => {
            st.t = unzigzag(r.read_bits(64)?);
            st.v = r.read_bits(64)?;
            st.leading = NO_WINDOW;
            st.trailing = 0;
        }
        1 => {
            let delta = unzigzag(read_varbits(r)?);
            step_time(st, delta)?;
            read_value(r, st)?;
        }
        _ => {
            let dod = if !r.read_bit()? {
                0
            } else if !r.read_bit()? {
                unzigzag(r.read_bits(14)?)
            } else if !r.read_bit()? {
                unzigzag(r.read_bits(17)?)
            } else if !r.read_bit()? {
                unzigzag(r.read_bits(20)?)
            } else {
                unzigzag(r.read_bits(64)?)
            };
            step_time(st, st.delta.wrapping_add(dod))?;
            read_value(r, st)?;
        }
    }
    st.n += 1;
    st.bits = r.pos;
    Some(())
}

fn step_time(st: &mut CodecState, delta: i64) -> Option<()> {
    let t = st.t.wrapping_add(delta);
    if t < st.t {
        return None;
    }
    st.t = t;
    st.delta = delta;
    Some(())
}

fn read_value(r: &mut BitReader<'_>, st: &mut CodecState) -> Option<()> {
    if !r.read_bit()? {
        return Some(()); // unchanged
    }
    if r.read_bit()? {
        let leading = r.read_bits(5)? as u8;
        let sig = match r.read_bits(6)? as u8 {
            0 => 64,
            sig => sig,
        };
        st.trailing = 64u8.checked_sub(leading + sig)?;
        st.leading = leading;
    } else if st.leading == NO_WINDOW {
        return None;
    }
    let sig = 64 - st.leading - st.trailing;
    let bits = r.read_bits(sig)?;
    st.v ^= bits << st.trailing;
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(samples: &[Sample]) {
        let mut c = XorChunk::new();
        for &s in samples {
            c.append(s).unwrap();
        }
        let back: Vec<Sample> = c.iter().collect();
        assert_eq!(back.len(), samples.len());
        for (a, b) in samples.iter().zip(back.iter()) {
            assert_eq!(a.t_ms, b.t_ms);
            assert!(
                a.v == b.v || (a.v.is_nan() && b.v.is_nan()),
                "value mismatch: {} vs {}",
                a.v,
                b.v
            );
        }
    }

    #[test]
    fn bitstream_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bits(0b1011, 4);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 3);
        let mut r = BitReader::new(w.as_bytes());
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bits(4), Some(0b1011));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bits(3), Some(0));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 123456789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn empty_and_single() {
        let c = XorChunk::new();
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);
        roundtrip(&[Sample::new(1700000000000, 42.5)]);
    }

    #[test]
    fn regular_scrape_pattern() {
        let samples: Vec<Sample> = (0..1000)
            .map(|i| Sample::new(1700000000000 + i * 15_000, 100.0 + (i as f64) * 0.5))
            .collect();
        roundtrip(&samples);
    }

    #[test]
    fn constant_values_compress_tiny() {
        let mut c = XorChunk::new();
        for i in 0..1000 {
            c.append(Sample::new(i * 15_000, 1.0)).unwrap();
        }
        // ~2 bits/sample after the first two: far below raw 16 B/sample.
        assert!(c.byte_len() < 1000, "compressed to {} bytes", c.byte_len());
        roundtrip(&(0..1000).map(|i| Sample::new(i * 15_000, 1.0)).collect::<Vec<_>>());
    }

    #[test]
    fn irregular_timestamps_and_values() {
        let samples = vec![
            Sample::new(-5_000, -1.5),
            Sample::new(0, 0.0),
            Sample::new(1, f64::MAX),
            Sample::new(50_000, f64::MIN_POSITIVE),
            Sample::new(50_001, f64::INFINITY),
            Sample::new(100_000, f64::NEG_INFINITY),
            Sample::new(2_000_000_000, f64::NAN),
            Sample::new(2_000_000_001, 1e-300),
        ];
        roundtrip(&samples);
    }

    #[test]
    fn duplicate_timestamps_allowed_out_of_order_rejected() {
        let mut c = XorChunk::new();
        c.append(Sample::new(100, 1.0)).unwrap();
        c.append(Sample::new(100, 2.0)).unwrap(); // duplicate ts OK
        let err = c.append(Sample::new(99, 3.0)).unwrap_err();
        assert_eq!(err, OutOfOrder { at: 99, head: 100 });
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn min_max_time_tracked() {
        let mut c = XorChunk::new();
        c.append(Sample::new(10, 1.0)).unwrap();
        c.append(Sample::new(30, 1.0)).unwrap();
        assert_eq!(c.min_time(), 10);
        assert_eq!(c.max_time(), 30);
    }

    #[test]
    fn counter_like_series() {
        // Monotonic counter with occasional large jumps (RAPL energy).
        let mut v = 0.0;
        let samples: Vec<Sample> = (0..500)
            .map(|i| {
                v += 150.0 * 15.0 * 1e6; // µJ per scrape
                if i % 97 == 0 {
                    v = 0.0; // wraparound reset
                }
                Sample::new(i * 15_000, v)
            })
            .collect();
        roundtrip(&samples);
    }

    #[test]
    fn compression_ratio_on_realistic_data() {
        let mut c = XorChunk::new();
        let n = 2000;
        for i in 0..n {
            // 15s cadence with 1ms jitter, slowly varying gauge.
            let t = i * 15_000 + (i % 3);
            let v = 250.0 + 10.0 * ((i as f64) * 0.05).sin();
            c.append(Sample::new(t, v)).unwrap();
        }
        let raw = n as usize * 16;
        let ratio = raw as f64 / c.byte_len() as f64;
        // Full-precision noisy floats are the worst case for XOR encoding;
        // even there the scheme must beat raw well clear of overhead.
        assert!(ratio > 1.5, "compression ratio only {ratio:.2}");

        // The favourable (and common) case: exact fixed-rate counter at a
        // jitter-free cadence compresses ~10x or better.
        let mut c2 = XorChunk::new();
        for i in 0..n {
            c2.append(Sample::new(i * 15_000, (i * 150) as f64)).unwrap();
        }
        let ratio2 = raw as f64 / c2.byte_len() as f64;
        assert!(ratio2 > 5.0, "counter compression ratio only {ratio2:.2}");
    }
}

/// A chunk rebuilt from `(bytes, n)` against the one that was appended to.
#[cfg(test)]
mod rebuild_tests {
    use super::*;
    use crate::head::{CHUNK_SAMPLES, RESUME_STRIDE};

    /// Deltas that repeat, stall, and cross every delta-of-delta width;
    /// values that repeat, count, and run through NaN payloads, both
    /// infinities and both zeros.
    fn awkward_series(n: usize) -> Vec<Sample> {
        let steps = [15_000, 15_000, 0, 15_001, 14_999, 1 << 13, 3, 1 << 16, 1 << 19, 7, 1 << 40, 0];
        let values = [
            1.0,
            1.0,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        let mut t = -40_000i64;
        (0..n)
            .map(|i| {
                t += steps[i % steps.len()];
                let v = match i % 3 {
                    0 => values[(i / 3) % values.len()],
                    _ => (i * 150) as f64,
                };
                Sample::new(t, v)
            })
            .collect()
    }

    fn bits(c: &XorChunk) -> Vec<(i64, u64)> {
        c.iter().map(|s| (s.t_ms, s.v.to_bits())).collect()
    }

    /// Appends `samples[..fill]`, rebuilds the chunk from its bytes, and
    /// holds the two equal in everything a reader or the appender can
    /// see; then appends `samples[fill..]` to both.
    pub fn assert_rebuild_is_the_original(samples: &[Sample], fill: usize) {
        let mut original = XorChunk::new();
        let mut resume = [CodecState::default(); 2];
        for &s in &samples[..fill] {
            original.append(s).unwrap();
            if original.len().is_multiple_of(RESUME_STRIDE) {
                resume = [resume[1], original.state()];
            }
        }
        let (mut rebuilt, rebuilt_resume) =
            XorChunk::from_encoded(original.as_bytes().to_vec(), original.len(), RESUME_STRIDE)
                .unwrap_or_else(|| panic!("fill {fill} rejected"));
        assert_eq!(rebuilt.state(), original.state(), "fill {fill}");
        assert_eq!(rebuilt_resume, resume, "fill {fill}");
        assert_eq!(
            rebuilt.last().map(|s| (s.t_ms, s.v.to_bits())),
            original.last().map(|s| (s.t_ms, s.v.to_bits()))
        );
        assert_eq!(rebuilt.min_time(), original.min_time(), "fill {fill}");
        assert_eq!(rebuilt.max_time(), original.max_time(), "fill {fill}");
        assert_eq!(bits(&rebuilt), bits(&original), "fill {fill}");
        assert_eq!(rebuilt, original, "fill {fill}");
        for point in resume {
            let tail = |c: &XorChunk| c.iter_from(point).map(|s| s.t_ms).collect::<Vec<_>>();
            assert_eq!(tail(&rebuilt), tail(&original));
        }
        for &s in &samples[fill..] {
            original.append(s).unwrap();
            rebuilt.append(s).unwrap();
            assert_eq!(rebuilt.as_bytes(), original.as_bytes(), "fill {fill}, at {}", s.t_ms);
        }
        assert_eq!(rebuilt, original, "fill {fill}, after the further appends");

        // A sample is at least two bits, so up to three can hide in (or be
        // read out of) the zero padding of the last byte: the bytes need
        // their count. Four more or fewer can not.
        let bytes = original.as_bytes().to_vec();
        let n = original.len();
        assert!(XorChunk::from_encoded(bytes.clone(), n + 4, RESUME_STRIDE).is_none());
        if n >= 4 {
            assert!(XorChunk::from_encoded(bytes, n - 4, RESUME_STRIDE).is_none());
        }
    }

    #[test]
    fn every_fill_rebuilds_to_the_original_and_goes_on_with_the_same_bytes() {
        let samples = awkward_series(CHUNK_SAMPLES as usize + 24);
        for fill in 0..=CHUNK_SAMPLES as usize {
            assert_rebuild_is_the_original(&samples[..fill + 24], fill);
        }
    }

    #[test]
    fn timestamps_further_apart_than_i64_max_round_trip() {
        let samples = [
            Sample::new(i64::MIN, 1.0),
            Sample::new(i64::MAX, 2.0),
            Sample::new(i64::MAX, 3.0),
        ];
        for fill in 0..=3 {
            assert_rebuild_is_the_original(&samples, fill);
        }
    }

    #[test]
    fn what_the_appender_never_writes_is_rejected() {
        let rebuild = |w: &BitWriter, n| XorChunk::from_encoded(w.as_bytes().to_vec(), n, 16);
        let first = |w: &mut BitWriter| {
            w.write_bits(zigzag(1_000), 64);
            w.write_bits(1.0f64.to_bits(), 64);
        };

        // A timestamp that goes backwards.
        let mut w = BitWriter::new();
        first(&mut w);
        w.write_bit(false);
        w.write_bits(zigzag(-5), 14);
        w.write_bit(false);
        assert!(rebuild(&w, 2).is_none());

        // An XOR window reused before any value set one.
        let mut w = BitWriter::new();
        first(&mut w);
        w.write_bit(false);
        w.write_bits(zigzag(5), 14);
        w.write_bits(0b10, 2);
        w.write_bits(u64::MAX, 64);
        assert!(rebuild(&w, 2).is_none());

        // A window of 31 leading zeros and 40 significant bits.
        let mut w = BitWriter::new();
        first(&mut w);
        w.write_bit(false);
        w.write_bits(zigzag(5), 14);
        w.write_bits(0b11, 2);
        w.write_bits(31, 5);
        w.write_bits(40, 6);
        w.write_bits(u64::MAX, 40);
        assert!(rebuild(&w, 2).is_none());

        // Samples that stop short of the last byte, run past it, or leave
        // set bits after them.
        let mut w = BitWriter::new();
        first(&mut w);
        assert!(rebuild(&w, 1).is_some());
        w.write_bits(0, 8);
        assert!(rebuild(&w, 1).is_none());
        assert!(XorChunk::from_encoded(w.as_bytes()[..15].to_vec(), 1, 16).is_none());
        let mut w = BitWriter::new();
        first(&mut w);
        w.write_bit(false);
        w.write_bits(zigzag(5), 14);
        w.write_bit(false);
        assert!(rebuild(&w, 2).is_some());
        w.write_bit(true);
        assert!(rebuild(&w, 2).is_none());

        assert!(XorChunk::from_encoded(Vec::new(), 0, 16).is_some());
        assert!(XorChunk::from_encoded(vec![0], 0, 16).is_none());
    }
}

/// The codec as it was before it moved a byte at a step: one bit per turn,
/// a bounds check each. Kept as the layout's definition for the tests.
#[cfg(test)]
mod per_bit {
    #[derive(Default)]
    pub struct BitWriter {
        pub bytes: Vec<u8>,
        used: u8,
    }

    impl BitWriter {
        pub fn write_bit(&mut self, bit: bool) {
            if self.used == 0 || self.used == 8 {
                self.bytes.push(0);
                self.used = 0;
            }
            if bit {
                let last = self.bytes.len() - 1;
                self.bytes[last] |= 1 << (7 - self.used);
            }
            self.used += 1;
        }

        pub fn write_bits(&mut self, v: u64, n: u8) {
            for i in (0..n).rev() {
                self.write_bit((v >> i) & 1 == 1);
            }
        }
    }

    pub struct BitReader<'a> {
        pub bytes: &'a [u8],
        pub pos: usize,
    }

    impl BitReader<'_> {
        pub fn read_bit(&mut self) -> Option<bool> {
            let byte = self.bytes.get(self.pos / 8)?;
            let bit = (byte >> (7 - (self.pos % 8) as u8)) & 1 == 1;
            self.pos += 1;
            Some(bit)
        }

        pub fn read_bits(&mut self, n: u8) -> Option<u64> {
            let mut v = 0u64;
            for _ in 0..n {
                v = (v << 1) | self.read_bit()? as u64;
            }
            Some(v)
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Zero- and full-width writes, and every width from every offset in a
    /// byte, give the per-bit writer's bytes.
    #[test]
    fn zero_full_and_mixed_widths_match_the_per_bit_writer() {
        for lead in 0..8u8 {
            let mut w = BitWriter::new();
            let mut reference = per_bit::BitWriter::default();
            let widths = [lead, 0, 64, 0, 64]
                .into_iter()
                .chain(0..=64)
                .chain([1, 63, 0, 7, 9, 64]);
            let mut bits = 0;
            for n in widths {
                let v = 0xdead_beef_cafe_f00d_u64.rotate_left(u32::from(n));
                w.write_bits(v, n);
                reference.write_bits(v, n);
                bits += usize::from(n);
                assert_eq!(w.as_bytes(), &reference.bytes[..], "lead {lead}, width {n}");
                assert_eq!(w.bit_len(), bits, "lead {lead}, width {n}");
            }
        }
    }

    proptest! {
        #[test]
        fn bit_writes_match_the_per_bit_writer(
            writes in proptest::collection::vec(
                (any::<u64>(), prop_oneof![Just(0u8), Just(64u8), 0u8..=64]),
                0..60,
            ),
        ) {
            let mut w = BitWriter::new();
            let mut reference = per_bit::BitWriter::default();
            for &(v, n) in &writes {
                w.write_bits(v, n);
                reference.write_bits(v, n);
                prop_assert_eq!(w.as_bytes(), &reference.bytes[..]);
            }
            let bits: usize = writes.iter().map(|&(_, n)| n as usize).sum();
            prop_assert_eq!(w.bit_len(), bits);
        }

        #[test]
        fn bit_reads_match_the_per_bit_reader_past_the_end(
            bytes in proptest::collection::vec(any::<u8>(), 0..40),
            widths in proptest::collection::vec(0u8..=64, 0..40),
        ) {
            let mut r = BitReader::new(&bytes);
            let mut reference = per_bit::BitReader { bytes: &bytes, pos: 0 };
            for n in widths {
                prop_assert_eq!(r.read_bits(n), reference.read_bits(n));
                prop_assert_eq!(r.pos, reference.pos);
                prop_assert_eq!(r.read_bit(), reference.read_bit());
            }
        }

        #[test]
        fn chunk_roundtrips_any_monotonic_series(
            start in -1_000_000_000i64..1_000_000_000,
            deltas in proptest::collection::vec(0i64..10_000_000, 0..200),
            values in proptest::collection::vec(proptest::num::f64::ANY, 0..200),
        ) {
            let n = deltas.len().min(values.len());
            let mut t = start;
            let mut samples = Vec::with_capacity(n);
            for i in 0..n {
                t += deltas[i];
                samples.push(Sample::new(t, values[i]));
            }
            let mut c = XorChunk::new();
            for &s in &samples {
                c.append(s).unwrap();
            }
            let back: Vec<Sample> = c.iter().collect();
            prop_assert_eq!(back.len(), samples.len());
            for (a, b) in samples.iter().zip(back.iter()) {
                prop_assert_eq!(a.t_ms, b.t_ms);
                prop_assert!(a.v.to_bits() == b.v.to_bits());
            }
            // Same bytes as the per-bit writer makes of the same writes.
            let mut reference = per_bit::BitWriter::default();
            for &(v, n) in &c.w.written {
                reference.write_bits(v, n);
            }
            prop_assert_eq!(c.w.as_bytes(), &reference.bytes[..]);
        }
        /// A rebuilt chunk is the original at any cut of any series, over
        /// every delta-of-delta width, duplicate timestamps and any float.
        #[test]
        fn a_rebuilt_chunk_is_the_original_at_any_cut(
            start in -1_000_000_000_000i64..1_000_000_000_000,
            steps in proptest::collection::vec(
                (0u8..7, 0i64..1 << 45, any::<u64>(), any::<bool>()),
                0..300,
            ),
            cut in 0usize..300,
        ) {
            let mut t = start;
            let mut v = 0u64;
            let samples: Vec<Sample> = steps
                .iter()
                .map(|&(kind, delta, value, repeat)| {
                    t += match kind {
                        0 => 0,
                        1 | 2 => 15_000,
                        3 => delta % (1 << 13),
                        4 => delta % (1 << 16),
                        5 => delta % (1 << 19),
                        _ => delta,
                    };
                    if !repeat {
                        v = value;
                    }
                    Sample::new(t, f64::from_bits(v))
                })
                .collect();
            rebuild_tests::assert_rebuild_is_the_original(&samples, cut.min(samples.len()));
        }

        /// Whatever the bytes and the count, the rebuild returns: it never
        /// panics, and what it accepts is a chunk of that many samples in
        /// time order that owns the bytes it was given.
        #[test]
        fn arbitrary_bytes_rebuild_or_are_rejected(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            n in prop_oneof![0u32..48, any::<u32>()],
        ) {
            if let Some((chunk, _)) = XorChunk::from_encoded(bytes.clone(), n, 16) {
                prop_assert_eq!(chunk.len(), n);
                prop_assert_eq!(chunk.as_bytes(), &bytes[..]);
                let times: Vec<i64> = chunk.iter().map(|s| s.t_ms).collect();
                prop_assert_eq!(times.len(), n as usize);
                prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
            }
        }

        /// The same from one flipped bit of a real chunk, where the decode
        /// gets far enough to meet every field.
        #[test]
        fn a_flipped_bit_is_rejected_or_leaves_a_valid_chunk(
            deltas in proptest::collection::vec(0i64..100_000, 1..120),
            values in proptest::collection::vec(proptest::num::f64::ANY, 120),
            flip in any::<usize>(),
            n_off in -1i64..2,
        ) {
            let mut c = XorChunk::new();
            let mut t = 0;
            for (d, v) in deltas.iter().zip(&values) {
                t += d;
                c.append(Sample::new(t, *v)).unwrap();
            }
            let mut bytes = c.as_bytes().to_vec();
            let bit = flip % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            let n = (c.len() as i64 + n_off) as u32;
            if let Some((chunk, _)) = XorChunk::from_encoded(bytes, n, 16) {
                let times: Vec<i64> = chunk.iter().map(|s| s.t_ms).collect();
                prop_assert_eq!(times.len(), n as usize);
                prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
                prop_assert_eq!(chunk.last().map(|s| s.t_ms), times.last().copied());
            }
        }
    }
}
