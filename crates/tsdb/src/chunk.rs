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

impl BitWriter {
    /// New empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
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

    /// Writes the low `n` bits of `v`, most-significant first, a byte's
    /// worth at a step.
    pub fn write_bits(&mut self, v: u64, n: u8) {
        debug_assert!(n <= 64);
        #[cfg(test)]
        self.written.push((v, n));
        let mut left = n;
        while left > 0 {
            if self.used == 0 || self.used == 8 {
                self.bytes.push(0);
                self.used = 0;
            }
            let free = 8 - self.used;
            let take = free.min(left);
            // The next `take` bits of `v`, right-aligned.
            let bits = ((v >> (left - take)) & ((1u64 << take) - 1)) as u8;
            let last = self.bytes.len() - 1;
            self.bytes[last] |= bits << (free - take);
            self.used += take;
            left -= take;
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
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecState {
    /// Bit offset of the next sample.
    bits: usize,
    /// Samples before it.
    n: u32,
    // The last of them (meaningless while `n == 0`).
    t: i64,
    delta: i64,
    v: u64,
    /// The XOR window in force; `0xff` until a value has set one.
    leading: u8,
    trailing: u8,
}

impl CodecState {
    /// True when every sample before this point is older than `t_ms` (a
    /// decoder looking for `t_ms` onwards may start here).
    pub fn precedes(&self, t_ms: i64) -> bool {
        self.n == 0 || self.t < t_ms
    }
}

/// A compressed chunk of one series.
#[derive(Clone, Debug, Default)]
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
                // Sentinels meaning "no previous XOR window".
                self.st.leading = 0xff;
                self.st.trailing = 0;
            }
            1 => {
                let delta = s.t_ms - self.st.t;
                write_varbits(&mut self.w, zigzag(delta), 64);
                self.write_value(s.v);
                self.st.delta = delta;
            }
            _ => {
                let delta = s.t_ms - self.st.t;
                let dod = delta - self.st.delta;
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
        if st.leading != 0xff && leading >= st.leading && trailing >= st.trailing {
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

impl Iterator for ChunkIter<'_> {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let st = &mut self.st;
        match st.n {
            0 => {
                st.t = unzigzag(self.r.read_bits(64)?);
                st.v = self.r.read_bits(64)?;
            }
            1 => {
                st.delta = unzigzag(read_varbits(&mut self.r)?);
                st.t += st.delta;
                read_value(&mut self.r, st)?;
            }
            _ => {
                let dod = if !self.r.read_bit()? {
                    0
                } else if !self.r.read_bit()? {
                    unzigzag(self.r.read_bits(14)?)
                } else if !self.r.read_bit()? {
                    unzigzag(self.r.read_bits(17)?)
                } else if !self.r.read_bit()? {
                    unzigzag(self.r.read_bits(20)?)
                } else {
                    unzigzag(self.r.read_bits(64)?)
                };
                st.delta += dod;
                st.t += st.delta;
                read_value(&mut self.r, st)?;
            }
        }
        st.n += 1;
        Some(Sample {
            t_ms: st.t,
            v: f64::from_bits(st.v),
        })
    }
}

fn read_value(r: &mut BitReader<'_>, st: &mut CodecState) -> Option<()> {
    if !r.read_bit()? {
        return Some(()); // unchanged
    }
    if r.read_bit()? {
        st.leading = r.read_bits(5)? as u8;
        let sig = r.read_bits(6)? as u8;
        let sig = if sig == 0 { 64 } else { sig };
        st.trailing = 64 - st.leading - sig;
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

    proptest! {
        #[test]
        fn bit_writes_match_the_per_bit_writer(
            writes in proptest::collection::vec((any::<u64>(), 0u8..=64), 0..60),
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
    }
}
