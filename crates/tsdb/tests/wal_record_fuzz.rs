//! WAL frames are input from outside the process — a follower catching up
//! reads them from `/api/v1/wal/fetch` — so whatever payload sits behind a
//! valid header and CRC, decoding returns: it does not panic, and a count
//! read from the payload reserves no more memory than the bytes left could
//! stand for. Its own test binary: the measuring allocator is process-wide
//! (the tallies are per thread, so the tests may run side by side).

use ceems_metrics::labels;
use ceems_tsdb::wal::{crc32, decode_frames, encode_record, WalRecord};
use proptest::prelude::*;

#[path = "common/measuring.rs"]
mod measuring;
use measuring::requested_by;

/// Record tags as the encoder writes them (`SeriesCreate` … `EpochBump`).
const TAGS: [u8; 5] = [1, 2, 3, 4, 5];

/// `payload` behind a length and its CRC.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes, and holds the decode to its memory bound: a label pair (the
/// widest entry per input byte: two `&str`s, then two shared strings in the
/// label set) takes two bytes of input at least.
fn decode_within_bounds(bytes: &[u8]) -> Vec<WalRecord> {
    let ((records, used), total, largest) = requested_by(|| decode_frames(bytes));
    assert!(used <= bytes.len());
    assert!(
        largest <= 64 * bytes.len() + 256,
        "one request of {largest} bytes for {} of input",
        bytes.len()
    );
    assert!(
        total <= 256 * bytes.len() + 4096,
        "{total} bytes requested for {} of input",
        bytes.len()
    );
    records
}

#[test]
fn real_records_decode_within_the_bounds() {
    let records = vec![
        WalRecord::SeriesCreate {
            id: 7,
            labels: labels! {"__name__" => "power", "instance" => "n1", "uuid" => "slurm-3"},
        },
        WalRecord::Samples(
            (0..200)
                .map(|i| (7 + i % 3, 15_000 * i as i64, 0.5 * i as f64))
                .collect(),
        ),
        WalRecord::Tombstone(vec![3, 9, 1 << 40]),
        WalRecord::Retention { cutoff_ms: -5 },
        WalRecord::EpochBump { epoch: 2 },
    ];
    let mut bytes = Vec::new();
    for rec in &records {
        encode_record(&mut bytes, rec);
    }
    assert_eq!(decode_within_bounds(&bytes), records);
}

#[test]
fn a_count_of_2_to_the_60_reserves_what_the_payload_could_hold() {
    let huge = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f];
    for (tag, prefix) in [(1u8, &[5u8][..]), (2, &[]), (3, &[])] {
        let mut payload = vec![tag];
        payload.extend_from_slice(prefix);
        payload.extend_from_slice(&huge);
        payload.extend_from_slice(&[0; 30]);
        assert!(
            decode_within_bounds(&frame(&payload)).is_empty(),
            "tag {tag}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_payloads_behind_a_tag_and_a_matching_crc(
        tag in 0usize..6,
        body in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let mut payload = TAGS.get(tag).map_or_else(Vec::new, |&t| vec![t]);
        payload.extend_from_slice(&body);
        decode_within_bounds(&frame(&payload));
    }

    /// Damage that gets as far as the field it lands in: real records with
    /// a few payload bytes overwritten and the CRCs fixed up.
    #[test]
    fn real_records_with_bytes_overwritten(
        damage in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        which in 0usize..3,
    ) {
        let rec = [
            WalRecord::SeriesCreate { id: 1, labels: labels! {"__name__" => "up", "job" => "x"} },
            WalRecord::Samples(vec![(1, 0, 1.0), (2, 15_000, 2.5), (3, 15_000, -0.0)]),
            WalRecord::Tombstone(vec![1, 2, 300]),
        ][which].clone();
        let mut bytes = Vec::new();
        encode_record(&mut bytes, &rec);
        let mut payload = bytes[8..].to_vec();
        for (at, byte) in damage {
            let at = at % payload.len();
            payload[at] = byte;
        }
        decode_within_bounds(&frame(&payload));
    }
}
