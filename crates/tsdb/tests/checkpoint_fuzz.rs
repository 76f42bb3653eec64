//! Checkpoint bytes are input from outside the program: whatever they hold,
//! once the CRC agrees with them, decoding returns — it does not panic, and a
//! count read from the bytes reserves no more memory than the bytes left
//! could stand for. Its own test binary: the measuring allocator is
//! process-wide (the tallies are per thread, so the tests may run side by
//! side).

use ceems_metrics::labels;
use ceems_tsdb::head::SeriesStore;
use ceems_tsdb::index::LabelIndex;
use ceems_tsdb::wal::{crc32, decode_checkpoint, encode_checkpoint, Checkpoint, EpochSpan};
use ceems_tsdb::Sample;
use proptest::prelude::*;

#[path = "common/measuring.rs"]
mod measuring;
use measuring::requested_by;

fn with_crc(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Decodes, and holds the decode to its memory bound. The most a count can
/// reserve is one series entry (128 bytes: id, labels, chunk queue, resume
/// points) per three bytes of input left, the least a series takes there.
fn decode_within_bounds(bytes: &[u8]) -> Option<Checkpoint> {
    let (ckpt, total, largest) = requested_by(|| decode_checkpoint(bytes));
    assert!(
        largest <= 48 * bytes.len() + 256,
        "one request of {largest} bytes for {} of input",
        bytes.len()
    );
    assert!(
        total <= 128 * bytes.len() + 4096,
        "{total} bytes requested for {} of input",
        bytes.len()
    );
    ckpt
}

fn real_checkpoint() -> Checkpoint {
    let store = |n: i64, step: i64| {
        let mut s = SeriesStore::default();
        for i in 0..n {
            s.append(Sample::new(i * step, (i * 150) as f64 + 0.25)).unwrap();
        }
        s
    };
    // Numbered as `Tsdb::checkpoint` numbers them: by a label index.
    let mut index = LabelIndex::new();
    index.insert_replayed(1, &labels! {"__name__" => "power", "instance" => "n1"});
    index.insert_replayed(4, &labels! {"__name__" => "up"});
    index.insert_replayed(11, &labels! {"__name__" => "energy", "uuid" => "slurm-7"});
    let mut ckpt = Checkpoint {
        covers_seq: 3,
        generation: 9,
        next_id: 12,
        appended: 400,
        out_of_order: 1,
        records: 77,
        epoch: 2,
        epoch_history: vec![
            EpochSpan { epoch: 0, start_records: 0 },
            EpochSpan { epoch: 2, start_records: 30 },
        ],
        ..index.checkpoint()
    };
    ckpt.series[0].2 = store(300, 15_000);
    ckpt.series[2].2 = store(40, 1);
    ckpt
}

#[test]
fn a_real_checkpoint_decodes_within_the_bounds() {
    let ckpt = real_checkpoint();
    let bytes = encode_checkpoint(&ckpt);
    assert_eq!(decode_within_bounds(&bytes), Some(ckpt));
}

/// 2^60 as a varint.
const HUGE: [u8; 9] = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f];

#[test]
fn a_count_of_2_to_the_60_reserves_what_the_input_could_hold() {
    // `CKPT3` holds an empty symbol table before the series count.
    for (magic, symbols) in [(b"CKPT1", &[][..]), (b"CKPT2", &[]), (b"CKPT3", &[0])] {
        // Seven header fields, no epoch spans, then the series count.
        let mut body = magic.to_vec();
        body.extend_from_slice(&[0; 8]);
        body.extend_from_slice(symbols);
        body.extend_from_slice(&HUGE);
        body.extend_from_slice(&[0; 30]);
        assert_eq!(decode_within_bounds(&with_crc(body)), None);
    }
}

#[test]
fn a_symbol_count_of_2_to_the_60_reserves_what_the_input_could_hold() {
    let mut body = b"CKPT3".to_vec();
    body.extend_from_slice(&[0; 8]);
    body.extend_from_slice(&HUGE);
    // Thirty empty strings, then nothing.
    body.extend_from_slice(&[0; 30]);
    assert_eq!(decode_within_bounds(&with_crc(body)), None);
}

#[test]
fn an_index_past_the_symbol_table_is_refused() {
    // The table ["up"], one series with one pair of indices and no chunks.
    let series = |name: u8, value: u8| {
        let mut body = b"CKPT3".to_vec();
        body.extend_from_slice(&[0; 8]);
        body.extend_from_slice(&[1, 2, b'u', b'p']);
        body.extend_from_slice(&[1, 5, 1, name, value, 0]);
        with_crc(body)
    };
    let ckpt = decode_within_bounds(&series(0, 0)).unwrap();
    assert_eq!(*ckpt.series[0].1, labels! {"up" => "up"});
    assert_eq!(decode_within_bounds(&series(0, 1)), None);
    assert_eq!(decode_within_bounds(&series(1, 0)), None);
    // An index of 2^60, and a label count of 2^60 over the same table.
    let mut body = b"CKPT3".to_vec();
    body.extend_from_slice(&[0; 8]);
    body.extend_from_slice(&[1, 2, b'u', b'p', 1, 5, 1]);
    body.extend_from_slice(&HUGE);
    body.extend_from_slice(&[0; 30]);
    assert_eq!(decode_within_bounds(&with_crc(body)), None);
    let mut body = b"CKPT3".to_vec();
    body.extend_from_slice(&[0; 8]);
    body.extend_from_slice(&[1, 2, b'u', b'p', 1, 5]);
    body.extend_from_slice(&HUGE);
    body.extend_from_slice(&[0; 30]);
    assert_eq!(decode_within_bounds(&with_crc(body)), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_behind_a_magic_and_a_matching_crc(
        magic in prop_oneof![Just(b"CKPT1"), Just(b"CKPT2"), Just(b"CKPT3")],
        body in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let mut bytes = magic.to_vec();
        bytes.extend_from_slice(&body);
        decode_within_bounds(&with_crc(bytes));
    }

    /// Damage that gets as far as the field it lands in: a real file with a
    /// few bytes overwritten.
    #[test]
    fn a_real_checkpoint_with_bytes_overwritten(
        damage in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut bytes = encode_checkpoint(&real_checkpoint());
        bytes.truncate(bytes.len() - 4);
        for (at, byte) in damage {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        if let Some(ckpt) = decode_within_bounds(&with_crc(bytes)) {
            // What was accepted is a database: every series in time order.
            for (_, _, store) in &ckpt.series {
                let times: Vec<i64> = store.iter().map(|s| s.t_ms).collect();
                prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
                prop_assert_eq!(times.len() as u64, store.sample_count());
            }
        }
    }
}
