//! Exposition text is input from outside the process: a scrape reads it from
//! a target, a push from a publisher. Whatever the bytes, parsing
//! (`ceems_metrics::parse`) and ingest (`SeriesCache::ingest`) return: they
//! do not panic, and what they allocate is bounded by a fixed multiple of
//! the input. Fed arbitrary strings, lines built from the format's own
//! pieces, and real exporter renders with bytes overwritten or cut short.
//! Its own test binary: the measuring allocator is process-wide (the
//! tallies are per thread, so the tests may run side by side).

use std::sync::Arc;

use ceems_exporter::{CeemsExporter, ExporterConfig};
use ceems_metrics::parse::parse_text;
use ceems_simnode::node::{HardwareProfile, NodeSpec, SimNode, TaskSpec};
use ceems_simnode::power::{GpuModel, IpmiCoverage};
use ceems_simnode::{SimClock, WorkloadProfile};
use ceems_tsdb::scrape::{exposition_to_batch, SeriesCache, Stamp};
use ceems_tsdb::{SeriesData, Tsdb};
use parking_lot::Mutex;
use proptest::prelude::*;

#[path = "common/measuring.rs"]
mod measuring;
use measuring::requested_by;

/// Parses, and holds the parse to its memory bound: a sample line of a few
/// bytes becomes a name, a label set and a value (about 45 bytes requested
/// per input byte at worst, growth of the sample list included).
fn parse_within_bounds(text: &str) {
    let (_, total, largest) = requested_by(|| parse_text(text));
    assert!(
        largest <= 64 * text.len() + 512,
        "one request of {largest} bytes for {} of input",
        text.len()
    );
    assert!(
        total <= 128 * text.len() + 4096,
        "{total} bytes requested for {} of input",
        text.len()
    );
}

/// Ingests twice into a fresh database (the second pass by remembered ids),
/// and holds each pass to its memory bound: a new series costs the index,
/// the head and the cache a fixed amount beside its labels (about 330 bytes
/// requested per input byte at worst, for lines of a few bytes that each
/// name a new series).
fn ingest_within_bounds(text: &str) {
    let db = Tsdb::default();
    let mut cache = SeriesCache::default();
    let extra = [("nodegroup".to_string(), "intel-dram".to_string())];
    for pass in 0..2i64 {
        let stamp = Stamp {
            instance: "n1:9100",
            job: "ceems",
            extra_labels: &extra,
        };
        let (_, total, largest) = requested_by(|| {
            cache
                .ingest(&db, None, text, stamp, 15_000 * (pass + 1), &[])
                .map(|i| i.samples)
        });
        assert!(
            largest <= 64 * text.len() + 4096,
            "pass {pass}: one request of {largest} bytes for {} of input",
            text.len()
        );
        assert!(
            total <= 1024 * text.len() + 16_384,
            "pass {pass}: {total} bytes requested for {} of input",
            text.len()
        );
    }
}

fn node(profile: HardwareProfile, jobs: u64, gpus_per_job: usize) -> SimNode {
    let mut n = SimNode::new(
        NodeSpec {
            hostname: "n".into(),
            profile,
        },
        13,
    );
    let cores = (n.total_cores() / jobs.max(1) as usize).max(1);
    for id in 1..=jobs {
        n.add_task(
            TaskSpec {
                id,
                cores,
                memory_bytes: 2 << 30,
                gpus: gpus_per_job,
                workload: WorkloadProfile::CpuBound { intensity: 0.8 },
            },
            0,
        )
        .expect("task fits");
    }
    for i in 1..=4 {
        n.step(i * 15_000, 15.0);
    }
    n
}

/// What real exporters expose: an idle node, a busy CPU node and a GPU
/// node with jobs.
fn renders() -> Vec<String> {
    let gpu = HardwareProfile::Gpu {
        model: GpuModel::A100,
        count: 4,
        coverage: IpmiCoverage::IncludesGpus,
    };
    [
        node(HardwareProfile::AmdCpu, 0, 0),
        node(HardwareProfile::IntelCpu, 6, 0),
        node(gpu, 2, 2),
    ]
    .into_iter()
    .map(|n| {
        let exporter = CeemsExporter::new(
            Arc::new(Mutex::new(n)),
            SimClock::starting_at(60_000),
            ExporterConfig::default(),
        );
        exporter.render()
    })
    .collect()
}

/// The costliest input per byte: short lines, each a new series.
#[test]
fn short_lines_each_a_new_series() {
    for n in [1usize, 10, 100, 1000] {
        let bare: String = (0..n).map(|i| format!("m{i} 1\n")).collect();
        let labelled: String = (0..n).map(|i| format!("m{{a=\"{i}\"}} 1\n")).collect();
        for text in [bare, labelled] {
            parse_within_bounds(&text);
            ingest_within_bounds(&text);
        }
    }
}

#[test]
fn real_renders_parse_and_ingest_within_the_bounds() {
    for text in renders() {
        assert!(parse_text(&text).is_ok());
        parse_within_bounds(&text);
        ingest_within_bounds(&text);
    }
}

/// The format's pieces, joined at random: names, label blocks with escapes
/// and unterminated quotes, values, timestamps, exemplars and comments.
fn piece() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("m"),
        Just("ceems_rapl_package_joules_total"),
        Just("{"),
        Just("}"),
        Just("a=\"1\""),
        Just("le=\"+Inf\""),
        Just(","),
        Just("=\""),
        Just("\\\""),
        Just("\\\\"),
        Just("\\n"),
        Just("\""),
        Just(" "),
        Just("\t"),
        Just("1"),
        Just("-0.5e-3"),
        Just("NaN"),
        Just("+Inf"),
        Just("-Inf"),
        Just("9223372036854775807"),
        Just("1e999"),
        Just("\n"),
        Just("\r\n"),
        Just("# HELP m "),
        Just("# TYPE m counter"),
        Just("# {trace_id=\"t\"} 1"),
        Just("#"),
        Just("é"),
        Just("\u{0}"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_strings(text in "[ -~\t\n\u{e9}\u{2028}]{0,300}") {
        parse_within_bounds(&text);
        ingest_within_bounds(&text);
    }

    #[test]
    fn lines_built_from_the_format_pieces(
        pieces in proptest::collection::vec(piece(), 0..120),
    ) {
        let text: String = pieces.concat();
        parse_within_bounds(&text);
        ingest_within_bounds(&text);
    }

    /// Damage that gets as far as the field it lands in: a real render with
    /// a few bytes overwritten (what is no longer UTF-8 becomes U+FFFD), and
    /// cut short at a random byte.
    #[test]
    fn real_renders_with_bytes_overwritten_or_cut(
        which in 0usize..3,
        damage in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        cut in any::<usize>(),
    ) {
        let mut bytes = renders().swap_remove(which).into_bytes();
        for (at, byte) in damage {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        bytes.truncate(cut % (bytes.len() + 1));
        let text = String::from_utf8_lossy(&bytes);
        parse_within_bounds(&text);
        ingest_within_bounds(&text);
    }
}

/// Every series with every sample, in label order; values as bits so NaN
/// compares.
fn dump(db: &Tsdb) -> Vec<(String, Vec<(i64, u64)>)> {
    let mut all: Vec<SeriesData> = db.select(&[], i64::MIN, i64::MAX);
    all.sort_by(|a, b| a.labels.cmp(&b.labels));
    let bits = |s: &SeriesData| s.samples.iter().map(|p| (p.t_ms, p.v.to_bits())).collect();
    all.iter()
        .map(|s| (s.labels.to_string(), bits(s)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A cache warmed by a real render, then fed copies of it with bytes
    /// overwritten, the lines that still sit where they sat taken by
    /// position: no panic, the bounds above, and what the uncached path
    /// (`exposition_to_batch` + `append_batch`) makes of each copy — the
    /// same error, or the same samples.
    #[test]
    fn a_warm_cache_fed_damaged_renders_ingests_as_uncached(
        which in 0usize..3,
        copies in proptest::collection::vec(
            proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
            1..4,
        ),
    ) {
        let render = renders().swap_remove(which);
        let extra = [("nodegroup".to_string(), "intel-dram".to_string())];
        let stamp = Stamp {
            instance: "n1:9100",
            job: "ceems",
            extra_labels: &extra,
        };
        let uncached = |db: &Tsdb, text: &str, now_ms| {
            let batch = exposition_to_batch(text, stamp.instance, stamp.job, &extra, now_ms)?;
            db.append_batch(&batch);
            Ok::<u64, String>(batch.len() as u64)
        };
        let (cached, reference) = (Tsdb::default(), Tsdb::default());
        let mut cache = SeriesCache::default();
        cache.ingest(&cached, None, &render, stamp, 15_000, &[]).unwrap();
        uncached(&reference, &render, 15_000).unwrap();
        for (pass, damage) in copies.iter().enumerate() {
            let mut bytes = render.clone().into_bytes();
            for &(at, byte) in damage {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
            let text = String::from_utf8_lossy(&bytes);
            let now_ms = 15_000 * (pass as i64 + 2);
            let (got, total, largest) = requested_by(|| {
                cache.ingest(&cached, None, &text, stamp, now_ms, &[]).map(|i| i.samples)
            });
            prop_assert!(largest <= 64 * text.len() + 4096, "one request of {} bytes", largest);
            prop_assert!(total <= 1024 * text.len() + 16_384, "{} bytes requested", total);
            prop_assert_eq!(got, uncached(&reference, &text, now_ms));
        }
        prop_assert_eq!(dump(&cached), dump(&reference));
    }
}
