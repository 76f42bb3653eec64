//! Property tests on the exposition wire format: whatever the encoder
//! emits, the parser must read back exactly (this is the exporter→scraper
//! contract the whole stack rests on).

use std::collections::HashSet;
use std::sync::Arc;

use ceems_metrics::encode::{encode_families, format_value};
use ceems_metrics::labels::{LabelSet, LabelSetBuilder};
use ceems_metrics::model::{Exemplar, Metric, MetricFamily, MetricType, Sample};
use ceems_metrics::parse::{parse_sample_line, parse_text};
use ceems_metrics::{Collector, Registry, Sink};
use proptest::prelude::*;

fn arb_label_name() -> impl Strategy<Value = String> {
    "[a-zA-Z_][a-zA-Z0-9_]{0,12}"
}

fn arb_metric_name() -> impl Strategy<Value = String> {
    "[a-zA-Z_:][a-zA-Z0-9_:]{0,20}"
}

fn arb_label_value() -> impl Strategy<Value = String> {
    // Arbitrary UTF-8 including quotes, backslashes and newlines — the
    // escaping must handle all of it.
    proptest::string::string_regex("[ -~é\\n\"\\\\]{0,16}").unwrap()
}

fn arb_family() -> impl Strategy<Value = MetricFamily> {
    (
        arb_metric_name(),
        proptest::collection::vec((arb_label_name(), arb_label_value()), 0..4),
        proptest::collection::vec(
            (
                prop_oneof![
                    4 => proptest::num::f64::NORMAL,
                    1 => Just(f64::INFINITY),
                    1 => Just(f64::NEG_INFINITY),
                    1 => Just(0.0),
                ],
                proptest::option::of(-1_000_000_000i64..1_000_000_000_000),
            ),
            1..4,
        ),
    )
        .prop_map(|(name, label_pairs, samples)| {
            let mut fam = MetricFamily::new(name, "prop test family", MetricType::Gauge);
            for (i, (v, ts)) in samples.into_iter().enumerate() {
                let mut b = LabelSetBuilder::new();
                for (k, val) in &label_pairs {
                    b = b.label(k.clone(), val.clone());
                }
                // Make instances distinct so series are well formed.
                b = b.label("idx", i.to_string());
                fam.metrics.push(Metric::new(
                    b.build(),
                    Sample {
                        value: v,
                        timestamp_ms: ts,
                    },
                ));
            }
            fam
        })
}

/// One sample as a collector would emit it: labels in any order, names
/// possibly repeated.
#[derive(Clone, Debug)]
struct SampleSpec {
    suffix: &'static str,
    labels: Vec<(String, String)>,
    value: f64,
    timestamp_ms: Option<i64>,
    exemplar: Option<(String, f64)>,
}

#[derive(Clone, Debug)]
struct FamilySpec {
    name: String,
    help: String,
    metric_type: MetricType,
    samples: Vec<SampleSpec>,
}

/// Emits its families through `family` + `sample`, falling back to `metric`
/// for what only that carries (a timestamp, an exemplar).
struct Scripted(Vec<FamilySpec>);

impl Collector for Scripted {
    fn collect(&self, out: &mut dyn Sink) {
        for fam in &self.0 {
            out.family(&fam.name, &fam.help, fam.metric_type);
            for s in &fam.samples {
                let labels: Vec<(&str, &str)> =
                    s.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                if s.timestamp_ms.is_none() && s.exemplar.is_none() {
                    out.sample(s.suffix, &labels, s.value);
                    continue;
                }
                let sample = Sample {
                    value: s.value,
                    timestamp_ms: s.timestamp_ms,
                };
                let exemplar = s.exemplar.clone().map(|(id, v)| Exemplar::new(id, v));
                out.metric(
                    &Metric::suffixed(LabelSet::from_pairs(labels), sample, s.suffix)
                        .with_exemplar(exemplar),
                );
            }
        }
    }
}

/// How a generated collector gets into the registry.
#[derive(Clone, Copy, Debug)]
enum Route {
    /// A `Collector` impl.
    Collector,
    /// A sink closure writing typed families it already holds.
    Families,
    /// A sink closure writing `family` + `sample` itself.
    Closure,
    /// The `Registry` constructors, one instrument per family.
    Instruments,
}

/// Registers `spec` under `name` by `route`; returns the registry names it
/// took and the sample lines it writes.
fn register(
    registry: &Registry,
    name: &str,
    route: Route,
    spec: Vec<FamilySpec>,
) -> (Vec<String>, usize) {
    let scripted = Scripted(spec);
    let lines = scripted.0.iter().map(|f| f.samples.len()).sum();
    let collector: Arc<dyn Collector> = match route {
        Route::Collector => Arc::new(scripted),
        Route::Families => {
            let families = scripted.families();
            Arc::new(move |out: &mut dyn Sink| out.families(&families))
        }
        Route::Closure => Arc::new(move |out: &mut dyn Sink| scripted.collect(out)),
        Route::Instruments => return instruments(registry, name, &scripted.0),
    };
    registry.register(name, collector);
    (vec![name.to_string()], lines)
}

/// The last value `s` gives each of `names` ("" if none).
fn label_values<'a>(names: &[&str], s: &'a SampleSpec) -> Vec<&'a str> {
    let value = |k: &&str| s.labels.iter().rev().find(|(l, _)| l == k);
    names
        .iter()
        .map(|k| value(k).map_or("", |(_, v)| v.as_str()))
        .collect()
}

/// Each family as the instrument of its type (a summary as a counter
/// family, an untyped one as a gauge family), fed the family's samples.
/// Names get `_{name}_{j}` appended so every registration is unique.
fn instruments(registry: &Registry, name: &str, spec: &[FamilySpec]) -> (Vec<String>, usize) {
    let mut names = Vec::new();
    let mut lines = 0;
    for (j, fam) in spec.iter().enumerate() {
        let n = format!("{}_{name}_{j}", fam.name);
        let help = fam.help.as_str();
        let mut label_names: Vec<&str> = Vec::new();
        for (k, _) in fam.samples.first().map_or(&[][..], |s| &s.labels) {
            if !label_names.contains(&k.as_str()) {
                label_names.push(k);
            }
        }
        let values = |s| label_values(&label_names, s);
        let children: HashSet<Vec<&str>> = fam.samples.iter().map(values).collect();
        match fam.metric_type {
            MetricType::Counter => {
                let c = registry.counter(&n, help);
                fam.samples.iter().for_each(|s| c.add(s.value));
                lines += 1;
            }
            MetricType::Gauge => {
                let g = registry.gauge(&n, help);
                fam.samples.iter().for_each(|s| g.set(s.value));
                lines += 1;
            }
            MetricType::Histogram => {
                let h = registry.histogram(&n, help, vec![0.5, -1.0, 1e3]);
                for s in &fam.samples {
                    match &s.exemplar {
                        Some((id, _)) => {
                            h.observe_with_exemplar_at(s.value, id, s.timestamp_ms.unwrap_or(0))
                        }
                        None => h.observe(s.value),
                    }
                }
                lines += 3 + 1 + 2;
            }
            MetricType::Summary => {
                let cv = registry.counter_vec(&n, help, &label_names);
                for s in &fam.samples {
                    cv.with_label_values(&values(s)).add(s.value);
                }
                lines += children.len();
            }
            MetricType::Untyped => {
                let gv = registry.gauge_vec(&n, help, &label_names);
                for s in &fam.samples {
                    gv.with_label_values(&values(s)).set(s.value);
                }
                lines += children.len();
            }
        }
        names.push(n);
    }
    (names, lines)
}

fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => proptest::num::f64::ANY,
        2 => (-1_000_000i64..1_000_000).prop_map(|v| v as f64),
        1 => Just(-0.0),
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ]
}

fn arb_sample() -> impl Strategy<Value = SampleSpec> {
    (
        prop_oneof![Just(""), Just("_bucket"), Just("_sum"), Just("_count")],
        // Few names, so that repeats and every ordering turn up.
        proptest::collection::vec(("[ab_][ab0]{0,1}", arb_label_value()), 0..5),
        arb_value(),
        proptest::option::of(-1_000_000_000i64..1_000_000_000_000),
        proptest::option::of((arb_label_value(), arb_value())),
    )
        .prop_map(|(suffix, labels, value, timestamp_ms, exemplar)| SampleSpec {
            suffix,
            labels,
            value,
            timestamp_ms,
            exemplar,
        })
}

fn arb_collector() -> impl Strategy<Value = Vec<FamilySpec>> {
    let family = (
        // Few names: the same family turns up in several collectors.
        "[a-c:_]{1,2}",
        prop_oneof![Just(String::new()), arb_label_value()],
        prop_oneof![
            Just(MetricType::Counter),
            Just(MetricType::Gauge),
            Just(MetricType::Histogram),
            Just(MetricType::Summary),
            Just(MetricType::Untyped),
        ],
        proptest::collection::vec(arb_sample(), 0..4),
    )
        .prop_map(|(name, help, metric_type, samples)| FamilySpec {
            name,
            help,
            metric_type,
            samples,
        });
    proptest::collection::vec(family, 0..4)
}

fn arb_route() -> impl Strategy<Value = Route> {
    prop_oneof![
        Just(Route::Collector),
        Just(Route::Families),
        Just(Route::Closure),
        Just(Route::Instruments),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn render_is_the_encoding_of_gather(
        collectors in proptest::collection::vec((arb_collector(), any::<bool>(), arb_route()), 0..5),
    ) {
        let registry = Registry::new();
        let mut want_samples = 0;
        for (i, (families, enabled, route)) in collectors.into_iter().enumerate() {
            let (names, lines) = register(&registry, &format!("c{i}"), route, families);
            if enabled {
                want_samples += lines;
            }
            for name in names {
                registry.set_enabled(&name, enabled);
            }
        }
        let mut text = String::new();
        let samples = registry.render_into(&mut text);
        prop_assert_eq!(&text, &encode_families(&registry.gather()));
        prop_assert_eq!(samples, want_samples);
        let parsed = parse_text(&text);
        prop_assert!(parsed.is_ok(), "{:?} rejects:\n{}", parsed.err(), text);
        prop_assert_eq!(parsed.unwrap().samples.len(), want_samples);
    }

    #[test]
    fn a_written_value_reads_back_to_the_same_bits(any in proptest::num::f64::ANY, pick in 0usize..8) {
        let edge = [-0.0, 0.0, 5e-324, 1e21, u64::MAX as f64, f64::MAX, f64::MIN_POSITIVE, -9007199254740993.0];
        for v in [any, edge[pick], f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = format_value(v);
            let back = parse_sample_line(&format!("m {text}"), 1).expect("a written value parses").value;
            if v.is_nan() {
                prop_assert!(back.is_nan(), "{text} read back as {back}");
            } else {
                prop_assert_eq!(back.to_bits(), v.to_bits(), "{} read back as {}", text, back);
            }
            if v.is_finite() {
                // The whole-number shortcut prints what `Display` prints.
                prop_assert_eq!(text, format!("{v}"));
            }
        }
    }

    #[test]
    fn encode_parse_roundtrip(families in proptest::collection::vec(arb_family(), 1..4)) {
        let text = encode_families(&families);
        let parsed = parse_text(&text).expect("encoder output must parse");

        let want: usize = families.iter().map(|f| f.metrics.len()).sum();
        prop_assert_eq!(parsed.samples.len(), want);

        let mut i = 0;
        for fam in &families {
            prop_assert_eq!(parsed.types.get(&fam.name), Some(&MetricType::Gauge));
            for m in &fam.metrics {
                let got = &parsed.samples[i];
                i += 1;
                prop_assert_eq!(&got.name, &fam.name);
                prop_assert_eq!(got.timestamp_ms, m.sample.timestamp_ms);
                // Values survive through the shortest-roundtrip formatter.
                prop_assert!(
                    got.value == m.sample.value
                        || (got.value.is_nan() && m.sample.value.is_nan()),
                    "value {} != {}", got.value, m.sample.value
                );
                // Labels: every non-empty original label survives.
                for (k, v) in m.labels.iter() {
                    if !v.is_empty() {
                        prop_assert_eq!(got.labels.get(k), Some(v), "label {}", k);
                    }
                }
            }
        }
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "\\PC{0,256}") {
        let _ = parse_text(&input); // must return, never panic
    }

    #[test]
    fn label_matcher_regex_never_panics(pattern in "[ -~]{0,24}", input in "[ -~]{0,24}") {
        if let Ok(re) = ceems_metrics::regexlite::Regex::new(&pattern) {
            let _ = re.is_match(&input);
        }
    }
}
