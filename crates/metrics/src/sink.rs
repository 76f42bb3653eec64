//! What a [`crate::Collector`] writes into.
//!
//! A collector names a family, then emits that family's samples; it never
//! builds a [`MetricFamily`] itself. Two sinks consume the same pass:
//! [`TextSink`] writes exposition text as the samples arrive (the scrape hot
//! path — no `Metric`, no `LabelSet`, no temporary `String`), and
//! [`FamilySink`] builds the typed families [`crate::Registry::gather`]
//! returns. `TextSink` then `write_sorted` ≡ `encode_families` over
//! `FamilySink`'s families sorted by name, byte for byte.

use std::fmt::Write as _;
use std::ops::Range;

use crate::encode::{write_escaped, write_value};
use crate::labels::LabelSet;
use crate::model::{Exemplar, Metric, MetricFamily, MetricType, Sample};

/// Receiver of one collection pass.
pub trait Sink {
    /// Opens a family; the samples that follow belong to it. A family with
    /// no samples still writes its header.
    fn family(&mut self, name: &str, help: &str, metric_type: MetricType);

    /// One sample of the open family, named `family + suffix`. Labels may
    /// come in any order; a name given twice keeps its last value (what
    /// [`LabelSet::from_pairs`] does).
    ///
    /// # Panics
    /// Panics when no family is open (a collector bug).
    fn sample(&mut self, suffix: &'static str, labels: &[(&str, &str)], value: f64);

    /// One sample of the open family at full fidelity: explicit timestamp
    /// and exemplar included.
    fn metric(&mut self, metric: &Metric);

    /// Whole pre-built families, for a caller that already holds them (the
    /// typed view written back out).
    fn families(&mut self, families: &[MetricFamily]) {
        for fam in families {
            self.family(&fam.name, &fam.help, fam.metric_type);
            for m in &fam.metrics {
                self.metric(m);
            }
        }
    }
}

/// Builds [`MetricFamily`] values: the typed view of a collection pass.
#[derive(Default)]
pub struct FamilySink {
    families: Vec<MetricFamily>,
}

impl FamilySink {
    /// The families in the order they were opened.
    pub fn into_families(self) -> Vec<MetricFamily> {
        self.families
    }

    fn open(&mut self) -> &mut MetricFamily {
        self.families.last_mut().expect("sample before family")
    }
}

impl Sink for FamilySink {
    fn family(&mut self, name: &str, help: &str, metric_type: MetricType) {
        self.families.push(MetricFamily::new(name, help, metric_type));
    }

    fn sample(&mut self, suffix: &'static str, labels: &[(&str, &str)], value: f64) {
        let labels = LabelSet::from_pairs(labels.iter().copied());
        self.open()
            .metrics
            .push(Metric::suffixed(labels, Sample::now(value), suffix));
    }

    fn metric(&mut self, metric: &Metric) {
        self.open().metrics.push(metric.clone());
    }
}

/// One family's bytes in a [`TextSink`]: its name (a range of `names`) and
/// where its text starts; it ends where the next family starts.
struct Span {
    name: Range<usize>,
    start: usize,
}

/// Writes exposition text as samples arrive.
///
/// Families land in `text` in the order collectors open them;
/// [`TextSink::write_sorted`] then copies them out in by-name order. All
/// three buffers are kept across [`TextSink::clear`], so a warm sink
/// allocates nothing.
#[derive(Default)]
pub struct TextSink {
    text: String,
    names: String,
    spans: Vec<Span>,
    samples: usize,
}

impl TextSink {
    /// Forgets everything written, keeping the buffers.
    pub fn clear(&mut self) {
        self.text.clear();
        self.names.clear();
        self.spans.clear();
        self.samples = 0;
    }

    /// Sample lines written since the last [`TextSink::clear`].
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Appends every family written so far to `out`, sorted by family name;
    /// families of one name keep the order they were opened in (the order
    /// [`crate::Registry::gather`] sorts to).
    pub fn write_sorted(&self, out: &mut String) {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| &self.names[self.spans[i].name.clone()]);
        for i in order {
            let end = self.spans.get(i + 1).map_or(self.text.len(), |s| s.start);
            out.push_str(&self.text[self.spans[i].start..end]);
        }
    }

    /// Starts a sample line: `family + suffix`.
    fn open_line(&mut self, suffix: &str) {
        let span = self.spans.last().expect("sample before family");
        self.text.push_str(&self.names[span.name.clone()]);
        self.text.push_str(suffix);
        self.samples += 1;
    }

    fn label(&mut self, first: bool, name: &str, value: &str) {
        self.text.push(if first { '{' } else { ',' });
        self.text.push_str(name);
        self.text.push_str("=\"");
        write_escaped(&mut self.text, value, true);
        self.text.push('"');
    }

    /// Ends a sample line: value, optional timestamp, optional exemplar.
    fn close_line(&mut self, labelled: bool, sample: Sample, exemplar: Option<&Exemplar>) {
        self.text.push_str(if labelled { "} " } else { " " });
        write_value(&mut self.text, sample.value);
        if let Some(ts) = sample.timestamp_ms {
            let _ = write!(self.text, " {ts}");
        }
        if let Some(ex) = exemplar {
            // OpenMetrics exemplar syntax appended to the sample line.
            self.text.push_str(" # {trace_id=\"");
            write_escaped(&mut self.text, &ex.trace_id, true);
            self.text.push_str("\"} ");
            write_value(&mut self.text, ex.value);
        }
        self.text.push('\n');
    }
}

impl Sink for TextSink {
    fn family(&mut self, name: &str, help: &str, metric_type: MetricType) {
        let at = self.names.len();
        self.names.push_str(name);
        self.spans.push(Span {
            name: at..self.names.len(),
            start: self.text.len(),
        });
        if !help.is_empty() {
            self.text.push_str("# HELP ");
            self.text.push_str(name);
            self.text.push(' ');
            write_escaped(&mut self.text, help, false);
            self.text.push('\n');
        }
        if metric_type != MetricType::Untyped {
            self.text.push_str("# TYPE ");
            self.text.push_str(name);
            self.text.push(' ');
            self.text.push_str(metric_type.as_str());
            self.text.push('\n');
        }
    }

    fn sample(&mut self, suffix: &'static str, labels: &[(&str, &str)], value: f64) {
        self.open_line(suffix);
        // Ascending by name, each name once with its last value: pick the
        // smallest name above the one just written, later entries winning
        // ties. Quadratic in a label count that is 0–4, and allocation-free.
        let mut written: Option<&str> = None;
        loop {
            let mut next: Option<(&str, &str)> = None;
            for &(k, v) in labels {
                if written.is_some_and(|w| k <= w) {
                    continue;
                }
                if next.is_none_or(|(nk, _)| k <= nk) {
                    next = Some((k, v));
                }
            }
            let Some((k, v)) = next else { break };
            self.label(written.is_none(), k, v);
            written = Some(k);
        }
        self.close_line(written.is_some(), Sample::now(value), None);
    }

    fn metric(&mut self, metric: &Metric) {
        self.open_line(metric.name_suffix);
        for (i, (k, v)) in metric.labels.iter().enumerate() {
            self.label(i == 0, k, v);
        }
        self.close_line(
            !metric.labels.is_empty(),
            metric.sample,
            metric.exemplar.as_ref(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_families;
    use crate::labels;

    fn both(emit: impl Fn(&mut dyn Sink)) -> (String, String) {
        let mut text = TextSink::default();
        emit(&mut text);
        let mut direct = String::new();
        text.write_sorted(&mut direct);
        let mut typed = FamilySink::default();
        emit(&mut typed);
        let mut fams = typed.into_families();
        fams.sort_by(|a, b| a.name.cmp(&b.name));
        (direct, encode_families(&fams))
    }

    #[test]
    fn labels_are_sorted_and_later_duplicates_win() {
        let (direct, reference) = both(|out| {
            out.family("m", "h", MetricType::Gauge);
            out.sample("", &[("b", "1"), ("a", "x"), ("b", "2"), ("", "e"), ("a", "y")], 1.5);
            out.sample("_sum", &[], -0.0);
        });
        assert_eq!(direct, reference);
        assert_eq!(
            direct,
            "# HELP m h\n# TYPE m gauge\nm{=\"e\",a=\"y\",b=\"2\"} 1.5\nm_sum -0\n"
        );
    }

    #[test]
    fn families_come_out_by_name_and_same_names_keep_their_order() {
        let (direct, reference) = both(|out| {
            out.family("z", "", MetricType::Untyped);
            out.sample("", &[("k", "é\"\\\n")], f64::INFINITY);
            out.family("a", "second\\\n", MetricType::Counter);
            out.family("z", "again", MetricType::Gauge);
            out.metric(
                &Metric::new(labels! {"q" => "1"}, Sample::at(2.0, -5))
                    .with_exemplar(Some(Exemplar::new("t\"1", f64::NAN))),
            );
        });
        assert_eq!(direct, reference);
        assert_eq!(
            direct,
            "# HELP a second\\\\\\n\n# TYPE a counter\n\
             z{k=\"é\\\"\\\\\\n\"} +Inf\n\
             # HELP z again\n# TYPE z gauge\nz{q=\"1\"} 2 -5 # {trace_id=\"t\\\"1\"} NaN\n"
        );
    }

    #[test]
    fn a_cleared_sink_starts_over() {
        let mut sink = TextSink::default();
        sink.family("m", "", MetricType::Gauge);
        sink.sample("", &[], 1.0);
        assert_eq!(sink.samples(), 1);
        sink.clear();
        assert_eq!(sink.samples(), 0);
        let mut out = String::new();
        sink.write_sorted(&mut out);
        assert_eq!(out, "");
    }

    #[test]
    #[should_panic(expected = "sample before family")]
    fn a_sample_needs_an_open_family() {
        TextSink::default().sample("", &[], 1.0);
    }
}
