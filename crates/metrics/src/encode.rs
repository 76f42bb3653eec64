//! Text exposition format encoder (the `/metrics` wire format).

use std::fmt::Write as _;

use crate::model::{MetricFamily, MetricType};

/// Appends `v` with `\\` and `\n` escaped, and `"` too when `quote` is set
/// (label values; HELP text leaves quotes alone, per the format spec).
pub(crate) fn write_escaped(out: &mut String, v: &str, quote: bool) {
    let mut from = 0;
    for (i, b) in v.bytes().enumerate() {
        let esc = match b {
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'"' if quote => "\\\"",
            _ => continue,
        };
        out.push_str(&v[from..i]);
        out.push_str(esc);
        from = i + 1;
    }
    out.push_str(&v[from..]);
}

/// Escapes a label value for the exposition format (`\\`, `\"`, `\n`).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    write_escaped(&mut out, v, true);
    out
}

/// Escapes a HELP string (`\\` and `\n` only, per the format spec).
pub fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    write_escaped(&mut out, v, false);
    out
}

/// Appends a sample value the way Prometheus writes it: `NaN`, `+Inf`,
/// `-Inf`, otherwise what `Display for f64` prints: the shortest decimal
/// that reads back to the same bits, with no exponent and no trailing `.0`.
pub fn write_value(out: &mut impl std::fmt::Write, v: f64) {
    let _ = if v.is_nan() {
        out.write_str("NaN")
    } else if v == f64::INFINITY {
        out.write_str("+Inf")
    } else if v == f64::NEG_INFINITY {
        out.write_str("-Inf")
    } else if v.fract() == 0.0 && v.abs() < 9e15 && v.to_bits() != (-0.0f64).to_bits() {
        // A whole number below 2^53 prints the same digits as an integer
        // (only `-0` differs), without the shortest-digits search.
        write!(out, "{}", v as i64)
    } else {
        write!(out, "{v}")
    };
}

/// [`write_value`] into a fresh `String`.
pub fn format_value(v: f64) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

/// Encodes families into the text exposition format.
///
/// Families are assumed pre-sorted (the registry sorts them); metrics are
/// emitted in their stored order. This is the reference the registry's
/// direct text path ([`crate::Registry::render_into`]) is tested against.
pub fn encode_families(families: &[MetricFamily]) -> String {
    let mut out = String::with_capacity(families.len() * 128);
    encode_families_into(families, &mut out);
    out
}

/// Encodes into a caller-provided buffer.
pub fn encode_families_into(families: &[MetricFamily], out: &mut String) {
    for fam in families {
        if !fam.help.is_empty() {
            let _ = writeln!(out, "# HELP {} {}", fam.name, escape_help(&fam.help));
        }
        if fam.metric_type != MetricType::Untyped {
            let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.metric_type.as_str());
        }
        for m in &fam.metrics {
            out.push_str(&fam.name);
            out.push_str(m.name_suffix);
            if !m.labels.is_empty() {
                out.push('{');
                let mut first = true;
                for (k, v) in m.labels.iter() {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "{}=\"{}\"", k, escape_label_value(v));
                }
                out.push('}');
            }
            out.push(' ');
            out.push_str(&format_value(m.sample.value));
            if let Some(ts) = m.sample.timestamp_ms {
                let _ = write!(out, " {}", ts);
            }
            if let Some(ex) = &m.exemplar {
                // OpenMetrics exemplar syntax appended to the sample line.
                let _ = write!(
                    out,
                    " # {{trace_id=\"{}\"}} {}",
                    escape_label_value(&ex.trace_id),
                    format_value(ex.value)
                );
            }
            out.push('\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels;
    use crate::model::{Metric, MetricFamily, MetricType, Sample};

    #[test]
    fn encode_basic_family() {
        let fam = MetricFamily::new(
            "ceems_rapl_package_joules_total",
            "RAPL package energy",
            MetricType::Counter,
        )
        .with_metric(labels! {"package" => "0"}, 1234.5)
        .with_metric(labels! {"package" => "1"}, 6789.0);
        let text = encode_families(&[fam]);
        assert_eq!(
            text,
            "# HELP ceems_rapl_package_joules_total RAPL package energy\n\
             # TYPE ceems_rapl_package_joules_total counter\n\
             ceems_rapl_package_joules_total{package=\"0\"} 1234.5\n\
             ceems_rapl_package_joules_total{package=\"1\"} 6789\n"
        );
    }

    #[test]
    fn encode_no_labels_and_timestamp() {
        let mut fam = MetricFamily::new("up", "", MetricType::Gauge);
        fam.metrics
            .push(Metric::new(labels! {}, Sample::at(1.0, 1700000000000)));
        let text = encode_families(&[fam]);
        assert_eq!(text, "# TYPE up gauge\nup 1 1700000000000\n");
    }

    #[test]
    fn encode_suffix_and_escapes() {
        let mut fam = MetricFamily::new("lat", "a\nb\\c", MetricType::Histogram);
        fam.metrics.push(Metric::suffixed(
            labels! {"le" => "0.5", "path" => "a\"b"},
            Sample::now(3.0),
            "_bucket",
        ));
        let text = encode_families(&[fam]);
        assert!(text.contains("# HELP lat a\\nb\\\\c\n"));
        assert!(text.contains("lat_bucket{le=\"0.5\",path=\"a\\\"b\"} 3\n"));
    }

    #[test]
    fn encode_exemplar_suffix() {
        use crate::model::Exemplar;
        let mut fam = MetricFamily::new("lat", "", MetricType::Histogram);
        fam.metrics.push(
            Metric::suffixed(labels! {"le" => "0.5"}, Sample::now(3.0), "_bucket")
                .with_exemplar(Some(Exemplar::new("deadbeef", 0.043))),
        );
        let text = encode_families(&[fam]);
        assert!(
            text.contains("lat_bucket{le=\"0.5\"} 3 # {trace_id=\"deadbeef\"} 0.043\n"),
            "got: {text}"
        );
    }

    #[test]
    fn special_values() {
        assert_eq!(format_value(f64::NAN), "NaN");
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(-0.0), "-0");
        assert_eq!(format_value(-2.25), "-2.25");
        assert_eq!(format_value(1e21), "1000000000000000000000");
        assert_eq!(format_value(u64::MAX as f64), "18446744073709552000");
        assert_eq!(format_value(-9007199254740991.0), "-9007199254740991");
    }

    #[test]
    fn escapes_keep_multi_byte_text_whole() {
        assert_eq!(escape_label_value("é\"λ\\\n✓"), "é\\\"λ\\\\\\n✓");
        assert_eq!(escape_help("é\"λ\\\n✓"), "é\"λ\\\\\\n✓");
        assert_eq!(escape_label_value(""), "");
    }
}
