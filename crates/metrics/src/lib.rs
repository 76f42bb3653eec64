#![warn(missing_docs)]
//! Metric model and Prometheus-style text exposition format for CEEMS.
//!
//! This crate is the S1 substrate from `DESIGN.md`: the parts of the
//! Prometheus client/data-model ecosystem that every other CEEMS component
//! builds on.
//!
//! * [`mod@labels`] — immutable, sorted label sets with stable fingerprints.
//! * [`model`] — metric families, samples and metric types.
//! * [`instruments`] — thread-safe counters, gauges and histograms plus
//!   their labelled ("vec") variants.
//! * [`registry`] — a [`registry::Collector`] trait and [`registry::Registry`]
//!   that runs many collectors per scrape, mirroring how the CEEMS exporter
//!   enables/disables collectors at runtime, and hands out registered
//!   instruments to every other component.
//! * [`sink`] — what collectors write into: exposition text directly
//!   ([`sink::TextSink`]) or typed families ([`sink::FamilySink`]).
//! * [`encode`] / [`parse`] — the text exposition format, both directions.
//!   The TSDB scraper parses exactly what the exporter encodes.
//! * [`regexlite`] — a small, anchored regular-expression subset used for
//!   label matching (`=~` / `!~`) without an external regex dependency.
//! * [`matcher`] — label matchers used by TSDB selectors and relabelling.

pub mod encode;
pub mod instruments;
pub mod labels;
pub mod matcher;
pub mod model;
pub mod parse;
pub mod regexlite;
pub mod registry;
pub mod sink;

pub use encode::encode_families;
pub use instruments::{
    Counter, CounterVec, Gauge, GaugeVec, Histogram, HistogramTimer, HistogramVec,
    DEFAULT_EXEMPLAR_WINDOW_MS,
};
pub use labels::{LabelSet, LabelSetBuilder};
pub use matcher::{LabelMatcher, MatchOp};
pub use model::{Exemplar, Metric, MetricFamily, MetricType, Sample};
pub use parse::{parse_text, ParseError, ParsedExemplar, ParsedSample, ParsedScrape};
pub use registry::{Collector, Registry};
pub use sink::{FamilySink, Sink, TextSink};
