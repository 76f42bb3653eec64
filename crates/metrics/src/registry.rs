//! Collector trait and registry.
//!
//! The CEEMS exporter is structured as a set of named collectors that can be
//! enabled or disabled from the command line; the registry mirrors that: it
//! holds `(name, collector)` pairs and gathers all enabled families on each
//! scrape. A component's own instruments come from the registry's
//! constructors ([`Registry::counter`] and friends), which register them as
//! they hand them out.

use std::sync::Arc;

use std::cell::Cell;

use parking_lot::RwLock;

use crate::instruments::{Counter, CounterVec, Gauge, GaugeVec, Histogram};
use crate::model::{MetricFamily, MetricType};
use crate::sink::{FamilySink, Sink, TextSink};

/// Anything that can produce metrics on demand.
pub trait Collector: Send + Sync {
    /// Emits the current families and samples into `out`. Called once per
    /// scrape.
    fn collect(&self, out: &mut dyn Sink);

    /// The typed view of one pass: what [`Collector::collect`] emits, as
    /// families.
    fn families(&self) -> Vec<MetricFamily> {
        let mut sink = FamilySink::default();
        self.collect(&mut sink);
        sink.into_families()
    }
}

/// A closure is a collector: it writes what it reads at scrape time
/// straight into the sink.
impl<F> Collector for F
where
    F: Fn(&mut dyn Sink) + Send + Sync,
{
    fn collect(&self, out: &mut dyn Sink) {
        self(out);
    }
}

struct Entry {
    name: String,
    enabled: bool,
    collector: Arc<dyn Collector>,
}

/// A registry of named collectors.
#[derive(Clone, Default)]
pub struct Registry {
    entries: Arc<RwLock<Vec<Entry>>>,
}

thread_local! {
    /// This thread's warm text sink. A render takes it out and puts it back,
    /// so its buffers serve every registry the thread renders; a collector
    /// that renders another registry meanwhile finds an empty one.
    static SCRATCH: Cell<TextSink> = Cell::default();
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a collector under a unique name, enabled by default.
    ///
    /// # Panics
    /// Panics if the name is already registered (a registration bug).
    pub fn register(&self, name: impl Into<String>, collector: Arc<dyn Collector>) {
        let name = name.into();
        let mut entries = self.entries.write();
        assert!(
            !entries.iter().any(|e| e.name == name),
            "collector {name:?} registered twice"
        );
        entries.push(Entry {
            name,
            enabled: true,
            collector,
        });
    }

    /// Creates a counter, registered under `name` as a one-sample family.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let c = Counter::new();
        let read = c.clone();
        self.register_value(name, help, MetricType::Counter, move || read.get());
        c
    }

    /// Creates a gauge, registered under `name` as a one-sample family.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let g = Gauge::new();
        let read = g.clone();
        self.register_value(name, help, MetricType::Gauge, move || read.get());
        g
    }

    /// Creates an unlabelled histogram with the given bucket bounds,
    /// registered under `name`.
    pub fn histogram(&self, name: &str, help: &str, bounds: Vec<f64>) -> Histogram {
        let hist = Histogram::new(bounds);
        let (n, h, read) = (name.to_string(), help.to_string(), hist.clone());
        self.register(
            name,
            Arc::new(move |out: &mut dyn Sink| {
                out.family(&n, &h, MetricType::Histogram);
                read.write(out, &[]);
            }),
        );
        hist
    }

    /// Creates a labelled counter family, registered under `name`.
    pub fn counter_vec(&self, name: &str, help: &str, label_names: &[&str]) -> CounterVec {
        let cv = CounterVec::new(name, help, label_names);
        self.register(name, Arc::new(cv.clone()));
        cv
    }

    /// Creates a labelled gauge family, registered under `name`.
    pub fn gauge_vec(&self, name: &str, help: &str, label_names: &[&str]) -> GaugeVec {
        let gv = GaugeVec::new(name, help, label_names);
        self.register(name, Arc::new(gv.clone()));
        gv
    }

    fn register_value(
        &self,
        name: &str,
        help: &str,
        metric_type: MetricType,
        value: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        let (n, h) = (name.to_string(), help.to_string());
        self.register(
            name,
            Arc::new(move |out: &mut dyn Sink| {
                out.family(&n, &h, metric_type);
                out.sample("", &[], value());
            }),
        );
    }

    /// Enables or disables a collector by name; returns false if unknown.
    pub fn set_enabled(&self, name: &str, enabled: bool) -> bool {
        let mut entries = self.entries.write();
        match entries.iter_mut().find(|e| e.name == name) {
            Some(e) => {
                e.enabled = enabled;
                true
            }
            None => false,
        }
    }

    /// Names of all registered collectors with their enabled state.
    pub fn collector_names(&self) -> Vec<(String, bool)> {
        self.entries
            .read()
            .iter()
            .map(|e| (e.name.clone(), e.enabled))
            .collect()
    }

    /// Runs the enabled collectors, in registration order, into `out`. They
    /// run after the lock is dropped: one may be slow (IPMI) or touch this
    /// registry, and a writer queued behind a held read lock parks every
    /// later reader.
    fn collect(&self, out: &mut dyn Sink) {
        let enabled: Vec<Arc<dyn Collector>> = {
            let entries = self.entries.read();
            let enabled = entries.iter().filter(|e| e.enabled);
            enabled.map(|e| e.collector.clone()).collect()
        };
        for c in enabled {
            c.collect(out);
        }
    }

    /// Gathers families from all enabled collectors, sorted by family name.
    pub fn gather(&self) -> Vec<MetricFamily> {
        let mut sink = FamilySink::default();
        self.collect(&mut sink);
        let mut out = sink.into_families();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Appends the exposition text of all enabled collectors to `out` —
    /// byte for byte `encode_families(&self.gather())`, written straight
    /// from the collectors — and returns the number of sample lines.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut sink = SCRATCH.take();
        sink.clear();
        self.collect(&mut sink);
        sink.write_sorted(out);
        let samples = sink.samples();
        SCRATCH.set(sink);
        samples
    }

    /// [`Registry::render_into`] a fresh `String`: the `/metrics` payload.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-sample gauge family, as a sink closure.
    fn fam(name: &'static str, v: f64) -> Arc<dyn Collector> {
        Arc::new(move |out: &mut dyn Sink| {
            out.family(name, "t", MetricType::Gauge);
            out.sample("", &[], v);
        })
    }

    #[test]
    fn gather_sorted_and_toggleable() {
        let r = Registry::new();
        r.register("b", fam("metric_b", 2.0));
        r.register("a", fam("metric_a", 1.0));
        let fams = r.gather();
        assert_eq!(fams.len(), 2);
        assert_eq!(fams[0].name, "metric_a");

        assert!(r.set_enabled("b", false));
        assert!(!r.set_enabled("zzz", false));
        let fams = r.gather();
        assert_eq!(fams.len(), 1);
        assert_eq!(fams[0].name, "metric_a");
        assert_eq!(
            r.collector_names(),
            vec![("b".to_string(), false), ("a".to_string(), true)]
        );
    }

    #[test]
    fn render_is_the_encoding_of_gather() {
        let r = Registry::new();
        r.register("b", fam("metric_b", 2.0));
        r.register("a", fam("metric_a", 1.0));
        r.register("off", fam("metric_off", 0.0));
        r.set_enabled("off", false);
        let mut out = String::from("kept ");
        assert_eq!(r.render_into(&mut out), 2);
        assert_eq!(
            out,
            format!("kept {}", crate::encode_families(&r.gather()))
        );
        // The warm sink starts over on every render.
        assert_eq!(r.render(), crate::encode_families(&r.gather()));
    }

    /// A collector that disables itself while it is being collected.
    struct Quits(Registry);

    impl Collector for Quits {
        fn collect(&self, out: &mut dyn Sink) {
            assert!(self.0.set_enabled("quits", false));
            fam("last_words", 1.0).collect(out);
        }
    }

    #[test]
    fn a_collector_may_toggle_the_registry_it_is_in() {
        // With the entries lock held across `collect` this deadlocks, so it
        // runs on a thread the test can give up on.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = Registry::new();
            r.register("quits", Arc::new(Quits(r.clone())));
            let first = r.render();
            tx.send((first, r.render(), r.gather().len())).ok();
        });
        let (first, second, third) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a collector that toggles its own registry deadlocked the render");
        assert!(first.ends_with("last_words 1\n"), "{first}");
        assert_eq!((second.as_str(), third), ("", 0));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_name_panics() {
        let r = Registry::new();
        r.register("x", fam("m", 0.0));
        r.register("x", fam("m", 0.0));
    }
}
