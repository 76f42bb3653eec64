//! Thread-safe metric instruments: counters, gauges, histograms and their
//! labelled variants.
//!
//! Values are stored as `f64` bits in `AtomicU64`s so reads never lock and
//! increments are a short CAS loop, keeping the exporter's hot path (the
//! paper claims µs-scale scrape CPU cost) allocation- and lock-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use std::collections::HashMap;

use crate::labels::LabelSet;
use crate::model::{Exemplar, Metric, MetricType, Sample};
use crate::registry::Collector;
use crate::sink::{FamilySink, Sink};

/// Lock-free f64 cell.
#[derive(Debug, Default)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter {
    inner: Arc<AtomicF64>,
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter {
            inner: Arc::new(AtomicF64::new(0.0)),
        }
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Increments by `delta`. Negative deltas are ignored (counters are
    /// monotonic by contract).
    pub fn add(&self, delta: f64) {
        if delta >= 0.0 {
            self.inner.add(delta);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.inner.get()
    }
}

/// A gauge that can move in both directions.
#[derive(Clone, Debug)]
pub struct Gauge {
    inner: Arc<AtomicF64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge {
            inner: Arc::new(AtomicF64::new(0.0)),
        }
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.inner.set(v);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        self.inner.add(delta);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.inner.get()
    }
}

/// A cumulative histogram with fixed upper bounds.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramCore>,
}

#[derive(Debug)]
struct HistogramCore {
    bounds: Vec<f64>,
    // The `le` label value of each bound, formatted once.
    les: Vec<String>,
    counts: Vec<AtomicU64>,
    sum: AtomicF64,
    total: AtomicU64,
    // One exemplar slot per bucket (last slot is +Inf), rotated by recency
    // window: the first traced observation of each window is kept until the
    // window expires, so a hot bucket can't churn its exemplar faster than
    // any scraper can see it.
    exemplars: Vec<parking_lot::Mutex<Option<(Exemplar, i64)>>>,
    exemplar_window_ms: std::sync::atomic::AtomicI64,
}

/// Default exemplar rotation window: one exemplar per bucket per 10 s, about
/// one scrape interval.
pub const DEFAULT_EXEMPLAR_WINDOW_MS: i64 = 10_000;

impl Histogram {
    /// Creates a histogram with the given bucket upper bounds (sorted
    /// ascending; a `+Inf` bucket is implicit).
    pub fn new(mut bounds: Vec<f64>) -> Self {
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("histogram bound must not be NaN"));
        bounds.dedup();
        let counts = (0..bounds.len()).map(|_| AtomicU64::new(0)).collect();
        let exemplars = (0..bounds.len() + 1)
            .map(|_| parking_lot::Mutex::new(None))
            .collect();
        Histogram {
            inner: Arc::new(HistogramCore {
                les: bounds.iter().map(|&b| format_bound(b)).collect(),
                bounds,
                counts,
                sum: AtomicF64::new(0.0),
                total: AtomicU64::new(0),
                exemplars,
                exemplar_window_ms: std::sync::atomic::AtomicI64::new(
                    DEFAULT_EXEMPLAR_WINDOW_MS,
                ),
            }),
        }
    }

    /// Sets the exemplar rotation window (milliseconds). Non-positive means
    /// every traced observation replaces the slot (last-write-wins).
    pub fn with_exemplar_window_ms(self, window_ms: i64) -> Self {
        self.inner
            .exemplar_window_ms
            .store(window_ms, Ordering::Relaxed);
        self
    }

    /// Exponential bucket helper: `start, start*factor, ...` (`count` bounds).
    pub fn exponential_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(count);
        let mut b = start;
        for _ in 0..count {
            v.push(b);
            b *= factor;
        }
        v
    }

    /// Default latency bounds in seconds: 1µs → ~4s, ×4 per bucket. Wide
    /// enough for µs-scale cache hits and multi-second cold selects alike.
    pub fn duration_buckets() -> Vec<f64> {
        Self::exponential_buckets(1e-6, 4.0, 11)
    }

    /// Starts a timer that observes elapsed seconds into this histogram when
    /// dropped (or via [`HistogramTimer::observe_duration`]).
    pub fn start_timer(&self) -> HistogramTimer {
        HistogramTimer {
            hist: self.clone(),
            start: std::time::Instant::now(),
            done: false,
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        for (i, &bound) in self.inner.bounds.iter().enumerate() {
            if v <= bound {
                self.inner.counts[i].fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inner.sum.add(v);
        self.inner.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observation and remembers `trace_id` as the exemplar for
    /// the (lowest) bucket the value lands in, so `/metrics` links that bucket
    /// to a stored trace. Stamped with wall time; use
    /// [`Histogram::observe_with_exemplar_at`] under a simulated clock.
    pub fn observe_with_exemplar(&self, v: f64, trace_id: &str) {
        let now_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as i64)
            .unwrap_or(0);
        self.observe_with_exemplar_at(v, trace_id, now_ms);
    }

    /// [`Histogram::observe_with_exemplar`] with an explicit timestamp. The
    /// bucket keeps its current exemplar until a full rotation window has
    /// elapsed since that exemplar was stamped; the first observation after
    /// expiry takes the slot.
    pub fn observe_with_exemplar_at(&self, v: f64, trace_id: &str, now_ms: i64) {
        self.observe(v);
        let slot = self
            .inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.inner.bounds.len());
        let window = self.inner.exemplar_window_ms.load(Ordering::Relaxed);
        let mut guard = self.inner.exemplars[slot].lock();
        let replace = match &*guard {
            Some((_, stamped_ms)) => window <= 0 || now_ms - stamped_ms >= window,
            None => true,
        };
        if replace {
            *guard = Some((Exemplar::new(trace_id, v), now_ms));
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.inner.total.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.inner.sum.get()
    }

    /// Writes the `_bucket`/`_sum`/`_count` samples into the sink's open
    /// family, each carrying the `base` labels.
    pub fn write(&self, out: &mut dyn Sink, base: &[(&str, &str)]) {
        let core = &*self.inner;
        let total = self.count() as f64;
        let mut labels = Vec::with_capacity(base.len() + 1);
        labels.extend_from_slice(base);
        labels.push(("le", ""));
        let cumulative = core
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed) as f64)
            .chain([total]);
        let les = core.les.iter().map(String::as_str).chain(["+Inf"]);
        for ((count, le), slot) in cumulative.zip(les).zip(&core.exemplars) {
            labels[base.len()].1 = le;
            match slot.lock().as_ref() {
                None => out.sample("_bucket", &labels, count),
                Some((exemplar, _)) => out.metric(
                    &Metric::suffixed(
                        LabelSet::from_pairs(labels.iter().copied()),
                        Sample::now(count),
                        "_bucket",
                    )
                    .with_exemplar(Some(exemplar.clone())),
                ),
            }
        }
        out.sample("_sum", base, self.sum());
        out.sample("_count", base, total);
    }

    /// [`Histogram::write`] as typed metrics.
    pub fn render(&self, base: &LabelSet) -> Vec<Metric> {
        let mut sink = FamilySink::default();
        sink.family("", "", MetricType::Histogram);
        self.write(&mut sink, &base.iter().collect::<Vec<_>>());
        sink.into_families().remove(0).metrics
    }
}

/// Observes elapsed wall time (in seconds) into a [`Histogram`] on drop.
pub struct HistogramTimer {
    hist: Histogram,
    start: std::time::Instant,
    done: bool,
}

impl HistogramTimer {
    /// Ends the timer now and returns the observed seconds.
    pub fn observe_duration(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        if self.done {
            return 0.0;
        }
        self.done = true;
        let secs = self.start.elapsed().as_secs_f64();
        self.hist.observe(secs);
        secs
    }
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        self.close();
    }
}

fn format_bound(b: f64) -> String {
    if b == b.trunc() && b.abs() < 1e15 {
        format!("{:.1}", b)
    } else {
        format!("{}", b)
    }
}

/// A family of labelled metrics of type `T`, keyed by label values.
#[derive(Clone)]
pub struct MetricVec<T> {
    name: String,
    help: String,
    metric_type: MetricType,
    label_names: Vec<String>,
    children: Arc<RwLock<HashMap<Vec<String>, T>>>,
    make: fn() -> T,
}

/// Counter family keyed by label values.
pub type CounterVec = MetricVec<Counter>;
/// Gauge family keyed by label values.
pub type GaugeVec = MetricVec<Gauge>;

impl<T: Clone> MetricVec<T> {
    fn new_inner(
        name: impl Into<String>,
        help: impl Into<String>,
        metric_type: MetricType,
        label_names: &[&str],
        make: fn() -> T,
    ) -> Self {
        MetricVec {
            name: name.into(),
            help: help.into(),
            metric_type,
            label_names: label_names.iter().map(|s| s.to_string()).collect(),
            children: Arc::new(RwLock::new(HashMap::new())),
            make,
        }
    }

    /// Gets or creates the child for the given label values (must match the
    /// declared label names in number and order).
    pub fn with_label_values(&self, values: &[&str]) -> T {
        assert_eq!(
            values.len(),
            self.label_names.len(),
            "label value count mismatch for {}",
            self.name
        );
        let key: Vec<String> = values.iter().map(|s| s.to_string()).collect();
        if let Some(c) = self.children.read().get(&key) {
            return c.clone();
        }
        let mut w = self.children.write();
        w.entry(key).or_insert_with(|| (self.make)()).clone()
    }

    /// Removes the child with the given label values; returns true if it
    /// existed. Used by collectors when workloads disappear.
    pub fn remove_label_values(&self, values: &[&str]) -> bool {
        let key: Vec<String> = values.iter().map(|s| s.to_string()).collect();
        self.children.write().remove(&key).is_some()
    }

    /// Drops all children.
    pub fn reset(&self) {
        self.children.write().clear();
    }

    /// Number of live children.
    pub fn child_count(&self) -> usize {
        self.children.read().len()
    }

    /// Writes the family with one sample per child, ordered as their label
    /// sets order (by label name, then value).
    fn write(&self, out: &mut dyn Sink, get: impl Fn(&T) -> f64) {
        let names = &self.label_names;
        let mut by_name: Vec<usize> = (0..names.len())
            .filter(|&i| !names[i + 1..].contains(&names[i]))
            .collect();
        by_name.sort_by_key(|&i| &names[i]);
        let children = self.children.read();
        let mut rows: Vec<(&Vec<String>, f64)> =
            children.iter().map(|(k, c)| (k, get(c))).collect();
        rows.sort_by(|(a, _), (b, _)| {
            let (a, b) = (by_name.iter().map(|&i| &a[i]), by_name.iter().map(|&i| &b[i]));
            a.cmp(b)
        });
        out.family(&self.name, &self.help, self.metric_type);
        let mut labels: Vec<(&str, &str)> = Vec::with_capacity(names.len());
        for (values, v) in rows {
            labels.clear();
            labels.extend(names.iter().map(String::as_str).zip(values.iter().map(String::as_str)));
            out.sample("", &labels, v);
        }
    }
}

impl CounterVec {
    /// Creates a counter family.
    pub fn new(name: impl Into<String>, help: impl Into<String>, label_names: &[&str]) -> Self {
        MetricVec::new_inner(name, help, MetricType::Counter, label_names, Counter::new)
    }
}

impl GaugeVec {
    /// Creates a gauge family.
    pub fn new(name: impl Into<String>, help: impl Into<String>, label_names: &[&str]) -> Self {
        MetricVec::new_inner(name, help, MetricType::Gauge, label_names, Gauge::new)
    }
}

impl Collector for CounterVec {
    fn collect(&self, out: &mut dyn Sink) {
        self.write(out, Counter::get);
    }
}

impl Collector for GaugeVec {
    fn collect(&self, out: &mut dyn Sink) {
        self.write(out, Gauge::get);
    }
}

/// Histogram family keyed by label values.
#[derive(Clone)]
pub struct HistogramVec {
    name: String,
    help: String,
    label_names: Vec<String>,
    bounds: Vec<f64>,
    children: Arc<RwLock<HashMap<Vec<String>, Histogram>>>,
}

impl HistogramVec {
    /// Creates a histogram family with shared bucket bounds.
    pub fn new(
        name: impl Into<String>,
        help: impl Into<String>,
        label_names: &[&str],
        bounds: Vec<f64>,
    ) -> Self {
        HistogramVec {
            name: name.into(),
            help: help.into(),
            label_names: label_names.iter().map(|s| s.to_string()).collect(),
            bounds,
            children: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    /// Gets or creates the child histogram for the given label values.
    pub fn with_label_values(&self, values: &[&str]) -> Histogram {
        assert_eq!(values.len(), self.label_names.len());
        let key: Vec<String> = values.iter().map(|s| s.to_string()).collect();
        if let Some(c) = self.children.read().get(&key) {
            return c.clone();
        }
        let mut w = self.children.write();
        w.entry(key)
            .or_insert_with(|| Histogram::new(self.bounds.clone()))
            .clone()
    }
}

impl Collector for HistogramVec {
    fn collect(&self, out: &mut dyn Sink) {
        let children = self.children.read();
        let mut rows: Vec<_> = children.iter().collect();
        rows.sort_by_key(|&(key, _)| key);
        out.family(&self.name, &self.help, MetricType::Histogram);
        let mut base: Vec<(&str, &str)> = Vec::with_capacity(self.label_names.len());
        for (key, h) in rows {
            base.clear();
            let names = self.label_names.iter().map(String::as_str);
            base.extend(names.zip(key.iter().map(String::as_str)));
            h.write(out, &base);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels;

    #[test]
    fn counter_monotonic() {
        let c = Counter::new();
        c.inc();
        c.add(2.5);
        c.add(-5.0); // ignored
        assert_eq!(c.get(), 3.5);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10.0);
        g.add(-3.0);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn concurrent_counter_adds() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000.0);
    }

    #[test]
    fn histogram_buckets_cumulative() {
        let h = Histogram::new(vec![1.0, 5.0, 10.0]);
        for v in [0.5, 2.0, 7.0, 20.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 29.5).abs() < 1e-9);
        let rendered = h.render(&labels! {"x" => "y"});
        // 3 bounds + inf bucket + sum + count
        assert_eq!(rendered.len(), 6);
        let bucket_vals: Vec<f64> = rendered[..4].iter().map(|m| m.sample.value).collect();
        assert_eq!(bucket_vals, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn histogram_exemplars_attach_to_landing_bucket() {
        let h = Histogram::new(vec![1.0, 5.0, 10.0]);
        h.observe(0.5);
        h.observe_with_exemplar_at(2.0, "trace-a", 1_000);
        h.observe_with_exemplar_at(99.0, "trace-b", 1_000); // +Inf slot
        let rendered = h.render(&labels! {});
        // Buckets: le=1 (no exemplar), le=5 (trace-a), le=10 (none), +Inf (trace-b).
        assert!(rendered[0].exemplar.is_none());
        let ex = rendered[1].exemplar.as_ref().unwrap();
        assert_eq!(ex.trace_id, "trace-a");
        assert_eq!(ex.value, 2.0);
        assert!(rendered[2].exemplar.is_none());
        assert_eq!(rendered[3].exemplar.as_ref().unwrap().trace_id, "trace-b");
        // A later observation in the same bucket within the rotation window
        // does NOT replace the exemplar; after the window expires it does.
        h.observe_with_exemplar_at(3.0, "trace-c", 2_000);
        let rendered = h.render(&labels! {});
        assert_eq!(rendered[1].exemplar.as_ref().unwrap().trace_id, "trace-a");
        h.observe_with_exemplar_at(3.0, "trace-d", 1_000 + DEFAULT_EXEMPLAR_WINDOW_MS);
        let rendered = h.render(&labels! {});
        assert_eq!(rendered[1].exemplar.as_ref().unwrap().trace_id, "trace-d");
    }

    #[test]
    fn exemplar_rotation_boundary() {
        let h = Histogram::new(vec![1.0]).with_exemplar_window_ms(100);
        h.observe_with_exemplar_at(0.5, "first", 1_000);
        // One tick before expiry: the window holds.
        h.observe_with_exemplar_at(0.6, "early", 1_099);
        let ex = h.render(&labels! {})[0].exemplar.clone().unwrap();
        assert_eq!(ex.trace_id, "first");
        assert_eq!(ex.value, 0.5);
        // Exactly at the boundary (stamped + window): rotates.
        h.observe_with_exemplar_at(0.7, "boundary", 1_100);
        let ex = h.render(&labels! {})[0].exemplar.clone().unwrap();
        assert_eq!(ex.trace_id, "boundary");
        // The rotation re-stamps: the next window is measured from 1_100.
        h.observe_with_exemplar_at(0.8, "again", 1_199);
        assert_eq!(
            h.render(&labels! {})[0].exemplar.clone().unwrap().trace_id,
            "boundary"
        );
        // Buckets are independent: +Inf rotates on its own schedule.
        h.observe_with_exemplar_at(5.0, "inf-a", 1_150);
        h.observe_with_exemplar_at(6.0, "inf-b", 1_200);
        let rendered = h.render(&labels! {});
        assert_eq!(rendered[1].exemplar.clone().unwrap().trace_id, "inf-a");

        // Non-positive window restores last-write-wins.
        let h = Histogram::new(vec![1.0]).with_exemplar_window_ms(0);
        h.observe_with_exemplar_at(0.1, "a", 500);
        h.observe_with_exemplar_at(0.2, "b", 500);
        assert_eq!(
            h.render(&labels! {})[0].exemplar.clone().unwrap().trace_id,
            "b"
        );
    }

    #[test]
    fn exponential_buckets() {
        let b = Histogram::exponential_buckets(1.0, 2.0, 4);
        assert_eq!(b, vec![1.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    fn timer_observes_on_drop_and_explicitly() {
        let h = Histogram::new(Histogram::duration_buckets());
        {
            let _t = h.start_timer();
        }
        let secs = h.start_timer().observe_duration();
        assert_eq!(h.count(), 2);
        assert!(secs >= 0.0);
        assert!(h.sum() >= secs);
    }

    #[test]
    fn vec_children_and_removal() {
        let cv = CounterVec::new("jobs_total", "jobs", &["user", "state"]);
        cv.with_label_values(&["alice", "running"]).inc();
        cv.with_label_values(&["bob", "running"]).add(2.0);
        assert_eq!(cv.child_count(), 2);
        assert!(cv.remove_label_values(&["alice", "running"]));
        assert!(!cv.remove_label_values(&["alice", "running"]));
        assert_eq!(cv.child_count(), 1);

        let fams = cv.families();
        assert_eq!(fams.len(), 1);
        assert_eq!(fams[0].metrics.len(), 1);
        assert_eq!(fams[0].metrics[0].labels.get("user"), Some("bob"));
    }

    #[test]
    fn vec_children_come_out_in_label_set_order() {
        // Declared order is (user, state); label sets order by state first.
        let cv = CounterVec::new("jobs_total", "jobs", &["user", "state"]);
        cv.with_label_values(&["alice", "running"]).inc();
        cv.with_label_values(&["bob", "done"]).add(2.0);
        cv.with_label_values(&["carol", "done"]).add(3.0);
        let fam = cv.families().remove(0);
        let users: Vec<_> = fam.metrics.iter().map(|m| m.labels.get("user").unwrap()).collect();
        assert_eq!(users, ["bob", "carol", "alice"]);
        assert!(fam.metrics.windows(2).all(|w| w[0].labels < w[1].labels));

        let hv = HistogramVec::new("lat", "latency", &["path", "code"], vec![1.0]);
        hv.with_label_values(&["/b", "200"]).observe(0.5);
        hv.with_label_values(&["/a", "500"]).observe_with_exemplar_at(2.0, "t1", 0);
        let registry = crate::Registry::new();
        registry.register("jobs", Arc::new(cv));
        registry.register("lat", Arc::new(hv));
        let text = registry.render();
        assert_eq!(text, crate::encode_families(&registry.gather()));
        // Histogram children order by their declared values: /a before /b.
        assert!(text.contains(
            "lat_bucket{code=\"500\",le=\"+Inf\",path=\"/a\"} 1 # {trace_id=\"t1\"} 2\n\
             lat_sum{code=\"500\",path=\"/a\"} 2\n\
             lat_count{code=\"500\",path=\"/a\"} 1\n\
             lat_bucket{code=\"200\",le=\"1.0\",path=\"/b\"} 1\n"
        ), "{text}");
    }

    #[test]
    #[should_panic(expected = "label value count mismatch")]
    fn vec_label_count_mismatch_panics() {
        let cv = CounterVec::new("x", "x", &["a", "b"]);
        cv.with_label_values(&["only-one"]);
    }
}
