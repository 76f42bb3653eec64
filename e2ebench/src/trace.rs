//! Bench-side spans around calls into each layer.
//!
//! Spans are kept in memory and written out once, after the measured work.
//! A layer's self time is its span minus the part of that interval its child
//! spans cover; children may overlap (scrape threads), so coverage is the
//! union of their intervals, not the sum.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique within the tracer, from 1.
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Layer-qualified name, e.g. `tsdb.append`.
    pub name: &'static str,
    /// Ingest cycle the span belongs to (the shared request identifier).
    pub cycle: u32,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// An open span; finish it with [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    /// The id children name as their parent.
    pub id: u32,
    parent: u32,
    name: &'static str,
    cycle: u32,
    start_ns: u64,
}

/// Collects spans from any thread.
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Starts an empty tracer.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (0 for a root).
    pub fn begin(&self, name: &'static str, parent: u32, cycle: u32) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            cycle,
            start_ns: self.now_ns(),
        }
    }

    /// Closes a span and records it.
    pub fn end(&self, open: Open) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                cycle: open.cycle,
                start_ns: open.start_ns,
                end_ns,
            });
    }

    /// Times `f` as a span under `parent`.
    pub fn span<T>(&self, name: &'static str, parent: u32, cycle: u32, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, parent, cycle);
        let out = f();
        self.end(open);
        out
    }

    /// Takes the recorded spans.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no span recorder panics while holding the lock"),
        )
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut edge) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(edge), e.min(hi));
        if e > s {
            total += e - s;
            edge = e;
        }
    }
    total
}

/// Self time of every span, by id: duration minus child coverage.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            let dur = s.end_ns - s.start_ns;
            (s.id, dur - covered(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Sums `(wall, self)` nanoseconds per span name over `spans`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += s.end_ns - s.start_ns;
        e.1 += selfs[&s.id];
    }
    out
}

/// Writes one JSON object per span, in start order.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in sorted {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"cycle\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id,
            s.parent,
            s.name,
            s.cycle,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            cycle: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Two scrape threads overlap on [30, 60]; a third child pokes out
        // past the parent's end and must be clipped.
        let spans = vec![
            span(1, 0, "scrape", 0, 100),
            span(2, 1, "thread", 10, 60),
            span(3, 1, "thread", 30, 80),
            span(4, 1, "late", 90, 120),
            span(5, 2, "render", 10, 20),
        ];
        let selfs = self_times(&spans);
        // Coverage: [10,80] ∪ [90,100] = 80 → self 20.
        assert_eq!(selfs[&1], 20);
        assert_eq!(selfs[&2], 40);
        assert_eq!(selfs[&3], 50);
        assert_eq!(selfs[&5], 10);
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["thread"], (100, 90));
    }

    #[test]
    fn tracer_links_children_and_collects_across_threads() {
        let tr = Tracer::new();
        let root = tr.begin("cycle", 0, 3);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| tr.span("work", root.id, 3, || std::hint::black_box(1 + 1)));
            }
        });
        tr.end(root);
        let spans = tr.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans.iter().filter(|s| s.parent == root.id).count(), 2);
        assert!(spans.iter().all(|s| s.cycle == 3 && s.end_ns >= s.start_ns));
        assert!(tr.take().is_empty());
    }
}
