//! What a warm render costs in heap allocations. Its own test binary: the
//! counting allocator is process-wide (the counter is per thread, so the
//! tests may run side by side).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ceems_exporter::{CeemsExporter, ExporterConfig};
use ceems_metrics::{Collector, MetricType, Registry, Sink};
use ceems_simnode::node::{HardwareProfile, NodeSpec, SimNode, TaskSpec};
use ceems_simnode::{SimClock, WorkloadProfile};
use parking_lot::Mutex;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers to `System` for every operation; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// from inside the allocator neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_warm_render_allocates_at_most_twice_per_sample_line() {
    let mut node = SimNode::new(
        NodeSpec {
            hostname: "n".into(),
            profile: HardwareProfile::IntelCpu,
        },
        7,
    );
    for id in 1..=32 {
        node.add_task(
            TaskSpec {
                id,
                cores: 1,
                memory_bytes: 2 << 30,
                gpus: 0,
                workload: WorkloadProfile::CpuBound { intensity: 0.8 },
            },
            0,
        )
        .expect("task fits");
    }
    node.step(15_000, 15.0);
    let exp = CeemsExporter::new(
        Arc::new(Mutex::new(node)),
        SimClock::starting_at(60_000),
        ExporterConfig::default(),
    );
    exp.render();
    exp.render();
    let (payload, allocations) = allocations_of(|| exp.render());
    let lines = payload.lines().filter(|l| !l.starts_with('#')).count() as u64;
    assert!(lines > 32 * 14, "{lines} sample lines");
    // What remains is the pseudo-file reads (a `String` each, by design)
    // and one uuid per unit and collector; the parent needed 17 per line.
    assert!(
        allocations <= 2 * lines,
        "{allocations} allocations for {lines} sample lines"
    );
}

/// `n` labelled samples over numbers it already holds.
struct Prebuilt(Vec<(String, f64)>);

impl Collector for Prebuilt {
    fn collect(&self, out: &mut dyn Sink) {
        out.family("prebuilt_total", "Numbers held before the scrape", MetricType::Counter);
        for (id, v) in &self.0 {
            out.sample("", &[("unit", id), ("zone", "a\"b")], *v);
        }
    }
}

#[test]
fn the_text_sink_allocates_a_constant_per_payload() {
    let cost = |n: usize| {
        let registry = Registry::new();
        let rows = (0..n).map(|i| (format!("u{i}"), i as f64 * 0.5)).collect();
        registry.register("prebuilt", Arc::new(Prebuilt(rows)));
        let mut out = String::new();
        registry.render_into(&mut out);
        out.clear();
        let (samples, allocations) = allocations_of(|| registry.render_into(&mut out));
        assert_eq!(samples, n);
        allocations
    };
    let (small, large) = (cost(10), cost(10_000));
    assert_eq!(small, large, "allocations grew with the payload");
    assert!(small <= 4, "{small} allocations for a warm payload");
}
