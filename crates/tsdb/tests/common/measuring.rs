//! A process-wide allocator that tallies, per thread, what was requested:
//! the decoder fuzz tests hold a decode's memory to a bound of its input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Measuring;

thread_local! {
    /// Bytes requested, and the largest single request, on this thread.
    static REQUESTED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn note(size: usize) {
    REQUESTED.with(|r| {
        let (total, largest) = r.get();
        r.set((total + size, largest.max(size)));
    });
}

// SAFETY: defers to `System` for every operation; the tally is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// from inside the allocator neither allocates nor re-enters.
unsafe impl GlobalAlloc for Measuring {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Measuring = Measuring;

/// `(bytes requested, largest request)` while `f` ran.
pub fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    REQUESTED.with(|r| r.set((0, 0)));
    let out = f();
    let (total, largest) = REQUESTED.with(Cell::get);
    (out, total, largest)
}
