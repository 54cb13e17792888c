//! A counting global allocator. Every allocation call bumps a per-thread
//! counter, which the timing probes read at each layer boundary to produce
//! the `*.allocs_per_*` counts; live heap bytes are summed across threads
//! so a round can read its peak heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

/// The system allocator plus allocation and live-byte accounting.
pub struct Counting;

thread_local! {
    // Const-initialized and drop-free, so reading or updating them never
    // allocates and never observes a destroyed slot.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Live-byte change not yet folded into [`LIVE`].
    static PENDING: Cell<i64> = const { Cell::new(0) };
}

/// Live heap bytes across all threads, up to each thread's unflushed
/// [`PENDING`] change (at most [`FLUSH_BYTES`] per thread).
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Highest [`LIVE`] seen since the last [`reset_peak`].
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Per-thread batching of live-byte updates, so threads rarely touch the
/// shared counters.
const FLUSH_BYTES: i64 = 64 << 10;

#[inline]
fn account(bytes: i64, alloc: bool) {
    if alloc {
        ALLOCS.with(|c| c.set(c.get() + 1));
    }
    PENDING.with(|p| {
        let pending = p.get() + bytes;
        if pending.abs() < FLUSH_BYTES {
            p.set(pending);
            return;
        }
        p.set(0);
        let live = LIVE.fetch_add(pending, Relaxed) + pending;
        if live > PEAK.load(Relaxed) {
            PEAK.fetch_max(live, Relaxed);
        }
    });
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made so far by the
/// calling thread.
#[inline]
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Live heap bytes now.
pub fn live_bytes() -> i64 {
    LIVE.load(Relaxed)
}

/// Highest live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> i64 {
    PEAK.load(Relaxed)
}

/// Start a new peak window at the current live bytes.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the accounting touches
// only thread-locals and atomics, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as i64, true);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as i64, true);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as i64 - layout.size() as i64, true);
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // with `layout`, per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as i64), false);
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // with `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}
