//! Live-bytes counting allocator: alloc adds, dealloc subtracts, and a
//! high-water mark follows the live total, so a phase's footprint is the
//! difference of two snapshots and a run's peak is read after it ends.
//!
//! Sizes are layout sizes (what the program asked for), not what the system
//! allocator spent, so the numbers repeat exactly from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

pub struct CountingAlloc;

// Relaxed throughout: the counters publish no other data, and the benchmark
// allocates on one thread.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn track(delta: i64) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// Bytes allocated right now.
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Highest live total since the last [`reset_peak`].
pub fn peak_bytes() -> i64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restart high-water tracking from the current live total.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own pointer
// and layout; the counters only observe sizes and never affect allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: same pointer/layout contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        // SAFETY: same pointer/layout contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
