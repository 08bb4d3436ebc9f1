//! Counting pass-through allocator shared by the bench binaries.
//!
//! Wraps the system allocator with relaxed atomic counters for call and
//! byte totals plus a live-bytes/peak-bytes watermark, so benches can
//! report *peak memory* (what a grid-sized result vector costs) and not
//! just wall-clock. Install it per binary:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: wcm_bench::alloc::CountingAlloc = wcm_bench::alloc::CountingAlloc;
//! ```
//!
//! Counting is always on and global; [`measure`]/[`count_allocs`] read
//! before/after snapshots, so callers keep measured regions
//! single-threaded (or accept that concurrent allocations from other
//! threads land in the delta).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with relaxed atomic counters.
pub struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: u64) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow counts as one allocation of the new size: that is what
        // a Vec push over capacity costs the allocator. Live bytes move
        // by the signed difference.
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        let (old, new) = (layout.size() as u64, new_size as u64);
        if new >= old {
            let live = LIVE.fetch_add(new - old, Ordering::Relaxed) + (new - old);
            PEAK.fetch_max(live, Ordering::Relaxed);
        } else {
            LIVE.fetch_sub(old - new, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// One measured region: allocator traffic and the high-water mark of
/// live bytes *above the region's starting level*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measured {
    /// Allocator calls (alloc + realloc) inside the region.
    pub calls: u64,
    /// Bytes requested inside the region (cumulative, not live).
    pub bytes: u64,
    /// Peak live bytes above the level at region start.
    pub peak_bytes: u64,
}

/// Runs `f` and reports its allocator traffic and peak-above-baseline.
/// The peak watermark is reset to the current live level first, so the
/// number answers "how much *extra* memory did this need at its worst".
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Measured) {
    let live0 = LIVE.load(Ordering::Relaxed);
    PEAK.store(live0, Ordering::Relaxed);
    let calls0 = CALLS.load(Ordering::Relaxed);
    let bytes0 = BYTES.load(Ordering::Relaxed);
    let value = f();
    let m = Measured {
        calls: CALLS.load(Ordering::Relaxed) - calls0,
        bytes: BYTES.load(Ordering::Relaxed) - bytes0,
        peak_bytes: PEAK.load(Ordering::Relaxed).saturating_sub(live0),
    };
    (value, m)
}

/// Allocator calls and bytes consumed by one run of `f` — the
/// two-counter shape the curve benches report.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    let (_, m) = measure(|| std::hint::black_box(f()));
    (m.calls, m.bytes)
}
