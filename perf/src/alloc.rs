//! A counting allocator for `perf_traced`: allocation count, bytes and peak
//! live bytes between [`start`] and [`stop`].
//!
//! The binary installs it with `#[global_allocator]`. While counting is off
//! every call costs one relaxed load on top of the system allocator, so the
//! same process can time untraced repetitions and isolated kernels next to
//! the counted ones. The untraced `perf` binary does not install it at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator type; forwards everything to [`System`].
pub struct Counting;

// All counters are statistics that publish no other data: `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Signed: memory allocated before [`start`] may be freed after it.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

fn note_free(size: usize) {
    LIVE.fetch_sub(size as i64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // Forwarded (not defaulted to alloc + memset) so large zeroed
        // blocks stay lazily mapped, as they are without this wrapper.
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            note_free(layout.size());
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` (caller's contract).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // valid for `layout.align()` (caller's contract).
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            note_free(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// What was counted between [`start`] and [`stop`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
    /// Highest number of counted bytes live at once.
    pub peak_live_bytes: u64,
}

/// Zeroes the counters and turns counting on. Has no effect in a binary
/// that did not install [`Counting`].
pub fn start() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// Turns counting off and returns the totals since [`start`].
pub fn stop() -> Counts {
    ENABLED.store(false, Relaxed);
    Counts {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK.load(Relaxed).max(0) as u64,
    }
}
