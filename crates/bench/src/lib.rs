//! Shared helpers for the Scrutinizer bench harness.
//!
//! The interesting code lives in `benches/` (criterion benchmarks:
//! `engine`, `prepared`, `planner`, `translate`, `serve`, `obs`, `wal`)
//! and `src/bin/` (paper-reproduction binaries). This library crate
//! additionally provides [`CountingAllocator`], the global-allocator shim
//! the `serve` bench installs to prove the binary suggest hot path makes
//! zero per-request heap allocations after warmup, and the `prepared`
//! bench installs to hold the catalog's live heap to its footprint floor.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls observed process-wide since startup (relaxed; the
/// counter is a measurement aid, not a synchronization point).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes currently allocated and not yet freed, process-wide.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Blocks currently allocated and not yet freed, process-wide.
static LIVE_BLOCKS: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that forwards to [`System`] and counts every
/// allocation call (`alloc`, `alloc_zeroed`, and growing/moving
/// `realloc`s). Install it with
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: scrutinizer_bench::CountingAllocator = scrutinizer_bench::CountingAllocator;
/// ```
///
/// and read the counters with [`allocations`], [`live_bytes`] and
/// [`live_blocks`]. [`allocations`] counts calls and ignores frees: the
/// benches assert on *new* heap traffic per request, and a free without a
/// matching alloc can't occur on a steady-state path. The live counters
/// follow frees and resizes too, so they measure what a structure keeps.
pub struct CountingAllocator;

/// Total allocation calls since process start. Subtract two readings
/// around a region to count its allocations; on a zero-alloc hot path the
/// difference is exactly 0.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap bytes allocated and not yet freed. Subtract two readings around
/// the construction of a structure that is still alive to get its heap
/// footprint (requested sizes, not the system allocator's rounding).
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Heap blocks allocated and not yet freed; a resize keeps its block.
pub fn live_blocks() -> u64 {
    LIVE_BLOCKS.load(Ordering::Relaxed)
}

/// Records a new block of `size` bytes in the live counters.
fn record_alloc(size: usize) {
    LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: defers every contract-relevant operation to `System`, which
// upholds the `GlobalAlloc` contract; the counter updates have no effect
// on allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            // wrapping: a shrink adds the two's complement of the drop
            let delta = (new_size as u64).wrapping_sub(layout.size() as u64);
            LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
        }
        new_ptr
    }
}
