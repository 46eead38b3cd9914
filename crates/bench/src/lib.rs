//! Shared helpers for the Scrutinizer bench harness.
//!
//! The interesting code lives in `benches/` (criterion benchmarks:
//! `engine`, `prepared`, `planner`, `translate`, `serve`, `obs`, `wal`)
//! and `src/bin/` (paper-reproduction binaries). This library crate
//! additionally provides [`CountingAllocator`], the global-allocator shim
//! the `serve` bench installs to prove the binary suggest hot path makes
//! zero per-request heap allocations after warmup.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls observed process-wide since startup (relaxed; the
/// counter is a measurement aid, not a synchronization point).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that forwards to [`System`] and counts every
/// allocation call (`alloc`, `alloc_zeroed`, and growing/moving
/// `realloc`s). Install it with
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: scrutinizer_bench::CountingAllocator = scrutinizer_bench::CountingAllocator;
/// ```
///
/// and read the counter with [`allocations`]. Deallocations are not
/// counted: the benches assert on *new* heap traffic per request, and a
/// free without a matching alloc can't occur on a steady-state path.
pub struct CountingAllocator;

/// Total allocation calls since process start. Subtract two readings
/// around a region to count its allocations; on a zero-alloc hot path the
/// difference is exactly 0.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: defers every contract-relevant operation to `System`, which
// upholds the `GlobalAlloc` contract; the counter bump has no effect on
// allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
