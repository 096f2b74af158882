//! A global allocator that counts, for the allocation-budget binaries.
//! Each installs it itself (`#[global_allocator] static GLOBAL: Counting
//! = Counting;`) and holds exactly one test: the counters are
//! process-wide, and a sibling test allocating on another thread would
//! be counted too.

#![allow(dead_code)] // each binary reads the counters it budgets

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Allocations (and reallocations) made by the process so far.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes asked for and not yet given back.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The most [`live_bytes`] have been since the last
/// [`reset_peak_live_bytes`].
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE_BYTES.load(Ordering::Relaxed)
}

/// Start a new high-water mark at today's [`live_bytes`].
pub fn reset_peak_live_bytes() {
    PEAK_LIVE_BYTES.store(live_bytes(), Ordering::Relaxed);
}

/// Allocations made and not yet freed.
pub fn live_allocations() -> u64 {
    LIVE_ALLOCATIONS.load(Ordering::Relaxed)
}

fn born(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    LIVE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    grow(size as u64);
}

fn grow(bytes: u64) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics and guard
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        born(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_ALLOCATIONS.fetch_sub(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        born(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        match (new_size as u64).checked_sub(layout.size() as u64) {
            Some(more) => grow(more),
            None => {
                let less = layout.size() - new_size;
                LIVE_BYTES.fetch_sub(less as u64, Ordering::Relaxed);
            }
        }
        System.realloc(ptr, layout, new_size)
    }
}
