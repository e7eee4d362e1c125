//! Counting global allocator for the traced run.
//!
//! Installed in the bench binary only. Counting is off unless a rung of
//! the ladder turns it on, so the untraced run pays one relaxed load per
//! allocation and nothing else. Counts are process-wide: on the
//! multi-threaded rungs they include the server's threads, which is the
//! point — a layer's allocations are the rung's count minus the child
//! rung's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Relaxed everywhere: these are statistics and publish no other data.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if ON.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the only addition is
// a pair of atomic counters that never touch the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and requested bytes counted while a [`count`] was active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

/// Run `f` with counting on and return what it allocated (all threads).
pub fn count<T>(f: impl FnOnce() -> T) -> (T, AllocCount) {
    let before = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    let c = AllocCount {
        allocs: ALLOCS.load(Relaxed) - before.0,
        bytes: BYTES.load(Relaxed) - before.1,
    };
    (out, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_on() {
        let v: Vec<u8> = Vec::with_capacity(4096);
        drop(v);
        let (_, c) = count(|| {
            let v: Vec<u8> = Vec::with_capacity(1000);
            std::hint::black_box(&v);
        });
        // Other test threads may allocate concurrently, so only a floor holds.
        assert!(c.allocs >= 1);
        assert!(c.bytes >= 1000);
    }
}
