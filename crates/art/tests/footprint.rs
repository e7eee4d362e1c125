//! The pointer ART's heap footprint, counted by this binary's own global
//! allocator.
//!
//! Every node is allocated at the size of what it holds, so a tree of
//! random 8-byte keys — one `Node256` root, `Node256`s below it, then
//! mostly `Node16` / `Node48` nodes over the leaves — costs well under
//! 96 bytes per key, where one 288-byte node per leaf and per inner node
//! cost about 300. The bytes the tree holds after its build are exactly
//! what `ArtStats::memory_bytes` reports.
//!
//! The counter is per thread, so what the test harness allocates on its
//! own threads while a test measures does not count.

use cuart_art::Art;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Bytes this thread has allocated minus the bytes it has freed.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    // `try_with`: an allocation while the thread's locals are torn down
    // goes uncounted rather than panicking inside the allocator.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + bytes));
}

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell`, which neither allocates nor needs a destructor.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The most heap a tree of random 8-byte keys may hold per key.
const MAX_BYTES_PER_KEY: usize = 96;

/// Build a tree of `n` random 8-byte keys by insertion in draw order, as
/// the benchmark does, and check what it holds.
fn footprint_of_random_keys(n: usize) {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let keys: Vec<[u8; 8]> = (0..n)
        .map(|_| {
            let mut key = [0u8; 8];
            rng.fill_bytes(&mut key);
            key
        })
        .collect();

    let before = live_bytes();
    let mut art = Art::new();
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(art.insert(key, i as u64), Ok(None));
    }
    let held = (live_bytes() - before) as usize;

    let stats = art.stats();
    assert_eq!(stats.leaves, art.len());
    assert_eq!(
        stats.memory_bytes, held,
        "ArtStats::memory_bytes must be the bytes the tree allocated"
    );
    let per_key = held as f64 / art.len() as f64;
    assert!(
        held <= MAX_BYTES_PER_KEY * art.len(),
        "{n} random 8-byte keys hold {per_key:.1} B per key (> {MAX_BYTES_PER_KEY}); nodes {:?}",
        stats.nodes
    );

    drop(art);
    assert_eq!(
        live_bytes(),
        before,
        "dropping the tree frees everything it held"
    );
}

#[test]
fn random_keys_64ki_fit_96_bytes_per_key() {
    footprint_of_random_keys(64 << 10);
}

/// The benchmark's index size; ~1 s in release.
#[test]
#[ignore = "1 Mi keys; run in release: cargo test --release -p cuart-art --test footprint -- --ignored"]
fn random_keys_1mi_fit_96_bytes_per_key() {
    footprint_of_random_keys(1 << 20);
}
