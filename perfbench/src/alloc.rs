//! Counting global allocator: allocation count, bytes requested, and a
//! live-bytes high-water mark. The benchmark runs on one thread, so the
//! counts between two snapshots are exact for the code that ran between
//! them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System` allocator wrapper that counts every allocation.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: u64) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every operation is delegated to `System` unchanged; the
// counter updates are lock-free atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size() as u64);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        shrink(layout.size() as u64);
        grow(new_size as u64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Keep freed heap memory in the process (glibc: no trimming of the heap
/// top, no `mmap` per large block), so repeated work reuses pages that
/// are already mapped instead of page-faulting fresh ones, whose cost
/// follows the host's memory contention rather than the program.
pub fn retain_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only changes allocator tuning; it is called
        // before the benchmark allocates anything of note, on one thread.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            // glibc's largest accepted threshold (32 MiB on 64-bit).
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

/// Cumulative counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Allocations (including reallocations).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl AllocCount {
    /// What was allocated between `earlier` and `self`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// The counters now.
pub fn count() -> AllocCount {
    AllocCount {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Restart the high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Largest number of live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
