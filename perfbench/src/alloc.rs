//! A process-global counting allocator: every heap acquisition on every
//! thread (the server's reader, worker and writer threads included) bumps
//! one relaxed counter, so a ladder rung's allocations per operation are
//! a delta of [`count`] around the rung. Frees are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pass-through [`System`] wrapper counting allocations.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations so far, process-wide.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Starts a new peak-resident-set window: returns the heap's free pages
/// to the kernel (glibc keeps them otherwise, and they would count as
/// resident), then resets `VmHWM` to the current resident set by writing
/// `5` to `/proc/self/clear_refs`. Returns whether the reset took.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` only releases free memory of the allocator
    // `System` forwards to; it takes no pointers.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`), in
/// MiB; `None` where the file or field is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
