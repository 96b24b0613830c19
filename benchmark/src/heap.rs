//! A counting global allocator, so `space_amp` is exact.
//!
//! Resident-set growth is page-granular and moves with thread stacks and
//! allocator arenas; for the 32 KB `hot_ssi` table it is mostly noise. The
//! bytes the program *asks* the allocator for are reproducible to the byte.
//! Counting is switched on only around set-up: during the measured window
//! every call pays one relaxed load of a flag nobody writes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to the system allocator, counting requested bytes while
/// [`Counting`] is alive.
pub struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(counter: &AtomicU64, bytes: usize) {
    // Statistics only: no other data is published through these atomics.
    if ENABLED.load(Ordering::Relaxed) {
        counter.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATED, layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATED, layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(&FREED, layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&FREED, layout.size());
        count(&ALLOCATED, new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counts heap traffic from creation until [`Counting::live_bytes`].
pub struct Counting {
    allocated: u64,
    freed: u64,
}

impl Counting {
    /// Starts counting. Only one counter is meant to be alive at a time.
    pub fn start() -> Counting {
        ENABLED.store(true, Ordering::Relaxed);
        Counting {
            allocated: ALLOCATED.load(Ordering::Relaxed),
            freed: FREED.load(Ordering::Relaxed),
        }
    }

    /// Stops counting and returns the bytes allocated since [`start`] and
    /// still live (requested sizes, without allocator headers or slack).
    ///
    /// [`start`]: Counting::start
    pub fn live_bytes(self) -> u64 {
        ENABLED.store(false, Ordering::Relaxed);
        let allocated = ALLOCATED.load(Ordering::Relaxed) - self.allocated;
        let freed = FREED.load(Ordering::Relaxed) - self.freed;
        allocated.saturating_sub(freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_what_stays_allocated() {
        let counting = Counting::start();
        let kept = vec![0u8; 4096];
        drop(vec![0u8; 100_000]);
        let live = counting.live_bytes();
        // Other test threads allocate too while the flag is up; the kept
        // buffer is there and the dropped one is not.
        assert!(live >= 4096, "{live}");
        assert!(live < 100_000, "{live}");
        drop(kept);
    }
}
