//! A counting global allocator: wraps `System` and counts, per thread, every
//! allocation (`alloc`, `alloc_zeroed` and `realloc` each count as one) and
//! the bytes requested. Counting per thread keeps the timed single-worker
//! phase exact even while check runs or parallel unit tests allocate on
//! other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator installed as `#[global_allocator]` in `main.rs`.
pub struct Counting;

thread_local! {
    // Const-initialised and without destructors: touching them never
    // allocates, so the allocator may use them re-entrantly.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` fails only while the thread is being torn down; the
    // allocation is then simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters of the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Allocation calls.
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
}

impl Allocs {
    /// The calling thread's counters so far.
    pub fn now() -> Allocs {
        Allocs { count: ALLOCS.with(Cell::get), bytes: BYTES.with(Cell::get) }
    }

    /// Counters accumulated since `self` was taken.
    pub fn since(self) -> Allocs {
        let now = Allocs::now();
        Allocs { count: now.count - self.count, bytes: now.bytes - self.bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work() -> Allocs {
        let start = Allocs::now();
        let mut v: Vec<String> = Vec::new();
        for i in 0..100 {
            v.push(format!("name-{i}"));
        }
        std::hint::black_box(&v);
        start.since()
    }

    #[test]
    fn counts_repeat_exactly() {
        let a = work();
        let b = work();
        assert_eq!(a, b, "two runs of the same work allocate identically");
        assert!(a.count >= 100, "each formatted string allocates: {a:?}");
        assert!(a.bytes > 0);
    }

    #[test]
    fn other_threads_do_not_count() {
        let start = Allocs::now();
        std::thread::spawn(|| std::hint::black_box(vec![0u8; 4096])).join().expect("thread joins");
        // Spawning allocates on this thread too (thread handle, name), but
        // the 4 KiB buffer is counted on the spawned thread only.
        assert!(start.since().bytes < 4096);
    }
}
