//! Counting `#[global_allocator]` wrapper for allocation telemetry.
//!
//! The zero-allocation claim of the pooled hot path ([`crate::pool`]) is only
//! worth anything if it is *measured*. [`CountingAlloc`] wraps
//! `std::alloc::System` and keeps three relaxed atomic counters: cumulative
//! allocation count, live bytes, and peak live bytes. The allocation-gate test
//! binaries and the `benchmark/` harness declare their own static:
//!
//! ```ignore
//! use xmoe_tensor::CountingAlloc;
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//! // ... warm up ...
//! let before = ALLOC.stats();
//! run_steady_state_step();
//! assert_eq!(ALLOC.stats().allocs - before.allocs, 0);
//! ```
//!
//! Binaries that do not opt in pay nothing: the type lives here but the
//! default global allocator is untouched. The counters use `Relaxed`
//! ordering — they are statistics, not synchronisation — so the overhead per
//! allocation is a handful of uncontended atomic adds.
//!
//! This module is the crate's only `unsafe` code: the `GlobalAlloc` impl
//! forwards verbatim to `System`, upholding the same contract.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

std::thread_local! {
    /// Depth of nested [`untracked`] scopes on this thread. `const`-initialised
    /// `Cell<u32>` needs no lazy init and no destructor, so reading it from
    /// inside the global allocator is safe at any point of thread lifetime.
    static UNTRACKED: Cell<u32> = const { Cell::new(0) };
    /// Tracked allocation calls made by *this thread* — one simulated rank in
    /// the threaded cluster. Lets a per-rank hot path attribute its own heap
    /// traffic exactly, where the process-wide [`CountingAlloc`] counter mixes
    /// all ranks together.
    static THREAD_TRACKED: Cell<u64> = const { Cell::new(0) };
}

/// Tracked allocation calls made by the current thread since it started.
/// Deltas fence a per-rank region of interest with no cross-rank noise.
pub fn thread_tracked_allocs() -> u64 {
    THREAD_TRACKED.try_with(Cell::get).unwrap_or(0)
}

/// Run `f` with allocation *counting* suspended on this thread: allocations
/// made inside the scope are recorded under
/// [`AllocStats::untracked_allocs`] instead of [`AllocStats::allocs`].
/// `live_bytes` / `peak_bytes` accounting is unaffected (it must stay
/// symmetric with deallocation, which cannot know the scope of its alloc).
///
/// This exists for *simulation mechanics* that have no analog on real
/// hardware: the simulated wire (boxed mailbox payloads, queue growth, size
/// metadata) and the trace clock's span labels. A real NIC DMA or a CUPTI
/// span does not call `malloc` on the training hot path, so charging those
/// against the zero-allocation gate would make the gate unreachable for any
/// distributed pipeline. Tensor/staging work must never run inside this
/// scope — only transport and telemetry bookkeeping.
pub fn untracked<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            UNTRACKED.with(|c| c.set(c.get() - 1));
        }
    }
    UNTRACKED.with(|c| c.set(c.get() + 1));
    let _g = Guard;
    f()
}

/// Is the current thread inside an [`untracked`] scope? `try_with` so the
/// allocator can call this during thread teardown without panicking.
fn is_untracked() -> bool {
    UNTRACKED.try_with(|c| c.get() > 0).unwrap_or(false)
}

/// Permanently suspend allocation *counting* on the current thread: every
/// allocation it ever makes lands in [`AllocStats::untracked_allocs`].
///
/// Called once by each worker of the persistent pool ([`crate::par`]) as it
/// starts. Pool workers are simulation mechanics, not simulated ranks: a
/// GPU SM does not call `malloc`, and the kernels the pool runs are
/// allocation-free anyway, so any incidental heap traffic on a worker
/// (unwinding machinery, OS TLS) must not be charged against a rank thread's
/// [`thread_tracked_allocs`] fence or the process-wide tracked counter.
pub fn mark_thread_untracked() {
    UNTRACKED.with(|c| c.set(c.get().max(1)));
}

/// Snapshot of allocator counters at a point in time.
///
/// Deltas between snapshots bound the allocation behaviour of the code in
/// between: `allocs` counts every `alloc`/`realloc` call, `live_bytes` is the
/// current heap footprint attributed to this allocator, `peak_bytes` the
/// high-water mark since process start (or the last [`CountingAlloc::reset_peak`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Cumulative number of allocation calls (alloc + realloc) made outside
    /// any [`untracked`] scope — the hot-path gate reads this.
    pub allocs: u64,
    /// Allocation calls made inside an [`untracked`] scope (simulated wire
    /// and trace mechanics). Telemetry only; never gated.
    pub untracked_allocs: u64,
    /// Bytes currently allocated and not yet freed (tracked + untracked).
    pub live_bytes: usize,
    /// High-water mark of `live_bytes`.
    pub peak_bytes: usize,
}

/// A counting wrapper around the system allocator. See the module docs.
pub struct CountingAlloc {
    allocs: AtomicU64,
    untracked_allocs: AtomicU64,
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        Self {
            allocs: AtomicU64::new(0),
            untracked_allocs: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> AllocStats {
        AllocStats {
            allocs: self.allocs.load(Relaxed),
            untracked_allocs: self.untracked_allocs.load(Relaxed),
            live_bytes: self.live.load(Relaxed),
            peak_bytes: self.peak.load(Relaxed),
        }
    }

    /// Reset the peak-bytes high-water mark to the current live bytes, so a
    /// subsequent snapshot measures the peak of one region of interest.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }

    fn on_alloc(&self, size: usize) {
        if is_untracked() {
            self.untracked_allocs.fetch_add(1, Relaxed);
        } else {
            self.allocs.fetch_add(1, Relaxed);
            let _ = THREAD_TRACKED.try_with(|c| c.set(c.get() + 1));
        }
        let live = self.live.fetch_add(size, Relaxed) + size;
        self.peak.fetch_max(live, Relaxed);
    }

    fn on_dealloc(&self, size: usize) {
        self.live.fetch_sub(size, Relaxed);
    }
}

// SAFETY: every operation delegates directly to `System`, which satisfies the
// `GlobalAlloc` contract; the counter updates have no effect on the returned
// pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        self.on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Count as one allocation event; adjust live bytes by the delta.
            if is_untracked() {
                self.untracked_allocs.fetch_add(1, Relaxed);
            } else {
                self.allocs.fetch_add(1, Relaxed);
            }
            if new_size >= layout.size() {
                let live = self.live.fetch_add(new_size - layout.size(), Relaxed)
                    + (new_size - layout.size());
                self.peak.fetch_max(live, Relaxed);
            } else {
                self.live.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}
