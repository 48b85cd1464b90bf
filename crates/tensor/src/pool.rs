//! Workspace arena: per-rank leases of grow-only scratch buffers.
//!
//! X-MoE's padding-free pipeline sizes every intermediate buffer to the
//! number of *routed* tokens (paper §3.2, Fig 3), which varies step to step.
//! A naive implementation therefore re-allocates the dispatch, activation and
//! combine buffers from the heap on every training step, and the simulator's
//! wall-clock ends up bounded by allocator churn instead of kernels.
//!
//! [`Workspace`] fixes this the way production MoE stacks do (Megatron Core
//! reuses grouped-GEMM workspaces across steps; MoE Parallel Folding sizes
//! per-mapping buffers once per configuration): buffers are *leased* from a
//! per-rank arena and *recycled* back after use. Each recycled buffer keeps
//! its capacity, so after a warm-up step every lease is satisfied from the
//! free list with zero heap traffic — the arena reaches its high-water
//! footprint and stays there.
//!
//! # Discipline
//!
//! * [`Workspace::take`] returns a zero-filled `rows x cols` [`Tensor`]; when
//!   done, hand it back with [`Workspace::recycle`]. A lease whose next
//!   operation writes every element (a GEMM output, a gather, a copy) uses
//!   [`Workspace::take_for_overwrite`] instead and skips the zero-fill pass.
//!   Index buffers use [`Workspace::take_idx`] / [`Workspace::recycle_idx`].
//! * Free lists are LIFO. A pipeline that takes and recycles in the same
//!   order every step keeps each logical buffer bound to the same backing
//!   allocation, so capacities converge to the running maximum per slot.
//! * Leaked leases are not an error — the tensor is simply dropped — but the
//!   arena loses the reuse benefit, and [`WorkspaceStats::pool_misses`] will
//!   keep climbing. Tests gate on that counter.
//!
//! The arena is deliberately *not* thread-safe: one `Workspace` per simulated
//! rank, matching the paper's per-GPU workspace.

use crate::Tensor;

/// Counters describing arena behaviour since construction.
///
/// `takes` counts every lease; `pool_misses` counts leases that had to
/// allocate a fresh backing buffer because the free list was empty. At steady
/// state `pool_misses` stops advancing. `retained_f32` / `retained_idx` are
/// the element capacities currently parked in the free lists; together with
/// outstanding leases they bound the arena's heap footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Total number of tensor + index leases served.
    pub takes: u64,
    /// Leases that allocated because no recycled buffer was available.
    pub pool_misses: u64,
    /// `f32` capacity currently held in the tensor free list.
    pub retained_f32: usize,
    /// `usize` capacity currently held in the index free list.
    pub retained_idx: usize,
    /// `u64` capacity currently held in the metadata free list.
    pub retained_u64: usize,
    /// High-water mark of `f32` capacity ever handed out simultaneously.
    pub peak_leased_f32: usize,
}

/// Per-rank arena of reusable scratch buffers. See the module docs.
#[derive(Debug, Default)]
pub struct Workspace {
    free_f32: Vec<Vec<f32>>,
    free_idx: Vec<Vec<usize>>,
    free_u64: Vec<Vec<u64>>,
    takes: u64,
    pool_misses: u64,
    leased_f32: usize,
    peak_leased_f32: usize,
}

impl Workspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Lease a zero-filled `rows x cols` tensor.
    ///
    /// Pops the most recently recycled buffer (LIFO), clears it and
    /// zero-resizes it to the requested shape. Once the buffer's capacity has
    /// grown past `rows * cols` in a previous step, the lease performs no
    /// heap allocation.
    pub fn take(&mut self, rows: usize, cols: usize) -> Tensor {
        self.lease(rows, cols, true)
    }

    /// [`Workspace::take`] without the zero-fill, for a lease whose next
    /// operation writes every element: contents are unspecified — see
    /// [`Tensor::resize_for_overwrite`], including the NaN poison of debug
    /// builds. Same free list, same counters.
    pub fn take_for_overwrite(&mut self, rows: usize, cols: usize) -> Tensor {
        self.lease(rows, cols, false)
    }

    fn lease(&mut self, rows: usize, cols: usize, zeroed: bool) -> Tensor {
        self.takes += 1;
        let buf = match self.free_f32.pop() {
            Some(b) => b,
            None => {
                self.pool_misses += 1;
                Vec::new()
            }
        };
        let mut t = Tensor::from_vec(buf.len(), 1, buf);
        if zeroed {
            t.resize(rows, cols);
        } else {
            t.resize_for_overwrite(rows, cols);
        }
        self.leased_f32 += t.data.capacity();
        self.peak_leased_f32 = self.peak_leased_f32.max(self.leased_f32);
        t
    }

    /// Return a leased tensor's backing buffer to the free list.
    pub fn recycle(&mut self, t: Tensor) {
        let buf = t.into_vec();
        self.leased_f32 = self.leased_f32.saturating_sub(buf.capacity());
        self.free_f32.push(buf);
    }

    /// Lease a zero-filled index buffer of length `len`.
    pub fn take_idx(&mut self, len: usize) -> Vec<usize> {
        self.takes += 1;
        let mut buf = match self.free_idx.pop() {
            Some(b) => b,
            None => {
                self.pool_misses += 1;
                Vec::new()
            }
        };
        buf.clear();
        buf.resize(len, 0);
        buf
    }

    /// Return an index buffer to the free list.
    pub fn recycle_idx(&mut self, buf: Vec<usize>) {
        self.free_idx.push(buf);
    }

    /// Lease an **empty** flat `f32` buffer with capacity at least `cap`.
    ///
    /// This is the wire-staging lease: callers `extend` into it rather than
    /// indexing, so it comes back empty instead of zero-filled. The backing
    /// store is the same free list as [`Workspace::take`] — buffers received
    /// over the simulated wire and recycled here feed later tensor leases
    /// and vice versa, which is what keeps a distributed exchange's buffer
    /// population closed (every rank recycles as many inner buffers as it
    /// leases per step).
    pub fn take_f32(&mut self, cap: usize) -> Vec<f32> {
        self.takes += 1;
        let mut buf = match self.free_f32.pop() {
            Some(b) => b,
            None => {
                self.pool_misses += 1;
                Vec::new()
            }
        };
        buf.clear();
        buf.reserve(cap);
        self.leased_f32 += buf.capacity();
        self.peak_leased_f32 = self.peak_leased_f32.max(self.leased_f32);
        buf
    }

    /// Return a flat `f32` buffer to the free list (same list as recycled
    /// tensors).
    pub fn recycle_f32(&mut self, buf: Vec<f32>) {
        self.leased_f32 = self.leased_f32.saturating_sub(buf.capacity());
        self.free_f32.push(buf);
    }

    /// Lease an **empty** `u64` metadata buffer with capacity at least `cap`
    /// (the pilot/replica metadata streams of the RBD exchanges).
    pub fn take_u64(&mut self, cap: usize) -> Vec<u64> {
        self.takes += 1;
        let mut buf = match self.free_u64.pop() {
            Some(b) => b,
            None => {
                self.pool_misses += 1;
                Vec::new()
            }
        };
        buf.clear();
        buf.reserve(cap);
        buf
    }

    /// Return a `u64` metadata buffer to the free list.
    pub fn recycle_u64(&mut self, buf: Vec<u64>) {
        self.free_u64.push(buf);
    }

    /// Snapshot the arena counters.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            takes: self.takes,
            pool_misses: self.pool_misses,
            retained_f32: self.free_f32.iter().map(Vec::capacity).sum(),
            retained_idx: self.free_idx.iter().map(Vec::capacity).sum(),
            retained_u64: self.free_u64.iter().map(Vec::capacity).sum(),
            peak_leased_f32: self.peak_leased_f32,
        }
    }

    /// Drop every retained buffer, returning the arena to its initial
    /// (empty) state. Counters are preserved.
    pub fn reset(&mut self) {
        self.free_f32.clear();
        self.free_idx.clear();
        self.free_u64.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_even_after_dirty_recycle() {
        let mut ws = Workspace::new();
        let mut t = ws.take(2, 3);
        t.as_mut_slice().fill(7.5);
        ws.recycle(t);
        // Same backing buffer comes back (LIFO), but fully zeroed.
        let t2 = ws.take(3, 2);
        assert_eq!(t2.shape(), (3, 2));
        assert!(t2.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn for_overwrite_lease_shares_the_free_list_and_skips_only_the_fill() {
        let mut ws = Workspace::new();
        let mut t = ws.take(4, 4);
        t.as_mut_slice().fill(7.5);
        ws.recycle(t);
        let t2 = ws.take_for_overwrite(3, 2);
        assert_eq!((t2.shape(), t2.len()), ((3, 2), 6));
        if cfg!(debug_assertions) {
            assert!(t2.as_slice().iter().all(|v| v.is_nan()), "poisoned");
        }
        ws.recycle(t2);
        // The zeroing lease of the same buffer is still zeroed.
        let t3 = ws.take(4, 4);
        assert!(t3.as_slice().iter().all(|&v| v == 0.0));
        let s = ws.stats();
        assert_eq!((s.takes, s.pool_misses), (3, 1), "one backing buffer");
        assert!(s.peak_leased_f32 >= 16);
    }

    #[test]
    fn steady_state_stops_missing() {
        let mut ws = Workspace::new();
        for step in 0..5 {
            // Varying shapes per step, same take/recycle order.
            let a = ws.take(8 + step, 4);
            let b = ws.take(2, 16);
            let i = ws.take_idx(32);
            ws.recycle_idx(i);
            ws.recycle(b);
            ws.recycle(a);
        }
        let s = ws.stats();
        assert_eq!(s.takes, 15);
        // Only the first step's three leases miss; the rest are pool hits.
        assert_eq!(s.pool_misses, 3);
    }

    #[test]
    fn lifo_keeps_slots_aliased_to_same_allocation() {
        let mut ws = Workspace::new();
        let big = ws.take(64, 64);
        let small = ws.take(2, 2);
        let small_cap = small.as_slice().len();
        assert_eq!(small_cap, 4);
        ws.recycle(small);
        ws.recycle(big);
        // LIFO: the big buffer is on top, so the big slot reuses it.
        let big2 = ws.take(64, 64);
        let small2 = ws.take(2, 2);
        assert_eq!(big2.len(), 64 * 64);
        assert_eq!(small2.len(), 4);
        assert_eq!(ws.stats().pool_misses, 2, "no new allocations");
    }

    #[test]
    fn stats_track_retained_and_peak() {
        let mut ws = Workspace::new();
        let a = ws.take(10, 10);
        assert!(ws.stats().peak_leased_f32 >= 100);
        assert_eq!(ws.stats().retained_f32, 0);
        ws.recycle(a);
        assert!(ws.stats().retained_f32 >= 100);
        ws.reset();
        let s = ws.stats();
        assert_eq!(s.retained_f32, 0);
        assert_eq!(s.takes, 1, "reset preserves counters");
    }

    #[test]
    fn flat_leases_share_the_f32_free_list_with_tensors() {
        let mut ws = Workspace::new();
        let t = ws.take(4, 4);
        ws.recycle(t);
        // The flat lease reuses the recycled tensor's backing buffer.
        let b = ws.take_f32(10);
        assert!(b.is_empty());
        assert!(b.capacity() >= 10);
        ws.recycle_f32(b);
        let t2 = ws.take(2, 5);
        assert_eq!(t2.len(), 10);
        assert_eq!(ws.stats().pool_misses, 1, "one backing buffer serves all");
        ws.recycle(t2);

        let m = ws.take_u64(6);
        assert!(m.is_empty() && m.capacity() >= 6);
        ws.recycle_u64(m);
        let m2 = ws.take_u64(4);
        assert!(m2.capacity() >= 6, "u64 lease reuses the recycled buffer");
        ws.recycle_u64(m2);
        assert!(ws.stats().retained_u64 >= 6);
    }

    #[test]
    fn zero_sized_leases_are_legal() {
        let mut ws = Workspace::new();
        let t = ws.take(0, 5);
        assert_eq!(t.shape(), (0, 5));
        ws.recycle(t);
        let i = ws.take_idx(0);
        assert!(i.is_empty());
        ws.recycle_idx(i);
    }
}
