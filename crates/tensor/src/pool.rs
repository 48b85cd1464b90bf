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
//! * The `f32` free list is searched **best-fit**: a lease gets the smallest
//!   recycled buffer that holds it (the most recently recycled among equals);
//!   when none does, the largest one is re-allocated at the requested size
//!   plus a [`GROW_SLACK`]th; only an empty list allocates a new buffer — a
//!   pool miss. So the arena is *closed*: it never holds more buffers than
//!   were once leased at the same time, whatever sizes arrive over the wire
//!   from another rank's arena. A pipeline that takes and recycles in the
//!   same order every step keeps each logical buffer bound to the same
//!   backing allocation once capacities have converged. The index list
//!   holds a handful of same-sized buffers and stays LIFO.
//! * An arena under a whole train step — a hundred leases of a dozen sizes,
//!   many held from the forward to the backward pass, all drifting as the
//!   router trains — is [`Workspace::trim`]med by its owner between steps,
//!   and from then on leases by **size class**: see there.
//! * Leaked leases are not an error — the tensor is simply dropped — but the
//!   arena loses the reuse benefit, and [`WorkspaceStats::pool_misses`] will
//!   keep climbing. Tests gate on that counter.
//!
//! The arena is deliberately *not* thread-safe: one `Workspace` per simulated
//! rank, matching the paper's per-GPU workspace.

use crate::Tensor;

/// Headroom of a re-grown buffer, as a divisor of the requested length: a
/// buffer sized by the *routed* token count is asked for a slightly different
/// length every step, and growing to exactly the running maximum would
/// re-allocate on every new record. A buffer that is allocated fresh gets
/// exactly what was asked, so fixed-size leases carry no slack at all.
const GROW_SLACK: usize = 16;

/// Give `buf` capacity for `need` elements: kept as it is (contents and all)
/// when it already fits, otherwise freed and re-allocated empty — nothing a
/// lease hands out is read before it is written, so there is nothing to copy.
fn fit(buf: &mut Vec<f32>, need: usize) {
    if buf.capacity() < need {
        let grown = if buf.capacity() == 0 {
            need
        } else {
            need + need / GROW_SLACK
        };
        *buf = Vec::new();
        buf.reserve_exact(grown);
    }
}

/// Counters describing arena behaviour since construction.
///
/// `takes` counts every lease; `pool_misses` counts leases that had to
/// allocate a fresh backing buffer because the free list held none of their
/// size class (none at all, for the index list). At steady
/// state `pool_misses` stops advancing. `retained_f32` / `retained_idx` are
/// the element capacities currently parked in the free lists; together with
/// outstanding leases they bound the arena's heap footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Total number of tensor + index leases served.
    pub takes: u64,
    /// Leases that allocated because no recycled buffer of their size class
    /// was available.
    pub pool_misses: u64,
    /// `f32` capacity currently held in the tensor free list.
    pub retained_f32: usize,
    /// `usize` capacity currently held in the index free list.
    pub retained_idx: usize,
    /// `u64` capacity held outside the arena by its owner (the arena keeps
    /// no `u64` list; `xmoe_core`'s pooled state counts RBD's metadata
    /// streams here).
    pub retained_u64: usize,
    /// [`Workspace::trim`] calls: the steps run on an arena whose owner trims
    /// it once a step.
    pub trims: u64,
}

/// Per-rank arena of reusable scratch buffers. See the module docs.
#[derive(Debug, Default)]
pub struct Workspace {
    free_f32: Vec<Vec<f32>>,
    free_idx: Vec<Vec<usize>>,
    free_shells: Vec<Vec<Vec<f32>>>,
    /// How many buffers at the front of `free_f32` no lease has popped since
    /// the last [`Workspace::trim`].
    idle: usize,
    /// [`Workspace::trim`] calls so far; an arena with any is leased by size
    /// class.
    trims: u64,
    takes: u64,
    pool_misses: u64,
}

impl Workspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Lease a zero-filled `rows x cols` tensor.
    ///
    /// Pops the best-fitting recycled buffer (see the module docs), clears it
    /// and zero-resizes it to the requested shape. Once a buffer of at least
    /// `rows * cols` has been recycled in a previous step, the lease performs
    /// no heap allocation.
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

    /// The free `f32` buffer a lease of `need` elements gets, with capacity
    /// for them (see the module docs for the choice).
    fn pop_f32(&mut self, need: usize) -> Vec<f32> {
        self.takes += 1;
        // (index, capacity) of the smallest free buffer that holds `need` and
        // of the largest that does not.
        let mut fits: Option<(usize, usize)> = None;
        let mut below: Option<(usize, usize)> = None;
        for (i, b) in self.free_f32.iter().enumerate().rev() {
            let cap = b.capacity();
            if cap >= need {
                if fits.is_none_or(|(_, best)| cap < best) {
                    fits = Some((i, cap));
                }
            } else if below.is_none_or(|(_, best)| cap > best) {
                below = Some((i, cap));
            }
        }
        if self.trims > 0 && need > 0 {
            // Only a buffer of the lease's size class will do.
            fits = fits.filter(|&(_, cap)| 2 * cap <= 3 * need);
            below = below.filter(|&(_, cap)| 3 * cap >= 2 * need);
        }
        let mut buf = match fits.or(below) {
            Some((i, _)) => {
                self.idle -= usize::from(i < self.idle);
                self.free_f32.remove(i)
            }
            None => {
                self.pool_misses += 1;
                Vec::new()
            }
        };
        fit(&mut buf, need);
        buf
    }

    fn lease(&mut self, rows: usize, cols: usize, zeroed: bool) -> Tensor {
        let buf = self.pop_f32(rows * cols);
        let mut t = Tensor::from_vec(buf.len(), 1, buf);
        if zeroed {
            t.resize(rows, cols);
        } else {
            t.resize_for_overwrite(rows, cols);
        }
        t
    }

    /// Return a leased tensor's backing buffer to the free list.
    pub fn recycle(&mut self, t: Tensor) {
        self.free_f32.push(t.into_vec());
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
        let mut buf = self.pop_f32(cap);
        buf.clear();
        buf
    }

    /// Return a flat `f32` buffer to the free list (same list as recycled
    /// tensors).
    pub fn recycle_f32(&mut self, buf: Vec<f32>) {
        self.free_f32.push(buf);
    }

    /// Release what the arena no longer uses; call it between steps, when the
    /// step's leases are back. The free buffers that no lease has touched
    /// since the last call are dropped: they sit, in their old order, at the
    /// front of the free list, because a recycled buffer goes to its end.
    ///
    /// An arena that is trimmed leases by size class: a lease only takes a
    /// buffer that is at most half again as large as it, or re-grows one that
    /// is too small by less than a third, and otherwise allocates its own.
    /// Best-fit alone lets an `[n, hidden]` activation saved for the backward
    /// pass sit in the only free `[routed, hidden]` buffer; the dispatch
    /// matrix that needs it next grows another, and the arena ends up a third
    /// larger than what the step has live at its peak. Allocating instead is
    /// only sound because the buffers this leaves unused — and the ones a
    /// drifting routed token count has outgrown — are released here; an arena
    /// that is never trimmed stays closed.
    pub fn trim(&mut self) {
        self.trims += 1;
        self.free_f32.drain(..self.idle);
        self.idle = self.free_f32.len();
    }

    /// Lease a wire shell: `peers` empty `f32` buffers, the outer spine of one
    /// all-to-all's send or receive side (the inner buffers are
    /// [`Workspace::take_f32`] leases, or arrive over the wire).
    pub fn take_shell(&mut self, peers: usize) -> Vec<Vec<f32>> {
        self.takes += 1;
        let mut shell = self.free_shells.pop().unwrap_or_else(|| {
            self.pool_misses += 1;
            Vec::new()
        });
        shell.resize_with(peers, Vec::new);
        shell
    }

    /// Return a wire shell whose inner buffers have been moved out (sent, or
    /// recycled with [`Workspace::recycle_f32`]).
    pub fn recycle_shell(&mut self, shell: Vec<Vec<f32>>) {
        debug_assert!(
            shell.iter().all(|b| b.capacity() == 0),
            "a shell is recycled without its inner buffers"
        );
        self.free_shells.push(shell);
    }

    /// Test support: fill every free `f32` buffer with NaN to its full
    /// capacity, so whatever a later for-overwrite lease reads before writing
    /// it shows up in the results — in release builds too, where such a lease
    /// otherwise hands out the previous step's data.
    #[doc(hidden)]
    pub fn poison(&mut self) {
        for buf in &mut self.free_f32 {
            buf.clear();
            buf.resize(buf.capacity(), f32::NAN);
        }
    }

    /// Snapshot the arena counters.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            takes: self.takes,
            pool_misses: self.pool_misses,
            retained_f32: self.free_f32.iter().map(Vec::capacity).sum(),
            retained_idx: self.free_idx.iter().map(Vec::capacity).sum(),
            retained_u64: 0,
            trims: self.trims,
        }
    }

    /// Drop every retained buffer, returning the arena to its initial
    /// (empty) state. Counters are preserved.
    pub fn reset(&mut self) {
        self.free_f32.clear();
        self.idle = 0;
        self.free_idx.clear();
        self.free_shells.clear();
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
    fn stats_track_retained_across_reset() {
        let mut ws = Workspace::new();
        let a = ws.take(10, 10);
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
    }

    #[test]
    fn a_closed_arena_never_allocates_while_a_buffer_is_free() {
        let mut ws = Workspace::new();
        let (small, big) = (ws.take(8, 8), ws.take(64, 8));
        let p_big = big.as_slice().as_ptr();
        ws.recycle(big);
        ws.recycle(small);
        // Best fit, however loose: 16 elements in the 64-element buffer.
        let a = ws.take_for_overwrite(2, 8);
        // 100 elements: the 512 holds them.
        let b = ws.take_for_overwrite(10, 10);
        assert_eq!(b.as_slice().as_ptr(), p_big);
        ws.recycle(b);
        ws.recycle(a);
        // 600 elements: nothing holds them, the largest is re-grown.
        let c = ws.take_for_overwrite(60, 10);
        assert_eq!((c.len(), ws.stats().pool_misses), (600, 2));
    }

    #[test]
    fn a_trimmed_arena_leases_by_size_class() {
        let mut ws = Workspace::new();
        ws.trim();
        let (small, mid, big) = (ws.take(8, 8), ws.take(10, 8), ws.take(64, 8));
        let (p_mid, p_big) = (mid.as_slice().as_ptr(), big.as_slice().as_ptr());
        for t in [big, small, mid] {
            ws.recycle(t);
        }
        // 72 elements: the 80-element buffer, not the 64 (too small) nor the
        // 512 that was recycled before it.
        let t = ws.take_for_overwrite(9, 8);
        assert_eq!(t.as_slice().as_ptr(), p_mid);
        // 400 elements: only the 512 is within half again.
        let u = ws.take_for_overwrite(50, 8);
        assert_eq!(u.as_slice().as_ptr(), p_big);
        assert_eq!(ws.stats().pool_misses, 3);
        // 16 elements fit the free 64-element buffer four times over: the
        // lease allocates its own instead of squatting in it.
        let v = ws.take_for_overwrite(2, 8);
        assert_eq!((v.len(), ws.stats().pool_misses), (16, 4));
        // 90 elements: nothing fits, the 80-element buffer is close below and
        // is re-grown with headroom — not a miss.
        ws.recycle(t);
        let w = ws.take_for_overwrite(9, 10);
        assert_eq!((w.len(), ws.stats().pool_misses), (90, 4));
        ws.recycle(w);
        assert!(ws.stats().retained_f32 >= 64 + 90 + 90 / GROW_SLACK);
    }

    #[test]
    fn trim_releases_what_no_lease_touched() {
        let mut ws = Workspace::new();
        let (a, b) = (ws.take(8, 8), ws.take(100, 8));
        ws.recycle(a);
        ws.recycle(b);
        // Both were leased since the arena was made: the first call keeps
        // them.
        ws.trim();
        assert_eq!(ws.stats().retained_f32, 864);
        // A step that only leases the small buffer: the large one goes.
        let a = ws.take(8, 8);
        ws.recycle(a);
        ws.trim();
        let s = ws.stats();
        assert_eq!((s.retained_f32, s.pool_misses), (64, 2));
        // The survivor keeps being used: nothing else is ever released.
        for _ in 0..4 {
            let a = ws.take(8, 8);
            ws.recycle(a);
            ws.trim();
        }
        let end = ws.stats();
        assert_eq!((end.takes, end.trims), (s.takes + 4, s.trims + 4));
        assert_eq!((end.retained_f32, end.pool_misses), (64, 2));
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
