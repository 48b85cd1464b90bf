//! Persistent deterministic worker pool + grouped expert GEMMs.
//!
//! Every parallel kernel in the workspace used to pay a `std::thread::scope`
//! spawn/join on each call, and — worse — the per-expert segment GEMMs of the
//! MoE hot path each fell below the single-GEMM parallelism cutoff, so E
//! small matmuls ran back-to-back on one core. This module fixes both:
//!
//! * [`Pool`] — a dependency-free pool of `worker_threads() - 1` persistent
//!   workers plus the submitting thread as an extra lane. Workers are spawned
//!   lazily on first use and reused forever; a batch is published under a
//!   mutex with a monotone epoch, workers claim task indices from a shared
//!   atomic counter, and the submitter blocks until every claimed index has
//!   been executed. No timestamps, no randomness, no per-call allocation:
//!   steady-state submission is one mutex hand-off and one condvar round.
//! * [`Pool::for_each`] — the barrier API: the safe monomorphic entry every
//!   kernel submits through.
//! * [`gemm_grouped`] / [`gemm_grouped_transpose_b`] /
//!   [`gemm_grouped_transpose_a`] — grouped expert GEMMs over the per-expert
//!   segment table (`tokens_per_local_expert`), and the workspace's only GEMM
//!   scheduler: a dense product ([`crate::matmul_slices`],
//!   [`crate::matmul_transpose_b_slices`], [`crate::matmul_transpose_a_add`])
//!   is a grouped call over one segment. Whole experts, and row panels of
//!   large experts (of their gradient blocks for the TN), become tasks, so E
//!   small GEMMs fill the machine even when each one is below the per-call
//!   cutoff. The NN and NT read their
//!   `A` rows (the TN its `A` and `D` rows) by token id if asked, scaled
//!   per row if asked ([`RowSource`]), and can add their product rows,
//!   weighted or not, onto their tokens ([`RowSink::Combine`], one token
//!   range per task) or dot them against the activations and scale them
//!   over them ([`RowSink::DotScale`]), so the MoE layer's training step
//!   needs no routed-row copy of its tokens, outputs or their gradients.
//!
//! # Determinism
//!
//! Tasks own disjoint output slices (enforced through [`DisjointMut`]) and
//! every output row is computed by exactly one task with the same fixed
//! intra-row accumulation order as the serial kernels (the register tiles'
//! single ascending k-walk; the NT's position-determined lanes).
//! Which thread runs a task, and in which order tasks retire, affects neither
//! the values nor their rounding — results are bitwise identical to the
//! serial schedule for any worker count, including 1.
//!
//! # Allocation discipline
//!
//! Workers mark themselves permanently untracked
//! ([`crate::alloc::mark_thread_untracked`]), so the pool never charges a
//! simulated rank's `thread_tracked_allocs` fence. Panel descriptors for the
//! grouped GEMMs live in a thread-local grow-once arena; after warm-up a
//! grouped call performs zero tracked allocations. A call that grows the
//! caller's pack buffers grows every lane's with them
//! (`Pool::catch_up_lanes`), so after warm-up no worker grows one either.
//! Pool startup itself (thread spawn) allocates on the first submitting
//! thread — callers that fence allocations warm the pool first, exactly like
//! they warm their workspace arenas.
//!
//! # Simulated time
//!
//! The pool accelerates *wall-clock* only. `SimClock` charging everywhere in
//! the workspace is analytic (`CostModel::compute_time` over flop counts), so
//! simulated-time numbers are identical at any `XMOE_THREADS`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, OnceLock};
use std::thread::LocalKey;

use crate::alloc::mark_thread_untracked;
use crate::ops::{
    add_assign_slice, axpy_slice, gemm_nn_rows, gemm_ta_rows, grown, nt_pack_reserve, with_nt_b,
    NtB, MAX_TILE_ROWS,
};
use crate::worker_threads;

/// Below this `m*n*k` volume a grouped GEMM (by *total* volume; a dense one
/// is one segment) runs serially on the caller: the work is too small to
/// amortize even a persistent-pool barrier.
///
/// Measured with the register-tiled kernels (2-core Xeon @ 2.10 GHz, avx512
/// tier, 2 lanes, `[rows, 64] @ [64, 128]` segments): a batch costs 10-15 us
/// more pooled than inline (worker wake + barrier), pooled loses or ties up
/// to `4 * 64^3` (0.5-0.95x of serial) and wins from `8 * 64^3` on
/// (1.2-1.5x), i.e. once the serial call is worth ~60 us. The scalar kernels
/// this was first sized for (`64^3`) were 4-5x slower per MAC.
pub(crate) const PAR_CUTOFF: usize = 128 * 128 * 128;

/// Below this many elements an elementwise pass ([`par_elementwise`]) runs
/// inline: the same ~60 us of serial work as [`PAR_CUTOFF`], at the ~3 ns a
/// scalar `exp` element costs on the same machine.
const ELEMWISE_CUTOFF: usize = 16 * 1024;

/// Minimum rows per grouped-GEMM panel: two row groups of the tallest tile.
/// Measured on the same machine by forcing the panel height of a 1024-row
/// segment from 8 to 512 rows: no difference beyond run-to-run noise (a task
/// claim is ~0.1 us against >= 2 us of tile work in an 8-row panel), so the
/// floor only keeps full `MR`-row tiles dominant over single-row edges.
const MIN_PANEL_ROWS: usize = 2 * MAX_TILE_ROWS;

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// One published batch. `ctx` is only dereferenced (through `call`) while the
/// submitter of the batch blocks in `run_raw`, which keeps the pointee alive;
/// that is what makes the manual `Send` below sound.
struct BatchState {
    /// Monotone batch counter; a change signals workers that new work exists.
    epoch: u64,
    call: Option<unsafe fn(*const (), usize)>,
    ctx: *const (),
    len: usize,
    /// Task indices executed so far (submitter lane included).
    completed: usize,
    /// Workers that captured this batch / that have finished claiming. The
    /// submitter waits for `entered == exited` so no worker can still be
    /// racing the claim counter when the next batch resets it.
    entered: usize,
    exited: usize,
    /// A task panicked on a worker; the submitter re-panics on its thread.
    panicked: bool,
}

// SAFETY: see `BatchState` — the raw ctx pointer is only used while its owner
// blocks, and all other fields are plain data behind the mutex.
unsafe impl Send for BatchState {}

struct Shared {
    state: Mutex<BatchState>,
    /// Signals workers: a new epoch was published.
    work: Condvar,
    /// Signals the submitter: completion / exit counts changed.
    done: Condvar,
    /// Task claim counter for the current batch.
    next: AtomicUsize,
}

/// The persistent worker pool. One per process, obtained via [`pool`].
pub struct Pool {
    shared: Arc<Shared>,
    /// Spawned workers (pool size minus the caller lane).
    workers: usize,
    /// Serializes submitters. `try_lock`: a thread that finds the pool busy
    /// (another simulated rank is mid-batch) runs its batch inline instead —
    /// bitwise identical either way, and no rank ever blocks on another
    /// rank's compute.
    submit: Mutex<()>,
}

/// The process-wide pool, started lazily on first use with
/// [`worker_threads`]`() - 1` workers. With `XMOE_THREADS=1` no threads are
/// ever spawned and every batch runs inline on the caller.
pub fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(Pool::start)
}

/// Total execution lanes of the process pool (workers + the caller lane) —
/// equal to [`worker_threads`]. Recorded in every `BENCH_*.json` config block
/// so perf numbers are comparable across machines.
pub fn pool_size() -> usize {
    worker_threads()
}

fn worker_loop(shared: Arc<Shared>, ready: Arc<Barrier>) {
    mark_thread_untracked();
    ready.wait();
    let mut seen = 0u64;
    loop {
        // Capture the current batch (or sleep until one is published).
        let (call, ctx, len) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.epoch != seen {
                    seen = st.epoch;
                    if let Some(c) = st.call {
                        st.entered += 1;
                        break (c, st.ctx, st.len);
                    }
                    // Batch already retired before this worker woke; keep
                    // sleeping until the next epoch.
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        // Claim and run tasks until the counter runs dry.
        let mut ran = 0usize;
        let mut panicked = false;
        loop {
            let i = shared.next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            // SAFETY: the batch contract of `run_raw` — concurrent calls with
            // distinct indices are sound, ctx alive while submitter blocks.
            let r =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe { call(ctx, i) }));
            if r.is_err() {
                panicked = true;
            }
            ran += 1;
        }
        let mut st = shared.state.lock().unwrap();
        st.completed += ran;
        st.exited += 1;
        if panicked {
            st.panicked = true;
        }
        if st.completed >= st.len && st.entered == st.exited {
            shared.done.notify_all();
        }
    }
}

impl Pool {
    fn start() -> Self {
        let workers = worker_threads().saturating_sub(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(BatchState {
                epoch: 0,
                call: None,
                ctx: std::ptr::null(),
                len: 0,
                completed: 0,
                entered: 0,
                exited: 0,
                panicked: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            next: AtomicUsize::new(0),
        });
        // Startup is synchronous: return only once every worker has marked
        // itself untracked, so the runtime's own thread-start allocations
        // never land inside a caller's counted steady-state window.
        let ready = Arc::new(Barrier::new(workers + 1));
        for w in 0..workers {
            let (sh, ready) = (Arc::clone(&shared), Arc::clone(&ready));
            std::thread::Builder::new()
                .name(format!("xmoe-pool-{w}"))
                .spawn(move || worker_loop(sh, ready))
                .expect("spawning pool worker");
        }
        ready.wait();
        Self {
            shared,
            workers,
            submit: Mutex::new(()),
        }
    }

    /// Execution lanes: spawned workers plus the caller.
    pub fn size(&self) -> usize {
        self.workers + 1
    }

    /// Can a batch actually run on more than one thread?
    pub fn is_parallel(&self) -> bool {
        self.workers > 0
    }

    /// Run `call(ctx, i)` for every `i in 0..len` across the pool and block
    /// until all are done. The caller participates as a lane and holds
    /// `submit`.
    ///
    /// # Safety
    ///
    /// `call` must be safe to invoke concurrently from multiple threads with
    /// this `ctx` and distinct indices in `0..len`, and the pointee of `ctx`
    /// must stay alive for the duration of the call (guaranteed for stack
    /// data of the submitter: this function blocks until the batch retires).
    unsafe fn run_raw(&self, call: unsafe fn(*const (), usize), ctx: *const (), len: usize) {
        if len == 0 {
            return;
        }
        if self.workers == 0 {
            for i in 0..len {
                // SAFETY: forwarded caller contract; serial on this thread.
                unsafe { call(ctx, i) };
            }
            return;
        }
        {
            let mut st = self.shared.state.lock().unwrap();
            st.epoch += 1;
            st.call = Some(call);
            st.ctx = ctx;
            st.len = len;
            st.completed = 0;
            st.entered = 0;
            st.exited = 0;
            self.shared.next.store(0, Ordering::Relaxed);
            self.shared.work.notify_all();
        }
        // The submitter is a lane too.
        let mut ran = 0usize;
        let mut panicked = false;
        loop {
            let i = self.shared.next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            // SAFETY: forwarded caller contract (distinct index per call).
            let r =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe { call(ctx, i) }));
            if r.is_err() {
                panicked = true;
            }
            ran += 1;
        }
        let mut st = self.shared.state.lock().unwrap();
        st.completed += ran;
        while st.completed < st.len || st.entered != st.exited {
            st = self.shared.done.wait(st).unwrap();
        }
        // Retire the batch so late-waking workers do not re-enter it.
        st.call = None;
        let poisoned = st.panicked || panicked;
        st.panicked = false;
        drop(st);
        if poisoned {
            panic!("a pool task panicked");
        }
    }

    /// Safe barrier execution: runs `call(ctx, i)` for `i in 0..len` across
    /// the pool. `call` is a plain `fn` pointer (no captured state — all
    /// shared inputs travel through `ctx`), so the only way a task can write
    /// anywhere is through `ctx`'s own `Sync` interior, e.g. disjoint ranges
    /// of a [`DisjointMut`].
    pub fn for_each<C: Sync>(&self, ctx: &C, len: usize, call: fn(&C, usize)) {
        // Another thread (a concurrent simulated rank) is mid-batch: run
        // inline rather than queue. Results are identical by construction.
        let Ok(_gate) = self.submit.try_lock() else {
            return (0..len).for_each(|i| call(ctx, i));
        };
        self.batch(ctx, len, call);
    }

    /// [`Pool::for_each`], the caller holding `submit`.
    fn batch<C: Sync>(&self, ctx: &C, len: usize, call: fn(&C, usize)) {
        struct ForEach<'a, C> {
            ctx: &'a C,
            call: fn(&C, usize),
        }
        unsafe fn shim<C: Sync>(p: *const (), i: usize) {
            // SAFETY: `p` points at the live `ForEach<C>` below; `batch`
            // blocks until every task retires, and `C: Sync` makes the shared
            // borrow sound across threads.
            let fe = unsafe { &*(p as *const ForEach<'_, C>) };
            (fe.call)(fe.ctx, i)
        }
        let fe = ForEach { ctx, call };
        let fe_ptr = &fe as *const ForEach<'_, C> as *const ();
        // SAFETY: see shim; fe outlives run_raw, which blocks.
        unsafe { self.run_raw(shim::<C>, fe_ptr, len) }
    }

    /// Grow every lane's pack buffers as [`reserve_packs`] just grew the
    /// caller's: one task per lane, each waiting at a barrier of every lane
    /// once it has grown, so every worker runs one. Which lane runs which
    /// task varies from call to call, so a worker would otherwise grow its
    /// buffers whenever it first claims a longer segment, long after
    /// warm-up. Skipped while another thread holds the pool.
    fn catch_up_lanes(&self, lens: [usize; 3]) {
        let Ok(_gate) = self.submit.try_lock() else {
            return;
        };
        let lanes = (lens, Barrier::new(self.size()));
        let grow = |(lens, lanes): &([usize; 3], Barrier), _| {
            reserve_packs(*lens);
            lanes.wait();
        };
        self.batch(&lanes, self.size(), grow);
    }
}

/// A `Sync` view of a mutable `f32` buffer for tasks that write disjoint
/// ranges. The pool's `fn`-pointer task shape forbids capturing `&mut`
/// borrows; this wrapper carries the one mutable output of a batch and makes
/// the aliasing contract explicit at the single `unsafe` extraction point.
pub struct DisjointMut<'a> {
    ptr: *mut f32,
    len: usize,
    _life: std::marker::PhantomData<&'a mut [f32]>,
}

// SAFETY: the wrapper only hands out ranges through the unsafe `slice`,
// whose contract requires disjointness; sharing the wrapper itself is inert.
unsafe impl Send for DisjointMut<'_> {}
unsafe impl Sync for DisjointMut<'_> {}

impl<'a> DisjointMut<'a> {
    /// Wrap an exclusive borrow; tasks then carve disjoint ranges off it.
    pub fn new(buf: &'a mut [f32]) -> Self {
        Self {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            _life: std::marker::PhantomData,
        }
    }

    /// Mutable sub-range `[start, start + len)`.
    ///
    /// # Safety
    ///
    /// No two live slices obtained from the same wrapper may overlap; callers
    /// (the task schedulers in this module) guarantee this by construction —
    /// every task owns a distinct output row range.
    #[allow(clippy::mut_from_ref)] // the aliasing contract is the fn's Safety section
    pub unsafe fn slice(&self, start: usize, len: usize) -> &mut [f32] {
        debug_assert!(start + len <= self.len, "DisjointMut range out of bounds");
        // SAFETY: in-bounds per the debug_assert (schedulers compute ranges
        // from the same lengths they validated); non-overlap per contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

// ---------------------------------------------------------------------------
// Chunked elementwise passes (SiLU forward / backward)
// ---------------------------------------------------------------------------

struct ElemCtx<'a> {
    dst: DisjointMut<'a>,
    src: &'a [f32],
    chunk: usize,
    op: fn(&mut [f32], &[f32]),
}

fn elem_task(c: &ElemCtx<'_>, i: usize) {
    let lo = i * c.chunk;
    let n = c.chunk.min(c.dst.len - lo);
    // SAFETY: chunks tile 0..len disjointly; one task per chunk.
    let dst = unsafe { c.dst.slice(lo, n) };
    (c.op)(dst, c.src.get(lo..lo + n).unwrap_or(&[]));
}

/// Apply `op(dst_chunk, src_chunk)` over matching chunks of `dst` and `src`
/// on the pool (inline below [`ELEMWISE_CUTOFF`]). `src` is either as long as
/// `dst` or empty (an in-place pass; every `src_chunk` is then empty). `op`
/// must treat elements independently, which makes any chunking — and so any
/// lane count — bitwise identical to one serial call.
pub(crate) fn par_elementwise(dst: &mut [f32], src: &[f32], op: fn(&mut [f32], &[f32])) {
    assert!(
        src.is_empty() || src.len() == dst.len(),
        "par_elementwise: length mismatch"
    );
    let p = pool();
    let len = dst.len();
    if !p.is_parallel() || len < ELEMWISE_CUTOFF {
        op(dst, src);
        return;
    }
    let chunk = len.div_ceil(p.size() * 4);
    let ctx = ElemCtx {
        dst: DisjointMut::new(dst),
        src,
        chunk,
        op,
    };
    p.for_each(&ctx, len.div_ceil(chunk), elem_task);
}

// ---------------------------------------------------------------------------
// Grouped expert GEMMs
// ---------------------------------------------------------------------------

/// One grouped-GEMM task's rows: a row panel (or whole segment) of one
/// expert's segment for the NN/NT; for the TN, the expert's whole segment
/// and a row panel (or all rows) of its gradient block.
#[derive(Clone, Copy)]
struct Panel {
    /// First input row of the panel (global, segment-major).
    row0: usize,
    /// Input rows in the panel.
    rows: usize,
    /// Per-expert weight pointer (NN/NT); null for TN.
    b: *const f32,
    /// The expert's own gradient block (TN); null for NN/NT.
    block: *mut f32,
    /// The block rows `(first, count)` the panel owns (TN); `(0, 0)` for
    /// NN/NT.
    block_rows: (usize, usize),
}

// SAFETY: `b` is read-only shared data kept alive by the grouped entry
// point's borrow for the whole batch; `block` comes from a `&mut [f32]` the
// entry point holds for the whole batch, and each of its row ranges is
// dereferenced by exactly one task (the panels carve them disjointly).
unsafe impl Send for Panel {}
unsafe impl Sync for Panel {}

std::thread_local! {
    /// Grow-once panel arena: cleared and refilled per grouped call, so at
    /// steady state scheduling a grouped GEMM allocates nothing.
    static PANELS: RefCell<Vec<Panel>> = const { RefCell::new(Vec::new()) };
    /// This thread's packed gathered `A` rows, made contiguous for the tile:
    /// a TN expert's whole segment, or up to [`GATHER_ROWS`] NN/NT rows.
    /// Grow-once; per thread because every pool task packs its own rows.
    static ROWS_PACKED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// This thread's product rows (up to [`GATHER_ROWS`] of them), held only
    /// until they are added onto their tokens or dotted; or a TN expert's
    /// gathered `D` segment. Grow-once.
    static COMBINE_PACKED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Rows per kernel call over a gathered `A`, into a combine or a dot: what
/// one task packs at a time (64 rows of 256 columns are 64 KiB,
/// cache-resident).
const GATHER_ROWS: usize = 64;

/// Grow the calling thread's pack buffers to `[rows, nt, combine]`
/// elements now ([`ROWS_PACKED`], the NT's `B` pack, [`COMBINE_PACKED`]);
/// `true` if any grew. The grouped entry points call this before
/// submitting: the submitting thread is the only allocation-tracked lane.
fn reserve_packs([rows, nt, combine]: [usize; 3]) -> bool {
    let grow = |cell: &'static LocalKey<RefCell<Vec<f32>>>, len| {
        cell.with(|cell| {
            let buf = &mut cell.borrow_mut();
            let grew = buf.len() < len;
            grown(buf, len);
            grew
        })
    };
    grow(&ROWS_PACKED, rows) | nt_pack_reserve(nt) | grow(&COMBINE_PACKED, combine)
}

/// Where a grouped call reads its `A` rows ([`gemm_grouped`],
/// [`gemm_grouped_transpose_b`], [`gemm_grouped_transpose_a_blocks`]) or
/// the TN its `D` rows.
#[derive(Clone, Copy)]
pub enum RowSource<'a> {
    /// The rows themselves, `[sum(counts), cols]` in segment order.
    Contiguous(&'a [f32]),
    /// Row `i` is row `ids[i]` of the row-major `src` (`cols` columns),
    /// times `scale[i]` if given (`scale[i] * src[ids[i]][c]`, the combine
    /// backward's `d_y` expression): the tokens a dispatch would gather, or
    /// the gradient rows a combine backward would write, read by id instead
    /// of kept as a copy.
    Gathered {
        src: &'a [f32],
        ids: &'a [usize],
        scale: Option<&'a [f32]>,
    },
    /// Row `i` of the contiguous rows `src`, times `scale[i]` (the same
    /// expression): the output-gradient rows that arrived over a wire,
    /// scaled by their combine weights as they are read.
    Scaled { src: &'a [f32], scale: &'a [f32] },
}

impl<'a> From<&'a [f32]> for RowSource<'a> {
    fn from(a: &'a [f32]) -> Self {
        RowSource::Contiguous(a)
    }
}

impl<'a> From<&'a Vec<f32>> for RowSource<'a> {
    fn from(a: &'a Vec<f32>) -> Self {
        RowSource::Contiguous(a)
    }
}

impl<'a> RowSource<'a> {
    /// The same rows, row `i` times `w[i]` (in place of any scale they had):
    /// the combine backward's `d_y` from its `d_out` rows.
    pub fn scaled(self, w: &'a [f32]) -> Self {
        match self {
            RowSource::Contiguous(src) | RowSource::Scaled { src, .. } => {
                RowSource::Scaled { src, scale: w }
            }
            RowSource::Gathered { src, ids, .. } => RowSource::Gathered {
                src,
                ids,
                scale: Some(w),
            },
        }
    }

    /// Write row `i` (`dst.len()` columns) into `dst`.
    pub fn copy_row(self, i: usize, dst: &mut [f32]) {
        let cols = dst.len();
        let (row, scale) = match self {
            RowSource::Contiguous(a) => (&a[i * cols..(i + 1) * cols], None),
            RowSource::Gathered { src, ids, scale } => {
                (&src[ids[i] * cols..(ids[i] + 1) * cols], scale)
            }
            RowSource::Scaled { src, scale } => (&src[i * cols..(i + 1) * cols], Some(scale)),
        };
        match scale {
            None => dst.copy_from_slice(row),
            Some(w) => {
                for (d, &g) in dst.iter_mut().zip(row) {
                    *d = w[i] * g;
                }
            }
        }
    }

    /// Whether the source gives `total` rows of `cols` columns.
    fn fits(self, total: usize, cols: usize) -> bool {
        match self {
            RowSource::Contiguous(a) => a.len() == total * cols,
            RowSource::Gathered { ids, scale, .. } => {
                ids.len() == total && scale.is_none_or(|w| w.len() == total)
            }
            RowSource::Scaled { src, scale } => src.len() == total * cols && scale.len() == total,
        }
    }

    /// Whether a kernel must pack the rows before reading them.
    fn packs(self) -> bool {
        !matches!(self, RowSource::Contiguous(_))
    }

    /// Run `f` on rows `row0..row0 + cnt` (`cols` wide) as one contiguous
    /// block: a contiguous source's own rows, any other's copied, in order,
    /// into this thread's `cell`.
    fn rows<R>(
        self,
        (row0, cnt): (usize, usize),
        cols: usize,
        cell: &'static LocalKey<RefCell<Vec<f32>>>,
        f: impl FnOnce(&[f32]) -> R,
    ) -> R {
        match self {
            RowSource::Contiguous(a) => f(&a[row0 * cols..(row0 + cnt) * cols]),
            _ => cell.with(|cell| {
                let packed = &mut cell.borrow_mut();
                let rows = grown(packed, cnt * cols);
                for j in 0..cnt {
                    self.copy_row(row0 + j, &mut rows[j * cols..(j + 1) * cols]);
                }
                f(rows)
            }),
        }
    }

    /// `c = A[row0..row0 + cnt] · w` into the `[cnt, n]` `c` (overwritten):
    /// gathered or scaled rows are packed [`GATHER_ROWS`] at a time into
    /// this thread's [`ROWS_PACKED`], so the tile reads the same values in
    /// the same k-order as from contiguous rows.
    fn mul_rows(
        self,
        (row0, cnt): (usize, usize),
        (k, n): (usize, usize),
        w: &Weight,
        c: &mut [f32],
    ) {
        let mul = |a: &[f32], c: &mut [f32], rows: usize| match w {
            Weight::Nn(b) => gemm_nn_rows(a, b, c, rows, k, n),
            Weight::Nt(b) => b.gemm(a, c, rows),
        };
        match self {
            RowSource::Contiguous(a) => mul(&a[row0 * k..(row0 + cnt) * k], c, cnt),
            _ => {
                for (j, c) in (0..cnt)
                    .step_by(GATHER_ROWS)
                    .zip(c.chunks_mut(GATHER_ROWS * n))
                {
                    let rows = GATHER_ROWS.min(cnt - j);
                    self.rows((row0 + j, rows), k, &ROWS_PACKED, |a| mul(a, c, rows));
                }
            }
        }
    }
}

/// One expert's weight as a grouped NN or NT reads it.
enum Weight<'w> {
    /// `B_e`, `[k, n]`.
    Nn(&'w [f32]),
    /// `B_e`, `[n, k]`, packed once for the rows a task multiplies by it.
    Nt(&'w NtB<'w>),
}

/// Where a grouped NN or NT ([`gemm_grouped`], [`gemm_grouped_transpose_b`])
/// puts its product rows.
pub enum RowSink<'a> {
    /// `[sum(counts), n]` in segment order, overwritten — every row belongs
    /// to exactly one segment and its previous contents are never read.
    Rows(&'a mut [f32]),
    /// The MoE combine inside the GEMM: product row `i`, scaled by
    /// `weights[i]` (or not at all without weights), is added onto row
    /// `ids[i]` of the row-major `out` (`[S, n]`), `out[ids[i]] +=
    /// weights[i]·(A_i·B_e)` with `axpy_slice`'s expression (`+=` with
    /// `add_assign_slice`'s), so no `[sum(counts), n]` product exists. `ids`
    /// must be non-decreasing within each segment (a PFT's token order):
    /// tasks own disjoint token ranges and walk the segments in order, so
    /// every `out` row takes its adds in ascending `i` — the order, and so
    /// the bits, of `scatter_rows_scaled` (`scatter_rows_unit`) — at any
    /// worker count.
    Combine {
        out: &'a mut [f32],
        ids: &'a [usize],
        weights: Option<&'a [f32]>,
    },
    /// The combine backward inside the expert backward's `d_h` GEMM: product
    /// row `i` is `g_i = d_out[t_i]·W2ᵀ`, and with `⟨d_out[t_i], act_i·W2⟩
    /// = ⟨g_i, act_i⟩` the row first gives its combine-weight gradient
    /// `d_w[i] = ⟨g_i, act_i⟩`, summed over columns in order from `0.0`,
    /// then is written over its activations scaled, `act_i = w[i]·g_i`.
    /// `act` is `[sum(counts), n]` (the activations in, `d_act` out); `w`
    /// holds the rows' combine weights in and their gradients `d_w` out.
    DotScale {
        act: &'a mut [f32],
        w: &'a mut [f32],
    },
}

/// [`RowSink::DotScale`] over the product rows `g` (`n` wide) and the same
/// rows of `act` and `w`: eight rows' dot chains advance in lockstep (only
/// to hide the add latency; each is one sequential sum), then each row is
/// scaled over its activations and its weight replaced.
fn dot_scale(g: &[f32], act: &mut [f32], w: &mut [f32], n: usize) {
    let rows = (g.chunks(8 * n), act.chunks_mut(8 * n));
    for ((g, act), w) in rows.0.zip(rows.1).zip(w.chunks_mut(8)) {
        let mut d = [0.0f32; 8];
        for c in 0..n {
            for (r, d) in d.iter_mut().enumerate().take(w.len()) {
                *d += g[r * n + c] * act[r * n + c];
            }
        }
        let rows = act.chunks_exact_mut(n).zip(g.chunks_exact(n));
        for ((act, g), (w, d)) in rows.zip(w.iter_mut().zip(d)) {
            act.iter_mut().zip(g).for_each(|(a, &v)| *a = *w * v);
            *w = d;
        }
    }
}

impl RowSink<'_> {
    /// Put product row `i` (`row.len()` columns) by itself, as a grouped
    /// call puts it: rows put in ascending `i` leave the bits the grouped
    /// call leaves, combined rows included.
    pub fn put(&mut self, i: usize, row: &[f32]) {
        let n = row.len();
        match self {
            RowSink::Rows(c) => c[i * n..(i + 1) * n].copy_from_slice(row),
            RowSink::Combine { out, ids, weights } => {
                let out = &mut out[ids[i] * n..(ids[i] + 1) * n];
                match weights {
                    Some(w) => axpy_slice(out, w[i], row),
                    None => add_assign_slice(out, row),
                }
            }
            RowSink::DotScale { act, w } => {
                dot_scale(row, &mut act[i * n..(i + 1) * n], &mut w[i..=i], n);
            }
        }
    }
}

impl<'a> From<&'a mut [f32]> for RowSink<'a> {
    fn from(c: &'a mut [f32]) -> Self {
        RowSink::Rows(c)
    }
}

impl<'a> From<&'a mut Vec<f32>> for RowSink<'a> {
    fn from(c: &'a mut Vec<f32>) -> Self {
        RowSink::Rows(c)
    }
}

/// A [`RowSink`] shared by one batch's tasks, each writing only the rows
/// (or, for a combine, the tokens) it owns.
enum SharedSink<'a> {
    Rows(DisjointMut<'a>),
    /// `out` split into `ranges` token ranges of its `tokens` rows, one per
    /// task.
    Combine {
        out: DisjointMut<'a>,
        ids: &'a [usize],
        weights: Option<&'a [f32]>,
        tokens: usize,
        ranges: usize,
    },
    DotScale {
        act: DisjointMut<'a>,
        w: DisjointMut<'a>,
    },
}

/// One grouped NN or NT batch.
struct GroupedCtx<'a> {
    /// `A·B_eᵀ` (`B_e` is `[n, k]`) rather than `A·B_e` (`[k, n]`).
    nt: bool,
    a: RowSource<'a>,
    sink: SharedSink<'a>,
    /// Row panels for `Rows` and `DotScale`; one whole segment per
    /// non-empty expert for `Combine`.
    panels: &'a [Panel],
    /// The inner dimension and the product's column count.
    k: usize,
    n: usize,
}

impl GroupedCtx<'_> {
    /// Run `f` with panel `p`'s weight, made ready for `rows` of its rows.
    fn with_weight<R>(&self, p: &Panel, rows: usize, f: impl FnOnce(&Weight) -> R) -> R {
        // SAFETY: weight pointer from a live slice of length k*n.
        let b = unsafe { std::slice::from_raw_parts(p.b, self.k * self.n) };
        if self.nt {
            with_nt_b(b, self.k, self.n, rows, |b| f(&Weight::Nt(b)))
        } else {
            f(&Weight::Nn(b))
        }
    }

    /// Multiply rows `row0..row0 + cnt` by `w` [`GATHER_ROWS`] at a time
    /// into this thread's [`COMBINE_PACKED`], and hand each block, with the
    /// index of its first row, to `f`.
    fn blocks(&self, (row0, cnt): (usize, usize), w: &Weight, mut f: impl FnMut(usize, &[f32])) {
        COMBINE_PACKED.with(|cell| {
            let y = &mut cell.borrow_mut();
            for r0 in (row0..row0 + cnt).step_by(GATHER_ROWS) {
                let rows = GATHER_ROWS.min(row0 + cnt - r0);
                let y = grown(y, rows * self.n);
                self.a.mul_rows((r0, rows), (self.k, self.n), w, y);
                f(r0, y);
            }
        });
    }
}

/// Task `i` of a grouped NN or NT: panel `i` into its rows, or dotted and
/// scaled over its activations; for a combine, token range `i` — every
/// segment's run of rows whose token is in the range (one contiguous run,
/// since ids ascend within a segment), its weight made ready once for the
/// run, added onto its tokens' `out` rows.
fn grouped_task(g: &GroupedCtx<'_>, i: usize) {
    let (k, n) = (g.k, g.n);
    match &g.sink {
        SharedSink::Rows(c) => {
            let p = &g.panels[i];
            // SAFETY: panels carve disjoint output row ranges.
            let c = unsafe { c.slice(p.row0 * n, p.rows * n) };
            g.with_weight(p, p.rows, |w| g.a.mul_rows((p.row0, p.rows), (k, n), w, c));
        }
        SharedSink::DotScale { act, w } => {
            let p = &g.panels[i];
            // SAFETY: panels carve disjoint row ranges of `act` and `w`.
            let (act, w) = unsafe { (act.slice(p.row0 * n, p.rows * n), w.slice(p.row0, p.rows)) };
            g.with_weight(p, p.rows, |b| {
                g.blocks((p.row0, p.rows), b, |r0, y| {
                    let (rows, at) = (y.len() / n, r0 - p.row0);
                    let act = &mut act[at * n..(at + rows) * n];
                    dot_scale(y, act, &mut w[at..at + rows], n);
                });
            });
        }
        SharedSink::Combine {
            out,
            ids,
            weights,
            tokens,
            ranges,
        } => {
            let (t0, t1) = (i * tokens / ranges, (i + 1) * tokens / ranges);
            for p in g.panels {
                let seg = &ids[p.row0..p.row0 + p.rows];
                let lo = seg.partition_point(|&t| t < t0);
                let hi = lo + seg[lo..].partition_point(|&t| t < t1);
                if hi == lo {
                    continue;
                }
                g.with_weight(p, hi - lo, |w| {
                    g.blocks((p.row0 + lo, hi - lo), w, |r0, y| {
                        for (i, y) in (r0..).zip(y.chunks_exact(n)) {
                            let t = ids[i];
                            // Out of range only if the ids do not ascend.
                            assert!(
                                (t0..t1).contains(&t),
                                "grouped combine: ids must ascend within a segment"
                            );
                            // SAFETY: this task owns tokens [t0, t1); one row
                            // at a time is borrowed.
                            let row = unsafe { out.slice(t * n, n) };
                            match weights {
                                Some(w) => axpy_slice(row, w[i], y),
                                None => add_assign_slice(row, y),
                            }
                        }
                    });
                });
            }
        }
    }
}

/// Rows per panel when a batch's panels split `rows` output rows in all:
/// ~`per_lane` panels per lane (more balance uneven segments), but never
/// below [`MIN_PANEL_ROWS`], and in whole row groups so that only a
/// segment's (a block's) last panel ends in a ragged tile; no split on the
/// serial schedule.
fn panel_rows(p: &Pool, serial: bool, rows: usize, per_lane: usize) -> usize {
    if serial {
        return usize::MAX;
    }
    MIN_PANEL_ROWS
        .max(rows.div_ceil(p.size() * per_lane))
        .next_multiple_of(MAX_TILE_ROWS)
}

/// Fill `panels` with the non-empty segments of `counts`, split into panels
/// of at most `panel_rows` rows, expert `e`'s weight at `weight_ptr(e)`.
fn fill_panels(
    panels: &mut Vec<Panel>,
    counts: &[usize],
    panel_rows: usize,
    mut weight_ptr: impl FnMut(usize) -> *const f32,
) {
    panels.clear();
    let mut row = 0usize;
    for (e, &cnt) in counts.iter().enumerate() {
        if cnt == 0 {
            continue;
        }
        let b = weight_ptr(e);
        let mut off = 0usize;
        while off < cnt {
            let rows = panel_rows.min(cnt - off);
            panels.push(Panel {
                row0: row + off,
                rows,
                b,
                block: std::ptr::null_mut(),
                block_rows: (0, 0),
            });
            off += rows;
        }
        row += cnt;
    }
}

/// The one grouped NN/NT engine behind [`gemm_grouped`] (`nt = false`) and
/// [`gemm_grouped_transpose_b`] (`nt = true`); `name` heads its panics.
#[allow(clippy::too_many_arguments)]
fn grouped<'b>(
    (name, nt): (&str, bool),
    a: RowSource<'_>,
    counts: &[usize],
    k: usize,
    weight: impl Fn(usize) -> &'b [f32],
    n: usize,
    c: RowSink<'_>,
) {
    let total: usize = counts.iter().sum();
    assert!(a.fits(total, k), "{name}: A length mismatch");
    let p = pool();
    let serial = !p.is_parallel() || total * n * k < PAR_CUTOFF;
    let rows_of = |len: usize| len.checked_div(n).unwrap_or(0);
    let sink = match c {
        RowSink::Rows(c) => {
            assert_eq!(c.len(), total * n, "{name}: C length mismatch");
            SharedSink::Rows(DisjointMut::new(c))
        }
        RowSink::Combine { out, ids, weights } => {
            assert!(
                ids.len() == total && weights.is_none_or(|w| w.len() == total),
                "{name}: combine ids and weights must give every row"
            );
            let tokens = rows_of(out.len());
            assert!(
                out.len() == tokens * n && ids.iter().all(|&t| t < tokens),
                "{name}: combine out must be [S, n] and hold every id"
            );
            SharedSink::Combine {
                out: DisjointMut::new(out),
                ids,
                weights,
                tokens,
                ranges: if serial { 1 } else { p.size() },
            }
        }
        RowSink::DotScale { act, w } => {
            assert!(
                act.len() == total * n && w.len() == total,
                "{name}: dot-scale act and w must give every row"
            );
            let (act, w) = (DisjointMut::new(act), DisjointMut::new(w));
            SharedSink::DotScale { act, w }
        }
    };
    if total == 0 || n == 0 {
        return;
    }
    let widest = counts.iter().max().copied().unwrap_or(0).min(GATHER_ROWS);
    let combines = !matches!(sink, SharedSink::Rows(_));
    let packs = [a.packs(), nt, combines].map(usize::from);
    let lens = [
        packs[0] * widest * k,
        packs[1] * n * k,
        packs[2] * widest * n,
    ];
    if reserve_packs(lens) && !serial {
        p.catch_up_lanes(lens);
    }
    // Whole segments for a combine (its tasks are token ranges). Every NT
    // panel packs its expert's `B_eᵀ` (`n·k` moves) before multiplying, so
    // NT panels are one per lane: at a dense `[256, 192] x [64, 192]ᵀ`, ~4 per
    // lane made the call ~20 % slower (2 lanes, 2-core Xeon @ 2.10 GHz).
    let panel_rows = match sink {
        SharedSink::Combine { .. } => usize::MAX,
        _ => panel_rows(p, serial, total, if nt { 1 } else { 4 }),
    };
    PANELS.with(|cell| {
        let mut panels = cell.borrow_mut();
        fill_panels(&mut panels, counts, panel_rows, |e| {
            let b = weight(e);
            assert_eq!(b.len(), k * n, "{name}: weight {e} shape");
            b.as_ptr()
        });
        let tasks = match sink {
            SharedSink::Combine { ranges, .. } => ranges,
            _ => panels.len(),
        };
        let ctx = GroupedCtx {
            nt,
            a,
            sink,
            panels: &panels,
            k,
            n,
        };
        if serial {
            (0..tasks).for_each(|i| grouped_task(&ctx, i));
        } else {
            p.for_each(&ctx, tasks, grouped_task);
        }
    });
}

/// Grouped expert GEMM: for each expert `e`, `C[seg_e] = A[seg_e] @ B_e`.
///
/// `a` gives `[sum(counts), k]` rows grouped by local expert in segment order
/// (the padding-free dispatch layout), contiguous or gathered by token id
/// ([`RowSource`]; a plain slice converts); `weight(e)` is expert `e`'s
/// `k x n` matrix; `c` is where the product rows go ([`RowSink`]; a plain
/// `[sum(counts), n]` slice converts and is overwritten — its previous
/// contents are never read, so a for-overwrite lease needs no zero-fill).
/// Equivalent to calling [`crate::matmul_slices`] once per segment, and
/// bitwise identical to that serial schedule at any worker count: each
/// output row is one task's ascending-k accumulation regardless of how
/// segments are panelled or its `A` rows packed; a combine then adds each
/// row onto its token in the order `scatter_rows_scaled` does, and a
/// dot-scale dots each row against its activations in ascending column
/// order before scaling it over them.
///
/// This is the Megatron-style grouped GEMM of the MoE hot path: E segment
/// GEMMs that are individually below the parallel cutoff become one task
/// batch that fills the machine — row panels for [`RowSink::Rows`] and
/// [`RowSink::DotScale`], token ranges (one per lane) for
/// [`RowSink::Combine`].
pub fn gemm_grouped<'a, 'b, 'c>(
    a: impl Into<RowSource<'a>>,
    counts: &[usize],
    k: usize,
    weight: impl Fn(usize) -> &'b [f32],
    n: usize,
    c: impl Into<RowSink<'c>>,
) {
    grouped(
        ("gemm_grouped", false),
        a.into(),
        counts,
        k,
        weight,
        n,
        c.into(),
    );
}

/// Grouped `C[seg_e] = A[seg_e] @ B_e^T` (like
/// [`crate::matmul_transpose_b_slices`]): `weight(e)` is `n x k` row-major,
/// so each output element is a dot product of two contiguous rows. The
/// backward grouped kernel for `d_h = dY @ W2^T` and `d_x = d_h @ W1^T`.
/// `a` and `c` are read and written as [`gemm_grouped`] reads and writes
/// them; a task packs each expert's `B_eᵀ` once for all the rows it
/// multiplies by it. Bitwise identical to the per-segment serial calls at
/// any worker count.
pub fn gemm_grouped_transpose_b<'a, 'b, 'c>(
    a: impl Into<RowSource<'a>>,
    counts: &[usize],
    k: usize,
    weight: impl Fn(usize) -> &'b [f32],
    n: usize,
    c: impl Into<RowSink<'c>>,
) {
    let name = "gemm_grouped_transpose_b";
    grouped((name, true), a.into(), counts, k, weight, n, c.into());
}

/// One grouped TN batch: the row panels of every non-empty expert's block.
struct TaCtx<'a> {
    a: RowSource<'a>,
    d: RowSource<'a>,
    panels: &'a [Panel],
    ac: usize,
    n: usize,
}

/// Rows `c0..c0 + c_rows` of `C_e += A[seg_e]^T @ D[seg_e]` for panel `i`
/// (the AddFresh store), i.e. columns `c0..` of `A`: a gathered `A` segment
/// is first packed, in order, into this thread's [`ROWS_PACKED`] and a
/// gathered `D` segment into its [`COMBINE_PACKED`] — by every panel task
/// of the expert — so the tile reads the same values in the same k-order as
/// from contiguous rows.
fn ta_task(g: &TaCtx<'_>, i: usize) {
    let (p, (ac, n)) = (g.panels[i], (g.ac, g.n));
    let (c0, c_rows) = p.block_rows;
    // SAFETY: `block` was taken from a distinct `&mut [f32]` of length
    // `ac * n` per expert (checked by the entry point), alive for the
    // batch; `c0 + c_rows <= ac`, and no other task owns these rows.
    let c = unsafe { std::slice::from_raw_parts_mut(p.block.add(c0 * n), c_rows * n) };
    let seg = (p.row0, p.rows);
    g.a.rows(seg, ac, &ROWS_PACKED, |a| {
        g.d.rows(seg, n, &COMBINE_PACKED, |d| {
            gemm_ta_rows(a, d, c, c0, c_rows, p.rows, ac, n)
        })
    });
}

/// Grouped `C_e = C_e + A[seg_e]^T @ D[seg_e]` — the weight-gradient kernel
/// (`dW = X^T @ dY` per expert) computed *without materialising any
/// transpose* — over contiguous `a` and `d` rows and one contiguous `c` of
/// `[counts.len() * ac, n]`: expert `e`'s gradient block occupies rows
/// `[e*ac, (e+1)*ac)`. A wrapper over [`gemm_grouped_transpose_a_blocks`],
/// which see.
pub fn gemm_grouped_transpose_a(
    a: &[f32],
    counts: &[usize],
    ac: usize,
    d: &[f32],
    n: usize,
    c: &mut [f32],
) {
    assert_eq!(
        c.len(),
        counts.len() * ac * n,
        "gemm_grouped_transpose_a: C length mismatch"
    );
    // A zero-sized block has nothing to receive (and no chunk size).
    if ac * n > 0 {
        let blocks = c.chunks_exact_mut(ac * n);
        gemm_grouped_transpose_a_blocks(RowSource::Contiguous(a), counts, ac, d, n, blocks);
    }
}

/// Grouped `C_e = C_e + A[seg_e]^T @ D[seg_e]` where every expert's gradient
/// block is its own `&mut [f32]`: `blocks` yields one `[ac, n]` block per
/// entry of `counts`, in expert order — e.g. the experts' own gradient
/// tensors, which is what lets the training backward add straight into them
/// with no staging buffer. `a` gives `A`'s `sum(counts)` rows of `ac`
/// columns and `d` gives `D`'s rows of `n` columns, both in segment order,
/// each contiguous or gathered from a source by row id ([`RowSource`]) —
/// the tokens a dispatch gathered, or the scaled output-gradient rows a
/// combine backward would write, which the local backward reads again
/// instead of keeping a `[sum(counts), ac]` or `[sum(counts), n]` copy.
/// Each task packs a gathered segment into a thread-local grow-once buffer
/// first. Distinct `&mut` borrows cannot overlap, so the blocks'
/// disjointness is the caller's borrow check, not a promise.
///
/// The product is summed from `0.0` over segment rows in ascending order —
/// exactly the k-order of `matmul(A_seg.transpose(), D_seg)` — and then added
/// to the block (the kernel's *AddFresh* store): the bits of staging every
/// expert's product into a zeroed block and `add_assign_slice`-ing it on, at
/// any worker count, for either source. An expert with no rows leaves its
/// block untouched. One task per row panel of a block — by the NN's panel
/// rule over all the busy experts' block rows, so at MoE shapes a block is
/// one panel and only a dense TN (one large segment) splits.
pub fn gemm_grouped_transpose_a_blocks<'c, 'd>(
    a: RowSource<'_>,
    counts: &[usize],
    ac: usize,
    d: impl Into<RowSource<'d>>,
    n: usize,
    blocks: impl Iterator<Item = &'c mut [f32]>,
) {
    let d = d.into();
    let total: usize = counts.iter().sum();
    assert!(
        a.fits(total, ac),
        "gemm_grouped_transpose_a: A length mismatch"
    );
    assert!(
        d.fits(total, n),
        "gemm_grouped_transpose_a: D length mismatch"
    );
    let widest = counts.iter().max().copied().unwrap_or(0);
    let packs = [a.packs(), d.packs()].map(usize::from);
    let lens = [packs[0] * widest * ac, 0, packs[1] * widest * n];
    let p = pool();
    let serial = !p.is_parallel() || total * n * ac < PAR_CUTOFF;
    if reserve_packs(lens) && !serial {
        p.catch_up_lanes(lens);
    }
    let busy = counts.iter().filter(|&&cnt| cnt > 0).count();
    let panel_rows = panel_rows(p, serial, busy * ac, 4);
    PANELS.with(|cell| {
        let mut panels = cell.borrow_mut();
        panels.clear();
        let (mut row, mut experts) = (0usize, 0usize);
        for (&cnt, block) in counts.iter().zip(blocks) {
            assert_eq!(
                block.len(),
                ac * n,
                "gemm_grouped_transpose_a: gradient block {experts} shape"
            );
            experts += 1;
            if cnt > 0 {
                for c0 in (0..ac).step_by(panel_rows) {
                    panels.push(Panel {
                        row0: row,
                        rows: cnt,
                        b: std::ptr::null(),
                        block: block.as_mut_ptr(),
                        block_rows: (c0, panel_rows.min(ac - c0)),
                    });
                }
            }
            row += cnt;
        }
        assert_eq!(
            experts,
            counts.len(),
            "gemm_grouped_transpose_a: one gradient block per expert"
        );
        let ctx = TaCtx {
            a,
            d,
            panels: &panels,
            ac,
            n,
        };
        if serial {
            (0..panels.len()).for_each(|i| ta_task(&ctx, i));
        } else {
            p.for_each(&ctx, panels.len(), ta_task);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{matmul, matmul_transpose_b, Tensor};

    #[test]
    fn for_each_covers_every_index_once() {
        let mut out = vec![0.0f32; 1000];
        struct Ctx<'a> {
            c: DisjointMut<'a>,
        }
        fn task(ctx: &Ctx<'_>, i: usize) {
            // SAFETY: one element per index; disjoint.
            let s = unsafe { ctx.c.slice(i, 1) };
            s[0] += (i * i) as f32;
        }
        let ctx = Ctx {
            c: DisjointMut::new(&mut out),
        };
        pool().for_each(&ctx, 1000, task);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as f32, "index {i}");
        }
    }

    #[test]
    fn for_each_runs_many_batches_back_to_back() {
        // Stresses batch retirement: stale workers must never execute a
        // retired batch (the entered/exited handshake).
        let mut out = vec![0.0f32; 64];
        struct Ctx<'a> {
            c: DisjointMut<'a>,
        }
        fn task(ctx: &Ctx<'_>, i: usize) {
            // SAFETY: disjoint single elements.
            let s = unsafe { ctx.c.slice(i, 1) };
            s[0] += 1.0;
        }
        for _ in 0..500 {
            let ctx = Ctx {
                c: DisjointMut::new(&mut out),
            };
            pool().for_each(&ctx, 64, task);
        }
        assert!(out.iter().all(|&v| v == 500.0), "{out:?}");
    }

    fn grouped_fixture(
        e: usize,
        rows: usize,
        k: usize,
        n: usize,
    ) -> (Tensor, Vec<usize>, Vec<Tensor>) {
        let counts: Vec<usize> = (0..e).map(|i| rows + (i % 3)).collect();
        let total: usize = counts.iter().sum();
        let a = Tensor::rand_uniform(total, k, 1.0, 7070);
        let ws: Vec<Tensor> = (0..e)
            .map(|i| Tensor::rand_uniform(k, n, 1.0, 100 + i as u64))
            .collect();
        (a, counts, ws)
    }

    #[test]
    fn gemm_grouped_matches_per_segment_matmul_bitwise() {
        // Both below and above the parallel cutoff (328 x 100 x 72 > 128^3).
        for (e, rows, k, n) in [(4usize, 3usize, 5usize, 6usize), (8, 40, 100, 72)] {
            let (a, counts, ws) = grouped_fixture(e, rows, k, n);
            let total: usize = counts.iter().sum();
            let mut c = vec![f32::NAN; total * n]; // overwritten, never read
            gemm_grouped(a.as_slice(), &counts, k, |i| ws[i].as_slice(), n, &mut c);
            let mut row = 0usize;
            for (i, &cnt) in counts.iter().enumerate() {
                let seg = a.slice_rows(row, row + cnt);
                let expect = matmul(&seg, &ws[i]);
                let got = Tensor::from_vec(cnt, n, c[row * n..(row + cnt) * n].to_vec());
                assert!(
                    got.max_abs_diff(&expect) == 0.0,
                    "expert {i} diverged (e={e} rows={rows})"
                );
                row += cnt;
            }
        }
    }

    #[test]
    fn gemm_grouped_transpose_b_matches_per_segment_bitwise() {
        for (e, rows, k, n) in [(4usize, 3usize, 6usize, 5usize), (8, 40, 100, 72)] {
            let counts: Vec<usize> = (0..e).map(|i| rows + (i % 2)).collect();
            let total: usize = counts.iter().sum();
            let a = Tensor::rand_uniform(total, k, 1.0, 7171);
            let ws: Vec<Tensor> = (0..e)
                .map(|i| Tensor::rand_uniform(n, k, 1.0, 200 + i as u64))
                .collect();
            let mut c = vec![f32::NAN; total * n]; // overwritten, never read
            gemm_grouped_transpose_b(a.as_slice(), &counts, k, |i| ws[i].as_slice(), n, &mut c);
            let mut row = 0usize;
            for (i, &cnt) in counts.iter().enumerate() {
                let seg = a.slice_rows(row, row + cnt);
                let expect = matmul_transpose_b(&seg, &ws[i]);
                let got = Tensor::from_vec(cnt, n, c[row * n..(row + cnt) * n].to_vec());
                assert!(got.max_abs_diff(&expect) == 0.0, "expert {i} diverged");
                row += cnt;
            }
        }
    }

    #[test]
    fn gemm_grouped_transpose_a_matches_transpose_then_matmul_bitwise() {
        for (e, rows, ac, n) in [(4usize, 3usize, 5usize, 6usize), (6, 50, 100, 72)] {
            let counts: Vec<usize> = (0..e).map(|i| rows + (i % 3)).collect();
            let total: usize = counts.iter().sum();
            let a = Tensor::rand_uniform(total, ac, 1.0, 7272);
            let d = Tensor::rand_uniform(total, n, 1.0, 7373);
            let mut c = vec![0.0f32; e * ac * n];
            gemm_grouped_transpose_a(a.as_slice(), &counts, ac, d.as_slice(), n, &mut c);
            let mut row = 0usize;
            for (i, &cnt) in counts.iter().enumerate() {
                let seg_a = a.slice_rows(row, row + cnt);
                let seg_d = d.slice_rows(row, row + cnt);
                let expect = matmul(&seg_a.transpose(), &seg_d);
                let got = Tensor::from_vec(ac, n, c[i * ac * n..(i + 1) * ac * n].to_vec());
                assert!(got.max_abs_diff(&expect) == 0.0, "expert {i} diverged");
                row += cnt;
            }
        }
    }

    #[test]
    fn grouped_transpose_a_blocks_match_stage_then_add_bitwise() {
        // The schedule the per-expert-block entry point replaced: every
        // expert's product staged into a zeroed block, then added onto its
        // gradient expert by expert, idle experts skipped. Count vectors with
        // idle experts and with all but one chunk of experts zeroed (what a
        // chunked caller sees), below and above the parallel cutoff; one and
        // two experts above it, whose blocks split into row panels on the
        // pool (a dense TN is the one-expert case); one segment of 4,100 rows
        // and two that sum to it, each reduction longer than L2 holds at any
        // width (the router's `g_gate` and the dense weight gradients).
        // `A` and `D` are contiguous and gathered by token id, `D` scaled per
        // row, so every panel task of an expert packs the segment itself.
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let tokens = 64usize;
        for (counts, ac, n, pooled) in [
            (vec![3usize, 0, 4, 0, 0, 2], 5usize, 6usize, false),
            (vec![0, 0, 61, 58, 0, 0, 0, 0], 100, 72, false),
            (vec![75, 0, 78, 76, 0, 74], 100, 72, true),
            (vec![300], 100, 72, true),
            (vec![170, 140], 100, 72, true),
            (vec![4100], 32, 16, true),
            (vec![2100, 2000], 32, 16, true),
        ] {
            let total: usize = counts.iter().sum();
            assert_eq!(total * ac * n >= PAR_CUTOFF, pooled);
            if counts.len() <= 2 {
                // The panel rule splits these blocks (on any pool of 2+ lanes).
                assert!(panel_rows(pool(), false, counts.len() * ac, 4) < ac);
            }
            let ids: Vec<usize> = (0..total).map(|i| (7 * i + 3) % tokens).collect();
            let scale: Vec<f32> = (0..total).map(|i| 0.5 - (i % 7) as f32 * 0.0625).collect();
            let a_src = Tensor::rand_uniform(tokens, ac, 1.0, 7474);
            let d_src = Tensor::rand_uniform(tokens, n, 1.0, 7575);
            let mut a = Tensor::zeros(0, 0);
            crate::gather_rows_into(&a_src, &ids, &mut a);
            let mut d = Tensor::zeros(total, n);
            for (i, &t) in ids.iter().enumerate() {
                for (v, &g) in d.row_mut(i).iter_mut().zip(d_src.row(t)) {
                    *v = scale[i] * g;
                }
            }
            let grads: Vec<Tensor> = (0..counts.len())
                .map(|e| Tensor::rand_uniform(ac, n, 1.0, 300 + e as u64))
                .collect();
            let mut want = grads.clone();
            let mut row = 0usize;
            for (e, &cnt) in counts.iter().enumerate() {
                if cnt > 0 {
                    let staged = matmul(
                        &a.slice_rows(row, row + cnt).transpose(),
                        &d.slice_rows(row, row + cnt),
                    );
                    crate::add_assign_slice(want[e].as_mut_slice(), staged.as_slice());
                }
                row += cnt;
            }
            let mut got = grads.clone();
            gemm_grouped_transpose_a_blocks(
                RowSource::Contiguous(a.as_slice()),
                &counts,
                ac,
                d.as_slice(),
                n,
                got.iter_mut().map(Tensor::as_mut_slice),
            );
            let mut gathered = grads.clone();
            gemm_grouped_transpose_a_blocks(
                RowSource::Gathered {
                    src: a_src.as_slice(),
                    ids: &ids,
                    scale: None,
                },
                &counts,
                ac,
                RowSource::Gathered {
                    src: d_src.as_slice(),
                    ids: &ids,
                    scale: Some(&scale),
                },
                n,
                gathered.iter_mut().map(Tensor::as_mut_slice),
            );
            // The contiguous-C wrapper is the same call over `chunks_exact_mut`.
            let mut flat: Vec<f32> = grads.iter().flat_map(|g| g.as_slice().to_vec()).collect();
            gemm_grouped_transpose_a(a.as_slice(), &counts, ac, d.as_slice(), n, &mut flat);
            for e in 0..counts.len() {
                let want = bits(want[e].as_slice());
                assert_eq!(bits(got[e].as_slice()), want, "expert {e} of {counts:?}");
                let gathered = gathered[e].as_slice();
                assert_eq!(bits(gathered), want, "expert {e} of {counts:?} (gathered)");
                let flat = &flat[e * ac * n..(e + 1) * ac * n];
                assert_eq!(bits(flat), want, "expert {e} of {counts:?} (contiguous)");
            }
        }
    }

    #[test]
    fn gathered_transpose_a_matches_gather_then_contiguous_bitwise() {
        // The schedule the gathered source replaces: gather the rows into a
        // `[total, ac]` buffer, then the contiguous TN. Empty segments, token
        // ids shared by several segments, random (non-zero) gradient blocks
        // for the AddFresh store, below and above the parallel cutoff.
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (counts, tokens, ac, n) in [
            (vec![3usize, 0, 4, 2, 0], 4usize, 5usize, 6usize),
            (vec![0, 90, 0, 97, 88, 95], 40, 96, 72),
        ] {
            let total: usize = counts.iter().sum();
            assert_eq!(total * ac * n >= PAR_CUTOFF, tokens == 40);
            let src = Tensor::rand_uniform(tokens, ac, 1.0, 7676);
            // Every token lands in several segments (as a top-k route does).
            let ids: Vec<usize> = (0..total).map(|i| (7 * i + 3) % tokens).collect();
            let d = Tensor::rand_uniform(total, n, 1.0, 7777);
            let grads: Vec<Tensor> = (0..counts.len())
                .map(|e| Tensor::rand_uniform(ac, n, 1.0, 400 + e as u64))
                .collect();
            let mut gathered = Tensor::zeros(0, 0);
            crate::gather_rows_into(&src, &ids, &mut gathered);
            let mut want = grads.clone();
            gemm_grouped_transpose_a_blocks(
                RowSource::Contiguous(gathered.as_slice()),
                &counts,
                ac,
                d.as_slice(),
                n,
                want.iter_mut().map(Tensor::as_mut_slice),
            );
            let mut got = grads.clone();
            let a = RowSource::Gathered {
                src: src.as_slice(),
                ids: &ids,
                scale: None,
            };
            let blocks = got.iter_mut().map(Tensor::as_mut_slice);
            gemm_grouped_transpose_a_blocks(a, &counts, ac, d.as_slice(), n, blocks);
            for e in 0..counts.len() {
                assert_eq!(
                    bits(got[e].as_slice()),
                    bits(want[e].as_slice()),
                    "expert {e} (total {total})"
                );
            }
            for (e, &cnt) in counts.iter().enumerate() {
                if cnt == 0 {
                    assert_eq!(bits(got[e].as_slice()), bits(grads[e].as_slice()));
                }
            }
        }
    }

    /// Segment counts for the gathered-NN and combine oracles, `(counts,
    /// tokens, k, n)`: idle experts, 1-row segments, `MAX_TILE_ROWS + 3`
    /// rows and, in the second case, segments of more than [`GATHER_ROWS`]
    /// rows; the first below the parallel cutoff, the second above.
    fn routed_cases() -> [(Vec<usize>, usize, usize, usize); 2] {
        let mr3 = MAX_TILE_ROWS + 3;
        [
            (vec![0, 1, mr3, 0, 3, 1], 16, 5, 6),
            (vec![0, 130, 1, mr3, 0, 97, 75, 1], 200, 96, 72),
        ]
    }

    /// Per segment, distinct token ids in ascending order (a PFT's layout),
    /// never a multiple of 7: those tokens were dropped by capacity and get
    /// no row at all.
    fn routed_ids(counts: &[usize], tokens: usize, seed: u64) -> Vec<usize> {
        let mut rng = crate::DetRng::new(seed);
        let mut ids = Vec::new();
        for &cnt in counts {
            let mut kept: Vec<usize> = (0..tokens).filter(|t| t % 7 != 0).collect();
            rng.shuffle(&mut kept);
            let seg = &mut kept[..cnt];
            seg.sort_unstable();
            ids.extend_from_slice(seg);
        }
        ids
    }

    #[test]
    fn gathered_nn_matches_gather_then_contiguous_bitwise() {
        // The schedule the gathered source replaces: gather the rows into a
        // `[total, k]` buffer, then the contiguous NN.
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (case, (counts, tokens, k, n)) in routed_cases().into_iter().enumerate() {
            let total: usize = counts.iter().sum();
            assert_eq!(total * k * n >= PAR_CUTOFF, case == 1);
            let src = Tensor::rand_uniform(tokens, k, 1.0, 7878);
            let ids = routed_ids(&counts, tokens, 79);
            let ws: Vec<Tensor> = (0..counts.len())
                .map(|e| Tensor::rand_uniform(k, n, 1.0, 500 + e as u64))
                .collect();
            let mut gathered = Tensor::zeros(0, 0);
            crate::gather_rows_into(&src, &ids, &mut gathered);
            let mut want = vec![f32::NAN; total * n];
            gemm_grouped(
                gathered.as_slice(),
                &counts,
                k,
                |e| ws[e].as_slice(),
                n,
                &mut want,
            );
            let mut got = vec![f32::NAN; total * n];
            let a = RowSource::Gathered {
                src: src.as_slice(),
                ids: &ids,
                scale: None,
            };
            gemm_grouped(a, &counts, k, |e| ws[e].as_slice(), n, &mut got);
            assert_eq!(bits(&got), bits(&want), "case {case}");
        }
    }

    #[test]
    fn combine_matches_nn_then_scatter_bitwise() {
        // The schedule the combine sink replaces: the NN into a `[total, n]`
        // buffer, then `scatter_rows_scaled` onto a residual that holds
        // `-0.0`s (kept on every row no entry reaches), from contiguous and
        // from gathered `A` rows.
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (case, (counts, tokens, k, n)) in routed_cases().into_iter().enumerate() {
            let total: usize = counts.iter().sum();
            let src = Tensor::rand_uniform(tokens, k, 1.0, 8080);
            let ids = routed_ids(&counts, tokens, 81);
            let weights: Vec<f32> = (0..total).map(|i| 0.25 + (i % 5) as f32 * 0.125).collect();
            let ws: Vec<Tensor> = (0..counts.len())
                .map(|e| Tensor::rand_uniform(k, n, 1.0, 600 + e as u64))
                .collect();
            let mut residual = Tensor::rand_uniform(tokens, n, 1.0, 8282);
            for (i, v) in residual.as_mut_slice().iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = -0.0;
                }
            }
            let mut gathered = Tensor::zeros(0, 0);
            crate::gather_rows_into(&src, &ids, &mut gathered);
            let mut y = Tensor::zeros(total, n);
            let w = |e: usize| ws[e].as_slice();
            gemm_grouped(gathered.as_slice(), &counts, k, w, n, y.as_mut_slice());
            let mut want = residual.clone();
            crate::scatter_rows_scaled(&y, &ids, &weights, &mut want);
            let gathered_a = RowSource::Gathered {
                src: src.as_slice(),
                ids: &ids,
                scale: None,
            };
            for a in [RowSource::Contiguous(gathered.as_slice()), gathered_a] {
                let mut got = residual.clone();
                let out = got.as_mut_slice();
                let sink = RowSink::Combine {
                    out,
                    ids: &ids,
                    weights: Some(&weights),
                };
                gemm_grouped(a, &counts, k, w, n, sink);
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "case {case}");
            }
        }
    }

    /// An `[tokens, n]` output gradient with `-0.0`s on every third element.
    fn grad_with_negative_zeros(tokens: usize, n: usize, seed: u64) -> Tensor {
        let mut g = Tensor::rand_uniform(tokens, n, 1.0, seed);
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = -0.0;
            }
        }
        g
    }

    #[test]
    fn dot_scale_sink_matches_nt_then_dot_then_scale_bitwise() {
        // The schedule the dot-scale sink replaces: the NT `g = d_out·W2ᵀ`
        // into a `[total, f]` buffer, then per row a serial dot against the
        // activations from `0.0` in column order, then `act_i = w_i·g_i`,
        // from contiguous and from gathered `A` rows. Activations and
        // gradients hold `-0.0`s; segments are ragged, above the cutoff in
        // the second case.
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (case, (counts, tokens, f, h)) in routed_cases().into_iter().enumerate() {
            let total: usize = counts.iter().sum();
            assert_eq!(total * f * h >= PAR_CUTOFF, case == 1);
            let ids = routed_ids(&counts, tokens, 85);
            let weights: Vec<f32> = (0..total).map(|i| 0.25 + (i % 5) as f32 * 0.125).collect();
            let d_out = grad_with_negative_zeros(tokens, h, 8686);
            let act = grad_with_negative_zeros(total, f, 8787);
            // `W2_e` is `[f, h]`; the product is `[total, f]`.
            let w2: Vec<Tensor> = (0..counts.len())
                .map(|e| Tensor::rand_uniform(f, h, 1.0, 700 + e as u64))
                .collect();
            let w = |e: usize| w2[e].as_slice();
            let mut rows = Tensor::zeros(0, 0);
            crate::gather_rows_into(&d_out, &ids, &mut rows);
            let mut g = vec![f32::NAN; total * f];
            gemm_grouped_transpose_b(rows.as_slice(), &counts, h, w, f, &mut g);
            let (mut want_act, mut want_dw) = (act.clone(), vec![0.0f32; total]);
            for i in 0..total {
                let (g, a) = (&g[i * f..(i + 1) * f], want_act.row_mut(i));
                for j in 0..f {
                    want_dw[i] += g[j] * a[j];
                }
                for j in 0..f {
                    a[j] = weights[i] * g[j];
                }
            }
            let gathered = RowSource::Gathered {
                src: d_out.as_slice(),
                ids: &ids,
                scale: None,
            };
            for a in [RowSource::Contiguous(rows.as_slice()), gathered] {
                let (mut got_act, mut got_w) = (act.clone(), weights.clone());
                let sink = RowSink::DotScale {
                    act: got_act.as_mut_slice(),
                    w: &mut got_w,
                };
                gemm_grouped_transpose_b(a, &counts, h, w, f, sink);
                assert_eq!(bits(&got_w), bits(&want_dw), "d_w, case {case}");
                let (got, want) = (got_act.as_slice(), want_act.as_slice());
                assert_eq!(bits(got), bits(want), "d_act, case {case}");
            }
        }
    }

    #[test]
    fn scaled_gathered_source_matches_materialised_d_y_bitwise() {
        // The schedule the scaled sources replace: `d_y = w_i · d_out[t_i]`
        // written into a `[total, n]` buffer, which the NT reads as its `A`
        // (`d_h = d_y·W2ᵀ`) and the TN as its `D` (`dW2 += act^T·d_y`,
        // AddFresh onto random gradient blocks). `d_out` is read by id
        // (a local backward) and from the rows that arrived over a wire, in
        // PFT order (an expert-side backward).
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (case, (counts, tokens, f, h)) in routed_cases().into_iter().enumerate() {
            let total: usize = counts.iter().sum();
            assert_eq!(total * f * h >= PAR_CUTOFF, case == 1);
            let ids = routed_ids(&counts, tokens, 87);
            let weights: Vec<f32> = (0..total).map(|i| 0.5 - (i % 7) as f32 * 0.0625).collect();
            let d_out = grad_with_negative_zeros(tokens, h, 8888);
            let mut arrived = Tensor::zeros(0, 0);
            crate::gather_rows_into(&d_out, &ids, &mut arrived);
            let mut d_y = arrived.clone();
            for (i, &w) in weights.iter().enumerate() {
                d_y.row_mut(i).iter_mut().for_each(|v| *v *= w);
            }
            let by_id = RowSource::Gathered {
                src: d_out.as_slice(),
                ids: &ids,
                scale: None,
            };
            let scaled =
                [by_id, RowSource::Contiguous(arrived.as_slice())].map(|s| s.scaled(&weights));
            // NT: `W2_e` is `[f, h]`; the product is `[total, f]`.
            let w2: Vec<Tensor> = (0..counts.len())
                .map(|e| Tensor::rand_uniform(f, h, 1.0, 900 + e as u64))
                .collect();
            let w = |e: usize| w2[e].as_slice();
            let mut want = vec![f32::NAN; total * f];
            gemm_grouped_transpose_b(d_y.as_slice(), &counts, h, w, f, &mut want);
            for (from, scaled) in scaled.into_iter().enumerate() {
                let mut got = vec![f32::NAN; total * f];
                gemm_grouped_transpose_b(scaled, &counts, h, w, f, &mut got);
                assert_eq!(bits(&got), bits(&want), "NT A, case {case}, source {from}");
            }
            // TN: `act` is `[total, f]`, the blocks `[f, h]`.
            let act = Tensor::rand_uniform(total, f, 1.0, 9090);
            let grads: Vec<Tensor> = (0..counts.len())
                .map(|e| Tensor::rand_uniform(f, h, 1.0, 950 + e as u64))
                .collect();
            let act = RowSource::Contiguous(act.as_slice());
            let mut want = grads.clone();
            let blocks = want.iter_mut().map(Tensor::as_mut_slice);
            gemm_grouped_transpose_a_blocks(act, &counts, f, d_y.as_slice(), h, blocks);
            for (from, scaled) in scaled.into_iter().enumerate() {
                let mut got = grads.clone();
                let blocks = got.iter_mut().map(Tensor::as_mut_slice);
                gemm_grouped_transpose_a_blocks(act, &counts, f, scaled, h, blocks);
                for e in 0..counts.len() {
                    let (got, want) = (got[e].as_slice(), want[e].as_slice());
                    assert_eq!(
                        bits(got),
                        bits(want),
                        "TN D, case {case}, source {from}, expert {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn nt_combine_matches_nt_then_scatter_rows_unit_bitwise() {
        // The schedule the unit-weight NT combine replaces: the NT into a
        // `[total, n]` buffer (`d_input = d_h·W1ᵀ`), then `scatter_rows_unit`
        // onto a residual (`d_x`) holding `-0.0`s, from contiguous and from
        // gathered `A` rows.
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (case, (counts, tokens, k, n)) in routed_cases().into_iter().enumerate() {
            let total: usize = counts.iter().sum();
            assert_eq!(total * k * n >= PAR_CUTOFF, case == 1);
            let src = Tensor::rand_uniform(tokens, k, 1.0, 9292);
            let ids = routed_ids(&counts, tokens, 93);
            let ws: Vec<Tensor> = (0..counts.len())
                .map(|e| Tensor::rand_uniform(n, k, 1.0, 1000 + e as u64))
                .collect();
            let residual = grad_with_negative_zeros(tokens, n, 9494);
            let mut gathered = Tensor::zeros(0, 0);
            crate::gather_rows_into(&src, &ids, &mut gathered);
            let w = |e: usize| ws[e].as_slice();
            let mut d_input = Tensor::zeros(total, n);
            gemm_grouped_transpose_b(
                gathered.as_slice(),
                &counts,
                k,
                w,
                n,
                d_input.as_mut_slice(),
            );
            let mut want = residual.clone();
            crate::scatter_rows_unit(&d_input, &ids, &mut want);
            let gathered_a = RowSource::Gathered {
                src: src.as_slice(),
                ids: &ids,
                scale: None,
            };
            for a in [RowSource::Contiguous(gathered.as_slice()), gathered_a] {
                let mut got = residual.clone();
                let sink = RowSink::Combine {
                    out: got.as_mut_slice(),
                    ids: &ids,
                    weights: None,
                };
                gemm_grouped_transpose_b(a, &counts, k, w, n, sink);
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "case {case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one gradient block per expert")]
    fn grouped_transpose_a_blocks_rejects_a_missing_block() {
        let a = Tensor::rand_uniform(4, 3, 1.0, 1);
        let d = Tensor::rand_uniform(4, 2, 1.0, 2);
        let mut only = vec![0.0f32; 6];
        gemm_grouped_transpose_a_blocks(
            RowSource::Contiguous(a.as_slice()),
            &[2, 2],
            3,
            d.as_slice(),
            2,
            std::iter::once(only.as_mut_slice()),
        );
    }

    #[test]
    fn grouped_handles_empty_segments_and_zero_totals() {
        let w = Tensor::rand_uniform(4, 3, 1.0, 1);
        let mut c: Vec<f32> = vec![];
        gemm_grouped(
            RowSource::Contiguous(&[]),
            &[0, 0],
            4,
            |_| w.as_slice(),
            3,
            &mut c,
        );
        let a = Tensor::rand_uniform(5, 4, 1.0, 2);
        let mut c = vec![0.0f32; 5 * 3];
        gemm_grouped(a.as_slice(), &[0, 5, 0], 4, |_| w.as_slice(), 3, &mut c);
        let expect = matmul(&a, &w);
        assert_eq!(c, expect.as_slice());
    }
}
