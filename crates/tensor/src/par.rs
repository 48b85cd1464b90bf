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
//! * [`run_tasks`] / [`Pool::for_each`] — the barrier APIs. `for_each` is the
//!   safe monomorphic entry used by the kernels; `run_tasks` runs an explicit
//!   descriptor slice.
//! * [`gemm_grouped`] / [`gemm_grouped_transpose_b`] /
//!   [`gemm_grouped_transpose_a`] — grouped expert GEMMs over the per-expert
//!   segment table (`tokens_per_local_expert`). Whole experts, and row-panels
//!   of large experts, become tasks, so E small GEMMs fill the machine even
//!   when each one is below the per-call cutoff.
//!
//! # Determinism
//!
//! Tasks own disjoint output slices (enforced through [`DisjointMut`]) and
//! every output row is computed by exactly one task with the same fixed
//! intra-row accumulation order as the serial kernels (the register tiles'
//! single ascending k-walk; `gemm_tb_rows`' position-determined lanes).
//! Which thread runs a task, and in which order tasks retire, affects neither
//! the values nor their rounding — results are bitwise identical to the
//! serial schedule for any worker count, including 1.
//!
//! # Allocation discipline
//!
//! Workers mark themselves permanently untracked
//! ([`crate::alloc::mark_thread_untracked`]), so the pool never charges a
//! simulated rank's `thread_tracked_allocs` fence. Task descriptors for the
//! grouped GEMMs live in a thread-local grow-once arena; after warm-up a
//! grouped call performs zero tracked allocations. Pool startup itself
//! (thread spawn) allocates on the first submitting thread — callers that
//! fence allocations warm the pool first, exactly like they warm their
//! workspace arenas.
//!
//! # Simulated time
//!
//! The pool accelerates *wall-clock* only. `SimClock` charging everywhere in
//! the workspace is analytic (`CostModel::compute_time` over flop counts), so
//! simulated-time numbers are identical at any `XMOE_THREADS`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, OnceLock};

use crate::alloc::mark_thread_untracked;
use crate::ops::{gemm_rows_offset, gemm_ta_rows, gemm_tb_rows, nt_pack_reserve, MAX_TILE_ROWS};
use crate::worker_threads;

/// Below this `m*n*k` volume a GEMM (grouped: by *total* volume) runs
/// serially on the caller: the work is too small to amortize even a
/// persistent-pool barrier. Shared by `matmul_slices`,
/// `matmul_transpose_b_slices` and the grouped entry points.
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
    /// until all are done. The caller participates as a lane.
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
        let run_inline = || {
            for i in 0..len {
                // SAFETY: forwarded caller contract; serial on this thread.
                unsafe { call(ctx, i) };
            }
        };
        if self.workers == 0 {
            run_inline();
            return;
        }
        // Another thread (a concurrent simulated rank) is mid-batch: run
        // inline rather than queue. Results are identical by construction.
        let Ok(_gate) = self.submit.try_lock() else {
            run_inline();
            return;
        };
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
        struct ForEach<'a, C> {
            ctx: &'a C,
            call: fn(&C, usize),
        }
        unsafe fn shim<C: Sync>(p: *const (), i: usize) {
            // SAFETY: `p` points at the live `ForEach<C>` below; `for_each`
            // blocks until every task retires, and `C: Sync` makes the shared
            // borrow sound across threads.
            let fe = unsafe { &*(p as *const ForEach<'_, C>) };
            (fe.call)(fe.ctx, i)
        }
        let fe = ForEach { ctx, call };
        // SAFETY: see shim; fe outlives run_raw, which blocks.
        unsafe { self.run_raw(shim::<C>, &fe as *const ForEach<'_, C> as *const (), len) }
    }
}

// ---------------------------------------------------------------------------
// Task descriptors
// ---------------------------------------------------------------------------

/// One unit of work for [`run_tasks`]: an erased function applied to a
/// context pointer with a caller-chosen index.
pub struct Task {
    /// The erased call; receives `ctx` and `index`.
    pub call: unsafe fn(*const (), usize),
    /// Opaque context passed through verbatim.
    pub ctx: *const (),
    /// Index passed through verbatim (tasks in one batch need not be 0..n).
    pub index: usize,
}

// SAFETY: a Task is inert data; the safety burden of actually *running* it
// concurrently is carried by the unsafe `run_tasks` contract.
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

/// Run every descriptor in `tasks` across the pool and block until all have
/// executed (the barrier API of the issue). Prefer [`Pool::for_each`] where a
/// homogeneous index range suffices — it needs no descriptor array at all.
///
/// # Safety
///
/// Every `task.call` must be safe to invoke concurrently with the others
/// (disjoint output ranges), and every `task.ctx` must stay alive until this
/// function returns.
pub unsafe fn run_tasks(tasks: &[Task]) {
    unsafe fn shim(p: *const (), i: usize) {
        // SAFETY: p is the live slice base of `tasks`, i < tasks.len().
        let t = unsafe { &*(p as *const Task).add(i) };
        // SAFETY: forwarded `run_tasks` contract.
        unsafe { (t.call)(t.ctx, t.index) }
    }
    // SAFETY: shim indexes within the slice; concurrency contract forwarded.
    unsafe { pool().run_raw(shim, tasks.as_ptr() as *const (), tasks.len()) }
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
// Row-chunked single GEMMs (the matmul_slices parallel path)
// ---------------------------------------------------------------------------

/// Which single GEMM [`par_gemm_rows`] chunks by rows of `C`.
#[derive(Clone, Copy)]
pub(crate) enum Slab {
    /// `C = A @ B`: `a` is `[m, k]`, `b` is `[k, n]`.
    Nn,
    /// `C = A @ B^T`: `a` is `[m, k]`, `b` is `[n, k]`.
    Nt,
    /// `C += A^T @ D`: `a` is `[k, m]`, `b` (`D`) is `[k, n]`.
    Ta,
}

struct SlabCtx<'a> {
    kind: Slab,
    a: &'a [f32],
    b: &'a [f32],
    c: DisjointMut<'a>,
    m: usize,
    k: usize,
    n: usize,
    chunk: usize,
}

fn slab_task(s: &SlabCtx<'_>, i: usize) {
    let row0 = i * s.chunk;
    let rows = s.chunk.min(s.m - row0);
    // SAFETY: chunks tile 0..m disjointly; one task per chunk.
    let c_seg = unsafe { s.c.slice(row0 * s.n, rows * s.n) };
    match s.kind {
        Slab::Nn => gemm_rows_offset(s.a, s.b, c_seg, row0, rows, s.k, s.n),
        Slab::Nt => gemm_tb_rows(s.a, s.b, c_seg, row0, rows, s.k, s.n),
        Slab::Ta => gemm_ta_rows(s.a, s.b, c_seg, row0, rows, s.k, s.m, s.n),
    }
}

/// Row-chunked parallel GEMM over the pool (`C` is `[m, n]`, `k` the
/// reduction length; operand shapes per [`Slab`]); the replacement for the
/// per-call `std::thread::scope` spawns `matmul_slices` and
/// `matmul_transpose_b_slices` used to pay. Each row is computed by one task
/// with the serial kernel, so results are bitwise identical to the serial
/// call however the rows are chunked.
pub(crate) fn par_gemm_rows(
    kind: Slab,
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    c: &mut [f32],
) {
    let p = pool();
    if let Slab::Nt = kind {
        nt_pack_reserve(n * k);
    }
    let threads = p.size().min(m.max(1));
    // Whole row groups per chunk, so only the last chunk ends in a ragged tile.
    let chunk = m.div_ceil(threads).next_multiple_of(MAX_TILE_ROWS);
    let tasks = m.div_ceil(chunk);
    let ctx = SlabCtx {
        kind,
        a,
        b,
        c: DisjointMut::new(c),
        m,
        k,
        n,
        chunk,
    };
    p.for_each(&ctx, tasks, slab_task);
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

/// One grouped-GEMM task: a row-panel of one expert's segment.
#[derive(Clone, Copy)]
struct Panel {
    /// First input row of the panel (global, segment-major).
    row0: usize,
    /// Rows in the panel.
    rows: usize,
    /// Output offset in elements of the row-major C (NN/NT; unused for TN).
    c_off: usize,
    /// Per-expert weight pointer (NN/NT); null for TN.
    b: *const f32,
    /// The expert's own gradient block (TN); null for NN/NT.
    block: *mut f32,
}

// SAFETY: `b` is read-only shared data kept alive by the grouped entry
// point's borrow for the whole batch; `block` comes from a `&mut [f32]` the
// entry point holds for the whole batch, and exactly one task (one panel per
// expert) dereferences it.
unsafe impl Send for Panel {}
unsafe impl Sync for Panel {}

std::thread_local! {
    /// Grow-once panel arena: cleared and refilled per grouped call, so at
    /// steady state scheduling a grouped GEMM allocates nothing.
    static PANELS: RefCell<Vec<Panel>> = const { RefCell::new(Vec::new()) };
}

#[derive(Clone, Copy)]
enum GroupKind {
    /// `C[seg] = A[seg] @ B_e` (k = inner dim, n = out cols, overwrite).
    Nn,
    /// `C[seg] = A[seg] @ B_e^T` (B_e is `n x k`, overwrite).
    Nt,
    /// `C_e = C_e + A[seg]^T @ D[seg]` (A cols = k = C rows, D cols = n).
    Ta,
}

struct GroupedCtx<'a> {
    a: &'a [f32],
    /// Second operand of the TN kind (`d` rows align with `a` rows).
    d: &'a [f32],
    /// The row-major output of the NN/NT kinds (empty for TN, whose outputs
    /// are the panels' own `block`s).
    c: DisjointMut<'a>,
    panels: &'a [Panel],
    /// Row stride of `a` (NN/NT: inner dim; TN: A's column count = C rows).
    k: usize,
    n: usize,
    kind: GroupKind,
}

fn grouped_task(g: &GroupedCtx<'_>, i: usize) {
    let p = g.panels[i];
    let a_seg = &g.a[p.row0 * g.k..(p.row0 + p.rows) * g.k];
    match g.kind {
        GroupKind::Nn => {
            // SAFETY: panels carve disjoint output row ranges.
            let c_seg = unsafe { g.c.slice(p.c_off, p.rows * g.n) };
            // SAFETY: weight pointer from a live slice of length k*n.
            let b = unsafe { std::slice::from_raw_parts(p.b, g.k * g.n) };
            gemm_rows_offset(a_seg, b, c_seg, 0, p.rows, g.k, g.n);
        }
        GroupKind::Nt => {
            // SAFETY: as above.
            let c_seg = unsafe { g.c.slice(p.c_off, p.rows * g.n) };
            // SAFETY: weight is `n x k` row-major.
            let b = unsafe { std::slice::from_raw_parts(p.b, g.n * g.k) };
            gemm_tb_rows(a_seg, b, c_seg, 0, p.rows, g.k, g.n);
        }
        GroupKind::Ta => {
            let d_seg = &g.d[p.row0 * g.n..(p.row0 + p.rows) * g.n];
            // SAFETY: `block` was taken from a distinct `&mut [f32]` of
            // length `k * n` per expert (checked by the entry point), alive
            // for the batch, and this is the expert's only task.
            let c_seg = unsafe { std::slice::from_raw_parts_mut(p.block, g.k * g.n) };
            gemm_ta_rows(a_seg, d_seg, c_seg, 0, g.k, p.rows, g.k, g.n);
        }
    }
}

/// Build panels for NN/NT: whole experts, split into row-panels when a
/// segment is large. Returns the total row count.
fn fill_panels_rowwise(
    panels: &mut Vec<Panel>,
    counts: &[usize],
    n: usize,
    lanes: usize,
    mut weight_ptr: impl FnMut(usize) -> *const f32,
) -> usize {
    let total: usize = counts.iter().sum();
    // Aim for ~4 panels per lane so uneven segments still balance, but never
    // split below MIN_PANEL_ROWS, and in whole row groups so that only a
    // segment's last panel ends in a ragged tile.
    let panel_rows = MIN_PANEL_ROWS
        .max(total.div_ceil(lanes.max(1) * 4))
        .next_multiple_of(MAX_TILE_ROWS);
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
                c_off: (row + off) * n,
                b,
                block: std::ptr::null_mut(),
            });
            off += rows;
        }
        row += cnt;
    }
    total
}

/// Grouped expert GEMM: for each expert `e`, `C[seg_e] = A[seg_e] @ B_e`.
///
/// `a` is `[sum(counts), k]` row-major with rows grouped by local expert in
/// segment order (the padding-free dispatch layout); `weight(e)` is expert
/// `e`'s `k x n` matrix; `c` is `[sum(counts), n]`, overwritten — every row
/// belongs to exactly one segment, and its previous contents are never read
/// (a for-overwrite lease needs no zero-fill). Equivalent to calling
/// [`crate::matmul_slices`] once per segment, and bitwise identical to that
/// serial schedule at any worker count: each output row is one task's
/// ascending-k accumulation regardless of how segments are panelled.
///
/// This is the Megatron-style grouped GEMM of the MoE hot path: E segment
/// GEMMs that are individually below the parallel cutoff become one task
/// batch that fills the machine.
pub fn gemm_grouped<'b>(
    a: &[f32],
    counts: &[usize],
    k: usize,
    weight: impl Fn(usize) -> &'b [f32],
    n: usize,
    c: &mut [f32],
) {
    let total: usize = counts.iter().sum();
    assert_eq!(a.len(), total * k, "gemm_grouped: A length mismatch");
    assert_eq!(c.len(), total * n, "gemm_grouped: C length mismatch");
    if total == 0 || n == 0 {
        return;
    }
    let p = pool();
    if !p.is_parallel() || total * n * k < PAR_CUTOFF {
        let mut row = 0usize;
        for (e, &cnt) in counts.iter().enumerate() {
            if cnt == 0 {
                continue;
            }
            let b = weight(e);
            assert_eq!(b.len(), k * n, "gemm_grouped: weight {e} shape");
            gemm_rows_offset(
                &a[row * k..(row + cnt) * k],
                b,
                &mut c[row * n..(row + cnt) * n],
                0,
                cnt,
                k,
                n,
            );
            row += cnt;
        }
        return;
    }
    PANELS.with(|cell| {
        let mut panels = cell.borrow_mut();
        fill_panels_rowwise(&mut panels, counts, n, p.size(), |e| {
            let b = weight(e);
            assert_eq!(b.len(), k * n, "gemm_grouped: weight {e} shape");
            b.as_ptr()
        });
        let ctx = GroupedCtx {
            a,
            d: &[],
            c: DisjointMut::new(c),
            panels: &panels,
            k,
            n,
            kind: GroupKind::Nn,
        };
        p.for_each(&ctx, ctx.panels.len(), grouped_task);
    });
}

/// Grouped `C[seg_e] = A[seg_e] @ B_e^T` (overwrite, like
/// [`crate::matmul_transpose_b_slices`]): `weight(e)` is `n x k` row-major,
/// so each output element is a dot product of two contiguous rows. The
/// backward grouped kernel for `d_h = dY @ W2^T` and `d_x = d_h @ W1^T`.
/// Bitwise identical to the per-segment serial calls at any worker count.
pub fn gemm_grouped_transpose_b<'b>(
    a: &[f32],
    counts: &[usize],
    k: usize,
    weight: impl Fn(usize) -> &'b [f32],
    n: usize,
    c: &mut [f32],
) {
    let total: usize = counts.iter().sum();
    assert_eq!(
        a.len(),
        total * k,
        "gemm_grouped_transpose_b: A length mismatch"
    );
    assert_eq!(
        c.len(),
        total * n,
        "gemm_grouped_transpose_b: C length mismatch"
    );
    if total == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let p = pool();
    if !p.is_parallel() || total * n * k < PAR_CUTOFF {
        let mut row = 0usize;
        for (e, &cnt) in counts.iter().enumerate() {
            if cnt == 0 {
                continue;
            }
            let b = weight(e);
            assert_eq!(b.len(), n * k, "gemm_grouped_transpose_b: weight {e}");
            gemm_tb_rows(
                &a[row * k..(row + cnt) * k],
                b,
                &mut c[row * n..(row + cnt) * n],
                0,
                cnt,
                k,
                n,
            );
            row += cnt;
        }
        return;
    }
    nt_pack_reserve(n * k);
    PANELS.with(|cell| {
        let mut panels = cell.borrow_mut();
        fill_panels_rowwise(&mut panels, counts, n, p.size(), |e| {
            let b = weight(e);
            assert_eq!(b.len(), n * k, "gemm_grouped_transpose_b: weight {e}");
            b.as_ptr()
        });
        let ctx = GroupedCtx {
            a,
            d: &[],
            c: DisjointMut::new(c),
            panels: &panels,
            k,
            n,
            kind: GroupKind::Nt,
        };
        p.for_each(&ctx, ctx.panels.len(), grouped_task);
    });
}

/// Grouped `C_e = C_e + A[seg_e]^T @ D[seg_e]` — the weight-gradient kernel
/// (`dW = X^T @ dY` per expert) computed *without materialising any
/// transpose* — over one contiguous `c` of `[counts.len() * ac, n]`: expert
/// `e`'s gradient block occupies rows `[e*ac, (e+1)*ac)`. A wrapper over
/// [`gemm_grouped_transpose_a_blocks`], which see.
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
        gemm_grouped_transpose_a_blocks(a, counts, ac, d, n, c.chunks_exact_mut(ac * n));
    }
}

/// Grouped `C_e = C_e + A[seg_e]^T @ D[seg_e]` where every expert's gradient
/// block is its own `&mut [f32]`: `blocks` yields one `[ac, n]` block per
/// entry of `counts`, in expert order — e.g. the experts' own gradient
/// tensors, which is what lets the training backward add straight into them
/// with no staging buffer. `a` is `[sum(counts), ac]`, `d` is
/// `[sum(counts), n]` with the same segment layout. Distinct `&mut` borrows
/// cannot overlap, so the blocks' disjointness is the caller's borrow check,
/// not a promise.
///
/// The product is summed from `0.0` over segment rows in ascending order —
/// exactly the k-order of `matmul(A_seg.transpose(), D_seg)` — and then added
/// to the block (the kernel's *AddFresh* store): the bits of staging every
/// expert's product into a zeroed block and `add_assign_slice`-ing it on, at
/// any worker count. An expert with no rows leaves its block untouched. One
/// task per expert.
pub fn gemm_grouped_transpose_a_blocks<'c>(
    a: &[f32],
    counts: &[usize],
    ac: usize,
    d: &[f32],
    n: usize,
    blocks: impl Iterator<Item = &'c mut [f32]>,
) {
    let total: usize = counts.iter().sum();
    assert_eq!(
        a.len(),
        total * ac,
        "gemm_grouped_transpose_a: A length mismatch"
    );
    assert_eq!(
        d.len(),
        total * n,
        "gemm_grouped_transpose_a: D length mismatch"
    );
    let p = pool();
    let serial = !p.is_parallel() || total * n * ac < PAR_CUTOFF;
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
            if cnt > 0 && serial {
                gemm_ta_rows(
                    &a[row * ac..(row + cnt) * ac],
                    &d[row * n..(row + cnt) * n],
                    block,
                    0,
                    ac,
                    cnt,
                    ac,
                    n,
                );
            } else if cnt > 0 {
                panels.push(Panel {
                    row0: row,
                    rows: cnt,
                    c_off: 0,
                    b: std::ptr::null(),
                    block: block.as_mut_ptr(),
                });
            }
            row += cnt;
        }
        assert_eq!(
            experts,
            counts.len(),
            "gemm_grouped_transpose_a: one gradient block per expert"
        );
        let ctx = GroupedCtx {
            a,
            d,
            c: DisjointMut::new(&mut []),
            panels: &panels,
            k: ac,
            n,
            kind: GroupKind::Ta,
        };
        p.for_each(&ctx, ctx.panels.len(), grouped_task);
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

    #[test]
    fn run_tasks_executes_descriptor_slice() {
        let mut a = vec![0.0f32; 8];
        let mut b = vec![0.0f32; 8];
        unsafe fn fill(p: *const (), idx: usize) {
            // SAFETY: ctx is the DisjointMut below, alive across run_tasks.
            let d = unsafe { &*(p as *const DisjointMut<'_>) };
            // SAFETY: distinct indices → disjoint elements.
            let s = unsafe { d.slice(idx, 1) };
            s[0] = idx as f32 + 1.0;
        }
        let da = DisjointMut::new(&mut a);
        let db = DisjointMut::new(&mut b);
        let mut tasks = Vec::new();
        for i in 0..8 {
            tasks.push(Task {
                call: fill,
                ctx: &da as *const DisjointMut<'_> as *const (),
                index: i,
            });
            tasks.push(Task {
                call: fill,
                ctx: &db as *const DisjointMut<'_> as *const (),
                index: i,
            });
        }
        // SAFETY: disjoint writes, contexts outlive the call.
        unsafe { run_tasks(&tasks) };
        for i in 0..8 {
            assert_eq!(a[i], i as f32 + 1.0);
            assert_eq!(b[i], i as f32 + 1.0);
        }
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
        // chunked caller sees), below and above the parallel cutoff.
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (counts, ac, n) in [
            (vec![3usize, 0, 4, 0, 0, 2], 5usize, 6usize),
            (vec![0, 0, 61, 58, 0, 0, 0, 0], 100, 72),
            (vec![50, 0, 53, 51, 0, 49], 100, 72),
        ] {
            let total: usize = counts.iter().sum();
            let a = Tensor::rand_uniform(total, ac, 1.0, 7474);
            let d = Tensor::rand_uniform(total, n, 1.0, 7575);
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
                a.as_slice(),
                &counts,
                ac,
                d.as_slice(),
                n,
                got.iter_mut().map(Tensor::as_mut_slice),
            );
            // The contiguous-C wrapper is the same call over `chunks_exact_mut`.
            let mut flat: Vec<f32> = grads.iter().flat_map(|g| g.as_slice().to_vec()).collect();
            gemm_grouped_transpose_a(a.as_slice(), &counts, ac, d.as_slice(), n, &mut flat);
            for e in 0..counts.len() {
                assert_eq!(
                    bits(got[e].as_slice()),
                    bits(want[e].as_slice()),
                    "expert {e}"
                );
                assert_eq!(
                    bits(&flat[e * ac * n..(e + 1) * ac * n]),
                    bits(want[e].as_slice()),
                    "expert {e} (contiguous)"
                );
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
            a.as_slice(),
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
        gemm_grouped(&[], &[0, 0], 4, |_| w.as_slice(), 3, &mut c);
        let a = Tensor::rand_uniform(5, 4, 1.0, 2);
        let mut c = vec![0.0f32; 5 * 3];
        gemm_grouped(a.as_slice(), &[0, 5, 0], 4, |_| w.as_slice(), 3, &mut c);
        let expect = matmul(&a, &w);
        assert_eq!(c, expect.as_slice());
    }
}
