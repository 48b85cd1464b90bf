//! The simulated communicator: MPI/RCCL-style collectives over per-(src,dst)
//! mailboxes (`mailbox.rs`), with cost-model time accounting piggybacked on
//! every message.
//!
//! **SPMD discipline**: like MPI, every rank of a communicator must call the
//! same sequence of collectives on it. Mailboxes are FIFO per (src, dst)
//! pair, so matching is by program order and no tags are needed. A rank that
//! leaves that order is caught where its message is opened:
//! [`CommError::Diverged`] names the collective and the peer.
//!
//! **Failure awareness**: collectives return `Result<_, CommError>`. A rank
//! that a [`FaultPlan`] declares dead is detected *before* any payload moves
//! (every survivor errs at the same collective, keeping SPMD order intact —
//! a simulated death is a live thread that stops sending, so
//! rendezvous-by-recv would wait forever, not error). A rank thread that
//! *panics* is a different failure: its [`RankCtx`](crate::RankCtx) marks the
//! world aborted as it unwinds, and every receive that would have waited for
//! it — on the world communicator or anything split or grown off it — returns
//! [`CommError::Aborted`] instead of sleeping.
//! Transient link flaps retry with exponential backoff, charged to the clock
//! as retry spans; link degradation stretches the priced collective time.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xmoe_tensor::untracked;
use xmoe_topology::{CostModel, FaultPlan, LinkClass};

use crate::mailbox::{Mailbox, Packet, World};
use crate::SimClock;

/// Why a collective could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A member of the group is dead per the fault plan. Every surviving
    /// rank of the group observes this error at the same collective; the
    /// caller is expected to re-form a communicator over the survivors via
    /// [`Communicator::split`] and recover from a checkpoint.
    DeadPeer { global_rank: usize, step: u64 },
    /// The rank thread of `global_rank` panicked. Every receive that would
    /// have waited — on any communicator derived from that rank's world —
    /// returns this instead; [`SimCluster::run`](crate::SimCluster::run)
    /// re-raises the original panic once all ranks have returned.
    Aborted { global_rank: usize },
    /// The message `op` took from global rank `rank` is not the type `op`
    /// puts on the wire: the two ranks have left SPMD program order (a
    /// collective skipped or reordered on one of them, or called with a
    /// different element type).
    Diverged { op: &'static str, rank: usize },
    /// A mailbox mutex was poisoned by a panicking peer.
    LockPoisoned { op: &'static str },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::DeadPeer { global_rank, step } => {
                write!(f, "rank {global_rank} is dead at step {step}")
            }
            CommError::Aborted { global_rank } => {
                write!(f, "rank {global_rank} panicked; the world is aborted")
            }
            CommError::Diverged { op, rank } => write!(
                f,
                "{op}: message from rank {rank} has another collective's type \
                 (ranks diverged from SPMD order)"
            ),
            CommError::LockPoisoned { op } => write!(f, "mailbox mutex poisoned during {op}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Bytes this communicator moved on behalf of one rank, split by link
/// class. Counted at send time from the actual payload sizes — the ground
/// truth behind every "X reduces inter-node traffic" claim in the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    pub intra_node: u64,
    pub inter_node: u64,
    pub cross_rack: u64,
}

impl TrafficStats {
    pub fn total(&self) -> u64 {
        self.intra_node + self.inter_node + self.cross_rack
    }

    /// Bytes that left the sender's node (the expensive share).
    pub fn off_node(&self) -> u64 {
        self.inter_node + self.cross_rack
    }
}

#[derive(Default)]
struct TrafficCounters {
    intra_node: AtomicU64,
    inter_node: AtomicU64,
    cross_rack: AtomicU64,
}

/// Shared state of one communicator: the member ranks (global ids), the
/// full mailbox matrix, and what it inherits from its root world (the fault
/// plan if chaos is enabled, the wait strategy and the abort flag).
struct CommState {
    /// Global rank of each local position, ascending.
    ranks: Vec<usize>,
    /// Row-major `[src_local][dst_local]`.
    links: Vec<Mailbox>,
    cost: Arc<CostModel>,
    /// Per-local-rank sent-bytes counters.
    traffic: Vec<TrafficCounters>,
    /// The deterministic fault schedule; `None` runs the fault-free fast
    /// path. Inherited by communicators created via `split`.
    fault: Option<Arc<FaultPlan>>,
    /// Shared with the root world and every sibling derived from it.
    world: Arc<World>,
}

impl CommState {
    fn new(
        ranks: Vec<usize>,
        cost: Arc<CostModel>,
        fault: Option<Arc<FaultPlan>>,
        world: Arc<World>,
    ) -> Self {
        let n = ranks.len();
        Self {
            links: (0..n * n).map(|_| Mailbox::new()).collect(),
            traffic: (0..n).map(|_| TrafficCounters::default()).collect(),
            ranks,
            cost,
            fault,
            world,
        }
    }

    /// A child communicator over `ranks`, inheriting cost model, fault plan
    /// and world state.
    fn child(&self, ranks: Vec<usize>) -> Self {
        Self::new(
            ranks,
            self.cost.clone(),
            self.fault.clone(),
            self.world.clone(),
        )
    }

    fn link(&self, src: usize, dst: usize) -> &Mailbox {
        &self.links[src * self.ranks.len() + dst]
    }
}

/// Grow-once staging of [`Communicator::all_reduce_sum_f32`]: the chunk
/// offsets, both wire shells of its all-to-all and the reduced chunk.
#[derive(Default)]
struct ReduceStaging {
    offs: Vec<usize>,
    send: Vec<Vec<f32>>,
    parts: Vec<Vec<f32>>,
    reduced: Vec<f32>,
}

thread_local! {
    /// One per rank thread: an all-reduce has no arena argument (its callers
    /// hand it a gradient slice, nothing else), and a rank runs its
    /// collectives one at a time.
    static REDUCE_STAGING: RefCell<ReduceStaging> = RefCell::default();
}

/// A handle to a communicator, bound to one member rank.
///
/// Cheap to clone within a thread; collectives take `&mut SimClock` so the
/// simulated time of the owning rank advances with each call. The handle
/// carries the owning rank's current training step (see
/// [`set_step`](Communicator::set_step)), which the fault plan is queried
/// against; cloning copies the step value, so the driver must call
/// `set_step` on the handle it actually uses.
#[derive(Clone)]
pub struct Communicator {
    state: Arc<CommState>,
    me: usize,
    step: Cell<u64>,
}

impl Communicator {
    /// Build the world communicator over all ranks of the cost model's
    /// topology, returning one handle per rank (index = global rank), with
    /// `fault` wired into the communicator (and inherited by every
    /// communicator split off it).
    pub fn world_set_with_faults(
        cost: Arc<CostModel>,
        fault: Option<Arc<FaultPlan>>,
    ) -> Vec<Communicator> {
        let n = cost.topology().n_ranks();
        let world = Arc::new(World::new(n));
        let state = Arc::new(CommState::new((0..n).collect(), cost, fault, world));
        (0..n)
            .map(|me| Communicator {
                state: state.clone(),
                me,
                step: Cell::new(0),
            })
            .collect()
    }

    /// Local rank within this communicator.
    pub fn rank(&self) -> usize {
        self.me
    }

    /// Global rank of this handle in the world topology.
    pub fn global_rank(&self) -> usize {
        self.state.ranks[self.me]
    }

    /// Number of member ranks.
    pub fn size(&self) -> usize {
        self.state.ranks.len()
    }

    /// Global ranks of all members, ascending by local rank.
    pub fn group_ranks(&self) -> &[usize] {
        &self.state.ranks
    }

    /// The cost model (and through it, the topology).
    pub fn cost(&self) -> &CostModel {
        &self.state.cost
    }

    /// The fault plan, when chaos is enabled.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.state.fault.as_deref()
    }

    /// Tell this handle which training step the rank is in; the fault plan
    /// is evaluated at this step for every subsequent collective.
    pub fn set_step(&self, step: u64) {
        self.step.set(step);
    }

    /// The training step this handle currently evaluates faults at.
    pub fn step(&self) -> u64 {
        self.step.get()
    }

    /// Snapshot of the bytes this rank has sent through this communicator,
    /// by link class.
    pub fn traffic(&self) -> TrafficStats {
        let c = &self.state.traffic[self.me];
        TrafficStats {
            intra_node: c.intra_node.load(Ordering::Relaxed),
            inter_node: c.inter_node.load(Ordering::Relaxed),
            cross_rack: c.cross_rack.load(Ordering::Relaxed),
        }
    }

    /// Reset this rank's traffic counters.
    pub fn reset_traffic(&self) {
        let c = &self.state.traffic[self.me];
        c.intra_node.store(0, Ordering::Relaxed);
        c.inter_node.store(0, Ordering::Relaxed);
        c.cross_rack.store(0, Ordering::Relaxed);
    }

    fn record_send(&self, dst: usize, bytes: u64) {
        if bytes == 0 || dst == self.me {
            return;
        }
        let topo = self.state.cost.topology();
        let (a, b) = (self.state.ranks[self.me], self.state.ranks[dst]);
        let c = &self.state.traffic[self.me];
        match topo.link_class(a, b) {
            LinkClass::Local => {}
            LinkClass::IntraNode => {
                c.intra_node.fetch_add(bytes, Ordering::Relaxed);
            }
            LinkClass::InterNode => {
                c.inter_node.fetch_add(bytes, Ordering::Relaxed);
            }
            LinkClass::CrossRack => {
                c.cross_rack.fetch_add(bytes, Ordering::Relaxed);
            }
        }
    }

    fn send_to(
        &self,
        dst: usize,
        clock: f64,
        payload: Box<dyn Any + Send>,
    ) -> Result<(), CommError> {
        self.state.link(self.me, dst).send(
            Packet { clock, payload },
            &self.state.world,
            self.state.ranks[dst],
        )
    }

    fn recv_from(&self, src: usize) -> Result<Packet, CommError> {
        self.state
            .link(src, self.me)
            .recv(&self.state.world, self.global_rank())
    }

    /// Open a payload `op` took from local rank `src` as the type `op` puts
    /// on the wire.
    fn open<P: 'static>(
        &self,
        payload: Box<dyn Any + Send>,
        op: &'static str,
        src: usize,
    ) -> Result<P, CommError> {
        match payload.downcast::<P>() {
            Ok(p) => Ok(*p),
            Err(_) => Err(CommError::Diverged {
                op,
                rank: self.state.ranks[src],
            }),
        }
    }

    /// Mark this communicator's world aborted by this rank and wake every
    /// parked peer (see [`CommError::Aborted`]).
    pub(crate) fn abort(&self) {
        self.state.world.abort(self.global_rank());
    }

    /// The global rank whose panic aborted this communicator's world.
    pub(crate) fn aborted_by(&self) -> Option<usize> {
        self.state.world.aborted_by()
    }

    /// Is the member at local position `pos` dead at this handle's step?
    fn is_dead_local(&self, pos: usize, step: u64) -> bool {
        self.state
            .fault
            .as_ref()
            .is_some_and(|p| p.is_dead(self.state.ranks[pos], step))
    }

    /// Fail fast (and deterministically) if any group member is dead:
    /// called before any payload is sent, so every survivor errs at the
    /// same collective with no partial messages left in the mailboxes. The
    /// detection timeout is charged to the clock.
    fn check_dead(&self, clock: &mut SimClock) -> Result<(), CommError> {
        let Some(plan) = &self.state.fault else {
            return Ok(());
        };
        let step = self.step.get();
        for &g in &self.state.ranks {
            if plan.is_dead(g, step) {
                clock.charge("fault_detect", plan.detect_timeout);
                return Err(CommError::DeadPeer {
                    global_rank: g,
                    step,
                });
            }
        }
        Ok(())
    }

    /// Degradation multiplier for this group at the current step.
    fn fault_link_mult(&self) -> f64 {
        match &self.state.fault {
            Some(plan) => plan.link_multiplier(
                self.state.cost.group_class(&self.state.ranks),
                self.step.get(),
            ),
            None => 1.0,
        }
    }

    /// Apply link faults to a priced collective: stretch `base` by the
    /// degradation multiplier and charge one retry span per transient flap
    /// (the failed attempt costs the full stretched transfer plus backoff).
    /// Returns the stretched time of the successful attempt.
    fn fault_shaped_time(&self, op: &str, base: f64, clock: &mut SimClock) -> f64 {
        let Some(plan) = &self.state.fault else {
            return base;
        };
        let step = self.step.get();
        let class = self.state.cost.group_class(&self.state.ranks);
        let t = base * plan.link_multiplier(class, step);
        for attempt in 0..plan.flap_retries(class, step) {
            clock.advance_retry_op(op, t + plan.backoff(attempt));
        }
        t
    }

    /// Uneven all-to-all (`MPI_Alltoallv`). `send[j]` goes to local rank `j`
    /// (including `send[me]`, which is kept locally). Returns `recv` where
    /// `recv[i]` came from local rank `i`.
    ///
    /// Time: the cost model prices the exact byte matrix (element size ×
    /// counts); all participants synchronize to the group clock max and then
    /// advance by the same collective time.
    pub fn all_to_all_v<T: Clone + Send + 'static>(
        &self,
        send: Vec<Vec<T>>,
        clock: &mut SimClock,
    ) -> Result<Vec<Vec<T>>, CommError> {
        self.issue_all_to_all_v(send, clock)?.wait(clock)
    }

    /// Shell-reusing [`all_to_all_v`](Self::all_to_all_v): the send buffers
    /// are drained out of `send` (its outer `Vec` and the emptied inner
    /// `Vec`s stay with the caller for reuse) and the receives land in the
    /// caller's `recv` shell. A pooled pipeline that leases the inner
    /// buffers from a [`xmoe_tensor::Workspace`] performs zero tracked
    /// allocations per exchange at steady state.
    pub fn all_to_all_v_into<T: Clone + Send + 'static>(
        &self,
        send: &mut [Vec<T>],
        recv: &mut [Vec<T>],
        clock: &mut SimClock,
    ) -> Result<(), CommError> {
        self.issue_all_to_all_v_into(send, clock)?
            .wait_into(recv, clock)
    }

    /// Nonblocking uneven all-to-all (`MPI_Ialltoallv`): fire all sends,
    /// stamped with the caller's clock at issue time, and return a
    /// [`PendingOp`] to be [`wait`](PendingOp::wait)-ed later. Between issue
    /// and wait the caller may advance its clock with other work (e.g. an
    /// expert GEMM on another overlap track) — the wait then synchronizes to
    /// `max(own clock, peer issue stamps)` and charges the priced transfer.
    ///
    /// SPMD discipline still applies: every rank must issue and wait its
    /// collectives in the same program order (mailboxes are FIFO per
    /// (src, dst) pair, so interleaved chunked exchanges match up as long as
    /// the issue order is uniform across ranks).
    pub fn issue_all_to_all_v<T: Clone + Send + 'static>(
        &self,
        mut send: Vec<Vec<T>>,
        clock: &mut SimClock,
    ) -> Result<PendingOp<T>, CommError> {
        self.issue_all_to_all_v_into(&mut send, clock)
    }

    /// [`issue_all_to_all_v`](Self::issue_all_to_all_v) that drains the
    /// caller's send shell instead of consuming it: inner buffers are moved
    /// onto the wire (each slot is left as an empty `Vec`), the outer `Vec`
    /// stays with the caller for the next step.
    ///
    /// The wire mechanics here — the size-row `Arc`, the boxed payloads, a
    /// mailbox queue growing under a sender that runs ahead — are simulation
    /// plumbing with no `malloc` analog on real hardware (a NIC doorbell does
    /// not heap-allocate), so they are recorded under the allocator's
    /// untracked counter.
    pub fn issue_all_to_all_v_into<T: Clone + Send + 'static>(
        &self,
        send: &mut [Vec<T>],
        clock: &mut SimClock,
    ) -> Result<PendingOp<T>, CommError> {
        self.check_dead(clock)?;
        let n = self.size();
        assert_eq!(send.len(), n, "all_to_all_v needs one send buffer per rank");
        let elem = std::mem::size_of::<T>() as u64;
        let now = clock.now();
        untracked(|| {
            let my_sizes: Arc<Vec<u64>> =
                Arc::new(send.iter().map(|v| v.len() as u64 * elem).collect());

            // Fire all sends (self included, via a local move below).
            for dst in 0..n {
                if dst == self.me {
                    continue;
                }
                let data = std::mem::take(&mut send[dst]);
                self.record_send(dst, my_sizes[dst]);
                self.send_to(dst, now, Box::new((data, my_sizes.clone())))?;
            }

            Ok(PendingOp {
                comm: self.clone(),
                kept_self: std::mem::take(&mut send[self.me]),
                my_sizes,
            })
        })
    }

    /// Even all-to-all: equal-sized buffers to every rank.
    pub fn all_to_all<T: Clone + Send + 'static>(
        &self,
        send: Vec<Vec<T>>,
        clock: &mut SimClock,
    ) -> Result<Vec<Vec<T>>, CommError> {
        let first = send.first().map_or(0, Vec::len);
        assert!(
            send.iter().all(|v| v.len() == first),
            "all_to_all requires equal buffer sizes; use all_to_all_v"
        );
        self.all_to_all_v(send, clock)
    }

    /// All-gather: every rank contributes `mine`; returns all contributions
    /// indexed by local rank.
    pub fn all_gather<T: Clone + Send + 'static>(
        &self,
        mine: Vec<T>,
        clock: &mut SimClock,
    ) -> Result<Vec<Vec<T>>, CommError> {
        self.check_dead(clock)?;
        let n = self.size();
        let elem = std::mem::size_of::<T>() as u64;
        let my_bytes = mine.len() as u64 * elem;
        let now = clock.now();
        // Wire mechanics (per-peer payload clones, boxed packets, receive
        // containers) are simulation plumbing — see `issue_all_to_all_v_into`.
        let (out, start, bytes_per_rank) = untracked(|| -> Result<_, CommError> {
            for dst in 0..n {
                if dst == self.me {
                    continue;
                }
                self.record_send(dst, my_bytes);
                self.send_to(dst, now, Box::new((mine.clone(), my_bytes)))?;
            }
            let mut out: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
            out[self.me] = mine;
            let mut start = now;
            let mut bytes_per_rank = vec![0u64; n];
            bytes_per_rank[self.me] = my_bytes;
            for (src, slot) in out.iter_mut().enumerate() {
                if src == self.me {
                    continue;
                }
                let pkt = self.recv_from(src)?;
                start = start.max(pkt.clock);
                let (data, bytes) = self.open::<(Vec<T>, u64)>(pkt.payload, "all_gather", src)?;
                *slot = data;
                bytes_per_rank[src] = bytes;
            }
            Ok((out, start, bytes_per_rank))
        })?;
        // Price from the actual per-rank contribution vector: a ring moves
        // Σ bytes − min(bytes), so a skewed gather (one big shard, tiny
        // peers) is far cheaper than the old max-based pricing claimed.
        let t = self
            .state
            .cost
            .allgather_time_uneven(&self.state.ranks, &bytes_per_rank);
        clock.advance_to_op("all_gather", start);
        let t = self.fault_shaped_time("all_gather", t, clock);
        clock.advance_op("all_gather", t);
        Ok(out)
    }

    /// All-reduce (sum) of an `f32` buffer; all ranks must pass equal-length
    /// buffers and all end with the identical elementwise sum.
    ///
    /// Implemented as a chunked reduce-scatter + all-gather: the buffer is
    /// split into `n` near-equal chunks, chunk `c` is shipped to rank `c` in
    /// one uneven all-to-all, each rank reduces its own chunk, and the
    /// reduced chunks are all-gathered back. Per-rank payload is `O(buf)`
    /// (each element crosses the wire twice) instead of the old full-buffer
    /// all-gather's `O(n·buf)` blow-up.
    ///
    /// A textbook ring would rotate partial sums rank-to-rank, accumulating
    /// chunk `c` in cyclic order `c+1, c+2, …, c` — a *rank-dependent*
    /// float-summation order. We deliberately use the all-to-all form
    /// instead: received parts arrive indexed by source rank, so every chunk
    /// is reduced in canonical group-index order and the result stays
    /// bitwise identical across ranks (and across world sizes re-sharding
    /// the same group), which rank-agnostic checkpoint/restore relies on.
    pub fn all_reduce_sum_f32(
        &self,
        buf: &mut [f32],
        clock: &mut SimClock,
    ) -> Result<(), CommError> {
        let n = self.size();
        let len = buf.len();
        let mark = clock.mark();
        REDUCE_STAGING.with_borrow_mut(|sc| -> Result<(), CommError> {
            // The chunks received last time are this call's send buffers, so
            // at steady state the staging circulates between the ranks
            // instead of being allocated and freed per call.
            std::mem::swap(&mut sc.send, &mut sc.parts);
            sc.send.resize_with(n, Vec::new);
            sc.parts.resize_with(n, Vec::new);
            // Near-equal chunking: first `len % n` chunks get one extra element.
            let (base, rem) = (len / n, len % n);
            let offs = &mut sc.offs;
            offs.clear();
            offs.push(0usize);
            for c in 0..n {
                offs.push(offs[c] + base + usize::from(c < rem));
            }
            for (c, chunk) in sc.send.iter_mut().enumerate() {
                chunk.clear();
                chunk.extend_from_slice(&buf[offs[c]..offs[c + 1]]);
            }
            self.all_to_all_v_into(&mut sc.send, &mut sc.parts, clock)?;
            let parts = &sc.parts;
            let my_len = offs[self.me + 1] - offs[self.me];
            for part in parts {
                assert_eq!(part.len(), my_len, "all_reduce buffer length mismatch");
            }
            // Reduce this rank's chunk in canonical group-index order
            // (parts[0] first, then +=) so every rank computes the bitwise-same
            // float sum for any given element.
            let mut reduced = std::mem::take(&mut sc.reduced);
            reduced.clear();
            reduced.extend((0..my_len).map(|j| {
                let mut acc = parts[0][j];
                for part in &parts[1..] {
                    acc += part[j];
                }
                acc
            }));
            let mut gathered = self.all_gather(reduced, clock)?;
            for (c, chunk) in gathered.iter().enumerate() {
                buf[offs[c]..offs[c + 1]].copy_from_slice(chunk);
            }
            sc.reduced = std::mem::take(&mut gathered[self.me]);
            Ok(())
        })?;
        // Price as a ring all-reduce: top up the inner collectives' work
        // time (measured, not guessed from the last advance) to the
        // all-reduce cost, and claim the whole thing under one op label.
        // The inner collectives already paid any flap retries; only the
        // degradation multiplier applies to the top-up target.
        let inner_work = clock.pending_work_since(mark);
        let bytes = len as u64 * 4;
        let t = self.state.cost.allreduce_time(&self.state.ranks, bytes) * self.fault_link_mult();
        if t > inner_work {
            clock.advance_op("all_reduce", t - inner_work);
        }
        clock.relabel_pending_since(mark, "all_reduce");
        Ok(())
    }

    /// Reduce-scatter (sum): each rank passes `n * chunk` elements and
    /// receives the summed chunk at its own position.
    pub fn reduce_scatter_sum_f32(
        &self,
        buf: &[f32],
        clock: &mut SimClock,
    ) -> Result<Vec<f32>, CommError> {
        let n = self.size();
        assert_eq!(
            buf.len() % n,
            0,
            "reduce_scatter buffer not divisible by group size"
        );
        let chunk = buf.len() / n;
        let send: Vec<Vec<f32>> = (0..n)
            .map(|j| buf[j * chunk..(j + 1) * chunk].to_vec())
            .collect();
        let mark = clock.mark();
        let parts = self.all_to_all_v(send, clock)?;
        // Top up the inner all-to-all's work time to the reduce-scatter cost
        // (the old code read `last_delta`, wrongly assuming the preceding
        // advance was an internal all-gather) and claim it as one op.
        let inner_work = clock.pending_work_since(mark);
        let t = self
            .state
            .cost
            .reduce_scatter_time(&self.state.ranks, buf.len() as u64 * 4)
            * self.fault_link_mult();
        if t > inner_work {
            clock.advance_op("reduce_scatter", t - inner_work);
        }
        clock.relabel_pending_since(mark, "reduce_scatter");
        let mut out = vec![0.0f32; chunk];
        for part in &parts {
            for (o, p) in out.iter_mut().zip(part) {
                *o += p;
            }
        }
        Ok(out)
    }

    /// Broadcast from `root` (local rank). Non-roots pass `None`.
    pub fn broadcast<T: Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<Vec<T>>,
        clock: &mut SimClock,
    ) -> Result<Vec<T>, CommError> {
        self.check_dead(clock)?;
        let n = self.size();
        if self.me == root {
            // A root without a value believes somebody else is the root.
            let v = value.ok_or(CommError::Diverged {
                op: "broadcast",
                rank: self.global_rank(),
            })?;
            let bytes = v.len() as u64 * std::mem::size_of::<T>() as u64;
            for dst in 0..n {
                if dst == root {
                    continue;
                }
                self.record_send(dst, bytes);
                self.send_to(dst, clock.now(), Box::new(v.clone()))?;
            }
            let t = self.state.cost.allgather_time(&self.state.ranks, bytes);
            let t = self.fault_shaped_time("broadcast", t, clock);
            clock.advance_op("broadcast", t);
            Ok(v)
        } else {
            let pkt = self.recv_from(root)?;
            let v = self.open::<Vec<T>>(pkt.payload, "broadcast", root)?;
            let bytes = v.len() as u64 * std::mem::size_of::<T>() as u64;
            let t = self.state.cost.allgather_time(&self.state.ranks, bytes);
            clock.advance_to_op("broadcast", pkt.clock);
            let t = self.fault_shaped_time("broadcast", t, clock);
            clock.advance_op("broadcast", t);
            Ok(v)
        }
    }

    /// Synchronize all ranks (and their simulated clocks).
    pub fn barrier(&self, clock: &mut SimClock) -> Result<(), CommError> {
        let mark = clock.mark();
        let _ = self.all_gather::<u8>(Vec::new(), clock)?;
        clock.relabel_pending_since(mark, "barrier");
        Ok(())
    }

    /// Collectively split into sub-communicators by `color`. Ranks with the
    /// same color form a new communicator, ordered by their local rank in
    /// the parent. Every *surviving* member of the parent must call `split`.
    ///
    /// Unlike the data collectives, `split` tolerates dead peers — it is the
    /// recovery primitive survivors use to re-form a communicator after a
    /// rank failure. Dead members are skipped at the color exchange and
    /// excluded from the child; with no fault plan (or no deaths) the
    /// behavior is identical to a plain MPI `Comm_split`.
    pub fn split(&self, color: usize, clock: &mut SimClock) -> Result<Communicator, CommError> {
        let step = self.step.get();
        let n = self.size();
        let alive: Vec<usize> = (0..n).filter(|&i| !self.is_dead_local(i, step)).collect();
        assert!(
            alive.contains(&self.me),
            "a rank the fault plan declares dead called split"
        );

        // Exchange colors among the survivors (a tiny all-gather priced
        // over the surviving group).
        for &dst in &alive {
            if dst == self.me {
                continue;
            }
            self.record_send(dst, 8);
            self.send_to(dst, clock.now(), Box::new(color as u64))?;
        }
        let mut colors: Vec<(usize, u64)> = vec![(self.me, color as u64)];
        let mut start = clock.now();
        for &src in &alive {
            if src == self.me {
                continue;
            }
            let pkt = self.recv_from(src)?;
            start = start.max(pkt.clock);
            colors.push((src, self.open::<u64>(pkt.payload, "split", src)?));
        }
        colors.sort_unstable_by_key(|&(i, _)| i);
        let alive_globals: Vec<usize> = alive.iter().map(|&i| self.state.ranks[i]).collect();
        let t = self.state.cost.allgather_time(&alive_globals, 8);
        clock.advance_to_op("split", start);
        clock.advance_op("split", t);

        let members: Vec<usize> = colors
            .iter()
            .filter(|&&(_, c)| c == color as u64)
            .map(|&(i, _)| i)
            .collect();
        let globals: Vec<usize> = members.iter().map(|&m| self.state.ranks[m]).collect();
        self.form_child("split", &members, globals, clock)
    }

    /// Last step of `split` / `grow`: the lowest member builds the child's
    /// shared state and hands it to the others; `members` are ascending local
    /// positions in this communicator and include the caller.
    fn form_child(
        &self,
        op: &'static str,
        members: &[usize],
        globals: Vec<usize>,
        clock: &mut SimClock,
    ) -> Result<Communicator, CommError> {
        let leader = members[0];
        let state = if self.me == leader {
            let child = Arc::new(self.state.child(globals));
            for &m in &members[1..] {
                self.send_to(m, clock.now(), Box::new(child.clone()))?;
            }
            child
        } else {
            let pkt = self.recv_from(leader)?;
            self.open::<Arc<CommState>>(pkt.payload, op, leader)?
        };
        Ok(Communicator {
            state,
            me: members.partition_point(|&m| m < self.me),
            step: Cell::new(self.step.get()),
        })
    }

    /// Split into node-local communicators (color = node index).
    pub fn split_by_node(&self, clock: &mut SimClock) -> Result<Communicator, CommError> {
        let node = self.cost().topology().node_of(self.global_rank());
        self.split(node, clock)
    }

    /// Collectively re-form a communicator over an explicit member list —
    /// the dual of [`split`](Self::split), used when ranks *join* mid-run.
    /// `members` are local positions in this communicator (typically the
    /// world handle kept alive across recoveries); every listed rank must
    /// call `grow` with the identical list, and no other rank may call.
    ///
    /// Unlike `split` there is no color exchange: the member list is already
    /// agreed out of band (it is computable from the fault plan at the join
    /// step), so the rendezvous is a tiny stamp exchange that synchronizes
    /// the members' clocks, priced like the 8-byte all-gather `split` pays.
    /// Like `split`, `grow` ignores dead or absent non-members entirely.
    pub fn grow(&self, members: &[usize], clock: &mut SimClock) -> Result<Communicator, CommError> {
        let mut members: Vec<usize> = members.to_vec();
        members.sort_unstable();
        members.dedup();
        assert!(
            members.contains(&self.me),
            "a rank not in the member list called grow"
        );

        // Rendezvous: exchange clock stamps among the members so the new
        // communicator starts from a common time base.
        for &dst in &members {
            if dst == self.me {
                continue;
            }
            self.record_send(dst, 8);
            self.send_to(dst, clock.now(), Box::new(0u64))?;
        }
        let mut start = clock.now();
        for &src in &members {
            if src == self.me {
                continue;
            }
            let pkt = self.recv_from(src)?;
            start = start.max(pkt.clock);
            self.open::<u64>(pkt.payload, "grow", src)?;
        }
        let member_globals: Vec<usize> = members.iter().map(|&i| self.state.ranks[i]).collect();
        let t = self.state.cost.allgather_time(&member_globals, 8);
        clock.advance_to_op("grow", start);
        clock.advance_op("grow", t);

        self.form_child("grow", &members, member_globals, clock)
    }

    /// Fail fast if either endpoint of a point-to-point transfer is dead.
    /// Unlike [`check_dead`](Self::check_dead), unrelated group members do
    /// not matter: a pipeline stage boundary only involves two ranks.
    fn check_dead_pair(&self, peer: usize, clock: &mut SimClock) -> Result<(), CommError> {
        let Some(plan) = &self.state.fault else {
            return Ok(());
        };
        let step = self.step.get();
        for pos in [self.me, peer] {
            let g = self.state.ranks[pos];
            if plan.is_dead(g, step) {
                clock.charge("fault_detect", plan.detect_timeout);
                return Err(CommError::DeadPeer {
                    global_rank: g,
                    step,
                });
            }
        }
        Ok(())
    }

    /// Point-to-point send (`MPI_Send` with a tag). The sender charges the
    /// full priced transfer time as pending work (claim it with
    /// [`SimClock::commit`] under the pipeline-stage label) and stamps the
    /// message with its post-transfer clock; the matching
    /// [`recv_p2p`](Self::recv_p2p) synchronizes to that stamp as sync-wait,
    /// so aggregate transfer time is charged exactly once and every slice of
    /// both ranks' time remains span-accounted (the PR-1 exactness
    /// invariant).
    ///
    /// Unlike the collectives, p2p messages are tag-matched at the receiver
    /// (via a [`P2pStash`]), so interleaved pipeline schedules may issue
    /// sends on one link in any causally consistent order.
    pub fn send_p2p<T: Clone + Send + 'static>(
        &self,
        dst: usize,
        tag: u64,
        data: Vec<T>,
        clock: &mut SimClock,
    ) -> Result<(), CommError> {
        self.check_dead_pair(dst, clock)?;
        let bytes = data.len() as u64 * std::mem::size_of::<T>() as u64;
        self.record_send(dst, bytes);
        let (a, b) = (self.state.ranks[self.me], self.state.ranks[dst]);
        let base = self.state.cost.p2p_time(a, b, bytes);
        let t = match &self.state.fault {
            Some(plan) => {
                let step = self.step.get();
                let class = self.state.cost.topology().link_class(a, b);
                let t = base * plan.link_multiplier(class, step);
                for attempt in 0..plan.flap_retries(class, step) {
                    clock.advance_retry_op("p2p", t + plan.backoff(attempt));
                }
                t
            }
            None => base,
        };
        clock.advance_op("p2p", t);
        // The boxed packet is simulated wire, not training state.
        untracked(|| self.send_to(dst, clock.now(), Box::new((tag, data))))
    }

    /// Point-to-point receive matching `tag` from local rank `src`.
    /// Messages arriving out of tag order park in `stash` until their
    /// matching receive; the gap to the sender's stamp is recorded as
    /// pending sync-wait (claim with [`SimClock::commit`]). Transfer time
    /// was charged on the sender's clock — see
    /// [`send_p2p`](Self::send_p2p).
    pub fn recv_p2p<T: Clone + Send + 'static>(
        &self,
        src: usize,
        tag: u64,
        stash: &mut P2pStash,
        clock: &mut SimClock,
    ) -> Result<Vec<T>, CommError> {
        self.check_dead_pair(src, clock)?;
        if let Some(pos) = stash
            .held
            .iter()
            .position(|(s, t, ..)| *s == src && *t == tag)
        {
            let (_, _, stamp, payload) = stash.held.swap_remove(pos);
            clock.advance_to_op("p2p", stamp);
            let (_, data) = self.open::<(u64, Vec<T>)>(payload, "p2p", src)?;
            return Ok(data);
        }
        loop {
            let pkt = self.recv_from(src)?;
            let (t, data) = self.open::<(u64, Vec<T>)>(pkt.payload, "p2p", src)?;
            if t == tag {
                clock.advance_to_op("p2p", pkt.clock);
                return Ok(data);
            }
            untracked(|| stash.held.push((src, t, pkt.clock, Box::new((t, data)))));
        }
    }
}

/// Receiver-side reorder buffer for tag-matched point-to-point messages:
/// packets that arrive before their matching [`Communicator::recv_p2p`] are
/// parked here. One stash per receiving rank (it is not shared state).
#[derive(Default)]
pub struct P2pStash {
    /// `(src local rank, tag, sender stamp, boxed (tag, payload))`.
    held: Vec<(usize, u64, f64, Box<dyn Any + Send>)>,
}

impl P2pStash {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of parked messages (0 after a completed schedule — anything
    /// left over means send/recv programs diverged).
    pub fn len(&self) -> usize {
        self.held.len()
    }

    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }
}

/// An in-flight nonblocking all-to-all issued by
/// [`Communicator::issue_all_to_all_v`]. The sends are already in the
/// mailboxes; [`wait`](PendingOp::wait) completes the receives and charges
/// the priced collective time. Dropping a `PendingOp` without waiting
/// leaves unmatched messages in the peers' mailboxes and desynchronizes the
/// SPMD program order — always wait, even on error paths.
#[must_use = "an issued collective must be waited on or SPMD order breaks"]
pub struct PendingOp<T> {
    comm: Communicator,
    /// This rank's self-destined chunk, moved out at issue time.
    kept_self: Vec<T>,
    /// Bytes this rank sent to each peer (row `me` of the byte matrix).
    my_sizes: Arc<Vec<u64>>,
}

impl<T: Clone + Send + 'static> PendingOp<T> {
    /// Complete the exchange: drain the receives, synchronize to
    /// `max(own clock, peer issue stamps)` (recorded as pending sync-wait)
    /// and advance by the cost-model time of the full byte matrix. Returns
    /// `recv` where `recv[i]` came from local rank `i`.
    pub fn wait(self, clock: &mut SimClock) -> Result<Vec<Vec<T>>, CommError> {
        let n = self.comm.size();
        let mut recv: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
        self.wait_into(&mut recv, clock)?;
        Ok(recv)
    }

    /// [`wait`](Self::wait) into a caller-owned recv shell: `recv` must have
    /// one slot per rank; each slot is overwritten with the arriving buffer
    /// (whatever it held is dropped). With a persistent shell, the only
    /// per-exchange heap traffic is the untracked wire plumbing.
    pub fn wait_into(self, recv: &mut [Vec<T>], clock: &mut SimClock) -> Result<(), CommError> {
        let PendingOp {
            comm,
            kept_self,
            my_sizes,
        } = self;
        let n = comm.size();
        assert_eq!(recv.len(), n, "wait_into needs one recv slot per rank");
        recv[comm.me] = kept_self;

        let now = clock.now();
        let (start, size_rows) = untracked(|| -> Result<_, CommError> {
            let mut size_rows: Vec<Arc<Vec<u64>>> = vec![my_sizes.clone(); n];
            let mut start = now;
            for src in 0..n {
                if src == comm.me {
                    continue;
                }
                let pkt = comm.recv_from(src)?;
                start = start.max(pkt.clock);
                let (data, sizes) =
                    comm.open::<(Vec<T>, Arc<Vec<u64>>)>(pkt.payload, "all_to_all", src)?;
                recv[src] = data;
                size_rows[src] = sizes;
            }
            Ok((start, size_rows))
        })?;

        let t = comm
            .state
            .cost
            .alltoallv_time(&comm.state.ranks, &|i, j| size_rows[i][j]);
        clock.advance_to_op("all_to_all", start);
        let t = comm.fault_shaped_time("all_to_all", t, clock);
        clock.advance_op("all_to_all", t);
        Ok(())
    }
}
