//! The transport under [`Communicator`](crate::Communicator): one FIFO
//! mailbox per `(src, dst)` link, a receiver that spins for a bounded budget
//! and then parks, and the world state every communicator derived from one
//! root world shares (the spin decision, the abort flag, the parked-thread
//! slots).
//!
//! # The wake-up protocol
//!
//! A mailbox has one producer (rank `src`) and one consumer (rank `dst`).
//! Three shared variables carry the protocol: the mailbox's `ready` count
//! and `parked` flag, and the world's per-rank waiter slot.
//!
//! ```text
//! sender                              receiver (after its spin budget)
//! 1 publish: push under the lock      1 register: waiter slot = this thread
//! 2 count:   ready += 1               2 parked = true
//! 3 unpark the waiter, only if        3 re-check ready (and the abort flag)
//!   parked is set                     4 park; on return go to 3
//! ```
//!
//! **No lost wake-up.** `ready` and `parked` are only touched with `SeqCst`,
//! so sender step 2 → 3 (write `ready`, read `parked`) and receiver step
//! 2 → 3 (write `parked`, read `ready`) are a store-load pair on each side in
//! one total order: at least one of the two reads sees the other side's
//! write. If the receiver's re-check sees the count it never parks. Otherwise
//! the sender sees `parked`; the registration (step 1) is sequenced before
//! the flag (step 2), so the slot the sender then locks already holds the
//! receiver's thread, and `unpark` leaves a token that makes a `park` that
//! has not started yet return at once. `park` may also return spuriously or
//! for a stale token (the slot is per rank, not per mailbox), which is why
//! step 4 loops back to the re-check instead of assuming a message.
//!
//! **Data visibility** never rests on the atomics: the packet is pushed and
//! popped under the queue mutex. `ready` counts packets already in the
//! queue, so a consumer that reads `ready > 0` finds one (it is the only
//! consumer; a second one would find `None` and keep waiting, not panic).
//!
//! **Abort** uses the same shape with the world's flag in place of `ready`:
//! the aborter writes the flag and then visits every waiter slot under its
//! lock; a receiver registers under that lock and then re-checks the flag.
//! Whichever critical section on the slot comes second sees the other's
//! write — the aborter finds the thread and unparks it, or the receiver finds
//! the flag and never parks.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;
use std::thread::Thread;

use crate::comm::CommError;

/// One message between two ranks: the sender's simulated clock plus an
/// arbitrary payload (collectives downcast to the concrete type they sent).
pub(crate) struct Packet {
    pub(crate) clock: f64,
    pub(crate) payload: Box<dyn Any + Send>,
}

/// Queue slots a mailbox is created with. Program order keeps a link one or
/// two messages deep (a chunked overlap issues up to four exchanges before
/// its first wait); a sender that runs further ahead grows the queue once and
/// it never shrinks, so the steady state allocates nothing.
const MAILBOX_SLOTS: usize = 4;

/// `spin_loop` iterations a receiver polls an empty mailbox for before it
/// parks, in worlds where every rank thread can own a core (15 ns each on the
/// 2-vCPU Xeon build box, so ≈ 30 µs — a few rank skews, well under the
/// ≈ 25 µs a futex sleep + wake-up costs on that VM). Sized on
/// `dispatch_tiny_ep2` (2 ranks, 2 cores, `--seconds 10`, seed 1): 200
/// iterations 1.23M tok/s, 2,000 1.62–1.75M, 20,000 1.72M, 200,000 1.77M —
/// 2,000 already collects nearly all of it, and every iteration past the
/// peer's arrival is a core taken from whoever else could run.
const SPIN_BUDGET: u32 = 2_000;

/// State shared by a root world communicator and everything `split` or
/// `grow`-n off it, however deep.
pub(crate) struct World {
    /// Spin before parking? Decided once from what the process can observe:
    /// when the root world has at most one rank thread per available core the
    /// peer of an empty mailbox is running and at most a rank skew away, so
    /// polling beats a sleep/wake-up pair; when the world oversubscribes the
    /// machine the peer is probably descheduled, polling burns the core it
    /// needs, and the receiver parks at once. A sub-communicator inherits its
    /// root's answer whatever its own size — its threads still share the
    /// machine with every other rank of the world.
    spin: bool,
    /// `0` while running, else `1 +` the global rank that unwound first.
    aborted: AtomicUsize,
    /// Per global rank: the thread that is (about to be) parked in a receive.
    /// A rank is one thread, so it waits on one mailbox at a time and one slot
    /// per rank lets [`abort`](Self::abort) reach every sleeper of every
    /// derived communicator without a registry of communicators.
    waiters: Vec<Mutex<Option<Thread>>>,
}

impl World {
    pub(crate) fn new(n_ranks: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        Self {
            spin: n_ranks <= cores,
            aborted: AtomicUsize::new(0),
            waiters: (0..n_ranks).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Mark the world aborted by `global_rank` (the first caller wins) and
    /// wake every parked receiver. Called from a `Drop` during unwinding, so
    /// it must not panic: a poisoned slot is still visited.
    pub(crate) fn abort(&self, global_rank: usize) {
        let _ = self
            .aborted
            .compare_exchange(0, global_rank + 1, SeqCst, SeqCst);
        for slot in &self.waiters {
            let slot = slot.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(t) = slot.as_ref() {
                t.unpark();
            }
        }
    }

    /// The global rank whose unwinding aborted the world, if any.
    pub(crate) fn aborted_by(&self) -> Option<usize> {
        self.aborted.load(SeqCst).checked_sub(1)
    }

    fn check_aborted(&self) -> Result<(), CommError> {
        match self.aborted_by() {
            Some(global_rank) => Err(CommError::Aborted { global_rank }),
            None => Ok(()),
        }
    }

    fn slot(
        &self,
        global_rank: usize,
    ) -> Result<std::sync::MutexGuard<'_, Option<Thread>>, CommError> {
        self.waiters[global_rank]
            .lock()
            .map_err(|_| CommError::LockPoisoned { op: "park" })
    }
}

/// One `(src, dst)` link. A cache line of its own: a polling receiver shares
/// its line with nobody but the sender it is waiting for.
#[repr(align(64))]
pub(crate) struct Mailbox {
    queue: Mutex<VecDeque<Packet>>,
    /// Packets pushed and not yet popped.
    ready: AtomicUsize,
    /// The consumer has registered in its waiter slot and will park unless
    /// its re-check finds `ready > 0`.
    parked: AtomicBool,
}

impl Mailbox {
    pub(crate) fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::with_capacity(MAILBOX_SLOTS)),
            ready: AtomicUsize::new(0),
            parked: AtomicBool::new(false),
        }
    }

    /// Deliver `pkt` to the consumer, global rank `dst`: publish → count →
    /// unpark (module docs).
    pub(crate) fn send(&self, pkt: Packet, world: &World, dst: usize) -> Result<(), CommError> {
        self.queue
            .lock()
            .map_err(|_| CommError::LockPoisoned { op: "send" })?
            .push_back(pkt);
        jitter();
        self.ready.fetch_add(1, SeqCst);
        jitter();
        if self.parked.load(SeqCst) {
            if let Some(t) = world.slot(dst)?.as_ref() {
                t.unpark();
            }
        }
        Ok(())
    }

    fn try_take(&self) -> Result<Option<Packet>, CommError> {
        if self.ready.load(SeqCst) == 0 {
            return Ok(None);
        }
        let pkt = self
            .queue
            .lock()
            .map_err(|_| CommError::LockPoisoned { op: "recv" })?
            .pop_front();
        if pkt.is_some() {
            self.ready.fetch_sub(1, SeqCst);
        }
        Ok(pkt)
    }

    /// Take the next packet, waiting for it as the consumer, global rank
    /// `me`: poll for the world's spin budget, then register → re-check →
    /// park (module docs). Fails with [`CommError::Aborted`] once a rank of
    /// the world has unwound and nothing is left to take.
    pub(crate) fn recv(&self, world: &World, me: usize) -> Result<Packet, CommError> {
        let mut budget = if world.spin { SPIN_BUDGET } else { 0 };
        loop {
            if let Some(pkt) = self.try_take()? {
                return Ok(pkt);
            }
            world.check_aborted()?;
            if budget == 0 {
                break;
            }
            budget -= 1;
            std::hint::spin_loop();
        }

        *world.slot(me)? = Some(std::thread::current());
        jitter();
        self.parked.store(true, SeqCst);
        let taken = loop {
            jitter();
            match self.try_take() {
                Ok(None) => {}
                Ok(Some(pkt)) => break Ok(pkt),
                Err(e) => break Err(e),
            }
            if let Err(e) = world.check_aborted() {
                break Err(e);
            }
            jitter();
            std::thread::park();
        };
        self.parked.store(false, SeqCst);
        taken
    }
}

/// Schedule perturbation between the steps of the wake-up protocol: a no-op
/// outside this crate's unit tests, and inside them until a thread arms it.
#[cfg(not(test))]
#[inline(always)]
fn jitter() {}

#[cfg(test)]
pub(crate) use perturb::{arm as arm_jitter, jitter};

#[cfg(test)]
mod perturb {
    use std::cell::RefCell;
    use std::time::Duration;

    use xmoe_tensor::DetRng;

    thread_local! {
        static RNG: RefCell<Option<DetRng>> = const { RefCell::new(None) };
    }

    /// Make every protocol step on this thread yield (1 in 4) or sleep
    /// 20–80 µs (1 in 16) on a schedule drawn from `seed`.
    pub(crate) fn arm(seed: u64) {
        RNG.with(|r| *r.borrow_mut() = Some(DetRng::new(seed)));
    }

    pub(crate) fn jitter() {
        let Some(z) = RNG.with(|r| r.borrow_mut().as_mut().map(DetRng::next_u64)) else {
            return;
        };
        match z & 15 {
            0 => std::thread::sleep(Duration::from_micros(20 + (z >> 8) % 60)),
            1..=4 => std::thread::yield_now(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use xmoe_tensor::DetRng;

    use super::arm_jitter;
    use crate::SimCluster;

    /// 200 rounds of a seeded mix of all-to-all-v / all-reduce / barrier with
    /// every step of the wake-up protocol perturbed differently on each rank:
    /// senders stall between publish, count and unpark while receivers stall
    /// between register, re-check and park, so the windows a lost wake-up
    /// would need are held open thousands of times per run. Every payload and
    /// sum is checked, and a lost wake-up is a hang that `within` turns into
    /// a failure.
    fn soak(world: usize, seed: u64) {
        let clocks = crate::common::within(move || {
            SimCluster::frontier(world).run(|ctx| {
                arm_jitter(seed ^ ((ctx.rank as u64 + 1) << 32));
                let me = ctx.rank;
                // The op sequence is SPMD: one stream, the same on every rank.
                let mut ops = DetRng::new(seed);
                for round in 0..200usize {
                    match ops.next_below(3) {
                        0 => {
                            let len = |src: usize, dst: usize| (src + 2 * dst + round) % 4;
                            let send = (0..world)
                                .map(|dst| vec![(round, me, dst); len(me, dst)])
                                .collect();
                            let recv = ctx.world.all_to_all_v(send, &mut ctx.clock).unwrap();
                            for (src, got) in recv.into_iter().enumerate() {
                                assert_eq!(got, vec![(round, src, me); len(src, me)]);
                            }
                        }
                        1 => {
                            let mut buf = vec![(me + round) as f32; 1 + round % 5];
                            ctx.world
                                .all_reduce_sum_f32(&mut buf, &mut ctx.clock)
                                .unwrap();
                            let want = (world * round + world * (world - 1) / 2) as f32;
                            assert!(buf.iter().all(|v| *v == want), "round {round}: {buf:?}");
                        }
                        _ => ctx.world.barrier(&mut ctx.clock).unwrap(),
                    }
                }
                ctx.clock.now()
            })
        })
        .expect("a rank panicked");
        assert!(clocks.iter().all(|t| *t == clocks[0]), "{clocks:?}");
    }

    #[test]
    fn soak_polling_world_under_schedule_perturbation() {
        soak(2, 0x50A4);
    }

    #[test]
    fn soak_parking_world_under_schedule_perturbation() {
        soak(
            2 * std::thread::available_parallelism().map_or(1, usize::from) + 1,
            0x50A5,
        );
    }
}
