//! The transport's contract as seen through the public API, on both sides of
//! the wait strategy — a world of 2 (ranks ≤ cores on any multi-core box:
//! receivers poll, then park) and a world of 16 (oversubscribed on the build
//! box: receivers park at once): per-pair FIFO under run-ahead, tag matching
//! far behind the sender, typed SPMD divergence, and no hang when a rank
//! panics. Every test that could hang runs under [`common::within`].

mod common;

use std::sync::atomic::{AtomicBool, Ordering};

use common::within;
use xmoe_collectives::{CommError, P2pStash, SimCluster};
use xmoe_tensor::DetRng;

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast::<&'static str>().map_or_else(
            |_| "<non-string panic payload>".to_string(),
            |s| s.to_string(),
        ),
    }
}

/// Rank 0 issues all `k` exchanges before its first wait; every other rank
/// alternates issue / wait. Payloads carry `(sequence, src, dst)`, so a
/// mailbox that reorders, drops or crosses links is caught at the exact wait.
fn fifo_under_run_ahead(world: usize, k: u64) {
    let out = within(move || {
        SimCluster::frontier(world).run(|ctx| {
            let me = ctx.rank as u64;
            let send = |seq: u64| -> Vec<Vec<(u64, u64, u64)>> {
                (0..world as u64).map(|dst| vec![(seq, me, dst)]).collect()
            };
            let check = |seq: u64, recv: Vec<Vec<(u64, u64, u64)>>| {
                for (src, got) in recv.into_iter().enumerate() {
                    assert_eq!(got, vec![(seq, src as u64, me)], "rank {me} wait {seq}");
                }
            };
            if ctx.rank == 0 {
                let ops: Vec<_> = (0..k)
                    .map(|seq| {
                        ctx.world
                            .issue_all_to_all_v(send(seq), &mut ctx.clock)
                            .unwrap()
                    })
                    .collect();
                for (seq, op) in ops.into_iter().enumerate() {
                    check(seq as u64, op.wait(&mut ctx.clock).unwrap());
                }
            } else {
                for seq in 0..k {
                    let op = ctx
                        .world
                        .issue_all_to_all_v(send(seq), &mut ctx.clock)
                        .unwrap();
                    check(seq, op.wait(&mut ctx.clock).unwrap());
                }
            }
            ctx.clock.now()
        })
    })
    .expect("a rank panicked");
    assert!(out.iter().all(|t| *t == out[0]), "clocks diverged: {out:?}");
}

#[test]
fn links_stay_fifo_when_one_rank_runs_ahead() {
    for world in [2, 16] {
        for k in [1, 4, 32] {
            fifo_under_run_ahead(world, k);
        }
    }
}

#[test]
fn p2p_tags_match_with_the_sender_64_messages_ahead() {
    const N: u64 = 64;
    let out = within(|| {
        SimCluster::frontier(2).run(|ctx| {
            if ctx.rank == 0 {
                for tag in 0..N {
                    ctx.world
                        .send_p2p(1, tag, vec![tag * 10, tag * 10 + 1], &mut ctx.clock)
                        .unwrap();
                }
                return 0;
            }
            // Asking for the last tag first parks the other 63 in the stash;
            // the rest are then drawn from it in a shuffled order.
            let mut order: Vec<u64> = (0..N - 1).collect();
            DetRng::new(64).shuffle(&mut order);
            order.insert(0, N - 1);
            let mut stash = P2pStash::new();
            let mut held_max = 0;
            for tag in order {
                let got: Vec<u64> = ctx
                    .world
                    .recv_p2p(0, tag, &mut stash, &mut ctx.clock)
                    .unwrap();
                assert_eq!(got, vec![tag * 10, tag * 10 + 1], "tag {tag}");
                held_max = held_max.max(stash.len());
            }
            assert!(stash.is_empty(), "every parked message was claimed");
            held_max
        })
    })
    .expect("a rank panicked");
    assert_eq!(
        out[1],
        (N - 1) as usize,
        "the first receive stashed the rest"
    );
}

#[test]
fn diverged_element_types_are_a_typed_error_on_both_ranks() {
    let out = within(|| {
        SimCluster::frontier(2).run(|ctx| {
            if ctx.rank == 0 {
                ctx.world.all_gather(vec![1u32], &mut ctx.clock).err()
            } else {
                ctx.world.all_gather(vec![1.0f32], &mut ctx.clock).err()
            }
        })
    })
    .expect("divergence must be an error, not a panic");
    for (rank, err) in out.into_iter().enumerate() {
        let want = CommError::Diverged {
            op: "all_gather",
            rank: 1 - rank,
        };
        assert_eq!(err, Some(want.clone()), "rank {rank}");
        let text = want.to_string();
        assert!(
            text.contains("all_gather") && text.contains(&format!("rank {}", 1 - rank)),
            "the message names the collective and the peer: {text}"
        );
    }
}

/// `world` ranks; `doomed` panics instead of entering the barrier its peers
/// are already waiting in. `run` must come back with `doomed`'s own panic.
fn panic_before_a_barrier(world: usize, doomed: usize) {
    let ended = within(move || {
        SimCluster::frontier(world).run(|ctx| {
            if ctx.rank == doomed {
                panic!("rank {doomed} exploded before the barrier");
            }
            ctx.world.barrier(&mut ctx.clock).unwrap();
        })
    });
    let message = panic_message(ended.expect_err("the panic must propagate"));
    assert_eq!(
        message,
        format!("rank {doomed} exploded before the barrier"),
        "world {world}: a peer's secondary failure was surfaced instead"
    );
}

#[test]
fn a_panic_before_a_barrier_does_not_hang_the_world() {
    panic_before_a_barrier(2, 0);
    panic_before_a_barrier(2, 1);
    panic_before_a_barrier(16, 0);
    panic_before_a_barrier(16, 11);
}

#[test]
fn a_panic_inside_a_split_child_reaches_the_child_and_the_world() {
    // 16 ranks = 2 nodes. Rank 3 panics where its node peers wait in the
    // node communicator's collective; the other node gets through its own
    // child and must be woken out of the world barrier that follows. Peers
    // record what they saw instead of unwrapping it.
    /// `(rank, node-barrier error, world-barrier error)`.
    type Seen = (usize, Option<CommError>, Option<CommError>);
    static SEEN: std::sync::Mutex<Vec<Seen>> = std::sync::Mutex::new(Vec::new());
    let ended = within(|| {
        SimCluster::frontier(16).run(|ctx| {
            let node = ctx.world.split_by_node(&mut ctx.clock).unwrap();
            // Rank 3 leaves this barrier only once every peer has sent into
            // it, and a receive hands out what is queued before it looks at
            // the abort flag: all 15 peers get past this line.
            ctx.world.barrier(&mut ctx.clock).unwrap();
            if ctx.rank == 3 {
                panic!("rank 3 exploded inside its node group");
            }
            let child = node.barrier(&mut ctx.clock).err();
            let world = ctx.world.barrier(&mut ctx.clock).err();
            SEEN.lock().unwrap().push((ctx.rank, child, world));
        })
    });
    let message = panic_message(ended.expect_err("the panic must propagate"));
    assert_eq!(message, "rank 3 exploded inside its node group");
    let seen = SEEN.lock().unwrap();
    assert_eq!(seen.len(), 15, "every peer returned");
    let aborted = Some(CommError::Aborted { global_rank: 3 });
    for (rank, child, world) in seen.iter() {
        if rank / 8 == 0 {
            assert_eq!(child, &aborted, "rank {rank}: node-0 child collective");
        } else {
            assert_eq!(child, &None, "rank {rank}: node 1 never needed rank 3");
        }
        assert_eq!(world, &aborted, "rank {rank}: world barrier");
    }
}

#[test]
fn a_panic_while_the_peer_is_polling_does_not_hang_it() {
    // Rank 1 raises the flag and goes straight into the receive (polling, on
    // a box with a core per rank); rank 0 panics the moment it sees the flag.
    static ENTERING: AtomicBool = AtomicBool::new(false);
    let ended = within(|| {
        SimCluster::frontier(2).run(|ctx| {
            if ctx.rank == 0 {
                while !ENTERING.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                panic!("rank 0 exploded under a polling peer");
            }
            ENTERING.store(true, Ordering::SeqCst);
            ctx.world.barrier(&mut ctx.clock).unwrap();
        })
    });
    let message = panic_message(ended.expect_err("the panic must propagate"));
    assert_eq!(message, "rank 0 exploded under a polling peer");
}
