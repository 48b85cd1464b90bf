//! The cluster runtime: spawn one thread per simulated GPU rank, hand each a
//! [`RankCtx`], collect per-rank results in rank order.

use std::sync::Arc;

use xmoe_topology::{ClusterTopology, CongestionModel, CostModel, FaultPlan, MachineSpec};

use crate::{Communicator, SimClock};

/// Execution context of one simulated rank.
pub struct RankCtx {
    /// Global rank id.
    pub rank: usize,
    /// This rank's simulated clock.
    pub clock: SimClock,
    /// Communicator over the whole cluster.
    pub world: Communicator,
    cost: Arc<CostModel>,
    fault: Option<Arc<FaultPlan>>,
    step: u64,
}

impl RankCtx {
    /// Number of ranks in the cluster.
    pub fn n_ranks(&self) -> usize {
        self.cost.topology().n_ranks()
    }

    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    pub fn topology(&self) -> &ClusterTopology {
        self.cost.topology()
    }

    /// The fault plan injected via [`SimCluster::with_faults`], if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref()
    }

    /// The training step faults are currently evaluated at.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Enter training step `step`: the world communicator evaluates deaths,
    /// link faults and this rank's slowdown at it. Sub-communicators split
    /// off earlier keep their own step cells — call
    /// [`Communicator::set_step`] on those directly.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
        self.world.set_step(step);
    }
}

/// A rank thread that unwinds takes its world down with it: peers parked in
/// (or later entering) a receive get [`CommError::Aborted`](crate::CommError)
/// instead of waiting for messages this rank will never send.
impl Drop for RankCtx {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.world.abort();
        }
    }
}

/// Spawns and joins the rank threads.
pub struct SimCluster {
    cost: Arc<CostModel>,
    fault: Option<Arc<FaultPlan>>,
}

impl SimCluster {
    /// Build a cluster from an explicit cost model.
    pub fn new(cost: CostModel) -> Self {
        Self {
            cost: Arc::new(cost),
            fault: None,
        }
    }

    /// `n_ranks` Frontier GCDs with congestion disabled — the configuration
    /// used by correctness tests, where stochastic time would only add noise.
    pub fn frontier(n_ranks: usize) -> Self {
        let topo = ClusterTopology::new(MachineSpec::frontier(), n_ranks);
        Self::new(CostModel::new(topo).with_congestion(CongestionModel::none()))
    }

    /// `n_ranks` GPUs of a single DGX-A100 node.
    pub fn dgx_a100(n_ranks: usize) -> Self {
        let topo = ClusterTopology::new(MachineSpec::dgx_a100(), n_ranks);
        Self::new(CostModel::new(topo))
    }

    /// Inject a deterministic fault schedule: every rank's context and the
    /// world communicator (plus everything split off it) consult the plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(Arc::new(plan));
        self
    }

    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    pub fn n_ranks(&self) -> usize {
        self.cost.topology().n_ranks()
    }

    /// Run `f` on every rank concurrently; returns per-rank results indexed
    /// by rank. A panic in any rank aborts the world (no peer is left waiting
    /// for it) and propagates after all threads joined: the panic re-raised
    /// is the one that aborted the world, not a peer's secondary failure on
    /// the resulting `CommError::Aborted`.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        let comms = Communicator::world_set_with_faults(self.cost.clone(), self.fault.clone());
        let world = comms.first().cloned();
        let f = &f;
        let mut results = Vec::with_capacity(comms.len());
        let mut panics = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(comms.len());
            for (rank, world) in comms.into_iter().enumerate() {
                let cost = self.cost.clone();
                let fault = self.fault.clone();
                handles.push(s.spawn(move || {
                    let mut ctx = RankCtx {
                        rank,
                        clock: SimClock::new(),
                        world,
                        cost,
                        fault,
                        step: 0,
                    };
                    f(&mut ctx)
                }));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(r) => results.push(r),
                    Err(p) => panics.push((rank, p)),
                }
            }
        });
        if !panics.is_empty() {
            let first = world.and_then(|w| w.aborted_by());
            let at = panics.iter().position(|(rank, _)| Some(*rank) == first);
            std::panic::resume_unwind(panics.swap_remove(at.unwrap_or(0)).1);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommError;
    use xmoe_topology::LinkTier;

    #[test]
    fn ranks_see_their_ids_in_order() {
        let cluster = SimCluster::frontier(8);
        let out = cluster.run(|ctx| ctx.rank * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn all_to_all_v_routes_data_correctly() {
        let cluster = SimCluster::frontier(4);
        let out = cluster.run(|ctx| {
            // Rank r sends [r*10 + dst] to each dst.
            let send: Vec<Vec<u64>> = (0..4)
                .map(|dst| vec![(ctx.rank * 10 + dst) as u64])
                .collect();
            let recv = ctx.world.all_to_all_v(send, &mut ctx.clock).unwrap();
            recv.into_iter().flatten().collect::<Vec<u64>>()
        });
        for (rank, recv) in out.iter().enumerate() {
            let expect: Vec<u64> = (0..4).map(|src| (src * 10 + rank) as u64).collect();
            assert_eq!(recv, &expect, "rank {rank}");
        }
    }

    #[test]
    fn all_to_all_v_handles_uneven_and_empty_buffers() {
        let cluster = SimCluster::frontier(3);
        let out = cluster.run(|ctx| {
            // Rank r sends r copies of its id to rank 0, nothing elsewhere.
            let mut send: Vec<Vec<u32>> = vec![Vec::new(); 3];
            send[0] = vec![ctx.rank as u32; ctx.rank];
            ctx.world.all_to_all_v(send, &mut ctx.clock).unwrap()
        });
        assert_eq!(out[0], vec![vec![], vec![1], vec![2, 2]]);
        assert!(out[1].iter().all(Vec::is_empty));
        assert!(out[2].iter().all(Vec::is_empty));
    }

    #[test]
    fn clocks_synchronize_after_collective() {
        let cluster = SimCluster::frontier(8);
        let clocks = cluster.run(|ctx| {
            // Ranks start with different local compute times.
            ctx.clock
                .advance_op("unattributed", ctx.rank as f64 * 0.010);
            let send: Vec<Vec<f32>> = (0..8).map(|_| vec![1.0; 1024]).collect();
            let _ = ctx.world.all_to_all_v(send, &mut ctx.clock).unwrap();
            ctx.clock.now()
        });
        let t0 = clocks[0];
        assert!(
            t0 > 0.070,
            "collective must start at the straggler's clock, got {t0}"
        );
        for t in &clocks {
            assert!((t - t0).abs() < 1e-12, "clocks diverged: {clocks:?}");
        }
    }

    #[test]
    fn all_gather_collects_everyone() {
        let cluster = SimCluster::frontier(4);
        let out = cluster.run(|ctx| {
            let parts = ctx
                .world
                .all_gather(vec![ctx.rank as u64], &mut ctx.clock)
                .unwrap();
            parts.into_iter().flatten().collect::<Vec<u64>>()
        });
        for recv in out {
            assert_eq!(recv, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        let cluster = SimCluster::frontier(4);
        let out = cluster.run(|ctx| {
            let mut buf = vec![ctx.rank as f32, 1.0];
            ctx.world
                .all_reduce_sum_f32(&mut buf, &mut ctx.clock)
                .unwrap();
            buf
        });
        for recv in out {
            assert_eq!(recv, vec![6.0, 4.0]); // 0+1+2+3, 1*4
        }
    }

    #[test]
    fn broadcast_distributes_root_value() {
        let cluster = SimCluster::frontier(4);
        let out = cluster.run(|ctx| {
            let value = if ctx.world.rank() == 2 {
                Some(vec![7u8, 8, 9])
            } else {
                None
            };
            ctx.world.broadcast(2, value, &mut ctx.clock).unwrap()
        });
        for recv in out {
            assert_eq!(recv, vec![7, 8, 9]);
        }
    }

    #[test]
    fn split_by_node_creates_node_local_groups() {
        // 16 Frontier ranks = 2 nodes of 8.
        let cluster = SimCluster::frontier(16);
        let out = cluster.run(|ctx| {
            let node = ctx.world.cost().topology().node_of(ctx.rank);
            let node_comm = ctx.world.split(node, &mut ctx.clock).unwrap();
            let ids = node_comm
                .all_gather(vec![ctx.rank as u64], &mut ctx.clock)
                .unwrap();
            (
                node_comm.size(),
                node_comm.rank(),
                ids.into_iter().flatten().collect::<Vec<u64>>(),
            )
        });
        for (rank, (size, local, ids)) in out.iter().enumerate() {
            assert_eq!(*size, 8);
            assert_eq!(*local, rank % 8);
            let base = (rank / 8 * 8) as u64;
            assert_eq!(ids, &(base..base + 8).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn split_by_node_on_single_node_cluster_is_identity() {
        // 4 Frontier ranks fit in one node: the node communicator must be
        // the whole world, with unchanged ranks.
        let cluster = SimCluster::frontier(4);
        let out = cluster.run(|ctx| {
            let node = ctx.world.cost().topology().node_of(ctx.rank);
            let node_comm = ctx.world.split(node, &mut ctx.clock).unwrap();
            (
                node_comm.size(),
                node_comm.rank(),
                node_comm.group_ranks().to_vec(),
            )
        });
        for (rank, (size, local, globals)) in out.iter().enumerate() {
            assert_eq!(*size, 4);
            assert_eq!(*local, rank);
            assert_eq!(globals, &vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn split_by_node_handles_partial_last_node() {
        // 12 Frontier ranks = one full node of 8 plus a partial node of 4.
        let cluster = SimCluster::frontier(12);
        let out = cluster.run(|ctx| {
            let node = ctx.world.cost().topology().node_of(ctx.rank);
            let node_comm = ctx.world.split(node, &mut ctx.clock).unwrap();
            (node_comm.size(), node_comm.rank())
        });
        for (rank, (size, local)) in out.iter().enumerate() {
            if rank < 8 {
                assert_eq!(*size, 8, "rank {rank}");
                assert_eq!(*local, rank);
            } else {
                assert_eq!(*size, 4, "rank {rank}");
                assert_eq!(*local, rank - 8);
            }
        }
    }

    #[test]
    fn split_supports_multiple_collectives_after() {
        let cluster = SimCluster::frontier(8);
        let out = cluster.run(|ctx| {
            // Even/odd split, then all_reduce within each.
            let sub = ctx.world.split(ctx.rank % 2, &mut ctx.clock).unwrap();
            let mut v = vec![ctx.rank as f32];
            sub.all_reduce_sum_f32(&mut v, &mut ctx.clock).unwrap();
            v[0]
        });
        assert_eq!(out, vec![12.0, 16.0, 12.0, 16.0, 12.0, 16.0, 12.0, 16.0]);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let cluster = SimCluster::frontier(4);
        let clocks = cluster.run(|ctx| {
            ctx.clock.advance_op("unattributed", (4 - ctx.rank) as f64);
            ctx.world.barrier(&mut ctx.clock).unwrap();
            ctx.clock.now()
        });
        let t0 = clocks[0];
        assert!(clocks.iter().all(|t| (t - t0).abs() < 1e-12));
        assert!(t0 >= 4.0);
    }

    #[test]
    fn simulated_time_is_deterministic_across_runs() {
        let run = || {
            SimCluster::frontier(8).run(|ctx| {
                let send: Vec<Vec<f32>> = (0..8).map(|d| vec![0.5; (ctx.rank + d) * 100]).collect();
                let _ = ctx.world.all_to_all_v(send, &mut ctx.clock).unwrap();
                ctx.clock.now()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn larger_messages_cost_more_simulated_time() {
        let time_for = |elems: usize| {
            SimCluster::frontier(8).run(move |ctx| {
                let send: Vec<Vec<f32>> = (0..8).map(|_| vec![1.0; elems]).collect();
                let _ = ctx.world.all_to_all_v(send, &mut ctx.clock).unwrap();
                ctx.clock.now()
            })[0]
        };
        // Small messages are startup-latency bound; large ones bandwidth
        // bound, so time must grow clearly super-linearly past the knee.
        assert!(time_for(2_000_000) > 5.0 * time_for(1_000));
    }

    #[test]
    fn link_degradation_stretches_collective_time() {
        let clean = SimCluster::frontier(16);
        let degraded = SimCluster::frontier(16).with_faults(FaultPlan::new(7).degrade(
            LinkTier::Inter,
            3.0,
            0,
            u64::MAX,
        ));
        let run = |cluster: &SimCluster| {
            cluster.run(|ctx| {
                let n = ctx.n_ranks();
                let send: Vec<Vec<f32>> = (0..n).map(|_| vec![1.0; 100_000]).collect();
                let _ = ctx.world.all_to_all_v(send, &mut ctx.clock).unwrap();
                ctx.clock.now()
            })[0]
        };
        let (t_clean, t_degraded) = (run(&clean), run(&degraded));
        assert!(
            t_degraded > 2.0 * t_clean,
            "3x inter-node degradation must clearly slow the all-to-all: \
             clean {t_clean}, degraded {t_degraded}"
        );
    }

    #[test]
    fn dead_rank_fails_survivors_at_the_same_collective() {
        let plan = FaultPlan::new(7).kill(3, 2);
        let cluster = SimCluster::frontier(4).with_faults(plan);
        let out = cluster.run(|ctx| {
            // Step 1: everyone is alive, collective succeeds.
            ctx.set_step(1);
            let mut v = vec![1.0f32];
            ctx.world
                .all_reduce_sum_f32(&mut v, &mut ctx.clock)
                .unwrap();
            // Step 2: rank 3 is dead; survivors must all see DeadPeer
            // without deadlocking, and the dead rank must not communicate.
            ctx.set_step(2);
            if ctx
                .fault_plan()
                .is_some_and(|p| p.is_dead(ctx.rank, ctx.step()))
            {
                return None;
            }
            let mut v = vec![1.0f32];
            Some(ctx.world.all_reduce_sum_f32(&mut v, &mut ctx.clock))
        });
        for (rank, res) in out.iter().enumerate() {
            match (rank, res) {
                (3, None) => {}
                (
                    _,
                    Some(Err(CommError::DeadPeer {
                        global_rank: 3,
                        step: 2,
                    })),
                ) => {}
                other => panic!("unexpected outcome for rank {rank}: {other:?}"),
            }
        }
    }

    #[test]
    fn p2p_transfers_data_and_charges_sender_once() {
        let cluster = SimCluster::frontier(2);
        let out = cluster.run(|ctx| {
            let mut stash = crate::P2pStash::new();
            if ctx.rank == 0 {
                ctx.world
                    .send_p2p(1, 7, vec![1.0f32, 2.0, 3.0], &mut ctx.clock)
                    .unwrap();
                ctx.clock.commit("pp_send");
                (vec![], ctx.clock.now(), ctx.clock.bucket("pp_send"))
            } else {
                let data: Vec<f32> = ctx
                    .world
                    .recv_p2p(0, 7, &mut stash, &mut ctx.clock)
                    .unwrap();
                ctx.clock.commit("pp_recv");
                (data, ctx.clock.now(), ctx.clock.bucket("sync_wait:pp_recv"))
            }
        });
        let (_, t_send, work_send) = &out[0];
        let (data, t_recv, wait_recv) = &out[1];
        assert_eq!(data, &vec![1.0, 2.0, 3.0]);
        // Transfer time is charged exactly once: all of it as sender work,
        // and the receiver (idle from t=0) sees the same span as sync-wait.
        assert!(*t_send > 0.0, "priced transfer must take time");
        assert!((t_send - t_recv).abs() < 1e-12, "recv must sync to stamp");
        assert!((work_send - t_send).abs() < 1e-12);
        assert!((wait_recv - t_recv).abs() < 1e-12);
    }

    #[test]
    fn p2p_tags_match_out_of_order_via_stash() {
        let cluster = SimCluster::frontier(2);
        let out = cluster.run(|ctx| {
            let mut stash = crate::P2pStash::new();
            if ctx.rank == 0 {
                // Send tag 2 first; the receiver asks for tag 1 first.
                ctx.world
                    .send_p2p(1, 2, vec![20u32], &mut ctx.clock)
                    .unwrap();
                ctx.world
                    .send_p2p(1, 1, vec![10u32], &mut ctx.clock)
                    .unwrap();
                vec![]
            } else {
                let a: Vec<u32> = ctx
                    .world
                    .recv_p2p(0, 1, &mut stash, &mut ctx.clock)
                    .unwrap();
                let b: Vec<u32> = ctx
                    .world
                    .recv_p2p(0, 2, &mut stash, &mut ctx.clock)
                    .unwrap();
                assert!(stash.is_empty(), "all parked messages consumed");
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out[1], vec![10, 20]);
    }

    #[test]
    fn p2p_preserves_span_exactness() {
        let cluster = SimCluster::frontier(4);
        let out = cluster.run(|ctx| {
            let mut stash = crate::P2pStash::new();
            // Ring: each rank sends to rank+1 and receives from rank-1,
            // with unequal local compute first so waits are non-trivial.
            ctx.clock.charge("local", (1 + ctx.rank) as f64 * 1e-3);
            let nxt = (ctx.rank + 1) % 4;
            let prv = (ctx.rank + 3) % 4;
            ctx.world
                .send_p2p(nxt, 0, vec![ctx.rank as u64; 512], &mut ctx.clock)
                .unwrap();
            ctx.clock.commit("pp_send");
            let got: Vec<u64> = ctx
                .world
                .recv_p2p(prv, 0, &mut stash, &mut ctx.clock)
                .unwrap();
            ctx.clock.commit("pp_recv");
            assert_eq!(got, vec![prv as u64; 512]);
            let accounted: f64 = ctx.clock.buckets().iter().map(|(_, t)| t).sum();
            (ctx.clock.now(), accounted)
        });
        for (rank, (now, accounted)) in out.iter().enumerate() {
            assert!(
                (now - accounted).abs() < 1e-12,
                "rank {rank}: buckets {accounted} must sum to clock {now}"
            );
        }
    }

    #[test]
    fn p2p_send_to_dead_peer_fails_cleanly() {
        let plan = FaultPlan::new(7).kill(1, 1);
        let cluster = SimCluster::frontier(2).with_faults(plan);
        let out = cluster.run(|ctx| {
            ctx.set_step(1);
            if ctx.rank == 1 {
                return None;
            }
            Some(ctx.world.send_p2p(1, 0, vec![1u8], &mut ctx.clock))
        });
        match &out[0] {
            Some(Err(CommError::DeadPeer {
                global_rank: 1,
                step: 1,
            })) => {}
            other => panic!("expected DeadPeer, got {other:?}"),
        }
    }

    #[test]
    fn survivors_split_and_continue_after_a_death() {
        let plan = FaultPlan::new(7).kill(3, 1);
        let cluster = SimCluster::frontier(4).with_faults(plan);
        let out = cluster.run(|ctx| {
            ctx.set_step(1);
            if ctx
                .fault_plan()
                .is_some_and(|p| p.is_dead(ctx.rank, ctx.step()))
            {
                return None;
            }
            // Survivors re-form a communicator (split skips the dead rank)
            // and keep doing collectives on it.
            let sub = ctx.world.split(0, &mut ctx.clock).unwrap();
            let mut v = vec![ctx.rank as f32];
            sub.all_reduce_sum_f32(&mut v, &mut ctx.clock).unwrap();
            Some((sub.size(), sub.group_ranks().to_vec(), v[0]))
        });
        assert_eq!(out[3], None);
        for survivor in &out[..3] {
            let (size, globals, sum) = survivor.clone().unwrap();
            assert_eq!(size, 3);
            assert_eq!(globals, vec![0, 1, 2]);
            assert_eq!(sum, 3.0); // 0 + 1 + 2
        }
    }

    #[test]
    fn grow_reunites_survivors_with_a_rejoined_rank() {
        // Rank 3 dies at step 1 and rejoins at step 3: the survivors shrink
        // via split, work on the sub-communicator, then all four ranks
        // rendezvous via grow and all-reduce over the full world again.
        let plan = FaultPlan::new(7).kill(3, 1).join(3, 3);
        let cluster = SimCluster::frontier(4).with_faults(plan);
        let out = cluster.run(|ctx| {
            ctx.set_step(1);
            if ctx
                .fault_plan()
                .is_some_and(|p| p.is_dead(ctx.rank, ctx.step()))
            {
                // The dead rank sleeps through the shrunken phase, then
                // takes part in the grow rendezvous at its join step.
                ctx.set_step(3);
                let regrown = ctx.world.grow(&[0, 1, 2, 3], &mut ctx.clock).unwrap();
                let mut v = vec![ctx.rank as f32];
                regrown.all_reduce_sum_f32(&mut v, &mut ctx.clock).unwrap();
                return (regrown.size(), regrown.rank(), v[0]);
            }
            let sub = ctx.world.split(0, &mut ctx.clock).unwrap();
            let mut v = vec![ctx.rank as f32];
            sub.all_reduce_sum_f32(&mut v, &mut ctx.clock).unwrap();
            assert_eq!(v[0], 3.0);
            ctx.set_step(3);
            let regrown = ctx.world.grow(&[0, 1, 2, 3], &mut ctx.clock).unwrap();
            let mut v = vec![ctx.rank as f32];
            regrown.all_reduce_sum_f32(&mut v, &mut ctx.clock).unwrap();
            (regrown.size(), regrown.rank(), v[0])
        });
        for (rank, (size, local, sum)) in out.iter().enumerate() {
            assert_eq!(*size, 4);
            assert_eq!(*local, rank);
            assert_eq!(*sum, 6.0); // 0 + 1 + 2 + 3
        }
    }

    #[test]
    fn grow_aligns_member_clocks() {
        let cluster = SimCluster::frontier(4);
        let clocks = cluster.run(|ctx| {
            ctx.clock.advance_op("unattributed", (ctx.rank + 1) as f64);
            let g = ctx.world.grow(&[0, 1, 2, 3], &mut ctx.clock).unwrap();
            assert_eq!(g.group_ranks(), &[0, 1, 2, 3]);
            ctx.clock.now()
        });
        let t0 = clocks[0];
        assert!(clocks.iter().all(|t| (t - t0).abs() < 1e-12));
        assert!(t0 >= 4.0);
    }
}
