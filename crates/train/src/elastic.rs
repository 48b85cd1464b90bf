//! Elastic training: the histogram-driven rebalance policy over replicated
//! and migrated expert assignments (the training-side twin of the PR 7
//! placement solver).
//!
//! * [`ExpertAssignment`] (defined beside `ExpertPlacement` in
//!   `xmoe-topology`, re-exported here) — which EP ranks hold which global
//!   expert. The classic layout (contiguous, one holder each) is one point
//!   in the space; migration rewrites a holder, replication adds one, and
//!   ragged worlds (expert count not divisible by world size) get a
//!   balanced contiguous split with per-rank counts in `{⌊E/W⌋, ⌈E/W⌉}`.
//!   The one expert route (`xmoe_core::route::EpRoute`) dispatches over any
//!   of them, serial or chunk-pipelined, so nothing here knows about the
//!   exchange.
//! * [`RebalancePolicy`] — feeds per-window routing skew to a reused
//!   [`SpikeDetector`], and when it trips (or the skew threshold is
//!   crossed) prices *migrate* (the PR 7 [`optimize_placement`] solve)
//!   against *replicate-the-hottest-expert* with [`assignment_cost`]
//!   ([`CostModel::sparse_exchange_time`] under the serving stripe),
//!   committing the winner only if it is strictly cheaper than the current
//!   assignment — the same never-worse contract `optimize_placement` gives
//!   against naive.
//! * [`RebalancePolicy::close_window`] — the one rebalance commit, called by
//!   the chaos engine and `bench elastic` alike: merge the window's routes,
//!   decide, snapshot, price the transfer and rebuild the model.
//!
//! Determinism: every decision input (merged histogram, current
//! assignment, cost model) is identical on all ranks, so all ranks pick
//! the identical action with no extra coordination; the migration itself
//! round-trips through the rank-agnostic in-memory checkpoint capture, so
//! the post-migration model is bitwise what a fresh run launched in the
//! new layout would hold.

use xmoe_collectives::{CommError, Communicator, SimClock};
pub use xmoe_topology::{assignment_cost, ExpertAssignment};
use xmoe_topology::{optimize_placement, CostModel, PlacementCost, RoutingHistogram};

use crate::checkpoint::Checkpoint;
use crate::dist::DistMoeLm;
use crate::guard::{SpikeDetector, Verdict};
use crate::model::TrainConfig;

/// Cap on retained route samples per window (loads keep counting past it;
/// pricing rescales — see [`RoutingHistogram`]).
const MAX_ROUTE_SAMPLES: usize = 4096;

/// Cap on committed rebalances per run: keeps a long run from thrashing, and
/// makes the post-migration trajectory final.
const MAX_ACTIONS: usize = 1;

/// The drift detector ([`SpikeDetector`]) over the per-window skew series:
/// a skew above `SPIKE_FACTOR` × the median of the last `SPIKE_WINDOW`
/// windows, once `SPIKE_MIN_HISTORY` are in, triggers evaluation even below
/// the threshold.
const SPIKE_FACTOR: f64 = 2.0;
const SPIKE_WINDOW: usize = 8;
const SPIKE_MIN_HISTORY: usize = 4;

/// Knobs of the live-rebalance policy.
#[derive(Clone, Copy, Debug)]
pub struct RebalanceConfig {
    /// Skew trigger: evaluate candidates when the window's max-over-mean
    /// expert load reaches this (the CLI's `--rebalance <threshold>`).
    pub threshold: f64,
    /// Profiling window in steps; the histogram merges and the policy
    /// evaluates every `every` steps.
    pub every: u64,
}

/// What one committed rebalance did, for the report/trace.
#[derive(Clone, Debug)]
pub struct RebalanceDecision {
    /// Step the new assignment takes effect at.
    pub step: u64,
    /// `"migrate"` or `"replicate"`.
    pub kind: &'static str,
    /// Experts whose holder set changed.
    pub moved_experts: Vec<usize>,
    /// Priced dispatch time under the old / new assignment.
    pub dispatch_before: f64,
    pub dispatch_after: f64,
    /// Weight + optimizer bytes the transfer moved (from the model
    /// dimensions).
    pub migration_bytes: u64,
}

/// Histogram-driven rebalance: skew detection plus priced candidate
/// selection with the never-worse acceptance rule.
pub struct RebalancePolicy {
    cfg: RebalanceConfig,
    detector: SpikeDetector,
    actions: usize,
}

impl RebalancePolicy {
    pub fn new(cfg: RebalanceConfig) -> Self {
        let detector = SpikeDetector::new(SPIKE_FACTOR, SPIKE_WINDOW, SPIKE_MIN_HISTORY);
        Self {
            cfg,
            detector,
            actions: 0,
        }
    }

    /// Close the profiling window that ends after `step` completed steps (a
    /// no-op off the `every` boundary). The window's routes are merged in
    /// dense-rank order, so every rank sees the identical histogram and
    /// reaches the identical decision with no extra agreement round. On a
    /// commit the live state (weights + Adam moments, rank-agnostic keying)
    /// is snapshotted at `(step, rng_state)`, the expert transfers are
    /// charged as `elastic_migrate`, and `model` is rebuilt under the new
    /// assignment with route tracking on. Replicas are bitwise copies of
    /// their primary, so the run continues exactly as a fresh run launched
    /// in that layout from the returned snapshot would.
    pub fn close_window(
        &mut self,
        model: &mut DistMoeLm,
        cfg: &TrainConfig,
        step: u64,
        rng_state: u64,
        comm: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Option<(RebalanceDecision, Checkpoint)>, CommError> {
        if self.cfg.every == 0 || !step.is_multiple_of(self.cfg.every) {
            return Ok(None);
        }
        let gathered = comm.all_gather(model.take_route_samples(), clock)?;
        clock.commit("elastic_histogram");
        let mut hist = RoutingHistogram::new(cfg.num_experts, comm.size(), MAX_ROUTE_SAMPLES);
        for (src, experts) in gathered.iter().flatten() {
            let experts: Vec<usize> = experts.iter().map(|&e| e as usize).collect();
            hist.observe(*src as usize, &experts);
        }
        let old = model.assignment().clone();
        // Dispatch payload per routed token: one f32 hidden row.
        let bpt = 4 * cfg.hidden as u64;
        let Some((new_asg, kind)) = self.observe_window(&hist, &old, comm.cost(), bpt) else {
            return Ok(None);
        };
        let ckpt = model.capture_checkpoint(step, rng_state, comm, clock)?;
        let moved = old.changed_experts(&new_asg);
        let grp = comm.group_ranks();
        // Per expert per layer: w1|m|v and w2|m|v.
        let per_expert = 6 * cfg.hidden as u64 * cfg.ffn as u64 * 4 * cfg.layers as u64;
        let mut migration_bytes = 0u64;
        let mut t_mig = 0.0f64;
        for &g in &moved {
            let src = grp[old.primary(g)];
            for &h in new_asg.holders(g) {
                if !old.holders(g).contains(&h) {
                    migration_bytes += per_expert;
                    t_mig += comm.cost().p2p_time(src, grp[h], per_expert);
                }
            }
        }
        clock.charge("elastic_migrate", t_mig);
        let before = assignment_cost(&old, &hist, comm.cost(), bpt);
        let after = assignment_cost(&new_asg, &hist, comm.cost(), bpt);
        *model = DistMoeLm::from_checkpoint_with_assignment(cfg, &ckpt, comm.rank(), new_asg);
        model.set_route_tracking(true);
        let decision = RebalanceDecision {
            step,
            kind,
            moved_experts: moved,
            dispatch_before: before.dispatch_time,
            dispatch_after: after.dispatch_time,
            migration_bytes,
        };
        Ok(Some((decision, ckpt)))
    }

    /// Observe one window's skew, and if the detector trips (or the
    /// threshold is crossed) price the candidates at `bpt` dispatch bytes
    /// per routed token and return the new assignment when one strictly
    /// beats the current one.
    ///
    /// Deterministic: given identical inputs every rank returns the
    /// identical decision.
    fn observe_window(
        &mut self,
        hist: &RoutingHistogram,
        current: &ExpertAssignment,
        cost: &CostModel,
        bpt: u64,
    ) -> Option<(ExpertAssignment, &'static str)> {
        let skew = hist.skew();
        let spiked = matches!(self.detector.observe(skew), Verdict::Spike { .. });
        if self.actions >= MAX_ACTIONS {
            return None;
        }
        if !spiked && skew < self.cfg.threshold {
            return None;
        }
        let before = assignment_cost(current, hist, cost, bpt);

        // Candidate A: full migrate via the PR 7 solver (primary holders
        // only; replicas collapse onto their primaries first).
        let solved = optimize_placement(hist, cost, bpt);
        let migrate = ExpertAssignment::from_placement(&solved);

        // Candidate B: replicate the hottest expert onto the least-loaded
        // rank not yet holding it (ties to the lowest index on both sides).
        let replicate = Self::replicate_candidate(hist, current);

        let mut best: Option<(ExpertAssignment, &'static str, PlacementCost)> = None;
        for (cand, kind) in [(Some(migrate), "migrate"), (replicate, "replicate")] {
            let Some(cand) = cand else { continue };
            if cand == *current {
                continue;
            }
            let after = assignment_cost(&cand, hist, cost, bpt);
            // Never-worse: strictly faster dispatch, no added off-node
            // traffic — the optimize_placement contract, held against the
            // *live* assignment rather than naive.
            if after.dispatch_time >= before.dispatch_time
                || after.off_node_bytes > before.off_node_bytes
            {
                continue;
            }
            let better = match &best {
                None => true,
                Some((_, _, b)) => after.dispatch_time < b.dispatch_time,
            };
            if better {
                best = Some((cand, kind, after));
            }
        }
        let (cand, kind, _) = best?;
        self.actions += 1;
        Some((cand, kind))
    }

    /// Build the replicate-hottest candidate, or `None` when every rank already
    /// holds the hot expert.
    fn replicate_candidate(
        hist: &RoutingHistogram,
        current: &ExpertAssignment,
    ) -> Option<ExpertAssignment> {
        let hot = (0..hist.n_experts).max_by_key(|&e| (hist.expert_load[e], usize::MAX - e))?;
        // Least-loaded rank by hosted (token, expert) pairs under the
        // serving stripe, among ranks not yet holding the hot expert.
        let n = current.n_ranks();
        let mut rank_pairs = vec![0u64; n];
        for r in &hist.routes {
            for &e in &r.experts {
                rank_pairs[current.serving_rank(e as usize, r.src_rank as usize)] += 1;
            }
        }
        let target = (0..n)
            .filter(|r| !current.holders(hot).contains(r))
            .min_by_key(|&r| (rank_pairs[r], r))?;
        let mut cand = current.clone();
        cand.replicate(hot, target);
        Some(cand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_matches_classic_layout_when_divisible() {
        let a = ExpertAssignment::contiguous(8, 4);
        for e in 0..8 {
            assert_eq!(a.holders(e), &[e / 2]);
            assert_eq!(a.serving_rank(e, 3), e / 2);
        }
        assert_eq!(a.experts_on(2), vec![4, 5]);
    }

    #[test]
    fn contiguous_ragged_split_is_balanced_with_no_empty_rank() {
        let a = ExpertAssignment::contiguous(8, 3);
        let sizes: Vec<usize> = (0..3).map(|r| a.experts_on(r).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3), "{sizes:?}");
        // Contiguity: each rank's experts are a consecutive range.
        for r in 0..3 {
            let ex = a.experts_on(r);
            assert!(ex.windows(2).all(|w| w[1] == w[0] + 1));
        }
    }

    #[test]
    fn replication_stripes_sources_across_holders() {
        let mut a = ExpertAssignment::contiguous(4, 2);
        a.replicate(0, 1);
        assert_eq!(a.holders(0), &[0, 1]);
        assert_eq!(a.serving_rank(0, 0), 0);
        assert_eq!(a.serving_rank(0, 1), 1);
        assert_eq!(a.primary(0), 0);
        assert_eq!(a.replicated_experts(), vec![0]);
        // Both holders list expert 0 in their local shard.
        assert_eq!(a.experts_on(0), vec![0, 1]);
        assert_eq!(a.experts_on(1), vec![0, 2, 3]);
        assert_eq!(a.changed_experts(&ExpertAssignment::contiguous(4, 2)), [0]);
    }

    #[test]
    fn migrate_rewrites_the_holder() {
        let mut a = ExpertAssignment::contiguous(4, 2);
        a.migrate(3, 0);
        assert_eq!(a.holders(3), &[0]);
        assert_eq!(a.experts_on(0), vec![0, 1, 3]);
        assert_eq!(a.experts_on(1), vec![2]);
    }
}
