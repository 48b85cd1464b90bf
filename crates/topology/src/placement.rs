//! Placement: process grids (paper Appendix C.1) and expert→rank
//! placement solved from observed routing histograms (MoETuner-style).
//!
//! Combining expert parallelism (EP) and data parallelism (DP) over the same
//! GPUs forces a locality trade-off:
//!
//! * **EP-first** packs one full expert set into consecutive ranks (within a
//!   node when EP size ≤ node size) and replicates that set across nodes —
//!   token routing (all-to-all) stays local, gradient synchronization
//!   (all-reduce) crosses nodes.
//! * **DP-first** packs the replicas of each expert into consecutive ranks
//!   and spreads distinct experts across nodes — gradient sync stays local,
//!   token routing crosses nodes.
//!
//! The paper shows DP-first wins for large MoEs on Frontier because DP
//! volume is linear in parameters while EP volume is linear in tokens.
//! [`build_grid`] realizes both layouts; an optional innermost TP dimension
//! supports the SSMB/TED analyses.

/// Which parallel dimension varies fastest across consecutive global ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// EP varies fastest: ranks `[g*ep, (g+1)*ep)` form EP group `g`
    /// (DeepSpeed-MoE's default layout).
    #[default]
    EpFirst,
    /// DP varies fastest: consecutive ranks hold replicas of the same
    /// experts; EP groups stride by the DP size (X-MoE's layout on Frontier).
    DpFirst,
}

/// The rank groups of a (TP ×) EP × DP process grid.
#[derive(Clone, Debug)]
pub struct ProcessGrid {
    /// Global rank count.
    pub n_ranks: usize,
    /// Tensor-parallel group size (1 = no TP). TP is always innermost
    /// (consecutive ranks), because TP all-reduces are per-microbatch and
    /// must use the fastest links.
    pub tp_size: usize,
    pub ep_size: usize,
    pub dp_size: usize,
    pub policy: PlacementPolicy,
    /// `ep_groups[g]` lists the global ranks forming EP group `g` (each
    /// entry represents a TP group leader when `tp_size > 1`).
    pub ep_groups: Vec<Vec<usize>>,
    /// `dp_groups[g]` lists the ranks that hold replicas of the same expert
    /// shard and all-reduce gradients together.
    pub dp_groups: Vec<Vec<usize>>,
    /// `tp_groups[g]` lists the consecutive ranks of each TP group.
    pub tp_groups: Vec<Vec<usize>>,
}

/// Build an EP × DP grid over `n_ranks` GPUs (no TP).
pub fn build_grid(n_ranks: usize, ep_size: usize, policy: PlacementPolicy) -> ProcessGrid {
    build_grid_tp(n_ranks, 1, ep_size, policy)
}

/// Build a TP × EP × DP grid. `n_ranks` must equal
/// `tp_size * ep_size * dp_size` for some integer `dp_size >= 1`.
pub fn build_grid_tp(
    n_ranks: usize,
    tp_size: usize,
    ep_size: usize,
    policy: PlacementPolicy,
) -> ProcessGrid {
    assert!(tp_size >= 1 && ep_size >= 1, "grid dims must be positive");
    assert_eq!(
        n_ranks % (tp_size * ep_size),
        0,
        "{} ranks not divisible by tp {} x ep {}",
        n_ranks,
        tp_size,
        ep_size
    );
    let dp_size = n_ranks / (tp_size * ep_size);
    let leaders = n_ranks / tp_size; // one logical worker per TP group

    // Leader index l -> (ep position, dp position) per policy.
    type PosFn = Box<dyn Fn(usize) -> usize>;
    let (ep_of, dp_of): (PosFn, PosFn) = match policy {
        PlacementPolicy::EpFirst => (
            Box::new(move |l: usize| l % ep_size),
            Box::new(move |l: usize| l / ep_size),
        ),
        PlacementPolicy::DpFirst => (
            Box::new(move |l: usize| l / dp_size),
            Box::new(move |l: usize| l % dp_size),
        ),
    };

    let mut ep_groups = vec![Vec::with_capacity(ep_size); dp_size];
    let mut dp_groups = vec![Vec::with_capacity(dp_size); ep_size];
    for l in 0..leaders {
        let rank = l * tp_size; // TP-group leader rank
        ep_groups[dp_of(l)].push(rank);
        dp_groups[ep_of(l)].push(rank);
    }
    for g in &mut ep_groups {
        g.sort_unstable_by_key(|&r| ep_of(r / tp_size));
    }
    for g in &mut dp_groups {
        g.sort_unstable_by_key(|&r| dp_of(r / tp_size));
    }

    let tp_groups = (0..leaders)
        .map(|l| (l * tp_size..(l + 1) * tp_size).collect())
        .collect();

    ProcessGrid {
        n_ranks,
        tp_size,
        ep_size,
        dp_size,
        policy,
        ep_groups,
        dp_groups,
        tp_groups,
    }
}

/// Build an EP × DP grid over the survivors of a partial failure: the ranks
/// of `excluded` (a failed node, typically) are dropped and the remaining
/// *original* global ranks are packed into a fresh grid in ascending order.
///
/// Group members are original global rank ids, so a survivor can find its
/// post-recovery EP/DP peers in the grid's groups before the shrunken
/// communicator even exists; its new dense rank is its position in
/// the survivor list. The survivor count must still be divisible by
/// `ep_size` — elastic recovery drops whole nodes so the expert shards stay
/// rebalanceable.
pub fn build_grid_excluding(
    n_ranks: usize,
    excluded: &[usize],
    ep_size: usize,
    policy: PlacementPolicy,
) -> ProcessGrid {
    let survivors: Vec<usize> = (0..n_ranks).filter(|r| !excluded.contains(r)).collect();
    assert!(
        !survivors.is_empty(),
        "cannot build a grid with every rank excluded"
    );
    let mut grid = build_grid(survivors.len(), ep_size, policy);
    for groups in [
        &mut grid.ep_groups,
        &mut grid.dp_groups,
        &mut grid.tp_groups,
    ] {
        for grp in groups.iter_mut() {
            for r in grp.iter_mut() {
                *r = survivors[*r];
            }
        }
    }
    grid
}

// ---------------------------------------------------------------------
// Expert → rank placement from observed routing histograms (MoETuner-style:
// balance expert load across ranks and pack co-activated experts onto the
// same node so hierarchical dispatch sends one copy per node instead of
// one per expert).
// ---------------------------------------------------------------------

use crate::cost::CostModel;

/// An assignment of every global expert to a serving rank. No rank ever
/// holds more than `ceil(n_experts / n_ranks)` experts (the per-rank slot
/// budget), so placements are always applicable by swapping expert
/// weights between ranks. Ragged shapes — an expert count that does not
/// divide the rank count, or fewer experts than ranks — are first-class:
/// round-robin dealing and the solver both respect the ceiling budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpertPlacement {
    /// `expert_to_rank[e]` is the rank holding global expert `e`.
    pub expert_to_rank: Vec<usize>,
    pub n_ranks: usize,
}

impl ExpertPlacement {
    /// The naive round-robin baseline: expert `e` lives on rank
    /// `e % n_ranks` (DeepSpeed-style dealing, ignorant of routing). For
    /// ragged shapes the first `n_experts % n_ranks` ranks hold one more
    /// expert than the rest; with `n_experts < n_ranks` the tail ranks
    /// simply host none.
    pub fn naive(n_experts: usize, n_ranks: usize) -> Self {
        assert!(n_ranks >= 1, "placement needs at least one rank");
        Self {
            expert_to_rank: (0..n_experts).map(|e| e % n_ranks).collect(),
            n_ranks,
        }
    }

    pub fn n_experts(&self) -> usize {
        self.expert_to_rank.len()
    }

    pub fn rank_of(&self, expert: usize) -> usize {
        self.expert_to_rank[expert]
    }

    /// Experts hosted on `rank`, ascending.
    pub fn experts_on(&self, rank: usize) -> Vec<usize> {
        (0..self.n_experts())
            .filter(|&e| self.expert_to_rank[e] == rank)
            .collect()
    }

    /// Number of experts whose rank differs between two placements (the
    /// migration volume applying the new placement must move).
    pub fn migrated_experts(&self, other: &ExpertPlacement) -> usize {
        assert_eq!(self.n_experts(), other.n_experts());
        self.expert_to_rank
            .iter()
            .zip(&other.expert_to_rank)
            .filter(|(a, b)| a != b)
            .count()
    }
}

/// Which EP ranks hold which global expert: `holders[e]` is the ascending,
/// non-empty set of ranks carrying a full copy of expert `e`'s weights and
/// optimizer moments. [`ExpertPlacement`] with replicas: the classic layout
/// (contiguous, one holder each) is one point in the space; migration
/// rewrites a holder, replication adds one.
///
/// A source rank `s` routes expert `e`'s tokens to
/// `holders[e][s % holders[e].len()]` — a static stripe that splits a
/// replicated expert's traffic (and its expert GEMM) across the holders
/// without any per-token coordination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpertAssignment {
    holders: Vec<Vec<usize>>,
    /// `locals[r]`: the experts rank `r` holds, ascending — `holders`
    /// inverted, kept so a route build never scans the holder sets.
    locals: Vec<Vec<usize>>,
}

/// `holders` inverted: the ascending expert list of each of `n_ranks` ranks.
fn local_lists(holders: &[Vec<usize>], n_ranks: usize) -> Vec<Vec<usize>> {
    let mut locals = vec![Vec::new(); n_ranks];
    for (e, ranks) in holders.iter().enumerate() {
        for &r in ranks {
            locals[r].push(e);
        }
    }
    locals
}

impl ExpertAssignment {
    /// Balanced contiguous split: rank `r` holds experts
    /// `r·E/W .. (r+1)·E/W` (integer bounds). Divisible shapes reproduce
    /// the classic `E/W`-per-rank layout exactly; ragged shapes give every
    /// rank `⌊E/W⌋` or `⌈E/W⌉` experts with no empty tail (the PR 8
    /// `div_ceil` budget, spread instead of front-loaded).
    pub fn contiguous(n_experts: usize, n_ranks: usize) -> Self {
        assert!(n_ranks >= 1, "assignment needs at least one rank");
        assert!(
            n_experts >= n_ranks,
            "cannot shard {n_experts} experts over {n_ranks} ranks: \
             every EP rank must host at least one expert"
        );
        // Consecutive ranges tiling 0..E, so extending in rank order is
        // indexing by expert.
        let mut holders = Vec::with_capacity(n_experts);
        for r in 0..n_ranks {
            let held = (r * n_experts / n_ranks)..((r + 1) * n_experts / n_ranks);
            holders.extend(held.map(|_| vec![r]));
        }
        let locals = local_lists(&holders, n_ranks);
        Self { holders, locals }
    }

    /// Adopt a solved placement (each expert on exactly one rank).
    pub fn from_placement(p: &ExpertPlacement) -> Self {
        let holders: Vec<Vec<usize>> = p.expert_to_rank.iter().map(|&r| vec![r]).collect();
        let locals = local_lists(&holders, p.n_ranks);
        Self { holders, locals }
    }

    pub fn n_experts(&self) -> usize {
        self.holders.len()
    }

    pub fn n_ranks(&self) -> usize {
        self.locals.len()
    }

    /// Ranks holding expert `e`, ascending.
    pub fn holders(&self, e: usize) -> &[usize] {
        &self.holders[e]
    }

    /// Canonical owner of expert `e` (lowest-ranked holder) — the copy
    /// checkpoints and scatters read.
    pub fn primary(&self, e: usize) -> usize {
        self.holders[e][0]
    }

    /// The rank source `src` sends expert `e`'s tokens to.
    pub fn serving_rank(&self, e: usize, src: usize) -> usize {
        let h = &self.holders[e];
        h[src % h.len()]
    }

    /// Global experts hosted on `rank`, ascending — the order of the
    /// rank's local shard.
    pub fn experts_on(&self, rank: usize) -> &[usize] {
        &self.locals[rank]
    }

    /// Experts with more than one holder, ascending.
    pub fn replicated_experts(&self) -> Vec<usize> {
        (0..self.holders.len())
            .filter(|&e| self.holders[e].len() > 1)
            .collect()
    }

    /// Move expert `e` to be held by `to` alone.
    pub fn migrate(&mut self, e: usize, to: usize) {
        assert!(to < self.n_ranks(), "migration target out of range");
        self.holders[e] = vec![to];
        self.locals = local_lists(&self.holders, self.n_ranks());
    }

    /// Add `rank` as a holder of expert `e` (no-op if already holding).
    pub fn replicate(&mut self, e: usize, rank: usize) {
        assert!(rank < self.n_ranks(), "replica target out of range");
        if !self.holders[e].contains(&rank) {
            self.holders[e].push(rank);
            self.holders[e].sort_unstable();
            self.locals = local_lists(&self.holders, self.n_ranks());
        }
    }

    /// Experts whose holder set differs from `other`'s — each one's
    /// weights + moments must move (or copy) to apply `other`.
    pub fn changed_experts(&self, other: &ExpertAssignment) -> Vec<usize> {
        assert_eq!(self.n_experts(), other.n_experts());
        (0..self.holders.len())
            .filter(|&e| self.holders[e] != other.holders[e])
            .collect()
    }
}

/// One observed token route: the source rank it was served on and the
/// expert set its top-k gating selected.
#[derive(Clone, Debug)]
pub struct RouteSample {
    pub src_rank: u32,
    pub experts: Vec<u16>,
}

/// Live routing statistics collected over a profiling window: per-expert
/// loads plus a sample of full token routes (the co-activation structure
/// the per-expert marginals cannot express). `total_routed` counts every
/// (token, expert) pair in the window; the samples are scaled up by
/// `total_routed / sampled_routed` when pricing, so a capped sample buffer
/// still prices the whole window.
#[derive(Clone, Debug)]
pub struct RoutingHistogram {
    pub n_experts: usize,
    pub n_ranks: usize,
    /// (token, expert) pairs routed to each expert over the window.
    pub expert_load: Vec<u64>,
    /// Sampled token routes (capped; see [`RoutingHistogram::observe`]).
    pub routes: Vec<RouteSample>,
    /// All (token, expert) pairs observed, sampled or not.
    pub total_routed: u64,
    /// (token, expert) pairs covered by `routes`.
    pub sampled_routed: u64,
    max_samples: usize,
}

impl RoutingHistogram {
    /// `max_samples` caps the retained route buffer; loads keep counting
    /// past the cap and pricing rescales accordingly.
    pub fn new(n_experts: usize, n_ranks: usize, max_samples: usize) -> Self {
        assert!(max_samples >= 1, "histogram needs at least one sample slot");
        Self {
            n_experts,
            n_ranks,
            expert_load: vec![0; n_experts],
            routes: Vec::new(),
            total_routed: 0,
            sampled_routed: 0,
            max_samples,
        }
    }

    /// Record one token's route.
    pub fn observe(&mut self, src_rank: usize, experts: &[usize]) {
        for &e in experts {
            debug_assert!(e < self.n_experts);
            self.expert_load[e] += 1;
        }
        self.total_routed += experts.len() as u64;
        if self.routes.len() < self.max_samples {
            self.sampled_routed += experts.len() as u64;
            self.routes.push(RouteSample {
                src_rank: src_rank as u32,
                experts: experts.iter().map(|&e| e as u16).collect(),
            });
        }
    }

    /// Reset for the next profiling window.
    pub fn clear(&mut self) {
        self.expert_load.iter_mut().for_each(|l| *l = 0);
        self.routes.clear();
        self.total_routed = 0;
        self.sampled_routed = 0;
    }

    /// Max-over-mean expert load: 1.0 = perfectly uniform routing. The
    /// drift statistic the serving engine feeds its spike detector.
    pub fn skew(&self) -> f64 {
        let total: u64 = self.expert_load.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = *self.expert_load.iter().max().unwrap() as f64;
        max / (total as f64 / self.n_experts as f64)
    }

    /// Scale factor from the sampled routes to the full window.
    fn sample_scale(&self) -> f64 {
        if self.sampled_routed == 0 {
            0.0
        } else {
            self.total_routed as f64 / self.sampled_routed as f64
        }
    }

    /// Upper-triangular co-activation counts over the sampled routes:
    /// `co[a * E + b]` (a < b) = tokens that selected both experts.
    fn coactivation(&self) -> Vec<u32> {
        let e = self.n_experts;
        let mut co = vec![0u32; e * e];
        for r in &self.routes {
            for (i, &a) in r.experts.iter().enumerate() {
                for &b in &r.experts[i + 1..] {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    co[lo as usize * e + hi as usize] += 1;
                }
            }
        }
        co
    }
}

/// The priced consequences of one placement under one histogram.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlacementCost {
    /// Bytes crossing a node boundary per window (hierarchical dispatch:
    /// one copy per destination *node* per token, then free intra-node
    /// fan-out to the expert ranks on arrival's cheap links).
    pub off_node_bytes: u64,
    /// Priced time of the window's dispatch all-to-all (the combine is its
    /// mirror image, so total a2a time is twice this).
    pub dispatch_time: f64,
    /// Max over ranks of hosted (token, expert) pairs — the expert-compute
    /// straggler.
    pub max_rank_load: u64,
}

/// Off-node bytes and priced dispatch time of one window when source `src`
/// sends expert `e`'s tokens to rank `serving_rank(e, src)` — the body
/// [`placement_cost`] and [`assignment_cost`] share.
///
/// Dispatch follows the repo's RBD discipline: a token reaches each
/// destination node once, landing on that node's mirror of the source's
/// node-local slot (striped pilots, so receive traffic stays spread over
/// the node's NICs), then fans out over cheap intra-node links — so
/// packing co-activated experts onto one node removes whole inter-node
/// copies. Time prices via [`CostModel::sparse_exchange_time`]: the
/// startup term is per-peer injection overhead, so fewer destination
/// nodes means fewer messages, not just fewer bytes.
fn dispatch_cost(
    n: usize,
    hist: &RoutingHistogram,
    cost: &CostModel,
    bytes_per_token: u64,
    serving_rank: impl Fn(usize, usize) -> usize,
) -> (u64, f64) {
    let topo = cost.topology();
    assert!(
        n <= topo.n_ranks(),
        "placement spans {n} ranks but topology has {}",
        topo.n_ranks()
    );
    let scale = hist.sample_scale();
    let gpn = topo.spec().gpus_per_node;
    // Per-(src, dst) token copies under node-dedup dispatch.
    let mut copies = vec![0u64; n * n];
    let mut nodes: Vec<usize> = Vec::with_capacity(8);
    for r in &hist.routes {
        let src = r.src_rank as usize;
        nodes.clear();
        for &e in &r.experts {
            let node = topo.node_of(serving_rank(e as usize, src));
            if !nodes.contains(&node) {
                nodes.push(node);
            }
        }
        for &node in &nodes {
            // Striped pilot: land on this node's mirror of the source slot
            // (clamped for a final partial node).
            let base = node * gpn;
            let dst = base + (src % gpn).min(n - 1 - base);
            copies[src * n + dst] += 1;
        }
    }
    let mut off_node = 0u64;
    for src in 0..n {
        for dst in 0..n {
            if copies[src * n + dst] > 0 && !topo.same_node(src, dst) {
                off_node += copies[src * n + dst] * bytes_per_token;
            }
        }
    }
    let group: Vec<usize> = (0..n).collect();
    let dispatch_time = cost.sparse_exchange_time(&group, &|i, j| {
        (copies[i * n + j] as f64 * scale) as u64 * bytes_per_token
    });
    ((off_node as f64 * scale) as u64, dispatch_time)
}

/// Price a placement against a histogram on the cost model's topology
/// (see [`dispatch_cost`]); the compute straggler is the most loaded
/// rank's share of the window's full per-expert loads.
pub fn placement_cost(
    placement: &ExpertPlacement,
    hist: &RoutingHistogram,
    cost: &CostModel,
    bytes_per_token: u64,
) -> PlacementCost {
    let n = placement.n_ranks;
    let (off_node_bytes, dispatch_time) =
        dispatch_cost(n, hist, cost, bytes_per_token, |e, _| placement.rank_of(e));
    let mut rank_load = vec![0u64; n];
    for (e, &l) in hist.expert_load.iter().enumerate() {
        rank_load[placement.rank_of(e)] += l;
    }
    PlacementCost {
        off_node_bytes,
        dispatch_time,
        max_rank_load: rank_load.into_iter().max().unwrap_or(0),
    }
}

/// [`placement_cost`] generalized to multi-holder experts: per-rank expert
/// load follows the serving stripe over the sampled routes, so replicating
/// a hot expert visibly splits both its receive traffic and its GEMM load.
pub fn assignment_cost(
    asg: &ExpertAssignment,
    hist: &RoutingHistogram,
    cost: &CostModel,
    bytes_per_token: u64,
) -> PlacementCost {
    let n = asg.n_ranks();
    let (off_node_bytes, dispatch_time) =
        dispatch_cost(n, hist, cost, bytes_per_token, |e, src| {
            asg.serving_rank(e, src)
        });
    let mut rank_pairs = vec![0u64; n];
    for r in &hist.routes {
        for &e in &r.experts {
            rank_pairs[asg.serving_rank(e as usize, r.src_rank as usize)] += 1;
        }
    }
    let scale = hist.sample_scale();
    PlacementCost {
        off_node_bytes,
        dispatch_time,
        max_rank_load: rank_pairs
            .into_iter()
            .map(|p| (p as f64 * scale) as u64)
            .max()
            .unwrap_or(0),
    }
}

/// Solve expert→rank placement from an observed histogram, greedily over
/// the cost model (MoETuner's objective: minimize priced inter-node token
/// traffic while balancing per-rank expert load).
///
/// Two phases, both deterministic (ties break on lowest index, no rng):
///
/// 1. **Node grouping** — experts in descending load order go to the node
///    with the highest co-activation affinity to the experts already
///    grouped there, optionally under a per-node *load* cap on top of the
///    slot capacity. Packing tight (no cap) minimizes off-node copies and
///    message fan-out; capping spreads the NIC drain when a handful of
///    nodes would otherwise absorb all receive traffic. Which wins depends
///    on the histogram, so the solver builds one candidate per cap in a
///    small deterministic portfolio and prices each one.
/// 2. **Rank spreading** — within each node, experts go to the currently
///    least-loaded rank with free slots, so the per-rank NIC drain and
///    expert compute stay balanced.
///
/// Every candidate plus [`ExpertPlacement::naive`] is priced with
/// [`placement_cost`]; the winner is the candidate with the lowest
/// dispatch time, ties broken by off-node bytes then candidate order. The
/// greedy winner is returned only if it is no worse than naive on *both*
/// priced off-node bytes and dispatch time — the solver never degrades
/// either metric.
pub fn optimize_placement(
    hist: &RoutingHistogram,
    cost: &CostModel,
    bytes_per_token: u64,
) -> ExpertPlacement {
    let e = hist.n_experts;
    let n = hist.n_ranks;
    let naive = ExpertPlacement::naive(e, n);
    if n == 1 {
        return naive;
    }
    // Per-rank slot budget. `e / n` would under-count ragged shapes: with
    // 10 experts on 8 ranks it left every node's capacity at its floor and
    // the grouping loop ran out of slots before placing every expert (and
    // with e < n it was zero, so *no* expert had anywhere to go).
    let slot_budget = e.div_ceil(n);
    let topo = cost.topology();
    // Node index of each rank and per-node rank lists.
    let n_nodes = topo.node_of(n - 1) + 1;
    let mut node_ranks: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    for r in 0..n {
        node_ranks[topo.node_of(r)].push(r);
    }
    let co = hist.coactivation();
    let node_cap: Vec<usize> = node_ranks.iter().map(|rs| rs.len() * slot_budget).collect();
    let total_load: u64 = hist.expert_load.iter().sum();
    let mut order: Vec<usize> = (0..e).collect();
    order.sort_by_key(|&x| (std::cmp::Reverse(hist.expert_load[x]), x));

    // Phase 1 for one capacity factor: group experts onto nodes by
    // co-activation affinity, load-capped at `factor` × the uniform share
    // (None = slot capacity only).
    let group_onto_nodes = |factor: Option<f64>| -> Vec<Vec<usize>> {
        let load_cap = factor
            .map(|f| (total_load as f64 / n_nodes as f64 * f).ceil() as u64)
            .unwrap_or(u64::MAX);
        let mut node_members: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
        let mut node_load = vec![0u64; n_nodes];
        for &x in &order {
            let l = hist.expert_load[x];
            let mut best: Option<(f64, usize)> = None;
            let mut best_any: Option<(f64, usize)> = None;
            for (node, members) in node_members.iter().enumerate() {
                if members.len() >= node_cap[node] {
                    continue;
                }
                let affinity: f64 = members
                    .iter()
                    .map(|&m| {
                        let (lo, hi) = if m < x { (m, x) } else { (x, m) };
                        co[lo * e + hi] as f64
                    })
                    .sum();
                // Slight preference for load-lighter nodes on equal
                // affinity keeps cold experts spread instead of piling
                // after the hot set. `total_load` is 0 only for an empty
                // histogram, where every load term is 0 anyway.
                let balance = node_load[node] as f64 / (total_load.max(1)) as f64;
                let score = affinity - 1e-9 * balance;
                if node_load[node] + l <= load_cap && best.is_none_or(|(b, _)| score > b) {
                    best = Some((score, node));
                }
                if best_any.is_none_or(|(b, _)| score > b) {
                    best_any = Some((score, node));
                }
            }
            // Fall back to ignoring the load cap when every node with free
            // slots is over it (degenerate single-hot-expert histograms).
            let (_, node) = best
                .or(best_any)
                .expect("capacities sum to the expert count");
            node_members[node].push(x);
            node_load[node] += l;
        }
        node_members
    };

    // Phase 2: spread each node's experts over its ranks, least-loaded
    // first, so hot experts land on distinct NICs.
    let spread_over_ranks = |node_members: Vec<Vec<usize>>| -> ExpertPlacement {
        let mut expert_to_rank = vec![usize::MAX; e];
        for (node, members) in node_members.iter().enumerate() {
            let ranks = &node_ranks[node];
            let mut load = vec![0u64; ranks.len()];
            let mut slots = vec![slot_budget; ranks.len()];
            let mut ms = members.clone();
            ms.sort_by_key(|&x| (std::cmp::Reverse(hist.expert_load[x]), x));
            for x in ms {
                let (i, _) = load
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| slots[i] > 0)
                    .min_by_key(|&(i, &l)| (l, i))
                    .expect("node capacity covers its members");
                expert_to_rank[x] = ranks[i];
                load[i] += hist.expert_load[x];
                slots[i] -= 1;
            }
        }
        ExpertPlacement {
            expert_to_rank,
            n_ranks: n,
        }
    };

    // Portfolio: tight packing plus progressively stricter drain-balancing
    // caps; price each and keep the fastest (ties: fewest off-node bytes,
    // then earliest candidate).
    let mut winner: Option<(f64, u64, ExpertPlacement)> = None;
    for factor in [None, Some(2.0), Some(1.5), Some(1.25)] {
        let candidate = spread_over_ranks(group_onto_nodes(factor));
        let c = placement_cost(&candidate, hist, cost, bytes_per_token);
        let better = winner
            .as_ref()
            .is_none_or(|&(t, b, _)| (c.dispatch_time, c.off_node_bytes) < (t, b));
        if better {
            winner = Some((c.dispatch_time, c.off_node_bytes, candidate));
        }
    }
    let (t_opt, b_opt, optimized) = winner.expect("portfolio is non-empty");

    // Accept only if no worse than naive on both priced metrics.
    let c_naive = placement_cost(&naive, hist, cost, bytes_per_token);
    if b_opt <= c_naive.off_node_bytes && t_opt <= c_naive.dispatch_time {
        optimized
    } else {
        naive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ep_first_groups_are_consecutive() {
        let g = build_grid(16, 4, PlacementPolicy::EpFirst);
        assert_eq!(g.dp_size, 4);
        assert_eq!(g.ep_groups[0], vec![0, 1, 2, 3]);
        assert_eq!(g.ep_groups[3], vec![12, 13, 14, 15]);
        assert_eq!(g.dp_groups[0], vec![0, 4, 8, 12]);
    }

    #[test]
    fn dp_first_groups_are_strided() {
        let g = build_grid(16, 4, PlacementPolicy::DpFirst);
        assert_eq!(g.dp_size, 4);
        assert_eq!(g.dp_groups[0], vec![0, 1, 2, 3]);
        assert_eq!(g.ep_groups[0], vec![0, 4, 8, 12]);
    }

    #[test]
    fn every_rank_in_exactly_one_ep_and_dp_group() {
        for policy in [PlacementPolicy::EpFirst, PlacementPolicy::DpFirst] {
            let g = build_grid(64, 8, policy);
            let mut seen_ep = vec![0usize; 64];
            for grp in &g.ep_groups {
                assert_eq!(grp.len(), 8);
                for &r in grp {
                    seen_ep[r] += 1;
                }
            }
            let mut seen_dp = vec![0usize; 64];
            for grp in &g.dp_groups {
                assert_eq!(grp.len(), 8);
                for &r in grp {
                    seen_dp[r] += 1;
                }
            }
            assert!(seen_ep.iter().all(|&c| c == 1));
            assert!(seen_dp.iter().all(|&c| c == 1));
        }
    }

    #[test]
    fn appendix_c_example_8_nodes_8_gpus() {
        // 64 GPUs, 8 experts, EP=8 (paper's concrete example).
        // EP-first: all 8 experts within each node.
        let ep_first = build_grid(64, 8, PlacementPolicy::EpFirst);
        for grp in &ep_first.ep_groups {
            let node0 = grp[0] / 8;
            assert!(
                grp.iter().all(|&r| r / 8 == node0),
                "EP group spans nodes: {grp:?}"
            );
        }
        // DP-first: each node holds 8 replicas of one expert shard.
        let dp_first = build_grid(64, 8, PlacementPolicy::DpFirst);
        for grp in &dp_first.dp_groups {
            let node0 = grp[0] / 8;
            assert!(
                grp.iter().all(|&r| r / 8 == node0),
                "DP group spans nodes: {grp:?}"
            );
        }
    }

    #[test]
    fn tp_groups_are_innermost_consecutive() {
        let g = build_grid_tp(32, 2, 4, PlacementPolicy::EpFirst);
        assert_eq!(g.dp_size, 4);
        assert_eq!(g.tp_groups[0], vec![0, 1]);
        assert_eq!(g.tp_groups[5], vec![10, 11]);
        // EP groups contain TP leaders only.
        assert_eq!(g.ep_groups[0], vec![0, 2, 4, 6]);
    }

    #[test]
    fn group_lookup_by_rank() {
        let g = build_grid(16, 4, PlacementPolicy::EpFirst);
        let of = |groups: &[Vec<usize>]| groups.iter().find(|grp| grp.contains(&5)).cloned();
        assert_eq!(of(&g.ep_groups), Some(vec![4, 5, 6, 7]));
        assert_eq!(of(&g.dp_groups), Some(vec![1, 5, 9, 13]));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_non_divisible_grid() {
        let _ = build_grid(10, 4, PlacementPolicy::EpFirst);
    }

    #[test]
    fn degenerate_single_group_grids() {
        // All ranks in one TP group: one logical worker, EP = DP = 1.
        let g = build_grid_tp(8, 8, 1, PlacementPolicy::EpFirst);
        assert_eq!((g.ep_size, g.dp_size), (1, 1));
        assert_eq!(g.tp_groups, vec![(0..8).collect::<Vec<usize>>()]);
        assert_eq!(g.ep_groups, vec![vec![0]]);
        // All ranks in one EP group: a single-node cluster with no replicas.
        let g = build_grid_tp(8, 1, 8, PlacementPolicy::DpFirst);
        assert_eq!((g.tp_size, g.dp_size), (1, 1));
        assert_eq!(g.ep_groups, vec![(0..8).collect::<Vec<usize>>()]);
        assert_eq!(g.dp_groups, (0..8).map(|r| vec![r]).collect::<Vec<_>>());
    }

    #[test]
    fn excluding_a_node_rebuilds_over_survivors() {
        // 16 ranks = 2 Frontier nodes; node 1 (ranks 8..16) fails.
        let excluded: Vec<usize> = (8..16).collect();
        let g = build_grid_excluding(16, &excluded, 4, PlacementPolicy::EpFirst);
        assert_eq!(g.n_ranks, 8);
        assert_eq!(g.dp_size, 2);
        assert_eq!(g.ep_groups[0], vec![0, 1, 2, 3]);
        assert_eq!(g.ep_groups[1], vec![4, 5, 6, 7]);
    }

    #[test]
    fn excluding_interior_ranks_keeps_global_ids() {
        // Drop node 0 of a 2-node cluster: survivors keep ids 8..16.
        let excluded: Vec<usize> = (0..8).collect();
        let g = build_grid_excluding(16, &excluded, 4, PlacementPolicy::DpFirst);
        assert_eq!(g.ep_groups[0], vec![8, 10, 12, 14]);
        assert_eq!(g.dp_groups[0], vec![8, 9]);
        let all: Vec<usize> = g.ep_groups.iter().flatten().copied().collect();
        assert!(all.iter().all(|r| (8..16).contains(r)));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn excluding_rejects_unbalanced_survivors() {
        let _ = build_grid_excluding(16, &[3], 4, PlacementPolicy::EpFirst);
    }

    // --- expert placement from routing histograms ---

    use crate::{ClusterTopology, CongestionModel, CostModel, MachineSpec};
    use xmoe_tensor::DetRng;

    fn frontier_cost(n_ranks: usize) -> CostModel {
        CostModel::new(ClusterTopology::new(MachineSpec::frontier(), n_ranks))
            .with_congestion(CongestionModel::none())
    }

    /// Synthetic skewed histogram: expert popularity follows a seeded
    /// exponential decay over a seeded *permutation* of expert ids, so hot
    /// experts are scattered across ranks under naive round-robin. Tokens
    /// co-select `k` consecutive experts in popularity space (strong
    /// co-activation structure for the optimizer to exploit).
    fn skewed_hist(
        n_experts: usize,
        n_ranks: usize,
        k: usize,
        seed: u64,
        tokens: usize,
    ) -> RoutingHistogram {
        let mut rng = DetRng::new(seed);
        let mut perm: Vec<usize> = (0..n_experts).collect();
        rng.shuffle(&mut perm);
        let weights: Vec<f64> = (0..n_experts)
            .map(|i| (-(i as f64) / n_experts as f64 * 6.0).exp())
            .collect();
        let mut hist = RoutingHistogram::new(n_experts, n_ranks, tokens);
        for _ in 0..tokens {
            let src = rng.next_below(n_ranks);
            let hot = rng.sample_weighted(&weights);
            let experts: Vec<usize> = (0..k).map(|j| perm[(hot + j) % n_experts]).collect();
            hist.observe(src, &experts);
        }
        hist
    }

    #[test]
    fn naive_placement_is_round_robin() {
        let p = ExpertPlacement::naive(16, 4);
        assert_eq!(p.rank_of(0), 0);
        assert_eq!(p.rank_of(5), 1);
        assert_eq!(p.experts_on(2), vec![2, 6, 10, 14]);
    }

    #[test]
    fn histogram_tracks_loads_skew_and_scaling() {
        let mut h = RoutingHistogram::new(4, 2, 2);
        h.observe(0, &[0, 1]);
        h.observe(1, &[0, 2]);
        h.observe(0, &[0, 3]); // past the sample cap: load counted, route dropped
        assert_eq!(h.expert_load, vec![3, 1, 1, 1]);
        assert_eq!(h.routes.len(), 2);
        assert_eq!(h.total_routed, 6);
        assert_eq!(h.sampled_routed, 4);
        assert!((h.skew() - 2.0).abs() < 1e-12); // max 3 / mean 1.5
        h.clear();
        assert_eq!(h.total_routed, 0);
        assert!((h.skew() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn optimized_never_increases_priced_inter_node_traffic() {
        // Sweep seeds and shapes: the fall-back-to-naive guarantee plus the
        // greedy phases must never price worse than round-robin.
        for &(e, n, k) in &[(64usize, 16usize, 4usize), (64, 32, 8), (32, 16, 2)] {
            let cost = frontier_cost(n);
            for seed in 0..5u64 {
                let hist = skewed_hist(e, n, k, 0x5eed + seed, 2000);
                let opt = optimize_placement(&hist, &cost, 4096);
                let naive = ExpertPlacement::naive(e, n);
                let c_opt = placement_cost(&opt, &hist, &cost, 4096);
                let c_naive = placement_cost(&naive, &hist, &cost, 4096);
                assert!(
                    c_opt.off_node_bytes <= c_naive.off_node_bytes,
                    "E={e} N={n} k={k} seed={seed}: opt {} > naive {}",
                    c_opt.off_node_bytes,
                    c_naive.off_node_bytes
                );
                assert!(c_opt.dispatch_time <= c_naive.dispatch_time);
            }
        }
    }

    #[test]
    fn optimized_strictly_beats_naive_under_skew() {
        // The serving-bench gate in miniature: strong co-activation and
        // popularity skew must yield a strict off-node-bytes win.
        let cost = frontier_cost(32);
        let hist = skewed_hist(64, 32, 8, 7, 4000);
        let opt = optimize_placement(&hist, &cost, 4096);
        let c_opt = placement_cost(&opt, &hist, &cost, 4096);
        let c_naive = placement_cost(&ExpertPlacement::naive(64, 32), &hist, &cost, 4096);
        assert!(
            c_opt.off_node_bytes < c_naive.off_node_bytes,
            "expected strict win: opt {} vs naive {}",
            c_opt.off_node_bytes,
            c_naive.off_node_bytes
        );
    }

    #[test]
    fn solver_is_deterministic_for_fixed_seed() {
        let cost = frontier_cost(16);
        let h1 = skewed_hist(64, 16, 4, 42, 1500);
        let h2 = skewed_hist(64, 16, 4, 42, 1500);
        let p1 = optimize_placement(&h1, &cost, 2048);
        let p2 = optimize_placement(&h2, &cost, 2048);
        assert_eq!(p1, p2);
        let c1 = placement_cost(&p1, &h1, &cost, 2048);
        let c2 = placement_cost(&p2, &h2, &cost, 2048);
        assert_eq!(c1.off_node_bytes, c2.off_node_bytes);
        assert_eq!(c1.dispatch_time.to_bits(), c2.dispatch_time.to_bits());
    }

    #[test]
    fn placement_shape_is_always_balanced() {
        let cost = frontier_cost(16);
        let hist = skewed_hist(64, 16, 4, 3, 1000);
        let p = optimize_placement(&hist, &cost, 2048);
        for r in 0..16 {
            assert_eq!(
                p.experts_on(r).len(),
                4,
                "rank {r} must hold exactly 4 experts"
            );
        }
        let mut all: Vec<usize> = p.expert_to_rank.clone();
        all.sort_unstable();
        assert_eq!(all.len(), 64);
    }

    #[test]
    fn uniform_histogram_keeps_single_node_local() {
        // All ranks on one node: everything is intra-node, so off-node
        // bytes are zero under any placement and the solver must not panic.
        let cost = frontier_cost(8);
        let mut hist = RoutingHistogram::new(16, 8, 64);
        for t in 0..64usize {
            hist.observe(t % 8, &[t % 16, (t + 1) % 16]);
        }
        let p = optimize_placement(&hist, &cost, 1024);
        let c = placement_cost(&p, &hist, &cost, 1024);
        assert_eq!(c.off_node_bytes, 0);
    }

    #[test]
    fn naive_handles_ragged_shapes() {
        // Regression: pre-fix this asserted `experts % ranks == 0`.
        let p = ExpertPlacement::naive(10, 4);
        assert_eq!(p.experts_on(0), vec![0, 4, 8]);
        assert_eq!(p.experts_on(3), vec![3, 7]);
        let few = ExpertPlacement::naive(3, 8);
        assert_eq!(few.experts_on(2), vec![2]);
        assert!(few.experts_on(5).is_empty(), "tail ranks host nothing");
    }

    /// Ragged-shape property sweep. Regression: pre-fix, the solver's
    /// floor-based slot arithmetic (`per_rank = e / n`) ran out of node
    /// capacity and panicked ("capacities sum to the expert count")
    /// whenever `experts % ranks != 0`, and zeroed every slot when
    /// `experts < ranks`.
    #[test]
    fn ragged_shapes_place_every_expert_within_budget() {
        for &(e, n, k) in &[
            (10usize, 8usize, 3usize), // experts % ranks != 0, single node
            (12, 16, 2),               // fewer experts than ranks, 2 nodes
            (30, 16, 4),               // experts % nodes != 0 (30 over 2 nodes)
            (7, 16, 2),                // fewer experts than one node's ranks
            (65, 32, 6),               // one straggler expert over 4 nodes
        ] {
            let cost = frontier_cost(n);
            let budget = e.div_ceil(n);
            for seed in 0..3u64 {
                let hist = skewed_hist(e, n, k.min(e), 0xA66ED + seed, 1200);
                let opt = optimize_placement(&hist, &cost, 2048);
                // Every expert placed exactly once, on a real rank...
                assert_eq!(opt.n_experts(), e);
                assert!(opt.expert_to_rank.iter().all(|&r| r < n));
                // ...within the per-rank slot budget on every rank.
                for r in 0..n {
                    let hosted = opt.experts_on(r).len();
                    assert!(
                        hosted <= budget,
                        "E={e} N={n} seed={seed}: rank {r} hosts {hosted} > budget {budget}"
                    );
                }
                // Never worse than round-robin on either priced metric.
                let naive = ExpertPlacement::naive(e, n);
                let c_opt = placement_cost(&opt, &hist, &cost, 2048);
                let c_naive = placement_cost(&naive, &hist, &cost, 2048);
                assert!(
                    c_opt.off_node_bytes <= c_naive.off_node_bytes,
                    "E={e} N={n} seed={seed}: opt {} > naive {}",
                    c_opt.off_node_bytes,
                    c_naive.off_node_bytes
                );
                assert!(c_opt.dispatch_time <= c_naive.dispatch_time);
            }
        }
    }

    #[test]
    fn migrated_experts_counts_differences() {
        let a = ExpertPlacement::naive(8, 2);
        let mut b = a.clone();
        b.expert_to_rank.swap(0, 1);
        assert_eq!(a.migrated_experts(&a), 0);
        assert_eq!(a.migrated_experts(&b), 2);
    }
}
