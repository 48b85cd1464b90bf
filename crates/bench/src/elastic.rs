//! `bench elastic` — join MTTR + skewed-vs-rebalanced live migration.
//!
//! (1) Join MTTR: kill one of four ranks, let it rejoin mid-run through the
//! grow rendezvous + live scatter, and report the incumbents' rendezvous
//! time. (2) Live migration: bias two co-located experts hot, profile a
//! skewed phase, commit the histogram-driven rebalance and run the same
//! number of steps in the migrated layout. The gates are the elasticity
//! contract: full world restored with positive MTTR, rebalanced step time
//! strictly below the skewed baseline, priced dispatch strictly improved,
//! and a nonzero migration transfer.
//!
//! `--smoke` shortens the join run only (see `rebalance`).

use xmoe_collectives::SimCluster;
use xmoe_core::gating::DropPolicy;
use xmoe_tensor::DetRng;
use xmoe_topology::{ClusterTopology, CongestionModel, CostModel, FaultPlan, MachineSpec};
use xmoe_train::{
    build_moe_layers, run_chaos_rank, step_batch, ChaosConfig, DistMoeLm, RebalanceConfig,
    RebalancePolicy, TrainConfig,
};

use crate::spine::{bench, int, tag, Check, Record, Val};

bench!(elastic, "join MTTR + skewed-vs-rebalanced live migration");

/// 8 experts over 4 ranks, two per rank.
const WORLD: usize = 4;
const EXPERTS: usize = 8;

/// Frontier GCDs repacked three per node, so the 4-rank world spans two
/// asymmetric nodes (ranks 0-2 on node 0, rank 3 alone on node 1) and
/// expert dispatch crosses a real NIC — on a single node the RBD
/// node-dedup discipline makes every placement free and a rebalance has
/// nothing to win.
fn cluster() -> SimCluster {
    let mut spec = MachineSpec::frontier();
    spec.gpus_per_node = 3;
    let topo = ClusterTopology::new(spec, WORLD);
    SimCluster::new(CostModel::new(topo).with_congestion(CongestionModel::none()))
}

fn train_cfg() -> TrainConfig {
    let mut c = TrainConfig::fig15(DropPolicy::CapacityOnly);
    c.vocab = 64;
    c.hidden = 32;
    c.ffn = 16;
    c.num_experts = EXPERTS;
    c.top_k = 2;
    c.layers = 2;
    c.seq_len = 24;
    c.batch = 4;
    c.capacity_factor = 1e6;
    c.seed = 0xE1A5;
    c
}

fn record(label: &str) -> Record {
    Record::default()
        .cfg("label", tag(label))
        .cfg("world", int(WORLD))
        .cfg("experts", int(EXPERTS))
}

/// Kill one rank mid-run and let it rejoin two steps later; the join MTTR
/// (grow rendezvous + live scatter + rebuild) is read off an incumbent's
/// report, where the interval excludes the joiner's sat-out time.
fn join(smoke: bool) -> Record {
    let cfg = train_cfg();
    let steps: u64 = if smoke { 6 } else { 10 };
    let (kill_rank, kill_at, join_at) = (WORLD - 1, 2u64, 4u64);
    let spec = format!("kill:rank={kill_rank},at={kill_at};join:rank={kill_rank},at={join_at}");
    let plan = FaultPlan::parse(cfg.seed, &spec).expect("bench join spec parses");
    let chaos = ChaosConfig::new(steps, 2);
    let reports = {
        let cfg = &cfg;
        let chaos = &chaos;
        cluster()
            .with_faults(plan)
            .run(move |ctx| run_chaos_rank(cfg, chaos, ctx).expect("bench join run"))
    };
    let incumbent = &reports[0];
    assert_eq!(
        incumbent.final_world, WORLD,
        "join must restore the full world"
    );
    let join = incumbent.joins.first().expect("join rendezvous recorded");
    let scatter_bytes = incumbent.last_ckpt.as_ref().map_or(0, Vec::len);
    println!(
        "join: rank {kill_rank} killed at step {kill_at}, rejoined at step {join_at} | \
         rendezvous {:.3}ms | world {} restored | snapshot {scatter_bytes} bytes",
        join.mttr * 1e3,
        join.world_after
    );
    record("join")
        .cfg("steps", Val::Int(steps))
        .cfg("kill_rank", int(kill_rank))
        .cfg("kill_at", Val::Int(kill_at))
        .cfg("join_at", Val::Int(join_at))
        .metric("join_mttr_s", Val::Fixed(join.mttr, 9))
        .metric("world_after", int(join.world_after))
        .metric("scatter_bytes", int(scatter_bytes))
}

/// Bias two co-located experts hot, profile a skewed phase, commit the
/// histogram-driven rebalance through the chaos engine's own commit
/// ([`RebalancePolicy::close_window`]), then run the same number of steps
/// in the migrated layout. Both phase averages come off the simulated
/// clock, so the comparison is deterministic.
fn rebalance() -> Record {
    let cfg = train_cfg();
    // The skew phase is the same length in smoke mode: the histogram a
    // four-step window collects is not yet dominated by the biased pair
    // (the router trains away from the overload from step one), and the
    // never-worse gate would correctly decline the marginal candidate.
    // Ten steps on this toy model cost well under a second, so smoke
    // mode only shortens the join sub-bench.
    let phase: u64 = 10;
    let full_layers = build_moe_layers(&cfg);
    let mut results = {
        let cfg = &cfg;
        let full_layers = &full_layers;
        cluster().run(move |ctx| {
            let comm = ctx.world.clone();
            let mut model = DistMoeLm::new(cfg, full_layers, ctx.rank, WORLD);
            // Experts 6 and 7 — both on rank 3, the lone rank of node 1 —
            // are made co-hot: every top-2 decision floods that NIC from
            // all three node-0 sources. Pulling the co-activated pair onto
            // node 0 cuts the off-node copies from three sources to one
            // and unloads the straggler, exactly the migration the solver
            // exists to find.
            model.bias_router(6, 6.0);
            model.bias_router(7, 6.0);
            model.set_route_tracking(true);
            let mut rng = DetRng::new(cfg.seed ^ 0x51E3);
            let t0 = ctx.clock.now();
            for step in 0..phase {
                ctx.set_step(step);
                comm.set_step(step);
                let batch = step_batch(cfg, rng.next_u64(), comm.rank());
                model
                    .train_step(&batch, &comm, &mut ctx.clock)
                    .expect("skewed phase step");
            }
            let skewed = (ctx.clock.now() - t0) / phase as f64;

            let mut pol = RebalancePolicy::new(RebalanceConfig {
                threshold: 1.05,
                every: phase,
            });
            let (decision, _) = pol
                .close_window(&mut model, cfg, phase, rng.state(), &comm, &mut ctx.clock)
                .expect("histogram all-gather and live snapshot")
                .expect("manufactured skew must trigger a rebalance");
            let t1 = ctx.clock.now();
            for step in phase..2 * phase {
                ctx.set_step(step);
                comm.set_step(step);
                let batch = step_batch(cfg, rng.next_u64(), comm.rank());
                model
                    .train_step(&batch, &comm, &mut ctx.clock)
                    .expect("rebalanced phase step");
            }
            let rebalanced = (ctx.clock.now() - t1) / phase as f64;
            (skewed, rebalanced, decision)
        })
    };
    let (skewed, rebalanced, d) = results.remove(0);
    let (kind, moved, migration_bytes) = (d.kind, d.moved_experts.len(), d.migration_bytes);
    let (before, after) = (d.dispatch_before, d.dispatch_after);
    println!(
        "rebalance: {kind} moved {moved} expert(s), {migration_bytes} bytes | \
         step {:.4}ms -> {:.4}ms (-{:.3}%) | priced dispatch {:.1}us -> {:.1}us ({:.2}x)",
        skewed * 1e3,
        rebalanced * 1e3,
        (1.0 - rebalanced / skewed) * 1e2,
        before * 1e6,
        after * 1e6,
        before / after
    );
    record("rebalance")
        .cfg("phase_steps", Val::Int(phase))
        .cfg("kind", tag(kind))
        .metric("skewed_step_s", Val::Fixed(skewed, 9))
        .metric("rebalanced_step_s", Val::Fixed(rebalanced, 9))
        .metric("speedup", Val::Fixed(skewed / rebalanced, 6))
        .metric("moved_experts", int(moved))
        .metric("migration_bytes", Val::Int(migration_bytes))
        .metric("dispatch_before_s", Val::Fixed(before, 9))
        .metric("dispatch_after_s", Val::Fixed(after, 9))
}

fn run(smoke: bool) -> (Vec<Record>, Vec<Check>) {
    println!(
        "== bench elastic — rank join + live expert migration (world={WORLD} \
         experts={EXPERTS}{}) ==",
        if smoke { ", smoke" } else { "" }
    );
    (vec![join(smoke), rebalance()], Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let known = |r: &Record| matches!(r.tag("label"), Ok("join" | "rebalance"));
    if !recs.iter().all(known) {
        return Err("record lacks a join/rebalance label".into());
    }
    let join = Record::tagged(recs, "label", "join")?;
    let mttr = join.positive("join_mttr_s")?;
    join.positive("scatter_bytes")?;
    let (world, after) = (join.num("world")?, join.num("world_after")?);

    let reb = Record::tagged(recs, "label", "rebalance")?;
    let skewed = reb.positive("skewed_step_s")?;
    let rebalanced = reb.positive("rebalanced_step_s")?;
    let speedup = reb.positive("speedup")?;
    reb.positive("moved_experts")?;
    reb.positive("migration_bytes")?;
    let before = reb.positive("dispatch_before_s")?;
    let dispatch_after = reb.positive("dispatch_after_s")?;
    Ok(vec![
        Check::new(
            "the join restores the full world",
            after == world,
            format!(
                "world {after} of {world} after a {:.3}ms rendezvous",
                mttr * 1e3
            ),
        ),
        Check::new(
            "rebalanced step time strictly below the skewed baseline",
            rebalanced < skewed && speedup > 1.0,
            format!("{rebalanced} vs {skewed} s/step, recorded speedup {speedup}"),
        ),
        Check::new(
            "the committed rebalance strictly improves priced dispatch (never-worse)",
            dispatch_after < before,
            format!("{dispatch_after} vs {before} s"),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spine::testing::{failure, set};

    #[test]
    fn smoke_records_pass_and_each_gate_is_live() {
        let (recs, live) = run(true);
        assert!(live.is_empty());
        assert_eq!(failure(&BENCH, &recs), None);

        let skewed = recs[1].metrics[0].1.clone();
        let slow = set(&recs, 1, "rebalanced_step_s", skewed);
        let why = failure(&BENCH, &slow).expect("rebalanced no faster than skewed");
        assert!(why.contains("strictly below the skewed baseline"), "{why}");

        let before = recs[1].metrics[5].1.clone();
        let unpriced = set(&recs, 1, "dispatch_after_s", before);
        let why = failure(&BENCH, &unpriced).expect("dispatch not improved");
        assert!(why.contains("strictly improves priced dispatch"), "{why}");

        let shrunk = set(&recs, 0, "world_after", Val::Int(3));
        let why = failure(&BENCH, &shrunk).expect("world not restored");
        assert!(
            why.contains("the join restores the full world (world 3 of 4"),
            "{why}"
        );

        let why = failure(&BENCH, &recs[..1]).expect("no rebalance record");
        assert_eq!(why, "missing the label = rebalance record");

        let idle = set(&recs, 1, "migration_bytes", Val::Int(0));
        let why = failure(&BENCH, &idle).expect("nothing transferred");
        assert_eq!(why, "migration_bytes = 0 is not positive");
    }
}
