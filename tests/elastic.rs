//! Tier-1 elasticity invariants: ranks join mid-run, hot experts
//! rebalance under skew, and both are bitwise-deterministic.
//!
//! 1. **Kill-then-join restores the full world**: the dark rank comes
//!    back through the grow rendezvous + live scatter, and the post-join
//!    trajectory is bitwise identical to an uninterrupted same-world run
//!    started from the scatter image — the recovery and rendezvous leave
//!    only their charged spans behind, never a numerical trace.
//! 2. **Skew-triggered live migration is bitwise-deterministic**: a run
//!    whose hot experts migrate mid-run continues exactly as a fresh run
//!    launched in the post-migration configuration from the same image.
//! 3. **`bench elastic` self-gates**: the smoke bench exits 0, writes a
//!    `BENCH_elastic.json` whose gate list enforces rebalanced step time
//!    strictly below the skewed baseline, and a tampered report fails.

use xmoe::collectives::{FaultPlan, SimCluster};
use xmoe::core::gating::DropPolicy;
use xmoe::tensor::DetRng;
use xmoe::topology::{ClusterTopology, CongestionModel, CostModel, MachineSpec};
use xmoe::train::{
    run_chaos_rank, step_batch, ChaosConfig, ChaosReport, Checkpoint, DistMoeLm, RebalanceConfig,
    TrainConfig,
};

fn cfg() -> TrainConfig {
    let mut c = TrainConfig::fig15(DropPolicy::CapacityOnly);
    c.vocab = 32;
    c.hidden = 16;
    c.ffn = 8;
    c.num_experts = 8;
    c.top_k = 2;
    c.layers = 2;
    c.seq_len = 10;
    c.batch = 2;
    c.capacity_factor = 1e6;
    c.seed = 41;
    c
}

fn bits(l: &[(u64, f64)]) -> Vec<(u64, u64)> {
    l.iter().map(|&(s, v)| (s, v.to_bits())).collect()
}

/// Four Frontier GCDs repacked three per node: ranks 0-2 share node 0,
/// rank 3 sits alone on node 1, so expert dispatch crosses a real NIC
/// and a placement change has priced consequences.
fn two_node_cluster(world: usize) -> SimCluster {
    let mut spec = MachineSpec::frontier();
    spec.gpus_per_node = 3;
    let topo = ClusterTopology::new(spec, world);
    SimCluster::new(CostModel::new(topo).with_congestion(CongestionModel::none()))
}

fn chaos_run(world: usize, plan: Option<FaultPlan>, chaos: ChaosConfig) -> Vec<ChaosReport> {
    let cfg = cfg();
    let cluster = match plan {
        Some(p) => SimCluster::frontier(world).with_faults(p),
        None => SimCluster::frontier(world),
    };
    let cfg = &cfg;
    cluster.run(move |ctx| run_chaos_rank(cfg, &chaos, ctx).unwrap())
}

/// Continue training from a checkpoint on a fresh cluster of `world`
/// ranks under the default contiguous assignment.
fn resume_reference(world: usize, bytes: &[u8], until: u64) -> Vec<Vec<(u64, f64)>> {
    let cfg = cfg();
    let cfg = &cfg;
    SimCluster::frontier(world).run(move |ctx| {
        let ckpt = Checkpoint::decode(bytes).unwrap();
        let mut model = DistMoeLm::from_checkpoint(cfg, &ckpt, ctx.rank, world);
        let mut rng = DetRng::from_state(ckpt.rng_state);
        let comm = ctx.world.clone();
        let mut losses = Vec::new();
        for step in ckpt.step..until {
            ctx.set_step(step);
            comm.set_step(step);
            let step_seed = rng.next_u64();
            let batch = step_batch(cfg, step_seed, comm.rank());
            let loss = model.train_step(&batch, &comm, &mut ctx.clock).unwrap();
            losses.push((step, loss));
        }
        losses
    })
}

#[test]
fn kill_then_join_restores_full_world_bitwise_deterministically() {
    let world = 4;
    let steps = 10u64;
    // No periodic checkpoints: the one restore image in this run is the
    // live scatter at the join, so `last_ckpt` is exactly that image (and
    // the kill recovery must replay from scratch — over 3 survivors that
    // is also a ragged 8-experts-over-3-ranks re-shard).
    let chaos = ChaosConfig::new(steps, 0);
    let plan = FaultPlan::parse(1, "kill:rank=2,at=3;join:rank=2,at=6").unwrap();
    let reports = chaos_run(world, Some(plan), chaos);

    let rejoined = &reports[2];
    assert_eq!(rejoined.exited_at, Some(3), "rank 2 died at step 3");
    for (rank, r) in reports.iter().enumerate() {
        assert_eq!(
            r.final_world, 4,
            "rank {rank} must finish in the full world"
        );
        assert_eq!(r.joins.len(), 1, "rank {rank} saw one rendezvous");
        let j = &r.joins[0];
        assert_eq!(j.joined_ranks, vec![2]);
        assert_eq!(j.at_step, 6);
        assert_eq!(j.world_after, 4);
        assert!(j.mttr > 0.0, "rendezvous must cost simulated time");
    }
    // Survivors agree on the full curve; the rejoined rank carries
    // exactly the post-join suffix.
    assert_eq!(reports[0].losses.len(), steps as usize);
    assert_eq!(bits(&reports[0].losses), bits(&reports[1].losses));
    assert_eq!(bits(&reports[0].losses), bits(&reports[3].losses));
    assert_eq!(bits(&rejoined.losses), bits(&reports[0].losses[6..]));

    // Gold standard: a fresh four-rank cluster restoring the scatter
    // image continues bitwise identically — after the join the run is
    // indistinguishable (modulo the charged elastic_join/elastic_scatter
    // spans) from an uninterrupted run of the same world in that state.
    let bytes = reports[0].last_ckpt.clone().expect("scatter image kept");
    assert_eq!(Checkpoint::decode(&bytes).unwrap().step, 6);
    let reference = resume_reference(world, &bytes, steps);
    for (rank, r) in reference.iter().enumerate() {
        // The rejoined rank only has the post-join suffix; survivors
        // carry the full curve.
        let n = reports[rank].losses.len();
        let tail = &reports[rank].losses[n - 4..];
        assert_eq!(
            bits(tail),
            bits(r),
            "rank {rank}: post-join trajectory must match an uninterrupted same-world run"
        );
    }
}

#[test]
fn skew_triggered_migration_matches_fresh_run_in_migrated_layout() {
    let world = 4;
    let steps = 10u64;
    let cfg = cfg();
    // Experts 6 and 7 — both on rank 3, the lone rank of node 1 — are
    // made co-hot; the profiling window closing at step 4 sees the skew
    // and migrates the pair onto node 0.
    let chaos = ChaosConfig::new(steps, 0)
        .with_hot_bias(6, 7, 6.0)
        .with_rebalance(RebalanceConfig {
            threshold: 1.2,
            every: 4,
            ..RebalanceConfig::default()
        });
    let reports = {
        let cfg = &cfg;
        two_node_cluster(world).run(move |ctx| run_chaos_rank(cfg, &chaos, ctx).unwrap())
    };
    for (rank, r) in reports.iter().enumerate() {
        assert_eq!(
            r.rebalances.len(),
            1,
            "rank {rank}: exactly one committed rebalance"
        );
        assert_eq!(r.losses.len(), steps as usize);
    }
    let d = &reports[0].rebalances[0];
    assert_eq!(d.step, 4, "first window closes at step 4");
    assert!(
        d.dispatch_after < d.dispatch_before,
        "never-worse: priced dispatch must strictly improve \
         ({} -> {})",
        d.dispatch_before,
        d.dispatch_after
    );
    assert!(
        d.migration_bytes > 0,
        "weights + moments moved over the wire"
    );
    assert!(!d.moved_experts.is_empty());
    for (rank, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            bits(&r.losses),
            bits(&reports[0].losses),
            "rank {rank}: losses are world-averaged and must agree"
        );
        assert_eq!(
            r.final_assignment, reports[0].final_assignment,
            "rank {rank}: every rank commits the same assignment"
        );
    }

    // Gold standard: a fresh cluster launched in the post-migration
    // configuration from the migration-point image produces bitwise
    // identical losses for the remaining steps.
    let bytes = reports[0]
        .rebalance_ckpt
        .clone()
        .expect("migration image kept");
    let asg = reports[0].final_assignment.clone();
    assert_eq!(Checkpoint::decode(&bytes).unwrap().step, 4);
    let reference = {
        let cfg = &cfg;
        let bytes = &bytes;
        let asg = &asg;
        two_node_cluster(world).run(move |ctx| {
            let ckpt = Checkpoint::decode(bytes).unwrap();
            let mut model =
                DistMoeLm::from_checkpoint_with_assignment(cfg, &ckpt, ctx.rank, asg.clone());
            let mut rng = DetRng::from_state(ckpt.rng_state);
            let comm = ctx.world.clone();
            let mut losses = Vec::new();
            for step in ckpt.step..steps {
                ctx.set_step(step);
                comm.set_step(step);
                let step_seed = rng.next_u64();
                let batch = step_batch(cfg, step_seed, comm.rank());
                let loss = model.train_step(&batch, &comm, &mut ctx.clock).unwrap();
                losses.push((step, loss));
            }
            losses
        })
    };
    for (rank, r) in reference.iter().enumerate() {
        assert_eq!(
            bits(&reports[rank].losses[4..]),
            bits(r),
            "rank {rank}: post-migration trajectory must match a fresh run \
             started in the migrated layout"
        );
    }
}

#[test]
fn bench_elastic_smoke_writes_and_gates_its_report() {
    let bin = env!("CARGO_BIN_EXE_xmoe-cli");
    let dir = std::env::temp_dir().join(format!("xmoe_bench_elastic_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("BENCH_elastic.json");

    let run = std::process::Command::new(bin)
        .args(["bench", "elastic", "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("bench elastic runs");
    assert!(
        run.status.success(),
        "bench elastic exited nonzero:\n{}{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&out).unwrap();
    for key in [
        "join_mttr_s",
        "world_after",
        "skewed_step_s",
        "rebalanced_step_s",
        "migration_bytes",
    ] {
        assert!(text.contains(key), "BENCH_elastic.json missing {key}");
    }

    let validate = std::process::Command::new(bin)
        .args(["bench", "elastic", "--validate"])
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        validate.status.success(),
        "self-written report must validate:\n{}",
        String::from_utf8_lossy(&validate.stderr)
    );

    // The gate is live: inflate the rebalanced step time past the skewed
    // baseline and the validator must reject the file.
    let broken = text.replace("\"rebalanced_step_s\": ", "\"rebalanced_step_s\": 9");
    assert_ne!(broken, text, "tamper target key present");
    std::fs::write(&out, broken).unwrap();
    let invalid = std::process::Command::new(bin)
        .args(["bench", "elastic", "--validate"])
        .arg(&out)
        .output()
        .unwrap();
    assert_eq!(
        invalid.status.code(),
        Some(1),
        "a rebalance slower than the skewed baseline must fail validation"
    );
    let stderr = String::from_utf8_lossy(&invalid.stderr);
    let named = format!(
        "{}: INVALID — claim violated: rebalanced step",
        out.display()
    );
    assert!(stderr.contains(&named), "stderr names the gate: {stderr}");

    // Every bench goes through the one driver: a missing, truncated or
    // gate-failing file is `<path>: INVALID — <reason>` and exit 1; a
    // malformed command line is the subcommand's usage and exit 2.
    let bench = |args: &[&str]| {
        let o = std::process::Command::new(bin)
            .arg("bench")
            .args(args)
            .output()
            .unwrap();
        (
            o.status.code(),
            String::from_utf8_lossy(&o.stderr).into_owned(),
        )
    };
    let path = out.to_str().unwrap();
    std::fs::write(&out, &text[..text.len() / 2]).unwrap();
    let (code, stderr) = bench(&["elastic", "--validate", path]);
    assert_eq!(code, Some(1), "truncated file: {stderr}");
    assert!(stderr.contains(": INVALID — record "), "{stderr}");
    std::fs::remove_file(&out).unwrap();
    for name in ["elastic", "overlap", "serving", "stability"] {
        let (code, stderr) = bench(&[name, "--validate", path]);
        assert_eq!(code, Some(1), "{name}, missing file: {stderr}");
        assert!(stderr.contains(": INVALID — read failed"), "{stderr}");
        for bad in [&["--out"][..], &["--validate"], &["--bogus"]] {
            let (code, stderr) = bench(&[&[name], bad].concat());
            assert_eq!(code, Some(2), "{name} {bad:?}: {stderr}");
            assert!(stderr.contains("usage: xmoe-cli bench <"), "{stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `xmoe-cli step` runs what its header says or fails: `--overlap` on a
/// pipeline without an overlap schedule is the typed `PipelineError`, not a
/// silently serial run under an "(overlap, N chunks)" header.
#[test]
fn step_rejects_overlap_where_unsupported_and_runs_it_where_supported() {
    let bin = env!("CARGO_BIN_EXE_xmoe-cli");
    let dense = std::process::Command::new(bin)
        .args(["step", "dense", "2", "--overlap"])
        .output()
        .expect("step runs");
    assert!(!dense.status.success(), "step dense --overlap must fail");
    let stderr = String::from_utf8_lossy(&dense.stderr);
    assert!(
        stderr.contains("unsupported execution mode"),
        "stderr names the PipelineError: {stderr}"
    );

    let pft = std::process::Command::new(bin)
        .args(["step", "pft", "2", "--overlap", "2"])
        .output()
        .expect("step runs");
    assert!(
        pft.status.success(),
        "step pft --overlap 2 exited nonzero:\n{}",
        String::from_utf8_lossy(&pft.stderr)
    );
    let stdout = String::from_utf8_lossy(&pft.stdout);
    assert!(stdout.contains("pft pipeline (overlap, 2 chunks)"));
}

/// `xmoe-cli chaos` runs what its fault plan says or refuses it: a `slow:`
/// clause would only stretch compute charges the train step never makes, so
/// it is a config error (exit 1, naming why) instead of a clean run under a
/// faulted header; a link fault still runs.
#[test]
fn chaos_refuses_slow_clauses_and_runs_link_faults() {
    let bin = env!("CARGO_BIN_EXE_xmoe-cli");
    let chaos = |faults: &str| {
        std::process::Command::new(bin)
            .args(["chaos", "4", "--steps", "2", "--faults", faults])
            .output()
            .expect("chaos runs")
    };
    let slow = chaos("slow:rank=2,x=8");
    assert_eq!(slow.status.code(), Some(1), "slow: must be a config error");
    let stderr = String::from_utf8_lossy(&slow.stderr);
    assert!(
        stderr.contains("does not support slow: clauses")
            && stderr.contains("charges no simulated compute")
            && stderr.contains("ROADMAP item 2"),
        "stderr says why: {stderr}"
    );
    assert!(slow.stdout.is_empty(), "nothing runs before the refusal");

    let degrade = chaos("degrade:tier=inter,x=3");
    assert!(
        degrade.status.success(),
        "degrade run exited nonzero:\n{}",
        String::from_utf8_lossy(&degrade.stderr)
    );
    assert!(String::from_utf8_lossy(&degrade.stdout).contains("final world 4 of 4"));
}
