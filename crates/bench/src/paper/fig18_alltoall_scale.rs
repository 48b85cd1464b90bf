//! Fig 18 + Fig 19 (Appendix D): all-to-all collective time characterized
//! across scale — 1000 sampled collectives per GPU count from 8 to 1024.
//!
//! Reproduces the three latency regions the paper observes on Frontier:
//! (i) growth from 8 to 32 GPUs as the group leaves one node, (ii) a
//! plateau from 32 to 256 GPUs (one rack), (iii) a sharp rise beyond 256
//! GPUs with frequent > 500 ms outliers at 512/1024 from cross-rack
//! congestion.

use xmoe_core::config::MoeModelConfig;
use xmoe_tensor::DetRng;
use xmoe_topology::{ClusterTopology, CostModel, MachineSpec};

use crate::sparkline;
use crate::spine::{
    bench, column, int, print_records, row, table, Check, Env, Outcome, Record, Val,
};

bench!(
    fig18_alltoall_scale,
    "Fig 18/19: all-to-all latency vs scale"
);

fn run(_smoke: bool, _env: &Env) -> Outcome {
    // Message sizing from the MoE training workload: Large-model dispatch
    // volume per rank, split evenly across the group.
    let cfg = MoeModelConfig::large();
    let bytes_per_rank = (cfg.top_k * cfg.seq_len * cfg.hidden) as u64 * 2;

    let runs = 1000usize;
    let recs = [8usize, 16, 32, 64, 128, 256, 512, 1024].map(|n| {
        let topo = ClusterTopology::new(MachineSpec::frontier(), n);
        let cost = CostModel::new(topo);
        let group: Vec<usize> = (0..n).collect();
        let per_pair = bytes_per_rank / n as u64;
        let mut rng = DetRng::new(0xF1618 + n as u64);
        let mut samples = cost.alltoallv_time_samples(&group, &|_, _| per_pair, runs, &mut rng);
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let ms = |t: f64| Val::Fixed(t * 1e3, 6);
        row("fig18")
            .cfg("gpus", int(n))
            .metric("mean_ms", ms(samples.iter().sum::<f64>() / runs as f64))
            .metric("p50_ms", ms(samples[runs / 2]))
            .metric("p99_ms", ms(samples[runs * 99 / 100]))
            .metric("max_ms", ms(samples[runs - 1]))
            .metric(
                "outliers_over_500ms",
                int(samples.iter().filter(|&&t| t > 0.5).count()),
            )
    });
    print_records(
        "Fig 18/19: all-to-all time across 1000 runs (Large-model dispatch volume)",
        &recs,
    );
    let means = column(&recs, "mean_ms").expect("just written");
    println!("mean all-to-all vs scale: {}", sparkline(&means));
    (recs.to_vec(), Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    // Rows are 8, 16, 32, 64, 128, 256, 512, 1024 GPUs.
    let rows: &[Record; 8] = table(recs, "fig18")?;
    let means = column(rows, "mean_ms")?;
    let outliers = column(rows, "outliers_over_500ms")?;
    let plateau = &means[2..=5];
    let plateau_spread = plateau.iter().cloned().fold(f64::MIN, f64::max)
        / plateau.iter().cloned().fold(f64::MAX, f64::min);
    Ok(vec![
        Check::new(
            "region i: latency grows from 8 to 32 GPUs (leaving the node)",
            means[2] > means[0],
            format!("{:.2} -> {:.2} ms", means[0], means[2]),
        ),
        Check::new(
            "region ii: relatively stable from 32 to 256 GPUs (one rack)",
            plateau_spread < 2.5,
            format!("max/min within plateau {plateau_spread:.2}"),
        ),
        Check::new(
            "region iii: sharp rise beyond 256 GPUs (paper: >10x the plateau)",
            means[7] > 4.0 * means[5],
            format!("{:.1} ms vs {:.1} ms", means[7], means[5]),
        ),
        Check::new(
            ">500 ms outliers appear at 512/1024 GPUs but not within a rack",
            outliers[6] > 0.0 && outliers[7] >= outliers[6] && outliers[5] == 0.0,
            format!("counts {outliers:.0?}"),
        ),
    ])
}
