//! Fig 10 (§5.3): weak and strong scaling of X-MoE vs Tutel.
//!
//! (a) Weak scaling: the 10.1B Small model from 16 to 256 GPUs with the
//!     global batch growing proportionally (256 -> 4096 sequences), EP=8,
//!     scaled out via ZeRO-DP.
//! (b) Strong scaling: the 55.2B Medium model on 128/256/512/1024 GPUs at
//!     a fixed global batch of 2048; X-MoE uses EP=64, Tutel EP=128
//!     (Tutel cannot run at 128 GPUs — insufficient memory even at
//!     EP=128, matching the paper).

use xmoe_core::config::{MoeModelConfig, ParallelConfig};
use xmoe_core::memory::{self, MoeSystem};
use xmoe_core::perf::{PerfModel, PerfOpts};

use crate::sparkline;
use crate::spine::{
    bench, column, int, or_oom, print_records, row, table, Check, Env, Outcome, Record, Val,
};

bench!(fig10_scaling, "Fig 10: weak & strong scaling");

fn run(_smoke: bool, _env: &Env) -> Outcome {
    // ---- (a) Weak scaling --------------------------------------------
    let small = MoeModelConfig::small();
    let points = [
        (16usize, 256usize),
        (32, 512),
        (64, 1024),
        (128, 2048),
        (256, 4096),
    ];
    let weak = points.map(|(world, batch)| {
        let pm = PerfModel::frontier(world);
        let par = ParallelConfig::new(world, 8)
            .with_batch(1, batch)
            .with_ssmb(true);
        let x = pm.step_auto_placement(&small, &par, MoeSystem::XMoe, &PerfOpts::xmoe());
        let t = pm.step(&small, &par, MoeSystem::Tutel, &PerfOpts::default());
        row("weak")
            .cfg("gpus", int(world))
            .cfg("global_batch", int(batch))
            .metric("xmoe_tflops", Val::Fixed(x.tflops_per_gpu, 6))
            .metric("tutel_tflops", Val::Fixed(t.tflops_per_gpu, 6))
    });
    print_records(
        "Fig 10a: weak scaling, Small model, EP=8 (TFLOP/s per GPU)",
        &weak,
    );
    let series = |key| sparkline(&column(&weak, key).expect("just written"));
    println!(
        "X-MoE: {}   Tutel: {}",
        series("xmoe_tflops"),
        series("tutel_tflops")
    );

    // ---- (b) Strong scaling ------------------------------------------
    let medium = MoeModelConfig::medium();
    let hbm = 64_000_000_000u64;
    let strong = [128usize, 256, 512, 1024].map(|world| {
        let pm = PerfModel::frontier(world);
        let xp = ParallelConfig::new(world, 64)
            .with_batch(1, 2048)
            .with_ssmb(true);
        let x = pm.step_auto_placement(&medium, &xp, MoeSystem::XMoe, &PerfOpts::xmoe());
        // Tutel at EP=128 (the paper's best baseline configuration).
        let tp = ParallelConfig::new(world, 128.min(world)).with_batch(1, 2048);
        let fits = memory::total_per_gpu(&medium, &tp, MoeSystem::Tutel).fits(hbm);
        let t = fits.then(|| pm.step(&medium, &tp, MoeSystem::Tutel, &PerfOpts::default()));
        row("strong")
            .cfg("gpus", int(world))
            .metric("xmoe_ep64_step_s", Val::Fixed(x.step_time, 6))
            .metric("tutel_ep128_step_s", or_oom(t.map(|t| t.step_time), 6))
    });
    print_records(
        "Fig 10b: strong scaling, Medium model, global batch 2048 (iteration time)",
        &strong,
    );
    ([weak.to_vec(), strong.to_vec()].concat(), Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let weak: &[Record; 5] = table(recs, "weak")?;
    let (x_series, t_series) = (column(weak, "xmoe_tflops")?, column(weak, "tutel_tflops")?);
    let x_drop = 1.0 - x_series[4] / x_series[0];
    let t_drop = 1.0 - t_series[4] / t_series[0];

    let strong: &[Record; 4] = table(recs, "strong")?;
    let x_times = column(strong, "xmoe_ep64_step_s")?;
    let tutel = |r: &Record| r.opt("tutel_ep128_step_s");
    let (t_first, t_last) = (tutel(&strong[0])?, tutel(&strong[3])?);
    let early = x_times[0] / x_times[1];
    let late = x_times[2] / x_times[3];
    let x_last = x_times[3];
    Ok(vec![
        Check::new(
            "X-MoE above Tutel at every weak-scaling point",
            x_series.iter().zip(&t_series).all(|(x, t)| x > t),
            format!("X {x_series:.1?} vs T {t_series:.1?}"),
        ),
        Check::new(
            "X-MoE's throughput drop across the sweep is no worse than Tutel's",
            x_drop <= t_drop + 0.05,
            format!(
                "X drop {:.1}% vs Tutel drop {:.1}%",
                100.0 * x_drop,
                100.0 * t_drop
            ),
        ),
        Check::new(
            "Tutel cannot run at 128 GPUs; X-MoE can",
            t_first.is_none(),
            t_first.map_or("OOM".into(), |t| format!("{t:.2} s")),
        ),
        Check::new(
            "X-MoE iteration time drops monotonically with GPU count",
            x_times.windows(2).all(|w| w[1] <= w[0] * 1.02),
            format!("{x_times:.2?}"),
        ),
        Check::new(
            "scaling gains flatten beyond one rack (all-to-all latency dominates)",
            late < early,
            format!("128->256 gain {early:.2}x vs 512->1024 gain {late:.2}x"),
        ),
        Check::new(
            "X-MoE and Tutel converge at 1024 GPUs",
            t_last.is_some_and(|t| (x_last - t).abs() / t < 0.35),
            t_last.map_or("Tutel OOM".into(), |t| {
                format!("X {x_last:.2}s vs Tutel {t:.2}s")
            }),
        ),
    ])
}
