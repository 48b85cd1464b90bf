//! Fig 9 (§5.2): trainability and training throughput of Small/Medium/
//! Large on 256 GPUs and Super on 1024 GPUs, for DeepSpeed-MoE,
//! DeepSpeed-TED, Tutel and X-MoE, each swept over the paper's
//! configuration grid (EP in {32..256}, TP for TED/X-MoE, ZeRO 1/2,
//! max power-of-two micro-batch).

use xmoe_core::config::MoeModelConfig;
use xmoe_core::memory::MoeSystem;
use xmoe_core::perf::PerfModel;

use crate::spine::{
    bench, int, or_oom, print_records, row, table, tag, Check, Env, Outcome, Record, Val,
};

bench!(fig09_main, "Fig 9: trainability & throughput");

fn run(_smoke: bool, _env: &Env) -> Outcome {
    let cases = [
        (MoeModelConfig::small(), 256usize, 1024usize),
        (MoeModelConfig::medium(), 256, 1024),
        (MoeModelConfig::large(), 256, 1024),
        (MoeModelConfig::super_(), 1024, 1024),
    ];
    let recs = cases.map(|(cfg, world, batch)| {
        let pm = PerfModel::frontier(world);
        let rec = row("fig9")
            .cfg("model", tag(&cfg.name))
            .cfg("gpus", int(world))
            .metric("params", Val::Int(cfg.total_params()));
        MoeSystem::ALL.iter().fold(rec, |rec, &sys| {
            let best = pm.best_throughput(&cfg, world, sys, batch);
            rec.metric(sys.name(), or_oom(best.map(|rep| rep.tflops_per_gpu), 6))
        })
    });
    print_records("Fig 9: per-GPU TFLOP/s or OOM", &recs);
    (recs.to_vec(), Vec::new())
}

/// The four systems' cells in `MoeSystem::ALL` order (DS-MoE, TED, Tutel,
/// X-MoE); an OOM cell is `None`, an absent one an error.
fn cells(r: &Record) -> Result<[Option<f64>; 4], String> {
    let [ds, ted, tutel, x] = MoeSystem::ALL.map(|sys| r.opt(sys.name()));
    Ok([ds?, ted?, tutel?, x?])
}

/// `a / b` beats `bound`; a side that ran out of memory fails the claim.
fn beats(claim: &str, a: Option<f64>, b: Option<f64>, bound: f64) -> Check {
    let ratio = a.zip(b).map(|(a, b)| a / b);
    let detail = ratio.map_or("OOM".into(), |r| format!("{r:.2}x"));
    Check::new(claim, ratio.is_some_and(|r| r > bound), detail)
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    // Fig 9 and §5.2 headline claims.
    let [small, medium, large, sup] = table(recs, "fig9")?;
    let small_cells = cells(small)?;
    let [m_ds, m_ted, m_tutel, m_x] = cells(medium)?;
    let only_xmoe = |c: [Option<f64>; 4]| c[3].is_some() && c[..3].iter().all(Option::is_none);
    let gpus = sup.num("gpus")?;
    let sup_pf = cells(sup)?[3].map(|v| v * gpus / 1e3);
    // The "10x larger trainable model" claim: Super (545B, X-MoE-only)
    // versus the largest baseline-trainable model (Medium, 55.2B).
    let growth = sup.num("params")? / medium.num("params")?;
    Ok(vec![
        Check::new(
            "all four systems train Small at 256 GPUs",
            small_cells.iter().all(Option::is_some),
            format!("{small_cells:.1?}"),
        ),
        Check::new(
            "Medium: DS-MoE OOM; TED/Tutel/X-MoE train",
            m_ds.is_none() && m_ted.is_some() && m_tutel.is_some() && m_x.is_some(),
            "trainability pattern".into(),
        ),
        beats(
            "Medium: X-MoE beats Tutel (paper: 1.42x)",
            m_x,
            m_tutel,
            1.05,
        ),
        beats(
            "Medium: X-MoE beats TED by a large factor (paper: 5.15x)",
            m_x,
            m_ted,
            2.0,
        ),
        Check::new(
            "Large: only X-MoE trains at 256 GPUs",
            only_xmoe(cells(large)?),
            "trainability pattern".into(),
        ),
        Check::new(
            "Super 545B: only X-MoE trains at 1024 GPUs (paper: 10.44 PFLOPs)",
            only_xmoe(cells(sup)?),
            sup_pf.map_or("OOM".into(), |pf| format!("{pf:.2} PF aggregate")),
        ),
        Check::new(
            "X-MoE trains a ~10x larger model than the best baseline",
            growth > 8.0,
            format!("{growth:.1}x"),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spine::testing::{env, failure, set};

    #[test]
    fn oom_pattern_and_ratio_gates_are_live() {
        let (recs, live) = run(false, &env());
        assert!(live.is_empty());
        assert_eq!(failure(&BENCH, &recs), None);

        // OOM pattern: a baseline that trains Large.
        let tutel_trains = set(&recs, 2, "Tutel", Val::Fixed(30.0, 6));
        let why = failure(&BENCH, &tutel_trains).expect("Tutel trains Large");
        assert!(
            why.contains("Large: only X-MoE trains at 256 GPUs"),
            "{why}"
        );

        // Ratio threshold: 1.04x is under the 1.05x bound.
        let tutel = recs[1].num("Tutel").unwrap();
        let close = set(&recs, 1, "X-MoE", Val::Fixed(1.04 * tutel, 6));
        let why = failure(&BENCH, &close).expect("X-MoE barely ahead");
        assert!(
            why.contains("X-MoE beats Tutel (paper: 1.42x) (1.04x)"),
            "{why}"
        );

        // An OOM regression fails both Medium ratio claims; the binary this
        // replaces printed two lines fewer and exited 0.
        let oom = set(&recs, 1, "X-MoE", tag("OOM"));
        let why = failure(&BENCH, &oom).expect("X-MoE OOM on Medium");
        assert!(
            why.contains("X-MoE beats Tutel (paper: 1.42x) (OOM)"),
            "{why}"
        );
        assert!(
            why.contains("by a large factor (paper: 5.15x) (OOM)"),
            "{why}"
        );

        // A missing cell or row is an error, not a shorter claim list.
        let mut bare = recs.clone();
        bare[1].metrics.pop();
        assert_eq!(failure(&BENCH, &bare).unwrap(), "missing key X-MoE");
        let why = failure(&BENCH, &recs[..3]).expect("three models");
        assert_eq!(why, "table fig9: expected 4 records, found 3");
    }
}
