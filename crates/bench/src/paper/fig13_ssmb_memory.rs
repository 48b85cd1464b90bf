//! Fig 13 (§5.4.3): maximum allocated per-GPU memory with and without
//! SSMB, for the Large model on 256 GPUs, ZeRO-1, EP=64, TP in {1, 2, 4}.

use xmoe_core::config::{MoeModelConfig, ParallelConfig};
use xmoe_core::memory::{total_per_gpu, MoeSystem};

use crate::fmt_gib;
use crate::spine::{bench, int, print_records, row, table, Check, Outcome, Record, Val};

bench!(fig13_ssmb_memory, "Fig 13: SSMB memory savings");

fn run(_smoke: bool) -> Outcome {
    let cfg = MoeModelConfig::large();
    let hbm = 64_000_000_000u64;
    let recs = [1usize, 2, 4].map(|tp| {
        let mem = |ssmb: bool| {
            let par = ParallelConfig::new(256, 64)
                .with_tp(tp)
                .with_zero(1)
                .with_ssmb(ssmb);
            total_per_gpu(&cfg, &par, MoeSystem::XMoe)
        };
        let (with, without) = (mem(true), mem(false));
        row("fig13")
            .cfg("tp", int(tp))
            .metric("with_ssmb", Val::Int(with.total()))
            .metric("without_ssmb", Val::Int(without.total()))
            .metric("moe_act_with_ssmb", Val::Int(with.moe_activations))
            .metric("moe_act_without_ssmb", Val::Int(without.moe_activations))
            .metric("with_ssmb_fits_64gb", int(with.fits(hbm) as usize))
            .metric("without_ssmb_fits_64gb", int(without.fits(hbm) as usize))
    });
    print_records(
        "Fig 13: max per-GPU memory (bytes), Large @256 GPUs, ZeRO-1, EP=64",
        &recs,
    );
    (recs.to_vec(), Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let rows: &[Record; 3] = table(recs, "fig13")?;
    let totals = |r: &Record| Ok::<_, String>((r.num("with_ssmb")?, r.num("without_ssmb")?));
    let gap = |r: &Record| totals(r).map(|(with, without)| (without - with) as i64);
    let gaps = [gap(&rows[0])?, gap(&rows[1])?, gap(&rows[2])?];
    let tp4 = &rows[2];
    let (with, without) = totals(tp4)?;
    Ok(vec![
        Check::new(
            "SSMB saves nothing at TP=1 (no sequence to shard)",
            gaps[0] == 0,
            format!("gap {}", gaps[0]),
        ),
        Check::new(
            "SSMB memory benefit grows with TP degree",
            gaps[1] > 0 && gaps[2] > gaps[1],
            format!("gaps {gaps:?}"),
        ),
        Check::new(
            "at TP=4, SSMB is what makes Large fit in 64 GB",
            tp4.num("with_ssmb_fits_64gb")? == 1.0 && tp4.num("without_ssmb_fits_64gb")? == 0.0,
            format!("{} vs {}", fmt_gib(with as u64), fmt_gib(without as u64)),
        ),
    ])
}
