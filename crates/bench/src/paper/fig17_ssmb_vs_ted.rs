//! Fig 17 (Appendix C.2): SSMB vs TED memory-saving advantage regions.
//!
//! For each public MoE model the ratio `r = k / H_FFN` is compared against
//! the borderline `2 / (c S)` at sequence lengths 2048/4096/8192 with
//! capacity factor c = 1: points above the line favour SSMB, below favour
//! TED. DeepSeek-style models sit far above at every S; Mixtral far below;
//! Arctic flips with sequence length.

use xmoe_core::config::MoeModelConfig;
use xmoe_core::memory::{ssmb_activation_saving, ssmb_min_model_cost};

use crate::spine::{bench, print_records, row, table, tag, Check, Outcome, Record, Val};

bench!(fig17_ssmb_vs_ted, "Fig 17: SSMB vs TED advantage regions");

const SEQS: [usize; 3] = [2048, 4096, 8192];

fn favours(ssmb: bool) -> &'static str {
    if ssmb {
        "SSMB"
    } else {
        "TED"
    }
}

fn run(_smoke: bool) -> Outcome {
    let mut models = [
        MoeModelConfig::mixtral_8x7b(),
        MoeModelConfig::mixtral_8x22b(),
        MoeModelConfig::deepseek_moe(),
        MoeModelConfig::deepseek_v3(),
        MoeModelConfig::arctic(),
    ];
    // The appendix plots with capacity factor c = 1.
    for m in &mut models {
        m.capacity_factor = 1.0;
    }

    let regions = models.each_ref().map(|m| {
        let rec = row("regions")
            .cfg("model", tag(&m.name))
            .metric("r = k/H_FFN", Val::Fixed(m.ssmb_ratio(), 10));
        SEQS.iter().fold(rec, |rec, s| {
            let border = 2.0 / (m.capacity_factor * *s as f64);
            rec.metric(&format!("border S={s}"), Val::Fixed(border, 10))
        })
    });
    print_records(
        "Fig 17: SSMB vs TED advantage (c = 1; SSMB wins where r is above the border)",
        &regions,
    );

    // Concrete savings-vs-cost numbers at G = 4 TP degree, S = 4096.
    let gib = |bytes: f64| Val::Fixed(bytes / (1u64 << 30) as f64, 6);
    let detail = models.each_ref().map(|m| {
        let saving = ssmb_activation_saving(m, 4096, 4);
        let cost = ssmb_min_model_cost(m, 4);
        row("eqs 1-2")
            .cfg("model", tag(&m.name))
            .metric("ssmb_activation_saving_gib", gib(saving))
            .metric("ssmb_model_state_cost_gib", gib(cost))
            .metric("winner", tag(favours(saving > cost)))
    });
    print_records("Appendix C.2 Eqs. 1-2 at G=4, S=4096", &detail);
    ([regions, detail].concat(), Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let [mixtral_7b, mixtral_22b, ds_moe, ds_v3, arctic] = table(recs, "regions")?;
    let wins = |r: &Record, s: usize| {
        Ok::<_, String>(r.num("r = k/H_FFN")? > r.num(&format!("border S={s}"))?)
    };
    // Whether every (model, S) point of `models` falls on the `ssmb` side.
    let all = |models: [&Record; 2], ssmb: bool| -> Result<bool, String> {
        let mut points = models.iter().flat_map(|m| SEQS.map(|s| wins(m, s)));
        points.try_fold(true, |acc, w| Ok(acc && w? == ssmb))
    };
    let (short, long) = (wins(arctic, 2048)?, wins(arctic, 8192)?);
    Ok(vec![
        Check::new(
            "DeepSeek models favour SSMB at every sequence length",
            all([ds_moe, ds_v3], true)?,
            "DeepSeek-MoE / DeepSeek-v3".into(),
        ),
        Check::new(
            "Mixtral models favour TED at every sequence length",
            all([mixtral_7b, mixtral_22b], false)?,
            "Mixtral-8x7b / 8x22b".into(),
        ),
        Check::new(
            "Arctic flips from TED to SSMB as the sequence grows",
            !short && long,
            format!("S=2048 -> {}, S=8192 -> {}", favours(short), favours(long)),
        ),
    ])
}
