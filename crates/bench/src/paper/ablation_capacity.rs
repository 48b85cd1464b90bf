//! Ablation: the GShard capacity factor `c` (paper uses c = 1.25
//! throughout, following GShard).
//!
//! Three effects trade off against each other:
//! * **drops** — entries over capacity are discarded (hurts quality);
//! * **padding** — the dense baseline allocates `E * C` slots whatever the
//!   real load is, so a larger c wastes more memory and bandwidth;
//! * **X-MoE is insulated** — the PFT stores only retained entries, so its
//!   buffers never exceed the routed volume regardless of c.
//!
//! Reported: drop rate and buffer utilisation at each c (live routing), plus
//! the training-loss impact of aggressive capacity on the Fig 15 model.

use xmoe_collectives::SimCluster;
use xmoe_core::gating::{DropPolicy, Router};
use xmoe_core::pft::Pft;
use xmoe_tensor::Tensor;
use xmoe_train::{build_moe_layers, DistMoeLm, MarkovCorpus, TrainConfig};

use crate::spine::{bench, column, int, print_records, row, table, Check, Outcome, Record, Val};

bench!(
    ablation_capacity,
    "Ablation: capacity factor vs drops/padding"
);

fn run(_smoke: bool) -> Outcome {
    // --- Routing-level effects ------------------------------------------
    let (s, h, e, k) = (4096usize, 64usize, 64usize, 6usize);
    let router = Router::new(h, e, k, 7001);
    let tokens = Tensor::rand_uniform(s, h, 1.0, 7002);
    let gating = router.gate(&tokens);

    let sweep = [0.5f64, 0.75, 1.0, 1.25, 1.5, 2.0].map(|c| {
        let cap = ((c * (s * k) as f64) / e as f64).ceil() as usize;
        let pft = Pft::construct(&gating, e, cap, DropPolicy::CapacityOnly);
        // Dense baseline allocates E*C slots; utilisation = retained / slots.
        let waste = 1.0 - pft.len() as f64 / (e * cap) as f64;
        row("sweep")
            .cfg("c", Val::Fixed(c, 2))
            .cfg("capacity", int(cap))
            .metric(
                "dropped",
                Val::Fixed(pft.dropped as f64 / (s * k) as f64, 8),
            )
            .metric("baseline_padding_waste", Val::Fixed(waste, 8))
            .metric("pft_entries", int(pft.len()))
    });
    print_records(
        "capacity factor sweep (E=64, k=6, S=4096, random router)",
        &sweep,
    );

    // --- Training effect -----------------------------------------------
    // The robust, seed-independent mechanism: a starved capacity keeps
    // dropping the same large share of assignments for the whole run (the
    // router cannot train its way out of a hard budget), while c = 1.25
    // drops almost nothing. On this miniature task the dense path can
    // compensate for the lost expert capacity, so absolute final losses
    // are close — the loss cost of starvation only manifests at scales
    // where the experts carry the capacity, which is the paper's setting.
    let training = [0.25f64, 1.25].map(|c| {
        let mut cfg = TrainConfig::fig15(DropPolicy::CapacityOnly);
        cfg.capacity_factor = c;
        let full_layers = build_moe_layers(&cfg);
        // The single-process model: one rank, its local loss unrounded.
        let last = SimCluster::frontier(1).run(|ctx| {
            let (world, clock) = (&ctx.world, &mut ctx.clock);
            let mut corpus = MarkovCorpus::new(cfg.vocab, 4, 42);
            let mut model = DistMoeLm::new(&cfg, &full_layers, 0, 1);
            let mut loss = 0.0;
            for _ in 0..120 {
                let batch = corpus.batch(cfg.batch, cfg.seq_len);
                loss = model.forward_backward(&batch, world, clock).unwrap();
                model.sync_grads(world, clock).unwrap();
                model.apply_update();
            }
            (loss, model.drop_fraction())
        });
        let (loss, drop_rate) = last[0];
        row("training")
            .cfg("c", Val::Fixed(c, 2))
            .metric("final_loss", Val::Fixed(loss, 6))
            .metric("final_drop_rate", Val::Fixed(drop_rate, 8))
    });
    print_records(
        "the Fig 15 model after 120 steps at different capacity factors",
        &training,
    );
    ([&sweep[..], &training[..]].concat(), Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    // Rows are c = 0.5, 0.75, 1.0, 1.25 (the paper's), 1.5, 2.0.
    let sweep: &[Record; 6] = table(recs, "sweep")?;
    let drop_rates = column(sweep, "dropped")?;
    let padding_waste = column(sweep, "baseline_padding_waste")?;
    let training: &[Record; 2] = table(recs, "training")?;
    let drops_final = column(training, "final_drop_rate")?;
    Ok(vec![
        Check::new(
            "drops decrease monotonically with capacity factor",
            drop_rates.windows(2).all(|w| w[1] <= w[0]),
            format!("{drop_rates:.3?}"),
        ),
        Check::new(
            "baseline padding waste grows with capacity factor",
            padding_waste[5] > padding_waste[0],
            format!("{padding_waste:.3?}"),
        ),
        Check::new(
            "at the paper's c=1.25, drops are already rare (<2%)",
            drop_rates[3] < 0.02,
            format!("{:.3}%", 100.0 * drop_rates[3]),
        ),
        Check::new(
            "starved capacity keeps dropping most assignments even after training",
            drops_final[0] > 0.5 && drops_final[1] < 0.1,
            format!(
                "{:.1}% vs {:.1}% drop rate",
                100.0 * drops_final[0],
                100.0 * drops_final[1]
            ),
        ),
    ])
}
