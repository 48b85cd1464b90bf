//! Tier-1 gate on the paper's evaluation: every entry of `spine::PAPER`
//! (and `recovery`) is run, rendered and judged from the rendered text, as
//! `xmoe-cli bench <name>` does it, then held against its committed pin
//! `bench/paper/<name>.json`.
//!
//! Every experiment is analytic, seeded or simulated-clock, so the records
//! must equal the pin exactly (the `worker_threads` / `xmoe_threads` stamps
//! aside). A pin that legitimately moves is regenerated with the existing
//! flag — `xmoe-cli bench <name> --out bench/paper/<name>.json` — and the
//! diff reviewed; there is no bless switch.

use xmoe::bench::spine::{self, Bench, Env, Record};
use xmoe::tensor::CountingAlloc;

/// The claims allowed not to hold: (entry, claim prefix), documented in
/// EXPERIMENTS.md. A documented deviation that starts to hold fails too.
const DOCUMENTED: [(&str, &str); 1] = [("tab05_a100", "Small: Tutel OOM (paper)")];

fn unstamped(text: &str) -> Vec<Record> {
    let mut recs = spine::parse(text).expect("records parse");
    for r in &mut recs {
        r.config
            .retain(|(k, _)| k != "worker_threads" && k != "xmoe_threads");
    }
    recs
}

fn entry(name: &str, claims: usize) {
    static IDLE: CountingAlloc = CountingAlloc::new();
    let bench: &Bench = spine::ALL.iter().find(|b| b.name == name).expect(name);
    let (text, live) = spine::measure(bench, false, &Env { alloc: &IDLE });
    let mut checks = live;
    checks.extend(spine::judge(bench, &text).expect("records judge"));
    assert_eq!(checks.len(), claims, "{name}: claim count");

    let deviating: Vec<(&str, &str)> = checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| (name, c.claim.as_str()))
        .collect();
    let expected: Vec<_> = DOCUMENTED.iter().filter(|d| d.0 == name).collect();
    assert_eq!(deviating.len(), expected.len(), "{name}: {deviating:?}");
    for (dev, doc) in deviating.iter().zip(expected) {
        assert!(dev.1.starts_with(doc.1), "{name}: undocumented {dev:?}");
    }
    assert_eq!(spine::verdict(&checks), Ok(()), "{name}");

    let path = format!("{}/bench/paper/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let pin = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let (fresh, pinned) = (unstamped(&text), unstamped(&pin));
    assert_eq!(fresh.len(), pinned.len(), "{name}: record count vs {path}");
    for (i, (f, p)) in fresh.iter().zip(&pinned).enumerate() {
        assert_eq!(f, p, "{name}: record {i} differs from {path}");
    }
}

/// One test per entry (so they run in parallel) plus one that the list is
/// the registry's.
macro_rules! entries {
    ($($name:ident: $claims:literal,)*) => {
        $(#[test]
        fn $name() {
            entry(stringify!($name), $claims);
        })*

        #[test]
        fn every_paper_entry_and_recovery_is_gated() {
            let gated = [$(stringify!($name)),*];
            let registry = spine::PAPER.iter().map(|b| b.name).chain(["recovery"]);
            assert_eq!(registry.collect::<Vec<_>>(), gated);
            assert_eq!([$($claims),*].iter().sum::<usize>(), 76 + 2);
        }
    };
}

entries! {
    fig03_memory: 4,
    fig04_redundancy: 3,
    fig09_main: 7,
    fig10_scaling: 6,
    fig11_breakdown: 7,
    fig12_rbd: 5,
    tab04_activation_memory: 5,
    fig13_ssmb_memory: 3,
    fig14_ssmb_vs_ckpt: 2,
    tab05_a100: 5,
    fig15_loss: 4,
    fig17_ssmb_vs_ted: 3,
    fig18_alltoall_scale: 4,
    fig20_depth_topk: 4,
    appc_placement: 2,
    ablation_pilot: 2,
    ablation_capacity: 4,
    ablation_skew: 3,
    ablation_blocksparse: 3,
    recovery: 2,
}
