//! `bench stability` — SDC detection rate × guard overhead.
//!
//! Sweeps seeded silent-data-corruption injections over the guarded chaos
//! trainer and reports, per fault family, the fraction of trials the
//! numerical guard catches. Each trial is a full multi-rank training run
//! with one injected fault; the trial index seeds the fault plan, so the
//! corrupted element (and therefore its magnitude) varies across trials
//! exactly the way real SDC strikes random state. High exponent bits are
//! near-always caught (the flip lands decades above the spike threshold
//! or on a non-finite); low mantissa bits are often *undetectable by
//! design* — the corruption is smaller than the batch-to-batch gradient
//! jitter — which is why the sweep reports a rate, not a boolean.
//!
//! The overhead side runs the same model clean, guard on, and charges the
//! detection machinery under `guard:*` span labels (scan, status
//! piggyback, checkpoint CRC). The gates hold the clean-run overhead
//! under 5% of simulated step time; the live checks hold that the clean
//! run trips zero guard events (the no-false-positive contract) and that
//! the guard spans stay exact.
//!
//! Records: `config`, `trials`, `detected`, `detection_rate`,
//! `guard_overhead_frac`. `--smoke` runs fewer trials and families.

use xmoe_collectives::SimCluster;
use xmoe_core::gating::DropPolicy;
use xmoe_topology::FaultPlan;
use xmoe_train::{run_chaos_rank, ChaosConfig, ChaosReport, GuardConfig, TrainConfig};

use crate::spine::{bench, each, int, print_records, tag, Check, Record, Val};

bench!(stability, "SDC detection rate x guard overhead");

const WORLD: usize = 2;
const STEPS: u64 = 8;
const INJECT_AT: u64 = 5;
/// The family the detection-rate gate reads.
const EXPONENT_FAMILY: &str = "grad exponent flip";

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
    c.seed = 77;
    c
}

/// One guarded run; returns every rank's report plus its clock buckets
/// and end time.
#[allow(clippy::type_complexity)]
fn guarded_run(plan: Option<FaultPlan>) -> Vec<(ChaosReport, Vec<(String, f64)>, f64)> {
    let c = cfg();
    let chaos = ChaosConfig::new(STEPS, 2).with_guard(GuardConfig::default());
    let c = &c;
    let chaos = &chaos;
    let mut cluster = SimCluster::frontier(WORLD);
    if let Some(p) = plan {
        cluster = cluster.with_faults(p);
    }
    cluster.run(move |ctx| {
        let report = run_chaos_rank(c, chaos, ctx).expect("unrecoverable comm fault");
        (report, ctx.clock.buckets().to_vec(), ctx.clock.now())
    })
}

fn run(smoke: bool) -> (Vec<Record>, Vec<Check>) {
    let trials = if smoke { 4 } else { 12 };
    // A fault family: the spec template swept over trial seeds.
    let mut families = vec![
        (
            EXPONENT_FAMILY,
            format!("bitflip:rank=1,at={INJECT_AT},site=grad,bit=30"),
        ),
        (
            "act exponent flip",
            format!("bitflip:rank=1,at={INJECT_AT},site=act,bit=30"),
        ),
    ];
    if !smoke {
        families.push((
            "grad mantissa flip",
            format!("bitflip:rank=1,at={INJECT_AT},site=grad,bit=12"),
        ));
        families.push((
            "grad random-bit flip",
            format!("bitflip:rank=1,at={INJECT_AT},site=grad"),
        ));
        let until = INJECT_AT + 1;
        families.push((
            "act noise burst",
            format!("noise:rank=1,site=act,amp=100,from={INJECT_AT},until={until}"),
        ));
    }

    println!(
        "== bench stability — SDC detection rate x guard overhead \
         ({WORLD} ranks, {STEPS} steps, inject at step {INJECT_AT}, {trials} trials/family) =="
    );

    // Clean baseline: overhead fraction from `guard:*` spans, and the
    // no-false-positive contract.
    let clean = guarded_run(None);
    let mut overhead_frac = 0.0f64;
    let mut clean_trips = 0usize;
    let mut spans_exact = true;
    for (r, buckets, now) in &clean {
        clean_trips += r.guard_events.len() + r.guard_false_positives as usize;
        let total: f64 = buckets.iter().map(|(_, t)| t).sum();
        spans_exact &= (total - now).abs() <= 1e-9 * now.max(1.0);
        let guard: f64 = buckets
            .iter()
            .filter(|(l, _)| l.starts_with("guard:"))
            .map(|(_, t)| t)
            .sum();
        overhead_frac = overhead_frac.max(guard / now);
    }
    let live = vec![
        Check::new(
            "clean guarded run trips zero events (no false positives)",
            clean_trips == 0,
            "the windowed detectors must not fire on ordinary training noise".into(),
        ),
        Check::new(
            "guard spans preserve exactness (buckets sum to now)",
            spans_exact,
            "guard:* charges must go through the span recorder, not around it".into(),
        ),
    ];

    let mut records = Vec::new();
    for (family, spec) in &families {
        let mut detected = 0usize;
        for trial in 0..trials {
            let plan = FaultPlan::parse(trial as u64 + 1, spec).expect("bench spec parses");
            let reports = guarded_run(Some(plan));
            // Detection is rank-consistent; consult rank 0.
            let (r0, _, _) = &reports[0];
            let hit = r0.guard_events.iter().any(|e| e.step >= INJECT_AT)
                || r0
                    .recoveries
                    .iter()
                    .any(|rec| rec.failed_at_step >= INJECT_AT);
            if hit {
                detected += 1;
            }
            for (r, _, _) in &reports {
                assert_eq!(
                    r.guard_false_positives, 0,
                    "injection trial must not misclassify its own detection"
                );
                assert!(
                    r.losses.iter().all(|&(_, l)| l.is_finite()),
                    "guarded run must end with finite losses"
                );
            }
        }
        let rate = detected as f64 / trials as f64;
        records.push(
            Record::default()
                .cfg("family", tag(family))
                .cfg("spec", tag(spec))
                .cfg("world", int(WORLD))
                .cfg("steps", Val::Int(STEPS))
                .cfg("inject_at", Val::Int(INJECT_AT))
                .metric("trials", int(trials))
                .metric("detected", int(detected))
                .metric("detection_rate", Val::Fixed(rate, 6))
                .metric("guard_overhead_frac", Val::Fixed(overhead_frac, 9)),
        );
    }
    print_records("detection rate by fault family", &records);
    println!(
        "note: mantissa-bit flips below the batch-noise floor are invisible to any \
         norm- or spike-based detector — that residual rate is the motivation for \
         checkpoint CRCs and bounded-rollback recovery rather than detection alone."
    );
    (records, live)
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let mut overhead = 0.0f64;
    each(recs, |r| {
        let (trials, detected) = (r.num("trials")?, r.num("detected")?);
        if trials < 1.0 || detected > trials {
            return Err(format!("detected {detected} of {trials} trials"));
        }
        let rate = r.num("detection_rate")?;
        if !(0.0..=1.0).contains(&rate) || (rate - detected / trials).abs() > 1e-3 {
            return Err(format!("rate {rate} inconsistent with counts"));
        }
        let frac = r.num("guard_overhead_frac")?;
        if frac < 0.0 {
            return Err(format!("guard_overhead_frac {frac} is negative"));
        }
        overhead = overhead.max(frac);
        Ok(())
    })?;
    let exponent = Record::tagged(recs, "family", EXPONENT_FAMILY)?;
    Ok(vec![
        Check::new(
            "clean-run guard overhead under 5% of step time",
            overhead < 0.05,
            format!("measured {:.2}%", 100.0 * overhead),
        ),
        Check::new(
            "high exponent-bit gradient flips are reliably caught",
            exponent.num("detection_rate")? >= 0.75,
            format!(
                "caught {}/{}",
                exponent.num("detected")?,
                exponent.num("trials")?
            ),
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
        assert!(live.iter().all(|c| c.ok));
        assert_eq!(failure(&BENCH, &recs), None);

        let heavy = set(&recs, 1, "guard_overhead_frac", Val::Fixed(0.05, 9));
        let why = failure(&BENCH, &heavy).expect("5% overhead is over the bound");
        assert!(why.contains("guard overhead under 5%"), "{why}");

        let blind = set(&recs, 0, "detected", Val::Int(2));
        let blind = set(&blind, 0, "detection_rate", Val::Fixed(0.5, 6));
        let why = failure(&BENCH, &blind).expect("half the exponent flips missed");
        assert!(why.contains("exponent-bit gradient flips"), "{why}");

        let lying = set(&recs, 1, "detection_rate", Val::Fixed(1.0, 6));
        let why = failure(&BENCH, &lying).expect("rate off its counts");
        assert!(why.contains("record 1: rate 1 inconsistent"), "{why}");
    }
}
