//! `bench serving` — continuous-batching inference under naive vs
//! histogram-optimized expert placement.
//!
//! Sweeps {placement: naive, optimized} × {arrival: steady, bursty,
//! diurnal} × {skew: uniform, skewed} through the `xmoe_serve` engine: a
//! deterministic request trace drives admission-controlled continuous
//! batching over the padding-free pipeline on a simulated Frontier slice,
//! while the optimized runs profile per-expert routing histograms and
//! re-solve expert→rank placement against the topology cost model.
//!
//! The headline claim, gated over every skewed (arrival, skew) pair: the
//! MoETuner-style placement strictly reduces both priced off-node bytes and
//! p99 latency versus naive round-robin and never loses goodput. Live
//! checks: the whole simulation is bitwise-reproducible for a fixed seed
//! (one configuration is run twice), and every KV-ledger cross-check holds.
//!
//! Records: a `config` object (placement/arrival/skew/world) and the
//! scalars `p50_s`, `p99_s`, `goodput_tps`, `deadline_miss_rate`,
//! `off_node_bytes`, `completed`, `rejected`, `resolves`. `--smoke` runs
//! fewer requests and arrivals.

use xmoe_core::config::MoeModelConfig;
use xmoe_serve::{serve, ArrivalProcess, PlacementMode, ServeConfig, ServeReport, TrafficConfig};

use crate::spine::{bench, each, int, print_records, tag, Check, Record, Val};

bench!(
    serving,
    "continuous batching under naive vs optimized expert placement"
);

const WORLD: usize = 32;
const SEED: u64 = 42;
const RATE_RPS: usize = 400;
const SKEW: usize = 8;
const TOPIC_WIDTH: usize = 6;

/// The swept model: 64 experts over 32 ranks (4 Frontier nodes), top-k 6.
fn model() -> MoeModelConfig {
    MoeModelConfig::custom("serve-bench", 2048, 2048, 1408, 64, 6, 28)
}

fn arrivals(smoke: bool) -> Vec<(&'static str, ArrivalProcess)> {
    let mut v = vec![
        ("steady", ArrivalProcess::Steady),
        (
            "bursty",
            ArrivalProcess::Bursty {
                on_s: 0.05,
                off_s: 0.3,
                burst_mult: 10.0,
            },
        ),
    ];
    if !smoke {
        v.push((
            "diurnal",
            ArrivalProcess::Diurnal {
                period_s: 0.5,
                amplitude: 0.8,
            },
        ));
    }
    v
}

fn run_config(
    placement: PlacementMode,
    arrival: ArrivalProcess,
    skew: usize,
    requests: usize,
) -> ServeReport {
    let mut traffic = TrafficConfig::steady(RATE_RPS as f64, SEED).with_arrival(arrival);
    if skew > 0 {
        traffic = traffic.with_skew(skew as f64, TOPIC_WIDTH);
    }
    let cfg = ServeConfig::new(model(), WORLD, traffic)
        .with_requests(requests)
        .with_placement(placement);
    serve(cfg).expect("the bench's serving config is valid")
}

fn run(smoke: bool) -> (Vec<Record>, Vec<Check>) {
    let requests = if smoke { 80 } else { 160 };
    println!(
        "== bench serving — continuous batching, naive vs optimized placement \
         ({WORLD} ranks, {} experts top-k {}, {RATE_RPS} req/s, {requests} requests) ==",
        model().num_experts,
        model().top_k
    );

    // Bitwise reproducibility witness: same seed, same report, to the bit.
    let rerun = || {
        run_config(
            PlacementMode::Optimized,
            ArrivalProcess::Steady,
            SKEW,
            requests,
        )
    };
    let (a, b) = (rerun(), rerun());
    let bitwise = a.output_checksum.to_bits() == b.output_checksum.to_bits()
        && a.p99_s.to_bits() == b.p99_s.to_bits()
        && a.off_node_bytes == b.off_node_bytes
        && a.steps == b.steps;

    let mut records = Vec::new();
    let mut ledgers_ok = true;
    for (label, arrival) in arrivals(smoke) {
        for skew in [0, SKEW] {
            for placement in [PlacementMode::Naive, PlacementMode::Optimized] {
                let rep = run_config(placement, arrival, skew, requests);
                ledgers_ok &= rep.ledger_ok;
                records.push(
                    Record::default()
                        .cfg("placement", tag(placement.name()))
                        .cfg("arrival", tag(label))
                        .cfg("skew", int(skew))
                        .cfg("rate_rps", int(RATE_RPS))
                        .cfg("requests", int(requests))
                        .cfg("world", int(WORLD))
                        .cfg("experts", int(model().num_experts))
                        .cfg("top_k", int(model().top_k))
                        .metric("p50_s", Val::Fixed(rep.p50_s, 9))
                        .metric("p99_s", Val::Fixed(rep.p99_s, 9))
                        .metric("goodput_tps", Val::Fixed(rep.goodput_tps, 3))
                        .metric("deadline_miss_rate", Val::Fixed(rep.deadline_miss_rate, 6))
                        .metric("off_node_bytes", Val::Int(rep.off_node_bytes))
                        .metric("completed", int(rep.completed))
                        .metric("rejected", int(rep.rejected))
                        .metric("resolves", int(rep.resolves)),
                );
            }
        }
    }
    print_records("serving sweep", &records);
    println!(
        "note: uniform rows show near-equal placements by design — round-robin is \
         already optimal when every expert is equally hot; the win appears once \
         routing skew makes topic bands coherent."
    );
    let live = vec![
        Check::new(
            "same-seed serving runs are bitwise identical",
            bitwise,
            "checksum, p99, off-node bytes and step count must all match to the bit".into(),
        ),
        Check::new(
            "every windowed KV-ledger cross-check passed",
            ledgers_ok,
            "analytic reservation accounting must match the per-request recount".into(),
        ),
    ];
    (records, live)
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    each(recs, |r| {
        let (p50, p99) = (r.positive("p50_s")?, r.positive("p99_s")?);
        if p99 < p50 {
            return Err(format!("p99 {p99} below p50 {p50}"));
        }
        let miss = r.num("deadline_miss_rate")?;
        if !(0.0..=1.0).contains(&miss) {
            return Err(format!("deadline_miss_rate {miss} outside [0, 1]"));
        }
        let (completed, rejected) = (r.num("completed")?, r.num("rejected")?);
        let requests = r.num("requests")?;
        if completed + rejected != requests {
            return Err(format!(
                "completed {completed} + rejected {rejected} != requests {requests}"
            ));
        }
        let placement = r.tag("placement")?;
        if placement != "naive" && placement != "optimized" {
            return Err(format!("unknown placement {placement}"));
        }
        Ok(())
    })?;

    // Every skewed (arrival, skew) pair present under both placements, as
    // (arrival, optimized, naive).
    let mut pairs = Vec::new();
    for o in recs {
        let (arrival, skew) = (o.tag("arrival")?, o.num("skew")?);
        if o.tag("placement")? != "optimized" || skew <= 0.0 {
            continue;
        }
        let naive = recs.iter().find(|n| {
            n.tag("placement") == Ok("naive")
                && n.tag("arrival") == Ok(arrival)
                && n.num("skew") == Ok(skew)
        });
        pairs.extend(naive.map(|n| (arrival, o, n)));
    }
    if pairs.is_empty() {
        return Err("no skewed naive/optimized pair to gate the placement claim on".into());
    }
    let claim = |what: &str, key: &str, holds: fn(f64, f64) -> bool| {
        let mut ok = true;
        let mut detail = format!("optimized vs naive {key}");
        for (arrival, o, n) in &pairs {
            let (o, n) = (o.num(key)?, n.num(key)?);
            ok &= holds(o, n);
            detail.push_str(&format!(" | {arrival}: {o} vs {n}"));
        }
        Ok::<_, String>(Check::new(what, ok, detail))
    };
    Ok(vec![
        claim(
            "optimized placement strictly cuts off-node bytes on every skewed pair",
            "off_node_bytes",
            |o, n| o < n,
        )?,
        claim(
            "optimized placement strictly cuts p99 latency on every skewed pair",
            "p99_s",
            |o, n| o < n,
        )?,
        claim(
            "optimized placement never loses goodput on a skewed pair",
            "goodput_tps",
            |o, n| o >= n,
        )?,
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

        // Records 6/7 are the bursty skewed pair (naive, optimized): the
        // run path used to gate only the steady pair.
        assert_eq!(recs[7].tag("arrival"), Ok("bursty"));
        let naive_p99 = recs[6].metrics[1].1.clone();
        let slow = set(&recs, 7, "p99_s", naive_p99);
        let why = failure(&BENCH, &slow).expect("optimized p99 equal to naive");
        assert!(
            why.contains("cuts p99 latency on every skewed pair"),
            "{why}"
        );

        let naive_off = recs[6].metrics[4].1.clone();
        let chatty = set(&recs, 7, "off_node_bytes", naive_off);
        let why = failure(&BENCH, &chatty).expect("optimized bytes equal to naive");
        assert!(
            why.contains("cuts off-node bytes on every skewed pair"),
            "{why}"
        );

        let starved = set(&recs, 7, "goodput_tps", Val::Fixed(1.0, 3));
        let why = failure(&BENCH, &starved).expect("optimized goodput collapsed");
        assert!(why.contains("never loses goodput"), "{why}");

        let lost = set(&recs, 2, "completed", Val::Int(79));
        let why = failure(&BENCH, &lost).expect("a request went missing");
        assert!(
            why.contains("record 2: completed 79 + rejected 0 != requests 80"),
            "{why}"
        );
    }
}
