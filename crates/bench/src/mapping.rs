//! `bench mapping` — the auto-mapping planner over every legal 4D folding.
//!
//! Enumerates every legal folding (PP × virtual chunks, attention TP × DP,
//! MoE EP × TP × DP) of a 32-expert model over 16 clean-frontier GCDs and
//! prices each with the analytic cost + memory models. The gates are the
//! planner's contract: at least 8 legal foldings including pipelined
//! (pp > 1) and interleaved (vpp > 1) points, records sorted by step time,
//! and a non-empty (step time, memory) Pareto frontier of fitting plans
//! with memory non-increasing along it (time ascending and memory ascending
//! at once would mean a dominated plan was marked).
//!
//! `--smoke` changes nothing: the planner is analytic and already instant.

use xmoe_core::config::MoeModelConfig;
use xmoe_core::memory::GIB;
use xmoe_core::perf::PerfModel;
use xmoe_core::plan::plan_mappings;

use crate::spine::{bench, each, int, tag, Check, Env, Record, Val};

bench!(
    mapping,
    "the auto-mapping planner over every legal 4D folding"
);

/// Search shape: a 32-expert / 8-layer model over 16 clean-frontier GCDs
/// yields a rich legal frontier — pipelined, interleaved and flat foldings
/// — while the purely analytic pricing keeps the whole enumeration instant.
const WORLD: usize = 16;
const MICRO_BATCH: usize = 1;
const MICROBATCHES: usize = 8;

fn run(_smoke: bool, _env: &Env) -> (Vec<Record>, Vec<Check>) {
    let cfg = MoeModelConfig::custom("plan-demo", 2048, 1024, 704, 32, 4, 8);
    let perf = PerfModel::frontier_clean(WORLD);
    let plans = plan_mappings(&perf, &cfg, MICRO_BATCH, MICROBATCHES);
    let fitting = plans.iter().filter(|p| p.fits).count();
    let pareto = plans.iter().filter(|p| p.pareto).count();
    println!(
        "== bench mapping — auto-mapping planner ({} on {WORLD} clean-frontier GCDs, \
         micro-batch {MICRO_BATCH}, {MICROBATCHES} microbatches) ==",
        cfg.name
    );
    println!(
        "{} legal foldings priced | {fitting} fit in HBM | {pareto} on the (time, memory) \
         Pareto frontier:",
        plans.len()
    );
    println!(
        "{:<46} {:>9} {:>8} {:>7} {:>9}",
        "mapping", "step ms", "TF/GPU", "bubble", "GiB/GPU"
    );
    for p in plans.iter().filter(|p| p.pareto) {
        println!(
            "{:<46} {:>9.2} {:>8.2} {:>7.3} {:>9.2}",
            p.mapping.label(),
            p.step_time * 1e3,
            p.tflops_per_gpu,
            p.bubble,
            p.mem.total() as f64 / GIB
        );
    }
    println!(
        "({} dominated / non-fitting plans omitted from the table; all are in the JSON)",
        plans.len() - pareto
    );
    let records = plans.iter().map(|p| {
        let m = &p.mapping;
        Record::default()
            .cfg("label", tag(&m.label()))
            .cfg("world", int(WORLD))
            .cfg("pp", int(m.pp))
            .cfg("vpp", int(m.virtual_chunks))
            .cfg("microbatches", int(m.microbatches))
            .cfg("attn_tp", int(m.attn.tp))
            .cfg("attn_dp", int(m.attn.dp))
            .cfg("moe_ep", int(m.moe.ep))
            .cfg("moe_tp", int(m.moe.tp))
            .cfg("moe_dp", int(m.moe.dp))
            .metric("step_time_s", Val::Fixed(p.step_time, 9))
            .metric("tflops_per_gpu", Val::Fixed(p.tflops_per_gpu, 4))
            .metric("bubble", Val::Fixed(p.bubble, 6))
            .metric("p2p_s", Val::Fixed(p.p2p_time, 9))
            .metric("dp_sync_s", Val::Fixed(p.dp_sync, 9))
            .metric("mem_bytes", Val::Int(p.mem.total()))
            .metric("fits", int(p.fits as usize))
            .metric("pareto", int(p.pareto as usize))
    });
    (records.collect(), Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let (mut pipelined, mut interleaved) = (0usize, 0usize);
    let mut prev_time = 0.0f64;
    let mut frontier: Vec<f64> = Vec::new();
    each(recs, |r| {
        r.tag("label")?;
        let t = r.positive("step_time_s")?;
        r.positive("tflops_per_gpu")?;
        let mem = r.positive("mem_bytes")?;
        let bubble = r.num("bubble")?;
        if !(0.0..1.0).contains(&bubble) {
            return Err(format!("bubble {bubble} outside [0, 1)"));
        }
        let pp = r.positive("pp")?;
        if pp > 1.0 {
            pipelined += 1;
        } else if bubble != 0.0 {
            return Err(format!(
                "unpipelined plan reports a nonzero bubble {bubble}"
            ));
        }
        if r.num("vpp")? > 1.0 {
            interleaved += 1;
        }
        let (fits, pareto) = (r.num("fits")?, r.num("pareto")?);
        for (key, v) in [("fits", fits), ("pareto", pareto)] {
            if v != 0.0 && v != 1.0 {
                return Err(format!("{key} = {v} is not a 0/1 flag"));
            }
        }
        if pareto == 1.0 && fits != 1.0 {
            return Err("a non-fitting plan is marked Pareto-optimal".into());
        }
        if t < prev_time {
            return Err("records are not sorted by step_time_s".into());
        }
        prev_time = t;
        if pareto == 1.0 {
            frontier.push(mem);
        }
        Ok(())
    })?;
    let rise = frontier.windows(2).find(|w| w[1] > w[0]);
    Ok(vec![
        Check::new(
            "the planner prices at least 8 legal foldings",
            recs.len() >= 8,
            format!("{} legal foldings", recs.len()),
        ),
        Check::new(
            "the enumeration reaches pipelined (pp > 1) and interleaved (vpp > 1) foldings",
            pipelined > 0 && interleaved > 0,
            format!("{pipelined} pipelined, {interleaved} interleaved"),
        ),
        Check::new(
            "the Pareto frontier is non-empty with memory non-increasing as step time grows",
            !frontier.is_empty() && rise.is_none(),
            match rise {
                Some(w) => format!(
                    "memory rises {} -> {}: a dominated plan is marked optimal",
                    w[0], w[1]
                ),
                None => format!("{} plans on the frontier", frontier.len()),
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spine::testing::{env, failure, set};

    #[test]
    fn smoke_records_pass_and_each_gate_is_live() {
        let (recs, live) = run(true, &env());
        assert!(live.is_empty());
        assert_eq!(failure(&BENCH, &recs), None);

        // The last frontier plan is the slowest and must be the leanest.
        let last = recs
            .iter()
            .rposition(|r| r.num("pareto") == Ok(1.0))
            .unwrap();
        let fat = set(&recs, last, "mem_bytes", Val::Int(u64::MAX));
        let why = failure(&BENCH, &fat).expect("frontier memory rising");
        assert!(
            why.contains("memory non-increasing as step time grows"),
            "{why}"
        );
        assert!(why.contains("a dominated plan is marked optimal"), "{why}");

        let why = failure(&BENCH, &recs[..7]).expect("seven foldings");
        assert!(why.contains("at least 8 legal foldings (7 legal"), "{why}");

        let flat: Vec<Record> = recs
            .iter()
            .filter(|r| r.num("vpp") == Ok(1.0))
            .cloned()
            .collect();
        let why = failure(&BENCH, &flat).expect("no interleaved folding");
        assert!(why.contains("interleaved (vpp > 1) foldings"), "{why}");

        let unsorted = set(&recs, 3, "step_time_s", Val::Fixed(1e-9, 9));
        let why = failure(&BENCH, &unsorted).expect("out of order");
        assert_eq!(why, "record 3: records are not sorted by step_time_s");
    }
}
