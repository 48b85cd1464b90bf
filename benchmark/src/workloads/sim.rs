//! Helpers shared by the rank-threaded workloads: folding the simulated
//! clock's stage report into `sim.*` metrics, and rank skew from spans.

use std::collections::BTreeMap;

use xmoe_collectives::{RankCtx, RankTrace, SimClock, StepReport};
use xmoe_tensor::thread_tracked_allocs;

use crate::harness::Outcome;
use crate::metrics;
use crate::spans::{Recorder, Span};
use crate::stats;

fn is_comm_label(label: &str) -> bool {
    ["a2a", "allreduce", "allgather", "barrier"]
        .iter()
        .any(|k| label.contains(k))
}

/// One rank's record of a *window*: a fixed number of steps on a fresh
/// simulated clock with the traffic counters reset. Nothing in it depends on
/// how long the run was or how the threads were scheduled, so every number
/// derived from it repeats bit for bit for a given seed.
pub struct Window {
    pub trace: RankTrace,
    /// The rank thread's tracked allocations over the window.
    pub allocs: u64,
}

/// Run `steps` as a window on this rank. Every rank must call it at the same
/// point between collectives (the clocks restart together).
pub fn window(ctx: &mut RankCtx, steps: impl FnOnce(&mut RankCtx)) -> Window {
    ctx.clock = SimClock::new();
    ctx.world.reset_traffic();
    let a0 = thread_tracked_allocs();
    steps(ctx);
    let allocs = thread_tracked_allocs() - a0;
    Window {
        trace: RankTrace::capture(ctx.rank, &mut ctx.clock, ctx.world.traffic()),
        allocs,
    }
}

/// Simulated milliseconds per step of a window (the slowest rank sets it).
pub fn window_step_ms(windows: &[Window], steps: usize) -> f64 {
    windows.iter().map(|w| w.trace.end).fold(0.0, f64::max) * 1e3 / steps.max(1) as f64
}

/// Per-step simulated microseconds of every stage label the table names
/// (mean over ranks), the summed sync-wait, the communication counts and the
/// lead rank's allocations of a window of `steps` steps.
pub fn window_metrics(windows: &[Window], steps: usize, out: &mut Outcome) {
    let traces: Vec<RankTrace> = windows.iter().map(|w| w.trace.clone()).collect();
    let report = StepReport::from_ranks(&traces);
    let per_step = 1.0 / steps.max(1) as f64;
    if let Some(lead) = windows.first() {
        out.set("allocs_per_step", lead.allocs as f64 * per_step);
    }
    for stage in &report.stages {
        if let Some(name) = metrics::sim_stage_metric(&stage.label) {
            out.set(name, stage.mean * per_step * 1e6);
        }
    }
    out.set(
        "sim.sync_wait_us",
        report.total_mean_wait() * per_step * 1e6,
    );
    let comm_spans = traces.first().map_or(0, |t| {
        t.spans
            .iter()
            .filter(|s| !s.wait && !s.retry && is_comm_label(&s.label))
            .count()
    });
    out.set(
        "collectives.comm.collectives_per_step",
        comm_spans as f64 * per_step,
    );
    out.set(
        "collectives.comm.bytes_per_step",
        report.total_traffic().total() as f64 * per_step,
    );
}

/// Median over units of the spread (max - min over threads) of one
/// timestamp of the span called `name`: how far apart ranks reach the same
/// point of a unit, i.e. how long the earliest one waits for the latest.
pub fn rank_skew_ms(recorders: &[Recorder], name: &str, at: impl Fn(&Span) -> u64) -> f64 {
    let mut by_unit: BTreeMap<u32, (u64, u64, usize)> = BTreeMap::new();
    for r in recorders {
        // One timestamp per (thread, unit): the first span of that name.
        let mut seen = None;
        for s in r.spans().iter().filter(|s| s.name == name) {
            if seen == Some(s.unit) {
                continue;
            }
            seen = Some(s.unit);
            let t = at(s);
            let e = by_unit.entry(s.unit).or_insert((t, t, 0));
            *e = (e.0.min(t), e.1.max(t), e.2 + 1);
        }
    }
    let spreads: Vec<f64> = by_unit
        .values()
        .filter(|(_, _, threads)| *threads > 1)
        .map(|(lo, hi, _)| (hi - lo) as f64 / 1e6)
        .collect();
    stats::median(&spreads)
}
