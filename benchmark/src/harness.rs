//! What every workload shares: options, the timed-phase meter, unit-count
//! planning, correctness checks and the [`Outcome`] a run folds into.
//!
//! A run is [`ROUNDS`] rounds. Each round sets the workload up from scratch
//! (weights, communicators, warm-up — timed as one `setup_s` sample), then
//! runs timed *units* for its share of `--seconds`. Units of all rounds are
//! pooled; the time per unit is the fastest one (see [`crate::stats`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Barrier;
use std::time::Instant;

use crate::host;
use crate::metrics;
use crate::spans::Recorder;
use crate::stats;
use crate::ALLOC;

/// Set-ups (and timed phases) per run; `setup_s` is their median.
pub const ROUNDS: usize = 3;

/// Arguments of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Drives tokens, corpus and traffic; nothing else.
    pub seed: u64,
    /// Total measuring time, shared evenly by the rounds.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a Chrome trace instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

impl Opts {
    /// Seconds of timed units per round. The traced run spends a third of
    /// the time on units (alternating traced and untraced ones) and the
    /// rest on stage replays and per-layer probes.
    pub fn unit_budget_s(&self) -> f64 {
        let share = if self.trace { 1.0 / 3.0 } else { 1.0 };
        self.seconds * share / ROUNDS as f64
    }
}

/// How many units fit the budget, from the unit time seen during warm-up.
pub fn plan_units(est_unit_s: f64, budget_s: f64, min_units: usize) -> usize {
    if est_unit_s <= 0.0 {
        return min_units;
    }
    ((budget_s / est_unit_s) as usize).max(min_units)
}

/// What the rank threads of one round share: the round's start, its set-up
/// time, and the unit count. Collectives need every rank to run the same
/// number of units, so the lead rank plans the count from its warm-up and
/// publishes it once, outside any timed unit; that moment also ends the
/// round's set-up.
pub struct RoundSync {
    t0: Instant,
    barrier: Barrier,
    units: AtomicUsize,
    setup_ns: AtomicU64,
}

impl RoundSync {
    /// Start a round of `world` rank threads (the set-up clock starts now).
    pub fn start(world: usize) -> Self {
        Self {
            t0: Instant::now(),
            barrier: Barrier::new(world),
            units: AtomicUsize::new(0),
            setup_ns: AtomicU64::new(0),
        }
    }

    /// Every rank calls this once after warm-up; exactly one (the lead)
    /// passes its plan. Returns the agreed count on every rank.
    pub fn agree(&self, plan: Option<usize>) -> usize {
        if let Some(n) = plan {
            self.setup_ns
                .store(self.t0.elapsed().as_nanos() as u64, SeqCst);
            self.units.store(n, SeqCst);
        }
        self.barrier.wait();
        self.units.load(SeqCst)
    }

    /// Wall seconds from the round's start to the lead's plan.
    pub fn setup_s(&self) -> f64 {
        self.setup_ns.load(SeqCst) as f64 / 1e9
    }
}

/// Process-wide CPU time and heap peak over one timed phase.
pub struct PhaseMeter {
    cpu0: (f64, f64),
}

#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStats {
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub peak_heap_bytes: usize,
}

impl PhaseMeter {
    pub fn start() -> Self {
        ALLOC.reset_peak();
        Self {
            cpu0: host::cpu_seconds(),
        }
    }

    pub fn stop(self) -> PhaseStats {
        let (u, s) = host::cpu_seconds();
        PhaseStats {
            cpu_user_s: u - self.cpu0.0,
            cpu_sys_s: s - self.cpu0.1,
            peak_heap_bytes: ALLOC.stats().peak_bytes,
        }
    }
}

/// What one thread's timed loop collected.
pub struct LoopStats {
    pub units_ms: Vec<f64>,
    pub traced_units_ms: Vec<f64>,
    pub failed: u64,
    pub phase: PhaseStats,
    /// This thread's tracked allocations, the process's untracked ones and
    /// this thread's voluntary context switches over the loop.
    pub tracked_allocs: u64,
    pub untracked_allocs: u64,
    pub vol_switches: u64,
}

impl LoopStats {
    /// Units run, traced or not.
    pub fn units(&self) -> usize {
        self.units_ms.len() + self.traced_units_ms.len()
    }
}

/// Run `n` timed units on the calling thread. In the traced run every other
/// unit records spans (ids continue from `first_unit_id`), so traced and
/// untraced units see the same machine noise. `unit(i, rec)` returns `false`
/// when an operation inside it failed.
pub fn timed_units(
    n: usize,
    trace: bool,
    first_unit_id: usize,
    rec: &mut Recorder,
    mut unit: impl FnMut(usize, &mut Recorder) -> bool,
) -> LoopStats {
    let mut units_ms = Vec::with_capacity(n);
    let mut traced_units_ms = Vec::with_capacity(n);
    let mut failed = 0u64;
    let sw0 = host::thread_voluntary_switches();
    let meter = PhaseMeter::start();
    let (a0, u0) = (
        xmoe_tensor::thread_tracked_allocs(),
        ALLOC.stats().untracked_allocs,
    );
    for i in 0..n {
        let traced = trace && (first_unit_id + i) % 2 == 1;
        rec.enabled = traced;
        rec.set_unit((first_unit_id + i) as u32);
        let t = Instant::now();
        let ok = unit(i, rec);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        failed += u64::from(!ok);
        if traced {
            traced_units_ms.push(ms);
        } else {
            units_ms.push(ms);
        }
    }
    rec.enabled = false;
    let tracked_allocs = xmoe_tensor::thread_tracked_allocs() - a0;
    let untracked_allocs = ALLOC.stats().untracked_allocs - u0;
    LoopStats {
        units_ms,
        traced_units_ms,
        failed,
        phase: meter.stop(),
        tracked_allocs,
        untracked_allocs,
        vol_switches: host::thread_voluntary_switches() - sw0,
    }
}

/// One correctness check of a run.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run produced.
pub struct Outcome {
    pub workload: &'static str,
    /// Operations attempted (steps, forwards, requests) and failed.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// One set-up time per round.
    pub setup_s: Vec<f64>,
    /// Wall milliseconds of every untraced / traced unit, all rounds.
    pub units_ms: Vec<f64>,
    pub traced_units_ms: Vec<f64>,
    /// Tokens one unit processes (all ranks together).
    pub tokens_per_unit: f64,
    /// One entry per round.
    pub phases: Vec<PhaseStats>,
    /// Lead thread's tracked allocations, process-wide untracked ones and
    /// all measured threads' voluntary context switches, over all rounds.
    pub tracked_allocs: u64,
    pub untracked_allocs: u64,
    pub vol_switches: u64,
    /// Per-layer values by metric name (traced run; absent reads 0).
    pub layer: BTreeMap<&'static str, f64>,
    /// Span buffers of the traced run, one per thread.
    pub recorders: Vec<Recorder>,
}

impl Outcome {
    pub fn new(workload: &'static str, tokens_per_unit: f64) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            setup_s: Vec::new(),
            units_ms: Vec::new(),
            traced_units_ms: Vec::new(),
            tokens_per_unit,
            phases: Vec::new(),
            tracked_allocs: 0,
            untracked_allocs: 0,
            vol_switches: 0,
            layer: BTreeMap::new(),
            recorders: Vec::new(),
        }
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Record a per-layer value; a name outside the table is a bug here.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if !metrics::is_per_layer(name) {
            self.check("metric name is in the table", false, name.to_string());
        }
        self.layer.insert(name, value);
    }

    /// Fold in the lead thread's timed loop of one round.
    pub fn absorb(&mut self, stats: LoopStats) {
        self.attempted += stats.units() as u64;
        self.failed += stats.failed;
        self.units_ms.extend(stats.units_ms);
        self.traced_units_ms.extend(stats.traced_units_ms);
        self.phases.push(stats.phase);
        self.tracked_allocs += stats.tracked_allocs;
        self.untracked_allocs += stats.untracked_allocs;
        self.vol_switches += stats.vol_switches;
    }

    pub fn total_units(&self) -> usize {
        self.units_ms.len() + self.traced_units_ms.len()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.ok)
    }

    fn cpu_s(&self) -> f64 {
        self.phases.iter().map(|p| p.cpu_user_s + p.cpu_sys_s).sum()
    }

    /// Every end-to-end metric, in table order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let fastest_s = stats::fastest(&self.units_ms) / 1e3;
        let peak = self
            .phases
            .iter()
            .map(|p| p.peak_heap_bytes)
            .max()
            .unwrap_or(0);
        metrics::END_TO_END
            .iter()
            .map(|e| {
                let v = match e.name {
                    "tokens_per_s" => self.tokens_per_unit / fastest_s,
                    "peak_heap_mb" => peak as f64 / 1e6,
                    "setup_s" => stats::median(&self.setup_s),
                    other => unreachable!("end-to-end metric {other} has no formula"),
                };
                (e.name, v)
            })
            .collect()
    }

    /// Fill the estimator diagnostics and host metrics every workload has.
    pub fn finish_layer_common(&mut self) {
        let (pct, tail) = stats::tail(&self.units_ms);
        let fastest = stats::fastest(&self.units_ms);
        self.set("bench.units", self.total_units() as f64);
        self.set("bench.unit_ms_fastest", fastest);
        self.set("bench.unit_ms_p50", stats::median(&self.units_ms));
        self.set("bench.unit_ms_tail", tail);
        self.set("bench.unit_tail_pct", pct);
        if fastest > 0.0 && !self.traced_units_ms.is_empty() {
            self.set(
                "bench.trace_overhead_frac",
                stats::fastest(&self.traced_units_ms) / fastest - 1.0,
            );
        }
        let dropped: u64 = self.recorders.iter().map(|r| r.dropped).sum();
        self.set("bench.spans_dropped", dropped as f64);
        self.set("tensor.par.lanes", xmoe_tensor::pool_size() as f64);
        let units = self.total_units().max(1) as f64;
        // The rank-threaded workloads count allocations over their
        // deterministic window instead; keep theirs.
        if !self.layer.contains_key("allocs_per_step") {
            self.set("allocs_per_step", self.tracked_allocs as f64 / units);
        }
        self.set(
            "tensor.alloc.untracked_allocs_per_step",
            self.untracked_allocs as f64 / units,
        );
        self.set(
            "host.vol_ctx_switches_per_unit",
            self.vol_switches as f64 / units,
        );
        let cpu = self.cpu_s();
        let sys: f64 = self.phases.iter().map(|p| p.cpu_sys_s).sum();
        self.set("host.cpu_s_per_unit", cpu / units);
        self.set("host.sys_cpu_frac", if cpu > 0.0 { sys / cpu } else { 0.0 });
    }

    /// Every per-layer metric, in table order (0 where not applicable).
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        metrics::PER_LAYER
            .iter()
            .map(|p| (p.name, self.layer.get(p.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Time `iters` calls of `f` one by one; returns the median in seconds.
pub fn probe_median_s(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut xs = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        xs.push(t.elapsed().as_secs_f64());
    }
    stats::median(&xs)
}

/// Are two tensors' bits identical?
pub fn bitwise_eq(a: &xmoe_tensor::Tensor, b: &xmoe_tensor::Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_units_from_the_warm_up_estimate() {
        assert_eq!(plan_units(0.025, 3.0, 30), 120);
        assert_eq!(plan_units(1.0, 3.0, 30), 30); // never below the floor
        assert_eq!(plan_units(0.0, 3.0, 30), 30);
    }

    #[test]
    fn outcome_reports_every_metric_and_flags_unknown_names() {
        let mut o = Outcome::new("w", 100.0);
        o.attempted = 4;
        o.units_ms = vec![20.0, 10.0, 40.0];
        o.traced_units_ms = vec![11.0];
        o.setup_s = vec![0.3, 0.1, 0.2];
        o.phases = vec![
            PhaseStats {
                cpu_user_s: 0.06,
                cpu_sys_s: 0.02,
                peak_heap_bytes: 3_000_000,
            },
            PhaseStats {
                peak_heap_bytes: 5_000_000,
                ..Default::default()
            },
        ];
        let e2e: BTreeMap<_, _> = o.end_to_end().into_iter().collect();
        assert_eq!(e2e.len(), metrics::END_TO_END.len());
        assert_eq!(e2e["tokens_per_s"], 100.0 / 0.010);
        assert_eq!(e2e["setup_s"], 0.2);
        assert_eq!(e2e["peak_heap_mb"], 5.0);
        o.finish_layer_common();
        let layer: BTreeMap<_, _> = o.per_layer().into_iter().collect();
        assert_eq!(layer.len(), metrics::PER_LAYER.len());
        assert!((layer["bench.trace_overhead_frac"] - 0.1).abs() < 1e-12);
        assert_eq!(layer["bench.units"], 4.0);
        assert!((layer["host.cpu_s_per_unit"] - 0.02).abs() < 1e-12);
        assert_eq!(layer["sim_step_ms"], 0.0);
        assert!(o.correct());
        o.set("no.such.metric", 1.0);
        assert!(!o.correct());
    }
}
