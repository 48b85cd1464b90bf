//! `xmoe-cli` — query the X-MoE models from the command line.
//!
//! Run `xmoe-cli` with no arguments for the usage line of every
//! subcommand; a malformed command line prints the subcommand's usage with
//! one line per flag and exits 2. Both are generated from the flag tables
//! the parser reads (`xmoe::bench::flags`), one per subcommand module.
//!
//! **plan** — memory-plan the model on a Frontier slice: per-system
//! trainability, best parallel configuration and modelled throughput.
//!
//! **redundancy** — dispatch redundancy rate per EP size (the Fig 4 table).
//!
//! **throughput** — modelled TFLOP/s per GPU for all four systems.
//!
//! **alltoall** — cost-model estimate of one uneven all-to-all at that
//! scale.
//!
//! **analyze** — routing analytics for a random router: load balance,
//! entropy, expert co-activation and realized combination count.
//!
//! **step** — run one live forward step of the chosen pipeline on the
//! threads-as-ranks runtime and print the cross-rank stage report
//! (min/mean/max/straggler per stage, sync-wait split out). `--overlap`
//! (pft, blocksparse and rbd) pipelines the dispatch all-to-all against the
//! expert compute; the Chrome trace then shows separate comm/compute tracks
//! per rank; on dense it exits 1 with the pipeline's "unsupported execution
//! mode" error instead of running serial under an overlap header.
//!
//! **step --pp** — run the (interleaved) 1F1B pipeline schedule live: one
//! MoE layer per virtual stage on `<stages>` simulated ranks with uniform
//! compute, checked bitwise against the unpipelined reference, then the
//! measured bubble fraction against the analytic `(p-1)/(v·m+p-1)` ramp and
//! the auto-mapping planner's priced view of the same fold. Illegal shapes
//! (layers not splitting into `pp·vpp` stages, interleaved `m` not
//! divisible by `pp`) exit 1 with a diagnostic.
//!
//! **chaos** — fault-injected distributed training with checkpoint/restore
//! and elastic recovery. The `--faults` schedule may include
//! silent-data-corruption events such as
//! `bitflip:rank=2,at=5,site=grad,bit=30` or
//! `noise:rank=1,site=act,amp=0.5,from=3,until=5` (see `FaultPlan::parse`);
//! a malformed spec prints which segment and key failed and exits 1.
//! `join:rank=R,at=S` brings rank `R` (back) online at step `S`: the
//! survivors rendezvous with the joiner, re-grow the communicator and
//! scatter the live model state without touching disk. SDC events switch on
//! the numerical guard (loss scaling with exact unscale before Adam, grad
//! scan, spike detection, policy recovery). With `--rebalance`, when window
//! skew reaches the threshold and a priced candidate strictly improves
//! dispatch, expert weights and Adam moments move mid-run. Prints the loss
//! trajectory, the guard-event timeline (step, site, detector, policy
//! action), every recovery (failed ranks, replayed steps, MTTR), joins,
//! rebalances and the final world size.
//!
//! **serve** — deterministic inference-serving simulation of the Small
//! model: continuous batching (prefill/decode, KV-ledger admission control,
//! deadline-risk preemption) over the padding-free pipeline, pricing each
//! step's dispatch/combine on the Frontier cost model. With `--placement
//! optimized` the engine profiles per-expert routing histograms and
//! re-solves expert→rank placement when the skew detector flags drift.
//! Prints latency percentiles, goodput, deadline misses, off-node traffic
//! and placement-solve counts. Degenerate values (`--requests 0`,
//! `--rate 0`, rank counts that do not divide the expert count) are config
//! errors: a one-line diagnostic and exit 1, never a panic or a hang.
//!
//! **bench** — the single door to every bench in `xmoe::bench::spine::ALL`:
//! the seven self-gating system benchmarks (hotpath, mapping, elastic,
//! overlap, stability, serving, gemm), the paper's 19 tables and figures
//! (`fig03_memory` .. `ablation_blocksparse`; `bench paper` runs them all in
//! paper order and exits 1 naming any invalid one) and `recovery`. Each
//! writes `BENCH_<name>.json`, reads it back and gates it; `--validate`
//! re-gates an existing file with the same gate list — what CI runs after
//! `--smoke` for the system benches and over the committed
//! `bench/paper/*.json` pins for the paper. What each measures and gates is
//! documented on its module in `xmoe::bench`; the shared driver is
//! `xmoe::bench::spine` (DESIGN.md, "Bench spine"). The hotpath pft record
//! is gated at zero allocs/step after warm-up and >= 1.2x over the
//! owned-allocation baseline measured in the same run.

mod chaos;
mod plan;
mod serve;
mod step;

use std::process::ExitCode;

use xmoe::bench::flags::{Cmd, UsageError};
use xmoe::bench::spine;
use xmoe::tensor::CountingAlloc;

/// Counting allocator: the `bench hotpath` telemetry source. Forwards to the
/// system allocator with three relaxed atomics per call — negligible for the
/// other subcommands, and the library itself never pays it (only binaries
/// that opt in declare the `#[global_allocator]`).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

type Run = fn(&[String]) -> Result<(), UsageError>;

/// Where a run's memory is: the `arena:` line of the `step` and `chaos`
/// summaries (a step = one forward, or one trimmed train step).
fn arena_line(s: &xmoe::tensor::WorkspaceStats) -> String {
    format!(
        "arena: {} takes/step, {} misses, {:.2} MB retained",
        s.takes / s.trims.max(1),
        s.pool_misses,
        (s.retained_f32 * 4 + s.retained_idx * 8 + s.retained_u64 * 8) as f64 / 1e6
    )
}

/// Every subcommand but `bench` (which `spine::drive` owns): the
/// declarations usage is printed from, and the function each name runs.
/// `step` has two command lines behind one entry point (`step --pp` is
/// never a first argument, so only `step::CMD` is found by name).
const COMMANDS: [(&Cmd, Run); 9] = [
    (&plan::PLAN, plan::plan),
    (&plan::REDUNDANCY, plan::redundancy),
    (&plan::THROUGHPUT, plan::throughput),
    (&plan::ALLTOALL, plan::alltoall),
    (&plan::ANALYZE, plan::analyze),
    (&step::CMD, step::run),
    (&step::CMD_PP, step::run),
    (&chaos::CMD, chaos::run),
    (&serve::CMD, serve::run),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, rest) = match args.split_first() {
        Some((name, rest)) => (name.as_str(), rest),
        None => ("", &args[..]),
    };
    if name == "bench" {
        return spine::drive(rest, &spine::Env { alloc: &ALLOC });
    }
    let result = match COMMANDS.iter().find(|(cmd, _)| cmd.name == name) {
        Some((_, run)) => run(rest),
        None => {
            eprintln!("usage:");
            for cmd in COMMANDS.iter().map(|(cmd, _)| *cmd).chain([&spine::CMD]) {
                eprintln!("  {}", cmd.synopsis());
            }
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
