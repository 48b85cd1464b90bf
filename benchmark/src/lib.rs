//! The repository's benchmark: six named workloads, measured from outside.
//!
//! Nothing here reaches into the program: every layer is measured by timing
//! calls into its public functions, and every input is generated from the
//! `--seed` argument before the program sees it. `BENCHMARK.json` at the
//! repository root is the contract (command, workloads, metric names, units,
//! directions and bounds); `README.md` next to this crate is the glossary.
//!
//! * [`workloads`] — the six workloads; each returns an [`harness::Outcome`].
//! * [`harness`] — options, the unit loop, the estimator, correctness checks.
//! * [`spans`] — the in-memory span recorder of the traced run.
//! * [`metrics`] — the metric name tables (mirrors `BENCHMARK.json`).
//! * [`report`] — `results.json`, the all-workloads runs and `check`.

pub mod harness;
pub mod host;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

/// Counting allocator of the benchmark process, in the traced and the
/// untraced run alike: `peak_heap_mb`, `allocs_per_step` and the
/// `tensor.alloc.*` metrics read it.
#[global_allocator]
pub static ALLOC: xmoe_tensor::CountingAlloc = xmoe_tensor::CountingAlloc::new();
