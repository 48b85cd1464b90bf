//! The six workloads. Names are the contract later issues cite.

pub mod dispatch;
pub mod layer;
pub mod rbd;
pub mod serve;
pub mod sim;
pub mod train;

use crate::harness::{Opts, Outcome};

/// Run the workload called `name`; `None` if there is no such workload.
pub fn run(name: &str, opts: &Opts) -> Option<Outcome> {
    let mut out = match name {
        "train_fine_ep2" => train::run(opts),
        "layer_fine_1r" => layer::run(&layer::FINE, opts),
        "layer_coarse_1r" => layer::run(&layer::COARSE, opts),
        "dispatch_tiny_ep2" => dispatch::run(opts),
        "rbd_sim_2x8" => rbd::run(opts),
        "serve_skew_drift" => serve::run(opts),
        _ => return None,
    };
    if opts.trace {
        out.finish_layer_common();
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The simulated clock, the collective count and the bytes moved depend
    /// on the inputs only: the same seed repeats them exactly, another seed
    /// routes differently.
    #[test]
    fn same_seed_repeats_the_deterministic_metrics() {
        let traced = |seed| {
            let opts = Opts {
                seed,
                seconds: 0.05,
                trace: true,
            };
            let out = run("dispatch_tiny_ep2", &opts).expect("workload exists");
            assert!(out.correct(), "checks failed: {:?}", out.checks);
            [
                "sim_step_ms",
                "sim.dispatch_a2a_us",
                "collectives.comm.collectives_per_step",
                "collectives.comm.bytes_per_step",
            ]
            .map(|k| out.layer[k].to_bits())
        };
        let (a, b, c) = (traced(5), traced(5), traced(6));
        assert_eq!(a, b);
        assert_ne!(a[0], c[0], "another seed must give other tokens");
        assert!(f64::from_bits(a[2]) > 0.0);
    }

    #[test]
    fn unknown_workload_is_refused() {
        let opts = Opts {
            seed: 1,
            seconds: 0.05,
            trace: false,
        };
        assert!(run("no_such_workload", &opts).is_none());
    }
}
