//! Cross-rack congestion model (paper Appendix D).
//!
//! Profiling all-to-alls on Frontier from 8 to 1024 GPUs, the paper observes
//! three regions: (i) latency grows from 8 to 32 GPUs as the group spills
//! past one node, (ii) it stays flat from 32 to 256 GPUs (one rack), and
//! (iii) it rises sharply beyond 256 GPUs, with outlier collectives taking
//! > 500 ms at 512–1024 GPUs — attributed to cross-rack traffic contending
//! > with co-scheduled jobs on the shared dragonfly global links.
//!
//! [`CongestionModel`] reproduces region (iii): cross-rack traffic draws a
//! multiplier that is usually ~1 but with scale-dependent probability jumps
//! to a heavy outlier. The live runtime and the analytic model use the mean
//! multiplier; the Fig 18 harness samples per-collective multipliers.

use xmoe_tensor::DetRng;

/// Stochastic stretch factor applied to cross-rack communication.
#[derive(Clone, Debug)]
pub struct CongestionModel {
    /// Baseline multiplier applied to all cross-rack traffic (global-link
    /// oversubscription even without interference).
    pub base: f64,
    /// Probability that a given collective hits an interference outlier.
    pub outlier_prob: f64,
    /// Mean multiplier of an outlier event (on top of `base`).
    pub outlier_mean: f64,
    /// Multiplier applied to inter-node traffic *within* a rack once the
    /// job spans multiple racks. Dragonfly adaptive routing sends intra-
    /// group traffic through shared switches, so a congested fabric slows
    /// even rack-local all-to-alls — this is why the paper sees > 10x
    /// all-to-all latency at 512–1024 GPUs although EP stays <= 256 (§5.2,
    /// Appendix D).
    pub spillover: f64,
}

impl CongestionModel {
    /// No congestion (unit multiplier). Used by correctness tests and by
    /// experiments that isolate algorithmic effects.
    pub fn none() -> Self {
        Self {
            base: 1.0,
            outlier_prob: 0.0,
            outlier_mean: 1.0,
            spillover: 1.0,
        }
    }

    /// Default model for a job of `n_ranks` GPUs on a machine with
    /// `gpus_per_rack` GPUs per rack.
    ///
    /// Within one rack there is no cross-rack traffic, so the parameters are
    /// irrelevant (but kept at unit values). Beyond one rack the outlier
    /// probability grows with the number of racks spanned, matching the
    /// "increasing frequency of outliers for 512 and 1024 GPUs" in Fig 18.
    pub fn for_scale(n_ranks: usize, gpus_per_rack: usize) -> Self {
        let racks = n_ranks.div_ceil(gpus_per_rack.max(1));
        if racks <= 1 {
            return Self::none();
        }
        // Calibrated so that mean all-to-all latency at 512-1024 GPUs is
        // ~an order of magnitude above the in-rack plateau (paper §5.2:
        // "> 10x higher than average").
        let outlier_prob = (0.04 * racks as f64).min(0.25);
        let spillover = (1.0 + 0.35 * (racks - 1) as f64).min(3.0);
        Self {
            base: 1.6,
            outlier_prob,
            outlier_mean: 40.0,
            spillover,
        }
    }

    /// Expected multiplier (used for deterministic cost queries).
    pub fn mean_multiplier(&self) -> f64 {
        self.base * (1.0 + self.outlier_prob * (self.outlier_mean - 1.0))
    }

    /// Draw a per-collective multiplier.
    pub fn sample_multiplier(&self, rng: &mut DetRng) -> f64 {
        if self.outlier_prob > 0.0 && rng.next_f64() < self.outlier_prob {
            // Heavy-tailed outlier: exponential around the outlier mean.
            let u = rng.next_f64().max(1e-12);
            self.base * (1.0 + (self.outlier_mean - 1.0) * (-u.ln()))
        } else {
            // Mild jitter around the base.
            self.base * (0.9 + 0.2 * rng.next_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rack_has_no_congestion() {
        let c = CongestionModel::for_scale(256, 256);
        assert_eq!(c.mean_multiplier(), 1.0);
        assert_eq!(c.outlier_prob, 0.0);
    }

    #[test]
    fn multi_rack_congestion_grows_with_scale() {
        let c512 = CongestionModel::for_scale(512, 256);
        let c1024 = CongestionModel::for_scale(1024, 256);
        assert!(c512.mean_multiplier() > 1.0);
        assert!(c1024.outlier_prob > c512.outlier_prob);
        assert!(c1024.mean_multiplier() > c512.mean_multiplier());
    }

    #[test]
    fn sampled_multipliers_hit_outliers_at_expected_rate() {
        let c = CongestionModel {
            base: 1.0,
            outlier_prob: 0.1,
            outlier_mean: 40.0,
            spillover: 1.0,
        };
        let mut rng = DetRng::new(123);
        let n = 20_000;
        let outliers = (0..n)
            .filter(|_| c.sample_multiplier(&mut rng) > 5.0)
            .count();
        let rate = outliers as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.02, "outlier rate {rate}");
    }

    #[test]
    fn mean_multiplier_matches_empirical_mean() {
        let c = CongestionModel {
            base: 1.5,
            outlier_prob: 0.05,
            outlier_mean: 30.0,
            spillover: 1.0,
        };
        let mut rng = DetRng::new(7);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| c.sample_multiplier(&mut rng)).sum();
        let emp = sum / n as f64;
        let analytic = c.mean_multiplier();
        assert!(
            (emp - analytic).abs() / analytic < 0.08,
            "empirical {emp} vs analytic {analytic}"
        );
    }

    #[test]
    fn none_is_exactly_unit() {
        let c = CongestionModel::none();
        let mut rng = DetRng::new(1);
        for _ in 0..100 {
            let m = c.sample_multiplier(&mut rng);
            assert!((0.9..=1.1).contains(&m));
        }
        assert_eq!(c.mean_multiplier(), 1.0);
    }
}
