//! Numerical guardrails against silent data corruption (SDC).
//!
//! Fail-stop faults (PR 2's chaos engine) announce themselves; bit flips
//! and low-precision blow-ups do not. This module is the *detect* and
//! *decide* half of the silent-fault defense:
//!
//! * [`bf16_round`] — simulated-bf16 device arithmetic over f32 master
//!   weights (round-to-nearest-even to an 8-bit mantissa), so precision
//!   cliffs like the paper's §5.4.1 fp32-combine workaround are
//!   reproducible in the simulator;
//! * [`LossScale`] — the classic dynamic loss-scale state machine:
//!   overflow halves the scale, `growth_interval` clean steps double it.
//!   Scales are powers of two, so scaling and unscaling gradients is
//!   bitwise-exact absent overflow and the guarded path stays
//!   reproducible;
//! * [`SpikeDetector`] — windowed relative-spike + non-finite scan over
//!   any scalar health statistic (loss, grad norm);
//! * [`PolicyEngine`] — the escalation ladder `skip_step` →
//!   `backoff_loss_scale` → `rollback_to_checkpoint` for repeated trips;
//! * [`GuardEvent`] — the timeline entry every detection/decision emits.
//!
//! Everything here is pure integer/float state machines — no clocks, no
//! randomness — so every decision is bitwise-deterministic given the same
//! inputs, and chaos runs remain replayable.

use std::fmt;

/// Round an f32 to the nearest bf16-representable value (round to nearest,
/// ties to even), returned as f32. NaN and ±inf pass through; values whose
/// magnitude exceeds bf16's max finite value round to ±inf, exactly like a
/// bf16 cast on device.
pub fn bf16_round(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    let bits = x.to_bits();
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1));
    f32::from_bits(rounded & 0xFFFF_0000)
}

/// In-place bf16 rounding of a whole buffer (the simulated device-memory
/// gradient path).
pub fn bf16_round_slice(xs: &mut [f32]) {
    for v in xs {
        *v = bf16_round(*v);
    }
}

/// Number of non-finite (NaN or ±inf) values in a buffer.
pub fn count_non_finite(xs: &[f32]) -> usize {
    xs.iter().filter(|v| !v.is_finite()).count()
}

/// Sum of squares of a buffer in f64 (the global-grad-norm accumulator;
/// f64 so the reduction order within one buffer is still exact enough to
/// be reproducible across identical replays).
pub fn sq_norm(xs: &[f32]) -> f64 {
    xs.iter().map(|&v| (v as f64) * (v as f64)).sum()
}

/// Multiplier that brings a gradient of norm `norm` inside `max_norm`:
/// `1.0` when already inside, `max_norm / norm` otherwise. Non-finite or
/// zero norms clip to 0.0 — the caller should have tripped a policy
/// already, but a deterministic answer beats a NaN cascade.
pub fn clip_factor(norm: f64, max_norm: f64) -> f32 {
    if !norm.is_finite() {
        return 0.0;
    }
    if norm <= max_norm || norm == 0.0 || max_norm <= 0.0 {
        1.0
    } else {
        (max_norm / norm) as f32
    }
}

/// A recoverable divergence report — the error path that replaces the old
/// `assert!(loss.is_finite())` aborts. Guard policies consume these; they
/// trip a recovery action instead of killing the process.
#[derive(Clone, Debug, PartialEq)]
pub enum Divergence {
    /// The scalar training loss went NaN/inf at `step`.
    NonFiniteLoss { step: u64 },
    /// `count` non-finite values appeared in the named buffer.
    NonFiniteValues { site: &'static str, count: usize },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::NonFiniteLoss { step } => {
                write!(f, "loss diverged (non-finite) at step {step}")
            }
            Divergence::NonFiniteValues { site, count } => {
                write!(f, "{count} non-finite values in {site}")
            }
        }
    }
}

/// Check a buffer for non-finite values, reporting the site on failure.
pub fn check_finite(site: &'static str, xs: &[f32]) -> Result<(), Divergence> {
    let count = count_non_finite(xs);
    if count == 0 {
        Ok(())
    } else {
        Err(Divergence::NonFiniteValues { site, count })
    }
}

/// Check a scalar loss for divergence at `step`.
pub fn check_loss(step: u64, loss: f64) -> Result<(), Divergence> {
    if loss.is_finite() {
        Ok(())
    } else {
        Err(Divergence::NonFiniteLoss { step })
    }
}

/// Dynamic loss-scale configuration. All scales are powers of two so that
/// scaling gradients is exponent-only arithmetic — bitwise-exact to undo.
#[derive(Clone, Copy, Debug)]
pub struct LossScaleCfg {
    /// Initial scale (must be a power of two).
    pub init: f32,
    /// Consecutive clean steps before the scale doubles.
    pub growth_interval: u32,
    /// Floor the backoff cannot cross.
    pub min: f32,
    /// Ceiling growth cannot cross.
    pub max: f32,
}

impl Default for LossScaleCfg {
    fn default() -> Self {
        Self {
            init: 1.0,
            growth_interval: 64,
            min: 1.0 / 65536.0,
            max: 65536.0,
        }
    }
}

/// The loss-scale state machine: overflow → halve, `growth_interval`
/// clean steps → double.
#[derive(Clone, Copy, Debug)]
pub struct LossScale {
    cfg: LossScaleCfg,
    scale: f32,
    clean: u32,
    /// Total backoffs taken (overflows observed).
    pub backoffs: u64,
    /// Total growths taken.
    pub growths: u64,
}

impl LossScale {
    pub fn new(cfg: LossScaleCfg) -> Self {
        assert!(
            cfg.init > 0.0 && cfg.init.log2().fract() == 0.0,
            "loss scale must be a positive power of two"
        );
        Self {
            cfg,
            scale: cfg.init,
            clean: 0,
            backoffs: 0,
            growths: 0,
        }
    }

    /// The current multiplier applied to the loss (and hence gradients).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Exact inverse of the current scale (power of two, so `1/s` is
    /// representable and `g * s * (1/s) == g` bitwise absent overflow).
    pub fn inv_scale(&self) -> f32 {
        1.0 / self.scale
    }

    /// An overflow (or any guard trip demanding gentler scaling) halves
    /// the scale and restarts the growth counter.
    pub fn on_overflow(&mut self) {
        self.scale = (self.scale * 0.5).max(self.cfg.min);
        self.clean = 0;
        self.backoffs += 1;
    }

    /// A clean step advances the growth counter; after `growth_interval`
    /// consecutive clean steps the scale doubles.
    pub fn on_clean(&mut self) {
        self.clean += 1;
        if self.clean >= self.cfg.growth_interval {
            self.clean = 0;
            if self.scale < self.cfg.max {
                self.scale *= 2.0;
                self.growths += 1;
            }
        }
    }
}

/// What a [`SpikeDetector::observe`] call concluded about one sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Clean,
    /// The sample is NaN or ±inf.
    NonFinite,
    /// The sample exceeds `factor` × the windowed median; `ratio` is
    /// sample / median.
    Spike {
        ratio: f64,
    },
}

/// Windowed relative-spike detector over a scalar health statistic.
/// Anomalous samples (non-finite or spiking) are *not* admitted into the
/// window, so one corruption cannot poison the baseline used to judge the
/// next.
#[derive(Clone, Debug)]
pub struct SpikeDetector {
    window: usize,
    factor: f64,
    min_history: usize,
    hist: Vec<f64>,
}

impl SpikeDetector {
    /// `factor` — how many × the windowed median counts as a spike;
    /// `window` — samples of history kept; `min_history` — samples
    /// required before spike judgments start (non-finite is always
    /// reported).
    pub fn new(factor: f64, window: usize, min_history: usize) -> Self {
        assert!(factor > 1.0 && window >= 1 && min_history >= 1);
        Self {
            window,
            factor,
            min_history,
            hist: Vec::new(),
        }
    }

    fn median(&self) -> f64 {
        let mut v = self.hist.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("window holds finite values only"));
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        }
    }

    /// Judge one sample; clean samples enter the window.
    pub fn observe(&mut self, v: f64) -> Verdict {
        if !v.is_finite() {
            return Verdict::NonFinite;
        }
        if self.hist.len() >= self.min_history {
            let med = self.median();
            if med > 0.0 && v > self.factor * med {
                return Verdict::Spike { ratio: v / med };
            }
        }
        self.hist.push(v);
        if self.hist.len() > self.window {
            self.hist.remove(0);
        }
        Verdict::Clean
    }
}

/// A recovery decision, in escalation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyAction {
    /// Discard this step's gradients; parameters untouched.
    SkipStep,
    /// Skip *and* halve the loss scale.
    BackoffLossScale,
    /// Restore the last good checkpoint and replay.
    RollbackToCheckpoint,
}

impl PolicyAction {
    pub fn name(self) -> &'static str {
        match self {
            PolicyAction::SkipStep => "skip_step",
            PolicyAction::BackoffLossScale => "backoff_loss_scale",
            PolicyAction::RollbackToCheckpoint => "rollback_to_checkpoint",
        }
    }
}

/// Escalation ladder configuration: the first `skip_trips` trips skip the
/// step, the next `backoff_trips` also back off the loss scale, anything
/// beyond rolls back to the last good checkpoint. `clean_reset`
/// consecutive clean steps de-escalate back to the bottom of the ladder.
#[derive(Clone, Copy, Debug)]
pub struct PolicyCfg {
    pub skip_trips: u32,
    pub backoff_trips: u32,
    pub clean_reset: u32,
}

impl Default for PolicyCfg {
    fn default() -> Self {
        Self {
            skip_trips: 1,
            backoff_trips: 1,
            clean_reset: 3,
        }
    }
}

/// The policy engine: counts recent trips and walks the escalation ladder.
#[derive(Clone, Copy, Debug, Default)]
pub struct PolicyEngine {
    cfg: PolicyCfg,
    trips: u32,
    clean_run: u32,
    /// Lifetime trip count (the false-positive accounting reads this).
    pub total_trips: u64,
}

impl PolicyEngine {
    pub fn new(cfg: PolicyCfg) -> Self {
        Self {
            cfg,
            ..Default::default()
        }
    }

    /// Record a trip and pick the action for it.
    pub fn decide(&mut self) -> PolicyAction {
        self.trips += 1;
        self.clean_run = 0;
        self.total_trips += 1;
        if self.trips <= self.cfg.skip_trips {
            PolicyAction::SkipStep
        } else if self.trips <= self.cfg.skip_trips + self.cfg.backoff_trips {
            PolicyAction::BackoffLossScale
        } else {
            // The rollback resolves the incident; the ladder restarts.
            self.trips = 0;
            PolicyAction::RollbackToCheckpoint
        }
    }

    /// Record a clean step; enough of them de-escalate the ladder.
    pub fn on_clean(&mut self) {
        self.clean_run += 1;
        if self.clean_run >= self.cfg.clean_reset {
            self.trips = 0;
        }
    }
}

/// One entry of the guard timeline: what tripped, where, and what the
/// policy did about it.
#[derive(Clone, Debug)]
pub struct GuardEvent {
    pub step: u64,
    /// Which site tripped: `grad`, `loss`, `act`, `ckpt`. Always one of
    /// those four tokens — timeline consumers filter and group on this.
    pub site: String,
    /// Which detector fired: `nonfinite`, `spike`, `crc`, `overflow`.
    pub detector: String,
    /// Policy response (a [`PolicyAction::name`] or `fallback_prev_ckpt`).
    pub action: String,
    /// The statistic that tripped (count for scans, ratio for spikes).
    pub value: f64,
    /// Free-form context (e.g. the CRC decode error naming the corrupt
    /// section); empty when there is nothing to add. Never part of the
    /// `site`/`detector`/`action` schema.
    pub detail: String,
}

impl GuardEvent {
    /// An event with no `detail`.
    pub fn new(step: u64, site: &str, detector: &str, action: &str, value: f64) -> Self {
        Self {
            step,
            site: site.into(),
            detector: detector.into(),
            action: action.into(),
            value,
            detail: String::new(),
        }
    }

    /// One formatted timeline line (the CLI prints these).
    pub fn line(&self) -> String {
        let mut s = format!(
            "step {:>4}  site {:<5} detector {:<9} action {:<22} value {:.3e}",
            self.step, self.site, self.detector, self.action, self.value
        );
        if !self.detail.is_empty() {
            s.push_str("  # ");
            s.push_str(&self.detail);
        }
        s
    }
}

/// Knobs of the guarded training step, consumed by the chaos runner.
#[derive(Clone, Copy, Debug)]
pub struct GuardConfig {
    pub loss_scale: LossScaleCfg,
    /// Round synced gradients to bf16 before unscaling — the simulated
    /// low-precision device path.
    pub bf16_grads: bool,
    /// Relative-spike threshold on the global grad norm.
    pub spike_factor: f64,
    /// Spike-detector window length.
    pub spike_window: usize,
    /// Samples required before spike judgments begin.
    pub spike_min_history: usize,
    /// Global grad-norm clip threshold, applied to the *unscaled*
    /// gradients of every clean step via [`clip_factor`] (charged as
    /// `guard:clip` when it actually rescales). `0.0` disables clipping,
    /// keeping the clean trajectory bitwise-identical to an unguarded run.
    pub max_grad_norm: f64,
    pub policy: PolicyCfg,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            loss_scale: LossScaleCfg::default(),
            bf16_grads: false,
            spike_factor: 25.0,
            spike_window: 8,
            spike_min_history: 3,
            max_grad_norm: 0.0,
            policy: PolicyCfg::default(),
        }
    }
}

/// Flip bit `bit` (0 = LSB) of element `elem` in a float buffer — the
/// injection primitive for `site=act` / `site=grad` SDC events. No-op on
/// an empty buffer.
pub fn flip_bit_f32(xs: &mut [f32], elem: usize, bit: u32) {
    if xs.is_empty() {
        return;
    }
    let i = elem % xs.len();
    xs[i] = f32::from_bits(xs[i].to_bits() ^ (1u32 << (bit % 32)));
}

/// Flip bit `bit % 8` of byte `elem % len` — the `site=ckpt` injection
/// primitive.
pub fn flip_bit_bytes(xs: &mut [u8], elem: usize, bit: u32) {
    if xs.is_empty() {
        return;
    }
    let i = elem % xs.len();
    xs[i] ^= 1u8 << (bit % 8);
}

/// Seeded additive noise in `[-amp, amp]` over a buffer (the `noise:` SDC
/// event). Uses the same splitmix64 stream family as the data pipeline,
/// keyed only by `seed`, so replays corrupt identically.
pub fn apply_noise(xs: &mut [f32], seed: u64, amp: f64) {
    let mut state = seed;
    for v in xs {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Map to [-1, 1) with 53-bit resolution, then scale.
        let u = (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        *v += (u * amp) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bf16_round_properties() {
        // Idempotent; exact on powers of two; relative error <= 2^-8.
        for &x in &[1.0f32, -3.5, 0.12345, 1e20, -7e-12, 65504.0] {
            let r = bf16_round(x);
            assert_eq!(bf16_round(r), r, "not idempotent at {x}");
            assert!(((x - r) / x).abs() <= 1.0 / 256.0, "error too big at {x}");
        }
        for p in -20..20 {
            let x = (2.0f32).powi(p);
            assert_eq!(bf16_round(x), x);
            assert_eq!(bf16_round(-x), -x);
        }
        assert_eq!(bf16_round(0.0), 0.0);
        assert_eq!(bf16_round(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(bf16_round(f32::INFINITY), f32::INFINITY);
        assert_eq!(bf16_round(f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert!(bf16_round(f32::NAN).is_nan());
        // f32::MAX overflows bf16's range, exactly like a device cast.
        assert_eq!(bf16_round(f32::MAX), f32::INFINITY);
        // Round-to-nearest-even: 1 + 2^-8 is exactly halfway between
        // bf16(1.0) (mantissa 0x00, even) and 1 + 2^-7 (mantissa 0x01,
        // odd) — the even side wins. 1 + 3*2^-8 is halfway between odd
        // 0x01 and even 0x02 — again the even side wins, this time up.
        assert_eq!(bf16_round(f32::from_bits(0x3F80_8000)), 1.0);
        assert_eq!(bf16_round(f32::from_bits(0x3F81_8000)), 1.0 + 2.0 / 128.0);
    }

    #[test]
    fn loss_scale_state_machine() {
        let mut ls = LossScale::new(LossScaleCfg {
            init: 8.0,
            growth_interval: 3,
            min: 1.0,
            max: 16.0,
        });
        assert_eq!(ls.scale(), 8.0);
        ls.on_overflow();
        assert_eq!(ls.scale(), 4.0);
        // Growth needs 3 *consecutive* clean steps.
        ls.on_clean();
        ls.on_clean();
        ls.on_overflow();
        assert_eq!(ls.scale(), 2.0);
        for _ in 0..3 {
            ls.on_clean();
        }
        assert_eq!(ls.scale(), 4.0);
        for _ in 0..6 {
            ls.on_clean();
        }
        assert_eq!(ls.scale(), 16.0);
        // Capped at max.
        for _ in 0..3 {
            ls.on_clean();
        }
        assert_eq!(ls.scale(), 16.0);
        // Floored at min.
        for _ in 0..10 {
            ls.on_overflow();
        }
        assert_eq!(ls.scale(), 1.0);
        assert_eq!(ls.backoffs, 12);
        assert_eq!(ls.growths, 3);
        // Scaling by the inverse is bitwise-exact.
        let g = 0.123456f32;
        assert_eq!(
            g * 8.0 * LossScale::new(LossScaleCfg::default()).inv_scale() * 0.125,
            g * 8.0 * 0.125
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn loss_scale_rejects_non_power_of_two() {
        let _ = LossScale::new(LossScaleCfg {
            init: 3.0,
            ..Default::default()
        });
    }

    #[test]
    fn spike_detector_flags_spikes_not_trends() {
        let mut d = SpikeDetector::new(10.0, 8, 3);
        // Warm-up: no spike verdicts before min_history.
        assert_eq!(d.observe(1.0), Verdict::Clean);
        assert_eq!(d.observe(1.1), Verdict::Clean);
        assert_eq!(d.observe(0.9), Verdict::Clean);
        // 50x the median: spike, and NOT admitted to the window.
        match d.observe(50.0) {
            Verdict::Spike { ratio } => assert!(ratio > 10.0),
            v => panic!("expected spike, got {v:?}"),
        }
        // The poisoned sample did not shift the baseline.
        assert_eq!(d.observe(1.05), Verdict::Clean);
        // Gradual growth is tolerated.
        let mut d2 = SpikeDetector::new(10.0, 4, 3);
        let mut v = 1.0;
        for _ in 0..20 {
            assert_eq!(d2.observe(v), Verdict::Clean);
            v *= 2.0;
        }
        assert_eq!(d.observe(f64::NAN), Verdict::NonFinite);
        assert_eq!(d.observe(f64::INFINITY), Verdict::NonFinite);
    }

    #[test]
    fn policy_ladder_escalates_and_deescalates() {
        let mut p = PolicyEngine::new(PolicyCfg {
            skip_trips: 1,
            backoff_trips: 1,
            clean_reset: 2,
        });
        assert_eq!(p.decide(), PolicyAction::SkipStep);
        assert_eq!(p.decide(), PolicyAction::BackoffLossScale);
        assert_eq!(p.decide(), PolicyAction::RollbackToCheckpoint);
        // Rollback restarts the ladder.
        assert_eq!(p.decide(), PolicyAction::SkipStep);
        // Clean steps de-escalate.
        p.on_clean();
        p.on_clean();
        assert_eq!(p.decide(), PolicyAction::SkipStep);
        assert_eq!(p.total_trips, 5);
    }

    #[test]
    fn clip_and_norm_helpers() {
        let xs = [3.0f32, 4.0];
        assert!((sq_norm(&xs) - 25.0).abs() < 1e-12);
        assert_eq!(clip_factor(5.0, 10.0), 1.0);
        assert_eq!(clip_factor(0.0, 1.0), 1.0);
        let f = clip_factor(5.0, 1.0);
        assert!((f - 0.2).abs() < 1e-7);
        assert_eq!(clip_factor(f64::NAN, 1.0), 0.0);
        assert_eq!(clip_factor(f64::INFINITY, 1.0), 0.0);
        assert_eq!(count_non_finite(&[1.0, f32::NAN, f32::INFINITY, 2.0]), 2);
        assert!(check_finite("grad", &[1.0, 2.0]).is_ok());
        let err = check_finite("grad", &[f32::NAN]).unwrap_err();
        assert_eq!(
            err,
            Divergence::NonFiniteValues {
                site: "grad",
                count: 1
            }
        );
        assert!(format!("{err}").contains("grad"));
        assert!(check_loss(3, 1.5).is_ok());
        assert_eq!(
            check_loss(3, f64::NAN).unwrap_err(),
            Divergence::NonFiniteLoss { step: 3 }
        );
    }

    #[test]
    fn injection_primitives_are_exact_involutions() {
        let mut xs = vec![1.0f32, 2.0, 3.0];
        let orig = xs.clone();
        flip_bit_f32(&mut xs, 1, 30);
        assert_ne!(xs[1], orig[1]);
        assert_eq!(xs[0], orig[0]);
        flip_bit_f32(&mut xs, 1, 30);
        assert_eq!(xs, orig);
        // Index wraps, empty is a no-op.
        flip_bit_f32(&mut xs, 7, 0);
        assert_ne!(xs[1], orig[1]);
        flip_bit_f32(&mut [], 0, 0);
        let mut bs = vec![0u8; 4];
        flip_bit_bytes(&mut bs, 6, 9);
        assert_eq!(bs, [0, 0, 2, 0]);
        flip_bit_bytes(&mut bs, 6, 9);
        assert_eq!(bs, [0u8; 4]);
    }

    #[test]
    fn noise_is_bounded_and_reproducible() {
        let mut a = vec![0.0f32; 256];
        let mut b = vec![0.0f32; 256];
        apply_noise(&mut a, 77, 0.05);
        apply_noise(&mut b, 77, 0.05);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.abs() <= 0.05 + 1e-9));
        assert!(a.iter().any(|v| *v != 0.0));
        let mut c = vec![0.0f32; 256];
        apply_noise(&mut c, 78, 0.05);
        assert_ne!(a, c);
    }

    #[test]
    fn guard_event_line_is_readable() {
        let mut e = GuardEvent {
            step: 5,
            site: "grad".into(),
            detector: "nonfinite".into(),
            action: "skip_step".into(),
            value: 3.0,
            detail: String::new(),
        };
        let line = e.line();
        assert!(line.contains("step    5"));
        assert!(line.contains("grad"));
        assert!(line.contains("nonfinite"));
        assert!(line.contains("skip_step"));
        assert!(!line.contains('#'), "no detail marker when detail is empty");
        e.detail = "section block0.moe.gate failed CRC".into();
        assert!(e.line().contains("# section block0.moe.gate failed CRC"));
    }
}
