//! Silent-data-corruption guardrails (tier-1).
//!
//! End-to-end pins for the SDC defense layer (`xmoe::train::guard` +
//! the guarded chaos step):
//!
//! 1. The dynamic loss-scale state machine grows and backs off exactly as
//!    configured, and scales stay powers of two (bitwise-invertible).
//! 2. Gradient clipping never increases the norm and lands exactly on
//!    `max_norm` when active — and, wired into the guarded step via
//!    `max_grad_norm`, actually rescales the optimizer's gradients.
//! 3. An injected `bitflip:site=grad` run detects the corruption, rolls
//!    back to the last checkpoint, finishes with finite loss — and its
//!    post-rollback trajectory is bitwise identical to a clean run's,
//!    because injections are one-shot and checkpoints are exact.
//! 4. The same seed with no injection trips zero guard events (no false
//!    positives) and is bitwise reproducible run-over-run.
//! 5. Guard overhead on a clean run stays under 5% of simulated step time,
//!    measured from the `guard:*` spans of a clock that still satisfies
//!    span-exactness (buckets sum to `now()`).
//! 6. A grown loss scale is unscaled bitwise-exactly before the optimizer
//!    consumes the gradients, so the loss trajectory is independent of
//!    the scale schedule; `max_grad_norm` clipping actually rescales the
//!    optimizer's inputs and is inert by default.
//! 7. A corrupt checkpoint image makes restore fall back to the previous
//!    intact one, recording a schema-clean `site=ckpt` event that carries
//!    the decode error in `detail`.

use xmoe::collectives::SimCluster;
use xmoe::core::gating::DropPolicy;
use xmoe::topology::FaultPlan;
use xmoe::train::guard::{clip_factor, sq_norm};
use xmoe::train::{
    run_chaos_rank, ChaosConfig, ChaosReport, GuardConfig, LossScale, LossScaleCfg, PolicyCfg,
    TrainConfig,
};

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

/// Rollback-on-first-trip policy: every detection escalates straight to
/// `rollback_to_checkpoint`, which is what the trajectory-match test needs.
fn rollback_guard() -> GuardConfig {
    GuardConfig {
        policy: PolicyCfg {
            skip_trips: 0,
            backoff_trips: 0,
            clean_reset: 3,
        },
        ..GuardConfig::default()
    }
}

/// Run `world` ranks under `plan`, returning every rank's report plus its
/// final clock buckets and end time.
#[allow(clippy::type_complexity)]
fn guarded_run(
    world: usize,
    plan: Option<FaultPlan>,
    chaos: ChaosConfig,
) -> Vec<(ChaosReport, Vec<(String, f64)>, f64)> {
    let c = cfg();
    let c = &c;
    let chaos = &chaos;
    let mut cluster = SimCluster::frontier(world);
    if let Some(p) = plan {
        cluster = cluster.with_faults(p);
    }
    cluster.run(move |ctx| {
        let report = run_chaos_rank(c, chaos, ctx).expect("unrecoverable comm fault");
        (report, ctx.clock.buckets().to_vec(), ctx.clock.now())
    })
}

fn loss_bits(r: &ChaosReport) -> Vec<(u64, u64)> {
    r.losses.iter().map(|&(s, l)| (s, l.to_bits())).collect()
}

// ---------------------------------------------------------------------------
// 1. loss-scale state machine
// ---------------------------------------------------------------------------

#[test]
fn loss_scale_grows_after_interval_and_backs_off_on_overflow() {
    let mut ls = LossScale::new(LossScaleCfg {
        init: 1024.0,
        growth_interval: 3,
        min: 1.0,
        max: 4096.0,
    });
    assert_eq!(ls.scale(), 1024.0);
    ls.on_clean();
    ls.on_clean();
    assert_eq!(ls.scale(), 1024.0, "no growth before the interval elapses");
    ls.on_clean();
    assert_eq!(ls.scale(), 2048.0, "doubles after `growth_interval` cleans");
    ls.on_overflow();
    assert_eq!(ls.scale(), 1024.0, "halves on overflow");
    ls.on_clean();
    ls.on_clean();
    ls.on_overflow();
    assert_eq!(ls.scale(), 512.0, "overflow resets the clean streak");
    for _ in 0..64 {
        ls.on_overflow();
    }
    assert_eq!(ls.scale(), 1.0, "backoff floors at `min`");
    for _ in 0..64 {
        ls.on_clean();
    }
    assert_eq!(ls.scale(), 4096.0, "growth ceilings at `max`");
    assert!(ls.backoffs >= 3 && ls.growths >= 1);
}

#[test]
fn loss_scale_stays_a_power_of_two_and_inverts_exactly() {
    let mut ls = LossScale::new(LossScaleCfg::default());
    for i in 0..200 {
        if i % 7 == 0 {
            ls.on_overflow();
        } else {
            ls.on_clean();
        }
        let s = ls.scale();
        assert_eq!(s.to_bits() & 0x007F_FFFF, 0, "scale {s} not a power of two");
        // Power-of-two scaling is exponent arithmetic: scale then unscale
        // is bitwise lossless for any non-overflowing value.
        for v in [1.0f32, -0.375, std::f32::consts::PI, 1e-8, -123.456] {
            assert_eq!(((v * s) * ls.inv_scale()).to_bits(), v.to_bits());
        }
    }
}

// ---------------------------------------------------------------------------
// 2. gradient-clip invariants
// ---------------------------------------------------------------------------

#[test]
fn clip_factor_never_grows_the_norm_and_hits_max_exactly() {
    let xs = [3.0f32, -4.0, 12.0]; // norm 13
    let norm = sq_norm(&xs).sqrt();
    assert!((norm - 13.0).abs() < 1e-9);

    assert_eq!(clip_factor(norm, 20.0), 1.0, "under the cap: untouched");
    assert_eq!(clip_factor(norm, 0.0), 1.0, "cap 0 disables clipping");

    let f = clip_factor(norm, 5.0);
    assert!(f < 1.0);
    let clipped: Vec<f32> = xs.iter().map(|&x| x * f).collect();
    let new_norm = sq_norm(&clipped).sqrt();
    assert!(
        (new_norm - 5.0).abs() < 1e-6,
        "active clip lands on max_norm, got {new_norm}"
    );

    assert_eq!(clip_factor(f64::NAN, 5.0), 0.0, "non-finite norm zeroes");
    assert_eq!(clip_factor(f64::INFINITY, 5.0), 0.0);
}

// ---------------------------------------------------------------------------
// 3. injected bitflip: detect, roll back, match the clean trajectory
// ---------------------------------------------------------------------------

#[test]
fn grad_bitflip_run_detects_rolls_back_and_matches_clean_trajectory() {
    let world = 2;
    let steps = 8u64;
    let chaos = ChaosConfig::new(steps, 2).with_guard(rollback_guard());
    // Bit 30 is the top exponent bit: for any |g| < 2 the flip lands in
    // the 1e35+ range (or on a non-finite), far past the spike threshold.
    let plan = FaultPlan::parse(2, "bitflip:rank=1,at=5,site=grad,bit=30").unwrap();

    let dirty = guarded_run(world, Some(plan), chaos);
    let clean = guarded_run(world, None, chaos);

    for ((d, _, _), (c, _, _)) in dirty.iter().zip(&clean) {
        // Detection fired on the injected step and escalated to rollback.
        let ev = d
            .guard_events
            .iter()
            .find(|e| e.action == "rollback_to_checkpoint")
            .expect("injected bitflip must trip the guard");
        assert_eq!(ev.step, 5, "detected on the injection step");
        assert_eq!(ev.detector.as_str(), "spike");
        assert_eq!(d.guard_false_positives, 0);

        // Recovery stats: rolled back to the step-4 checkpoint, replaying 1.
        let rec = d.recoveries.last().expect("rollback recorded");
        assert!(
            rec.failed_ranks.is_empty(),
            "SDC rollback, not a rank death"
        );
        assert_eq!(rec.resumed_from_step, 4);
        assert_eq!(rec.steps_lost_to_rollback, 1);
        assert_eq!(rec.detect_latency_steps, 0);

        // The run finished, every surviving loss is finite.
        assert_eq!(d.losses.len() as u64, steps);
        assert!(d.losses.iter().all(|&(_, l)| l.is_finite()));

        // One-shot injection + exact checkpoints: after the rollback the
        // replay is clean, so the whole trajectory is bitwise identical to
        // the never-injected run.
        assert_eq!(loss_bits(d), loss_bits(c));
        assert!(c.guard_events.is_empty(), "clean run must not trip");
    }
}

#[test]
fn corrupt_checkpoint_capture_is_discarded_and_rollback_uses_previous() {
    let world = 2;
    // ckpt_every=2 captures after steps 1, 3, 5 (checkpoint steps 2, 4, 6).
    // The ckpt flip corrupts the capture at step 3; the grad flip at step 5
    // then forces a rollback, which must land on the *step-2* checkpoint.
    let chaos = ChaosConfig::new(8, 2).with_guard(rollback_guard());
    let plan = FaultPlan::parse(
        2,
        "bitflip:rank=1,at=3,site=ckpt;bitflip:rank=1,at=5,site=grad,bit=30",
    )
    .unwrap();

    for (r, _, _) in guarded_run(world, Some(plan), chaos) {
        assert!(
            r.guard_events
                .iter()
                .any(|e| e.action == "discard_corrupt_ckpt"),
            "capture-time CRC vote must reject the corrupted checkpoint"
        );
        let rec = r.recoveries.last().expect("rollback happened");
        assert_eq!(
            rec.resumed_from_step, 2,
            "rollback fell back past the discarded step-4 checkpoint"
        );
        assert_eq!(rec.steps_lost_to_rollback, 3);
        assert!(r.losses.iter().all(|&(_, l)| l.is_finite()));
        assert_eq!(r.guard_false_positives, 0);
    }
}

// ---------------------------------------------------------------------------
// 4. clean runs: zero trips, bitwise reproducible
// ---------------------------------------------------------------------------

#[test]
fn clean_guarded_run_has_zero_trips_and_is_bitwise_reproducible() {
    let chaos = ChaosConfig::new(8, 2).with_guard(GuardConfig::default());
    let a = guarded_run(2, None, chaos);
    let b = guarded_run(2, None, chaos);
    for ((ra, _, ta), (rb, _, tb)) in a.iter().zip(&b) {
        assert!(ra.guard_events.is_empty(), "no injection → no trips");
        assert_eq!(ra.guard_false_positives, 0);
        assert_eq!(loss_bits(ra), loss_bits(rb), "run-over-run bitwise equal");
        assert_eq!(ta.to_bits(), tb.to_bits(), "simulated time reproducible");
    }
}

#[test]
fn injected_run_is_bitwise_reproducible_too() {
    let chaos = ChaosConfig::new(8, 2).with_guard(rollback_guard());
    let plan = || FaultPlan::parse(2, "bitflip:rank=1,at=5,site=grad,bit=30").unwrap();
    let a = guarded_run(2, Some(plan()), chaos);
    let b = guarded_run(2, Some(plan()), chaos);
    for ((ra, _, ta), (rb, _, tb)) in a.iter().zip(&b) {
        assert_eq!(loss_bits(ra), loss_bits(rb));
        assert_eq!(ra.guard_events.len(), rb.guard_events.len());
        for (ea, eb) in ra.guard_events.iter().zip(&rb.guard_events) {
            assert_eq!(ea.step, eb.step);
            assert_eq!(ea.detector, eb.detector);
            assert_eq!(ea.action, eb.action);
            assert_eq!(ea.value.to_bits(), eb.value.to_bits());
        }
        assert_eq!(ta.to_bits(), tb.to_bits());
    }
}

// ---------------------------------------------------------------------------
// 5. guard overhead < 5%, with span-exactness intact
// ---------------------------------------------------------------------------

#[test]
fn guard_overhead_is_under_five_percent_and_spans_stay_exact() {
    let chaos = ChaosConfig::new(6, 2).with_guard(GuardConfig::default());
    for (_, buckets, now) in guarded_run(4, None, chaos) {
        let total: f64 = buckets.iter().map(|(_, t)| t).sum();
        assert!(
            (total - now).abs() <= 1e-9 * now.max(1.0),
            "span-exactness violated: buckets sum {total} vs now {now}"
        );
        let guard: f64 = buckets
            .iter()
            .filter(|(l, _)| l.starts_with("guard:"))
            .map(|(_, t)| t)
            .sum();
        assert!(
            guard > 0.0,
            "guard work must be charged under guard:* spans"
        );
        assert!(
            guard / now < 0.05,
            "guard overhead {:.2}% exceeds 5%",
            100.0 * guard / now
        );
    }
}

// ---------------------------------------------------------------------------
// 6. loss-scale exactness and clipping in the guarded step
// ---------------------------------------------------------------------------

#[test]
fn grown_loss_scale_is_unscaled_exactly_leaving_the_trajectory_unchanged() {
    let steps = 8u64;
    // Default config pins the scale at 1.0 for a run this short
    // (growth_interval = 64); the second config starts at 8 and doubles
    // every 2 clean steps, so the two runs see very different scales.
    let pinned = ChaosConfig::new(steps, 2).with_guard(GuardConfig::default());
    let grown = ChaosConfig::new(steps, 2).with_guard(GuardConfig {
        loss_scale: LossScaleCfg {
            init: 8.0,
            growth_interval: 2,
            min: 0.5,
            max: 65536.0,
        },
        ..GuardConfig::default()
    });

    let a = guarded_run(2, None, pinned);
    let b = guarded_run(2, None, grown);
    for ((rp, _, _), (rg, _, _)) in a.iter().zip(&b) {
        assert!(rg.guard_events.is_empty(), "clean run must not trip");
        assert_eq!(rg.guard_false_positives, 0);
        assert!(
            rg.final_loss_scale > 8.0,
            "scale must actually grow, got {}",
            rg.final_loss_scale
        );
        // Power-of-two scaling is exponent arithmetic: the backward pass
        // is scale-equivariant and the unscale pass inverts it bitwise,
        // so Adam consumes identical gradients under either schedule and
        // the loss trajectory cannot move.
        assert_eq!(loss_bits(rp), loss_bits(rg));
    }
}

#[test]
fn max_grad_norm_clips_clean_steps_and_is_inert_by_default() {
    let steps = 8u64;
    let stock = guarded_run(
        2,
        None,
        ChaosConfig::new(steps, 2).with_guard(GuardConfig::default()),
    );
    let capped = guarded_run(
        2,
        None,
        ChaosConfig::new(steps, 2).with_guard(GuardConfig {
            max_grad_norm: 1e-3,
            ..GuardConfig::default()
        }),
    );
    for ((rs, _, _), (rc, _, _)) in stock.iter().zip(&capped) {
        assert_eq!(rs.grad_clips, 0, "clipping is off by default");
        assert!(rc.grad_clips > 0, "a tiny cap must rescale clean steps");
        assert!(rc.guard_events.is_empty(), "a clip is not an anomaly");
        assert_eq!(rc.guard_false_positives, 0);
        assert!(rc.losses.iter().all(|&(_, l)| l.is_finite()));
        assert_ne!(
            loss_bits(rs),
            loss_bits(rc),
            "an active clip must change the optimizer trajectory"
        );
    }
    // The factor derives from the all-reduced norm, so every rank makes
    // the same clip decision on the same step.
    assert!(
        capped
            .windows(2)
            .all(|w| w[0].0.grad_clips == w[1].0.grad_clips),
        "clip decisions must be rank-consistent"
    );
}

// ---------------------------------------------------------------------------
// 7. corrupt checkpoint image: restore falls back, event schema intact
// ---------------------------------------------------------------------------

#[test]
fn dead_peer_restore_falls_back_past_a_corrupt_checkpoint_image() {
    // Guard OFF: no capture-time CRC vote, so the ckpt flip at step 3
    // leaves a corrupted step-4 image stored as `last` (step-2 stays
    // intact in `prev`). When rank 1 dies at step 5 the survivor's
    // restore must reject `last` on decode and fall back.
    let chaos = ChaosConfig::new(8, 2);
    let plan = FaultPlan::parse(2, "bitflip:rank=0,at=3,site=ckpt;kill:rank=1,at=5").unwrap();

    let reports = guarded_run(2, Some(plan), chaos);
    let (r, _, _) = &reports[0]; // rank 0 is the survivor
    let ev = r
        .guard_events
        .iter()
        .find(|e| e.action == "fallback_prev_ckpt")
        .expect("corrupt last image must force the fallback");
    assert_eq!(ev.site, "ckpt", "fallback keeps the site schema");
    assert_eq!(ev.detector, "crc");
    assert!(
        !ev.detail.is_empty(),
        "the decode error rides in `detail`, not `site`"
    );
    let rec = r.recoveries.last().expect("dead-peer recovery recorded");
    assert_eq!(rec.failed_ranks, vec![1]);
    assert_eq!(
        rec.resumed_from_step, 2,
        "resumed from the intact step-2 image"
    );
    assert_eq!(r.losses.len(), 8, "survivor finishes every step");
    assert!(r.losses.iter().all(|&(_, l)| l.is_finite()));
}
