//! Deterministic fault injection plans (the chaos engine's schedule).
//!
//! Week-long MoE runs on HPC partitions see slow nodes, degraded Slingshot
//! links, and outright rank loss. A [`FaultPlan`] scripts those events on the
//! simulated cluster: every event is pinned to a training-step window, so the
//! same plan replayed against the same seed produces bitwise-identical
//! timelines — faults are part of the experiment, not noise.
//!
//! The plan is consulted from three places:
//! * `xmoe_core::price::Meter` multiplies every stage price a rank charges
//!   by [`FaultPlan::slowdown`], so a slow rank shows up as a straggler in
//!   the existing stage breakdowns;
//! * the communicator prices collectives with
//!   [`CostModel::fault_link_multiplier`](crate::CostModel::fault_link_multiplier)
//!   and retries transient flaps with [`FaultPlan::backoff`];
//! * dead ranks are detected *by plan*, not by a link going down: in the
//!   threads-as-ranks runtime a simulated death is a live thread that stops
//!   sending, so a real `recv` on it would wait forever. Survivors instead
//!   agree on who is dead from the plan and the current step, which keeps the
//!   SPMD program order intact.

use crate::LinkClass;

/// Which tensor class a silent-data-corruption event hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SdcSite {
    /// Activations flowing between layers (corrupted before the LM head).
    Act,
    /// Gradients, corrupted after backward but before the gradient
    /// all-reduce so the flip propagates like a real device-memory SDC.
    Grad,
    /// Raw checkpoint bytes, corrupted at capture time on the victim rank.
    Ckpt,
}

impl SdcSite {
    pub fn name(self) -> &'static str {
        match self {
            SdcSite::Act => "act",
            SdcSite::Grad => "grad",
            SdcSite::Ckpt => "ckpt",
        }
    }
}

/// One seeded bit-flip scheduled by the plan: the victim rank, the step,
/// the site, and which bit of the chosen f32 word (or checkpoint byte) to
/// flip. `element_hash` is a deterministic 64-bit value the injector
/// reduces modulo the target length to pick the victim element, so the
/// same plan always corrupts the same word.
#[derive(Clone, Copy, Debug)]
pub struct SdcBitFlip {
    pub site: SdcSite,
    /// Bit index inside the 32-bit float word (for `Ckpt`, inside the
    /// chosen byte: `bit % 8`).
    pub bit: u32,
    /// Seeded hash used to pick the victim element deterministically.
    pub element_hash: u64,
}

impl SdcBitFlip {
    /// Victim element index within a buffer of `len` elements.
    pub fn element(&self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            (self.element_hash % len as u64) as usize
        }
    }
}

/// Which class of links a link-level fault hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkTier {
    /// Intra-node fabric (Infinity Fabric / NVLink).
    Intra,
    /// Anything leaving the node: Slingshot NICs, including cross-rack
    /// traffic (which rides the same NIC).
    Inter,
}

impl LinkTier {
    /// Does this tier cover the given point-to-point link class?
    pub fn covers(self, class: LinkClass) -> bool {
        match self {
            LinkTier::Intra => class == LinkClass::IntraNode,
            LinkTier::Inter => matches!(class, LinkClass::InterNode | LinkClass::CrossRack),
        }
    }
}

/// One scheduled fault. Step windows are half-open: active for
/// `from <= step < until`.
#[derive(Clone, Debug)]
pub enum FaultEvent {
    /// Rank `rank`'s kernels run `factor`x slower during the window.
    Slowdown {
        rank: usize,
        factor: f64,
        from: u64,
        until: u64,
    },
    /// Links of `tier` deliver bytes `factor`x slower during the window.
    LinkDegrade {
        tier: LinkTier,
        factor: f64,
        from: u64,
        until: u64,
    },
    /// Links of `tier` drop each collective `retries` times before it goes
    /// through; each attempt is re-charged with exponential backoff.
    LinkFlap {
        tier: LinkTier,
        retries: u32,
        from: u64,
        until: u64,
    },
    /// Rank `rank` dies permanently at the start of step `at`.
    RankFail { rank: usize, at: u64 },
    /// Rank `rank` joins (or rejoins) the run at the start of step `at`.
    /// A join scheduled after a [`RankFail`](FaultEvent::RankFail) cancels
    /// the death from `at` onward; a join with no earlier failure marks a
    /// rank that is *absent* from the start and elastically scales the
    /// world up at `at`.
    RankJoin { rank: usize, at: u64 },
    /// A silent bit flip on rank `rank` at step `at`: one bit of one f32
    /// word (or one checkpoint byte) at `site` is inverted. `bit` is the
    /// explicit bit index if the spec pinned one; otherwise the injector
    /// derives it from the plan seed.
    BitFlip {
        rank: usize,
        at: u64,
        site: SdcSite,
        bit: Option<u32>,
    },
    /// Low-amplitude additive corruption on rank `rank` during the window:
    /// every element at `site` is perturbed by a seeded uniform value in
    /// `[-amp, amp]`. Stays finite, so only anomaly detection can catch it.
    Noise {
        rank: usize,
        site: SdcSite,
        amp: f64,
        from: u64,
        until: u64,
    },
}

impl FaultEvent {
    fn active(&self, step: u64) -> bool {
        match *self {
            FaultEvent::Slowdown { from, until, .. }
            | FaultEvent::LinkDegrade { from, until, .. }
            | FaultEvent::LinkFlap { from, until, .. } => from <= step && step < until,
            FaultEvent::Noise { from, until, .. } => from <= step && step < until,
            FaultEvent::RankFail { at, .. } | FaultEvent::RankJoin { at, .. } => step >= at,
            FaultEvent::BitFlip { at, .. } => step == at,
        }
    }
}

/// splitmix64 — the same seeded mixer the data streams use; good enough to
/// decorrelate (seed, rank, step, site) into an element/bit choice.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic schedule of faults, plus the recovery-time constants the
/// runtime charges when reacting to them.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed recorded with the plan (spec strings and sweeps key off it; the
    /// plan itself is fully deterministic given its events).
    pub seed: u64,
    pub events: Vec<FaultEvent>,
    /// Simulated seconds a survivor spends noticing a dead peer (the
    /// heartbeat/timeout budget), charged once per failed collective.
    pub detect_timeout: f64,
    /// Base backoff before the first retry of a flapped collective;
    /// attempt `k` waits `retry_backoff * 2^k`.
    pub retry_backoff: f64,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
            detect_timeout: 5e-3,
            retry_backoff: 1e-4,
        }
    }

    pub fn with_retry_backoff(mut self, t: f64) -> Self {
        self.retry_backoff = t;
        self
    }

    /// Schedule a rank slowdown for `from <= step < until`.
    pub fn slow(mut self, rank: usize, factor: f64, from: u64, until: u64) -> Self {
        assert!(factor >= 1.0, "slowdown factor must be >= 1");
        self.events.push(FaultEvent::Slowdown {
            rank,
            factor,
            from,
            until,
        });
        self
    }

    /// Schedule a link-bandwidth degradation.
    pub fn degrade(mut self, tier: LinkTier, factor: f64, from: u64, until: u64) -> Self {
        assert!(factor >= 1.0, "degradation factor must be >= 1");
        self.events.push(FaultEvent::LinkDegrade {
            tier,
            factor,
            from,
            until,
        });
        self
    }

    /// Schedule transient link flaps (collectives retry `retries` times).
    pub fn flap(mut self, tier: LinkTier, retries: u32, from: u64, until: u64) -> Self {
        self.events.push(FaultEvent::LinkFlap {
            tier,
            retries,
            from,
            until,
        });
        self
    }

    /// Schedule a permanent rank failure at the start of step `at`.
    pub fn kill(mut self, rank: usize, at: u64) -> Self {
        self.events.push(FaultEvent::RankFail { rank, at });
        self
    }

    /// Schedule rank `rank` to join (or rejoin) at the start of step `at`.
    /// See [`FaultEvent::RankJoin`] for the semantics relative to an
    /// earlier `kill`.
    pub fn join(mut self, rank: usize, at: u64) -> Self {
        self.events.push(FaultEvent::RankJoin { rank, at });
        self
    }

    /// Schedule a single silent bit flip on `rank` at step `at`. Pass
    /// `bit: None` to let the plan seed choose an exponent-region bit.
    pub fn bitflip(mut self, rank: usize, at: u64, site: SdcSite, bit: Option<u32>) -> Self {
        if let Some(b) = bit {
            assert!(b < 32, "bit index must be < 32");
        }
        self.events.push(FaultEvent::BitFlip {
            rank,
            at,
            site,
            bit,
        });
        self
    }

    /// Schedule low-amplitude additive noise on `rank` for
    /// `from <= step < until`.
    pub fn noise(mut self, rank: usize, site: SdcSite, amp: f64, from: u64, until: u64) -> Self {
        assert!(
            amp.is_finite() && amp >= 0.0,
            "noise amplitude must be >= 0"
        );
        self.events.push(FaultEvent::Noise {
            rank,
            site,
            amp,
            from,
            until,
        });
        self
    }

    /// Combined kernel-time multiplier for `rank` at `step`.
    pub fn slowdown(&self, rank: usize, step: u64) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::Slowdown {
                    rank: r, factor, ..
                } if r == rank && e.active(step) => Some(factor),
                _ => None,
            })
            .product()
    }

    /// Combined bandwidth-degradation multiplier for traffic of `class` at
    /// `step` (1.0 when no degradation is active or the class is local).
    pub fn link_multiplier(&self, class: LinkClass, step: u64) -> f64 {
        if class == LinkClass::Local {
            return 1.0;
        }
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::LinkDegrade { tier, factor, .. }
                    if tier.covers(class) && e.active(step) =>
                {
                    Some(factor)
                }
                _ => None,
            })
            .product()
    }

    /// Number of failed attempts a collective over links of `class` suffers
    /// at `step` before succeeding.
    pub fn flap_retries(&self, class: LinkClass, step: u64) -> u32 {
        if class == LinkClass::Local {
            return 0;
        }
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::LinkFlap { tier, retries, .. }
                    if tier.covers(class) && e.active(step) =>
                {
                    Some(retries)
                }
                _ => None,
            })
            .sum()
    }

    /// Latest `RankFail` for `rank` at or before `step`, if any.
    fn last_fail_at(&self, rank: usize, step: u64) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::RankFail { rank: r, at } if r == rank && step >= at => Some(at),
                _ => None,
            })
            .max()
    }

    /// Latest `RankJoin` for `rank` at or before `step`, if any.
    fn last_join_at(&self, rank: usize, step: u64) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::RankJoin { rank: r, at } if r == rank && step >= at => Some(at),
                _ => None,
            })
            .max()
    }

    /// Is `rank` dead at `step`? Death lasts from the scheduled failure
    /// until a later [`join`](Self::join) (if any) revives the rank; a
    /// kill and a join scheduled at the same step resolve to dead.
    pub fn is_dead(&self, rank: usize, step: u64) -> bool {
        match (self.last_fail_at(rank, step), self.last_join_at(rank, step)) {
            (Some(fail), Some(join)) => fail >= join,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Is `rank` participating in the run at `step`? False while dead, and
    /// false for a fresh joiner (a `join` with no earlier `kill`) before
    /// its join step — such a rank sits out the run until it joins.
    pub fn is_present(&self, rank: usize, step: u64) -> bool {
        if self.is_dead(rank, step) {
            return false;
        }
        // A rank whose first scheduled event is a join is absent until it.
        let first_join = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::RankJoin { rank: r, at } if r == rank => Some(at),
                _ => None,
            })
            .min();
        let first_fail = self.dies_at(rank);
        match (first_join, first_fail) {
            (Some(j), None) => step >= j,
            (Some(j), Some(f)) => f < j || step >= j,
            (None, _) => true,
        }
    }

    /// Steps at which `rank` is scheduled to join, ascending.
    pub fn joins_of(&self, rank: usize) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::RankJoin { rank: r, at } if r == rank => Some(at),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Ranks scheduled to join exactly at `step`, ascending.
    pub fn joining_at(&self, step: u64) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::RankJoin { rank, at } if at == step => Some(rank),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All join steps scheduled by the plan, ascending and deduplicated.
    pub fn join_steps(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::RankJoin { at, .. } => Some(at),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The step at which `rank` dies, if scheduled.
    pub fn dies_at(&self, rank: usize) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::RankFail { rank: r, at } if r == rank => Some(at),
                _ => None,
            })
            .min()
    }

    /// All ranks dead at `step` (net of any reviving joins), ascending.
    pub fn dead_ranks(&self, step: u64) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::RankFail { rank, at } if step >= at => Some(rank),
                _ => None,
            })
            .filter(|&r| self.is_dead(r, step))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Earliest scheduled rank failure, if any.
    pub fn first_failure(&self) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::RankFail { at, .. } => Some(at),
                _ => None,
            })
            .min()
    }

    /// All bit flips scheduled for `rank` at `step` on `site`, in plan
    /// order, with the element hash and bit index fully resolved so every
    /// replay corrupts the same word. When the spec did not pin a bit, the
    /// seed picks one in the exponent region (bits 23..30) — the flips a
    /// real SDC study cares about, and the ones detectors must catch.
    pub fn bitflips(&self, rank: usize, step: u64, site: SdcSite) -> Vec<SdcBitFlip> {
        self.events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match *e {
                FaultEvent::BitFlip {
                    rank: r,
                    at,
                    site: s,
                    bit,
                } if r == rank && at == step && s == site => {
                    let h = splitmix64(
                        self.seed
                            ^ (rank as u64).wrapping_mul(0x9E37_79B9)
                            ^ step.wrapping_mul(0xD1B5_4A32_D192_ED03)
                            ^ ((i as u64) << 48)
                            ^ (site as u64) << 40,
                    );
                    Some(SdcBitFlip {
                        site,
                        bit: bit.unwrap_or(23 + ((h >> 32) % 8) as u32),
                        element_hash: h,
                    })
                }
                _ => None,
            })
            .collect()
    }

    /// Combined noise amplitude for `rank` at `step` on `site` (0.0 when
    /// nothing is active). Amplitudes of overlapping events add.
    pub fn noise_amp(&self, rank: usize, step: u64, site: SdcSite) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::Noise {
                    rank: r,
                    site: s,
                    amp,
                    ..
                } if r == rank && s == site && e.active(step) => Some(amp),
                _ => None,
            })
            .sum()
    }

    /// Earliest step at which any SDC event (bit flip or noise) fires on
    /// `rank`, if one is scheduled. Used to classify guard trips as true or
    /// false positives.
    pub fn first_sdc_at(&self, rank: usize) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::BitFlip { rank: r, at, .. } if r == rank => Some(at),
                FaultEvent::Noise { rank: r, from, .. } if r == rank => Some(from),
                _ => None,
            })
            .min()
    }

    /// Latest SDC event step at or before `step` across all ranks —
    /// detectors report latency relative to this.
    pub fn last_sdc_at_or_before(&self, step: u64) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::BitFlip { at, .. } if at <= step => Some(at),
                FaultEvent::Noise { from, .. } if from <= step => Some(from),
                _ => None,
            })
            .max()
    }

    /// Does the plan schedule any silent-data-corruption event at all?
    pub fn has_sdc(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::BitFlip { .. } | FaultEvent::Noise { .. }))
    }

    /// Seeded per-(rank, step, site) stream seed for noise injection: the
    /// injector feeds this to its own RNG so noise values are reproducible
    /// and independent of buffer iteration order elsewhere.
    pub fn sdc_stream_seed(&self, rank: usize, step: u64, site: SdcSite) -> u64 {
        splitmix64(
            self.seed
                ^ 0x5DC5_DC5D_C5DC_5DC5
                ^ (rank as u64).wrapping_mul(0xA24B_AED4_963E_E407)
                ^ step.wrapping_mul(0x9FB2_1C65_1E98_DF25)
                ^ ((site as u64) << 56),
        )
    }

    /// Backoff delay before retry attempt `k` (exponential, deterministic —
    /// every surviving rank computes the same value, keeping clocks aligned).
    pub fn backoff(&self, attempt: u32) -> f64 {
        self.retry_backoff * f64::from(1u32 << attempt.min(16))
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parse a CLI fault spec: semicolon-separated events, each
    /// `kind:key=value,...`.
    ///
    /// ```text
    /// slow:rank=2,x=4,from=0,until=10
    /// degrade:tier=inter,x=3,from=2,until=6
    /// flap:tier=inter,retries=2,from=3,until=4
    /// kill:rank=5,at=4
    /// join:rank=5,at=8
    /// bitflip:rank=2,at=5,site=grad,bit=30
    /// noise:rank=1,site=act,amp=0.05,from=3,until=6
    /// ```
    ///
    /// `from` defaults to 0, `until` to forever; `bit` is optional (the
    /// seed picks an exponent bit when omitted); `site` is one of
    /// `act`/`grad`/`ckpt`. Errors name the offending 1-based segment and
    /// key, e.g. `join:rank=x` in the third segment fails with
    /// "invalid rank in segment 3: cannot parse 'x'".
    pub fn parse(seed: u64, spec: &str) -> Result<Self, String> {
        let mut plan = Self::new(seed);
        for (idx, ev) in spec.split(';').enumerate() {
            let seg = idx + 1;
            let ev = ev.trim();
            if ev.is_empty() {
                continue;
            }
            let (kind, rest) = ev.split_once(':').ok_or_else(|| {
                format!("segment {seg} ('{ev}') is missing ':' between kind and fields")
            })?;
            let mut rank = None;
            let mut factor = None;
            let mut tier = None;
            let mut retries = None;
            let mut from = 0u64;
            let mut until = u64::MAX;
            let mut at = None;
            let mut site = None;
            let mut bit = None;
            let mut amp = None;
            for kv in rest.split(',').filter(|s| !s.trim().is_empty()) {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("field '{kv}' in segment {seg} is missing '='"))?;
                let (k, v) = (k.trim(), v.trim());
                match k {
                    "rank" => rank = Some(parse_num::<usize>(k, v, seg)?),
                    "x" | "factor" => factor = Some(parse_num::<f64>(k, v, seg)?),
                    "tier" => {
                        tier = Some(match v {
                            "intra" => LinkTier::Intra,
                            "inter" => LinkTier::Inter,
                            _ => {
                                return Err(format!(
                                    "invalid tier in segment {seg}: unknown link tier '{v}'"
                                ))
                            }
                        })
                    }
                    "retries" => retries = Some(parse_num::<u32>(k, v, seg)?),
                    "from" => from = parse_num::<u64>(k, v, seg)?,
                    "until" => until = parse_num::<u64>(k, v, seg)?,
                    "at" => at = Some(parse_num::<u64>(k, v, seg)?),
                    "site" => {
                        site = Some(match v {
                            "act" => SdcSite::Act,
                            "grad" => SdcSite::Grad,
                            "ckpt" => SdcSite::Ckpt,
                            _ => {
                                return Err(format!(
                                    "invalid site in segment {seg}: unknown sdc site '{v}'"
                                ))
                            }
                        })
                    }
                    "bit" => {
                        let b = parse_num::<u32>(k, v, seg)?;
                        if b >= 32 {
                            return Err(format!(
                                "invalid bit in segment {seg}: index '{v}' out of range (0..32)"
                            ));
                        }
                        bit = Some(b);
                    }
                    "amp" => amp = Some(parse_num::<f64>(k, v, seg)?),
                    _ => return Err(format!("unknown field '{k}' in segment {seg}")),
                }
            }
            fn need<T>(field: Option<T>, kind: &str, name: &str, seg: usize) -> Result<T, String> {
                field.ok_or_else(|| format!("{kind} event in segment {seg} needs '{name}='"))
            }
            plan = match kind {
                "slow" => {
                    let r = need(rank, kind, "rank", seg)?;
                    let f = need(factor, kind, "x", seg)?;
                    plan.slow(r, f, from, until)
                }
                "degrade" => {
                    let t = need(tier, kind, "tier", seg)?;
                    let f = need(factor, kind, "x", seg)?;
                    plan.degrade(t, f, from, until)
                }
                "flap" => {
                    let t = need(tier, kind, "tier", seg)?;
                    let r = need(retries, kind, "retries", seg)?;
                    plan.flap(t, r, from, until)
                }
                "kill" => {
                    let r = need(rank, kind, "rank", seg)?;
                    let a = need(at, kind, "at", seg)?;
                    plan.kill(r, a)
                }
                "join" => {
                    let r = need(rank, kind, "rank", seg)?;
                    let a = need(at, kind, "at", seg)?;
                    plan.join(r, a)
                }
                "bitflip" => {
                    let r = need(rank, kind, "rank", seg)?;
                    let a = need(at, kind, "at", seg)?;
                    let s = need(site, kind, "site", seg)?;
                    plan.bitflip(r, a, s, bit)
                }
                "noise" => {
                    let r = need(rank, kind, "rank", seg)?;
                    let s = need(site, kind, "site", seg)?;
                    let amp = need(amp, kind, "amp", seg)?;
                    plan.noise(r, s, amp, from, until)
                }
                _ => return Err(format!("unknown fault kind '{kind}' in segment {seg}")),
            };
        }
        Ok(plan)
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, v: &str, seg: usize) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("invalid {key} in segment {seg}: cannot parse '{v}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_applies_only_in_window() {
        let p = FaultPlan::new(1).slow(2, 4.0, 3, 6);
        assert_eq!(p.slowdown(2, 2), 1.0);
        assert_eq!(p.slowdown(2, 3), 4.0);
        assert_eq!(p.slowdown(2, 5), 4.0);
        assert_eq!(p.slowdown(2, 6), 1.0);
        assert_eq!(p.slowdown(1, 4), 1.0);
    }

    #[test]
    fn overlapping_slowdowns_compose() {
        let p = FaultPlan::new(1).slow(0, 2.0, 0, 10).slow(0, 3.0, 5, 10);
        assert_eq!(p.slowdown(0, 2), 2.0);
        assert_eq!(p.slowdown(0, 7), 6.0);
    }

    #[test]
    fn link_tiers_cover_the_right_classes() {
        assert!(LinkTier::Intra.covers(LinkClass::IntraNode));
        assert!(!LinkTier::Intra.covers(LinkClass::InterNode));
        assert!(LinkTier::Inter.covers(LinkClass::InterNode));
        assert!(LinkTier::Inter.covers(LinkClass::CrossRack));
        assert!(!LinkTier::Inter.covers(LinkClass::IntraNode));
    }

    #[test]
    fn degrade_and_flap_queries() {
        let p =
            FaultPlan::new(7)
                .degrade(LinkTier::Inter, 3.0, 2, 6)
                .flap(LinkTier::Inter, 2, 3, 4);
        assert_eq!(p.link_multiplier(LinkClass::InterNode, 1), 1.0);
        assert_eq!(p.link_multiplier(LinkClass::InterNode, 2), 3.0);
        assert_eq!(p.link_multiplier(LinkClass::CrossRack, 5), 3.0);
        assert_eq!(p.link_multiplier(LinkClass::IntraNode, 3), 1.0);
        assert_eq!(p.link_multiplier(LinkClass::Local, 3), 1.0);
        assert_eq!(p.flap_retries(LinkClass::InterNode, 3), 2);
        assert_eq!(p.flap_retries(LinkClass::InterNode, 4), 0);
        assert_eq!(p.flap_retries(LinkClass::IntraNode, 3), 0);
    }

    #[test]
    fn death_is_permanent() {
        let p = FaultPlan::new(1).kill(5, 4);
        assert!(!p.is_dead(5, 3));
        assert!(p.is_dead(5, 4));
        assert!(p.is_dead(5, 100));
        assert!(!p.is_dead(4, 100));
        assert_eq!(p.dies_at(5), Some(4));
        assert_eq!(p.dies_at(0), None);
        assert_eq!(p.dead_ranks(4), vec![5]);
        assert!(p.dead_ranks(3).is_empty());
        assert_eq!(p.first_failure(), Some(4));
    }

    #[test]
    fn join_revives_a_killed_rank() {
        let p = FaultPlan::new(1).kill(2, 3).join(2, 6);
        assert!(!p.is_dead(2, 2));
        assert!(p.is_dead(2, 3));
        assert!(p.is_dead(2, 5));
        assert!(!p.is_dead(2, 6));
        assert!(!p.is_dead(2, 100));
        assert!(p.is_present(2, 2));
        assert!(!p.is_present(2, 4));
        assert!(p.is_present(2, 6));
        assert_eq!(p.dead_ranks(4), vec![2]);
        assert!(p.dead_ranks(6).is_empty());
        assert_eq!(p.joins_of(2), vec![6]);
        assert_eq!(p.joining_at(6), vec![2]);
        assert!(p.joining_at(5).is_empty());
        assert_eq!(p.join_steps(), vec![6]);
        // A second kill after the revival takes effect again.
        let q = p.clone().kill(2, 9);
        assert!(!q.is_dead(2, 8));
        assert!(q.is_dead(2, 9));
        // A kill and join at the same step resolve to dead.
        let tie = FaultPlan::new(1).kill(0, 4).join(0, 4);
        assert!(tie.is_dead(0, 4));
    }

    #[test]
    fn fresh_joiner_is_absent_until_its_join_step() {
        let p = FaultPlan::new(1).join(4, 5);
        assert!(!p.is_dead(4, 0));
        assert!(!p.is_present(4, 0));
        assert!(!p.is_present(4, 4));
        assert!(p.is_present(4, 5));
        assert!(p.is_present(3, 0));
        assert!(p.dead_ranks(0).is_empty());
    }

    #[test]
    fn backoff_is_exponential() {
        let p = FaultPlan::new(1).with_retry_backoff(1e-3);
        assert!((p.backoff(0) - 1e-3).abs() < 1e-15);
        assert!((p.backoff(1) - 2e-3).abs() < 1e-15);
        assert!((p.backoff(3) - 8e-3).abs() < 1e-15);
    }

    #[test]
    fn spec_string_round_trips_the_readme_example() {
        let p = FaultPlan::parse(
            9,
            "slow:rank=2,x=4,from=0,until=10;degrade:tier=inter,x=3,from=2,until=6;\
             flap:tier=inter,retries=2,from=3,until=4;kill:rank=5,at=4",
        )
        .unwrap();
        assert_eq!(p.events.len(), 4);
        assert_eq!(p.slowdown(2, 1), 4.0);
        assert_eq!(p.link_multiplier(LinkClass::InterNode, 4), 3.0);
        assert_eq!(p.flap_retries(LinkClass::CrossRack, 3), 2);
        assert_eq!(p.dies_at(5), Some(4));
    }

    #[test]
    fn bitflip_fires_once_and_is_deterministic() {
        let p = FaultPlan::new(42).bitflip(2, 5, SdcSite::Grad, Some(30));
        assert!(p.bitflips(2, 4, SdcSite::Grad).is_empty());
        assert!(p.bitflips(2, 6, SdcSite::Grad).is_empty());
        assert!(p.bitflips(1, 5, SdcSite::Grad).is_empty());
        assert!(p.bitflips(2, 5, SdcSite::Act).is_empty());
        let hits = p.bitflips(2, 5, SdcSite::Grad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].bit, 30);
        // Same plan, same query -> same element choice, twice over.
        assert_eq!(
            hits[0].element(1000),
            p.bitflips(2, 5, SdcSite::Grad)[0].element(1000)
        );
        assert!(hits[0].element(7) < 7);
        assert_eq!(hits[0].element(0), 0);
        assert!(p.has_sdc());
        assert!(!FaultPlan::new(42).kill(0, 3).has_sdc());
        assert_eq!(p.first_sdc_at(2), Some(5));
        assert_eq!(p.first_sdc_at(0), None);
        assert_eq!(p.last_sdc_at_or_before(4), None);
        assert_eq!(p.last_sdc_at_or_before(9), Some(5));
    }

    #[test]
    fn derived_bit_lands_in_exponent_region() {
        for seed in 0..32u64 {
            let p = FaultPlan::new(seed).bitflip(0, 1, SdcSite::Act, None);
            let b = p.bitflips(0, 1, SdcSite::Act)[0].bit;
            assert!(
                (23..31).contains(&b),
                "derived bit {b} outside exponent region"
            );
        }
    }

    #[test]
    fn noise_window_and_amplitude_compose() {
        let p =
            FaultPlan::new(3)
                .noise(1, SdcSite::Act, 0.05, 3, 6)
                .noise(1, SdcSite::Act, 0.01, 5, 8);
        assert_eq!(p.noise_amp(1, 2, SdcSite::Act), 0.0);
        assert_eq!(p.noise_amp(1, 3, SdcSite::Act), 0.05);
        assert!((p.noise_amp(1, 5, SdcSite::Act) - 0.06).abs() < 1e-12);
        assert_eq!(p.noise_amp(1, 7, SdcSite::Act), 0.01);
        assert_eq!(p.noise_amp(1, 8, SdcSite::Act), 0.0);
        assert_eq!(p.noise_amp(0, 4, SdcSite::Act), 0.0);
        assert_eq!(p.noise_amp(1, 4, SdcSite::Grad), 0.0);
        // Stream seeds differ across (rank, step, site) but replay identically.
        assert_eq!(
            p.sdc_stream_seed(1, 4, SdcSite::Act),
            p.sdc_stream_seed(1, 4, SdcSite::Act)
        );
        assert_ne!(
            p.sdc_stream_seed(1, 4, SdcSite::Act),
            p.sdc_stream_seed(1, 5, SdcSite::Act)
        );
    }

    #[test]
    fn sdc_spec_strings_parse() {
        let p = FaultPlan::parse(
            11,
            "bitflip:rank=2,at=5,site=grad,bit=30;noise:rank=1,site=act,amp=0.05,from=3,until=6",
        )
        .unwrap();
        assert_eq!(p.events.len(), 2);
        let hits = p.bitflips(2, 5, SdcSite::Grad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].bit, 30);
        assert_eq!(p.noise_amp(1, 4, SdcSite::Act), 0.05);
        // bit defaults to a seeded exponent bit when omitted.
        let q = FaultPlan::parse(11, "bitflip:rank=0,at=1,site=ckpt").unwrap();
        assert!((23..31).contains(&q.bitflips(0, 1, SdcSite::Ckpt)[0].bit));
        assert!(FaultPlan::parse(0, "bitflip:rank=0,at=1").is_err());
        assert!(FaultPlan::parse(0, "bitflip:rank=0,at=1,site=weights").is_err());
        assert!(FaultPlan::parse(0, "bitflip:rank=0,at=1,site=grad,bit=32").is_err());
        assert!(FaultPlan::parse(0, "noise:rank=0,site=act").is_err());
    }

    #[test]
    fn spec_defaults_and_errors() {
        let p = FaultPlan::parse(0, "slow:rank=0,x=2").unwrap();
        assert_eq!(p.slowdown(0, 0), 2.0);
        assert_eq!(p.slowdown(0, u64::MAX - 1), 2.0);
        assert!(FaultPlan::parse(0, "slow:rank=0").is_err());
        assert!(FaultPlan::parse(0, "explode:rank=0").is_err());
        assert!(FaultPlan::parse(0, "kill:rank=zero,at=1").is_err());
        assert!(FaultPlan::parse(0, "degrade:tier=quantum,x=2").is_err());
        assert!(FaultPlan::parse(0, "").unwrap().is_empty());
    }

    #[test]
    fn join_spec_strings_parse() {
        let p = FaultPlan::parse(3, "kill:rank=3,at=2;join:rank=3,at=5").unwrap();
        assert!(p.is_dead(3, 3));
        assert!(!p.is_dead(3, 5));
        assert_eq!(p.joining_at(5), vec![3]);
        assert!(FaultPlan::parse(0, "join:rank=1").is_err());
        assert!(FaultPlan::parse(0, "join:at=4").is_err());
    }

    #[test]
    fn parse_errors_name_segment_and_key() {
        let e =
            FaultPlan::parse(0, "kill:rank=0,at=1;slow:rank=1,x=2;join:rank=x,at=4").unwrap_err();
        assert!(e.contains("invalid rank in segment 3"), "got: {e}");
        assert!(e.contains("'x'"), "got: {e}");

        let e = FaultPlan::parse(0, "kill:rank=0,at=oops").unwrap_err();
        assert!(e.contains("invalid at in segment 1"), "got: {e}");

        let e = FaultPlan::parse(0, "slow:rank=0,x=2;degrade:tier=quantum,x=2").unwrap_err();
        assert!(e.contains("invalid tier in segment 2"), "got: {e}");

        let e = FaultPlan::parse(0, "explode:rank=0").unwrap_err();
        assert!(
            e.contains("unknown fault kind 'explode' in segment 1"),
            "got: {e}"
        );

        let e = FaultPlan::parse(0, "kill:rank=0,at=1;noise:rank=0,site=act").unwrap_err();
        assert!(e.contains("segment 2"), "got: {e}");
        assert!(e.contains("'amp='"), "got: {e}");

        let e = FaultPlan::parse(0, "kill:rank=0,at=1;kill rank 2").unwrap_err();
        assert!(e.contains("segment 2"), "got: {e}");

        let e = FaultPlan::parse(0, "bitflip:rank=0,at=1,site=grad,bit=40").unwrap_err();
        assert!(e.contains("invalid bit in segment 1"), "got: {e}");

        let e = FaultPlan::parse(0, "slow:rank=0,x=2,wat=3").unwrap_err();
        assert!(e.contains("unknown field 'wat' in segment 1"), "got: {e}");
    }
}
