//! Continuous-batching scheduler (Orca-style iteration-level scheduling).
//!
//! Requests move `Queued → Prefill → Decode → Finished`, with two exits:
//! `Rejected` (deadline passed while still queued, or queue overflow) and a
//! bounce back to `Queued` on preemption. Every step the scheduler
//! re-plans the batch from whatever is resident: each decoding request
//! contributes one token, and leftover token budget is filled with prefill
//! chunks — so short decodes never wait behind long prompts.
//!
//! Admission is capacity-aware through the [`KvLedger`]: a request enters
//! prefill only once its *full* projected KV footprint is reserved on its
//! home rank (admitted ⇒ can finish). Preemption is deadline-driven: when
//! a queued request is at risk and its home rank is KV-full, the resident
//! decode with the most slack is evicted (recompute-style: its KV is
//! dropped and its prefix re-prefilled later), provided its own slack
//! survives the round trip.

use crate::error::ServeError;
use crate::kv::KvLedger;
use crate::traffic::RequestSpec;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqState {
    Queued,
    Prefill,
    Decode,
    Finished,
    Rejected,
}

/// One request's full lifecycle record.
#[derive(Clone, Debug)]
pub struct Request {
    pub id: u64,
    pub arrival_s: f64,
    pub prompt: usize,
    pub output: usize,
    pub topic: usize,
    pub deadline_s: f64,
    pub home_rank: usize,
    pub state: ReqState,
    /// Prefilled tokens toward [`prefill_target`](Self::prefill_target).
    pub prefill_done: usize,
    /// Output tokens emitted so far (survives preemption — committed
    /// output is never un-said, its KV is just recomputed).
    pub emitted: usize,
    /// Live KV tokens on the home rank.
    pub kv_tokens: u64,
    pub finish_s: f64,
    pub preemptions: u32,
}

impl Request {
    pub fn new(spec: &RequestSpec, home_rank: usize, deadline_s: f64) -> Self {
        Self {
            id: spec.id,
            arrival_s: spec.arrival_s,
            prompt: spec.prompt,
            output: spec.output,
            topic: spec.topic,
            deadline_s,
            home_rank,
            state: ReqState::Queued,
            prefill_done: 0,
            emitted: 0,
            kv_tokens: 0,
            finish_s: f64::NAN,
            preemptions: 0,
        }
    }

    /// Worst-case KV tokens this request can occupy (reserved up front).
    pub fn projected_kv(&self) -> u64 {
        (self.prompt + self.output) as u64
    }

    /// Tokens prefill must process: the prompt, plus any previously
    /// emitted prefix being recomputed after a preemption.
    pub fn prefill_target(&self) -> usize {
        self.prompt + self.emitted
    }

    /// Output tokens still to generate.
    pub fn remaining_output(&self) -> usize {
        self.output - self.emitted
    }

    pub fn is_terminal(&self) -> bool {
        matches!(self.state, ReqState::Finished | ReqState::Rejected)
    }

    /// Finished after its deadline, or never served at all.
    pub fn missed_deadline(&self) -> bool {
        match self.state {
            ReqState::Finished => self.finish_s > self.deadline_s,
            ReqState::Rejected => true,
            _ => false,
        }
    }
}

/// One request's share of a step batch.
#[derive(Clone, Copy, Debug)]
pub struct BatchEntry {
    /// Index into [`Scheduler::requests`].
    pub req: usize,
    /// Tokens this request contributes to the step.
    pub tokens: usize,
    /// Decode step (one token) vs prefill chunk.
    pub decode: bool,
}

/// The scheduler: owns every request record plus the resident/queued sets.
pub struct Scheduler {
    pub requests: Vec<Request>,
    /// Queued request indices, arrival order.
    queue: Vec<usize>,
    /// Resident (Prefill/Decode) indices, admission order.
    running: Vec<usize>,
    /// Per-step token budget across all resident requests.
    pub max_batch_tokens: usize,
    /// Max prompt tokens one request prefills per step.
    pub prefill_chunk: usize,
    pub preemptions: u64,
}

impl Scheduler {
    /// A zero token budget or a zero prefill chunk would make every step
    /// plan empty batches (or divide by zero in chunk counts), so both are
    /// rejected up front instead of asserted — `--max-batch-tokens 0` is
    /// one CLI flag away.
    pub fn new(max_batch_tokens: usize, prefill_chunk: usize) -> Result<Self, ServeError> {
        if max_batch_tokens < 1 || prefill_chunk < 1 {
            return Err(ServeError::config(format!(
                "batch budget and prefill chunk must both be >= 1 token, \
                 got max_batch_tokens {max_batch_tokens} prefill_chunk {prefill_chunk}"
            )));
        }
        Ok(Self {
            requests: Vec::new(),
            queue: Vec::new(),
            running: Vec::new(),
            max_batch_tokens,
            prefill_chunk,
            preemptions: 0,
        })
    }

    /// Hand a newly arrived request to the scheduler.
    pub fn push(&mut self, req: Request) {
        let idx = self.requests.len();
        self.requests.push(req);
        self.queue.push(idx);
    }

    pub fn resident(&self) -> &[usize] {
        &self.running
    }

    pub fn all_done(&self) -> bool {
        self.queue.is_empty() && self.running.is_empty()
    }

    /// Admit queued requests whose projected KV fits their home rank, in
    /// arrival order with skip-ahead (a small request may pass a blocked
    /// large one). Requests whose deadline already passed are rejected.
    pub fn admit(&mut self, now: f64, ledger: &mut KvLedger) {
        let mut still_queued = Vec::with_capacity(self.queue.len());
        for &idx in &self.queue {
            let r = &mut self.requests[idx];
            if now > r.deadline_s {
                r.state = ReqState::Rejected;
                r.finish_s = now;
                continue;
            }
            if ledger.try_reserve(r.home_rank, r.projected_kv()) {
                r.state = ReqState::Prefill;
                self.running.push(idx);
            } else {
                still_queued.push(idx);
            }
        }
        self.queue = still_queued;
    }

    /// Preempt at most one resident decode to rescue a deadline-at-risk
    /// queued request on a KV-full home rank. `est_service(r)` is the
    /// engine's estimate of the seconds request `r` still needs. The
    /// victim is the same-rank decode with the most slack, and only if its
    /// slack exceeds the rescued request's remaining service time (so the
    /// rescue doesn't just trade one miss for another). Returns the victim
    /// index if a preemption happened.
    pub fn preempt_for_deadline(
        &mut self,
        now: f64,
        ledger: &mut KvLedger,
        est_service: &dyn Fn(&Request) -> f64,
    ) -> Option<usize> {
        // First queued request that is at risk but not yet hopeless.
        let rescue = self.queue.iter().copied().find(|&i| {
            let r = &self.requests[i];
            let need = est_service(r);
            now + need > r.deadline_s && now <= r.deadline_s
        })?;
        let rank = self.requests[rescue].home_rank;
        let need = est_service(&self.requests[rescue]);
        // Most-slack decode on the same rank; ties break on lowest id via
        // the stable admission order scan.
        let mut victim: Option<(f64, usize, usize)> = None; // (slack, pos, idx)
        for (pos, &i) in self.running.iter().enumerate() {
            let r = &self.requests[i];
            if r.home_rank != rank || r.state != ReqState::Decode {
                continue;
            }
            let slack = r.deadline_s - now - est_service(r);
            if slack > need && victim.as_ref().is_none_or(|&(s, _, _)| slack > s) {
                victim = Some((slack, pos, i));
            }
        }
        let (_, pos, idx) = victim?;
        self.running.remove(pos);
        let r = &mut self.requests[idx];
        ledger.release(r.home_rank, r.projected_kv(), r.kv_tokens);
        r.kv_tokens = 0;
        r.prefill_done = 0;
        r.preemptions += 1;
        r.state = ReqState::Queued;
        self.preemptions += 1;
        // Re-queue at the back: the victim must not outrank the at-risk
        // request it was just evicted for (the queue is otherwise
        // arrival-ordered).
        self.queue.push(idx);
        Some(idx)
    }

    /// Plan the next step's batch: every decode contributes one token,
    /// remaining budget is filled with prefill chunks in admission order.
    pub fn plan(&self, out: &mut Vec<BatchEntry>) -> usize {
        out.clear();
        let mut budget = self.max_batch_tokens;
        for &i in &self.running {
            if budget == 0 {
                break;
            }
            if self.requests[i].state == ReqState::Decode {
                out.push(BatchEntry {
                    req: i,
                    tokens: 1,
                    decode: true,
                });
                budget -= 1;
            }
        }
        for &i in &self.running {
            if budget == 0 {
                break;
            }
            let r = &self.requests[i];
            if r.state == ReqState::Prefill {
                let want = (r.prefill_target() - r.prefill_done).min(self.prefill_chunk);
                let take = want.min(budget);
                if take > 0 {
                    out.push(BatchEntry {
                        req: i,
                        tokens: take,
                        decode: false,
                    });
                    budget -= take;
                }
            }
        }
        self.max_batch_tokens - budget
    }

    /// Commit a priced step: advance progress, grow KV, finish requests.
    /// `now` is the simulation time *after* the step.
    pub fn apply(&mut self, plan: &[BatchEntry], now: f64, ledger: &mut KvLedger) {
        for e in plan {
            let r = &mut self.requests[e.req];
            ledger.grow(r.home_rank, e.tokens as u64);
            r.kv_tokens += e.tokens as u64;
            if e.decode {
                r.emitted += 1;
                if r.emitted == r.output {
                    r.state = ReqState::Finished;
                    r.finish_s = now;
                    ledger.release(r.home_rank, r.projected_kv(), r.kv_tokens);
                    r.kv_tokens = 0;
                }
            } else {
                r.prefill_done += e.tokens;
                if r.prefill_done >= r.prefill_target() {
                    r.state = ReqState::Decode;
                }
            }
        }
        self.running.retain(|&i| !self.requests[i].is_terminal());
    }

    /// Recompute per-rank reserved/live KV tokens from the request table
    /// (the analytic side of the ledger cross-check).
    pub fn recount_kv(&self, n_ranks: usize) -> (Vec<u64>, Vec<u64>) {
        let mut reserved = vec![0u64; n_ranks];
        let mut live = vec![0u64; n_ranks];
        for r in &self.requests {
            if matches!(r.state, ReqState::Prefill | ReqState::Decode) {
                reserved[r.home_rank] += r.projected_kv();
                live[r.home_rank] += r.kv_tokens;
            }
        }
        (reserved, live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::RequestSpec;

    fn spec(id: u64, arrival: f64, prompt: usize, output: usize) -> RequestSpec {
        RequestSpec {
            id,
            arrival_s: arrival,
            prompt,
            output,
            topic: 0,
        }
    }

    fn ledger(tokens_per_rank: u64) -> KvLedger {
        KvLedger::new(2, tokens_per_rank * 8, 8)
    }

    #[test]
    fn lifecycle_prefill_then_decode_then_finish() {
        let mut s = Scheduler::new(64, 16).unwrap();
        let mut l = ledger(1000);
        s.push(Request::new(&spec(0, 0.0, 20, 3), 0, 100.0));
        s.admit(0.0, &mut l);
        assert_eq!(s.requests[0].state, ReqState::Prefill);
        let mut plan = Vec::new();
        // Prefill takes two steps (16 + 4), then 3 decode steps.
        for step in 0..5 {
            let tokens = s.plan(&mut plan);
            assert!(tokens > 0, "step {step} must schedule work");
            s.apply(&plan.clone(), step as f64, &mut l);
        }
        assert_eq!(s.requests[0].state, ReqState::Finished);
        assert!(s.all_done());
        assert_eq!(l.live_bytes(0), 0);
        assert_eq!(l.reserved_bytes(0), 0);
        let (res, live) = s.recount_kv(2);
        assert!(l.cross_check(&res, &live));
    }

    #[test]
    fn admission_skips_ahead_but_respects_capacity() {
        let mut s = Scheduler::new(64, 16).unwrap();
        let mut l = ledger(100);
        s.push(Request::new(&spec(0, 0.0, 80, 10), 0, 100.0)); // fits (90)
        s.push(Request::new(&spec(1, 0.0, 80, 10), 0, 100.0)); // blocked
        s.push(Request::new(&spec(2, 0.0, 4, 2), 0, 100.0)); // slips ahead
        s.admit(0.0, &mut l);
        assert_eq!(s.requests[0].state, ReqState::Prefill);
        assert_eq!(s.requests[1].state, ReqState::Queued);
        assert_eq!(s.requests[2].state, ReqState::Prefill);
    }

    #[test]
    fn expired_queued_requests_are_rejected() {
        let mut s = Scheduler::new(64, 16).unwrap();
        let mut l = ledger(10);
        s.push(Request::new(&spec(0, 0.0, 8, 2), 0, 1.0));
        s.push(Request::new(&spec(1, 0.0, 8, 2), 0, 1.0)); // blocked by 0
        s.admit(0.0, &mut l);
        assert_eq!(s.requests[1].state, ReqState::Queued);
        s.admit(2.0, &mut l); // past both deadlines; 1 still queued
        assert_eq!(s.requests[1].state, ReqState::Rejected);
        assert!(s.requests[1].missed_deadline());
    }

    #[test]
    fn decode_tokens_preempt_long_slack_victims() {
        let mut s = Scheduler::new(64, 64).unwrap();
        let mut l = ledger(100);
        // Victim: loose deadline, resident and decoding.
        s.push(Request::new(&spec(0, 0.0, 60, 20), 0, 1000.0));
        s.admit(0.0, &mut l);
        let mut plan = Vec::new();
        s.plan(&mut plan);
        s.apply(&plan.clone(), 0.1, &mut l); // prefill done -> Decode
        assert_eq!(s.requests[0].state, ReqState::Decode);
        // Rescue: tight deadline, blocked on KV.
        s.push(Request::new(&spec(1, 0.1, 30, 5), 0, 1.0));
        s.admit(0.1, &mut l);
        assert_eq!(s.requests[1].state, ReqState::Queued);
        let est = |r: &Request| {
            0.01 * (r.prefill_target() - r.prefill_done + r.remaining_output()) as f64
        };
        // At t=0.5 the rescue still has slack (0.5 + 0.35 < 1.0): no-op.
        assert_eq!(s.preempt_for_deadline(0.5, &mut l, &est), None);
        // At t=0.8 it is at risk (0.8 + 0.35 > 1.0): evict the loose decode.
        let victim = s.preempt_for_deadline(0.8, &mut l, &est);
        assert_eq!(victim, Some(0));
        assert_eq!(s.requests[0].state, ReqState::Queued);
        assert_eq!(s.requests[0].preemptions, 1);
        assert_eq!(s.requests[0].kv_tokens, 0);
        // The freed space admits the tight request.
        s.admit(0.8, &mut l);
        assert_eq!(s.requests[1].state, ReqState::Prefill);
        let (res, live) = s.recount_kv(2);
        assert!(l.cross_check(&res, &live));
    }

    /// Regression: pre-fix these were `assert!`s a CLI flag could trip.
    #[test]
    fn degenerate_budgets_are_errors_not_panics() {
        assert!(Scheduler::new(0, 16).is_err());
        assert!(Scheduler::new(64, 0).is_err());
        assert!(Scheduler::new(0, 0).is_err());
        assert!(Scheduler::new(1, 1).is_ok());
    }

    #[test]
    fn preempted_requests_recompute_their_prefix() {
        let r = Request {
            emitted: 7,
            ..Request::new(&spec(0, 0.0, 30, 20), 0, 10.0)
        };
        assert_eq!(r.prefill_target(), 37, "prompt + committed prefix");
        assert_eq!(r.remaining_output(), 13);
        assert_eq!(r.projected_kv(), 50);
    }
}
