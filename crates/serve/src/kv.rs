//! Per-rank KV-cache ledger.
//!
//! Admission is *reservation*-based: a request reserves its full projected
//! KV footprint (prompt + maximum output tokens) on its home rank before it
//! may enter prefill, so a request that was admitted can always finish —
//! the scheduler never deadlocks on memory mid-decode. Live bytes track the
//! tokens actually processed so far; the gap between reserved and live is
//! the headroom decode will grow into.
//!
//! Mirroring the training side's measured-vs-analytic discipline, the
//! ledger supports an exact cross-check: the engine recomputes per-rank
//! live/reserved tokens from the request table every profiling window and
//! [`KvLedger::cross_check`] verifies the incremental bookkeeping matches.

/// Per-rank KV token accounting against a fixed byte budget.
#[derive(Clone, Debug)]
pub struct KvLedger {
    bytes_per_token: u64,
    /// Token capacity per rank (budget_bytes / bytes_per_token).
    capacity_tokens: u64,
    reserved_tokens: Vec<u64>,
    live_tokens: Vec<u64>,
}

impl KvLedger {
    pub fn new(n_ranks: usize, budget_bytes_per_rank: u64, bytes_per_token: u64) -> Self {
        assert!(bytes_per_token > 0, "KV bytes/token must be positive");
        Self {
            bytes_per_token,
            capacity_tokens: budget_bytes_per_rank / bytes_per_token,
            reserved_tokens: vec![0; n_ranks],
            live_tokens: vec![0; n_ranks],
        }
    }

    pub fn n_ranks(&self) -> usize {
        self.reserved_tokens.len()
    }

    pub fn bytes_per_token(&self) -> u64 {
        self.bytes_per_token
    }

    pub fn capacity_tokens(&self) -> u64 {
        self.capacity_tokens
    }

    /// Reserve `projected` tokens on `rank` if they fit; false = caller
    /// must queue or reject.
    pub fn try_reserve(&mut self, rank: usize, projected: u64) -> bool {
        if self.reserved_tokens[rank] + projected <= self.capacity_tokens {
            self.reserved_tokens[rank] += projected;
            true
        } else {
            false
        }
    }

    /// Record `tokens` newly written to the KV cache on `rank` (prefill
    /// chunk or one decode step).
    pub fn grow(&mut self, rank: usize, tokens: u64) {
        self.live_tokens[rank] += tokens;
        debug_assert!(
            self.live_tokens[rank] <= self.reserved_tokens[rank],
            "live KV outgrew its reservation on rank {rank}"
        );
    }

    /// Release a finished or preempted request: its reservation and its
    /// currently-live tokens.
    pub fn release(&mut self, rank: usize, projected: u64, live: u64) {
        debug_assert!(self.reserved_tokens[rank] >= projected);
        debug_assert!(self.live_tokens[rank] >= live);
        self.reserved_tokens[rank] -= projected;
        self.live_tokens[rank] -= live;
    }

    pub fn live_bytes(&self, rank: usize) -> u64 {
        self.live_tokens[rank] * self.bytes_per_token
    }

    /// Exact analytic-vs-ledger cross-check: `expected_live` /
    /// `expected_reserved` are per-rank token counts recomputed from
    /// scratch (sum over resident requests). True iff the incremental
    /// bookkeeping agrees exactly — no tolerance, token counts are
    /// integers.
    pub fn cross_check(&self, expected_reserved: &[u64], expected_live: &[u64]) -> bool {
        self.reserved_tokens == expected_reserved && self.live_tokens == expected_live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_grow_release_roundtrip() {
        let mut l = KvLedger::new(2, 1000, 10); // 100 tokens/rank
        assert!(l.try_reserve(0, 60));
        assert!(l.try_reserve(0, 40));
        assert!(!l.try_reserve(0, 1), "rank 0 is exactly full");
        assert!(l.try_reserve(1, 100));
        l.grow(0, 25);
        assert_eq!(l.live_bytes(0), 250);
        assert_eq!(l.reserved_tokens[0], 100);
        l.release(0, 40, 0); // queued-then-cancelled: no live tokens yet
        l.release(0, 60, 25);
        assert_eq!(l.reserved_tokens[0], 0);
        assert_eq!(l.live_bytes(0), 0);
        assert!(l.try_reserve(0, 100));
    }

    #[test]
    fn cross_check_is_exact() {
        let mut l = KvLedger::new(2, 1000, 10);
        assert!(l.try_reserve(0, 30));
        l.grow(0, 12);
        assert!(l.cross_check(&[30, 0], &[12, 0]));
        assert!(!l.cross_check(&[30, 0], &[11, 0]));
        assert!(!l.cross_check(&[29, 0], &[12, 0]));
    }
}
