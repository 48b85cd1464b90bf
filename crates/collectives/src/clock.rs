//! Per-rank simulated time with complete, span-level accounting.
//!
//! Compute stages charge analytic kernel times; collectives charge cost-model
//! times (see [`crate::Communicator`]). Every second the clock advances is
//! recorded as a [`Span`] — productive work, straggler sync-wait, or a
//! fault-retry attempt — so the named stage buckets plus their `sync_wait:`
//! and `fault_retry:` companions always sum exactly to [`SimClock::now`].
//! The stage names reproduce the paper's breakdowns (Fig 11: gating / buffer
//! dispatch / dispatch all-to-all / expert / combine all-to-all / buffer
//! combine; Fig 12: RBD stage split).
//!
//! # Attribution model
//!
//! Collectives do not know which pipeline stage they serve, so they record
//! *pending* time (tagged with the collective op name as a fallback label).
//! The call site then claims everything pending with
//! [`commit`](SimClock::commit), which drains it into the stage's bucket —
//! transfer time under the stage label, straggler-wait time under
//! `sync_wait:<stage>`, failed-attempt time under `fault_retry:<stage>`.
//! Pending time never silently disappears: a [`charge`](SimClock::charge) or
//! [`flush`](SimClock::flush) first drains any leftovers under their fallback
//! labels. This replaces the old `bucket_last` pattern, which attributed only
//! the final `advance` delta and dropped sync-wait (and any earlier unclaimed
//! advance) on the floor.
//!
//! # Overlap regions
//!
//! A pipelined schedule (chunked dispatch all-to-all overlapped with expert
//! GEMMs) advances communication and computation *concurrently*. Inside an
//! overlap region ([`begin_overlap`](SimClock::begin_overlap) ..
//! [`end_overlap`](SimClock::end_overlap)) the clock keeps one cursor per
//! named track ([`set_track`](SimClock::set_track)); every advance lands on
//! the active track, and closing the region jumps the wall clock to the max
//! over tracks. Cross-track dependencies ("this GEMM needs chunk *i*'s data")
//! are expressed by `advance_to_op` against the other track's time
//! ([`track_time`](SimClock::track_time)), which records honest sync-wait on
//! the waiting track.
//!
//! This extends the serial span-exactness invariant: *within each track* the
//! spans sum exactly to the track's elapsed time, and the region's wall-clock
//! advance equals the max over tracks. Bucket totals keep accumulating the
//! full per-track durations — total *work* — so inside overlap regions the
//! bucket sum exceeds the wall-clock advance by exactly the hidden
//! (overlapped) time.

use xmoe_tensor::untracked;

use crate::trace::Span;

/// What a slice of simulated time was spent on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Productive transfer/compute time.
    Work,
    /// Straggler sync-wait at a collective rendezvous.
    Wait,
    /// A failed collective attempt plus its backoff (transient link fault).
    Retry,
}

/// One not-yet-committed slice of time, labeled with the fallback name of
/// whatever advanced the clock (a collective op, or "unattributed").
#[derive(Clone, Debug)]
struct Pending {
    fallback: String,
    start: f64,
    dur: f64,
    kind: Kind,
    /// Overlap track the slice was recorded on (`None` outside regions).
    track: Option<String>,
}

/// An open overlap region: independent per-track cursors that start at the
/// region's opening time and are joined (max) when the region closes.
#[derive(Clone, Debug)]
struct Overlap {
    /// Wall-clock time the region opened; every track starts here.
    t0: f64,
    /// `(name, absolute cursor)` per track, in creation order.
    tracks: Vec<(String, f64)>,
    /// Which track new time lands on.
    active: usize,
}

/// Simulated wall-clock of one rank, in seconds.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now: f64,
    spans: Vec<Span>,
    pending: Vec<Pending>,
    buckets: Vec<(String, f64)>,
    overlap: Option<Overlap>,
}

impl SimClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds. Inside an overlap region this is
    /// the *active track's* cursor (the time the next advance starts at).
    pub fn now(&self) -> f64 {
        match &self.overlap {
            Some(o) => o.tracks.get(o.active).map_or(o.t0, |(_, t)| *t),
            None => self.now,
        }
    }

    /// The current cursor plus the track tag it belongs to, lazily creating
    /// a default track when an overlap region is advanced before any
    /// [`set_track`](Self::set_track).
    fn cursor(&mut self) -> (f64, Option<String>) {
        // Track labels are trace telemetry; their strings don't count
        // against the hot-path allocation gate.
        untracked(|| match &mut self.overlap {
            Some(o) => {
                if o.tracks.is_empty() {
                    o.tracks.push(("main".to_string(), o.t0));
                    o.active = 0;
                }
                let (name, t) = &o.tracks[o.active];
                (*t, Some(name.clone()))
            }
            None => (self.now, None),
        })
    }

    fn set_cursor(&mut self, t: f64) {
        match &mut self.overlap {
            Some(o) => o.tracks[o.active].1 = t,
            None => self.now = t,
        }
    }

    /// Open an overlap region. Pending time is flushed first (it belongs to
    /// the serial prefix); regions do not nest.
    pub fn begin_overlap(&mut self, _region: &str) {
        assert!(self.overlap.is_none(), "overlap regions do not nest");
        self.flush();
        self.overlap = Some(Overlap {
            t0: self.now,
            tracks: Vec::new(),
            active: 0,
        });
    }

    /// Select (creating on first use) the track subsequent advances land on.
    /// New tracks start at the region's opening time.
    pub fn set_track(&mut self, name: &str) {
        untracked(|| {
            let o = self
                .overlap
                .as_mut()
                .expect("set_track outside an overlap region");
            match o.tracks.iter().position(|(n, _)| n == name) {
                Some(i) => o.active = i,
                None => {
                    o.tracks.push((name.to_string(), o.t0));
                    o.active = o.tracks.len() - 1;
                }
            }
        })
    }

    /// Absolute cursor of a named track in the open region, if it exists.
    /// Used to express cross-track dependencies (a compute chunk waiting on
    /// its dispatch chunk's arrival time).
    pub fn track_time(&self, name: &str) -> Option<f64> {
        self.overlap
            .as_ref()
            .and_then(|o| o.tracks.iter().find(|(n, _)| n == name).map(|(_, t)| *t))
    }

    /// Close the open region: flush pending track time, jump the wall clock
    /// to the max over tracks, and return the region's wall-clock duration.
    pub fn end_overlap(&mut self) -> f64 {
        let o = self
            .overlap
            .take()
            .expect("end_overlap without begin_overlap");
        // Pendings carry their own track tags, so flushing after the take
        // still attributes them to the right track.
        self.flush();
        let wall = o.tracks.iter().fold(o.t0, |m, &(_, t)| m.max(t));
        self.now = wall;
        wall - o.t0
    }

    /// Advance by `dt` seconds of work (`dt >= 0`), attribution deferred to
    /// the next [`commit`](Self::commit) (or fallback-labeled on flush).
    pub fn advance(&mut self, dt: f64) {
        self.advance_op("unattributed", dt);
    }

    /// Jump to an absolute time not before the current one; the gap is
    /// recorded as pending sync-wait. Used by collectives to synchronize to
    /// the group max before charging transfer time.
    pub fn advance_to(&mut self, t: f64) {
        self.advance_to_op("unattributed", t);
    }

    /// [`advance`](Self::advance) with an explicit fallback label (the
    /// collective op name, e.g. `"all_to_all"`).
    pub fn advance_op(&mut self, op: &str, dt: f64) {
        self.push_pending(op, dt, Kind::Work);
    }

    /// Advance by `dt` seconds of *failed-attempt* time: a collective try
    /// that a transient link fault killed, plus its backoff. Committed under
    /// `fault_retry:<stage>` instead of the stage's work bucket.
    pub fn advance_retry_op(&mut self, op: &str, dt: f64) {
        self.push_pending(op, dt, Kind::Retry);
    }

    fn push_pending(&mut self, op: &str, dt: f64, kind: Kind) {
        debug_assert!(dt >= 0.0, "negative time step {dt}");
        let (start, track) = self.cursor();
        if dt > 0.0 {
            // Span bookkeeping is simulator telemetry (a real CUPTI span
            // does not malloc on the training hot path): record it under
            // the untracked counter, not the gated one.
            untracked(|| {
                self.pending.push(Pending {
                    fallback: op.to_string(),
                    start,
                    dur: dt,
                    kind,
                    track,
                });
            });
        }
        self.set_cursor(start + dt);
    }

    /// [`advance_to`](Self::advance_to) with an explicit fallback label.
    pub fn advance_to_op(&mut self, op: &str, t: f64) {
        let (cur, track) = self.cursor();
        if t > cur {
            untracked(|| {
                self.pending.push(Pending {
                    fallback: op.to_string(),
                    start: cur,
                    dur: t - cur,
                    kind: Kind::Wait,
                    track,
                });
            });
            self.set_cursor(t);
        }
    }

    /// Advance by `dt` and attribute it to `label` immediately. Any pending
    /// collective time is flushed first (under its fallback labels) so spans
    /// stay chronological.
    pub fn charge(&mut self, label: &str, dt: f64) {
        self.flush();
        debug_assert!(dt >= 0.0, "negative time step {dt}");
        let (start, track) = self.cursor();
        self.set_cursor(start + dt);
        self.record(label, start, dt, Kind::Work, track);
    }

    /// Claim all pending time for `label`: transfer/work slices land in the
    /// `label` bucket, sync-wait slices in `sync_wait:<label>`, retry slices
    /// in `fault_retry:<label>`. Returns the total duration committed. This
    /// is the span-complete replacement for the old `bucket_last`.
    pub fn commit(&mut self, label: &str) -> f64 {
        let drained = std::mem::take(&mut self.pending);
        let mut total = 0.0;
        for p in drained {
            total += p.dur;
            self.record(label, p.start, p.dur, p.kind, p.track);
        }
        total
    }

    /// Drain pending time under the fallback labels recorded by whoever
    /// advanced the clock. Call before reading buckets/spans when the last
    /// collective was not followed by a [`commit`](Self::commit).
    pub fn flush(&mut self) {
        let drained = std::mem::take(&mut self.pending);
        for p in drained {
            let label = p.fallback.clone();
            self.record(&label, p.start, p.dur, p.kind, p.track);
        }
    }

    /// Position marker into the pending queue, for collectives that build on
    /// other collectives (see [`pending_work_since`](Self::pending_work_since)).
    pub fn mark(&self) -> usize {
        self.pending.len()
    }

    /// Total productive work time recorded since `mark` (sync-wait and retry
    /// attempts excluded). Lets a composite collective price itself as
    /// `max(own_cost, inner_cost)` without guessing which advance was the
    /// inner one.
    pub fn pending_work_since(&self, mark: usize) -> f64 {
        self.pending[mark.min(self.pending.len())..]
            .iter()
            .filter(|p| p.kind == Kind::Work)
            .map(|p| p.dur)
            .sum()
    }

    /// Rewrite the fallback label of everything pending since `mark` (a
    /// composite collective claiming its inner collectives' time).
    pub fn relabel_pending_since(&mut self, mark: usize, op: &str) {
        untracked(|| {
            let lo = mark.min(self.pending.len());
            for p in &mut self.pending[lo..] {
                p.fallback = op.to_string();
            }
        })
    }

    fn record(&mut self, label: &str, start: f64, dur: f64, kind: Kind, track: Option<String>) {
        untracked(|| {
            match kind {
                Kind::Work => self.attribute(label, dur),
                Kind::Wait => self.attribute(&format!("sync_wait:{label}"), dur),
                Kind::Retry => self.attribute(&format!("fault_retry:{label}"), dur),
            }
            self.spans.push(Span {
                label: label.to_string(),
                start,
                dur,
                wait: kind == Kind::Wait,
                retry: kind == Kind::Retry,
                track,
            });
        })
    }

    fn attribute(&mut self, label: &str, dt: f64) {
        if let Some(entry) = self.buckets.iter_mut().find(|(l, _)| l == label) {
            entry.1 += dt;
        } else {
            self.buckets.push((label.to_string(), dt));
        }
    }

    /// Accumulated time in `label`'s bucket (wait buckets are named
    /// `sync_wait:<label>`, retry buckets `fault_retry:<label>`).
    pub fn bucket(&self, label: &str) -> f64 {
        self.buckets
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0.0, |(_, t)| *t)
    }

    /// All buckets in first-charge order. Excludes still-pending time; call
    /// [`flush`](Self::flush) first for a complete view.
    pub fn buckets(&self) -> &[(String, f64)] {
        &self.buckets
    }

    /// All committed spans in chronological order (per track; tracks of one
    /// overlap region interleave by commit order).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Clear buckets and spans but keep the current time (per-step
    /// breakdowns). Pending time is flushed first so it is not lost.
    pub fn reset_buckets(&mut self) {
        self.flush();
        self.buckets.clear();
        self.spans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut c = SimClock::new();
        c.advance(1.5);
        c.advance(0.5);
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let mut c = SimClock::new();
        c.advance(5.0);
        c.advance_to(3.0);
        assert_eq!(c.now(), 5.0);
        c.advance_to(7.0);
        assert_eq!(c.now(), 7.0);
    }

    #[test]
    fn buckets_accumulate_by_label() {
        let mut c = SimClock::new();
        c.charge("a2a", 1.0);
        c.charge("gemm", 2.0);
        c.charge("a2a", 0.5);
        assert_eq!(c.bucket("a2a"), 1.5);
        assert_eq!(c.bucket("gemm"), 2.0);
        assert_eq!(c.bucket("missing"), 0.0);
        assert_eq!(c.now(), 3.5);
    }

    #[test]
    fn commit_claims_work_and_wait_separately() {
        let mut c = SimClock::new();
        c.advance_to_op("all_to_all", 0.25); // straggler wait
        c.advance_op("all_to_all", 0.75); // transfer
        let total = c.commit("dispatch_a2a");
        assert_eq!(total, 1.0);
        assert_eq!(c.bucket("dispatch_a2a"), 0.75);
        assert_eq!(c.bucket("sync_wait:dispatch_a2a"), 0.25);
        assert_eq!(c.spans().len(), 2);
        assert!(c.spans()[0].wait && !c.spans()[1].wait);
    }

    #[test]
    fn retry_time_lands_in_its_own_bucket() {
        let mut c = SimClock::new();
        c.advance_retry_op("all_to_all", 0.3); // failed attempt + backoff
        c.advance_op("all_to_all", 0.5); // successful transfer
        c.commit("dispatch_a2a");
        assert_eq!(c.bucket("fault_retry:dispatch_a2a"), 0.3);
        assert_eq!(c.bucket("dispatch_a2a"), 0.5);
        assert!(c.spans()[0].retry && !c.spans()[0].wait);
        assert!(!c.spans()[1].retry);
        let sum: f64 = c.spans().iter().map(|s| s.dur).sum();
        assert!((sum - c.now()).abs() < 1e-12);
    }

    #[test]
    fn retry_is_not_counted_as_composite_work() {
        let mut c = SimClock::new();
        let m = c.mark();
        c.advance_retry_op("all_gather", 0.4);
        c.advance_op("all_gather", 0.3);
        assert!((c.pending_work_since(m) - 0.3).abs() < 1e-12);
        c.relabel_pending_since(m, "all_reduce");
        c.flush();
        assert_eq!(c.bucket("fault_retry:all_reduce"), 0.4);
        assert_eq!(c.bucket("all_reduce"), 0.3);
    }

    #[test]
    fn flush_uses_fallback_labels() {
        let mut c = SimClock::new();
        c.advance_op("all_gather", 0.5);
        c.advance_to_op("all_gather", 0.8);
        c.charge("expert", 1.0); // implicit flush
        assert_eq!(c.bucket("all_gather"), 0.5);
        assert!((c.bucket("sync_wait:all_gather") - 0.3).abs() < 1e-12);
        assert_eq!(c.bucket("expert"), 1.0);
    }

    #[test]
    fn spans_sum_to_now_after_flush() {
        let mut c = SimClock::new();
        c.charge("gating", 0.1);
        c.advance_to_op("all_to_all", 0.3);
        c.advance_op("all_to_all", 0.2);
        c.commit("dispatch_a2a");
        c.advance_op("split", 0.05);
        c.flush();
        let sum: f64 = c.spans().iter().map(|s| s.dur).sum();
        assert!((sum - c.now()).abs() < 1e-12);
        let bsum: f64 = c.buckets().iter().map(|(_, t)| t).sum();
        assert!((bsum - c.now()).abs() < 1e-12);
    }

    #[test]
    fn composite_marks_measure_inner_work() {
        let mut c = SimClock::new();
        let m = c.mark();
        c.advance_to_op("all_gather", 0.4); // wait: not counted as work
        c.advance_op("all_gather", 0.3);
        assert!((c.pending_work_since(m) - 0.3).abs() < 1e-12);
        c.relabel_pending_since(m, "all_reduce");
        c.flush();
        assert_eq!(c.bucket("all_reduce"), 0.3);
        assert_eq!(c.bucket("sync_wait:all_reduce"), 0.4);
        assert_eq!(c.bucket("all_gather"), 0.0);
    }

    #[test]
    fn reset_buckets_keeps_time() {
        let mut c = SimClock::new();
        c.charge("x", 1.0);
        c.reset_buckets();
        assert_eq!(c.now(), 1.0);
        assert!(c.buckets().is_empty());
        assert!(c.spans().is_empty());
    }

    #[test]
    fn overlap_wall_is_max_over_tracks() {
        let mut c = SimClock::new();
        c.charge("gating", 1.0);
        c.begin_overlap("dispatch_compute");
        c.set_track("comm");
        c.advance_op("all_to_all", 0.4);
        c.commit("dispatch_a2a");
        c.set_track("compute");
        c.charge("expert", 0.7);
        c.set_track("comm");
        c.advance_op("all_to_all", 0.1);
        c.commit("combine_a2a");
        let wall = c.end_overlap();
        // comm track elapsed 0.5, compute track 0.7 → region wall = 0.7.
        assert!((wall - 0.7).abs() < 1e-12);
        assert!((c.now() - 1.7).abs() < 1e-12);
        // Buckets keep the full per-track work: 1.0 + 0.5 + 0.7 = 2.2.
        let bsum: f64 = c.buckets().iter().map(|(_, t)| t).sum();
        assert!((bsum - 2.2).abs() < 1e-12);
    }

    #[test]
    fn overlap_tracks_start_at_region_open_and_resume_serial() {
        let mut c = SimClock::new();
        c.charge("a", 2.0);
        c.begin_overlap("r");
        c.set_track("x");
        assert_eq!(c.now(), 2.0);
        c.charge("wx", 1.0);
        c.set_track("y");
        assert_eq!(c.now(), 2.0); // new track starts at t0, not at x's cursor
        c.charge("wy", 0.25);
        c.end_overlap();
        assert!((c.now() - 3.0).abs() < 1e-12);
        c.charge("b", 1.0);
        assert!((c.now() - 4.0).abs() < 1e-12);
        // Serial spans are trackless; overlapped ones carry their track.
        assert_eq!(c.spans()[0].track, None);
        assert_eq!(c.spans()[1].track.as_deref(), Some("x"));
        assert_eq!(c.spans()[2].track.as_deref(), Some("y"));
        assert_eq!(c.spans()[3].track, None);
    }

    #[test]
    fn cross_track_dependency_records_wait_on_waiting_track() {
        let mut c = SimClock::new();
        c.begin_overlap("r");
        c.set_track("comm");
        c.advance_op("all_to_all", 0.5);
        c.commit("dispatch_a2a");
        c.set_track("compute");
        let ready = c.track_time("comm").unwrap();
        c.advance_to_op("expert", ready);
        c.charge("expert", 0.2);
        let wall = c.end_overlap();
        assert!((wall - 0.7).abs() < 1e-12);
        assert!((c.bucket("sync_wait:expert") - 0.5).abs() < 1e-12);
        // Per-track exactness: each track's spans sum to its elapsed time.
        let track_sum = |name: &str| -> f64 {
            c.spans()
                .iter()
                .filter(|s| s.track.as_deref() == Some(name))
                .map(|s| s.dur)
                .sum()
        };
        assert!((track_sum("comm") - 0.5).abs() < 1e-12);
        assert!((track_sum("compute") - 0.7).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "overlap regions do not nest")]
    fn overlap_regions_do_not_nest() {
        let mut c = SimClock::new();
        c.begin_overlap("a");
        c.begin_overlap("b");
    }
}
