//! Observability layer over the simulated cluster: per-rank span traces,
//! cross-rank step reports, and exporters (Chrome trace-event JSON for
//! Perfetto, plus a span CSV).
//!
//! The span model guarantees *complete* attribution: [`SimClock`] records
//! every advance as either a work span or a sync-wait span, so for any rank
//! the span durations (equivalently, the stage buckets plus their
//! `sync_wait:` companions) sum exactly to `clock.now()`. See the module
//! docs on [`crate::clock`] for how call sites claim collective time.

use std::fmt::Write as _;
use std::path::Path;

use crate::{SimClock, TrafficStats};

/// One attributed slice of simulated time on one rank.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Stage (or fallback op) label, without the `sync_wait:` prefix.
    pub label: String,
    /// Start time in simulated seconds.
    pub start: f64,
    /// Duration in simulated seconds.
    pub dur: f64,
    /// True if this span is straggler sync-wait rather than productive work.
    pub wait: bool,
    /// True if this span is a failed collective attempt (plus backoff)
    /// caused by a transient link fault.
    pub retry: bool,
    /// Overlap track the span was recorded on (`None` for serial spans).
    /// Within one track, spans are back-to-back; tracks of the same overlap
    /// region run concurrently, so their spans share wall-clock time.
    pub track: Option<String>,
}

impl Span {
    /// The bucket key this span accumulates into (`sync_wait:<label>` for
    /// wait spans, `fault_retry:<label>` for retry spans).
    pub fn bucket_name(&self) -> String {
        if self.retry {
            format!("fault_retry:{}", self.label)
        } else if self.wait {
            format!("sync_wait:{}", self.label)
        } else {
            self.label.clone()
        }
    }
}

/// Everything one rank recorded during a step: its spans, final clock, and
/// the byte counts it pushed through the communicator, by link class.
#[derive(Clone, Debug, Default)]
pub struct RankTrace {
    pub rank: usize,
    pub spans: Vec<Span>,
    /// The rank's `clock.now()` at capture time.
    pub end: f64,
    pub traffic: TrafficStats,
}

impl RankTrace {
    /// Snapshot a rank's clock (flushing any pending collective time so the
    /// trace is complete) joined with its traffic counters.
    pub fn capture(rank: usize, clock: &mut SimClock, traffic: TrafficStats) -> Self {
        clock.flush();
        Self {
            rank,
            spans: clock.spans().to_vec(),
            end: clock.now(),
            traffic,
        }
    }

    /// Sum of all span durations. Equals [`end`](Self::end) minus whatever
    /// time predates the trace (zero when the clock started at zero and was
    /// never `reset_buckets`) — for serial runs. With overlap regions the
    /// sum counts the full per-track work, exceeding `end` by exactly the
    /// time hidden behind another track.
    pub fn total(&self) -> f64 {
        self.spans.iter().map(|s| s.dur).sum()
    }

    /// Per-bucket totals in first-appearance order (wait buckets prefixed
    /// `sync_wait:`).
    pub fn bucket_totals(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for s in &self.spans {
            let key = s.bucket_name();
            match out.iter_mut().find(|(l, _)| *l == key) {
                Some(e) => e.1 += s.dur,
                None => out.push((key, s.dur)),
            }
        }
        out
    }
}

/// Cross-rank statistics for one stage bucket.
#[derive(Clone, Debug)]
pub struct StageStat {
    pub label: String,
    pub min: f64,
    pub mean: f64,
    pub max: f64,
    /// Rank holding the max (the stage's straggler).
    pub straggler: usize,
}

impl StageStat {
    /// Max-over-mean load imbalance (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        if self.mean > 0.0 {
            self.max / self.mean
        } else {
            1.0
        }
    }
}

/// What an elastic-recovery episode cost, reported by a run that survived a
/// rank failure.
#[derive(Clone, Debug, Default)]
pub struct RecoveryStats {
    /// Global ranks declared dead.
    pub failed_ranks: Vec<usize>,
    /// Training step at which the failure was detected.
    pub failed_at_step: u64,
    /// Step of the checkpoint the survivors resumed from.
    pub resumed_from_step: u64,
    /// Steps whose work was lost and re-executed (0 when the failure landed
    /// exactly on a checkpoint boundary).
    pub steps_replayed: u64,
    /// Simulated seconds spent noticing the dead peers (`fault_detect`).
    pub detect_time: f64,
    /// Simulated seconds spent re-forming communicators and reloading the
    /// checkpoint (`ckpt_restore` + `split`).
    pub restore_time: f64,
    /// Mean time to recovery: detect + restore + replayed-step time. The
    /// quantity the `bench recovery` sweep trades against checkpoint
    /// interval.
    pub mttr: f64,
    /// Steps between the (injected) silent corruption and the guard trip
    /// that caught it — 0 when caught in the same step, and for fail-stop
    /// recoveries, which are detected synchronously.
    pub detect_latency_steps: u64,
    /// Guard trips not attributable to any scheduled SDC event up to the
    /// trip step (spurious detections; must be 0 on clean runs).
    pub false_positives: u64,
    /// Steps of completed work discarded by a rollback-to-checkpoint
    /// policy action (0 for skip/backoff recoveries).
    pub steps_lost_to_rollback: u64,
}

/// Cross-rank aggregation of one step: per-stage min/mean/max and straggler
/// rank, plus step time and per-rank traffic.
#[derive(Clone, Debug, Default)]
pub struct StepReport {
    pub n_ranks: usize,
    /// Stages in first-appearance order across ranks (wait buckets included,
    /// prefixed `sync_wait:`; retry buckets prefixed `fault_retry:`).
    pub stages: Vec<StageStat>,
    /// Max `end` clock across ranks.
    pub step_time: f64,
    /// Per-rank traffic, indexed by position in the input slice.
    pub traffic: Vec<TrafficStats>,
}

impl StepReport {
    pub fn from_ranks(traces: &[RankTrace]) -> Self {
        let n = traces.len();
        let mut labels: Vec<String> = Vec::new();
        let mut per_rank: Vec<Vec<(String, f64)>> = Vec::with_capacity(n);
        for t in traces {
            let totals = t.bucket_totals();
            for (l, _) in &totals {
                if !labels.contains(l) {
                    labels.push(l.clone());
                }
            }
            per_rank.push(totals);
        }
        let stages = labels
            .into_iter()
            .map(|label| {
                let vals: Vec<f64> = per_rank
                    .iter()
                    .map(|totals| {
                        totals
                            .iter()
                            .find(|(l, _)| *l == label)
                            .map_or(0.0, |(_, v)| *v)
                    })
                    .collect();
                let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
                let max = vals.iter().copied().fold(0.0f64, f64::max);
                let mean = vals.iter().sum::<f64>() / n.max(1) as f64;
                let straggler = vals
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map_or(0, |(i, _)| traces[i].rank);
                StageStat {
                    label,
                    min: if min.is_finite() { min } else { 0.0 },
                    mean,
                    max,
                    straggler,
                }
            })
            .collect();
        Self {
            n_ranks: n,
            stages,
            step_time: traces.iter().map(|t| t.end).fold(0.0, f64::max),
            traffic: traces.iter().map(|t| t.traffic).collect(),
        }
    }

    pub fn stage(&self, label: &str) -> Option<&StageStat> {
        self.stages.iter().find(|s| s.label == label)
    }

    /// Mean time across ranks for `label` (0 if absent).
    pub fn mean(&self, label: &str) -> f64 {
        self.stage(label).map_or(0.0, |s| s.mean)
    }

    /// Max time across ranks for `label` (0 if absent).
    pub fn max(&self, label: &str) -> f64 {
        self.stage(label).map_or(0.0, |s| s.max)
    }

    /// Sum of mean stage times over productive stages (sync-wait and
    /// fault-retry buckets excluded).
    pub fn total_mean_work(&self) -> f64 {
        self.stages
            .iter()
            .filter(|s| !s.label.starts_with("sync_wait:") && !s.label.starts_with("fault_retry:"))
            .map(|s| s.mean)
            .sum()
    }

    /// Sum of mean sync-wait times.
    pub fn total_mean_wait(&self) -> f64 {
        self.stages
            .iter()
            .filter(|s| s.label.starts_with("sync_wait:"))
            .map(|s| s.mean)
            .sum()
    }

    /// Aggregate traffic over all ranks.
    pub fn total_traffic(&self) -> TrafficStats {
        let mut t = TrafficStats::default();
        for s in &self.traffic {
            t.intra_node += s.intra_node;
            t.inter_node += s.inter_node;
            t.cross_rack += s.cross_rack;
        }
        t
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `tid` for a span on `rank`: serial (trackless) spans keep `tid = rank`;
/// overlap-track spans get a synthesized tid per (rank, track) so Perfetto
/// renders the region's concurrent tracks as separate rows under the rank.
fn chrome_tid(rank: usize, tracks: &[String], track: Option<&str>) -> usize {
    match track {
        None => rank,
        Some(name) => {
            let idx = tracks.iter().position(|t| t == name).unwrap_or(0);
            (rank + 1) * 1000 + idx
        }
    }
}

/// Distinct overlap track names of one rank, in first-appearance order.
fn rank_tracks(t: &RankTrace) -> Vec<String> {
    let mut tracks: Vec<String> = Vec::new();
    for s in &t.spans {
        if let Some(name) = &s.track {
            if !tracks.contains(name) {
                tracks.push(name.clone());
            }
        }
    }
    tracks
}

/// Render the traces as Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load). One track per rank (`tid` = rank), complete
/// events (`ph:"X"`) with microsecond timestamps, sync-wait spans in their
/// own category so they can be filtered. Spans recorded inside an overlap
/// region carry a track tag and are emitted on their own per-(rank, track)
/// tid (named `rank N [track]`), so the concurrent comm/compute timelines
/// show as separate rows.
pub fn chrome_trace(traces: &[RankTrace]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&ev);
    };
    push(
        &mut out,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"xmoe simulated cluster\"}}"
            .to_string(),
    );
    for t in traces {
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"rank {}\"}}}}",
                t.rank, t.rank
            ),
        );
        let tracks = rank_tracks(t);
        for (i, name) in tracks.iter().enumerate() {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                     \"args\":{{\"name\":\"rank {} [{}]\"}}}}",
                    (t.rank + 1) * 1000 + i,
                    t.rank,
                    json_escape(name)
                ),
            );
        }
    }
    for t in traces {
        let tracks = rank_tracks(t);
        for s in &t.spans {
            let cat = if s.retry {
                "fault_retry"
            } else if s.wait {
                "sync_wait"
            } else {
                "stage"
            };
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\
                     \"ts\":{:.6},\"dur\":{:.6},\"pid\":0,\"tid\":{}}}",
                    json_escape(&s.label),
                    cat,
                    s.start * 1e6,
                    s.dur * 1e6,
                    chrome_tid(t.rank, &tracks, s.track.as_deref())
                ),
            );
        }
        // Per-rank traffic as a counter-style instant summary.
        push(
            &mut out,
            format!(
                "{{\"name\":\"traffic_bytes\",\"cat\":\"traffic\",\"ph\":\"C\",\
                 \"ts\":{:.6},\"pid\":0,\"tid\":{},\"args\":{{\
                 \"intra_node\":{},\"inter_node\":{},\"cross_rack\":{}}}}}",
                t.end * 1e6,
                t.rank,
                t.traffic.intra_node,
                t.traffic.inter_node,
                t.traffic.cross_rack
            ),
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Render the traces as flat CSV: `rank,label,kind,start_s,dur_s,track`
/// (the `track` field is empty for serial spans).
pub fn spans_csv(traces: &[RankTrace]) -> String {
    let mut out = String::from("rank,label,kind,start_s,dur_s,track\n");
    for t in traces {
        for s in &t.spans {
            let kind = if s.retry {
                "retry"
            } else if s.wait {
                "sync_wait"
            } else {
                "work"
            };
            let _ = writeln!(
                out,
                "{},{},{},{:.9},{:.9},{}",
                t.rank,
                s.label,
                kind,
                s.start,
                s.dur,
                s.track.as_deref().unwrap_or("")
            );
        }
    }
    out
}

/// Write a Chrome trace to `path`.
pub fn write_chrome_trace(path: &Path, traces: &[RankTrace]) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace(traces))
}

/// Write the span CSV to `path`.
pub fn write_spans_csv(path: &Path, traces: &[RankTrace]) -> std::io::Result<()> {
    std::fs::write(path, spans_csv(traces))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace(rank: usize, skew: f64) -> RankTrace {
        let mut c = SimClock::new();
        c.charge("gating", 0.1 + skew);
        c.advance_to_op("all_to_all", c.now() + 0.05);
        c.advance_op("all_to_all", 0.2);
        c.commit("dispatch_a2a");
        c.charge("expert", 0.4);
        RankTrace::capture(
            rank,
            &mut c,
            TrafficStats {
                intra_node: 100,
                inter_node: 50,
                cross_rack: 0,
            },
        )
    }

    #[test]
    fn rank_trace_total_matches_clock() {
        let t = demo_trace(0, 0.0);
        assert!((t.total() - t.end).abs() < 1e-12);
    }

    #[test]
    fn step_report_finds_straggler() {
        let traces = vec![demo_trace(0, 0.0), demo_trace(1, 0.3), demo_trace(2, 0.1)];
        let r = StepReport::from_ranks(&traces);
        let g = r.stage("gating").unwrap();
        assert_eq!(g.straggler, 1);
        assert!((g.max - 0.4).abs() < 1e-12);
        assert!((g.min - 0.1).abs() < 1e-12);
        assert!(r.stage("sync_wait:dispatch_a2a").is_some());
        assert_eq!(r.total_traffic().intra_node, 300);
    }

    #[test]
    fn chrome_trace_has_rank_tracks_and_categories() {
        let traces = vec![demo_trace(0, 0.0), demo_trace(1, 0.2)];
        let json = chrome_trace(&traces);
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"rank 1\""));
        assert!(json.contains("\"cat\":\"sync_wait\""));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn chrome_trace_renders_overlap_tracks_separately() {
        let mut c = SimClock::new();
        c.begin_overlap("dispatch_compute");
        c.set_track("comm");
        c.advance_op("all_to_all", 0.2);
        c.commit("dispatch_a2a");
        c.set_track("compute");
        c.charge("expert", 0.3);
        c.end_overlap();
        let t = RankTrace::capture(3, &mut c, TrafficStats::default());
        let json = chrome_trace(&[t]);
        assert!(json.contains("\"name\":\"rank 3 [comm]\""));
        assert!(json.contains("\"name\":\"rank 3 [compute]\""));
        assert!(json.contains("\"tid\":4000"));
        assert!(json.contains("\"tid\":4001"));
    }

    #[test]
    fn csv_lists_every_span() {
        let traces = vec![demo_trace(0, 0.0)];
        let csv = spans_csv(&traces);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + traces[0].spans.len());
        assert!(lines[1].starts_with("0,gating,work,"));
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }
}
