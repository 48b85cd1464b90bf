//! Span recorder of the traced run.
//!
//! The harness wraps each call into a layer in a span `{name, start_ns,
//! end_ns, parent, unit}`. Each thread (the main thread, or one simulated
//! rank) owns one pre-sized [`Recorder`]; nothing is written until the run
//! ends, when the recorders are folded into per-name medians and one Chrome
//! trace-event file. A span's *self time* is its duration minus the part of
//! it covered by its direct children; the trace file carries it per event.

use std::time::Instant;

use crate::stats;

/// One timed call. Times are nanoseconds since the run's shared epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same recorder) of the span that was open when this one
    /// began — the span that caused it.
    pub parent: Option<u32>,
    /// The unit (step / group of forwards / trace repeat) the span belongs
    /// to; spans of one unit share it.
    pub unit: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span buffer. Pre-sized: once `cap` spans are recorded further
/// spans are counted in [`Recorder::dropped`] instead of growing the buffer
/// inside a timed unit.
pub struct Recorder {
    /// Chrome-trace thread id (simulated rank, or 0 for the main thread).
    pub tid: u32,
    /// Off: [`Recorder::scope`] only calls through (the untraced units).
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    unit: u32,
    pub dropped: u64,
}

impl Recorder {
    pub fn new(tid: u32, epoch: Instant, cap: usize) -> Self {
        Self {
            tid,
            enabled: true,
            epoch,
            spans: Vec::with_capacity(cap),
            open: Vec::with_capacity(16),
            unit: 0,
            dropped: 0,
        }
    }

    /// Spans recorded from now on belong to `unit`.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` under a span called `name`, nested in whatever span is open.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Median duration (ms) of the spans called `name`.
    pub fn median_ms(&self, name: &str) -> f64 {
        stats::median(&self.durations_ms(name))
    }
}

/// Self time (ns) of every span: duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// All recorders of one workload as Chrome trace-event JSON ("X" complete
/// events, microsecond timestamps, one `tid` per recorder; `args` carry the
/// span's id, parent, unit and self time) — loadable in Perfetto /
/// `chrome://tracing`.
pub fn chrome_trace(workload: &str, recorders: &[Recorder]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    for r in recorders {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{} thread {}\"}}}}",
                r.tid, workload, r.tid
            ),
            &mut first,
        );
        let own = self_times_ns(&r.spans);
        for (i, s) in r.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"unit\":{},\"self_us\":{:.3}}}}}",
                    r.tid,
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns() as f64 / 1e3,
                    i,
                    parent,
                    s.unit,
                    own[i] as f64 / 1e3
                ),
                &mut first,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // step [0,100] { fwd [10,60] { gemm [20,50] }, sync [60,90] }
        let spans = [
            span("step", 0, 100, None),
            span("fwd", 10, 60, Some(0)),
            span("gemm", 20, 50, Some(1)),
            span("sync", 60, 90, Some(0)),
        ];
        // step: 100 - (50 + 30) siblings; fwd: 50 - 30 nested; leaves keep all.
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![20, 20, 30, 30]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_stops_at_capacity() {
        let mut r = Recorder::new(3, Instant::now(), 3);
        r.set_unit(7);
        r.scope("outer", |r| {
            r.scope("inner", |_| ());
            r.scope("inner", |_| ());
            // Buffer is full: counted, not recorded.
            r.scope("inner", |_| ());
        });
        assert_eq!(r.spans().len(), 3);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.spans()[0].parent, None);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[2].parent, Some(0));
        assert!(r.spans().iter().all(|s| s.unit == 7));
        assert!(r.spans()[0].end_ns >= r.spans()[2].end_ns);
        assert_eq!(r.durations_ms("inner").len(), 2);
        assert!(r.median_ms("inner") >= 0.0 && r.median_ms("absent") == 0.0);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut r = Recorder::new(1, Instant::now(), 8);
        r.scope("a", |r| r.scope("b", |_| ()));
        let text = chrome_trace("w", &[r]);
        let v = crate::json::parse(&text).expect("chrome trace parses");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 3); // thread name + two spans
        assert_eq!(events[2].get("name").and_then(|n| n.as_str()), Some("b"));
    }
}
