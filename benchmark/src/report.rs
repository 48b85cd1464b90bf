//! Results as data: the driver's one-line result, `results.json` and its
//! reader, the comparison behind `check` / `compare`, and the generator of
//! `BENCHMARK.json`.

use std::fmt::Write as _;

use crate::harness::Outcome;
use crate::host;
use crate::json::{self, Json};
use crate::metrics::{self, Better};

/// Measuring time of one run in `BENCHMARK.json` (and the default here).
pub const RUN_SECONDS: u64 = 10;
pub const DEFAULT_SEED: u64 = 1;

#[derive(Clone, Debug, PartialEq)]
pub struct MetricValue {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    pub metrics: Vec<MetricValue>,
}

impl WorkloadResult {
    /// Fold a workload run into its reported form: the end-to-end metrics
    /// of an untraced run, the per-layer metrics of a traced one.
    pub fn from_outcome(out: &Outcome, trace: bool) -> Self {
        let unit_of = |name: &str| {
            metrics::END_TO_END
                .iter()
                .map(|e| (e.name, e.unit))
                .chain(metrics::PER_LAYER.iter().map(|p| (p.name, p.unit)))
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| u)
        };
        let values = if trace {
            out.per_layer()
        } else {
            out.end_to_end()
        };
        let metrics: Vec<MetricValue> = values
            .into_iter()
            .map(|(name, value)| MetricValue {
                name: name.to_string(),
                value,
                unit: unit_of(name).to_string(),
            })
            .collect();
        // A non-finite or (end to end) non-positive value is a broken run.
        let sane = metrics
            .iter()
            .all(|m| m.value.is_finite() && (trace || m.value > 0.0));
        Self {
            name: out.workload.to_string(),
            correct: out.correct() && sane,
            attempted: out.attempted,
            failed: out.failed,
            checks: out
                .checks
                .iter()
                .map(|c| (c.name.clone(), c.ok, c.detail.clone()))
                .collect(),
            metrics,
        }
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(&m.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The driver contract's result object (printed as the last line).
    pub fn driver_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    /// `workload metric value unit` lines (a 0 — not applicable on this
    /// workload — is left out), then the checks.
    pub fn human(&self) -> String {
        let mut s = String::new();
        for m in self.metrics.iter().filter(|m| m.value != 0.0) {
            let _ = writeln!(s, "{} {} {} {}", self.name, m.name, m.value, m.unit);
        }
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            let _ = writeln!(s, "{} check {verdict}: {name} ({detail})", self.name);
        }
        let _ = writeln!(
            s,
            "{} ops_attempted {} ops_failed {} correct {}",
            self.name, self.attempted, self.failed, self.correct
        );
        s
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|(name, ok, detail)| {
                            Json::obj(vec![
                                ("name", Json::str(name)),
                                ("ok", Json::Bool(*ok)),
                                ("detail", Json::str(detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", self.metrics_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let text = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("results: missing string '{k}'"))
        };
        let num = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("results: missing number '{k}'"))
        };
        let flag = |v: &Json, k: &str| match v.get(k) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("results: missing flag '{k}'")),
        };
        let checks = v
            .get("checks")
            .and_then(Json::as_arr)
            .ok_or("results: missing 'checks'")?
            .iter()
            .map(|c| Ok((text(c, "name")?, flag(c, "ok")?, text(c, "detail")?)))
            .collect::<Result<_, String>>()?;
        let metrics = match v.get("metrics") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(name, m)| {
                    Ok(MetricValue {
                        name: name.clone(),
                        value: num(m, "value")?,
                        unit: text(m, "unit")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            _ => return Err("results: missing 'metrics'".to_string()),
        };
        Ok(Self {
            name: text(v, "name")?,
            correct: flag(v, "correct")?,
            attempted: num(v, "attempted")? as u64,
            failed: num(v, "failed")? as u64,
            checks,
            metrics,
        })
    }
}

/// One all-workloads run, as written to `results.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Results {
    /// `run` (untraced, end-to-end metrics) or `trace` (per-layer metrics).
    pub mode: String,
    /// False for `--smoke` runs: too short to compare with anything.
    pub comparable: bool,
    pub seed: u64,
    pub seconds: f64,
    /// nproc, worker_threads, CPU model, rustc, commit.
    pub machine: Json,
    /// 1-minute load average before and after the run.
    pub loadavg: (f64, f64),
    pub workloads: Vec<WorkloadResult>,
}

impl Results {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mode", Json::str(&self.mode)),
            ("comparable", Json::Bool(self.comparable)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("machine", self.machine.clone()),
            ("loadavg_1m_before", Json::Num(self.loadavg.0)),
            ("loadavg_1m_after", Json::Num(self.loadavg.1)),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
    }

    pub fn from_json_text(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("results: missing number '{k}'"))
        };
        Ok(Self {
            mode: v
                .get("mode")
                .and_then(Json::as_str)
                .ok_or("results: missing 'mode'")?
                .to_string(),
            comparable: matches!(v.get("comparable"), Some(Json::Bool(true))),
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            machine: v.get("machine").cloned().unwrap_or(Json::Null),
            loadavg: (num("loadavg_1m_before")?, num("loadavg_1m_after")?),
            workloads: v
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("results: missing 'workloads'")?
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn all_correct(&self) -> bool {
        self.workloads.iter().all(|w| w.correct)
    }
}

/// Run every workload once with `run_one` and stamp the machine around it.
pub fn run_all(
    mode: &str,
    comparable: bool,
    seed: u64,
    seconds: f64,
    mut run_one: impl FnMut(&str) -> Result<WorkloadResult, String>,
) -> Result<Results, String> {
    let before = host::loadavg_1m();
    let workloads = metrics::WORKLOADS
        .iter()
        .map(|(name, _)| run_one(name))
        .collect::<Result<_, _>>()?;
    Ok(Results {
        mode: mode.to_string(),
        comparable,
        seed,
        seconds,
        machine: host::machine_stamp(),
        loadavg: (before, host::loadavg_1m()),
        workloads,
    })
}

/// By how much of `a` is `b` worse, in the metric's direction (negative:
/// `b` is better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// Compare two untraced result sets metric by metric against each
/// end-to-end metric's own bound. `symmetric` fails a difference in either
/// direction (two runs of the same code); otherwise only `b` being worse
/// than `a` fails (a change against its parent). Returns the table and
/// whether every row passed.
pub fn compare(a: &Results, b: &Results, symmetric: bool) -> (String, bool) {
    let mut table = String::new();
    let mut pass = true;
    let _ = writeln!(
        table,
        "{:<18} {:<16} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            let _ = writeln!(table, "{:<18} missing from the second set  FAIL", wa.name);
            pass = false;
            continue;
        };
        for e in metrics::END_TO_END {
            let value =
                |w: &WorkloadResult| w.metrics.iter().find(|m| m.name == e.name).map(|m| m.value);
            let (Some(x), Some(y)) = (value(wa), value(wb)) else {
                let _ = writeln!(table, "{:<18} {:<16} missing  FAIL", wa.name, e.name);
                pass = false;
                continue;
            };
            let forward = worsening(x, y, e.better);
            let worst = if symmetric {
                forward.max(worsening(y, x, e.better))
            } else {
                forward
            };
            let ok = worst <= e.bound;
            pass &= ok;
            let _ = writeln!(
                table,
                "{:<18} {:<16} {:>16.6} {:>16.6} {:>+8.2}% {:>6.1}%  {}",
                wa.name,
                e.name,
                x,
                y,
                100.0 * (y - x) / x,
                100.0 * e.bound,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    (table, pass)
}

/// Compare two traced result sets on the metrics that must repeat exactly
/// ([`metrics::repeats_exactly`]). Returns one line per mismatch plus a
/// summary, and whether there was none.
pub fn compare_exact(a: &Results, b: &Results) -> (String, bool) {
    let mut table = String::new();
    let (mut compared, mut mismatches) = (0usize, 0usize);
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            let _ = writeln!(table, "{:<18} missing from the second set  FAIL", wa.name);
            mismatches += 1;
            continue;
        };
        for ma in wa
            .metrics
            .iter()
            .filter(|m| metrics::repeats_exactly(&m.name))
        {
            compared += 1;
            let vb = wb
                .metrics
                .iter()
                .find(|m| m.name == ma.name)
                .map(|m| m.value);
            if vb.map(f64::to_bits) != Some(ma.value.to_bits()) {
                mismatches += 1;
                let _ = writeln!(
                    table,
                    "{:<18} {:<40} {} != {:?}  FAIL",
                    wa.name, ma.name, ma.value, vb
                );
            }
        }
    }
    let _ = writeln!(
        table,
        "deterministic metrics: {compared} compared, {mismatches} differ  {}",
        if mismatches == 0 { "PASS" } else { "FAIL" }
    );
    (table, mismatches == 0)
}

/// `BENCHMARK.json`, generated from the tables so the two cannot drift.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                metrics::WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj(vec![("name", Json::str(name)), ("why", Json::str(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("name", Json::str(e.name)),
                            ("unit", Json::str(e.unit)),
                            ("better", Json::str(e.better.as_str())),
                            ("bound", Json::Num(e.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("name", Json::str(p.name)),
                            ("unit", Json::str(p.unit)),
                            ("better", Json::str(p.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tokens_per_s: f64) -> Results {
        let metric = |name: &str, value: f64, unit: &str| MetricValue {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        };
        Results {
            mode: "run".to_string(),
            comparable: true,
            seed: 7,
            seconds: 10.0,
            machine: Json::obj(vec![("nproc", Json::Num(2.0))]),
            loadavg: (0.25, 1.5),
            workloads: vec![WorkloadResult {
                name: "layer_fine_1r".to_string(),
                correct: true,
                attempted: 120,
                failed: 0,
                checks: vec![("finite".to_string(), true, "a \"detail\"".to_string())],
                metrics: vec![
                    metric("tokens_per_s", tokens_per_s, "tok/s"),
                    metric("peak_heap_mb", 126.364_372, "MB"),
                    metric("setup_s", 0.937_817_48, "s"),
                ],
            }],
        }
    }

    #[test]
    fn results_round_trip_through_their_own_reader() {
        let r = sample(11_097.290_432_899_123);
        let text = r.to_json().render_pretty();
        assert_eq!(Results::from_json_text(&text).unwrap(), r);
        assert!(Results::from_json_text("{\"mode\":\"run\"}").is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = sample(1.0).workloads[0].driver_line();
        assert!(!line.contains('\n'));
        let Json::Obj(pairs) = json::parse(&line).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn compare_applies_each_metric_s_own_bound_in_its_direction() {
        let a = sample(1000.0);
        // 20 % slower: inside the 25 % bound of tokens_per_s.
        assert!(compare(&a, &sample(800.0), false).1);
        // 30 % slower: outside it.
        assert!(!compare(&a, &sample(700.0), false).1);
        // 50 % faster is no regression one way, but two runs of the same
        // code must not differ that much.
        assert!(compare(&a, &sample(1500.0), false).1);
        assert!(!compare(&a, &sample(1500.0), true).1);
        // Exact comparison looks at the deterministic per-layer names only.
        let traced = |sim: f64, wall: f64| {
            let mut r = sample(1.0);
            r.workloads[0].metrics = vec![
                MetricValue {
                    name: "sim_step_ms".to_string(),
                    value: sim,
                    unit: "ms".to_string(),
                },
                MetricValue {
                    name: "core.gating.gate_ms".to_string(),
                    value: wall,
                    unit: "ms".to_string(),
                },
            ];
            r
        };
        assert!(compare_exact(&traced(0.25, 1.0), &traced(0.25, 2.0)).1);
        assert!(!compare_exact(&traced(0.25, 1.0), &traced(0.25 + 1e-16, 1.0)).1);
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.1).abs() < 1e-12);
    }
}
