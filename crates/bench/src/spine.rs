//! The bench spine: the one record format behind every `BENCH_*.json` and
//! every `bench/paper/*.json` pin, the one gate list per bench, the registry
//! of all 26 ([`ALL`]: six system benches, the paper's evaluation [`PAPER`],
//! `recovery`), and the one `--smoke | --out | --validate` driver.
//!
//! A bench is a [`Bench`]: a name, a `run` that measures and returns
//! [`Record`]s plus its *live* checks (what a file cannot re-prove: bitwise
//! identity between two runs, ledger cross-checks), and one `gates` over
//! records. [`drive`] writes the records with [`render`], reads the file
//! back with [`parse`] and gates what is on disk — so the run path and the
//! `--validate` path judge the same text with the same function, and a
//! threshold exists once.

use std::fmt;
use std::process::ExitCode;

use crate::flags::{Arity, Cmd, Flag, UsageError};
use crate::{elastic, gemm, mapping, overlap, paper, serving, stability};

/// One value in a record. The variant fixes the number text, so a file
/// parses back to exactly the records that rendered it.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    Int(u64),
    /// A float written with a fixed count (>= 1) of decimals.
    Fixed(f64, u8),
    /// A string the writer emits verbatim inside quotes; see [`tag`].
    Tag(String),
}

/// The value exactly as written to the file.
impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Int(n) => write!(f, "{n}"),
            Val::Fixed(x, p) => write!(f, "{x:.*}", *p as usize),
            Val::Tag(s) => write!(f, "\"{s}\""),
        }
    }
}

/// Assert-don't-escape: tags are emitted verbatim inside quotes, so
/// anything that would need escaping is a bug at the call site.
pub fn tag(s: &str) -> Val {
    assert!(
        s.is_ascii() && !s.contains('"') && !s.contains('\\'),
        "string needs JSON escaping: {s}"
    );
    Val::Tag(s.to_string())
}

pub fn int(n: usize) -> Val {
    Val::Int(n as u64)
}

/// A number, or `"OOM"` for a configuration that does not fit in memory.
pub fn or_oom(v: Option<f64>, decimals: u8) -> Val {
    v.map_or_else(|| tag("OOM"), |x| Val::Fixed(x, decimals))
}

/// Simulated seconds as microseconds to the picosecond: stage times span
/// 0.1 us to 0.2 s, and a gate reads at least six significant digits back.
pub fn micros(seconds: f64) -> Val {
    Val::Fixed(seconds * 1e6, 6)
}

/// A record of table `name`: experiments that print several tables keep
/// them apart by the `table` config tag.
pub fn row(name: &str) -> Record {
    Record::default().cfg("table", tag(name))
}

/// The (contiguous) records of table `name`, which must number exactly `N`
/// — a gate destructures them, so a missing row is an error, not a claim
/// that silently goes unprinted.
pub fn table<'a, const N: usize>(
    recs: &'a [Record],
    name: &str,
) -> Result<&'a [Record; N], String> {
    let is = |r: &&Record| r.tag("table") == Ok(name);
    let start = recs.iter().position(|r| is(&r)).unwrap_or(recs.len());
    let len = recs[start..].iter().take_while(is).count();
    let rows = recs[start..start + len].try_into();
    rows.map_err(|_| format!("table {name}: expected {N} records, found {len}"))
}

/// Column `key` of `recs` as numbers, in record order.
pub fn column(recs: &[Record], key: &str) -> Result<Vec<f64>, String> {
    recs.iter().map(|r| r.num(key)).collect()
}

/// One measured configuration: what was run (`config`, written as a nested
/// object) and what came out (`metrics`), both in writing order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record {
    pub config: Vec<(String, Val)>,
    pub metrics: Vec<(String, Val)>,
}

impl Record {
    pub fn cfg(mut self, key: &str, v: Val) -> Self {
        self.config.push((key.to_string(), v));
        self
    }

    pub fn metric(mut self, key: &str, v: Val) -> Self {
        self.metrics.push((key.to_string(), v));
        self
    }

    fn get(&self, key: &str) -> Result<&Val, String> {
        let mut all = self.metrics.iter().chain(&self.config);
        all.find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key}"))
    }

    /// The numeric value of `key`, from the metrics or the config.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Val::Int(n) => Ok(*n as f64),
            Val::Fixed(v, _) => Ok(*v),
            Val::Tag(_) => Err(format!("{key} is not a number")),
        }
    }

    /// Like [`Record::num`], additionally requiring a value above zero.
    pub fn positive(&self, key: &str) -> Result<f64, String> {
        let v = self.num(key)?;
        if v > 0.0 {
            Ok(v)
        } else {
            Err(format!("{key} = {v} is not positive"))
        }
    }

    /// A throughput cell: `None` where the system ran out of memory (the cell
    /// reads `"OOM"`, see [`or_oom`]); a missing cell is an error, never `None`.
    pub fn opt(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key)? {
            Val::Tag(s) if s == "OOM" => Ok(None),
            _ => self.num(key).map(Some),
        }
    }

    pub fn tag(&self, key: &str) -> Result<&str, String> {
        match self.get(key)? {
            Val::Tag(s) => Ok(s),
            _ => Err(format!("{key} is not a string")),
        }
    }

    /// The record whose `key` tag equals `value`.
    pub fn tagged<'a>(recs: &'a [Record], key: &str, value: &str) -> Result<&'a Record, String> {
        recs.iter()
            .find(|r| r.tag(key) == Ok(value))
            .ok_or_else(|| format!("missing the {key} = {value} record"))
    }

    /// Stamp the worker-pool size the numbers were measured under
    /// (`worker_threads`), plus `xmoe_threads` when the `XMOE_THREADS`
    /// override is set and valid — so a report with an odd number can be
    /// traced to an odd thread count.
    fn stamp_workers(&mut self) {
        let n = int(xmoe_tensor::worker_threads());
        self.config.push(("worker_threads".into(), n));
        let pinned = std::env::var("XMOE_THREADS").ok();
        if let Some(m) = pinned.and_then(|v| v.trim().parse::<usize>().ok()) {
            if m >= 1 {
                self.config.push(("xmoe_threads".into(), int(m.min(64))));
            }
        }
    }
}

fn render_pairs(out: &mut String, pairs: &[(String, Val)]) {
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{k}\": {v}"));
    }
}

/// Render records as a JSON array, one record per line:
/// `{"config": {..}, "metric": value, ..}`.
pub fn render(recs: &[Record]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in recs.iter().enumerate() {
        out.push_str("  {\"config\": {");
        render_pairs(&mut out, &r.config);
        out.push_str("}, ");
        render_pairs(&mut out, &r.metrics);
        out.push_str(if i + 1 < recs.len() { "},\n" } else { "}\n" });
    }
    out.push_str("]\n");
    out
}

/// Print records as one table: the config keys whose value varies across
/// the records, then every metric (`-` where a record lacks it), each value
/// as written to the file.
pub fn print_records(title: &str, recs: &[Record]) {
    let mut keys: Vec<&str> = Vec::new();
    for r in recs {
        let varying = r.config.iter().filter(|(k, v)| {
            let differs = |o: &Record| o.get(k).ok() != Some(v);
            recs.iter().any(differs)
        });
        for (k, _) in varying.chain(&r.metrics) {
            if !keys.contains(&k.as_str()) {
                keys.push(k);
            }
        }
    }
    let cell = |r: &Record, key: &str| match r.get(key) {
        Ok(v) => v.to_string().trim_matches('"').to_string(),
        Err(_) => "-".to_string(),
    };
    let rows: Vec<Vec<String>> = recs
        .iter()
        .map(|r| keys.iter().map(|k| cell(r, k)).collect())
        .collect();
    crate::print_table(title, &keys, &rows);
}

struct Cursor<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a str {
        &self.text[self.at..]
    }

    fn skip_ws(&mut self) {
        self.at += self.rest().len() - self.rest().trim_start().len();
    }

    /// Consume `c` (after whitespace) if it is next.
    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        let hit = self.rest().starts_with(c);
        if hit {
            self.at += c.len_utf8();
        }
        hit
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.eat(c) {
            return Ok(());
        }
        let found: String = self.rest().chars().take(12).collect();
        Err(format!(
            "expected '{c}' at byte {}, found '{found}'",
            self.at
        ))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let end = self.rest().find('"').ok_or("unterminated string")?;
        let s = &self.rest()[..end];
        if s.contains('\\') {
            return Err(format!("escape sequence in string '{s}'"));
        }
        self.at += end + 1;
        Ok(s.to_string())
    }

    fn value(&mut self, key: &str) -> Result<Val, String> {
        self.skip_ws();
        if self.rest().starts_with('"') {
            return self.string().map(Val::Tag);
        }
        let end = self.rest().find([',', '}', ']']).unwrap_or(0);
        let token = self.rest()[..end].trim_end();
        self.at += token.len();
        if let Ok(n) = token.parse::<u64>() {
            return Ok(Val::Int(n));
        }
        let decimals = token.split_once('.').map_or(0, |(_, frac)| frac.len());
        match token.parse::<f64>() {
            Ok(x) if !x.is_finite() => Err(format!("non-finite number {token} for {key}")),
            Ok(x) if (1..=17).contains(&decimals) => Ok(Val::Fixed(x, decimals as u8)),
            _ => Err(format!("bad number '{token}' for {key}")),
        }
    }

    /// `"key": value` pairs up to the closing brace; `nested` is called for
    /// a value that opens an object.
    fn pairs(
        &mut self,
        mut nested: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<Vec<(String, Val)>, String> {
        let mut out = Vec::new();
        loop {
            let key = self.string()?;
            self.expect(':')?;
            if self.eat('{') {
                nested(self, &key)?;
            } else {
                let v = self.value(&key)?;
                out.push((key, v));
            }
            if !self.eat(',') {
                self.expect('}')?;
                return Ok(out);
            }
        }
    }

    fn record(&mut self) -> Result<Record, String> {
        let mut config = None;
        let metrics = self.pairs(|c, key| {
            if key != "config" || config.is_some() {
                return Err(format!("unexpected nested object {key}"));
            }
            config = Some(c.pairs(|_, k| Err(format!("nested object config.{k}")))?);
            Ok(())
        })?;
        let config = config.ok_or("record lacks a config object")?;
        Ok(Record { config, metrics })
    }
}

/// Parse what [`render`] writes (whitespace between tokens is free): a
/// non-empty array of flat records, each with one nested `config` object.
pub fn parse(text: &str) -> Result<Vec<Record>, String> {
    let mut c = Cursor { text, at: 0 };
    c.expect('[')?;
    let mut recs = Vec::new();
    while c.eat('{') {
        let rec = c.record();
        recs.push(rec.map_err(|e| format!("record {}: {e}", recs.len()))?);
        if !c.eat(',') {
            break;
        }
    }
    c.expect(']')?;
    c.skip_ws();
    if !c.rest().is_empty() {
        return Err(format!("trailing garbage after the array at byte {}", c.at));
    }
    if recs.is_empty() {
        return Err("no records".into());
    }
    Ok(recs)
}

/// One claim and whether the numbers bear it out. A `documented` claim is a
/// known deviation from the paper (EXPERIMENTS.md says why): it is expected
/// to fail, and starting to hold is as much a finding as any other claim
/// failing.
#[derive(Clone, Debug)]
pub struct Check {
    pub claim: String,
    pub ok: bool,
    pub detail: String,
    pub documented: bool,
}

impl Check {
    pub fn new(claim: &str, ok: bool, detail: String) -> Self {
        Check {
            claim: claim.to_string(),
            ok,
            detail,
            documented: false,
        }
    }
}

/// The `[shape]` line of a claim — the only place one is formatted.
impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let status = match (self.ok, self.documented) {
            (true, false) => "PASS",
            (false, false) => "DEVIATION",
            (false, true) => "DEVIATION (documented)",
            (true, true) => "PASS (but documented as a deviation)",
        };
        write!(f, "[shape] {status}: {} ({})", self.claim, self.detail)
    }
}

/// Run `f` over every record; an error names the record it came from.
pub fn each(
    recs: &[Record],
    mut f: impl FnMut(&Record) -> Result<(), String>,
) -> Result<(), String> {
    let mut indexed = recs.iter().enumerate();
    indexed.try_for_each(|(i, r)| f(r).map_err(|e| format!("record {i}: {e}")))
}

/// What a run hands the driver: its records and its live checks.
pub type Outcome = (Vec<Record>, Vec<Check>);

pub struct Bench {
    /// `xmoe-cli bench <name>`; the default output is `BENCH_<name>.json`.
    pub name: &'static str,
    /// What it reproduces or measures: the header `bench paper` prints.
    pub title: &'static str,
    /// Measure. Returns the records and the live checks. Paper experiments
    /// have one size and ignore `smoke`.
    pub run: fn(smoke: bool) -> Outcome,
    /// Judge records, freshly measured or read back from a file alike.
    /// `Err` is a malformed or self-inconsistent record; the checks are
    /// the bench's claims.
    pub gates: fn(&[Record]) -> Result<Vec<Check>, String>,
}

/// Declare the enclosing module's `pub const BENCH` from its `run` and
/// `gates`; `$name` is the module's own name, which is how [`registry`]
/// finds it again.
macro_rules! bench {
    ($name:ident, $title:literal) => {
        pub const BENCH: $crate::spine::Bench = $crate::spine::Bench {
            name: stringify!($name),
            title: $title,
            run,
            gates,
        };
    };
}
pub(crate) use bench;

/// The registry, from module names: a bench's name is its module's, so the
/// usage line is the same token list that builds the tables.
macro_rules! registry {
    ([$($system:ident)*] [$($paper:ident)*] $last:ident) => {
        /// The paper's evaluation in paper order: §3 motivation, §5 Figs
        /// 9-15 / Tables 4-5, appendix Figs 17-20 and C.1, then the
        /// ablations.
        pub const PAPER: [&Bench; 19] = [$(&paper::$paper::BENCH),*];

        /// Every bench: the six system benches, [`PAPER`], `recovery`.
        pub const ALL: [&Bench; 26] = [
            $(&$system::BENCH,)*
            $(&paper::$paper::BENCH,)*
            &paper::$last::BENCH,
        ];

        const NAMES: &str = concat!(
            "<",
            $(stringify!($system), "|",)*
            $(stringify!($paper), "|",)*
            stringify!($last),
            "|paper>"
        );
    };
}

registry!(
    [mapping elastic overlap stability serving gemm]
    [
        fig03_memory fig04_redundancy fig09_main fig10_scaling fig11_breakdown fig12_rbd
        tab04_activation_memory fig13_ssmb_memory fig14_ssmb_vs_ckpt tab05_a100 fig15_loss
        fig17_ssmb_vs_ted fig18_alltoall_scale fig20_depth_topk appc_placement ablation_pilot
        ablation_capacity ablation_skew ablation_blocksparse
    ]
    recovery
);

pub static CMD: Cmd = Cmd {
    name: "bench",
    positionals: NAMES,
    flags: &[
        Flag {
            name: "--smoke",
            arity: Arity::Switch,
            doc:
                "shorten the sweep and the timed loops (the CI subset; paper entries have one size)",
        },
        Flag {
            name: "--out",
            arity: Arity::Value("<path>"),
            doc: "write the records here instead of BENCH_<name>.json",
        },
        Flag {
            name: "--validate",
            arity: Arity::Value("<path>"),
            doc: "re-gate an existing file instead of measuring",
        },
    ],
};

/// Parse `text` and gate it: the claims, or why the file is unusable.
pub fn judge(bench: &Bench, text: &str) -> Result<Vec<Check>, String> {
    let recs = parse(text)?;
    for (i, r) in recs.iter().enumerate() {
        let threads = r.num("worker_threads");
        if !threads.is_ok_and(|t| t.fract() == 0.0 && (1.0..=64.0).contains(&t)) {
            return Err(format!("record {i}: no worker_threads stamp in 1..=64"));
        }
    }
    (bench.gates)(&recs)
}

/// `Err` with every failed claim, if any failed: an undocumented claim that
/// does not hold, or a documented deviation that no longer deviates.
pub fn verdict(checks: &[Check]) -> Result<(), String> {
    let failed: Vec<String> = checks
        .iter()
        .filter(|c| c.ok == c.documented)
        .map(|c| format!("{} ({})", c.claim, c.detail))
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("claim violated: {}", failed.join("; ")))
    }
}

/// Gate the file at `path` — the text on disk, not values in memory — on
/// top of a run's `live` checks (none when validating); prints every claim
/// and returns the `OK` summary.
fn gate_file(bench: &Bench, path: &str, mut checks: Vec<Check>) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let gated = judge(bench, &text);
    checks.extend(gated.iter().flatten().cloned());
    checks.iter().for_each(|c| println!("{c}"));
    gated?;
    verdict(&checks)?;
    let documented = checks.iter().filter(|c| c.documented).count();
    let mut summary = format!("{} claims hold", checks.len() - documented);
    if documented > 0 {
        summary.push_str(&format!(", {documented} documented deviation"));
    }
    Ok(summary)
}

/// Run `bench` and render its stamped records — the text [`drive`] writes
/// and [`judge`] reads back — plus the run's live checks.
pub fn measure(bench: &Bench, smoke: bool) -> (String, Vec<Check>) {
    let (mut recs, live) = (bench.run)(smoke);
    recs.iter_mut().for_each(Record::stamp_workers);
    (render(&recs), live)
}

/// Measure (unless validating), then gate what is on disk at `path`;
/// whether the file is valid.
fn drive_one(bench: &Bench, smoke: bool, path: &str, measuring: bool) -> bool {
    let live = if measuring {
        let (text, live) = measure(bench, smoke);
        let written = std::fs::write(path, text);
        written
            .map(|()| live)
            .map_err(|e| format!("write failed: {e}"))
    } else {
        Ok(Vec::new())
    };
    let gated = live.and_then(|live| gate_file(bench, path, live));
    match &gated {
        Ok(summary) => println!("{path}: OK ({summary})"),
        Err(e) => eprintln!("{path}: INVALID — {e}"),
    }
    gated.is_ok()
}

/// `xmoe-cli bench <name> [--smoke] [--out <path>] [--validate <path>]`:
/// the only implementation of those three flags. Measuring writes the
/// stamped records first; either way the verdict is [`gate_file`]'s. Exit 0
/// when every gate holds, 1 with `<path>: INVALID — <reason>` when one does
/// not (or the file is missing or malformed), 2 on a malformed command line.
/// `bench paper` is that same path over every entry of [`PAPER`] in turn,
/// each to its own `BENCH_<name>.json`; it exits 1 naming the invalid ones.
pub fn drive(args: &[String]) -> ExitCode {
    let parsed = CMD.parse(args).and_then(|p| {
        let name: String = p.req(0)?;
        let validate: Option<String> = p.flag("--validate")?;
        let out: Option<String> = p.flag("--out")?;
        let benches = match ALL.iter().position(|b| b.name == name) {
            Some(i) => &ALL[i..=i],
            None if name == "paper" && validate.is_none() && out.is_none() => &PAPER[..],
            None if name == "paper" => {
                return Err(
                    CMD.error("paper writes one file per entry: --out / --validate take one bench")
                )
            }
            None => return Err(CMD.error(format!("unknown bench '{name}'"))),
        };
        Ok::<_, UsageError>((benches, p.has("--smoke"), out, validate))
    });
    let (benches, smoke, out, validate) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let measuring = validate.is_none();
    let path = validate.or(out);
    let whole_paper = benches.len() > 1;
    let mut invalid = Vec::new();
    for bench in benches {
        if whole_paper {
            let bar = "=".repeat(72);
            println!("\n{bar}\n### {} [{}]\n{bar}", bench.title, bench.name);
        }
        let default = format!("BENCH_{}.json", bench.name);
        let path = path.as_ref().unwrap_or(&default);
        if !drive_one(bench, smoke, path, measuring) {
            invalid.push(bench.name);
        }
    }
    if whole_paper && !invalid.is_empty() {
        eprintln!("INVALID experiments: {}", invalid.join(", "));
    }
    if invalid.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// `recs` with `key` of record `i` replaced by `v`.
    pub(crate) fn set(recs: &[Record], i: usize, key: &str, v: Val) -> Vec<Record> {
        let mut out = recs.to_vec();
        let r = &mut out[i];
        let slot = r
            .metrics
            .iter_mut()
            .chain(&mut r.config)
            .find(|(k, _)| k == key);
        slot.expect("key to mutate exists").1 = v;
        out
    }

    /// Why `bench` rejects the file `recs` render to, if it does.
    pub(crate) fn failure(bench: &Bench, recs: &[Record]) -> Option<String> {
        let mut recs = recs.to_vec();
        recs.iter_mut().for_each(Record::stamp_workers);
        let checks = judge(bench, &render(&recs));
        checks.and_then(|c| verdict(&c)).err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Record> {
        vec![
            Record::default()
                .cfg("label", tag("pp4.v2.attn(tp4xdp1) a b"))
                .cfg("world", int(16))
                .metric("tokens_per_s", Val::Fixed(1987681.036, 3))
                .metric("bubble", Val::Fixed(0.157895, 6))
                .metric("step_time_s", Val::Fixed(0.061098932, 9))
                .metric("peak_bytes", Val::Int(u64::MAX))
                .metric("kind", tag("migrate")),
            Record::default()
                .cfg("label", tag(""))
                .metric("speedup", Val::Fixed(-1.5, 4)),
        ]
    }

    #[test]
    fn parse_inverts_render_for_every_val_kind() {
        let recs = sample();
        let text = render(&recs);
        assert_eq!(parse(&text).unwrap(), recs);
        assert!(text.contains("\"tokens_per_s\": 1987681.036, \"bubble\": 0.157895"));
        assert!(text.contains("\"speedup\": -1.5000}"));
        // Whitespace between tokens is free: the parent's one-key-per-line
        // files parse to the same records.
        let spread = text.replace(", \"", ",\n    \"").replace("{\"", "{\n \"");
        assert_eq!(parse(&spread).unwrap(), recs);
    }

    #[test]
    fn typed_accessors_name_what_is_wrong() {
        let recs = sample();
        assert_eq!(recs[0].num("world"), Ok(16.0));
        assert_eq!(recs[0].positive("bubble"), Ok(0.157895));
        assert_eq!(recs[0].tag("kind"), Ok("migrate"));
        assert_eq!(recs[0].num("nope"), Err("missing key nope".into()));
        assert_eq!(recs[0].num("kind"), Err("kind is not a number".into()));
        assert_eq!(recs[0].tag("world"), Err("world is not a string".into()));
        let e = recs[1].positive("speedup").unwrap_err();
        assert_eq!(e, "speedup = -1.5 is not positive");
        assert!(Record::tagged(&recs, "label", "").is_ok());
        assert!(Record::tagged(&recs, "label", "join").is_err());
    }

    #[test]
    fn parse_rejects_what_render_never_writes() {
        let good = render(&sample());
        for (bad, why) in [
            (
                good.replace("0.157895", "NaN"),
                "non-finite number NaN for bubble",
            ),
            (
                good.replace("0.157895", "inf"),
                "non-finite number inf for bubble",
            ),
            (
                good.replace("0.157895", "1e-3"),
                "bad number '1e-3' for bubble",
            ),
            (good.replace("0.157895", ""), "bad number '' for bubble"),
            (format!("{good}]"), "trailing garbage after the array"),
            (good[..good.len() / 2].to_string(), "record 0:"),
            (
                good.replace("\"config\": {", "\"cfg\": {"),
                "unexpected nested object cfg",
            ),
            (
                good.replace("\"world\": 16", "\"world\": {}"),
                "nested object config.world",
            ),
            (good.replace("migrate", "mi\\grate"), "escape sequence"),
            ("[]".to_string(), "no records"),
            ("{\"x\": 1}".to_string(), "expected '['"),
            ("[{\"x\": 1}]".to_string(), "record lacks a config object"),
        ] {
            let e = parse(&bad).expect_err(why);
            assert!(e.contains(why), "{why}: got {e}");
        }
    }

    #[test]
    #[should_panic(expected = "needs JSON escaping")]
    fn tags_that_need_escaping_are_a_call_site_bug() {
        tag("he\"llo");
    }

    #[test]
    fn judge_requires_the_worker_stamp_on_every_record() {
        let bare = render(&sample());
        let e = judge(&overlap::BENCH, &bare).unwrap_err();
        assert_eq!(e, "record 0: no worker_threads stamp in 1..=64");
        let mut recs = sample();
        recs.iter_mut().for_each(Record::stamp_workers);
        let (k, v) = recs[0].config.last().unwrap();
        assert_eq!(k, "worker_threads");
        assert!(matches!(v, Val::Int(n) if (1..=64).contains(n)));
    }

    #[test]
    fn the_usage_line_lists_every_bench() {
        let names: Vec<&str> = ALL.iter().map(|b| b.name).collect();
        assert_eq!(CMD.positionals, format!("<{}|paper>", names.join("|")));
        assert_eq!(names.len(), 26);
        // `PAPER` is the slice of `ALL` between the six system benches and
        // `recovery`, and no bench is called `paper`.
        let paper: Vec<&str> = PAPER.iter().map(|b| b.name).collect();
        assert_eq!(paper, names[6..25]);
        assert_eq!(names[25], "recovery");
        assert!(!names.contains(&"paper"));
    }

    #[test]
    fn a_documented_deviation_must_keep_deviating() {
        let check = |ok, documented| Check {
            documented,
            ..Check::new("claim", ok, "detail".into())
        };
        assert_eq!(verdict(&[check(true, false), check(false, true)]), Ok(()));
        let line = check(false, true).to_string();
        assert_eq!(line, "[shape] DEVIATION (documented): claim (detail)");
        for bad in [check(false, false), check(true, true)] {
            let e = verdict(&[check(true, false), bad]).unwrap_err();
            assert_eq!(e, "claim violated: claim (detail)");
        }
    }
}
