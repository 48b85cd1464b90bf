//! The bench spine: the one record format behind every `BENCH_*.json`, the
//! one gate list per bench, and the one `--smoke | --out | --validate`
//! driver.
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

use xmoe_tensor::CountingAlloc;

use crate::flags::{Arity, Cmd, Flag, UsageError};
use crate::{elastic, hotpath, mapping, overlap, serving, shape_check, stability};

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

/// One claim and whether the numbers bear it out.
#[derive(Clone, Debug)]
pub struct Check {
    pub claim: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(claim: &str, ok: bool, detail: String) -> Self {
        Check {
            claim: claim.to_string(),
            ok,
            detail,
        }
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

/// What a bench needs from the binary hosting it.
pub struct Env {
    /// The binary's counting global allocator (hotpath's telemetry source).
    pub alloc: &'static CountingAlloc,
}

/// What a run hands the driver: its records and its live checks.
pub type Outcome = (Vec<Record>, Vec<Check>);

pub struct Bench {
    /// `xmoe-cli bench <name>`; the default output is `BENCH_<name>.json`.
    pub name: &'static str,
    /// Measure. Returns the records and the live checks.
    pub run: fn(smoke: bool, env: &Env) -> Outcome,
    /// Judge records, freshly measured or read back from a file alike.
    /// `Err` is a malformed or self-inconsistent record; the checks are
    /// the bench's claims.
    pub gates: fn(&[Record]) -> Result<Vec<Check>, String>,
}

pub const ALL: [&Bench; 6] = [
    &hotpath::BENCH,
    &mapping::BENCH,
    &elastic::BENCH,
    &overlap::BENCH,
    &stability::BENCH,
    &serving::BENCH,
];

pub static CMD: Cmd = Cmd {
    name: "bench",
    positionals: "<hotpath|mapping|elastic|overlap|stability|serving>",
    flags: &[
        Flag {
            name: "--smoke",
            arity: Arity::Switch,
            doc: "shorten the sweep and the timed loops (the CI subset)",
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

/// `Err` with every failed claim, if any failed.
pub fn verdict(checks: &[Check]) -> Result<(), String> {
    let failed: Vec<String> = checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| format!("{} ({})", c.claim, c.detail))
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("claim violated: {}", failed.join("; ")))
    }
}

/// Gate the file at `path` — the text on disk, not values in memory — on
/// top of a run's `live` checks (none when validating); prints every claim.
fn gate_file(bench: &Bench, path: &str, mut checks: Vec<Check>) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let gated = judge(bench, &text);
    checks.extend(gated.iter().flatten().cloned());
    for c in &checks {
        shape_check(&c.claim, c.ok, &c.detail);
    }
    gated?;
    verdict(&checks).map(|()| checks.len())
}

/// `xmoe-cli bench <name> [--smoke] [--out <path>] [--validate <path>]`:
/// the only implementation of those three flags. Measuring writes the
/// stamped records first; either way the verdict is [`gate_file`]'s. Exit 0
/// when every gate holds, 1 with `<path>: INVALID — <reason>` when one does
/// not (or the file is missing or malformed), 2 on a malformed command line.
pub fn drive(args: &[String], env: &Env) -> ExitCode {
    let parsed = CMD.parse(args).and_then(|p| {
        let name: String = p.req(0)?;
        let bench = ALL.iter().find(|b| b.name == name);
        let bench = bench.ok_or_else(|| CMD.error(format!("unknown bench '{name}'")))?;
        let validate: Option<String> = p.flag("--validate")?;
        let out: Option<String> = p.flag("--out")?;
        Ok::<_, UsageError>((*bench, p.has("--smoke"), out, validate))
    });
    let (bench, smoke, out, validate) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let measuring = validate.is_none();
    let path = validate.or(out);
    let path = path.unwrap_or_else(|| format!("BENCH_{}.json", bench.name));
    let live = if measuring {
        let (mut recs, live) = (bench.run)(smoke, env);
        recs.iter_mut().for_each(Record::stamp_workers);
        let written = std::fs::write(&path, render(&recs));
        written
            .map(|()| live)
            .map_err(|e| format!("write failed: {e}"))
    } else {
        Ok(Vec::new())
    };
    match live.and_then(|live| gate_file(bench, &path, live)) {
        Ok(claims) => {
            println!("{path}: OK ({claims} claims hold)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// An `Env` whose allocator is not installed: fine for every bench that
    /// ignores it (all but hotpath).
    pub(crate) fn env() -> Env {
        static IDLE: CountingAlloc = CountingAlloc::new();
        Env { alloc: &IDLE }
    }

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
        assert_eq!(CMD.positionals, format!("<{}>", names.join("|")));
    }
}
