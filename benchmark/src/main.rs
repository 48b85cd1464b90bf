//! Command line of the benchmark. From the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- <mode or flags>
//!
//!   --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!         one workload (the driver's form); the last line of standard
//!         output is the result object of BENCHMARK.json's contract
//!   run   [--seed <n>] [--seconds <s>] [--smoke]
//!         every workload untraced: end-to-end metrics, benchmark/out/results.json
//!   trace [--seed <n>] [--seconds <s>] [--smoke]
//!         every workload traced: per-layer metrics, one Chrome trace each
//!   check [--seed <n>] [--seconds <s>]
//!         the untraced set twice: PASS/FAIL per metric against its own bound;
//!         the traced set twice: the deterministic metrics must be bit-identical
//!   compare <first.json> <second.json>
//!         two results files; FAIL where the second is worse beyond the bound
//!   manifest
//!         print BENCHMARK.json (generated from the metric tables)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use benchmark::harness::Opts;
use benchmark::report::{self, Results, WorkloadResult, DEFAULT_SEED, RUN_SECONDS};
use benchmark::{spans, workloads};

/// `benchmark/out/`, wherever the command is started from.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, text: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Run one workload; a traced run also writes its Chrome trace.
fn run_workload(name: &str, opts: &Opts) -> Result<WorkloadResult, String> {
    let out = workloads::run(name, opts).ok_or_else(|| format!("no workload called '{name}'"))?;
    if opts.trace {
        write_out(
            &format!("trace_{name}.json"),
            &spans::chrome_trace(name, &out.recorders),
        )?;
    }
    Ok(WorkloadResult::from_outcome(&out, opts.trace))
}

struct Args {
    mode: Option<String>,
    files: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: None,
        files: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: bad integer '{v}'"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: need a positive number, got '{v}'"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: need 0 or 1, got '{v}'")),
                };
            }
            "--smoke" => args.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            _ if args.mode.is_none() => args.mode = Some(a),
            _ => args.files.push(a),
        }
    }
    if args.smoke {
        // Shrinks every workload to a second or two: for development only.
        args.seconds = 1.0;
    }
    Ok(args)
}

fn all_workloads(mode: &str, args: &Args) -> Result<Results, String> {
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: mode == "trace",
    };
    report::run_all(mode, !args.smoke, args.seed, args.seconds, |name| {
        let r = run_workload(name, &opts)?;
        print!("{}", r.human());
        Ok(r)
    })
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    match args.mode.as_deref() {
        None => {
            let name = args
                .workload
                .as_deref()
                .ok_or("need --workload <name> or a mode (run, trace, check, compare, manifest)")?;
            let opts = Opts {
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
            };
            let r = run_workload(name, &opts)?;
            print!("{}", r.human());
            println!("{}", r.driver_line());
            Ok(true) // the verdict is the line's `correct` field
        }
        Some(mode @ ("run" | "trace")) => {
            let results = all_workloads(mode, &args)?;
            if args.smoke {
                println!(
                    "smoke run ({} s per workload): NOT comparable with any other run",
                    args.seconds
                );
            }
            let file = if mode == "run" {
                "results.json"
            } else {
                "results_trace.json"
            };
            write_out(file, &results.to_json().render_pretty())?;
            Ok(results.all_correct())
        }
        Some("check") => {
            let runs = [
                all_workloads("run", &args)?,
                all_workloads("run", &args)?,
                all_workloads("trace", &args)?,
                all_workloads("trace", &args)?,
            ];
            let (table, within_bounds) = report::compare(&runs[0], &runs[1], true);
            print!("{table}");
            let (table, exact) = report::compare_exact(&runs[2], &runs[3]);
            print!("{table}");
            write_out("results.json", &runs[1].to_json().render_pretty())?;
            write_out("results_trace.json", &runs[3].to_json().render_pretty())?;
            Ok(within_bounds && exact && runs.iter().all(Results::all_correct))
        }
        Some("compare") => {
            let [a, b] = args.files.as_slice() else {
                return Err("compare needs two results files".to_string());
            };
            let read = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("read {path}: {e}"))
                    .and_then(|t| Results::from_json_text(&t))
            };
            let (first, second) = (read(a)?, read(b)?);
            if !(first.comparable && second.comparable) {
                return Err("a smoke run is not comparable with anything".to_string());
            }
            let (table, pass) = report::compare(&first, &second, false);
            print!("{table}");
            Ok(pass)
        }
        Some("manifest") => {
            print!("{}", report::manifest().render_pretty());
            Ok(true)
        }
        Some(other) => Err(format!("unknown mode '{other}'")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
