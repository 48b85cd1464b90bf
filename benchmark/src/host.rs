//! What the host says about the run: CPU time and context switches from
//! `/proc`, and the machine stamp written next to every result.

use std::fs;
use std::process::Command;

use crate::json::Json;

/// `USER_HZ`: the unit of the tick counters in `/proc/<pid>/stat`. Linux
/// fixes it at 100 for user space on every architecture this runs on.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds `(user, system)` the whole process (all threads, live and
/// joined) has used so far; zeros where `/proc` is unavailable.
pub fn cpu_seconds() -> (f64, f64) {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / TICKS_PER_S
    };
    let user = tick();
    (user, tick())
}

/// Voluntary context switches of the *calling thread* so far (a blocking
/// wait counts one); 0 where `/proc` is unavailable.
pub fn thread_voluntary_switches() -> u64 {
    fs::read_to_string("/proc/thread-self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// 1-minute load average.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine stamp of `results.json`: what a number must be compared on.
pub fn machine_stamp() -> Json {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        (
            "worker_threads",
            Json::Num(xmoe_tensor::worker_threads() as f64),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}
