//! What the benchmark reads about its own process and host, from `/proc`.

use std::fs;
use std::process::Command;

use crate::json::Json;

/// Linux reports process CPU time in clock ticks; every mainstream kernel
/// configuration uses 100 per second, and without libc there is no
/// `sysconf` to ask.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process, finished threads included.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let ticks: f64 = fields
        .by_ref()
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / CLOCK_TICKS_PER_S
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Host facts stored with every result file, so results taken on
/// different machines are never diffed by accident.
pub fn describe() -> Json {
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    // The driver's checkout is not a git repository; the rev is a courtesy.
    let git_rev = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::from(nproc() as u64)),
        ("kernel", Json::from(kernel.trim())),
        ("git_rev", Json::from(git_rev.as_str())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        // Burn a little CPU so utime is non-zero even on a fresh process.
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(crate::gen::mix(x));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mib() > 1.0);
        assert!(nproc() >= 1);
        assert!(describe().get("kernel").unwrap().as_str().is_some());
    }
}
