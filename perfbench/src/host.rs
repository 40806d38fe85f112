//! What the host reports about this process, and the stamp that says
//! which host and build produced a result.

use serde_json::{Map, Value};
use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process, including threads that have already exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Host CPU seconds (user + system, all threads) this process has used.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock always exists on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The host and build a result came from. Results whose stamps differ
/// are not comparable; `--compare` flags them instead of trusting them.
pub fn stamp() -> Map {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let mut m = Map::new();
    m.insert("cores".to_string(), Value::U64(cores as u64));
    m.insert("cpu_model".to_string(), Value::String(cpu_model));
    m.insert(
        "rustc".to_string(),
        Value::String(env!("PERFBENCH_RUSTC_VERSION").to_string()),
    );
    m.insert(
        "profile".to_string(),
        Value::String(env!("PERFBENCH_PROFILE").to_string()),
    );
    m.insert("git_commit".to_string(), Value::String(commit));
    m
}

/// Stamp fields that make two results incomparable when they differ.
/// The commit is left out: comparing two commits is the point.
pub const COMPARABLE_FIELDS: [&str; 4] = ["cores", "cpu_model", "rustc", "profile"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > t0);
    }

    #[test]
    fn rss_and_stamp_are_populated() {
        assert!(peak_rss_mb() > 0.0);
        let s = stamp();
        for f in COMPARABLE_FIELDS {
            assert!(s.get(f).is_some(), "stamp lacks {f}");
        }
    }
}
