//! Thread census and per-thread CPU time from `/proc/self/task` (Linux).
//! Elsewhere both read as empty, and the metrics built on them as 0.

use std::fs;

/// Every thread of this process: `(tid, name)`.
pub fn threads() -> Vec<(u64, String)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| {
        let e = e.ok()?;
        let tid = e.file_name().to_str()?.parse().ok()?;
        let comm = fs::read_to_string(e.path().join("comm")).ok()?;
        Some((tid, comm.trim_end().to_owned()))
    })
    .collect()
}

/// CPU time thread `tid` has run, in nanoseconds: the first field of its
/// `schedstat` (0 where the kernel keeps none).
fn cpu_ns(tid: u64) -> u64 {
    fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Total CPU nanoseconds of the serving tier's worker threads (named
/// `serve-…` by `robo-serve`).
pub fn serve_cpu_ns() -> u64 {
    threads()
        .iter()
        .filter(|(_, name)| name.starts_with("serve-"))
        .map(|(tid, _)| cpu_ns(*tid))
        .sum()
}
