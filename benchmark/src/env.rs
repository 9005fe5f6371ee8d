//! What machine produced the numbers: core count, CPU model, toolchain,
//! commit and load, printed with every run; plus this process's peak RSS.

use std::process::Command;

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in kB (0 where `/proc` is not Linux's).
pub fn peak_rss_kb() -> u64 {
    proc_status_kb("VmHWM:")
}

fn proc_status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .flatten()
}

/// The environment block, one `# key: value` line each. Anything the box
/// cannot tell reads `unknown` (the driver's checkout is not a git
/// repository, for one).
pub fn block() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into());
    let rustc = first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let commit =
        first_line_of("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into());
    format!(
        "# nproc: {}\n# cpu: {cpu}\n# rustc: {rustc}\n# commit: {commit}\n# loadavg: {load}",
        nproc()
    )
}

/// Seconds the hypervisor has stolen from each CPU since boot (the eighth
/// field of every `cpuN` line of `/proc/stat`, in `USER_HZ` = 100 ticks).
/// Empty where `/proc/stat` has no such lines.
pub fn steal_per_cpu_s() -> Vec<f64> {
    std::fs::read_to_string("/proc/stat")
        .map(|s| {
            s.lines()
                .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
                .filter_map(|l| l.split_whitespace().nth(8)?.parse::<f64>().ok())
                .map(|ticks| ticks / 100.0)
                .collect()
        })
        .unwrap_or_default()
}
