//! What the kernel says about this process: per-thread CPU time and peak
//! resident memory. Read from `/proc`, so Linux only.

use std::fs;

/// Nanoseconds on-CPU, summed over this process's threads whose `comm`
/// starts with `prefix` (thread names are truncated to 15 bytes).
pub fn thread_run_ns(prefix: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| {
            // A thread may exit between the listing and the reads.
            let comm = fs::read_to_string(task.path().join("comm")).ok()?;
            if !comm.starts_with(prefix) {
                return None;
            }
            run_ns_of(&fs::read_to_string(task.path().join("schedstat")).ok()?)
        })
        .sum()
}

/// Nanoseconds the calling thread has spent on-CPU.
pub fn self_run_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| run_ns_of(&s))
        .unwrap_or(0)
}

/// First field of a `schedstat` line: time spent running, in ns.
fn run_ns_of(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_cpu_and_memory() {
        let before = self_run_ns();
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 50 {
            std::hint::spin_loop();
        }
        assert!(self_run_ns() > before);
        assert!(peak_rss_mib() > 0.5);
        assert_eq!(run_ns_of("123 45 6\n"), Some(123));
    }
}
