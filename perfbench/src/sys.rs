//! Process readings from `/proc` and the machine fingerprint stamped on
//! every result.

use std::time::Duration;

/// Process user+system CPU time (all threads, live and exited), from
/// `/proc/self/stat` in clock ticks of 10 ms.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let total = ticks(11) + ticks(12);
    Duration::from_millis(total * 10)
}

/// Machine-wide CPU time stolen by the hypervisor so far (`/proc/stat`),
/// summed over CPUs.
pub fn steal() -> Duration {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse::<u64>().ok())
        .unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// Runs `f` on each CPU the calling thread may run on, pinned to that CPU
/// in turn, and returns the results in CPU order. The thread's affinity is
/// restored before returning, so threads it spawns later are not pinned.
/// Runs `f` once, unpinned, where affinity cannot be read or set.
pub fn on_each_cpu<T>(mut f: impl FnMut() -> T) -> Vec<T> {
    // Room for 1024 CPUs.
    const WORDS: usize = 16;
    const BYTES: usize = WORDS * 8;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: pid 0 is the calling thread and the mask is `BYTES` long.
    if unsafe { sched_getaffinity(0, BYTES, allowed.as_mut_ptr()) } != 0 {
        return vec![f()];
    }
    let mut out = Vec::new();
    for cpu in (0..WORDS * 64).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1) {
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above.
        if unsafe { sched_setaffinity(0, BYTES, one.as_ptr()) } == 0 {
            out.push(f());
        }
    }
    // SAFETY: as above.
    let restored = unsafe { sched_setaffinity(0, BYTES, allowed.as_ptr()) };
    assert_eq!(restored, 0, "cannot restore the thread's CPU affinity");
    if out.is_empty() {
        out.push(f());
    }
    out
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// The machine and build a result was measured on, as one JSON object.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"revision\": {}, \
         \"features\": {}, \"profile\": {}}}",
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_REVISION")),
        json_str(crate::FEATURES),
        json_str(env!("PERFBENCH_PROFILE")),
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_cpu_runs_once_and_affinity_is_restored() {
        let cpus = || std::thread::available_parallelism().map_or(0, |n| n.get());
        let before = cpus();
        let mut calls = 0;
        let out = on_each_cpu(|| {
            calls += 1;
            cpus()
        });
        assert_eq!(out.len(), calls);
        if out.len() > 1 {
            assert!(out.iter().all(|&n| n == 1), "{out:?}");
        }
        assert_eq!(cpus(), before);
    }
}
