//! Process resource accounting from `/proc`, with no dependencies: CPU
//! time of the whole process (every thread, live or exited) from
//! `/proc/self/stat`, peak resident memory from `/proc/self/status`, and
//! the clock-tick rate from the auxiliary vector.

use std::fs;

/// `AT_CLKTCK` in the ELF auxiliary vector: the unit of the CPU-time
/// fields of `/proc/<pid>/stat`.
const AT_CLKTCK: u64 = 17;

/// Clock ticks per second, read once from `/proc/self/auxv` (100 on every
/// mainstream Linux build, used when the vector cannot be read).
pub fn clock_ticks_per_s() -> f64 {
    let ticks = fs::read("/proc/self/auxv").ok().and_then(|raw| {
        raw.chunks_exact(16).find_map(|pair| {
            let key = u64::from_ne_bytes(pair[..8].try_into().expect("8-byte key"));
            let val = u64::from_ne_bytes(pair[8..].try_into().expect("8-byte value"));
            (key == AT_CLKTCK && val > 0).then_some(val)
        })
    });
    ticks.unwrap_or(100) as f64
}

/// User plus system CPU seconds consumed so far by this process.
///
/// # Panics
///
/// When `/proc/self/stat` is missing or malformed: the benchmark's
/// resource figures would otherwise be silently wrong.
pub fn cpu_seconds(ticks_per_s: f64) -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // the command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting with field 3 (state)
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> f64 {
        fields[n - 3]
            .parse::<u64>()
            .expect("numeric CPU-time field") as f64
    };
    (field(14) + field(15)) / ticks_per_s
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
///
/// # Panics
///
/// When `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
