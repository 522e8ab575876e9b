//! Facts about the host and the process, recorded in every report.

use std::path::Path;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The vector kernel level the library resolved for this process.
pub fn simd_level() -> &'static str {
    multiprefix::simd::active_level().name()
}

/// The compiler that built this binary.
pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// `(level, bytes)` of the unified or data caches of CPU 0, from sysfs.
fn caches() -> Vec<(u32, u64)> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(base) else {
        return Vec::new();
    };
    let read = |dir: &Path, file: &str| std::fs::read_to_string(dir.join(file)).ok();
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let dir = entry.path();
        let (Some(level), Some(kind), Some(size)) =
            (read(&dir, "level"), read(&dir, "type"), read(&dir, "size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        out.push((level, bytes));
    }
    out.sort_unstable();
    out
}

/// Parse a sysfs cache size such as `2048K` or `105M`.
pub fn parse_size(text: &str) -> Option<u64> {
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1u64 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|d| d * scale)
}

/// Size of the level-2 cache in bytes (0 if unknown).
pub fn l2_bytes() -> u64 {
    caches()
        .iter()
        .filter(|(l, _)| *l == 2)
        .map(|&(_, b)| b)
        .max()
        .unwrap_or(0)
}

/// Size of the last-level cache in bytes (0 if unknown).
pub fn llc_bytes() -> u64 {
    caches().last().map_or(0, |&(_, b)| b)
}

/// The process's peak resident set (`VmHWM`) in MiB, or `NaN` where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Bytes as a short human-readable figure.
pub fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    }
}
