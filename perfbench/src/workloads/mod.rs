//! The four workloads. Each drives the library's public API the way a
//! user calls it and checks every output outside the timed region.

pub mod few_labels;
pub mod nas_is;
pub mod service_small;
pub mod session_rw;

use crate::calib::HostSpeed;
use std::path::PathBuf;
use std::time::Duration;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["nas_is", "few_labels", "service_small", "session_rw"];

/// End-to-end results of one workload run.
#[derive(Debug, Clone)]
pub struct E2e {
    /// Median time of the program's own set-up calls, in seconds.
    pub setup_s: f64,
    /// Work per second, taken at median call times or over median windows
    /// so that one stalled call cannot set it (what "work" is depends on
    /// the workload).
    pub throughput_per_s: f64,
    /// Median latency of the workload's user-visible call, in µs.
    pub latency_p50_us: f64,
    /// The workload's own named figures, with units and sample counts.
    pub lines: Vec<String>,
    /// Host-speed reference samples taken through the run.
    pub speed: HostSpeed,
}

/// Seconds in `d`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Microseconds in `d`.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A scratch directory for one run, inside the working directory (the
/// checkout the benchmark runs from), removed first if a previous run
/// left it behind.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(".perfbench_work").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Remove a scratch directory and, if now empty, its parent.
pub fn remove_scratch(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}
