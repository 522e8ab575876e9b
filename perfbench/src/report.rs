//! Metric names, error accounting and the result line.

use std::fmt::Write as _;

/// The end-to-end metrics every workload reports with `--trace 0`, as
/// `(name, unit)`. Their meaning per workload is in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every workload reports with `--trace 1`, as
/// `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("api.auto_vs_serial.n12", "ratio"),
    ("api.auto_vs_serial.n15", "ratio"),
    ("api.auto_vs_serial.n18", "ratio"),
    ("api.auto_vs_serial.n22", "ratio"),
    ("api.auto_vs_best.n12", "ratio"),
    ("api.auto_vs_best.n15", "ratio"),
    ("api.auto_vs_best.n18", "ratio"),
    ("api.auto_vs_best.n22", "ratio"),
    ("api.auto_vs_serial.nas_is", "ratio"),
    ("api.auto_vs_best.nas_is", "ratio"),
    ("serial.ns_per_elem", "ns"),
    ("blocked.ns_per_elem", "ns"),
    ("chunked.local_ns_per_elem", "ns"),
    ("chunked.combine_us", "us"),
    ("chunked.apply_ns_per_elem", "ns"),
    ("simd.m1_speedup", "ratio"),
    ("scan.partition_ns_per_elem", "ns"),
    ("mp_sort.multiprefix_share", "ratio"),
    ("dispatch.overhead_us.n64", "us"),
    ("dispatch.overhead_us.n512", "us"),
    ("dispatch.overhead_us.n4096", "us"),
    ("dispatch.attempt_p50_us", "us"),
    ("dispatch.retries", "count"),
    ("dispatch.fallbacks", "count"),
    ("service.wait_p50_us", "us"),
    ("service.wait_p99_us", "us"),
    ("service.exec_p50_us", "us"),
    ("service.exec_p99_us", "us"),
    ("service.coalesce_ratio", "ratio"),
    ("service.members_per_batch", "count"),
    ("service.steals", "count"),
    ("service.shed", "count"),
    ("service.expired", "count"),
    ("service.rejected", "count"),
    ("session.apply_us", "us"),
    ("session.wal_append_us", "us"),
    ("session.fsync_us", "us"),
    ("session.host_overhead_us", "us"),
    ("session.query_ns", "ns"),
    ("session.replay_ns_per_record", "ns"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.backlog_max", "count"),
    ("trace.throughput_delta_pct", "%"),
    ("trace.latency_p50_delta_pct", "%"),
];

/// Whether `name` is a valid metric or workload name: 1–64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-';
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: 1–16 characters of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

/// Counts of checked operations. A *failed* operation was refused, timed
/// out or returned an error; a *wrong* one returned an output that
/// disagrees with the reference. Both count against the error rate; only
/// wrong outputs make the run incorrect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Refused, errored or timed-out operations.
    pub failed: u64,
    /// Operations whose output disagreed with the reference.
    pub wrong: u64,
}

impl Tally {
    /// Count one operation whose output was compared: `matches` is the
    /// comparison's verdict. Returns it.
    pub fn check(&mut self, matches: bool) -> bool {
        self.attempted += 1;
        if !matches {
            self.wrong += 1;
        }
        matches
    }

    /// Count one operation that failed before producing an output.
    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Add another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// Failed and wrong operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.failed + self.wrong) as f64 / self.attempted as f64
    }

    /// Whether every compared output was right.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Look `name` up in `table` and attach its unit.
pub fn metric(table: &[(&'static str, &'static str)], name: &str, value: f64) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's table"));
    Metric { name, unit, value }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` (failed and wrong operations) and `metrics`. A non-finite
/// value is written as 0, since JSON has no spelling for it.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted,
        tally.failed + tally.wrong
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
