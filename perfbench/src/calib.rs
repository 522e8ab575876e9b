//! Host speed reference.
//!
//! The benchmark's host shares its CPUs with other tenants, and its speed
//! drifts by a third over tens of seconds as they come and go. A fixed
//! integer recurrence, timed at intervals through each run, tracks that
//! drift: its time moves with the host's speed and with nothing the
//! library does. End-to-end figures are reported both as measured and
//! adjusted to a nominal reference time, `measured × (reference /
//! nominal)` for rates and the inverse for times.

use crate::stats::median;
use std::time::{Duration, Instant};

/// Iterations of the reference recurrence (about 2.3 ms on a 2.0 GHz
/// Xeon core).
const ITERATIONS: u64 = 2_000_000;
/// The reference time the adjusted figures are scaled to, in seconds:
/// the recurrence's time on an uncontended 2.0 GHz Xeon core.
pub const NOMINAL_S: f64 = 0.0023;

/// Time one run of the reference recurrence.
pub fn reference() -> Duration {
    let start = Instant::now();
    let mut s = 1u64;
    for i in 0..ITERATIONS {
        s = s.wrapping_mul(31).wrapping_add(i ^ (s >> 7));
    }
    std::hint::black_box(s);
    start.elapsed()
}

/// Reference samples taken through one run.
#[derive(Debug, Clone, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl HostSpeed {
    /// Take `n` samples now.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            self.samples.push(reference().as_secs_f64());
        }
        self.last = Some(Instant::now());
    }

    /// Take one sample if `every` has passed since the last; returns the
    /// time spent sampling.
    pub fn sample_every(&mut self, every: Duration) -> Duration {
        if self.last.is_some_and(|t| t.elapsed() < every) {
            return Duration::ZERO;
        }
        let start = Instant::now();
        self.sample(1);
        start.elapsed()
    }

    /// How much slower than nominal the host ran: median reference time
    /// over [`NOMINAL_S`] (1.0 without samples).
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        median(&self.samples) / NOMINAL_S
    }

    /// Samples taken.
    pub fn count(&self) -> usize {
        self.samples.len()
    }
}
