//! The open-loop load generator's schedule and clock arithmetic.
//!
//! Requests are due on a seeded Poisson schedule regardless of how fast
//! the service answers. Each request's latency runs from when it was
//! *due*, not from when the generator got round to sending it, so a stall
//! in the generator or the service charges every request that was due
//! during it. How late the generator itself ran is reported separately.
//!
//! Everything here works on nanosecond offsets from the phase start, so
//! the tests can drive it with a synthetic clock.

use crate::rng::Rng;

/// Due offsets (ns from phase start) of a Poisson arrival process at
/// `rate_per_s`, up to `horizon_ns`.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, horizon_ns: u64) -> Vec<u64> {
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += rng.exp(rate_per_s) * 1e9;
        if t >= horizon_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// Latency of a request due at `due_ns` and resolved at `resolved_ns`.
pub fn latency_ns(due_ns: u64, resolved_ns: u64) -> u64 {
    resolved_ns.saturating_sub(due_ns)
}

/// What the generator should do at a given instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Every scheduled request has been sent.
    Done,
    /// Nothing is due yet; the next request is due this many ns from now.
    Wait(u64),
    /// Send request `index`, which was due at `due_ns`.
    Send {
        /// Position in the schedule.
        index: usize,
        /// Its due offset.
        due_ns: u64,
    },
}

/// Walks a schedule, recording how late each send was and how many
/// requests were due but unsent at once.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    due: Vec<u64>,
    next: usize,
    late_ns: Vec<u64>,
    backlog_max: usize,
}

impl OpenLoop {
    /// A generator over `due` (ascending offsets).
    pub fn new(due: Vec<u64>) -> Self {
        OpenLoop {
            due,
            next: 0,
            late_ns: Vec::new(),
            backlog_max: 0,
        }
    }

    /// Scheduled requests.
    pub fn len(&self) -> usize {
        self.due.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.due.is_empty()
    }

    /// Decide what to do at `now_ns`. A `Send` is taken as done at
    /// `now_ns`: its lateness and the backlog at that instant (it
    /// included) are recorded.
    pub fn step(&mut self, now_ns: u64) -> Step {
        let Some(&due_ns) = self.due.get(self.next) else {
            return Step::Done;
        };
        if due_ns > now_ns {
            return Step::Wait(due_ns - now_ns);
        }
        let backlog = self.due[self.next..]
            .iter()
            .take_while(|&&d| d <= now_ns)
            .count();
        self.backlog_max = self.backlog_max.max(backlog);
        self.late_ns.push(now_ns - due_ns);
        let index = self.next;
        self.next += 1;
        Step::Send { index, due_ns }
    }

    /// How late each send was, in send order.
    pub fn late_ns(&self) -> &[u64] {
        &self.late_ns
    }

    /// The most requests ever due but unsent at one send.
    pub fn backlog_max(&self) -> usize {
        self.backlog_max
    }
}

/// Ask the kernel to wake this thread's timed sleeps within 1 µs of
/// their deadline instead of the default 50 µs slack, so that the
/// generator's own lateness does not dominate the latencies it measures.
/// Best effort: elsewhere than Linux, or if refused, sleeps keep the
/// default slack and the lateness report shows it.
pub fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
        }
        const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
        // touches no memory of ours; it only changes the calling
        // thread's timer slack.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
        }
    }
}
