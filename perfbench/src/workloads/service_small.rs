//! `service_small`: many small requests through a `Service<i64, Plus>`.
//!
//! `workers = nproc`, adaptive coalescing and the default dispatcher
//! chain. Requests are 70% n=64, 25% n=512 and 5% n=4096 with m = n/8:
//! the two small sizes coalesce, n=4096 exceeds `max_request_elements`
//! and runs alone. Two phases:
//!
//! * open loop: one generator thread sends Interactive `try_submit`
//!   requests on a seeded Poisson schedule at [`OPEN_LOOP_RATE`], and a
//!   collector thread times each from when it was due to its resolution;
//! * closed loop: [`CLIENTS`] clients each keep [`WINDOW`] tickets
//!   outstanding; completions per second is the saturation rate.

use super::{micros, secs, E2e};
use crate::calib::HostSpeed;
use crate::host::nproc;
use crate::loadgen::{poisson_schedule, tighten_timer_slack, OpenLoop, Step};
use crate::report::Tally;
use crate::rng::Rng;
use crate::stats::{median, Summary};
use multiprefix::op::Plus;
use multiprefix::serial::multiprefix_serial;
use multiprefix::service::{
    CoalesceConfig, Priority, Reply, Request, Service, ServiceConfig, ServiceMetrics, Ticket,
};
use multiprefix::{MemoryRecorder, MpError, MultiprefixOutput};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request sizes and their shares of the mix, in percent.
pub const SIZES: [(usize, usize); 3] = [(64, 70), (512, 25), (4096, 5)];
/// The open loop's arrival rate, requests per second, fixed so that every
/// run and every version offers the same load. On a shared 2-vCPU AVX2
/// host the closed loop saturates anywhere from 75 000 to 140 000 req/s
/// as co-tenant load comes and goes; this rate stays well below the low
/// end, where the median latency does not swing with the host.
pub const OPEN_LOOP_RATE: f64 = 15000.0;
/// Per-request timeout; a request that misses it counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(1);
/// Queue bound, deep enough that a short host stall at the open loop's
/// rate queues requests instead of refusing them.
pub const QUEUE_CAPACITY: usize = 1024;
/// Closed-loop clients. One client thread keeping [`WINDOW`] tickets
/// outstanding offers the same queue depth as two keeping half as many,
/// without a second thread contending with the workers for the host's
/// two CPUs: across runs its saturation rate spread 8% where two
/// clients' spread 14–20%.
pub const CLIENTS: usize = 1;
/// Tickets each closed-loop client keeps outstanding.
pub const WINDOW: usize = 16;
/// Set-up repetitions (service start plus warm-up requests).
pub const WARMUPS: usize = 9;
/// Requests sent and awaited by each set-up repetition.
pub const WARMUP_REQUESTS: usize = 512;
/// Width of the closed loop's rate windows.
pub const RATE_WINDOW: Duration = Duration::from_millis(250);
/// Share of the run given to the open loop; the closed loop gets the rest.
pub const OPEN_SHARE: f64 = 0.5;
/// How long the collector blocks on the oldest ticket before sweeping
/// the younger ones; bounds how late an out-of-order resolution is seen.
const SWEEP: Duration = Duration::from_micros(100);
/// Distinct inputs per request size.
const POOL: usize = 64;
const SALT: u64 = 0x5356_4353;
/// Host-speed reference samples before, between and after the phases.
const SPEED_SAMPLES: usize = 40;

/// One request input and its `multiprefix_serial` output.
#[derive(Debug)]
struct Case {
    values: Vec<i64>,
    labels: Vec<usize>,
    m: usize,
    expected: MultiprefixOutput<i64>,
}

/// Every request input of one run, with reference outputs.
#[derive(Debug)]
pub struct Pool {
    cases: Vec<Case>,
}

impl Pool {
    /// Generate `POOL` inputs per size and their `multiprefix_serial`
    /// outputs.
    pub fn generate(seed: u64) -> Pool {
        let mut rng = Rng::new(seed, SALT);
        let mut cases = Vec::new();
        for &(n, _) in &SIZES {
            for _ in 0..POOL {
                let m = n / 8;
                let values = rng.values(n);
                let labels = rng.labels(n, m);
                let expected = multiprefix_serial(&values, &labels, m, Plus);
                cases.push(Case {
                    values,
                    labels,
                    m,
                    expected,
                });
            }
        }
        Pool { cases }
    }

    /// Draw a case index from the size mix.
    pub fn draw(rng: &mut Rng) -> usize {
        let mut pct = rng.below(100);
        let mut size = 0;
        while pct >= SIZES[size].1 {
            pct -= SIZES[size].1;
            size += 1;
        }
        size * POOL + rng.below(POOL)
    }

    /// A fresh Interactive request for case `i`.
    pub fn request(&self, i: usize) -> Request<i64> {
        let case = &self.cases[i];
        Request::multiprefix(case.values.clone(), case.labels.clone(), case.m)
            .priority(Priority::Interactive)
            .timeout(TIMEOUT)
    }

    /// Count a resolved ticket of case `i` against its reference output.
    /// Returns whether it completed correctly.
    pub fn check(&self, i: usize, outcome: Result<Reply<i64>, MpError>, tally: &mut Tally) -> bool {
        let expected = &self.cases[i].expected;
        match outcome {
            Ok(Reply::Prefix(out)) => {
                tally.check(out.sums == expected.sums && out.reductions == expected.reductions)
            }
            Ok(Reply::Reduce(_)) => tally.check(false),
            Err(_) => {
                tally.fail();
                false
            }
        }
    }
}

/// The service configuration under test.
pub fn config(recorder: Option<Arc<MemoryRecorder>>) -> ServiceConfig {
    ServiceConfig {
        workers: Some(nproc()),
        queue_capacity: Some(QUEUE_CAPACITY),
        coalesce: Some(CoalesceConfig::default()),
        recorder: recorder.map(|r| r as Arc<dyn multiprefix::Recorder>),
        ..ServiceConfig::default()
    }
}

/// Start the service [`WARMUPS`] times, each start followed by
/// [`WARMUP_REQUESTS`] awaited requests; returns the last service and
/// the median set-up time in seconds.
fn setup(
    pool: &Pool,
    recorder: Option<Arc<MemoryRecorder>>,
    rng: &mut Rng,
    tally: &mut Tally,
) -> (Service<i64, Plus>, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..WARMUPS {
        if let Some(svc) = last.take() {
            let svc: Service<i64, Plus> = svc;
            svc.shutdown();
        }
        let start = Instant::now();
        let svc = Service::new(Plus, config(recorder.clone())).expect("service config is valid");
        let sent: Vec<(usize, Result<Ticket<i64>, MpError>)> = (0..WARMUP_REQUESTS)
            .map(|_| {
                let i = Pool::draw(rng);
                (i, svc.submit(pool.request(i)))
            })
            .collect();
        for (i, ticket) in sent {
            match ticket {
                Ok(t) => {
                    pool.check(i, t.take(), tally);
                }
                Err(_) => tally.fail(),
            }
        }
        times.push(secs(start.elapsed()));
        last = Some(svc);
    }
    (last.expect("WARMUPS > 0"), median(&times))
}

struct Sent {
    ticket: Ticket<i64>,
    due: Instant,
    case: usize,
}

/// Open-loop results.
#[derive(Debug, Clone, Default)]
pub struct OpenResult {
    /// Due-to-resolution latency of each completed request, µs.
    pub latency_us: Vec<f64>,
    /// How late each send was, µs.
    pub late_us: Vec<f64>,
    /// Most requests due but unsent at one send.
    pub backlog_max: usize,
    /// Requests scheduled.
    pub scheduled: usize,
}

/// Resolve tickets as they complete: block briefly on the oldest, then
/// sweep every outstanding ticket, stamping each resolved one with the
/// sweep's clock reading.
fn collect(rx: Receiver<Sent>, pool: &Pool) -> (Vec<f64>, Tally) {
    let mut tally = Tally::default();
    let mut latency = Vec::new();
    let mut pending: VecDeque<Sent> = VecDeque::new();
    let mut open = true;
    loop {
        loop {
            match rx.try_recv() {
                Ok(s) => pending.push_back(s),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        if pending.is_empty() {
            if !open {
                break;
            }
            match rx.recv() {
                Ok(s) => pending.push_back(s),
                Err(_) => open = false,
            }
            continue;
        }
        let _ = pending[0].ticket.wait_for(SWEEP);
        let now = Instant::now();
        let mut i = 0;
        while i < pending.len() {
            if pending[i].ticket.is_resolved() {
                let s = pending.remove(i).expect("index is in range");
                if pool.check(s.case, s.ticket.take(), &mut tally) {
                    latency.push(micros(now.saturating_duration_since(s.due)));
                }
            } else {
                i += 1;
            }
        }
    }
    (latency, tally)
}

/// Offer [`OPEN_LOOP_RATE`] for `seconds`.
fn open_loop(
    svc: &Service<i64, Plus>,
    pool: &Pool,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> OpenResult {
    let mut rng = Rng::new(seed, SALT ^ 2);
    let schedule = poisson_schedule(&mut rng, OPEN_LOOP_RATE, (seconds * 1e9) as u64);
    let cases: Vec<usize> = (0..schedule.len()).map(|_| Pool::draw(&mut rng)).collect();
    let mut gen = OpenLoop::new(schedule);
    let (tx, rx) = mpsc::channel::<Sent>();
    let (latency, collected) = std::thread::scope(|s| {
        let collector = s.spawn(|| collect(rx, pool));
        tighten_timer_slack();
        let start = Instant::now();
        let mut next = cases.first().map(|&c| pool.request(c));
        loop {
            match gen.step(start.elapsed().as_nanos() as u64) {
                Step::Done => break,
                Step::Wait(ns) => std::thread::sleep(Duration::from_nanos(ns)),
                Step::Send { index, due_ns } => {
                    let request = next.take().expect("a request is prepared per send");
                    match svc.try_submit(request) {
                        Ok(ticket) => {
                            let due = start + Duration::from_nanos(due_ns);
                            let sent = Sent {
                                ticket,
                                due,
                                case: cases[index],
                            };
                            tx.send(sent).expect("collector outlives the generator");
                        }
                        Err(_) => tally.fail(),
                    }
                    next = cases.get(index + 1).map(|&c| pool.request(c));
                }
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    tally.merge(collected);
    OpenResult {
        latency_us: latency,
        late_us: gen.late_ns().iter().map(|&ns| ns as f64 / 1e3).collect(),
        backlog_max: gen.backlog_max(),
        scheduled: gen.len(),
    }
}

/// Closed-loop results.
#[derive(Debug, Clone, Copy)]
struct ClosedResult {
    /// Median completions per second over [`RATE_WINDOW`] windows.
    rps: f64,
    /// Completions over the whole phase, drain included, per second.
    overall_rps: f64,
    /// Correct completions.
    completed: u64,
    /// Windows behind the median.
    windows: usize,
}

/// Closed loop for `seconds`. The saturation rate is the median over
/// [`RATE_WINDOW`] windows, so that a host stall inside one window does
/// not set it.
fn closed_loop(
    svc: &Service<i64, Plus>,
    pool: &Pool,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> ClosedResult {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let done = AtomicU64::new(0);
    let mut window_rps = Vec::new();
    let results: Vec<(u64, Tally)> = std::thread::scope(|s| {
        let done = &done;
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed, SALT ^ (16 + c as u64));
                    let mut tally = Tally::default();
                    let mut window: VecDeque<(usize, Ticket<i64>)> = VecDeque::new();
                    let mut completed = 0u64;
                    loop {
                        while window.len() < WINDOW && Instant::now() < end {
                            let i = Pool::draw(&mut rng);
                            match svc.try_submit(pool.request(i)) {
                                Ok(t) => window.push_back((i, t)),
                                Err(_) => tally.fail(),
                            }
                        }
                        let Some((i, t)) = window.pop_front() else {
                            break;
                        };
                        if pool.check(i, t.take(), &mut tally) {
                            completed += 1;
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    (completed, tally)
                })
            })
            .collect();
        // Count completions per window while the clients run.
        let (mut at, mut seen) = (start, 0);
        while at + RATE_WINDOW <= end {
            std::thread::sleep((at + RATE_WINDOW).saturating_duration_since(Instant::now()));
            let now = Instant::now();
            let count = done.load(Ordering::Relaxed);
            window_rps.push((count - seen) as f64 / secs(now - at));
            (at, seen) = (now, count);
        }
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = secs(start.elapsed());
    let mut completed = 0;
    for (c, t) in results {
        completed += c;
        tally.merge(t);
    }
    ClosedResult {
        rps: median(&window_rps),
        overall_rps: completed as f64 / elapsed,
        completed,
        windows: window_rps.len(),
    }
}

/// What the traced run reads besides the end-to-end figures.
#[derive(Debug, Clone)]
pub struct Detail {
    /// The open loop's generator health.
    pub open: OpenResult,
    /// Service counters after shutdown.
    pub metrics: ServiceMetrics,
}

/// Run both phases for `seconds` in total.
pub fn run(
    seed: u64,
    seconds: f64,
    recorder: Option<Arc<MemoryRecorder>>,
    tally: &mut Tally,
) -> (E2e, Detail) {
    let pool = Pool::generate(seed);
    let mut rng = Rng::new(seed, SALT ^ 3);
    let (svc, setup_s) = setup(&pool, recorder, &mut rng, tally);
    // The reference cannot run beside the load without stealing its
    // CPUs, so it brackets each phase.
    let mut speed = HostSpeed::default();
    speed.sample(SPEED_SAMPLES);
    let open = open_loop(&svc, &pool, seed, seconds * OPEN_SHARE, tally);
    speed.sample(SPEED_SAMPLES);
    let closed = closed_loop(&svc, &pool, seed, seconds * (1.0 - OPEN_SHARE), tally);
    speed.sample(SPEED_SAMPLES);
    let metrics = svc.shutdown();

    let lat = Summary::of(&open.latency_us);
    let late = Summary::of(&open.late_us);
    let lines = vec![
        format!(
            "req_p50_us = {:.3} us ({} samples, open loop at {OPEN_LOOP_RATE} req/s, {} scheduled)",
            lat.p50, lat.count, open.scheduled
        ),
        format!("req_p99_us = {}", lat.p99_text("us")),
        format!(
            "saturation_rps = {:.1} 1/s (median of {} windows of {} ms; {} completions, {:.1} 1/s overall; {CLIENTS} clients x {WINDOW} outstanding)",
            closed.rps,
            closed.windows,
            RATE_WINDOW.as_millis(),
            closed.completed,
            closed.overall_rps
        ),
        format!("loadgen late_p50 = {:.3} us, late_p99 = {}, backlog_max = {}", late.p50, late.p99_text("us"), open.backlog_max),
        format!(
            "service admitted={} completed={} errored={} rejected={} coalesced_batches={} coalesced_requests={}",
            metrics.admitted, metrics.completed, metrics.errored, metrics.rejected,
            metrics.coalesced_batches, metrics.coalesced_requests
        ),
    ];
    (
        E2e {
            setup_s,
            throughput_per_s: closed.rps,
            latency_p50_us: lat.p50,
            lines,
            speed,
        },
        Detail { open, metrics },
    )
}
