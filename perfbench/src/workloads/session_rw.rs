//! `session_rw`: one closed-loop client on `Service::session_*` over a
//! durable store pre-filled with 2²⁰ elements, m = 1024, fsync on.
//!
//! The op mix is 20% `session_append`, 70% `session_query` at uniform
//! indices and 10% `session_total`; every answer is checked against an
//! in-memory shadow model. At the end the client closes the session,
//! reopens it and times the recovery. The only workload with writes
//! beside reads; it bypasses the batch engines.

use super::{micros, remove_scratch, scratch_dir, secs, E2e};
use crate::calib::HostSpeed;
use crate::host::nproc;
use crate::report::Tally;
use crate::rng::Rng;
use crate::stats::{median, Summary};
use multiprefix::op::Plus;
use multiprefix::service::{Service, ServiceConfig, SessionId};
use multiprefix::{DurableSession, MemoryRecorder, SessionOptions};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Elements in the store before the client starts.
pub const PREFILL: usize = 1 << 20;
/// Buckets.
pub const M: usize = 1024;
/// Set-up repetitions (service start plus session open).
pub const WARMUPS: usize = 5;
/// Queries checked against the shadow after recovery.
pub const VERIFY_QUERIES: usize = 4096;
const SALT: u64 = 0x5345_5353;

/// The element log (label, value, occurrence: 24 bytes an element) plus
/// one Fenwick entry per element.
pub fn working_set_bytes() -> u64 {
    32 * PREFILL as u64
}

/// The shadow model: since the mix never updates, an element's exclusive
/// prefix is fixed when it is appended.
#[derive(Debug, Default, Clone)]
pub struct Shadow {
    prefix: Vec<i64>,
    totals: Vec<i64>,
}

impl Shadow {
    /// An empty model over `m` labels.
    pub fn new(m: usize) -> Self {
        Shadow {
            prefix: Vec::new(),
            totals: vec![0; m],
        }
    }

    /// Record an append; returns the element's index.
    pub fn append(&mut self, label: usize, value: i64) -> u64 {
        self.prefix.push(self.totals[label]);
        self.totals[label] += value;
        self.prefix.len() as u64 - 1
    }

    /// Elements appended.
    pub fn len(&self) -> usize {
        self.prefix.len()
    }

    /// Whether nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.prefix.is_empty()
    }

    /// The exclusive same-label prefix of element `index`.
    pub fn prefix(&self, index: u64) -> i64 {
        self.prefix[index as usize]
    }

    /// The total of `label`.
    pub fn total(&self, label: usize) -> i64 {
        self.totals[label]
    }
}

/// Fill a fresh store at `dir` with `n` elements (no fsync: this is input
/// generation), cut a snapshot and close it.
pub fn prefill(dir: &Path, n: usize, rng: &mut Rng) -> Shadow {
    let opts = SessionOptions {
        no_sync: true,
        ..SessionOptions::default()
    };
    let mut store = DurableSession::open(dir, M, Plus, opts).expect("fresh store opens");
    let mut shadow = Shadow::new(M);
    for _ in 0..n {
        let (label, value) = (rng.below(M), rng.value());
        store.append(label, value).expect("prefill append");
        shadow.append(label, value);
    }
    store.snapshot().expect("prefill snapshot");
    store.close().expect("prefill close");
    shadow
}

fn start(dir: &Path, recorder: &Option<Arc<MemoryRecorder>>) -> (Service<i64, Plus>, SessionId) {
    let cfg = ServiceConfig {
        workers: Some(nproc()),
        recorder: recorder
            .clone()
            .map(|r| r as Arc<dyn multiprefix::Recorder>),
        ..ServiceConfig::default()
    };
    let svc = Service::new(Plus, cfg).expect("service config is valid");
    let id = svc
        .open_session(dir, M, SessionOptions::default())
        .expect("prefilled store opens");
    (svc, id)
}

/// Check a handful of answers and every label total against the shadow.
fn verify(
    svc: &Service<i64, Plus>,
    id: SessionId,
    shadow: &Shadow,
    rng: &mut Rng,
    tally: &mut Tally,
) {
    for _ in 0..VERIFY_QUERIES {
        let index = rng.below(shadow.len()) as u64;
        match svc.session_query(id, index) {
            Ok(v) => {
                tally.check(v == shadow.prefix(index));
            }
            Err(_) => tally.fail(),
        }
    }
    for label in 0..M {
        match svc.session_total(id, label) {
            Ok(v) => {
                tally.check(v == shadow.total(label));
            }
            Err(_) => tally.fail(),
        }
    }
    // Nothing beyond the acknowledged appends may be visible.
    tally.check(svc.session_query(id, shadow.len() as u64).is_err());
}

/// Run the client for about `seconds`.
pub fn run(
    seed: u64,
    seconds: f64,
    recorder: Option<Arc<MemoryRecorder>>,
    tally: &mut Tally,
) -> E2e {
    let dir = scratch_dir("session_rw");
    let mut rng = Rng::new(seed, SALT);
    let mut shadow = prefill(&dir, PREFILL, &mut rng);

    let mut setup = Vec::new();
    let mut current = None;
    for _ in 0..WARMUPS {
        if let Some((svc, id)) = current.take() {
            let (svc, id): (Service<i64, Plus>, SessionId) = (svc, id);
            svc.session_close(id).expect("session closes");
            svc.shutdown();
        }
        let t = Instant::now();
        current = Some(start(&dir, &recorder));
        setup.push(secs(t.elapsed()));
    }
    let (svc, id) = current.expect("WARMUPS > 0");

    let (mut append_us, mut query_us, mut total_us) = (Vec::new(), Vec::new(), Vec::new());
    let wall = Instant::now();
    let mut speed = HostSpeed::default();
    let mut paused = std::time::Duration::ZERO;
    let mut ops = 0u64;
    while secs(wall.elapsed()) < seconds {
        paused += speed.sample_every(std::time::Duration::from_millis(100));
        ops += 1;
        match rng.below(10) {
            0 | 1 => {
                let (label, value) = (rng.below(M), rng.value());
                let t = Instant::now();
                let got = svc.session_append(id, label, value);
                append_us.push(micros(t.elapsed()));
                match got {
                    Ok(index) => {
                        tally.check(index == shadow.append(label, value));
                    }
                    Err(_) => tally.fail(),
                }
            }
            9 => {
                let label = rng.below(M);
                let t = Instant::now();
                let got = svc.session_total(id, label);
                total_us.push(micros(t.elapsed()));
                match got {
                    Ok(v) => {
                        tally.check(v == shadow.total(label));
                    }
                    Err(_) => tally.fail(),
                }
            }
            _ => {
                let index = rng.below(shadow.len()) as u64;
                let t = Instant::now();
                let got = svc.session_query(id, index);
                query_us.push(micros(t.elapsed()));
                match got {
                    Ok(v) => {
                        tally.check(v == shadow.prefix(index));
                    }
                    Err(_) => tally.fail(),
                }
            }
        }
    }
    let loop_s = secs(wall.elapsed() - paused);

    svc.session_close(id).expect("session closes");
    let t = Instant::now();
    let id = svc
        .open_session(&dir, M, SessionOptions::default())
        .expect("store recovers");
    let recovery_ms = secs(t.elapsed()) * 1e3;
    let report = svc.session_recovery_report(id).expect("session is open");
    verify(&svc, id, &shadow, &mut rng, tally);
    svc.session_close(id).expect("session closes");
    svc.shutdown();
    remove_scratch(&dir);

    let (a, q, tot) = (
        Summary::of(&append_us),
        Summary::of(&query_us),
        Summary::of(&total_us),
    );
    let ops_per_s = ops as f64 / loop_s;
    // Every op at its kind's median time, so that one stalled fsync does
    // not set the run's figure.
    let at_medians_s = [&append_us, &query_us, &total_us]
        .iter()
        .map(|t| t.len() as f64 * median(t) * 1e-6)
        .sum::<f64>();
    let ops_per_s_at_medians = ops as f64 / at_medians_s;
    E2e {
        setup_s: median(&setup),
        throughput_per_s: ops_per_s_at_medians,
        latency_p50_us: a.p50,
        lines: vec![
            format!("ops_per_s = {ops_per_s:.1} 1/s ({ops} ops over the loop's time)"),
            format!("ops_per_s_at_medians = {ops_per_s_at_medians:.1} 1/s (each op at its kind's median)"),
            format!("append_p50_us = {:.3} us ({} samples)", a.p50, a.count),
            format!("append_p99_us = {}", a.p99_text("us")),
            format!("query_p50_us = {:.3} us ({} samples)", q.p50, q.count),
            format!("query_p99_us = {}", q.p99_text("us")),
            format!("total_p50_us = {:.3} us ({} samples)", tot.p50, tot.count),
            format!(
                "recovery_ms = {recovery_ms:.3} ms (1 sample: {} snapshot ops + {} replayed records)",
                report.snapshot_ops, report.replayed_records
            ),
        ],
        speed,
    }
}
