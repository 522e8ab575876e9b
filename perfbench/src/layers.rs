//! The traced run's per-layer metrics.
//!
//! Each probe times calls into one layer's public functions from here,
//! and reads the library's `MemoryRecorder` where a layer reports into
//! one. No tracing is added inside the library. Every output a probe
//! produces is checked, like the workloads' outputs.

use crate::report::{metric, Metric, Tally, PER_LAYER};
use crate::rng::Rng;
use crate::stats::{median, Summary};
use crate::workloads::few_labels::{CLASSES, LABEL_COUNTS};
use crate::workloads::{micros, nas_is, remove_scratch, scratch_dir, service_small, session_rw};
use mp_sort::nas_is::MAX_KEY;
use mp_sort::rank_sort::rank_keys;
use multiprefix::blocked::multiprefix_blocked;
use multiprefix::obs::HistogramSnapshot;
use multiprefix::op::Plus;
use multiprefix::scan::{exclusive_scan_partition, exclusive_scan_serial};
use multiprefix::serial::multiprefix_serial;
use multiprefix::service::{Service, ServiceConfig};
use multiprefix::{
    multiprefix, try_multiprefix, try_multiprefix_ctx, DispatchOpts, Dispatcher, DispatcherConfig,
    DurableSession, Engine, EngineKind, ExecConfig, MemoryRecorder, MpError, MultiprefixOutput,
    RunContext, SessionCore, SessionOptions,
};
use std::time::{Duration, Instant};

const SALT: u64 = 0x4C41_5945;
/// The engines `Auto` is compared against, then `Auto` itself.
const ENGINES: [Engine; 4] = [
    Engine::Serial,
    Engine::Chunked,
    Engine::Blocked,
    Engine::Auto,
];
/// Elements and labels of the engine-phase and vector-kernel probes.
const PROBE_LOG2: u32 = 22;
const PROBE_M: usize = 16;
/// Seconds of traced `service_small` load behind the service metrics.
pub const SERVICE_SECONDS: f64 = 4.0;

/// Every per-layer metric except the tracing overhead, which the caller
/// measures around the workload itself. `notes` collects each probe's
/// sample counts and one line per metric whose value needs a caveat.
pub fn run(seed: u64, tally: &mut Tally, notes: &mut Vec<String>) -> Vec<Metric> {
    let mut out = Vec::new();
    api_classes(seed, tally, &mut out, notes);
    nas(seed, tally, &mut out, notes);
    engine_phases(seed, tally, &mut out, notes);
    simd(seed, tally, &mut out, notes);
    dispatch(seed, tally, &mut out, notes);
    service(seed, tally, &mut out, notes);
    session(seed, tally, &mut out, notes);
    out
}

fn push(out: &mut Vec<Metric>, name: &str, value: f64) {
    out.push(metric(PER_LAYER, name, value));
}

fn check(
    tally: &mut Tally,
    got: &Result<MultiprefixOutput<i64>, MpError>,
    want: &MultiprefixOutput<i64>,
) {
    match got {
        Ok(o) => {
            tally.check(o.sums == want.sums && o.reductions == want.reductions);
        }
        Err(_) => tally.fail(),
    }
}

/// Median seconds of each engine over `reps` rounds, rotating which
/// engine goes first so that drift does not favour one.
fn race(reps: usize, engines: usize, mut call: impl FnMut(usize) -> Duration) -> Vec<f64> {
    let mut times = vec![Vec::new(); engines];
    for rep in 0..reps {
        for k in 0..engines {
            let e = (k + rep) % engines;
            times[e].push(call(e).as_secs_f64());
        }
    }
    times.iter().map(|t| median(t)).collect()
}

/// `api.auto_vs_serial.n*` and `api.auto_vs_best.n*`: `Auto` against
/// each engine on few-label inputs of each size class, summed over the
/// label counts.
fn api_classes(seed: u64, tally: &mut Tally, out: &mut Vec<Metric>, notes: &mut Vec<String>) {
    for &log2 in &CLASSES {
        let n = 1usize << log2;
        let reps = match log2 {
            12 => 201,
            15 => 51,
            18 => 11,
            _ => 3,
        };
        let mut rng = Rng::new(seed, SALT ^ log2 as u64);
        let values = rng.values(n);
        let (mut auto, mut serial, mut best) = (0.0, 0.0, 0.0);
        for &m in &LABEL_COUNTS {
            let labels = rng.labels(n, m);
            let want = multiprefix_serial(&values, &labels, m, Plus);
            let med = race(reps, ENGINES.len(), |e| {
                let t = Instant::now();
                let got = multiprefix(&values, &labels, m, Plus, ENGINES[e]);
                let took = t.elapsed();
                check(tally, &got, &want);
                took
            });
            auto += med[3];
            serial += med[0];
            best += med[..3].iter().copied().fold(f64::INFINITY, f64::min);
        }
        notes.push(format!(
            "api.*.n{log2}: medians of {reps} calls per engine and m"
        ));
        push(out, &format!("api.auto_vs_serial.n{log2}"), auto / serial);
        push(out, &format!("api.auto_vs_best.n{log2}"), auto / best);
    }
}

/// `api.*.nas_is`, `mp_sort.multiprefix_share` and
/// `scan.partition_ns_per_elem` on the NAS IS input.
fn nas(seed: u64, tally: &mut Tally, out: &mut Vec<Metric>, notes: &mut Vec<String>) {
    let keys = nas_is::keys(seed);
    let med = race(3, ENGINES.len(), |e| {
        let t = Instant::now();
        let ranks = rank_keys(&keys, MAX_KEY, ENGINES[e]);
        let took = t.elapsed();
        nas_is::check(&keys, ranks, tally);
        took
    });
    push(out, "api.auto_vs_serial.nas_is", med[3] / med[0]);
    let best = med[..3].iter().copied().fold(f64::INFINITY, f64::min);
    push(out, "api.auto_vs_best.nas_is", med[3] / best);

    // The multiprefix inside rank_keys, alone, on the same input.
    let ones = vec![1i64; keys.len()];
    let want = multiprefix_serial(&ones, &keys, MAX_KEY, Plus);
    let mp = race(3, 1, |_| {
        let t = Instant::now();
        let got = multiprefix(&ones, &keys, MAX_KEY, Plus, Engine::Auto);
        let took = t.elapsed();
        check(tally, &got, &want);
        took
    });
    push(out, "mp_sort.multiprefix_share", mp[0] / med[3]);

    // The partition scan rank_keys runs over the bucket totals.
    let totals = want.reductions;
    let want_scan = exclusive_scan_serial(&totals, Plus);
    let scan = race(21, 1, |_| {
        let t = Instant::now();
        let got = exclusive_scan_partition(&totals, Plus);
        let took = t.elapsed();
        tally.check(got == want_scan);
        took
    });
    push(
        out,
        "scan.partition_ns_per_elem",
        scan[0] * 1e9 / totals.len() as f64,
    );
    notes.push(
        "api.*.nas_is, mp_sort.multiprefix_share: medians of 3 calls each; \
         scan.partition_ns_per_elem: median of 21"
            .into(),
    );
}

fn hist_mean_ns(rec: &MemoryRecorder, name: &str) -> f64 {
    rec.histogram(name)
        .filter(|h| h.count > 0)
        .map_or(f64::NAN, |h| h.sum as f64 / h.count as f64)
}

/// Per-element cost of the serial loop and the blocked engine, and the
/// chunked engine's phases, on n = 2²², m = 16.
fn engine_phases(seed: u64, tally: &mut Tally, out: &mut Vec<Metric>, notes: &mut Vec<String>) {
    let n = 1usize << PROBE_LOG2;
    let mut rng = Rng::new(seed, SALT ^ 0x100);
    let values = rng.values(n);
    let labels = rng.labels(n, PROBE_M);
    let want = multiprefix_serial(&values, &labels, PROBE_M, Plus);
    let rec = MemoryRecorder::shared();
    let ctx = RunContext::new()
        .with_recorder(rec.clone())
        .for_engine(EngineKind::Chunked);
    let med = race(5, 3, |e| {
        let t = Instant::now();
        let got = match e {
            0 => Ok(multiprefix_serial(&values, &labels, PROBE_M, Plus)),
            1 => Ok(multiprefix_blocked(&values, &labels, PROBE_M, Plus)),
            _ => try_multiprefix_ctx(
                &values,
                &labels,
                PROBE_M,
                Plus,
                Engine::Chunked,
                ExecConfig::default(),
                &ctx,
            ),
        };
        let took = t.elapsed();
        check(tally, &got, &want);
        took
    });
    push(out, "serial.ns_per_elem", med[0] * 1e9 / n as f64);
    push(out, "blocked.ns_per_elem", med[1] * 1e9 / n as f64);
    let phase = |p: &str| hist_mean_ns(&rec, &format!("engine.chunked.phase.{p}"));
    push(out, "chunked.local_ns_per_elem", phase("local") / n as f64);
    push(out, "chunked.combine_us", phase("combine") / 1e3);
    push(out, "chunked.apply_ns_per_elem", phase("apply") / n as f64);
    notes.push("serial.*, blocked.*: medians of 5 calls; chunked.*: means of 5 spans".into());
}

/// `simd.m1_speedup`: the resolved vector kernels against
/// `force_scalar`, at m = 1 and n = 2²².
fn simd(seed: u64, tally: &mut Tally, out: &mut Vec<Metric>, notes: &mut Vec<String>) {
    let n = 1usize << PROBE_LOG2;
    let values = Rng::new(seed, SALT ^ 0x200).values(n);
    let labels = vec![0usize; n];
    let want = multiprefix_serial(&values, &labels, 1, Plus);
    let configs = [
        ExecConfig::default(),
        ExecConfig::default().force_scalar(true),
    ];
    let med = race(7, 2, |e| {
        let t = Instant::now();
        let got = try_multiprefix(&values, &labels, 1, Plus, Engine::Auto, configs[e]);
        let took = t.elapsed();
        check(tally, &got, &want);
        took
    });
    push(out, "simd.m1_speedup", med[1] / med[0]);
    notes.push("simd.m1_speedup: medians of 7 calls per kernel".into());
}

/// `dispatch.overhead_us.n*`: `Dispatcher::dispatch` under the default
/// chain minus a direct call of the engine it runs first, per request
/// size.
fn dispatch(seed: u64, tally: &mut Tally, out: &mut Vec<Metric>, notes: &mut Vec<String>) {
    let dispatcher = Dispatcher::new(DispatcherConfig::default()).expect("default config is valid");
    let first = DispatcherConfig::default().chain[0];
    let direct = match first {
        EngineKind::Serial => Engine::Serial,
        EngineKind::Spinetree => Engine::Spinetree,
        EngineKind::Blocked => Engine::Blocked,
        _ => Engine::Chunked,
    };
    let opts = DispatchOpts::default();
    for (n, reps) in [(64usize, 2001usize), (512, 1001), (4096, 301)] {
        let m = n / 8;
        let mut rng = Rng::new(seed, SALT ^ n as u64);
        let inputs: Vec<_> = (0..16)
            .map(|_| {
                let values = rng.values(n);
                let labels = rng.labels(n, m);
                let want = multiprefix_serial(&values, &labels, m, Plus);
                (values, labels, want)
            })
            .collect();
        let mut i = 0;
        let med = race(reps, 2, |e| {
            let (values, labels, want) = &inputs[i % inputs.len()];
            i += 1;
            let t = Instant::now();
            let got = if e == 0 {
                dispatcher
                    .dispatch(values, labels, m, Plus, &opts)
                    .map(|o| o.output)
            } else {
                try_multiprefix(values, labels, m, Plus, direct, ExecConfig::default())
            };
            let took = t.elapsed();
            check(tally, &got, want);
            took
        });
        push(
            out,
            &format!("dispatch.overhead_us.n{n}"),
            (med[0] - med[1]) * 1e6,
        );
        notes.push(format!(
            "dispatch.overhead_us.n{n}: medians of {reps} calls each way"
        ));
    }
}

/// A histogram's median in µs.
fn hist_p50_us(h: &Option<HistogramSnapshot>) -> f64 {
    h.as_ref()
        .and_then(|h| h.p50())
        .map_or(f64::NAN, |ns| ns as f64 / 1e3)
}

/// A histogram's 99th percentile in µs, when at least ten samples lie
/// beyond it; otherwise `NaN` and a note.
fn hist_p99_us(h: &Option<HistogramSnapshot>, name: &str, notes: &mut Vec<String>) -> f64 {
    let count = h.as_ref().map_or(0, |h| h.count as usize);
    if !crate::stats::supports(count, 0.99) {
        notes.push(format!("{name}: absent, {count} samples support no p99"));
        return f64::NAN;
    }
    h.as_ref()
        .and_then(|h| h.p99())
        .map_or(f64::NAN, |ns| ns as f64 / 1e3)
}

/// The service, dispatcher and load-generator metrics, from a traced
/// `service_small` run.
fn service(seed: u64, tally: &mut Tally, out: &mut Vec<Metric>, notes: &mut Vec<String>) {
    let rec = MemoryRecorder::shared();
    let (_, detail) = service_small::run(seed, SERVICE_SECONDS, Some(rec.clone()), tally);
    let attempts = rec.histogram("dispatch.chunked.attempt_ns");
    notes.push(format!(
        "service.*, dispatch.attempt_p50_us: {} requests, {} attempts, {} queue waits, {} executions",
        detail.metrics.admitted,
        attempts.as_ref().map_or(0, |h| h.count),
        rec.histogram("service.queue.wait_ns").map_or(0, |h| h.count),
        rec.histogram("service.exec_ns").map_or(0, |h| h.count),
    ));
    push(out, "dispatch.attempt_p50_us", hist_p50_us(&attempts));
    let retries: u64 = [
        "atomic",
        "shard",
        "chunked",
        "blocked",
        "spinetree",
        "serial",
    ]
    .iter()
    .map(|k| rec.counter_value(&format!("dispatch.{k}.retries")))
    .sum();
    push(out, "dispatch.retries", retries as f64);
    push(
        out,
        "dispatch.fallbacks",
        rec.counter_value("dispatch.fallbacks") as f64,
    );
    let wait = rec.histogram("service.queue.wait_ns");
    let exec = rec.histogram("service.exec_ns");
    push(out, "service.wait_p50_us", hist_p50_us(&wait));
    push(
        out,
        "service.wait_p99_us",
        hist_p99_us(&wait, "service.wait_p99_us", notes),
    );
    push(out, "service.exec_p50_us", hist_p50_us(&exec));
    push(
        out,
        "service.exec_p99_us",
        hist_p99_us(&exec, "service.exec_p99_us", notes),
    );
    let m = detail.metrics;
    push(
        out,
        "service.coalesce_ratio",
        m.coalesced_requests as f64 / m.completed.max(1) as f64,
    );
    push(
        out,
        "service.members_per_batch",
        m.coalesced_requests as f64 / m.coalesced_batches.max(1) as f64,
    );
    push(out, "service.steals", m.steals as f64);
    push(out, "service.shed", m.shed as f64);
    push(out, "service.expired", m.expired as f64);
    push(out, "service.rejected", m.rejected as f64);
    let late = Summary::of(&detail.open.late_us);
    if late.p99.is_none() {
        notes.push(format!(
            "loadgen.late_p99_us: absent, {} sends support no p99",
            late.count
        ));
    }
    push(out, "loadgen.late_p99_us", late.p99.unwrap_or(f64::NAN));
    push(out, "loadgen.backlog_max", detail.open.backlog_max as f64);
}

/// The session layers: the in-memory engine, the WAL with and without
/// fsync, the service's hosting cost, queries and replay.
fn session(seed: u64, tally: &mut Tally, out: &mut Vec<Metric>, notes: &mut Vec<String>) {
    const CORE_APPENDS: usize = 1 << 18;
    const WAL_APPENDS: usize = 1 << 17;
    const SYNCED_APPENDS: usize = 2000;
    const QUERIES: usize = 1 << 18;
    let m = session_rw::M;
    let mut rng = Rng::new(seed, SALT ^ 0x300);
    let ops: Vec<(usize, i64)> = (0..CORE_APPENDS)
        .map(|_| (rng.below(m), rng.value()))
        .collect();
    let mut shadow = session_rw::Shadow::new(m);
    for &(l, v) in &ops {
        shadow.append(l, v);
    }

    // SessionCore::append, timed as a batch (one append is too short to
    // time alone).
    let mut core = SessionCore::new(m, Plus);
    let t = Instant::now();
    for &(l, v) in &ops {
        let _ = std::hint::black_box(core.append(l, v));
    }
    push(
        out,
        "session.apply_us",
        micros(t.elapsed()) / CORE_APPENDS as f64,
    );
    for _ in 0..64 {
        let i = rng.below(CORE_APPENDS) as u64;
        tally.check(core.prefix_query(i) == Ok(shadow.prefix(i)));
    }

    // WAL appends without fsync, interleaved with the same appends
    // through the service's session API, also without fsync.
    let dir = scratch_dir("layers");
    let no_sync = SessionOptions {
        no_sync: true,
        ..SessionOptions::default()
    };
    let mut store =
        DurableSession::open(&dir.join("wal"), m, Plus, no_sync.clone()).expect("store opens");
    let svc = Service::new(Plus, ServiceConfig::default()).expect("default config is valid");
    let id = svc
        .open_session(&dir.join("hosted"), m, no_sync)
        .expect("store opens");
    let (mut direct_us, mut hosted_us) = (Vec::new(), Vec::new());
    for (i, &(l, v)) in ops[..WAL_APPENDS].iter().enumerate() {
        let t = Instant::now();
        let a = store.append(l, v);
        direct_us.push(micros(t.elapsed()));
        let t = Instant::now();
        let b = svc.session_append(id, l, v);
        hosted_us.push(micros(t.elapsed()));
        for got in [a, b] {
            match got {
                Ok(index) => {
                    tally.check(index == i as u64);
                }
                Err(_) => tally.fail(),
            }
        }
    }
    let wal_us = median(&direct_us);
    push(out, "session.wal_append_us", wal_us);
    push(out, "session.host_overhead_us", median(&hosted_us) - wal_us);
    let _ = svc.session_close(id);
    svc.shutdown();

    // Queries on the WAL-backed store, timed as a batch.
    let indices: Vec<u64> = (0..QUERIES)
        .map(|_| rng.below(WAL_APPENDS) as u64)
        .collect();
    let t = Instant::now();
    for &i in &indices {
        let _ = std::hint::black_box(store.prefix_query(i));
    }
    push(
        out,
        "session.query_ns",
        micros(t.elapsed()) * 1e3 / QUERIES as f64,
    );
    for &i in indices.iter().take(64) {
        tally.check(store.prefix_query(i) == Ok(shadow.prefix(i)));
    }

    // Replay: reopen the store, whose WAL holds every append (no snapshot).
    store.close().expect("store closes");
    let t = Instant::now();
    let reopened =
        DurableSession::<i64, Plus>::open(&dir.join("wal"), m, Plus, SessionOptions::default())
            .expect("store recovers");
    let replay = t.elapsed();
    let replayed = reopened.recovery_report().replayed_records;
    tally.check(replayed == WAL_APPENDS as u64 && reopened.len() == WAL_APPENDS);
    push(
        out,
        "session.replay_ns_per_record",
        replay.as_nanos() as f64 / replayed.max(1) as f64,
    );
    drop(reopened);

    // Synced appends: the default durability contract.
    let mut synced = DurableSession::open(&dir.join("synced"), m, Plus, SessionOptions::default())
        .expect("store opens");
    let mut synced_us = Vec::new();
    for (i, &(l, v)) in ops[..SYNCED_APPENDS].iter().enumerate() {
        let t = Instant::now();
        let got = synced.append(l, v);
        synced_us.push(micros(t.elapsed()));
        match got {
            Ok(index) => {
                tally.check(index == i as u64);
            }
            Err(_) => tally.fail(),
        }
    }
    push(out, "session.fsync_us", median(&synced_us) - wal_us);
    notes.push(format!(
        "session.*: apply over {CORE_APPENDS} appends, medians of {WAL_APPENDS} unsynced and \
         {SYNCED_APPENDS} synced appends, query over {QUERIES} queries, replay of {replayed} records"
    ));
    let _ = synced.close();
    remove_scratch(&dir);
}
