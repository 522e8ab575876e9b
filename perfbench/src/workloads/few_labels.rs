//! `few_labels`: `multiprefix(values, labels, m, Plus, Auto)` on i64
//! values with uniform labels, `m` ∈ {1, 4, 16}, across four size classes.
//!
//! Each class contributes the same element total, and the calls of all
//! classes are interleaved in a seeded order, so the mix weighs the
//! `Auto` planner's small-call path, the per-element cost of the parallel
//! engines and the single-label vector kernels alike. With at most 16
//! labels the buckets stay in L1; many-label costs show on `nas_is`.

use super::{micros, secs, E2e};
use crate::calib::HostSpeed;
use crate::report::Tally;
use crate::rng::Rng;
use crate::stats::{median, Summary};
use multiprefix::op::Plus;
use multiprefix::serial::multiprefix_serial;
use multiprefix::{
    multiprefix, try_multiprefix_ctx, Engine, EngineKind, ExecConfig, MemoryRecorder, MpError,
    MultiprefixOutput, RunContext,
};
use std::sync::Arc;
use std::time::Instant;

/// log₂ of each size class's element count.
pub const CLASSES: [u32; 4] = [12, 15, 18, 22];
/// Label counts, cycled over each class's calls.
pub const LABEL_COUNTS: [usize; 3] = [1, 4, 16];
/// log₂ of the elements every class contributes to one round.
const ROUND_LOG2: u32 = 22;
/// Rounds per cycle: one per label count, so every class calls every `m`
/// equally often within a cycle.
const ROUNDS_PER_CYCLE: usize = LABEL_COUNTS.len();
/// Set-up repetitions (each one call per class and label count).
pub const WARMUPS: usize = 7;
const SALT: u64 = 0x4645_574C;
/// How often the host-speed reference runs between calls.
const SAMPLE_EVERY: std::time::Duration = std::time::Duration::from_millis(100);

/// Distinct inputs per (class, label count): small classes draw from a
/// pool so that calls do not all hit one cached input.
fn pool(log2: u32) -> usize {
    match log2 {
        12 => 16,
        15 => 8,
        18 => 4,
        _ => 1,
    }
}

/// The largest class's values, labels and sums (24 bytes an element).
pub fn working_set_bytes() -> u64 {
    24u64 << CLASSES[CLASSES.len() - 1]
}

/// One call's input and its reference output.
#[derive(Debug)]
struct Case {
    /// log₂ of the element count.
    log2: u32,
    m: usize,
    /// Index of the values in [`Inputs`].
    values: usize,
    labels: Vec<usize>,
    /// `multiprefix_serial` on this input (the Figure 2 oracle).
    expected: MultiprefixOutput<i64>,
}

/// Every input of one run.
#[derive(Debug)]
struct Inputs {
    values: Vec<Vec<i64>>,
    cases: Vec<Case>,
    /// `by_class[c][k]`: indices of the cases of class `c`, label count
    /// `LABEL_COUNTS[k]`.
    by_class: Vec<Vec<Vec<usize>>>,
}

impl Inputs {
    /// Generate the inputs of `seed` and their reference outputs.
    fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, SALT);
        let mut inputs = Inputs {
            values: Vec::new(),
            cases: Vec::new(),
            by_class: Vec::new(),
        };
        for &log2 in &CLASSES {
            let n = 1usize << log2;
            let mut per_m = vec![Vec::new(); LABEL_COUNTS.len()];
            for _ in 0..pool(log2) {
                let values = rng.values(n);
                for (k, &m) in LABEL_COUNTS.iter().enumerate() {
                    let labels = rng.labels(n, m);
                    let expected = multiprefix_serial(&values, &labels, m, Plus);
                    per_m[k].push(inputs.cases.len());
                    inputs.cases.push(Case {
                        log2,
                        m,
                        values: inputs.values.len(),
                        labels,
                        expected,
                    });
                }
                inputs.values.push(values);
            }
            inputs.by_class.push(per_m);
        }
        inputs
    }

    /// The values of `case`.
    fn values(&self, case: &Case) -> &[i64] {
        &self.values[case.values]
    }

    /// One cycle of calls (case indices) in a seeded interleaved order.
    fn cycle(&self, seed: u64) -> Vec<usize> {
        let mut calls = Vec::new();
        for round in 0..ROUNDS_PER_CYCLE {
            for (c, &log2) in CLASSES.iter().enumerate() {
                let per_m = &self.by_class[c];
                for j in 0..1usize << (ROUND_LOG2 - log2) {
                    let k = (j + round) % LABEL_COUNTS.len();
                    let p = (j / LABEL_COUNTS.len() + round) % per_m[k].len();
                    calls.push(per_m[k][p]);
                }
            }
        }
        Rng::new(seed, SALT ^ 1).shuffle(&mut calls);
        calls
    }

    /// One case per (class, label count): the warm-up set.
    fn warmup_set(&self) -> Vec<usize> {
        self.by_class
            .iter()
            .flat_map(|per_m| per_m.iter().map(|p| p[0]))
            .collect()
    }
}

/// Index of `case`'s (class, label count) group.
fn group(case: &Case) -> usize {
    let c = CLASSES.iter().position(|&l| l == case.log2).unwrap_or(0);
    let k = LABEL_COUNTS.iter().position(|&m| m == case.m).unwrap_or(0);
    c * LABEL_COUNTS.len() + k
}

/// Whether `out` equals the case's reference output.
fn matches(case: &Case, out: &Result<MultiprefixOutput<i64>, MpError>) -> Option<bool> {
    out.as_ref()
        .ok()
        .map(|o| o.sums == case.expected.sums && o.reductions == case.expected.reductions)
}

/// Time one `Auto` call on `case` and check its output. With a recorder
/// the call goes through `try_multiprefix_ctx` so the engines report
/// their phases; without, through the plain `multiprefix`.
fn call(
    inputs: &Inputs,
    case: &Case,
    ctx: Option<&RunContext>,
    tally: &mut Tally,
) -> std::time::Duration {
    let values = inputs.values(case);
    let start = Instant::now();
    let out = match ctx {
        None => multiprefix(values, &case.labels, case.m, Plus, Engine::Auto),
        Some(ctx) => try_multiprefix_ctx(
            values,
            &case.labels,
            case.m,
            Plus,
            Engine::Auto,
            ExecConfig::default(),
            ctx,
        ),
    };
    let took = start.elapsed();
    match matches(case, &out) {
        Some(ok) => {
            tally.check(ok);
        }
        None => tally.fail(),
    }
    took
}

/// Run the workload for about `seconds` of timed calls (whole cycles).
pub fn run(
    seed: u64,
    seconds: f64,
    recorder: Option<Arc<MemoryRecorder>>,
    tally: &mut Tally,
) -> E2e {
    let inputs = Inputs::generate(seed);
    // The engine tag names what `Auto` runs above its serial threshold;
    // below it, the serial loop's span lands under the same tag.
    let ctx = recorder.map(|rec| {
        RunContext::new()
            .with_recorder(rec)
            .for_engine(EngineKind::Chunked)
    });
    let ctx = ctx.as_ref();

    let warm = inputs.warmup_set();
    let setup: Vec<f64> = (0..WARMUPS)
        .map(|_| {
            warm.iter()
                .map(|&i| secs(call(&inputs, &inputs.cases[i], ctx, tally)))
                .sum()
        })
        .collect();

    let cycle = inputs.cycle(seed);
    let mut lat_us = Vec::new();
    // Call times per (class, label count).
    let mut group_us = vec![Vec::new(); CLASSES.len() * LABEL_COUNTS.len()];
    let mut elements = 0usize;
    let mut timed = 0.0;
    let wall = Instant::now();
    let mut speed = HostSpeed::default();
    while lat_us.is_empty() || (timed < seconds && secs(wall.elapsed()) < 3.0 * seconds) {
        for &i in &cycle {
            speed.sample_every(SAMPLE_EVERY);
            let case = &inputs.cases[i];
            let took = call(&inputs, case, ctx, tally);
            timed += secs(took);
            elements += 1 << case.log2;
            lat_us.push(micros(took));
            group_us[group(case)].push(micros(took));
        }
    }

    let s = Summary::of(&lat_us);
    let elems_per_s = elements as f64 / timed;
    // The same elements at each group's median call time: one slow call,
    // a 2²² one stalled by the host say, moves this far less than the sum.
    let at_medians_us: f64 = group_us.iter().map(|g| g.len() as f64 * median(g)).sum();
    let elems_per_s_at_medians = elements as f64 / (at_medians_us * 1e-6);
    let mut lines = vec![
        format!(
            "elems_per_s = {elems_per_s:.0} 1/s ({elements} elements over timed time, {} calls)",
            s.count
        ),
        format!(
            "elems_per_s_at_medians = {elems_per_s_at_medians:.0} 1/s (each call at its class and m median)"
        ),
        format!("call_p50_us = {:.3} us ({} samples)", s.p50, s.count),
        format!("call_p99 = {}", s.p99_text("us")),
    ];
    for (c, &log2) in CLASSES.iter().enumerate() {
        let per_m = LABEL_COUNTS.len();
        let class: Vec<f64> = group_us[c * per_m..(c + 1) * per_m].concat();
        let cs = Summary::of(&class);
        lines.push(format!(
            "class n=2^{log2}: call_p50_us = {:.3} us, ns_per_elem = {:.3} ns ({} samples)",
            cs.p50,
            cs.p50 * 1e3 / (1u64 << log2) as f64,
            cs.count
        ));
    }
    E2e {
        setup_s: median(&setup),
        throughput_per_s: elems_per_s_at_medians,
        latency_p50_us: s.p50,
        lines,
        speed,
    }
}
