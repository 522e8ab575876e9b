//! `nas_is`: the NAS IS class-A protocol at paper scale.
//!
//! 2²³ keys in `[0, 2¹⁹)` from the NAS generator (each key a sum of four
//! uniforms, so bucket loads are bell-shaped), `perturb_keys` before
//! every iteration, and `rank_keys(.., Engine::Auto)` timed. Many labels
//! and memory-bound: the 4 MiB bucket table exceeds L2 and the 256 MiB
//! working set exceeds the last-level cache.

use super::{micros, secs, E2e};
use crate::calib::HostSpeed;
use crate::report::Tally;
use crate::rng::Rng;
use crate::stats::{median, Summary};
use mp_sort::nas_is::{
    full_verify, generate_keys, perturb_keys, NasRng, FULL_N, ITERATIONS, MAX_KEY,
};
use mp_sort::rank_sort::rank_keys;
use multiprefix::{Engine, MpError};
use std::time::Instant;

/// Untimed warm-up iterations (the protocol's untimed first iteration,
/// repeated so that set-up time is a median).
pub const WARMUPS: usize = 5;
/// Fewest timed iterations, however long they take.
pub const MIN_ITERATIONS: usize = 5;
const SALT: u64 = 0x4E41_5349;

/// Keys, one `usize` ones-vector, the sums and the ranks: 32 bytes a key,
/// plus the bucket reductions.
pub fn working_set_bytes() -> u64 {
    (32 * FULL_N + 8 * MAX_KEY) as u64
}

/// The seeded NAS keys.
pub fn keys(seed: u64) -> Vec<usize> {
    let mut rng = NasRng::with_seed(Rng::new(seed, SALT).next_u64());
    generate_keys(FULL_N, MAX_KEY, &mut rng)
}

/// Check one ranking in the NAS sense (a permutation that sorts the keys).
pub fn check(keys: &[usize], ranks: Result<Vec<usize>, MpError>, tally: &mut Tally) {
    match ranks {
        Ok(ranks) => {
            tally.check(full_verify(keys, &ranks));
        }
        Err(_) => tally.fail(),
    }
}

/// Run the workload for about `seconds` of timed ranking.
pub fn run(seed: u64, seconds: f64, tally: &mut Tally) -> E2e {
    let mut keys = keys(seed);
    let mut iteration = 0usize;
    let mut rank_once = |keys: &mut Vec<usize>, tally: &mut Tally| {
        perturb_keys(keys, 1 + iteration % ITERATIONS, MAX_KEY);
        iteration += 1;
        let start = Instant::now();
        let ranks = rank_keys(keys, MAX_KEY, Engine::Auto);
        let took = start.elapsed();
        check(keys, ranks, tally);
        took
    };

    let setup: Vec<f64> = (0..WARMUPS)
        .map(|_| secs(rank_once(&mut keys, tally)))
        .collect();

    let wall = Instant::now();
    let mut speed = HostSpeed::default();
    let mut times = Vec::new();
    let mut timed = 0.0;
    while times.len() < MIN_ITERATIONS || (timed < seconds && secs(wall.elapsed()) < 3.0 * seconds)
    {
        speed.sample(3);
        let took = rank_once(&mut keys, tally);
        timed += secs(took);
        times.push(micros(took));
    }

    let s = Summary::of(&times);
    let elems_per_s = (times.len() * FULL_N) as f64 / timed;
    // At the median iteration time, so that one stalled iteration does
    // not set the run's figure.
    let elems_per_s_at_median = FULL_N as f64 / (s.p50 * 1e-6);
    E2e {
        setup_s: median(&setup),
        throughput_per_s: elems_per_s_at_median,
        latency_p50_us: s.p50,
        lines: vec![
            format!(
                "elems_per_s = {elems_per_s:.0} 1/s ({} iterations of {FULL_N} keys)",
                s.count
            ),
            format!("elems_per_s_at_median = {elems_per_s_at_median:.0} 1/s"),
            format!(
                "iteration_p50_ms = {:.3} ms ({} samples)",
                s.p50 / 1e3,
                s.count
            ),
            format!("iteration_p99 = {}", s.p99_text("us")),
        ],
        speed,
    }
}
