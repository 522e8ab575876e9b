//! The benchmark command.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a report, then one JSON result line. With `--trace 0` the line
//! carries the end-to-end metrics; with `--trace 1` the per-layer ones,
//! and the report compares the workload's end-to-end figures with and
//! without the library's recorders installed. Exits 1 if any output was
//! wrong, 2 on bad arguments.

use multiprefix::MemoryRecorder;
use perfbench::calib;
use perfbench::host;
use perfbench::layers;
use perfbench::report::{metric, result_line, Metric, Tally, END_TO_END, PER_LAYER};
use perfbench::workloads::{few_labels, nas_is, service_small, session_rw, E2e, NAMES};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <nas_is|few_labels|service_small|session_rw> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    NAMES
                        .into_iter()
                        .find(|n| *n == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn working_set_bytes(workload: &str) -> u64 {
    match workload {
        "nas_is" => nas_is::working_set_bytes(),
        "few_labels" => few_labels::working_set_bytes(),
        // The largest request's values and labels.
        "service_small" => 16 * 4096,
        _ => session_rw::working_set_bytes(),
    }
}

/// Run `workload` once; with a recorder, installed wherever the API the
/// workload calls accepts one.
fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    recorder: Option<Arc<MemoryRecorder>>,
    tally: &mut Tally,
) -> E2e {
    match workload {
        "nas_is" => nas_is::run(seed, seconds, tally),
        "few_labels" => few_labels::run(seed, seconds, recorder, tally),
        "service_small" => service_small::run(seed, seconds, recorder, tally).0,
        _ => session_rw::run(seed, seconds, recorder, tally),
    }
}

/// The end-to-end figures the result line carries: times and rates
/// adjusted to the nominal host speed (see `calib`).
fn e2e_metrics(e: &E2e) -> [(&'static str, f64); 3] {
    [
        ("setup_s", e.setup_s / e.speed.slowdown()),
        ("throughput_per_s", e.throughput_per_s * e.speed.slowdown()),
        ("latency_p50_us", e.latency_p50_us / e.speed.slowdown()),
    ]
}

fn print_e2e(label: &str, e: &E2e) {
    let slowdown = e.speed.slowdown();
    println!(
        "{label} host slowdown = {slowdown:.4} (median reference {:.4} ms of {} samples, nominal {:.4} ms)",
        slowdown * calib::NOMINAL_S * 1e3,
        e.speed.count(),
        calib::NOMINAL_S * 1e3
    );
    println!("{label} measured setup_s = {} s", e.setup_s);
    println!(
        "{label} measured throughput_per_s = {} 1/s",
        e.throughput_per_s
    );
    println!("{label} measured latency_p50_us = {} us", e.latency_p50_us);
    for (name, value) in e2e_metrics(e) {
        let unit = metric(END_TO_END, name, value).unit;
        println!("{label} metric {name} = {value} {unit}");
    }
    for line in &e.lines {
        println!("{label}   {line}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let llc = host::llc_bytes();
    let ws = working_set_bytes(args.workload);
    println!(
        "host nproc={} simd={} l2={} llc={} rustc=\"{}\"",
        host::nproc(),
        host::simd_level(),
        host::human_bytes(host::l2_bytes()),
        host::human_bytes(llc),
        host::rustc()
    );
    println!(
        "run workload={} seed={} seconds={} trace={} working_set={} ({:.2}x llc)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::human_bytes(ws),
        ws as f64 / llc.max(1) as f64
    );

    let mut tally = Tally::default();
    let metrics: Vec<Metric> = if !args.trace {
        let e = run_workload(args.workload, args.seed, args.seconds, None, &mut tally);
        print_e2e("e2e", &e);
        let mut m: Vec<Metric> = e2e_metrics(&e)
            .into_iter()
            .map(|(name, v)| metric(END_TO_END, name, v))
            .collect();
        m.push(metric(END_TO_END, "peak_rss_mib", host::peak_rss_mib()));
        m
    } else {
        let half = args.seconds / 2.0;
        let plain = run_workload(args.workload, args.seed, half, None, &mut tally);
        let rec = MemoryRecorder::shared();
        let traced = run_workload(args.workload, args.seed, half, Some(rec), &mut tally);
        print_e2e("untraced", &plain);
        print_e2e("traced", &traced);
        if args.workload == "nas_is" {
            println!(
                "traced   note: rank_keys takes no recorder, so both passes run the same code"
            );
        }
        let delta = |a: f64, b: f64| (b - a) / a * 100.0;
        for ((name, a), (_, b)) in e2e_metrics(&plain).into_iter().zip(e2e_metrics(&traced)) {
            println!(
                "trace_overhead {name}: untraced={a} traced={b} diff={:+.2}%",
                delta(a, b)
            );
        }
        let mut notes = Vec::new();
        let mut m = layers::run(args.seed, &mut tally, &mut notes);
        m.push(metric(
            PER_LAYER,
            "trace.throughput_delta_pct",
            delta(plain.throughput_per_s, traced.throughput_per_s),
        ));
        m.push(metric(
            PER_LAYER,
            "trace.latency_p50_delta_pct",
            delta(plain.latency_p50_us, traced.latency_p50_us),
        ));
        for mm in &m {
            println!("layer metric {} = {} {}", mm.name, mm.value, mm.unit);
        }
        for note in notes {
            println!("layer note {note}");
        }
        m
    };
    println!(
        "checks attempted={} failed={} wrong={} error_rate={}",
        tally.attempted,
        tally.failed,
        tally.wrong,
        tally.error_rate()
    );
    if tally.attempted == 0 {
        eprintln!("perfbench: no output was checked");
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(&tally, &metrics));
    if tally.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} wrong outputs", tally.wrong);
        ExitCode::FAILURE
    }
}
