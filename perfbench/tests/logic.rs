//! Tests of the harness's own logic: percentiles and their sample-count
//! rule, the open loop's due-time clock, metric naming and the result
//! line, and that a wrong output is counted as an error.

use multiprefix::op::Plus;
use multiprefix::service::{Reply, Service};
use perfbench::loadgen::{latency_ns, poisson_schedule, OpenLoop, Step};
use perfbench::report::{
    result_line, valid_name, valid_unit, Metric, Tally, END_TO_END, PER_LAYER,
};
use perfbench::rng::Rng;
use perfbench::stats::{beyond, median, quantile, rank, supports, Summary, MIN_BEYOND};
use perfbench::workloads::{nas_is, service_small, session_rw, NAMES};

#[test]
fn nearest_rank_quantiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(rank(100, 0.5), 50);
    assert_eq!(quantile(&v, 0.5), Some(50.0));
    assert_eq!(quantile(&v, 0.99), Some(99.0));
    assert_eq!(quantile(&v, 1.0), Some(100.0));
    assert_eq!(quantile(&[], 0.5), None);
    assert_eq!(rank(1, 0.0), 1, "rank is at least 1");
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    // ceil(0.99 · 999) = 990 leaves 9 samples above the 99th percentile.
    assert_eq!(beyond(999, 0.99), 9);
    assert!(!supports(999, 0.99));
    assert_eq!(beyond(1000, 0.99), MIN_BEYOND);
    assert!(supports(1000, 0.99));
    assert!(supports(20, 0.5));
    assert!(!supports(19, 0.5));

    let few: Vec<f64> = (0..999).map(f64::from).collect();
    let s = Summary::of(&few);
    assert_eq!((s.count, s.p99, s.beyond_p99), (999, None, 9));
    assert!(s.p99_text("us").starts_with("absent (9 samples beyond p99"));

    let enough: Vec<f64> = (0..1000).rev().map(f64::from).collect();
    let s = Summary::of(&enough);
    assert_eq!(s.count, 1000);
    assert_eq!(s.p50, 499.0);
    assert_eq!(s.p99, Some(989.0));
}

#[test]
fn latency_runs_from_the_due_time() {
    // A request due at t=100 that the generator only sent at t=200 and
    // that resolved at t=260 waited 160, not 60.
    assert_eq!(latency_ns(100, 260), 160);
    assert_eq!(latency_ns(300, 250), 0, "never negative");
}

#[test]
fn open_loop_on_a_synthetic_clock() {
    let mut gen = OpenLoop::new(vec![100, 200, 300]);
    assert_eq!(gen.step(50), Step::Wait(50));
    assert_eq!(
        gen.step(100),
        Step::Send {
            index: 0,
            due_ns: 100
        }
    );
    assert_eq!(gen.step(150), Step::Wait(50));
    // The generator stalled until 250: request 1 goes out 50 late.
    assert_eq!(
        gen.step(250),
        Step::Send {
            index: 1,
            due_ns: 200
        }
    );
    // A stall past two due times leaves a backlog of two.
    let mut stalled = OpenLoop::new(vec![10, 20, 30]);
    assert_eq!(
        stalled.step(25),
        Step::Send {
            index: 0,
            due_ns: 10
        }
    );
    assert_eq!(
        stalled.step(25),
        Step::Send {
            index: 1,
            due_ns: 20
        }
    );
    assert_eq!(stalled.backlog_max(), 2);
    assert_eq!(stalled.late_ns(), &[15, 5]);

    assert_eq!(
        gen.step(400),
        Step::Send {
            index: 2,
            due_ns: 300
        }
    );
    assert_eq!(gen.step(400), Step::Done);
    assert_eq!(gen.late_ns(), &[0, 50, 100]);
    assert_eq!(gen.backlog_max(), 1);
}

#[test]
fn poisson_schedule_is_seeded_and_has_the_asked_rate() {
    let a = poisson_schedule(&mut Rng::new(7, 1), 10_000.0, 2_000_000_000);
    let b = poisson_schedule(&mut Rng::new(7, 1), 10_000.0, 2_000_000_000);
    assert_eq!(a, b, "same seed, same schedule");
    assert_ne!(
        a,
        poisson_schedule(&mut Rng::new(8, 1), 10_000.0, 2_000_000_000)
    );
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(a.iter().all(|&t| t < 2_000_000_000));
    let rate = a.len() as f64 / 2.0;
    assert!((rate - 10_000.0).abs() < 300.0, "rate {rate}");
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(unit), "{name}: {unit}");
    }
    for name in NAMES {
        assert!(valid_name(name), "{name}");
    }
    let mut all: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    all.extend(NAMES);
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "names are used once");

    for bad in ["", "_lead", ".lead", "a b", "a{b}", "é", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?}");
    }
    assert!(valid_name(&"x".repeat(64)));
    for bad in ["", "m s", "µs", &"u".repeat(17)] {
        assert!(!valid_unit(bad), "{bad:?}");
    }
    assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MiB"));
}

#[test]
fn benchmark_json_lists_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let flat: String = text.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for name in NAMES {
        assert!(
            flat.contains(&format!("\"name\":\"{name}\",\"why\"")),
            "{name}"
        );
    }
    let names = flat.matches("\"name\":").count();
    assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + NAMES.len());
}

#[test]
fn result_line_counts_wrong_outputs_as_failures() {
    let mut t = Tally::default();
    assert!(t.check(true));
    assert!(!t.check(false));
    t.fail();
    assert_eq!((t.attempted, t.failed, t.wrong), (3, 1, 1));
    assert!(!t.correct());
    assert!((t.error_rate() - 2.0 / 3.0).abs() < 1e-12);
    let line = result_line(
        &t,
        &[
            Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            },
            Metric {
                name: "latency_p50_us",
                unit: "us",
                value: f64::NAN,
            },
        ],
    );
    assert_eq!(
        line,
        "{\"correct\": false, \"attempted\": 3, \"failed\": 2, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"latency_p50_us\": {\"value\": 0, \"unit\": \"us\"}}}"
    );
}

#[test]
fn an_injected_wrong_service_reply_is_counted() {
    let pool = service_small::Pool::generate(3);
    let svc: Service<i64, Plus> = Service::new(Plus, service_small::config(None)).unwrap();
    let reply = svc.submit(pool.request(0)).unwrap().take();
    svc.shutdown();
    let mut tally = Tally::default();
    assert!(pool.check(0, reply.clone(), &mut tally));
    let Ok(Reply::Prefix(mut out)) = reply else {
        panic!("a multiprefix request yields a prefix reply");
    };
    out.sums[0] += 1;
    assert!(!pool.check(0, Ok(Reply::Prefix(out)), &mut tally));
    assert!(!pool.check(0, Err(multiprefix::MpError::Cancelled), &mut tally));
    assert_eq!((tally.attempted, tally.wrong, tally.failed), (3, 1, 1));
}

#[test]
fn an_injected_wrong_ranking_is_counted() {
    let keys = vec![5usize, 1, 3, 3];
    let mut tally = Tally::default();
    nas_is::check(&keys, Ok(vec![3, 0, 1, 2]), &mut tally);
    assert!(tally.correct());
    nas_is::check(&keys, Ok(vec![0, 3, 1, 2]), &mut tally);
    nas_is::check(&keys, Ok(vec![3, 0, 1, 1]), &mut tally);
    assert_eq!((tally.attempted, tally.wrong), (3, 2));
}

#[test]
fn session_shadow_matches_the_durable_store() {
    let dir = std::env::temp_dir().join(format!("perfbench-shadow-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = Rng::new(11, 0);
    let shadow = session_rw::prefill(&dir, 5000, &mut rng);
    let store = multiprefix::DurableSession::<i64, Plus>::open(
        &dir,
        session_rw::M,
        Plus,
        multiprefix::SessionOptions::default(),
    )
    .unwrap();
    assert_eq!(store.len(), shadow.len());
    for i in (0..5000u64).step_by(7) {
        assert_eq!(store.prefix_query(i).unwrap(), shadow.prefix(i));
    }
    for label in 0..session_rw::M {
        assert_eq!(store.label_total(label).unwrap(), shadow.total(label));
    }
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
