//! The benchmark harness for the multiprefix library.
//!
//! The binary (`src/main.rs`) runs one workload per process and prints a
//! report followed by one JSON result line. The modules here hold the
//! harness logic that the tests under `tests/` pin down: percentiles and
//! their sample-count rule, the open-loop generator's due-time clock,
//! metric naming and the result line, and error accounting.

pub mod calib;
pub mod host;
pub mod layers;
pub mod loadgen;
pub mod report;
pub mod rng;
pub mod stats;
pub mod workloads;
