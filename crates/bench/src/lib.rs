//! The benchmark harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! * [`fig7`] — the Figure 7 sparse-matrix speedup table (the paper's only
//!   quantitative results table), driven end-to-end by real APT runs;
//! * [`accuracy`] — the §2.4/§3.3 qualitative comparisons against the
//!   baseline testers, as a head-to-head answer table;
//! * [`complexity`] — the §4.2 practical-complexity claim (prover work as
//!   a function of path length).
//!
//! Runnable binaries print the tables (`table_speedup`, `table_accuracy`,
//! `table_complexity`); Criterion benches in `benches/` time the kernels
//! and the prover. Throughput and latency of the prover, the engine, the
//! daemon and `apt analyze` are measured by `perfbench/`, the
//! repository's benchmark, with repeated runs and recorded spread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod complexity;
pub mod fig7;
