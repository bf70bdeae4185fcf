//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! Each experiment is a function in [`experiments`] returning a rendered
//! report that prints the paper's rows/series next to this reproduction's
//! measured or simulated values. One binary per experiment
//! (`cargo run -p robo-bench --release --bin fig10_single_latency`), plus
//! `all_experiments`, which runs the whole evaluation and emits the
//! markdown used for `EXPERIMENTS.md`. Criterion benches for the hot
//! kernels live under `benches/`.
//!
//! The perf-study side lives in three modules: [`harness`] (the
//! `BENCH_QUICK`/`BENCH_TRIALS`/`BENCH_OUT` knobs and shared timing
//! helpers), [`analyse`] (per-key medians with bootstrap confidence
//! intervals and the CI regression gate), and [`report`] (tables and the
//! `BENCH_*.json` format). The `analyse` and `trace_pipeline` binaries
//! drive them.

#![warn(missing_docs)]

pub mod analyse;
pub mod experiments;
pub mod harness;
pub mod report;
