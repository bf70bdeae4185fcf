//! Shared bench-runner plumbing: the `BENCH_*` environment knobs, the
//! timing/workload helpers the throughput benches previously each carried
//! a private copy of, and the multi-trial driver behind the `analyse`
//! regression gate.
//!
//! Environment knobs (all optional):
//!
//! * `BENCH_QUICK` — any value other than `0` shrinks reps and batch
//!   sizes for CI;
//! * `BENCH_TRIALS` — run the whole bench N times, writing
//!   `<out>.trial<t>.json` per trial plus the median-combined `<out>`
//!   (default 1: a single run writing `<out>` only);
//! * `BENCH_OUT` — overrides the output path (CI uses this for the
//!   traced re-run of `lane_throughput`, keeping `BENCH_5.json` for the
//!   untraced baseline).

use crate::analyse::bench_samples;
use crate::report::{median, BenchReport};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The knobs one bench run is parameterized by, resolved from the
/// environment once in [`BenchEnv::from_env`].
#[derive(Debug, Clone, Copy)]
pub struct BenchEnv {
    /// `BENCH_QUICK` was set (CI mode: small reps/batches).
    pub quick: bool,
    /// Number of full bench repetitions (`BENCH_TRIALS`, min 1).
    pub trials: usize,
    /// Timing samples per measurement.
    pub reps: usize,
    /// States per compiled-tape batch.
    pub tape_batch: usize,
    /// States per gradient batch.
    pub grad_batch: usize,
    /// Timing samples for the (slower) gradient measurements.
    pub grad_reps: usize,
}

impl BenchEnv {
    /// Reads `BENCH_QUICK` and `BENCH_TRIALS` and derives the standard
    /// rep/batch sizes both throughput benches use.
    pub fn from_env() -> Self {
        let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0");
        let trials = std::env::var("BENCH_TRIALS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(1)
            .max(1);
        let reps = if quick { 15 } else { 120 };
        Self {
            quick,
            trials,
            reps,
            tape_batch: if quick { 64 } else { 512 },
            grad_batch: if quick { 12 } else { 48 },
            grad_reps: reps.min(if quick { 10 } else { 60 }),
        }
    }
}

/// Median nanoseconds per item: `reps` samples, each timing one call of
/// `f` that processes `items_per_run` items.
pub fn time_median_ns(reps: usize, items_per_run: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: page in code, size workspaces
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e9 / items_per_run as f64);
    }
    median(&mut samples)
}

/// Like [`time_median_ns`], but interleaves several alternatives
/// round-robin inside one rep loop, so slow-machine drift (frequency
/// scaling, noisy-neighbor preemption on shared CI runners) biases every
/// alternative equally instead of whichever one happened to be measured
/// during the disturbance. Use for A/B speedup ratios whose sweeps are
/// long enough that back-to-back whole-path measurements can land in
/// different machine regimes. Returns one median ns/item per
/// alternative, in input order.
pub fn time_median_ns_interleaved(
    reps: usize,
    items_per_run: usize,
    alternatives: &mut [&mut dyn FnMut()],
) -> Vec<f64> {
    for f in alternatives.iter_mut() {
        f(); // warm-up: page in code, size workspaces
    }
    let mut samples = vec![Vec::with_capacity(reps); alternatives.len()];
    for _ in 0..reps {
        for (k, f) in alternatives.iter_mut().enumerate() {
            let start = Instant::now();
            f();
            samples[k].push(start.elapsed().as_secs_f64() * 1e9 / items_per_run as f64);
        }
    }
    samples.iter_mut().map(|s| median(s)).collect()
}

/// Deterministic pseudo-random input states for a compiled tape.
pub fn tape_states(count: usize, n_inputs: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|u| {
            (0..n_inputs)
                .map(|i| 0.17 * (u * n_inputs + i) as f64 % 1.9 - 0.95)
                .collect()
        })
        .collect()
}

/// Deterministic `(q, qd, qdd, minv)` gradient cases for a dynamics
/// model, with `qdd`/`minv` computed consistently from the state.
#[allow(clippy::type_complexity)]
pub fn gradient_cases(
    model: &robo_dynamics::DynamicsModel<f64>,
    count: usize,
) -> Vec<(Vec<f64>, Vec<f64>, Vec<f64>, robo_spatial::MatN<f64>)> {
    let n = model.dof();
    (0..count)
        .map(|k| {
            let q: Vec<f64> = (0..n).map(|i| 0.1 * (i + k) as f64 % 1.3 - 0.4).collect();
            let qd: Vec<f64> = (0..n).map(|i| 0.05 * i as f64 - 0.02 * k as f64).collect();
            let tau = vec![0.5; n];
            let qdd = robo_dynamics::forward_dynamics(model, &q, &qd, &tau).expect("valid case");
            let minv = robo_dynamics::mass_matrix_inverse(model, &q).expect("valid case");
            (q, qd, qdd, minv)
        })
        .collect()
}

/// Combines N trial reports into one: per-key medians of both the
/// `medians_ns` and `speedups` sections (host provenance from the first
/// trial that carries one).
///
/// # Panics
///
/// Panics if `trials` is empty.
pub fn combine_trials(trials: &[BenchReport]) -> BenchReport {
    assert!(!trials.is_empty(), "combining no trials");
    let (medians, speedups) = bench_samples(trials);
    let mut combined = BenchReport::new();
    if let Some(host) = trials.iter().find_map(|t| t.host()) {
        combined.set_host(host.clone());
    }
    for (name, s) in medians.stats() {
        combined.record_median_ns(name, s.median);
    }
    for (name, s) in speedups.stats() {
        combined.record_speedup(name, s.median);
    }
    combined
}

/// The trial-file path for trial `t` of output `out`:
/// `BENCH_5.json` → `BENCH_5.trial0.json`.
pub fn trial_path(out: &Path, t: usize) -> PathBuf {
    let stem = out.file_stem().and_then(|s| s.to_str()).unwrap_or("bench");
    out.with_file_name(format!("{stem}.trial{t}.json"))
}

/// Resolves the output path: `BENCH_OUT` if set, else `default_out`.
pub fn out_path(default_out: &Path) -> PathBuf {
    std::env::var_os("BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| default_out.to_path_buf())
}

/// Runs `run` once per `BENCH_TRIALS`, writes each trial's report to
/// `<out>.trial<t>.json` when there is more than one, writes the
/// median-combined report to the resolved output path, and returns the
/// per-trial reports.
///
/// # Panics
///
/// Panics if a report file cannot be written (benches treat their output
/// artifact as mandatory).
pub fn run_trials(
    default_out: &Path,
    mut run: impl FnMut(&BenchEnv) -> BenchReport,
) -> Vec<BenchReport> {
    let env = BenchEnv::from_env();
    let out = out_path(default_out);
    let mut reports = Vec::with_capacity(env.trials);
    for t in 0..env.trials {
        if env.trials > 1 {
            println!("--- trial {}/{} ---", t + 1, env.trials);
        }
        let report = run(&env);
        if env.trials > 1 {
            let path = trial_path(&out, t);
            report.write_json(&path).expect("write trial report");
            println!("wrote {}", path.display());
        }
        reports.push(report);
    }
    combine_trials(&reports)
        .write_json(&out)
        .expect("write bench report");
    println!("wrote {}", out.display());
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_paths_keep_directory_and_extension() {
        let p = trial_path(Path::new("/tmp/x/BENCH_6.json"), 2);
        assert_eq!(p, Path::new("/tmp/x/BENCH_6.trial2.json"));
    }

    #[test]
    fn combine_takes_per_key_medians() {
        let mut trials = Vec::new();
        for v in [100.0, 300.0, 200.0] {
            let mut r = BenchReport::new();
            r.record_median_ns("tape", v);
            r.record_speedup("ratio", v / 100.0);
            trials.push(r);
        }
        let combined = combine_trials(&trials);
        assert_eq!(combined.median_ns("tape"), Some(200.0));
        assert_eq!(combined.speedup_of("ratio"), Some(2.0));
    }

    #[test]
    fn deterministic_workloads() {
        assert_eq!(tape_states(3, 5), tape_states(3, 5));
        let model = robo_dynamics::DynamicsModel::<f64>::new(&robo_model::robots::iiwa14());
        let a = gradient_cases(&model, 2);
        let b = gradient_cases(&model, 2);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].0, b[0].0);
        assert_eq!(a[1].2, b[1].2);
    }
}
