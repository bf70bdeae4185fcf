//! Tiered-execution throughput: native SIMD lanes vs the portable
//! `Lanes<f64, 4>` fallback.
//!
//! Two comparisons, each single-threaded and bit-identical by
//! construction (so they are pure throughput measurements):
//!
//! * `tape_portable4` vs `tape_native` — one SoA batch sweep of the
//!   compiled full-pipeline X tape (every joint's unit merged, the
//!   per-state transform work of a whole forward sweep) through the
//!   portable `Lanes<f64, 4>` workspace vs the tier-dispatched workspace
//!   (`tiered_workspace(ExecTier::detect())` — AVX2 `F64x4`, SSE2/NEON
//!   `F64x2`, or the same portable lanes when the host has nothing
//!   better); both run their JIT-emitted tapes where the lane type has a
//!   row;
//! * `cpu_grad_portable4` vs `cpu_grad_native` — the full
//!   dynamics-gradient kernel through [`CpuAnalytic`] built at
//!   `ExecTier::Portable` vs the host-detected tier.
//!
//! The interpreter-vs-JIT comparison on the same tape lives in
//! `jit_throughput`. Results (median ns per state), the speedup ratios,
//! and the host provenance block are written to `BENCH_6.json` at the
//! repository root (override with `BENCH_OUT`; CI's traced re-run writes
//! `BENCH_6.traced.json`) — the CI artifact gated by `analyse gate`.
//! `BENCH_QUICK=1` shrinks the run for CI and `BENCH_TRIALS=N` repeats it
//! for the confidence-interval gate; see [`robo_bench::harness`].

use robo_bench::harness::{self, tape_states, time_median_ns, BenchEnv};
use robo_bench::report::{speedup, BenchReport, HostInfo};
use robo_codegen::{generate_x_pipeline, optimize, BatchEvalWorkspace, CompiledNetlist};
use robo_dynamics::batch::GradientState;
use robo_dynamics::engine::{BatchOutput, CpuAnalytic, DynamicsBackend};
use robo_dynamics::DynamicsModel;
use robo_model::robots;
use robo_sparsity::superposition_pattern;
use robo_spatial::{ExecTier, Lanes};
use std::hint::black_box;

fn run_once(env: &BenchEnv) -> BenchReport {
    let tier = ExecTier::detect();
    let mut report = BenchReport::new();
    report.set_host(HostInfo::detect());

    let robot = robots::iiwa14();
    let sup = superposition_pattern(&robot);
    let tape = CompiledNetlist::<f64>::compile(&optimize(&generate_x_pipeline(&robot, sup)));
    let n_out = tape.num_outputs();
    let states = tape_states(env.tape_batch, tape.input_names().len());
    let state_refs: Vec<&[f64]> = states.iter().map(|s| s.as_slice()).collect();

    // --- Portable Lanes<4> vs native-tier SoA sweep ----------------------
    let mut portable_ws = BatchEvalWorkspace::<Lanes<f64, 4>>::for_netlist(&tape);
    let mut out_flat = vec![0.0_f64; env.tape_batch * n_out];
    let tape_portable = time_median_ns(env.reps, env.tape_batch, || {
        tape.eval_batch_into(&states, &mut portable_ws, &mut out_flat);
        black_box(&out_flat);
    });
    let mut tiered_ws = tape.tiered_workspace(tier);
    let lane_name = tiered_ws.lane_name();
    let tape_native = time_median_ns(env.reps, env.tape_batch, || {
        tiered_ws.eval_batch_into(&tape, &state_refs, &mut out_flat);
        black_box(&out_flat);
    });

    // --- Full gradient kernel: portable tier vs native tier -------------
    let model = std::sync::Arc::new(DynamicsModel::<f64>::new(&robot));
    let cases = harness::gradient_cases(&model, env.grad_batch);
    let grad_states: Vec<GradientState<'_, f64>> = cases
        .iter()
        .map(|(q, qd, qdd, minv)| GradientState { q, qd, qdd, minv })
        .collect();

    let mut cpu_portable = CpuAnalytic::<f64>::with_model_tier(model.clone(), ExecTier::Portable);
    let mut cpu_native = CpuAnalytic::<f64>::with_model_tier(model.clone(), tier);
    let mut batch_out = BatchOutput::new();
    let grad_portable = time_median_ns(env.grad_reps, env.grad_batch, || {
        cpu_portable
            .gradient_batch_into(&grad_states, &mut batch_out)
            .expect("dimensions match");
        black_box(&batch_out);
    });
    let grad_native = time_median_ns(env.grad_reps, env.grad_batch, || {
        cpu_native
            .gradient_batch_into(&grad_states, &mut batch_out)
            .expect("dimensions match");
        black_box(&batch_out);
    });

    report.record_median_ns("tape_portable4", tape_portable);
    report.record_median_ns("tape_native", tape_native);
    report.record_median_ns("cpu_grad_portable4", grad_portable);
    report.record_median_ns("cpu_grad_native", grad_native);
    report.record_speedup("native_vs_portable4", tape_portable / tape_native);
    report.record_speedup("cpu_native_vs_portable", grad_portable / grad_native);

    println!("tier_throughput: host tier {tier}, native lane type {lane_name}");
    for (name, ns) in [
        ("tape_portable4", tape_portable),
        ("tape_native", tape_native),
        ("cpu_grad_portable4", grad_portable),
        ("cpu_grad_native", grad_native),
    ] {
        println!("tier_throughput/{name:<22} median: {ns:10.1} ns/state");
    }
    for name in ["native_vs_portable4", "cpu_native_vs_portable"] {
        let ratio = report.speedup_of(name).expect("just recorded");
        println!("tier_throughput/{name:<22} speedup: {}", speedup(ratio));
    }
    report
}

fn main() {
    let default = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_6.json");
    harness::run_trials(&default, run_once);
}
