//! Wide-lane (SoA) serving-path throughput: scalar vs `Lanes<f64, 4>`.
//!
//! Three levels of the serving stack, each measured single-threaded as
//! scalar-vs-wide (per-state results are bit-identical by construction,
//! so this is a pure throughput comparison):
//!
//! * `tape_*` — the compiled X-unit register tape (the §4 example joint's
//!   unit) evaluated over a batch of states: `eval_into` per state vs one
//!   `eval_batch_into` SoA sweep;
//! * `cpu_grad_*` — the full dynamics-gradient kernel through the
//!   [`CpuAnalytic`] backend: serial `gradient_into` loop vs the wide
//!   `gradient_batch_into` lane path;
//! * `accel_grad_*` — the same comparison through the simulated
//!   accelerator backend;
//!
//! plus `engine_grad_lanes4`, the two-level (threads × lanes)
//! `gradient_batch_on_into` path on the shared [`BatchEngine`] (on a
//! single-core host this adds claim overhead over the wide path, so it is
//! reported but not gated).
//!
//! The acceptance floor for this PR is `tape_lanes4` ≥ 1.5× `tape_scalar`
//! throughput. Results (median ns per state) and the speedup ratios are
//! written to `BENCH_5.json` at the repository root (override with
//! `BENCH_OUT`) — the CI artifact — and recorded in EXPERIMENTS.md.
//! `BENCH_QUICK=1` shrinks the run for CI and `BENCH_TRIALS=N` repeats it
//! for the confidence-interval gate; see [`robo_bench::harness`].

use robo_bench::harness::{self, gradient_cases, tape_states, time_median_ns, BenchEnv};
use robo_bench::report::{speedup, BenchReport, HostInfo};
use robo_codegen::{
    generate_x_unit_with_mask, optimize, BatchEvalWorkspace, CompiledNetlist, EvalWorkspace,
};
use robo_dynamics::batch::{BatchEngine, GradientState};
use robo_dynamics::engine::{
    gradient_batch_on_into, BatchOutput, CpuAnalytic, DynamicsBackend, GradientOutput, KernelKind,
};
use robo_dynamics::DynamicsModel;
use robo_model::robots;
use robo_sim::AcceleratorBackend;
use robo_sparsity::superposition_pattern;
use robo_spatial::Lanes;
use std::hint::black_box;

/// Serial reference: a `gradient_into` loop through one dense scratch,
/// so it measures the scalar path state by state.
fn serial_batch(
    backend: &mut dyn DynamicsBackend,
    states: &[GradientState<'_, f64>],
    scratch: &mut GradientOutput,
    out: &mut BatchOutput,
) {
    out.reset(KernelKind::Gradient, states.len(), backend.dof());
    for (i, s) in states.iter().enumerate() {
        backend
            .gradient_into(s.q, s.qd, s.qdd, s.minv, scratch)
            .expect("dimensions match");
        out.store(i, scratch);
    }
}

fn run_once(env: &BenchEnv) -> BenchReport {
    let mut report = BenchReport::new();
    report.set_host(HostInfo::detect());

    // --- Compiled tape: scalar vs SoA lanes -----------------------------
    let robot = robots::iiwa14();
    let sup = superposition_pattern(&robot);
    let tape =
        CompiledNetlist::<f64>::compile(&optimize(&generate_x_unit_with_mask(&robot, 1, sup)));
    let n_out = tape.num_outputs();
    let states = tape_states(env.tape_batch, tape.input_names().len());

    let mut ws = EvalWorkspace::for_netlist(&tape);
    let mut out_one = vec![0.0_f64; n_out];
    let tape_scalar = time_median_ns(env.reps, env.tape_batch, || {
        for s in &states {
            tape.eval_into(s, &mut ws, &mut out_one);
            black_box(&out_one);
        }
    });

    let mut batch_ws = BatchEvalWorkspace::<Lanes<f64, 4>>::for_netlist(&tape);
    let mut out_flat = vec![0.0_f64; env.tape_batch * n_out];
    let tape_lanes = time_median_ns(env.reps, env.tape_batch, || {
        tape.eval_batch_into(&states, &mut batch_ws, &mut out_flat);
        black_box(&out_flat);
    });

    // --- Gradient backends: serial vs wide batch ------------------------
    let model = std::sync::Arc::new(DynamicsModel::<f64>::new(&robot));
    let cases = gradient_cases(&model, env.grad_batch);
    let grad_states: Vec<GradientState<'_, f64>> = cases
        .iter()
        .map(|(q, qd, qdd, minv)| GradientState { q, qd, qdd, minv })
        .collect();

    let mut cpu = CpuAnalytic::<f64>::with_model(model.clone());
    let mut scratch = GradientOutput::for_dof(model.dof());
    let mut batch_out = BatchOutput::new();
    let cpu_serial = time_median_ns(env.grad_reps, env.grad_batch, || {
        serial_batch(&mut cpu, &grad_states, &mut scratch, &mut batch_out);
        black_box(&batch_out);
    });
    let cpu_lanes = time_median_ns(env.grad_reps, env.grad_batch, || {
        cpu.gradient_batch_into(&grad_states, &mut batch_out)
            .expect("dimensions match");
        black_box(&batch_out);
    });

    let mut accel = AcceleratorBackend::<f64>::new(&robot);
    let accel_serial = time_median_ns(env.grad_reps, env.grad_batch, || {
        serial_batch(&mut accel, &grad_states, &mut scratch, &mut batch_out);
        black_box(&batch_out);
    });
    let accel_lanes = time_median_ns(env.grad_reps, env.grad_batch, || {
        accel
            .gradient_batch_into(&grad_states, &mut batch_out)
            .expect("dimensions match");
        black_box(&batch_out);
    });

    // --- Two-level threads × lanes scheduling ---------------------------
    let engine = BatchEngine::global();
    let engine_lanes = time_median_ns(env.grad_reps, env.grad_batch, || {
        gradient_batch_on_into(&cpu, engine, &grad_states, &mut batch_out)
            .expect("dimensions match");
        black_box(&batch_out);
    });

    report.record_median_ns("tape_scalar", tape_scalar);
    report.record_median_ns("tape_lanes4", tape_lanes);
    report.record_median_ns("cpu_grad_serial", cpu_serial);
    report.record_median_ns("cpu_grad_lanes4", cpu_lanes);
    report.record_median_ns("accel_grad_serial", accel_serial);
    report.record_median_ns("accel_grad_lanes4", accel_lanes);
    report.record_median_ns("engine_grad_lanes4", engine_lanes);
    report.record_speedup("tape_lanes4_vs_scalar", tape_scalar / tape_lanes);
    report.record_speedup("cpu_lanes4_vs_serial", cpu_serial / cpu_lanes);
    report.record_speedup("accel_lanes4_vs_serial", accel_serial / accel_lanes);
    report.record_speedup("engine_vs_serial_cpu", cpu_serial / engine_lanes);

    for (name, ns) in [
        ("tape_scalar", tape_scalar),
        ("tape_lanes4", tape_lanes),
        ("cpu_grad_serial", cpu_serial),
        ("cpu_grad_lanes4", cpu_lanes),
        ("accel_grad_serial", accel_serial),
        ("accel_grad_lanes4", accel_lanes),
        ("engine_grad_lanes4", engine_lanes),
    ] {
        println!("lane_throughput/{name:<20} median: {ns:10.1} ns/state");
    }
    for name in [
        "tape_lanes4_vs_scalar",
        "cpu_lanes4_vs_serial",
        "accel_lanes4_vs_serial",
        "engine_vs_serial_cpu",
    ] {
        let ratio = report.speedup_of(name).expect("just recorded");
        println!("lane_throughput/{name:<22} speedup: {}", speedup(ratio));
    }
    report
}

fn main() {
    let default = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_5.json");
    harness::run_trials(&default, run_once);
}
