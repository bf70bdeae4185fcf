//! Per-layer probes: public entry points of each crate on the served
//! path, timed from outside on the iiwa14 plan the workloads use.

use crate::stats::median;
use crate::{gen, serve};
use robo_bench::harness::{time_median_ns, time_median_ns_interleaved};
use robo_codegen::{generate_x_pipeline, optimize, CompiledNetlist};
use robo_dynamics::batch::{BatchEngine, GradientState};
use robo_dynamics::engine::{
    DynamicsBackend, GradientBackend, GradientBatchOutput, GradientOutput, KernelKind, KernelOutput,
};
use robo_model::robots;
use robo_sim::engine::RobotPlan;
use robo_sim::SimWorkspace;
use robo_sparsity::superposition_pattern;
use robo_spatial::ExecTier;
use robo_trajopt::{run_mpc, solve_with_backend, IlqrOptions, MpcConfig, ReachingTask};
use std::hint::black_box;
use std::time::Instant;

/// Receding-horizon length of the MPC probes.
const HORIZON: usize = 64;

/// Median microseconds per call of `f`: `reps` samples of `inner` calls
/// each, after a warm-up sample.
fn time_us(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    time_median_ns(reps, inner, || (0..inner).for_each(|_| f())) / 1e3
}

/// One MPC control step at [`HORIZON`].
fn one_step() -> MpcConfig {
    MpcConfig {
        horizon: HORIZON,
        control_steps: 1,
        ..MpcConfig::default()
    }
}

/// Each probe's median, in the unit its name ends with.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// `RobotPlan::with_tier`, milliseconds.
    pub plan_build_ms: f64,
    /// `AcceleratorBackend::gradient_into` (f64 boundary), microseconds.
    pub grad1_us: f64,
    /// `AcceleratorSim::compute_gradient_into` on native inputs.
    pub kernel1_us: f64,
    /// `gradient_batch_into` on one full `max_batch`, per state.
    pub batch_us_per_state: f64,
    /// `run_into` for inverse dynamics.
    pub id1_us: f64,
    /// `run_into` for forward dynamics.
    pub fd1_us: f64,
    /// Compiled iiwa X-pipeline tape, nanoseconds per state.
    pub pipeline_tape_ns: f64,
    /// `CpuAnalytic::gradient_into`.
    pub cpu_grad1_us: f64,
    /// `BatchEngine::global().run` over horizon-many trivial tasks.
    pub batch_dispatch_us: f64,
    /// `solve_with_backend`: one MPC step's iLQR solve, milliseconds.
    pub ilqr_solve_ms: f64,
    /// `run_mpc` for one control step, milliseconds.
    pub mpc_step_ms: f64,
    /// Gradient-kernel calls in that step, from `MpcResult`.
    pub mpc_grad_calls_per_step: f64,
}

/// Runs every probe once (about a second in all).
pub fn measure() -> Probes {
    let cfg = serve::config();
    let tier = cfg.tier.unwrap_or_else(ExecTier::detect);
    let robot = robots::iiwa14();

    let mut builds: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            black_box(RobotPlan::with_tier(&robot, tier));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let plan = RobotPlan::with_tier(&robot, tier);
    let max_batch = cfg.max_batch(plan.serve_width());
    let cases = gen::cases(plan.model(), 0, 0, max_batch);
    let c = &cases[0];

    // Timed in alternation, so a slow stretch of the host hits both and
    // their difference (the f64 ↔ S marshalling) stays meaningful.
    let mut accel = plan.accelerator_backend();
    let mut out = GradientOutput::for_dof(plan.dof());
    let sim = plan.sim();
    let mut ws = SimWorkspace::for_sim(sim);
    let inner = 100;
    let pair = time_median_ns_interleaved(
        31,
        inner,
        &mut [
            &mut || {
                for _ in 0..inner {
                    accel
                        .gradient_into(&c.q, &c.qd, &c.qdd, &c.minv, &mut out)
                        .expect("probe inputs match the plan");
                }
            },
            &mut || {
                for _ in 0..inner {
                    black_box(sim.compute_gradient_into(&c.q, &c.qd, &c.qdd, &c.minv, &mut ws));
                }
            },
        ],
    );
    let (grad1_us, kernel1_us) = (pair[0] / 1e3, pair[1] / 1e3);

    let states: Vec<GradientState<'_, f64>> = cases
        .iter()
        .map(|c| GradientState {
            q: &c.q,
            qd: &c.qd,
            qdd: &c.qdd,
            minv: &c.minv,
        })
        .collect();
    let mut batch = GradientBatchOutput::new();
    let batch_us_per_state = time_us(15, 10, || {
        accel
            .gradient_batch_into(&states, &mut batch)
            .expect("probe inputs match the plan");
    }) / max_batch as f64;

    let mut kout = KernelOutput::for_dof(plan.dof());
    let mut run = |kernel| {
        time_us(15, 100, || {
            accel
                .run_into(kernel, &c.q, &c.qd, c.third(kernel), &c.minv, &mut kout)
                .expect("probe inputs match the plan");
        })
    };
    let id1_us = run(KernelKind::InverseDynamics);
    let fd1_us = run(KernelKind::ForwardDynamics);

    let mut tape = CompiledNetlist::<f64>::compile(&optimize(&generate_x_pipeline(
        &robot,
        superposition_pattern(&robot),
    )));
    if plan.tier() == ExecTier::Jit {
        tape.enable_jit();
    }
    let tape_batch = 64;
    let mut rng = gen::Rng::new(0, 0x7a9e);
    let inputs: Vec<Vec<f64>> = (0..tape_batch)
        .map(|_| {
            (0..tape.input_names().len())
                .map(|_| rng.uniform(-1.0, 1.0))
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    let mut tape_ws = tape.tiered_workspace(plan.tier());
    let mut tape_out = vec![0.0; tape_batch * tape.num_outputs()];
    let pipeline_tape_ns = time_us(15, 20, || {
        tape_ws.eval_batch_into(&tape, &refs, &mut tape_out);
    }) * 1e3
        / tape_batch as f64;

    let mut cpu = plan.cpu_backend();
    let cpu_grad1_us = time_us(15, 100, || {
        cpu.gradient_into(&c.q, &c.qd, &c.qdd, &c.minv, &mut out)
            .expect("probe inputs match the plan");
    });

    let engine = BatchEngine::global();
    let batch_dispatch_us = time_us(15, 50, || {
        black_box(engine.run(HORIZON, |i| i));
    });

    let mut task = ReachingTask::iiwa_reach();
    task.horizon = HORIZON;
    let opts = IlqrOptions {
        iterations: one_step().iterations_per_step,
        ..IlqrOptions::default()
    };
    let ilqr_solve_ms = time_us(5, 1, || {
        black_box(solve_with_backend(&task, &opts, &accel));
    }) / 1e3;
    let mut grad_calls = 0;
    let mpc_step_ms = time_us(5, 1, || {
        grad_calls = run_mpc(&task, &one_step(), &accel).gradient_calls;
    }) / 1e3;

    Probes {
        plan_build_ms: median(&mut builds),
        grad1_us,
        kernel1_us,
        batch_us_per_state,
        id1_us,
        fd1_us,
        pipeline_tape_ns,
        cpu_grad1_us,
        batch_dispatch_us,
        ilqr_solve_ms,
        mpc_step_ms,
        mpc_grad_calls_per_step: grad_calls as f64,
    }
}
