//! Closed-loop, receding-horizon nonlinear MPC.
//!
//! The paper's motivating application (§3): "nonlinear MPC involves
//! iteratively optimizing a candidate trajectory ... this online approach
//! allows a robot to adapt to unpredictable environments by quickly
//! recomputing safe trajectories". This module closes the loop: at every
//! control step the optimizer re-solves from the *measured* state (with
//! warm-started controls), applies the first control to the plant, and
//! repeats — with the dynamics-gradient kernel behind the same pluggable
//! interface the accelerator exposes, so hardware (simulated or real) can
//! run in the loop.

use crate::ilqr::{solve_with_backend, IlqrOptions, ReachingTask};
use robo_dynamics::batch::GradientState;
use robo_dynamics::engine::{BatchOutput, DynamicsBackend, EngineError, KernelKind};
use robo_dynamics::{forward_dynamics, DynamicsModel};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configuration of a closed-loop MPC run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcConfig {
    /// Receding-horizon length (time steps per solve).
    pub horizon: usize,
    /// Optimizer iterations per control step (the paper assumes 10).
    pub iterations_per_step: usize,
    /// Number of control steps to simulate.
    pub control_steps: usize,
    /// Magnitude of a constant torque disturbance applied to the plant
    /// (unmodeled by the optimizer) — exercises the "adapt to
    /// unpredictable environments" property.
    pub disturbance: f64,
}

impl Default for MpcConfig {
    fn default() -> Self {
        Self {
            horizon: 12,
            iterations_per_step: 4,
            control_steps: 40,
            disturbance: 0.0,
        }
    }
}

/// Result of a closed-loop run.
#[derive(Debug, Clone)]
pub struct MpcResult {
    /// Plant states, one per control step (plus the initial state).
    pub states: Vec<Vec<f64>>,
    /// Position tracking error ‖q − q_goal‖ per control step.
    pub tracking_errors: Vec<f64>,
    /// Number of dynamics-gradient kernel invocations made.
    pub gradient_calls: usize,
}

impl MpcResult {
    /// The final tracking error.
    pub fn final_error(&self) -> f64 {
        *self
            .tracking_errors
            .last()
            .expect("at least one control step")
    }
}

/// A [`DynamicsBackend`] decorator counting gradient evaluations (one per
/// state). Atomic, because the optimizer linearizes time steps in
/// parallel on the batch engine, and forks share the counter.
struct CountingBackend<'a> {
    inner: Box<dyn DynamicsBackend + 'a>,
    calls: &'a AtomicUsize,
}

impl DynamicsBackend for CountingBackend<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dof(&self) -> usize {
        self.inner.dof()
    }

    fn fork(&self) -> Box<dyn DynamicsBackend + '_> {
        Box::new(CountingBackend {
            inner: self.inner.fork(),
            calls: self.calls,
        })
    }

    fn serve_width(&self) -> usize {
        self.inner.serve_width()
    }

    fn run_batch_into(
        &mut self,
        kernel: KernelKind,
        states: &[GradientState<'_, f64>],
        out: &mut BatchOutput,
    ) -> Result<(), EngineError> {
        if kernel == KernelKind::Gradient {
            self.calls.fetch_add(states.len(), Ordering::Relaxed);
        }
        self.inner.run_batch_into(kernel, states, out)
    }
}

/// Runs closed-loop MPC on the task's robot with the given gradient
/// backend — software, simulated accelerator, or (eventually) real
/// hardware behind the same trait.
///
/// # Panics
///
/// Panics if the task dimensions are inconsistent or the plant's mass
/// matrix becomes singular.
pub fn run_mpc(
    task: &ReachingTask,
    config: &MpcConfig,
    backend: &dyn DynamicsBackend,
) -> MpcResult {
    let n = task.robot.dof();
    let plant = DynamicsModel::<f64>::new(&task.robot);
    let mut x = task.x0.clone();
    let mut states = vec![x.clone()];
    let mut tracking_errors = Vec::with_capacity(config.control_steps);
    let mut gradient_calls = 0usize;

    let calls = AtomicUsize::new(0);
    let counting = CountingBackend {
        inner: backend.fork(),
        calls: &calls,
    };

    for _ in 0..config.control_steps {
        let mut step_task = task.clone();
        step_task.horizon = config.horizon;
        step_task.x0 = x.clone();
        let opts = IlqrOptions {
            iterations: config.iterations_per_step,
            ..Default::default()
        };
        let solved = solve_with_backend(&step_task, &opts, &counting);
        let u0 = solved.controls.first().expect("horizon >= 1").clone();

        // Plant step with the (unmodeled) disturbance.
        let (q, qd) = x.split_at(n);
        let tau: Vec<f64> = u0.iter().map(|u| u + config.disturbance).collect();
        let qdd = forward_dynamics(&plant, q, qd, &tau).expect("valid mass matrix");
        let mut x_next = vec![0.0; 2 * n];
        for i in 0..n {
            x_next[n + i] = qd[i] + task.dt * qdd[i];
            x_next[i] = q[i] + task.dt * x_next[n + i];
        }
        x = x_next;
        states.push(x.clone());

        let err: f64 = (0..n)
            .map(|i| (x[i] - task.x_goal[i]).powi(2))
            .sum::<f64>()
            .sqrt();
        tracking_errors.push(err);
    }
    gradient_calls += calls.load(Ordering::Relaxed);

    MpcResult {
        states,
        tracking_errors,
        gradient_calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robo_dynamics::engine::CpuAnalytic;

    fn quick_task() -> ReachingTask {
        let mut t = ReachingTask::iiwa_reach();
        t.horizon = 10;
        t
    }

    #[test]
    fn closed_loop_reaches_the_goal() {
        let task = quick_task();
        let config = MpcConfig {
            control_steps: 30,
            ..Default::default()
        };
        let provider = CpuAnalytic::<f64>::new(&task.robot);
        let result = run_mpc(&task, &config, &provider);
        let initial: f64 = (0..task.robot.dof())
            .map(|i| (task.x0[i] - task.x_goal[i]).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(
            result.final_error() < 0.25 * initial,
            "final error {} vs initial {}",
            result.final_error(),
            initial
        );
        assert!(result.gradient_calls > 0);
    }

    #[test]
    fn rejects_constant_disturbance() {
        // With feedback re-planning every step, a constant unmodeled torque
        // must not blow the system up.
        let task = quick_task();
        let config = MpcConfig {
            control_steps: 30,
            disturbance: 0.5,
            ..Default::default()
        };
        let provider = CpuAnalytic::<f64>::new(&task.robot);
        let result = run_mpc(&task, &config, &provider);
        assert!(result.final_error() < 1.0, "error {}", result.final_error());
        assert!(result.states.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn gradient_call_accounting() {
        let task = quick_task();
        let config = MpcConfig {
            control_steps: 5,
            iterations_per_step: 3,
            horizon: 8,
            disturbance: 0.0,
        };
        let provider = CpuAnalytic::<f64>::new(&task.robot);
        let result = run_mpc(&task, &config, &provider);
        // Each optimizer iteration linearizes the full horizon.
        assert_eq!(result.gradient_calls, 5 * 3 * 8);
    }
}
