//! The measured CPU baseline.
//!
//! The paper's CPU baseline is Pinocchio's analytical dynamics-gradient on
//! a quad-core i7-7700, parallelized across trajectory time steps with a
//! thread pool (§6.1). Ours is the same algorithm (Algorithm 1 via
//! `robo-dynamics`), in Rust, actually measured on the machine running the
//! experiments — a real baseline, not a model (see DESIGN.md).

use crate::LatencySegments;
use robo_dynamics::batch::{BatchEngine, GradientState};
use robo_dynamics::engine::{
    gradient_batch_on_into, BatchOutput, CpuAnalytic, DynamicsBackend, GradientOutput, WarmForks,
};
use robo_dynamics::{
    forward_dynamics, mass_matrix_inverse, rnea, rnea_derivatives, DynamicsGradient, DynamicsModel,
};
use robo_model::RobotModel;
use robo_spatial::MatN;
use std::sync::Arc;
use std::time::Instant;

/// One time step's kernel inputs: the quantities the host hands the
/// gradient kernel (`q̈` and `M⁻¹` computed earlier in the optimization).
#[derive(Debug, Clone)]
pub struct GradientInput {
    /// Joint positions.
    pub q: Vec<f64>,
    /// Joint velocities.
    pub qd: Vec<f64>,
    /// Joint accelerations (from the earlier forward-dynamics evaluation).
    pub qdd: Vec<f64>,
    /// Inverse mass matrix.
    pub minv: MatN<f64>,
}

impl GradientInput {
    /// Builds a kernel input from a state and torque by running forward
    /// dynamics (what the host does earlier in the optimization loop).
    ///
    /// # Panics
    ///
    /// Panics if the model's mass matrix is singular (invalid model).
    pub fn from_state(model: &DynamicsModel<f64>, q: &[f64], qd: &[f64], tau: &[f64]) -> Self {
        let qdd = forward_dynamics(model, q, qd, tau).expect("valid mass matrix");
        let minv = mass_matrix_inverse(model, q).expect("valid mass matrix");
        Self {
            q: q.to_vec(),
            qd: qd.to_vec(),
            qdd,
            minv,
        }
    }
}

/// The CPU baseline: the engine layer's [`CpuAnalytic`] backend on the
/// host, run through the process-wide [`BatchEngine`] across time steps
/// on warm forks built once.
#[derive(Debug)]
pub struct CpuBaseline {
    backend: CpuAnalytic<f64>,
    out: GradientOutput,
    forks: WarmForks<'static>,
}

impl CpuBaseline {
    /// Builds the baseline for a robot on the shared engine (one worker per
    /// hardware thread), with one warm fork per participant.
    pub fn new(robot: &RobotModel) -> Self {
        let backend = CpuAnalytic::new(robot);
        Self {
            out: GradientOutput::for_dof(backend.dof()),
            forks: WarmForks::new(BatchEngine::global(), || Box::new(backend.clone())),
            backend,
        }
    }

    /// The prepared dynamics model.
    pub fn model(&self) -> &DynamicsModel<f64> {
        self.backend.model()
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        BatchEngine::global().threads()
    }

    /// Computes one dynamics gradient (the accelerator's exact kernel
    /// scope: Algorithm 1 given `q̈` and `M⁻¹`) through the engine layer's
    /// warm [`CpuAnalytic`] backend.
    ///
    /// # Panics
    ///
    /// Panics if the input's dimensions disagree with the robot's joint
    /// count.
    pub fn compute(&mut self, input: &GradientInput) -> DynamicsGradient<f64> {
        self.backend
            .gradient_into(&input.q, &input.qd, &input.qdd, &input.minv, &mut self.out)
            .expect("input dimensions must match the model");
        self.out.to_dynamics_gradient()
    }

    /// Computes gradients for a batch of time steps in parallel, on the
    /// baseline's warm forks (one backend with reusable workspaces per
    /// participant).
    ///
    /// # Panics
    ///
    /// Panics if any input's dimensions disagree with the robot's joint
    /// count.
    pub fn compute_batch(&mut self, inputs: Arc<Vec<GradientInput>>) -> Vec<DynamicsGradient<f64>> {
        let states: Vec<GradientState<'_, f64>> = inputs
            .iter()
            .map(|inp| GradientState {
                q: &inp.q,
                qd: &inp.qd,
                qdd: &inp.qdd,
                minv: &inp.minv,
            })
            .collect();
        let mut out = BatchOutput::new();
        gradient_batch_on_into(&mut self.forks, &states, &mut out)
            .expect("input dimensions must match the model");
        (0..states.len()).map(|i| out.gradient_at(i)).collect()
    }

    /// Measures the single-computation latency (mean of `trials`), the
    /// paper's Figure 10 CPU quantity.
    pub fn time_single(&mut self, input: &GradientInput, trials: usize) -> f64 {
        // Warm up caches and the branch predictor.
        for _ in 0..trials.min(100) {
            std::hint::black_box(self.compute(input));
        }
        let start = Instant::now();
        for _ in 0..trials {
            std::hint::black_box(self.compute(input));
        }
        start.elapsed().as_secs_f64() / trials as f64
    }

    /// Measures the single-computation latency broken into Algorithm 1's
    /// three steps (Figure 10's stacked segments).
    pub fn time_segments(&self, input: &GradientInput, trials: usize) -> LatencySegments {
        let model = self.backend.model();
        let n = model.dof();
        // Step 1: ID.
        let start = Instant::now();
        for _ in 0..trials {
            std::hint::black_box(rnea(model.as_ref(), &input.q, &input.qd, &input.qdd));
        }
        let id_s = start.elapsed().as_secs_f64() / trials as f64;
        // Steps 1+2 (∇ID needs the ID cache; measure incrementally).
        let cache = rnea(model.as_ref(), &input.q, &input.qd, &input.qdd).cache;
        let start = Instant::now();
        for _ in 0..trials {
            std::hint::black_box(rnea_derivatives(model.as_ref(), &input.qd, &cache));
        }
        let grad_s = start.elapsed().as_secs_f64() / trials as f64;
        // Step 3: −M⁻¹ multiplication.
        let g = rnea_derivatives(model.as_ref(), &input.qd, &cache);
        let start = Instant::now();
        for _ in 0..trials {
            std::hint::black_box(input.minv.mul_mat(&g.dtau_dq));
            std::hint::black_box(input.minv.mul_mat(&g.dtau_dqd));
        }
        let minv_s = start.elapsed().as_secs_f64() / trials as f64;
        let _ = n;
        LatencySegments {
            id_s,
            grad_s,
            minv_s,
        }
    }

    /// Measures the wall-clock time to process `inputs` across the pool
    /// (mean of `trials`) — the Figure 13 CPU quantity (no I/O: the data is
    /// already in host memory).
    pub fn time_batch(&mut self, inputs: &Arc<Vec<GradientInput>>, trials: usize) -> f64 {
        std::hint::black_box(self.compute_batch(Arc::clone(inputs)));
        let start = Instant::now();
        for _ in 0..trials {
            std::hint::black_box(self.compute_batch(Arc::clone(inputs)));
        }
        start.elapsed().as_secs_f64() / trials as f64
    }
}

/// Builds a batch of *trajectory-shaped* kernel inputs: the robot is
/// rolled forward from rest under smooth bounded torques, so successive
/// time steps are dynamically consistent — exactly what an MPC solver
/// hands the accelerator ("each time step requires one dynamics gradient
/// calculation", §6.3).
///
/// # Panics
///
/// Panics if `timesteps == 0` or `dt <= 0`.
pub fn trajectory_inputs(
    robot: &RobotModel,
    timesteps: usize,
    dt: f64,
    seed: u64,
) -> Vec<GradientInput> {
    assert!(timesteps > 0, "need at least one time step");
    assert!(dt > 0.0, "dt must be positive");
    let model = DynamicsModel::<f64>::new(robot);
    let n = model.dof();
    let mut state = seed.max(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    // Smooth torque profile: per-joint sinusoids around gravity hold.
    let amps: Vec<f64> = (0..n).map(|_| 3.0 * next()).collect();
    let freqs: Vec<f64> = (0..n).map(|_| 1.0 + 2.0 * next().abs()).collect();

    let mut q = vec![0.0; n];
    let mut qd = vec![0.0; n];
    let mut out = Vec::with_capacity(timesteps);
    for k in 0..timesteps {
        let hold = crate::cpu::gravity_hold(&model, &q);
        let t = k as f64 * dt;
        let tau: Vec<f64> = (0..n)
            .map(|i| hold[i] + amps[i] * (freqs[i] * t).sin())
            .collect();
        let input = GradientInput::from_state(&model, &q, &qd, &tau);
        // Semi-implicit Euler step to the next trajectory point.
        for i in 0..n {
            qd[i] += dt * input.qdd[i];
            q[i] += dt * qd[i];
        }
        out.push(input);
    }
    out
}

pub(crate) fn gravity_hold(model: &DynamicsModel<f64>, q: &[f64]) -> Vec<f64> {
    let zero = vec![0.0; model.dof()];
    robo_dynamics::bias_torques(model, q, &zero)
}

/// Builds a batch of random but dynamically consistent kernel inputs
/// (uniform positions/velocities/torques through forward dynamics).
pub fn random_inputs(robot: &RobotModel, timesteps: usize, seed: u64) -> Vec<GradientInput> {
    let model = DynamicsModel::<f64>::new(robot);
    let n = model.dof();
    let mut state = seed.max(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    (0..timesteps)
        .map(|_| {
            let q: Vec<f64> = (0..n).map(|_| next()).collect();
            let qd: Vec<f64> = (0..n).map(|_| next()).collect();
            let tau: Vec<f64> = (0..n).map(|_| 5.0 * next()).collect();
            GradientInput::from_state(&model, &q, &qd, &tau)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use robo_model::robots;

    #[test]
    fn compute_matches_direct_call() {
        let robot = robots::iiwa14();
        let mut cpu = CpuBaseline::new(&robot);
        let input = &random_inputs(&robot, 1, 5)[0];
        let got = cpu.compute(input);
        let model = DynamicsModel::<f64>::new(&robot);
        // Reference oracle: the raw kernel the backend wraps.
        let want = robo_dynamics::dynamics_gradient_from_qdd(
            &model,
            &input.q,
            &input.qd,
            &input.qdd,
            &input.minv,
        );
        assert!(got.dqdd_dq.max_abs_diff(&want.dqdd_dq) < 1e-12);
    }

    #[test]
    fn batch_matches_serial() {
        let robot = robots::hyq();
        let mut cpu = CpuBaseline::new(&robot);
        let inputs = Arc::new(random_inputs(&robot, 12, 9));
        let batch = cpu.compute_batch(Arc::clone(&inputs));
        assert_eq!(batch.len(), 12);
        for (b, input) in batch.iter().zip(inputs.iter()) {
            let serial = cpu.compute(input);
            assert!(b.dqdd_dq.max_abs_diff(&serial.dqdd_dq) < 1e-12);
        }
    }

    #[test]
    fn trajectory_inputs_are_smooth_and_bounded() {
        let robot = robots::iiwa14();
        let inputs = trajectory_inputs(&robot, 40, 0.01, 3);
        assert_eq!(inputs.len(), 40);
        // Consecutive states differ by O(dt)-scale steps, and nothing
        // diverges over the rollout.
        for w in inputs.windows(2) {
            for i in 0..7 {
                let dq = (w[1].q[i] - w[0].q[i]).abs();
                assert!(dq < 0.25, "non-smooth step {dq}");
            }
        }
        assert!(inputs
            .iter()
            .all(|inp| inp.q.iter().all(|v| v.is_finite() && v.abs() < 20.0)));
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn trajectory_inputs_validate_dt() {
        let _ = trajectory_inputs(&robots::iiwa14(), 4, 0.0, 1);
    }

    #[test]
    fn timing_is_positive_and_sane() {
        let robot = robots::iiwa14();
        let mut cpu = CpuBaseline::new(&robot);
        let input = &random_inputs(&robot, 1, 11)[0];
        let t = cpu.time_single(input, 50);
        assert!(t > 0.0 && t < 1e-2, "single gradient took {t} s");
        let seg = cpu.time_segments(input, 50);
        assert!(seg.grad_s > 0.0);
        assert!(seg.total() < 1e-2);
    }
}
