//! An iLQR trajectory optimizer over the dynamics gradient.
//!
//! This is the workspace's nonlinear-MPC substrate (the paper's §3
//! application): iteratively optimize a trajectory by linearizing the
//! dynamics with the forward-dynamics gradient — *the* kernel the
//! accelerator computes — and solving a Riccati backward pass.
//!
//! Mixed precision mirrors the paper's deployment (§6.2, Figure 12: "we
//! experimented with different data types for the dynamics gradient
//! function within a nonlinear MPC implementation"): the dynamics-gradient
//! *kernel* — Algorithm 1, including its `M⁻¹` input — runs in the scalar
//! type `S` (`f32`, or any `Fixed{i,f}`), exactly the accelerator's place
//! in the system, while rollouts and the Riccati recursion stay in `f64`
//! on the host. Sweeping `S` reproduces Figure 12's cost-convergence
//! comparison.

use robo_dynamics::batch::{BatchEngine, GradientState};
use robo_dynamics::engine::{gradient_batch_on_into, BatchOutput, CpuAnalytic, DynamicsBackend};
use robo_dynamics::{
    forward_dynamics, forward_kinematics, link_origin_world, mass_matrix_inverse,
    position_jacobian, DynamicsModel,
};
use robo_model::RobotModel;
use robo_spatial::{MatN, Scalar, Vec3};

/// A joint-space reaching task for the optimizer, optionally augmented
/// with a Cartesian end-effector goal and joint effort limits.
#[derive(Debug, Clone)]
pub struct ReachingTask {
    /// The robot.
    pub robot: RobotModel,
    /// Integration step (seconds).
    pub dt: f64,
    /// Trajectory length in time steps.
    pub horizon: usize,
    /// Initial state `[q; q̇]` (length `2n`).
    pub x0: Vec<f64>,
    /// Goal state `[q; q̇]`.
    pub x_goal: Vec<f64>,
    /// Running position-error weight.
    pub w_q: f64,
    /// Running velocity weight.
    pub w_qd: f64,
    /// Control effort weight.
    pub w_u: f64,
    /// Terminal cost multiplier (applied to `w_q`, `w_qd`).
    pub w_terminal: f64,
    /// Optional task-space goal: `(link index, world-frame target)` for
    /// that link's origin, weighted by [`ReachingTask::w_ee`] at the
    /// terminal state.
    pub ee_goal: Option<(usize, Vec3<f64>)>,
    /// Terminal end-effector weight (ignored without [`ReachingTask::ee_goal`]).
    pub w_ee: f64,
    /// Clamp controls to the model's joint effort limits during rollouts.
    pub clamp_effort: bool,
}

impl ReachingTask {
    /// The Figure 12 experiment's task: the iiwa manipulator reaching a
    /// joint-space posture from rest.
    ///
    /// Amplitudes and weights are chosen so the problem's dynamic range
    /// fits the narrowest type in the paper's sweep (20-bit `Fixed{14,6}`),
    /// as the paper's own study required ("a range of fixed-point values
    /// worked as well as floating-point", §6.2).
    pub fn iiwa_reach() -> Self {
        let robot = robo_model::robots::iiwa14();
        let n = robot.dof();
        let mut x0 = vec![0.0; 2 * n];
        let mut x_goal = vec![0.0; 2 * n];
        let start = [0.1, -0.2, 0.15, 0.25, -0.1, 0.15, 0.05];
        let goal = [-0.15, 0.25, -0.1, -0.2, 0.15, -0.25, 0.1];
        x0[..n].copy_from_slice(&start);
        x_goal[..n].copy_from_slice(&goal);
        Self {
            robot,
            dt: 0.01,
            horizon: 24,
            x0,
            x_goal,
            w_q: 5.0,
            w_qd: 0.1,
            w_u: 1e-3,
            w_terminal: 50.0,
            ee_goal: None,
            w_ee: 0.0,
            clamp_effort: false,
        }
    }

    /// A task-space variant: drive the iiwa's last link origin to a world
    /// point, with only mild joint-space regularization.
    pub fn iiwa_ee_reach(target: Vec3<f64>) -> Self {
        let mut task = Self::iiwa_reach();
        task.x_goal = vec![0.0; task.x0.len()];
        task.w_q = 0.05;
        task.w_terminal = 10.0;
        task.ee_goal = Some((task.robot.dof() - 1, target));
        task.w_ee = 400.0;
        task
    }

    fn n(&self) -> usize {
        self.robot.dof()
    }

    fn clamp_u(&self, u: &mut [f64]) {
        if self.clamp_effort {
            for (i, ui) in u.iter_mut().enumerate() {
                *ui = self.robot.links()[i].limits.clamp_effort(*ui);
            }
        }
    }
}

/// Solver options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlqrOptions {
    /// Optimization iterations (the paper assumes 10 per MPC solve).
    pub iterations: usize,
    /// Initial Levenberg-style regularization on `Q_uu`.
    pub initial_reg: f64,
    /// Backtracking line-search steps per iteration.
    pub line_search_steps: usize,
}

impl Default for IlqrOptions {
    fn default() -> Self {
        Self {
            iterations: 10,
            initial_reg: 1e-6,
            line_search_steps: 8,
        }
    }
}

/// Optimization trace and result.
#[derive(Debug, Clone)]
pub struct IlqrResult {
    /// Total cost after each iteration; index 0 is the initial rollout
    /// (Figure 12 plots these series per numeric type).
    pub costs: Vec<f64>,
    /// Final control sequence.
    pub controls: Vec<Vec<f64>>,
    /// Final state trajectory.
    pub states: Vec<Vec<f64>>,
}

impl IlqrResult {
    /// The last cost in the trace.
    pub fn final_cost(&self) -> f64 {
        *self.costs.last().expect("trace is never empty")
    }
}

struct Rollout {
    xs: Vec<Vec<f64>>,
    cost: f64,
}

/// Solves the task with iLQR, computing the dynamics gradient in scalar
/// type `S` (the accelerator's arithmetic) and everything else in `f64`,
/// through a [`CpuAnalytic`] engine backend (the paper's type-generic
/// study).
///
/// # Panics
///
/// Panics if the task dimensions are inconsistent.
pub fn solve<S: Scalar>(task: &ReachingTask, opts: &IlqrOptions) -> IlqrResult {
    let backend = CpuAnalytic::<S>::new(&task.robot);
    solve_with_backend(task, opts, &backend)
}

/// Solves the task with iLQR using an arbitrary [`DynamicsBackend`] — e.g.
/// a simulated (or real) accelerator in the loop, swapped in one line.
///
/// The backward pass linearizes all time steps data-parallel on the shared
/// batch engine (the per-time-step parallelism of §6.1); each worker
/// receives a [`DynamicsBackend::fork`] of `backend` over the same shared
/// plan.
///
/// # Panics
///
/// Panics if the task dimensions are inconsistent.
pub fn solve_with_backend(
    task: &ReachingTask,
    opts: &IlqrOptions,
    backend: &dyn DynamicsBackend,
) -> IlqrResult {
    let n = task.n();
    assert_eq!(task.x0.len(), 2 * n, "x0 must have length 2n");
    assert_eq!(task.x_goal.len(), 2 * n, "x_goal must have length 2n");

    let model = DynamicsModel::<f64>::new(&task.robot);

    // Warm start with gravity compensation at the initial posture: keeps
    // the first rollout near-stationary (a zero-torque arm free-falls and
    // can blow up the explicit integration over long horizons).
    let mut hold = robo_dynamics::bias_torques(&model, &task.x0[..n], &vec![0.0; n]);
    task.clamp_u(&mut hold);
    let mut us = vec![hold; task.horizon];
    let mut rollout = roll(task, &model, &us);
    let mut costs = vec![rollout.cost];
    let mut reg = opts.initial_reg;

    for _ in 0..opts.iterations {
        let bwd_span = robo_trace::span_items("ilqr.backward", us.len());
        let bwd = backward_pass(task, &model, backend, &rollout.xs, &us, reg);
        drop(bwd_span);
        let Some((ks, kmats)) = bwd else {
            // Backward pass failed (e.g. fixed-point garbage made Q_uu
            // indefinite): raise regularization and record a flat step.
            reg *= 10.0;
            costs.push(rollout.cost);
            continue;
        };

        // Backtracking line search on the feedback rollout.
        let _fwd_span = robo_trace::span_items("ilqr.forward", us.len());
        let mut improved = false;
        let mut alpha = 1.0;
        for _ in 0..opts.line_search_steps {
            let (new_us, new_rollout) =
                feedback_roll(task, &model, &rollout.xs, &us, &ks, &kmats, alpha);
            if new_rollout.cost.is_finite() && new_rollout.cost < rollout.cost {
                us = new_us;
                rollout = new_rollout;
                improved = true;
                break;
            }
            alpha *= 0.5;
        }
        if improved {
            reg = (reg * 0.5).max(opts.initial_reg);
        } else {
            reg *= 10.0;
        }
        costs.push(rollout.cost);
    }

    IlqrResult {
        costs,
        controls: us,
        states: rollout.xs,
    }
}

fn dynamics_step(
    task: &ReachingTask,
    model: &DynamicsModel<f64>,
    x: &[f64],
    u: &[f64],
) -> Vec<f64> {
    let n = task.n();
    let (q, qd) = x.split_at(n);
    let qdd = forward_dynamics(model, q, qd, u).expect("valid mass matrix");
    // Semi-implicit Euler: q̇' = q̇ + dt·q̈ ; q' = q + dt·q̇'.
    let mut x_next = vec![0.0; 2 * n];
    for i in 0..n {
        x_next[n + i] = qd[i] + task.dt * qdd[i];
        x_next[i] = q[i] + task.dt * x_next[n + i];
    }
    x_next
}

fn stage_cost(task: &ReachingTask, x: &[f64], u: &[f64]) -> f64 {
    let n = task.n();
    let mut c = 0.0;
    for i in 0..n {
        let eq = x[i] - task.x_goal[i];
        let ev = x[n + i] - task.x_goal[n + i];
        c += 0.5 * task.w_q * eq * eq + 0.5 * task.w_qd * ev * ev + 0.5 * task.w_u * u[i] * u[i];
    }
    c
}

fn terminal_cost(task: &ReachingTask, model: &DynamicsModel<f64>, x: &[f64]) -> f64 {
    let n = task.n();
    let mut c = 0.0;
    for i in 0..n {
        let eq = x[i] - task.x_goal[i];
        let ev = x[n + i] - task.x_goal[n + i];
        c += 0.5 * task.w_terminal * (task.w_q * eq * eq + task.w_qd * ev * ev);
    }
    if let Some((link, target)) = task.ee_goal {
        let poses = forward_kinematics(model, &x[..n]);
        let err = link_origin_world(&poses, link) - target;
        c += 0.5 * task.w_ee * err.dot(err);
    }
    c
}

fn roll(task: &ReachingTask, model: &DynamicsModel<f64>, us: &[Vec<f64>]) -> Rollout {
    let mut xs = Vec::with_capacity(us.len() + 1);
    xs.push(task.x0.clone());
    let mut cost = 0.0;
    for u in us {
        let x = xs.last().expect("non-empty");
        cost += stage_cost(task, x, u);
        xs.push(dynamics_step(task, model, x, u));
    }
    cost += terminal_cost(task, model, xs.last().expect("non-empty"));
    Rollout { xs, cost }
}

fn feedback_roll(
    task: &ReachingTask,
    model: &DynamicsModel<f64>,
    ref_xs: &[Vec<f64>],
    ref_us: &[Vec<f64>],
    ks: &[Vec<f64>],
    kmats: &[MatN<f64>],
    alpha: f64,
) -> (Vec<Vec<f64>>, Rollout) {
    let n = task.n();
    let mut xs = Vec::with_capacity(ref_us.len() + 1);
    xs.push(task.x0.clone());
    let mut us = Vec::with_capacity(ref_us.len());
    let mut cost = 0.0;
    for t in 0..ref_us.len() {
        let x = xs.last().expect("non-empty").clone();
        let dx: Vec<f64> = (0..2 * n).map(|i| x[i] - ref_xs[t][i]).collect();
        let kdx = kmats[t].mul_vec(&dx);
        let mut u: Vec<f64> = (0..n)
            .map(|i| ref_us[t][i] + alpha * ks[t][i] + kdx[i])
            .collect();
        task.clamp_u(&mut u);
        cost += stage_cost(task, &x, &u);
        xs.push(dynamics_step(task, model, &x, &u));
        us.push(u);
    }
    cost += terminal_cost(task, model, xs.last().expect("non-empty"));
    (us, Rollout { xs, cost })
}

#[allow(clippy::type_complexity)]
fn backward_pass(
    task: &ReachingTask,
    model: &DynamicsModel<f64>,
    backend: &dyn DynamicsBackend,
    xs: &[Vec<f64>],
    us: &[Vec<f64>],
    reg: f64,
) -> Option<(Vec<Vec<f64>>, Vec<MatN<f64>>)> {
    let n = task.n();
    let horizon = us.len();

    // Terminal value function.
    let mut v_x = vec![0.0; 2 * n];
    let mut v_xx = MatN::zeros(2 * n, 2 * n);
    let xf = &xs[horizon];
    for i in 0..n {
        v_x[i] = task.w_terminal * task.w_q * (xf[i] - task.x_goal[i]);
        v_x[n + i] = task.w_terminal * task.w_qd * (xf[n + i] - task.x_goal[n + i]);
        v_xx[(i, i)] = task.w_terminal * task.w_q;
        v_xx[(n + i, n + i)] = task.w_terminal * task.w_qd;
    }
    // Task-space terminal cost: Gauss-Newton expansion through the
    // position Jacobian (l_q = w Jᵀe, l_qq ≈ w JᵀJ).
    if let Some((link, target)) = task.ee_goal {
        let poses = forward_kinematics(model, &xf[..n]);
        let err = link_origin_world(&poses, link) - target;
        let jp = position_jacobian(model, &xf[..n], link);
        let e = [err.x, err.y, err.z];
        for col in 0..n {
            let mut acc = 0.0;
            for r in 0..3 {
                acc += jp[(r, col)] * e[r];
            }
            v_x[col] += task.w_ee * acc;
        }
        for i in 0..n {
            for j2 in 0..n {
                let mut acc = 0.0;
                for r in 0..3 {
                    acc += jp[(r, i)] * jp[(r, j2)];
                }
                v_xx[(i, j2)] += task.w_ee * acc;
            }
        }
    }

    let mut ks = vec![vec![0.0; n]; horizon];
    let mut kmats = vec![MatN::zeros(n, 2 * n); horizon];

    // Linearize every time step up front (the per-time-step parallelism of
    // §6.1), in two stages. First the host computes q̈ and M⁻¹ in float,
    // data-parallel on the shared batch engine; any singular mass matrix
    // maps to None, triggering the regularization retry in
    // `solve_with_backend`. Then the whole horizon goes through the
    // backend's SoA batch path — two-level (threads × lanes) parallelism:
    // workers fork the backend over the shared plan, and wide backends run
    // `serve_width()` time steps per kernel instruction (`SERVE_LANES`)
    // — filling one flat `BatchOutput` whose per-step blocks the Riccati
    // recursion below indexes directly. Non-finite gradients (e.g. fixed-point
    // garbage) also map to None.
    let prep: Vec<Option<(Vec<f64>, MatN<f64>)>> = BatchEngine::global().run_with_state(
        horizon,
        || (),
        |(), t| {
            let (q, qd) = xs[t].split_at(n);
            let qdd = forward_dynamics(model, q, qd, &us[t]).ok()?;
            let minv = mass_matrix_inverse(model, q).ok()?;
            Some((qdd, minv))
        },
    );
    let mut prep_ok: Vec<(Vec<f64>, MatN<f64>)> = Vec::with_capacity(horizon);
    for p in prep {
        prep_ok.push(p?);
    }
    let states: Vec<GradientState<'_, f64>> = (0..horizon)
        .map(|t| {
            let (q, qd) = xs[t].split_at(n);
            GradientState {
                q,
                qd,
                qdd: &prep_ok[t].0,
                minv: &prep_ok[t].1,
            }
        })
        .collect();
    let mut lin = BatchOutput::new();
    gradient_batch_on_into(backend, BatchEngine::global(), &states, &mut lin).ok()?;
    drop(states);
    for t in 0..horizon {
        if !lin.dqdd_dq_at(t).iter().all(|v| v.is_finite()) {
            return None;
        }
    }

    for t in (0..horizon).rev() {
        let x = &xs[t];
        let u = &us[t];

        let dqdd_dq = lin.dqdd_dq_at(t);
        let dqdd_dqd = lin.dqdd_dqd_at(t);
        let minv = &prep_ok[t].1;

        // A = ∂x'/∂x and B = ∂x'/∂u of the semi-implicit Euler step.
        let dt = task.dt;
        let mut a = MatN::zeros(2 * n, 2 * n);
        let mut b = MatN::zeros(2 * n, n);
        for i in 0..n {
            for j in 0..n {
                let dq = dqdd_dq[i * n + j];
                let dv = dqdd_dqd[i * n + j];
                let mi = minv[(i, j)];
                // q̇' rows.
                a[(n + i, j)] = dt * dq;
                a[(n + i, n + j)] = ((i == j) as u8 as f64) + dt * dv;
                b[(n + i, j)] = dt * mi;
                // q' rows: q' = q + dt q̇'.
                a[(i, j)] = ((i == j) as u8 as f64) + dt * dt * dq;
                a[(i, n + j)] = dt * (((i == j) as u8 as f64) + dt * dv);
                b[(i, j)] = dt * dt * mi;
            }
        }

        // Stage cost expansion (quadratic, diagonal).
        let mut l_x = vec![0.0; 2 * n];
        let mut l_xx = MatN::zeros(2 * n, 2 * n);
        for i in 0..n {
            l_x[i] = task.w_q * (x[i] - task.x_goal[i]);
            l_x[n + i] = task.w_qd * (x[n + i] - task.x_goal[n + i]);
            l_xx[(i, i)] = task.w_q;
            l_xx[(n + i, n + i)] = task.w_qd;
        }
        let l_u: Vec<f64> = u.iter().map(|ui| task.w_u * ui).collect();

        // Q-expansion.
        let at = a.transpose();
        let bt = b.transpose();
        let q_x: Vec<f64> = {
            let av = at.mul_vec(&v_x);
            (0..2 * n).map(|i| l_x[i] + av[i]).collect()
        };
        let q_u: Vec<f64> = {
            let bv = bt.mul_vec(&v_x);
            (0..n).map(|i| l_u[i] + bv[i]).collect()
        };
        let vxx_a = v_xx.mul_mat(&a);
        let q_xx = {
            let mut m = at.mul_mat(&vxx_a);
            for i in 0..2 * n {
                for j in 0..2 * n {
                    m[(i, j)] += l_xx[(i, j)];
                }
            }
            m
        };
        let q_ux = bt.mul_mat(&vxx_a);
        let mut q_uu = bt.mul_mat(&v_xx.mul_mat(&b));
        for i in 0..n {
            q_uu[(i, i)] += task.w_u + reg;
        }

        let factor = q_uu.ldlt().ok()?;
        let k = factor.solve(&q_u).ok()?;
        let mut kmat = MatN::zeros(n, 2 * n);
        for col in 0..2 * n {
            let rhs: Vec<f64> = (0..n).map(|i| q_ux[(i, col)]).collect();
            let sol = factor.solve(&rhs).ok()?;
            for i in 0..n {
                kmat[(i, col)] = -sol[i];
            }
        }
        let k: Vec<f64> = k.iter().map(|v| -v).collect();

        // Value function update:
        // V_x = Q_x + Kᵀ Q_uu k + Kᵀ Q_u + Q_uxᵀ k.
        let q_uu_k = q_uu.mul_vec(&k);
        let mut new_v_x = vec![0.0; 2 * n];
        for i in 0..2 * n {
            let mut acc = q_x[i];
            for a_idx in 0..n {
                acc +=
                    kmat[(a_idx, i)] * (q_uu_k[a_idx] + q_u[a_idx]) + q_ux[(a_idx, i)] * k[a_idx];
            }
            new_v_x[i] = acc;
        }
        // V_xx = Q_xx + Kᵀ Q_uu K + Kᵀ Q_ux + Q_uxᵀ K.
        let kt = kmat.transpose();
        let mut new_v_xx = q_xx;
        let kt_quu_k = kt.mul_mat(&q_uu.mul_mat(&kmat));
        let kt_qux = kt.mul_mat(&q_ux);
        for i in 0..2 * n {
            for j in 0..2 * n {
                new_v_xx[(i, j)] += kt_quu_k[(i, j)] + kt_qux[(i, j)] + kt_qux[(j, i)];
            }
        }
        // Symmetrize against drift.
        for i in 0..2 * n {
            for j in (i + 1)..2 * n {
                let avg = 0.5 * (new_v_xx[(i, j)] + new_v_xx[(j, i)]);
                new_v_xx[(i, j)] = avg;
                new_v_xx[(j, i)] = avg;
            }
        }

        v_x = new_v_x;
        v_xx = new_v_xx;
        ks[t] = k;
        kmats[t] = kmat;
    }

    Some((ks, kmats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use robo_fixed::{Fix14_6, Fix32_16};

    fn small_task() -> ReachingTask {
        let mut task = ReachingTask::iiwa_reach();
        task.horizon = 12; // keep unit tests quick
        task
    }

    #[test]
    fn f64_solver_reduces_cost() {
        let task = small_task();
        let result = solve::<f64>(&task, &IlqrOptions::default());
        assert!(result.costs.len() == 11);
        // The gravity-compensated warm start already removes the free-fall
        // cost, so the optimizer's job is the reach itself.
        assert!(
            result.final_cost() < 0.5 * result.costs[0],
            "cost {} -> {} insufficient descent",
            result.costs[0],
            result.final_cost()
        );
        // Monotone non-increasing trace (line search rejects ascent).
        for w in result.costs.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn fixed_point_32_matches_float_convergence() {
        // Figure 12's conclusion: Fixed{16,16} converges like f32.
        let task = small_task();
        let f = solve::<f32>(&task, &IlqrOptions::default());
        let x = solve::<Fix32_16>(&task, &IlqrOptions::default());
        let rel = (x.final_cost() - f.final_cost()).abs() / f.final_cost().max(1e-9);
        assert!(
            rel < 0.2,
            "Fixed{{16,16}} final {} vs f32 {} ({}% apart)",
            x.final_cost(),
            f.final_cost(),
            rel * 100.0
        );
    }

    #[test]
    fn twenty_bit_fixed_point_converges_like_float() {
        // §6.2: "Results indicate it is possible to use 20 bits (14
        // integer, 6 decimal) in future work."
        let task = small_task();
        let f = solve::<f32>(&task, &IlqrOptions::default());
        let x = solve::<Fix14_6>(&task, &IlqrOptions::default());
        let rel = (x.final_cost() - f.final_cost()).abs() / f.final_cost().max(1e-9);
        assert!(
            rel < 0.25,
            "Fixed{{14,6}} final {} vs f32 {} ({}% apart)",
            x.final_cost(),
            f.final_cost(),
            rel * 100.0
        );
    }

    #[test]
    fn task_space_goal_pulls_end_effector() {
        use robo_dynamics::{forward_kinematics, link_origin_world};
        // A reachable point in front of the arm.
        let target = robo_spatial::Vec3::new(0.35, 0.2, 0.9);
        let mut task = ReachingTask::iiwa_ee_reach(target);
        task.horizon = 48;
        task.dt = 0.02;
        task.w_ee = 800.0;
        let opts = IlqrOptions {
            iterations: 25,
            ..Default::default()
        };
        let result = solve::<f64>(&task, &opts);
        let model = DynamicsModel::<f64>::new(&task.robot);
        let n = task.robot.dof();
        let dist_of = |x: &[f64]| {
            let poses = forward_kinematics(&model, &x[..n]);
            (link_origin_world(&poses, n - 1) - target).norm()
        };
        let initial = dist_of(&task.x0);
        let final_d = dist_of(result.states.last().expect("states"));
        assert!(
            final_d < 0.25 * initial,
            "end effector moved {initial:.3} -> {final_d:.3} m from target"
        );
    }

    #[test]
    fn effort_limits_are_respected_when_clamped() {
        use robo_model::JointLimits;
        let mut task = small_task();
        task.clamp_effort = true;
        // Tighten every joint's effort budget.
        let links: Vec<robo_model::Link> = task
            .robot
            .links()
            .iter()
            .map(|l| {
                let mut l = l.clone();
                l.limits = JointLimits {
                    effort: Some(6.0),
                    ..JointLimits::none()
                };
                l
            })
            .collect();
        task.robot = robo_model::RobotModel::new("iiwa_limited", links).unwrap();
        let result = solve::<f64>(&task, &IlqrOptions::default());
        for u in &result.controls {
            for ui in u {
                assert!(ui.abs() <= 6.0 + 1e-12, "control {ui} exceeds limit");
            }
        }
        // The optimizer still makes progress under the tighter budget.
        assert!(result.final_cost() < result.costs[0]);
    }

    #[test]
    fn trace_lengths_and_shapes() {
        let task = small_task();
        let opts = IlqrOptions {
            iterations: 5,
            ..Default::default()
        };
        let r = solve::<f64>(&task, &opts);
        assert_eq!(r.costs.len(), 6);
        assert_eq!(r.controls.len(), task.horizon);
        assert_eq!(r.states.len(), task.horizon + 1);
    }
}
