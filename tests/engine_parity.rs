//! Cross-backend parity of the engine layer: every `GradientBackend` of a
//! [`RobotPlan`] must agree on the same morphology and state, for every
//! built-in robot, through the *trait object* interface the consumers
//! (iLQR, MPC, the CPU baseline, `stream_batch`, the CLI) actually use.
//!
//! Tolerances, and why they differ:
//!
//! * **cpu vs the raw kernel** — bit-identical. `CpuAnalytic` is a thin
//!   wrapper over `dynamics_gradient_into`; any difference is a bug.
//! * **cpu vs accel (both f64)** — tight *relative* tolerance (1e-12),
//!   not bit-identity. The accelerator simulation evaluates the ∂X/∂q
//!   stage through compiled netlists whose CSE/constant-folding reorders
//!   floating-point sums relative to the software kernel, so the two
//!   paths round differently in the last few ulps (measured 9e-16..2e-13
//!   across the built-in robots). What *is* bit-identical is the accel
//!   path across its own X-unit execution modes, asserted below.
//! * **fd vs cpu** — finite differences with step 1e-6 is an oracle with
//!   O(step) truncation error; 5e-3 scaled by the gradient's magnitude.

use proptest::prelude::*;
use robomorphic::dynamics::{dynamics_gradient_from_qdd, mass_matrix_inverse, DynamicsModel};
use robomorphic::engine::{
    AcceleratorBackend, BackendKind, GradientBackend, GradientOutput, KernelKind, KernelOutput,
    RobotPlan,
};
use robomorphic::model::{robots, RobotModel};
use robomorphic::sim::{AcceleratorSim, XUnitBackend};
use robomorphic::spatial::MatN;

fn test_robots() -> Vec<RobotModel> {
    vec![
        robots::iiwa14(),
        robots::hyq(),
        robots::atlas(),
        robots::panda(),
        robots::ur5(),
        robots::double_pendulum(),
    ]
}

/// Deterministically expands `vals` into an `n`-length state vector.
fn take(vals: &[f64], offset: usize, n: usize, scale: f64) -> Vec<f64> {
    (0..n)
        .map(|i| scale * vals[(offset + i) % vals.len()])
        .collect()
}

fn rel_diff(a: &MatN<f64>, b: &MatN<f64>) -> f64 {
    a.max_abs_diff(b) / a.max_abs().max(1.0)
}

fn check_robot(robot: &RobotModel, vals: &[f64], r: usize) {
    let n = robot.dof();
    let model = DynamicsModel::<f64>::new(robot);
    let q = take(vals, 5 * r, n, 1.0);
    let qd = take(vals, 5 * r + 1, n, 1.5);
    let qdd = take(vals, 5 * r + 2, n, 2.0);
    let minv = mass_matrix_inverse(&model, &q).expect("built-in robots have SPD mass matrices");

    let plan = RobotPlan::new(robot);
    let mut outs = Vec::new();
    for kind in BackendKind::ALL {
        let mut backend = plan.backend(kind);
        assert_eq!(backend.dof(), n, "{}: `{kind}` dof", robot.name());
        let mut out = GradientOutput::for_dof(n);
        backend
            .gradient_into(&q, &qd, &qdd, &minv, &mut out)
            .expect("dimensions match the plan");
        outs.push(out);
    }
    let [cpu, accel, fd] = <[GradientOutput; 3]>::try_from(outs).expect("three backends");

    // The cpu backend is the raw analytical kernel, bit for bit.
    let oracle = dynamics_gradient_from_qdd(&model, &q, &qd, &qdd, &minv);
    assert_eq!(cpu.dqdd_dq, oracle.dqdd_dq, "{}: cpu ∂q̈/∂q", robot.name());
    assert_eq!(cpu.dqdd_dqd, oracle.dqdd_dqd);
    assert_eq!(cpu.dtau_dq, oracle.id_gradient.dtau_dq);
    assert_eq!(cpu.dtau_dqd, oracle.id_gradient.dtau_dqd);

    // cpu vs accel: last-ulps disagreement only (see module docs).
    for (name, a, b) in [
        ("∂q̈/∂q", &cpu.dqdd_dq, &accel.dqdd_dq),
        ("∂q̈/∂q̇", &cpu.dqdd_dqd, &accel.dqdd_dqd),
        ("∂τ/∂q", &cpu.dtau_dq, &accel.dtau_dq),
        ("∂τ/∂q̇", &cpu.dtau_dqd, &accel.dtau_dqd),
    ] {
        let d = rel_diff(a, b);
        assert!(
            d < 1e-12,
            "{}: cpu vs accel {name} relative diff {d:.2e}",
            robot.name()
        );
    }

    // fd vs cpu: truncation-limited oracle agreement.
    for (name, a, b) in [
        ("∂q̈/∂q", &cpu.dqdd_dq, &fd.dqdd_dq),
        ("∂q̈/∂q̇", &cpu.dqdd_dqd, &fd.dqdd_dqd),
        ("∂τ/∂q", &cpu.dtau_dq, &fd.dtau_dq),
        ("∂τ/∂q̇", &cpu.dtau_dqd, &fd.dtau_dqd),
    ] {
        let d = rel_diff(a, b);
        assert!(
            d < 5e-3,
            "{}: cpu vs fd {name} relative diff {d:.2e}",
            robot.name()
        );
    }

    // The accel path IS bit-identical across its own X-unit execution
    // modes: compiled netlists vs the factored-coefficient evaluator.
    let mut coeff_sim = AcceleratorSim::<f64>::new(robot);
    coeff_sim.set_backend(XUnitBackend::Coefficients);
    let mut coeff = AcceleratorBackend::from_sim(coeff_sim);
    let mut out = GradientOutput::for_dof(n);
    coeff
        .gradient_into(&q, &qd, &qdd, &minv, &mut out)
        .expect("dimensions match the robot");
    assert_eq!(out.dqdd_dq, accel.dqdd_dq, "{}: X-unit modes", robot.name());
    assert_eq!(out.dqdd_dqd, accel.dqdd_dqd);
    assert_eq!(out.dtau_dq, accel.dtau_dq);
    assert_eq!(out.dtau_dqd, accel.dtau_dqd);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]
    #[test]
    fn backends_agree_on_every_builtin_robot(
        vals in proptest::collection::vec(-1.0..1.0f64, 64)
    ) {
        for (r, robot) in test_robots().into_iter().enumerate() {
            check_robot(&robot, &vals, r);
        }
    }
}

/// Asserts `run_batch_into(kernel, states)` equals per-state `run_into`
/// bit for bit, for one backend at one batch size.
fn check_batch_entry(
    plan: &RobotPlan,
    kind: BackendKind,
    kernel: KernelKind,
    vals: &[f64],
    count: usize,
) {
    use robomorphic::dynamics::batch::GradientState;
    use robomorphic::engine::BatchOutput;
    let n = plan.dof();
    type OwnedState = (Vec<f64>, Vec<f64>, Vec<f64>, MatN<f64>);
    let cases: Vec<OwnedState> = (0..count)
        .map(|k| {
            let q = take(vals, 3 * k, n, 1.0);
            let minv = mass_matrix_inverse(plan.model(), &q).expect("SPD");
            (
                q,
                take(vals, 3 * k + 1, n, 1.5),
                take(vals, 3 * k + 2, n, 2.0),
                minv,
            )
        })
        .collect();
    let states: Vec<GradientState<'_, f64>> = cases
        .iter()
        .map(|(q, qd, third, minv)| GradientState {
            q,
            qd,
            qdd: third,
            minv,
        })
        .collect();
    let mut backend = plan.backend(kind);
    let mut batch = BatchOutput::new();
    backend
        .run_batch_into(kernel, &states, &mut batch)
        .expect("dimensions match the plan");
    assert_eq!((batch.kernel(), batch.count()), (kernel, count));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut single = KernelOutput::new();
    for (i, (q, qd, third, minv)) in cases.iter().enumerate() {
        backend
            .run_into(kernel, q, qd, third, minv, &mut single)
            .expect("dimensions match the plan");
        let (got, want): (Vec<&[f64]>, Vec<&[f64]>) = match kernel {
            KernelKind::InverseDynamics => (vec![batch.tau_at(i)], vec![&single.tau]),
            KernelKind::ForwardDynamics => (vec![batch.qdd_at(i)], vec![&single.qdd]),
            KernelKind::Gradient => (
                vec![
                    batch.dqdd_dq_at(i),
                    batch.dqdd_dqd_at(i),
                    batch.dtau_dq_at(i),
                    batch.dtau_dqd_at(i),
                ],
                vec![
                    single.grad.dqdd_dq.as_slice(),
                    single.grad.dqdd_dqd.as_slice(),
                    single.grad.dtau_dq.as_slice(),
                    single.grad.dtau_dqd.as_slice(),
                ],
            ),
        };
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                bits(g),
                bits(w),
                "`{kind}` {kernel}: batch of {count}, state {i} differs from run_into"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]
    /// The one compute entry against its single-state wrapper, for every
    /// backend and kernel, at sizes around the lane width: empty, one,
    /// a partial group, exactly one group, one past it, and two groups
    /// plus a ragged tail of three.
    #[test]
    fn batch_entry_is_bit_identical_to_single_states(
        vals in proptest::collection::vec(-1.0..1.0f64, 64)
    ) {
        let plan = RobotPlan::new(&robots::iiwa14());
        for kind in BackendKind::ALL {
            let w = plan.backend(kind).serve_width();
            for count in [0, 1, w - 1, w, w + 1, 2 * w + 3] {
                for kernel in KernelKind::ALL {
                    check_batch_entry(&plan, kind, kernel, &vals, count);
                }
            }
        }
    }
}

#[test]
fn every_backend_rejects_mismatched_dimensions() {
    let robot = robots::iiwa14();
    let plan = RobotPlan::new(&robot);
    let n = plan.dof();
    let good = vec![0.1; n];
    let minv = MatN::<f64>::identity(n);
    let mut out = GradientOutput::for_dof(n);
    for kind in BackendKind::ALL {
        let mut backend = plan.backend(kind);
        let err = backend
            .gradient_into(&good[..n - 1], &good, &good, &minv, &mut out)
            .expect_err("short q must be rejected");
        let msg = err.to_string();
        assert!(msg.contains("q"), "`{kind}`: {msg}");
        assert!(msg.contains(&n.to_string()), "`{kind}`: {msg}");
        let bad_minv = MatN::<f64>::identity(n + 1);
        assert!(backend
            .gradient_into(&good, &good, &good, &bad_minv, &mut out)
            .is_err());
    }
}

#[test]
fn batch_entry_point_matches_serial_calls() {
    // The trait's batch path (what stream_batch and iLQR's backward pass
    // build on) must equal one-at-a-time calls for every backend, and the
    // engine's chunked path must be bitwise equal to the backend's own
    // batch at every chunk boundary: 0, 1, w−1, w, w+1 and 2w+3 states
    // (w = 4, the lane width and chunk length), 48 and 256, on a
    // one-worker engine and on the global one.
    use robomorphic::dynamics::batch::{BatchEngine, GradientState};
    use robomorphic::engine::{gradient_batch_on_into, BatchOutput, WarmForks};
    let robot = robots::hyq();
    let plan = RobotPlan::new(&robot);
    let n = plan.dof();
    let model = DynamicsModel::<f64>::new(&robot);

    let mut s = 42u64;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as f64 / (1u64 << 31) as f64 - 1.0
    };
    type OwnedState = (Vec<f64>, Vec<f64>, Vec<f64>, MatN<f64>);
    let states: Vec<OwnedState> = (0..256)
        .map(|_| {
            let q: Vec<f64> = (0..n).map(|_| next()).collect();
            let qd: Vec<f64> = (0..n).map(|_| 1.5 * next()).collect();
            let qdd: Vec<f64> = (0..n).map(|_| 2.0 * next()).collect();
            let minv = mass_matrix_inverse(&model, &q).expect("SPD");
            (q, qd, qdd, minv)
        })
        .collect();
    let views: Vec<GradientState<'_, f64>> = states
        .iter()
        .map(|(q, qd, qdd, minv)| GradientState { q, qd, qdd, minv })
        .collect();
    fn gradients(b: &BatchOutput) -> (usize, [&Vec<f64>; 4]) {
        (
            b.count(),
            [&b.dqdd_dq, &b.dqdd_dqd, &b.dtau_dq, &b.dtau_dqd],
        )
    }

    let one_worker = BatchEngine::new(1);
    for kind in BackendKind::ALL {
        let mut backend = plan.backend(kind);
        let mut own = BatchOutput::new();
        let mut flat = BatchOutput::new();
        for engine in [&one_worker, BatchEngine::global()] {
            let mut forks = WarmForks::new(engine, || plan.backend(kind));
            for len in [0, 1, 3, 4, 5, 11, 48, 256] {
                gradient_batch_on_into(&mut forks, &views[..len], &mut flat)
                    .expect("dimensions match");
                backend
                    .gradient_batch_into(&views[..len], &mut own)
                    .expect("dimensions match");
                assert_eq!(
                    gradients(&flat),
                    gradients(&own),
                    "`{kind}` at {len} states"
                );
            }
        }
        // `flat` now holds all 256 states from the global engine.
        assert_eq!(flat.count(), states.len());
        let mut out = GradientOutput::for_dof(n);
        for (i, (q, qd, qdd, minv)) in states.iter().enumerate() {
            backend
                .gradient_into(q, qd, qdd, minv, &mut out)
                .expect("dimensions match");
            let b = flat.gradient_at(i);
            assert_eq!(out.dqdd_dq, b.dqdd_dq, "`{kind}` batch vs serial");
            assert_eq!(out.dqdd_dqd, b.dqdd_dqd);
        }
    }
}
