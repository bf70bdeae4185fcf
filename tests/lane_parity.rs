//! Per-lane bit-identity of the wide (SoA) serving path.
//!
//! The wide scalar `Lanes<S, W>` promises that evaluating `W` states at
//! once is *bit-identical*, lane for lane, to `W` independent scalar runs
//! — not merely close. These properties pin that promise at every level
//! of the stack, for `f64`, `f32`, and `Fix32_16` (the paper's 16.16
//! fixed-point type), with `W ∈ {2, 4, 8}`:
//!
//! * the compiled register tape: `eval_batch_into` (including its ragged
//!   scalar tail) vs per-state `eval_into`;
//! * the dynamics kernels on a widened model: `rnea_into` and
//!   `dynamics_gradient_into` vs scalar runs of the same model;
//! * the engine layer: every backend's `gradient_batch_into` (the shared
//!   lane-group core under `CpuAnalytic` and the accelerator, and
//!   `FiniteDiff`'s per-state loop) vs a hand-rolled `gradient_into` loop.
//!
//! All comparisons go through `to_f64().to_bits()` so that even a sign-off
//! on `-0.0` vs `0.0` would be caught. Batch sizes are drawn from ranges
//! that are usually *not* multiples of `W`, so the ragged tails are
//! exercised constantly.

use proptest::prelude::*;
use robomorphic::codegen::{
    generate_x_unit_with_mask, optimize, BatchEvalWorkspace, CompiledNetlist, EvalWorkspace,
};
use robomorphic::dynamics::batch::GradientState;
use robomorphic::dynamics::engine::{BatchOutput, GradientOutput, KernelKind};
use robomorphic::dynamics::{
    dynamics_gradient_into, forward_dynamics, mass_matrix_inverse, rnea_into, DynamicsModel,
    GradWorkspace, RneaWorkspace,
};
use robomorphic::engine::{BackendKind, RobotPlan};
use robomorphic::fixed::Fix32_16;
use robomorphic::model::robots;
use robomorphic::sparsity::superposition_pattern;
use robomorphic::spatial::{Lanes, MatN, Scalar};

/// Exact bit pattern of a scalar, through the (lossless for all supported
/// types) `f64` representation.
fn bits<S: Scalar>(x: S) -> u64 {
    x.to_f64().to_bits()
}

/// The §4 example joint's X-unit tape, compiled for scalar type `S`.
fn iiwa_tape<S: Scalar>() -> CompiledNetlist<S> {
    let robot = robots::iiwa14();
    let sup = superposition_pattern(&robot);
    CompiledNetlist::compile(&optimize(&generate_x_unit_with_mask(&robot, 1, sup)))
}

/// SoA batch evaluation of the compiled tape must reproduce per-state
/// scalar evaluation bit for bit, including the ragged tail.
fn tape_parity<S: Scalar, const W: usize>(vals: &[f64], count: usize) {
    let tape = iiwa_tape::<S>();
    let n_in = tape.input_names().len();
    let n_out = tape.num_outputs();
    let states: Vec<Vec<S>> = (0..count)
        .map(|i| {
            (0..n_in)
                .map(|k| S::from_f64(vals[(i * n_in + k) % vals.len()]))
                .collect()
        })
        .collect();

    let mut ws = EvalWorkspace::for_netlist(&tape);
    let mut want = vec![S::zero(); count * n_out];
    for (i, s) in states.iter().enumerate() {
        tape.eval_into(s, &mut ws, &mut want[i * n_out..(i + 1) * n_out]);
    }

    let mut batch_ws = BatchEvalWorkspace::<Lanes<S, W>>::for_netlist(&tape);
    let mut got = vec![S::zero(); count * n_out];
    tape.eval_batch_into(&states, &mut batch_ws, &mut got);

    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        prop_assert_eq!(
            bits(*g),
            bits(*w),
            "tape output {} differs (state {}, W={})",
            i,
            i / n_out,
            W
        );
    }
}

/// One deterministic dynamics case in scalar type `S`, derived from the
/// proptest-drawn value pool. The joint state goes through `S::from_f64`
/// exactly once, so scalar and wide runs see identical inputs.
#[allow(clippy::type_complexity)]
fn dynamics_cases<S: Scalar>(
    model: &DynamicsModel<S>,
    vals: &[f64],
    count: usize,
) -> Vec<(Vec<S>, Vec<S>, Vec<S>, MatN<S>)> {
    let n = model.dof();
    (0..count)
        .map(|k| {
            let at = |i: usize| vals[(k * 3 * n + i) % vals.len()];
            let q: Vec<S> = (0..n).map(|i| S::from_f64(at(i))).collect();
            let qd: Vec<S> = (0..n).map(|i| S::from_f64(0.5 * at(n + i))).collect();
            let qdd: Vec<S> = (0..n).map(|i| S::from_f64(0.5 * at(2 * n + i))).collect();
            // The gradient kernel treats M⁻¹ as an opaque matrix operand,
            // so parity holds for any value; prefer the real inverse, fall
            // back to identity if fixed-point factorization rejects a
            // randomly drawn configuration.
            let minv = mass_matrix_inverse(model, &q).unwrap_or_else(|_| MatN::identity(n));
            (q, qd, qdd, minv)
        })
        .collect()
}

/// The wide dynamics kernels (`rnea_into`, `dynamics_gradient_into`) on a
/// widened model must match scalar runs lane for lane. Groups are padded
/// with state 0, so duplicated lanes are checked too.
fn kernel_parity<S: Scalar, const W: usize>(vals: &[f64], count: usize) {
    let robot = robots::iiwa14();
    let model = DynamicsModel::<S>::new(&robot);
    let wide = model.widen::<W>();
    let n = model.dof();
    let cases = dynamics_cases(&model, vals, count);

    // Scalar reference runs.
    let mut rnea_ws = RneaWorkspace::<S>::new();
    let mut grad_ws = GradWorkspace::<S>::new();
    let mut tau_ref: Vec<Vec<u64>> = Vec::with_capacity(count);
    let mut grad_ref: Vec<Vec<u64>> = Vec::with_capacity(count);
    for (q, qd, qdd, minv) in &cases {
        rnea_into(&model, q, qd, qdd, &mut rnea_ws);
        tau_ref.push(rnea_ws.tau.iter().map(|&t| bits(t)).collect());
        dynamics_gradient_into(&model, q, qd, qdd, minv, &mut grad_ws);
        let mut flat = Vec::with_capacity(4 * n * n);
        for m in [
            &grad_ws.dqdd_dq,
            &grad_ws.dqdd_dqd,
            &grad_ws.dtau_dq,
            &grad_ws.dtau_dqd,
        ] {
            for r in 0..n {
                for c in 0..n {
                    flat.push(bits(m[(r, c)]));
                }
            }
        }
        grad_ref.push(flat);
    }

    // Wide runs, one group of W states at a time (tail padded with case 0).
    let mut q_w = vec![Lanes::<S, W>::zero(); n];
    let mut qd_w = vec![Lanes::<S, W>::zero(); n];
    let mut qdd_w = vec![Lanes::<S, W>::zero(); n];
    let mut minv_w = MatN::<Lanes<S, W>>::zeros(n, n);
    let mut rnea_w = RneaWorkspace::<Lanes<S, W>>::new();
    let mut grad_w = GradWorkspace::<Lanes<S, W>>::new();
    for group in 0..count.div_ceil(W) {
        let case_of = |l: usize| (group * W + l) % count;
        for l in 0..W {
            let (q, qd, qdd, minv) = &cases[case_of(l)];
            for i in 0..n {
                q_w[i].set_lane(l, q[i]);
                qd_w[i].set_lane(l, qd[i]);
                qdd_w[i].set_lane(l, qdd[i]);
            }
            for r in 0..n {
                for c in 0..n {
                    minv_w[(r, c)].set_lane(l, minv[(r, c)]);
                }
            }
        }
        rnea_into(&wide, &q_w, &qd_w, &qdd_w, &mut rnea_w);
        dynamics_gradient_into(&wide, &q_w, &qd_w, &qdd_w, &minv_w, &mut grad_w);
        for l in 0..W {
            let case = case_of(l);
            for (j, (tau, &want)) in rnea_w.tau.iter().zip(&tau_ref[case]).enumerate() {
                prop_assert_eq!(
                    bits(tau.lane(l)),
                    want,
                    "tau[{}] lane {} differs from scalar run (W={})",
                    j,
                    l,
                    W
                );
            }
            let mut at = 0;
            for m in [
                &grad_w.dqdd_dq,
                &grad_w.dqdd_dqd,
                &grad_w.dtau_dq,
                &grad_w.dtau_dqd,
            ] {
                for r in 0..n {
                    for c in 0..n {
                        prop_assert_eq!(
                            bits(m[(r, c)].lane(l)),
                            grad_ref[case][at],
                            "gradient entry ({}, {}) lane {} differs (W={})",
                            r,
                            c,
                            l,
                            W
                        );
                        at += 1;
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Compiled tape, all three scalar types, W ∈ {2, 4, 8}, ragged tails.
    #[test]
    fn tape_batch_is_bit_identical_per_lane(
        vals in prop::collection::vec(-0.95..0.95f64, 48..96),
        count in 1usize..13,
    ) {
        tape_parity::<f64, 2>(&vals, count);
        tape_parity::<f64, 4>(&vals, count);
        tape_parity::<f64, 8>(&vals, count);
        tape_parity::<f32, 4>(&vals, count);
        tape_parity::<Fix32_16, 4>(&vals, count);
    }

    /// Wide RNEA + gradient kernels on widened models, all scalar types.
    #[test]
    fn dynamics_kernels_are_bit_identical_per_lane(
        vals in prop::collection::vec(-0.8..0.8f64, 42..84),
        count in 1usize..7,
    ) {
        kernel_parity::<f64, 2>(&vals, count);
        kernel_parity::<f64, 4>(&vals, count);
        kernel_parity::<f64, 8>(&vals, count);
        kernel_parity::<f32, 4>(&vals, count);
        kernel_parity::<Fix32_16, 4>(&vals, count);
    }

    /// Every engine backend's SoA batch path reproduces a hand-rolled
    /// serial `gradient_into` loop exactly — the lane-group core on the
    /// CPU and accelerator backends, and the per-state loop of
    /// `FiniteDiff`.
    #[test]
    fn backend_batches_match_serial_bitwise(
        seed in 0.0..1.0f64,
        count in 1usize..11,
    ) {
        let robot = robots::iiwa14();
        let plan = RobotPlan::new(&robot);
        let model = DynamicsModel::<f64>::new(&robot);
        let n = model.dof();
        let cases: Vec<_> = (0..count)
            .map(|k| {
                let q: Vec<f64> =
                    (0..n).map(|i| 0.6 * seed + 0.07 * (i + k) as f64 - 0.3).collect();
                let qd: Vec<f64> = (0..n).map(|i| 0.04 * i as f64 - 0.1 * seed).collect();
                let tau = vec![0.4; n];
                let qdd = forward_dynamics(&model, &q, &qd, &tau).expect("valid case");
                let minv = mass_matrix_inverse(&model, &q).expect("SPD mass matrix");
                (q, qd, qdd, minv)
            })
            .collect();
        let states: Vec<GradientState<'_, f64>> = cases
            .iter()
            .map(|(q, qd, qdd, minv)| GradientState { q, qd, qdd, minv })
            .collect();

        for kind in [BackendKind::Cpu, BackendKind::Accel, BackendKind::FiniteDiff] {
            let mut backend = plan.backend(kind);
            let mut want = BatchOutput::new();
            want.reset(KernelKind::Gradient, count, n);
            let mut scratch = GradientOutput::for_dof(n);
            for (i, s) in states.iter().enumerate() {
                backend
                    .gradient_into(s.q, s.qd, s.qdd, s.minv, &mut scratch)
                    .expect("dimensions match the plan");
                want.store(i, &scratch);
            }

            let mut got = BatchOutput::new();
            backend
                .gradient_batch_into(&states, &mut got)
                .expect("dimensions match the plan");
            prop_assert_eq!(&got, &want, "`{}` batch path diverged from serial", kind);
        }
    }
}
