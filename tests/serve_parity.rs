//! Parity of the serving tier: a gradient served through the
//! micro-batcher — coalesced into wide lane-groups, possibly flushed
//! ragged by the linger deadline — must be **bit-identical** to a direct
//! `GradientBackend::gradient_into` call on the same backend.
//!
//! The serving path adds queuing, SoA lane marshalling, and a block copy
//! back into the caller's buffer, but no arithmetic of its own, so exact
//! equality (not a tolerance) is the contract. Pipelined submissions from
//! many slots force multi-request flushes; tiny linger deadlines force
//! partial-lane (ragged) ones; both shapes are asserted per backend. The
//! vector kernels (`id`, `fd`) go
//! through the same flush, so deep batches of them are held to the same
//! exact contract against a direct `run_into`.

use proptest::prelude::*;
use robomorphic::dynamics::{forward_dynamics, mass_matrix_inverse};
use robomorphic::engine::{BackendKind, KernelKind, KernelOutput, RobotPlan};
use robomorphic::model::robots;
use robomorphic::serve::{GradientRequest, GradientServer, ResponseSlot, ServeConfig};
use std::time::Duration;

/// Deterministically fills a request from proptest draws (via a
/// forward-dynamics solve, so `qdd` is consistent with a real workload).
fn fill_request(plan: &RobotPlan, vals: &[f64], k: usize, req: &mut GradientRequest) {
    let n = plan.dof();
    for i in 0..n {
        req.q[i] = vals[(3 * k + i) % vals.len()];
        req.qd[i] = 1.5 * vals[(3 * k + i + 7) % vals.len()];
    }
    let tau: Vec<f64> = (0..n)
        .map(|i| 2.0 * vals[(3 * k + i + 13) % vals.len()])
        .collect();
    let qdd = forward_dynamics(plan.model(), &req.q, &req.qd, &tau)
        .expect("built-in robots have SPD mass matrices");
    req.qdd.copy_from_slice(&qdd);
    req.minv = mass_matrix_inverse(plan.model(), &req.q).expect("SPD");
}

/// Serves `count` pipelined requests and asserts each response is
/// bit-identical to the direct (unbatched) backend call.
fn check_parity(backend: BackendKind, vals: &[f64], count: usize, linger: Duration) {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        backend,
        max_linger: linger,
        queue_capacity: count.max(4),
        ..ServeConfig::default()
    });
    let key = server.register(&robots::iiwa14());
    let plan = server.plan(key).expect("registered");

    // All slots submitted before any wait: the worker sees a deep queue
    // and coalesces multi-request (full and ragged) flushes.
    let slots: Vec<ResponseSlot> = (0..count).map(|_| ResponseSlot::new()).collect();
    for (k, slot) in slots.iter().enumerate() {
        let mut req = GradientRequest::for_dof(plan.dof());
        fill_request(&plan, vals, k, &mut req);
        server.submit(key, req, slot).expect("admitted");
    }

    let mut direct = plan.backend(backend);
    for (k, slot) in slots.iter().enumerate() {
        let served = slot.wait();
        let mut want = GradientRequest::for_dof(plan.dof());
        fill_request(&plan, vals, k, &mut want);
        direct
            .gradient_into(&want.q, &want.qd, &want.qdd, &want.minv, &mut want.out)
            .expect("dimensions match");
        assert_eq!(
            served.out, want.out,
            "served response {k}/{count} must be bit-identical to the direct \
             {backend:?} gradient"
        );
    }
}

/// Queues `2 · serve_width + extra` requests of a vector kernel into one
/// flush (the linger outlasts the submissions, the batch stays under
/// `max_batch`) and asserts each response is bit-identical to a direct
/// `run_into` on the same backend.
fn check_vector_kernel_parity(
    backend: BackendKind,
    kernel: KernelKind,
    vals: &[f64],
    extra: usize,
) {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        backend,
        max_linger: Duration::from_millis(100),
        ..ServeConfig::default()
    });
    let key = server.register(&robots::iiwa14());
    let plan = server.plan(key).expect("registered");
    let count = 2 * plan.serve_width() + extra;
    let requests: Vec<GradientRequest> = (0..count)
        .map(|k| {
            let mut req = GradientRequest::for_kernel(plan.dof(), kernel);
            fill_request(&plan, vals, k, &mut req);
            if kernel == KernelKind::ForwardDynamics {
                // fd's third slot carries torques.
                for (i, t) in req.qdd.iter_mut().enumerate() {
                    *t = 2.0 * vals[(3 * k + i + 13) % vals.len()];
                }
            }
            req
        })
        .collect();
    let slots: Vec<ResponseSlot> = (0..count).map(|_| ResponseSlot::new()).collect();
    for (req, slot) in requests.iter().zip(&slots) {
        server.submit(key, req.clone(), slot).expect("admitted");
    }

    let mut direct = plan.backend(backend);
    let mut want = KernelOutput::new();
    for (k, (req, slot)) in requests.iter().zip(&slots).enumerate() {
        let served = slot.wait();
        direct
            .run_into(kernel, &req.q, &req.qd, &req.qdd, &req.minv, &mut want)
            .expect("dimensions match");
        let want = match kernel {
            KernelKind::InverseDynamics => &want.tau,
            _ => &want.qdd,
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&served.out_vec),
            bits(want),
            "served {kernel} response {k}/{count} must be bit-identical to the direct \
             {backend:?} run_into"
        );
    }
    assert_eq!(
        server.stats().flushes,
        1,
        "all {count} requests share one flush"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        ..ProptestConfig::default()
    })]

    /// Batched (full lane groups + ragged tail under a realistic linger)
    /// parity per backend.
    #[test]
    fn served_gradients_are_bit_identical_to_direct_calls(
        vals in proptest::collection::vec(-1.0..1.0f64, 64),
        extra in 1usize..4,
    ) {
        for backend in [BackendKind::Cpu, BackendKind::Accel] {
            // One full lane group plus a ragged tail of `extra`.
            let plan = RobotPlan::new(&robots::iiwa14());
            let count = plan.serve_width() + extra;
            check_parity(backend, &vals, count, Duration::from_micros(100));
        }
    }

    /// Deep batches of the vector kernels (≥ 2 lane groups per flush) stay
    /// exact, request by request.
    #[test]
    fn served_id_and_fd_batches_are_bit_identical_to_direct_calls(
        vals in proptest::collection::vec(-1.0..1.0f64, 64),
        extra in 0usize..3,
    ) {
        for backend in [BackendKind::Cpu, BackendKind::Accel] {
            for kernel in [KernelKind::InverseDynamics, KernelKind::ForwardDynamics] {
                check_vector_kernel_parity(backend, kernel, &vals, extra);
            }
        }
    }

    /// Lone requests under an aggressive linger deadline: every flush is
    /// ragged (a partial lane), still bit-identical.
    #[test]
    fn ragged_linger_flushes_stay_exact(
        vals in proptest::collection::vec(-1.0..1.0f64, 64),
    ) {
        for backend in [BackendKind::Cpu, BackendKind::Accel] {
            check_parity(backend, &vals, 3, Duration::from_micros(1));
        }
    }
}
