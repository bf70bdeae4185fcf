//! Parity of the serving tier: a gradient served through the
//! micro-batcher — coalesced into wide lane-groups, or flushed ragged by
//! a worker or a blocked waiter that found fewer requests queued — must
//! be **bit-identical** to a direct `gradient_into` call on the same
//! backend.
//!
//! The serving path adds queuing, SoA lane marshalling, and a block copy
//! back into the caller's buffer, but no arithmetic of its own, so exact
//! equality (not a tolerance) is the contract. Pipelined submissions from
//! many slots produce multi-request flushes of whatever size the worker
//! drains, full or partial-lane (ragged); every response is asserted per
//! backend. The vector kernels (`id`, `fd`) go through the same flush,
//! so batches of them are held to the same exact contract against a
//! direct `run_into`. (That one flush of two or more lane groups is
//! exact is pinned deterministically by the shard's own unit tests.)

use proptest::prelude::*;
use robomorphic::dynamics::{forward_dynamics, mass_matrix_inverse};
use robomorphic::engine::{BackendKind, KernelKind, KernelOutput, RobotPlan};
use robomorphic::model::robots;
use robomorphic::serve::{GradientRequest, GradientServer, ResponseSlot, ServeConfig};

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
fn check_parity(backend: BackendKind, vals: &[f64], count: usize) {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        backend,
        queue_capacity: count.max(4),
        ..ServeConfig::default()
    });
    let key = server.register(&robots::iiwa14());
    let plan = server.plan(key).expect("registered");

    // All slots submitted before any wait: the worker drains what has
    // queued each time it comes round, so flushes hold one or more
    // requests (full and ragged).
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

/// Pipelines `2 · serve_width + extra` requests of a vector kernel
/// (flushed in as many batches as the worker drains them) and asserts
/// each response is bit-identical to a direct `run_into` on the same
/// backend.
fn check_vector_kernel_parity(
    backend: BackendKind,
    kernel: KernelKind,
    vals: &[f64],
    extra: usize,
) {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        backend,
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
    let stats = server.stats();
    assert_eq!(stats.completed, count as u64);
    assert!((1..=count as u64).contains(&stats.flushes));
}

/// Closed-loop clients sharing one shard: `waiters` block in
/// `ResponseSlot::wait` (and so may flush a batch themselves, other
/// clients' requests included) while `pollers` spin on `try_take` (which
/// never flushes). Every response is asserted bit-identical to the direct
/// call, and every admitted request is answered.
fn check_waiters_and_pollers(
    backend: BackendKind,
    vals: &[f64],
    waiters: usize,
    pollers: usize,
    rounds: usize,
) {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        backend,
        ..ServeConfig::default()
    });
    let key = server.register(&robots::iiwa14());
    let plan = server.plan(key).expect("registered");
    std::thread::scope(|scope| {
        for client in 0..waiters + pollers {
            let (server, plan) = (&server, &plan);
            scope.spawn(move || {
                let polls = client >= waiters;
                let slot = ResponseSlot::new();
                let mut direct = plan.backend(backend);
                let mut req = GradientRequest::for_dof(plan.dof());
                let mut want = GradientRequest::for_dof(plan.dof());
                for round in 0..rounds {
                    let k = client * rounds + round;
                    fill_request(plan, vals, k, &mut req);
                    server.submit(key, req, &slot).expect("admitted");
                    req = if polls {
                        loop {
                            match slot.try_take() {
                                Some(req) => break req,
                                None => std::thread::yield_now(),
                            }
                        }
                    } else {
                        slot.wait()
                    };
                    fill_request(plan, vals, k, &mut want);
                    direct
                        .gradient_into(&want.q, &want.qd, &want.qdd, &want.minv, &mut want.out)
                        .expect("dimensions match");
                    assert_eq!(
                        req.out, want.out,
                        "client {client} (polls: {polls}) round {round} must be bit-identical \
                         to the direct {backend:?} gradient"
                    );
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.submitted, ((waiters + pollers) * rounds) as u64);
    assert_eq!(stats.completed, stats.submitted);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        ..ProptestConfig::default()
    })]

    /// Batched (full lane groups and ragged flushes, as the worker drains
    /// them) parity per backend.
    #[test]
    fn served_gradients_are_bit_identical_to_direct_calls(
        vals in proptest::collection::vec(-1.0..1.0f64, 64),
        extra in 1usize..4,
    ) {
        for backend in [BackendKind::Cpu, BackendKind::Accel] {
            // One full lane group plus a ragged tail of `extra`.
            let plan = RobotPlan::new(&robots::iiwa14());
            let count = plan.serve_width() + extra;
            check_parity(backend, &vals, count);
        }
    }

    /// Pipelined batches of the vector kernels (≥ 2 lane groups in
    /// flight) stay exact, request by request.
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

    /// Blocking waiters and `try_take` pollers on one shard: whichever
    /// thread flushes a batch, every answer stays exact and none is lost.
    #[test]
    fn waiters_and_pollers_sharing_a_shard_get_exact_answers(
        vals in proptest::collection::vec(-1.0..1.0f64, 64),
    ) {
        for backend in [BackendKind::Cpu, BackendKind::Accel] {
            check_waiters_and_pollers(backend, &vals, 2, 2, 16);
        }
    }

    /// Bursts smaller than one lane group: every flush is ragged (a
    /// partial lane), still bit-identical. (The name is historical: no
    /// deadline is involved.)
    #[test]
    fn ragged_linger_flushes_stay_exact(
        vals in proptest::collection::vec(-1.0..1.0f64, 64),
    ) {
        for backend in [BackendKind::Cpu, BackendKind::Accel] {
            check_parity(backend, &vals, 3);
        }
    }
}
