//! Serving-tier behaviour: plan-cache coalescing, backpressure shed,
//! graceful drain, and correctness of batched responses.

use robo_dynamics::engine::KernelOutput;
use robo_dynamics::{forward_dynamics, mass_matrix_inverse, rnea};
use robo_model::robots;
use robo_serve::{
    GradientRequest, GradientServer, KernelKind, ResponseSlot, ServeConfig, ServeError,
};
use robo_sim::engine::{BackendKind, RobotPlan};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Fills a request buffer with a deterministic evaluation point `k`.
fn fill_case(plan: &RobotPlan, k: usize, req: &mut GradientRequest) {
    let n = plan.dof();
    for i in 0..n {
        req.q[i] = 0.07 * (i + k) as f64 - 0.2;
        req.qd[i] = 0.03 * i as f64 - 0.01 * k as f64;
    }
    let tau = vec![0.3 + 0.1 * k as f64; n];
    let qdd = forward_dynamics(plan.model(), &req.q, &req.qd, &tau).unwrap();
    req.qdd.copy_from_slice(&qdd);
    req.minv = mass_matrix_inverse(plan.model(), &req.q).unwrap();
}

#[test]
fn concurrent_cold_registrations_build_exactly_one_plan() {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    let keys: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let server = server.clone();
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    // Line every thread up on the cold cache before racing
                    // into register(), so misses really are concurrent.
                    barrier.wait();
                    server.register(&robots::iiwa14())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(keys.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(
        server.stats().plans_built,
        1,
        "N concurrent cold requests must coalesce onto one plan build"
    );
    // A second morphology still gets its own build.
    server.register(&robots::hyq());
    assert_eq!(server.stats().plans_built, 2);
}

#[test]
fn overload_sheds_typed_and_drain_answers_the_admitted() {
    // A client that submits without waiting outruns the one worker (each
    // flush wakes a thread and runs the kernel), so the two-deep queue
    // soon turns a submission away. The shard's unit test of the same
    // name pins the exact shed point with no worker at all.
    let capacity = 2;
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        queue_capacity: capacity,
        backend: BackendKind::Cpu,
        ..ServeConfig::default()
    });
    let key = server.register(&robots::iiwa14());
    let plan = server.plan(key).unwrap();
    let cases: Vec<GradientRequest> = (0..16)
        .map(|k| {
            let mut req = GradientRequest::for_dof(plan.dof());
            fill_case(&plan, k, &mut req);
            req
        })
        .collect();

    let mut slots: Vec<ResponseSlot> = Vec::new();
    let rejected = loop {
        assert!(slots.len() < 4096, "the queue never filled");
        let slot = ResponseSlot::new();
        match server.submit(key, cases[slots.len() % cases.len()].clone(), &slot) {
            Ok(()) => slots.push(slot),
            Err(rejected) => {
                assert!(!slot.is_pending());
                break rejected;
            }
        }
    };
    assert_eq!(
        rejected.error,
        ServeError::Overloaded {
            depth: capacity,
            capacity
        }
    );
    // The shed path hands the buffer back untouched.
    assert_eq!(rejected.req.q, cases[slots.len() % cases.len()].q);

    let stats = server.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.submitted, slots.len() as u64);
    assert_eq!(stats.queue_high_water, capacity as u64);

    // Graceful shutdown: dropping the server drains the queue — every
    // admitted request is answered, bit-identical to a direct backend.
    drop(server);
    let mut direct = plan.backend(BackendKind::Cpu);
    for (k, slot) in slots.iter().enumerate() {
        let got = slot.wait();
        let want = &cases[k % cases.len()];
        let mut expected = want.out.clone();
        direct
            .gradient_into(&want.q, &want.qd, &want.qdd, &want.minv, &mut expected)
            .unwrap();
        assert_eq!(got.out, expected, "drained response {k} must be exact");
    }
}

#[test]
fn non_finite_inputs_are_refused_and_the_shard_keeps_serving() {
    // Admitted, a NaN `fd` request on the cpu backend would panic its
    // worker in the ABA's pivot check, stranding its own client and
    // every later request on the shard. It is refused at admission.
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        backend: BackendKind::Cpu,
        ..ServeConfig::default()
    });
    let key = server.register(&robots::iiwa14());
    let plan = server.plan(key).unwrap();
    let n = plan.dof();
    let slot = ResponseSlot::new();
    let fd = KernelKind::ForwardDynamics;

    let mut bad = GradientRequest::for_kernel(n, fd);
    bad.q.fill(f64::NAN);
    let rejected = server.submit(key, bad, &slot).expect_err("NaN q");
    assert_eq!(rejected.error, ServeError::NonFinite { what: "q" });
    assert!(
        rejected.req.q.iter().all(|x| x.is_nan()),
        "buffer handed back"
    );
    assert!(!slot.is_pending());
    for what in ["qd", "qdd", "minv"] {
        let mut bad = GradientRequest::for_kernel(n, fd);
        match what {
            "qd" => bad.qd[n - 1] = f64::INFINITY,
            "qdd" => bad.qdd[0] = f64::NEG_INFINITY,
            _ => bad.minv[(1, 2)] = f64::NAN,
        }
        let rejected = server.submit(key, bad, &slot).expect_err("non-finite");
        assert_eq!(rejected.error, ServeError::NonFinite { what });
    }

    // The shard still serves: the next valid request is answered exactly.
    let mut good = GradientRequest::for_kernel(n, fd);
    fill_case(&plan, 0, &mut good);
    let got = server.serve(key, good.clone(), &slot).expect("valid fd");
    let mut want = KernelOutput::new();
    plan.backend(BackendKind::Cpu)
        .run_into(fd, &good.q, &good.qd, &good.qdd, &good.minv, &mut want)
        .unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.out_vec), bits(&want.qdd));
    let stats = server.stats();
    assert_eq!((stats.submitted, stats.completed), (1, 1));
}

#[test]
fn rejections_are_typed_and_return_the_buffer() {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        backend: BackendKind::Cpu,
        ..ServeConfig::default()
    });
    let key = server.register(&robots::iiwa14());
    let plan = server.plan(key).unwrap();
    let slot = ResponseSlot::new();

    // Unknown morphology: hyq was never registered.
    let foreign = RobotPlan::new(&robots::hyq());
    let rejected = server
        .submit(
            foreign.morphology_key(),
            GradientRequest::for_dof(foreign.dof()),
            &slot,
        )
        .expect_err("not registered");
    assert_eq!(
        rejected.error,
        ServeError::UnknownMorphology(foreign.morphology_key())
    );
    assert!(server.plan(foreign.morphology_key()).is_none());

    // Dimension mismatch: a 3-dof buffer against a 7-dof plan.
    let rejected = server
        .submit(key, GradientRequest::for_dof(3), &slot)
        .expect_err("wrong dof");
    assert!(matches!(rejected.error, ServeError::Dimension(_)));

    // Slot busy: a second submission while one is in flight.
    let mut req = GradientRequest::for_dof(plan.dof());
    fill_case(&plan, 0, &mut req);
    server.submit(key, req, &slot).expect("admitted");
    let mut second = GradientRequest::for_dof(plan.dof());
    fill_case(&plan, 1, &mut second);
    let rejected = server.submit(key, second, &slot).expect_err("slot busy");
    assert_eq!(rejected.error, ServeError::SlotBusy);
    // The in-flight request still completes normally.
    let done = slot.wait();
    assert_eq!(done.out.dqdd_dq.rows(), plan.dof());
}

#[test]
fn coalesced_responses_match_direct_backends() {
    // Pipelined submissions from many slots force multi-request flushes
    // (full and ragged); every response must be bit-identical to a direct
    // serial gradient call on the same backend.
    for backend in [BackendKind::Cpu, BackendKind::Accel] {
        let server = GradientServer::with_config(ServeConfig {
            workers: 1,
            backend,
            ..ServeConfig::default()
        });
        let key = server.register(&robots::iiwa14());
        let plan = server.plan(key).unwrap();
        let count = 2 * plan.serve_width() + 3; // full groups + ragged tail
        let slots: Vec<ResponseSlot> = (0..count).map(|_| ResponseSlot::new()).collect();
        for (k, slot) in slots.iter().enumerate() {
            let mut req = GradientRequest::for_dof(plan.dof());
            fill_case(&plan, k, &mut req);
            server.submit(key, req, slot).expect("admitted");
        }
        let mut direct = plan.backend(backend);
        for (k, slot) in slots.iter().enumerate() {
            let got = slot.wait();
            let mut want = GradientRequest::for_dof(plan.dof());
            fill_case(&plan, k, &mut want);
            let mut expected = want.out.clone();
            direct
                .gradient_into(&want.q, &want.qd, &want.qdd, &want.minv, &mut expected)
                .unwrap();
            assert_eq!(got.out, expected, "{backend:?} response {k}");
        }
        let stats = server.stats();
        assert_eq!(stats.completed, count as u64);
        assert_eq!(stats.shed, 0);
        assert!(stats.flushes >= 1);
    }
}

#[test]
fn kernel_tagged_requests_route_to_family_shards() {
    // One morphology serving all three kernels of the family: the plan is
    // built once, each kernel gets its own shard, and the id/fd responses
    // land in `out_vec` matching the direct dynamics kernels.
    for backend in [BackendKind::Cpu, BackendKind::Accel] {
        let server = GradientServer::with_config(ServeConfig {
            workers: 1,
            backend,
            ..ServeConfig::default()
        });
        let key = server.register(&robots::iiwa14());
        let plan = server.plan(key).unwrap();
        let n = plan.dof();
        let slot = ResponseSlot::new();

        // Inverse dynamics: qdd carries q̈, out_vec comes back as τ.
        let mut req = GradientRequest::for_kernel(n, KernelKind::InverseDynamics);
        fill_case(&plan, 0, &mut req);
        let req = server.serve(key, req, &slot).expect("id round trip");
        let want_tau = rnea(plan.model(), &req.q, &req.qd, &req.qdd).tau;
        let tol = if backend == BackendKind::Cpu {
            0.0
        } else {
            1e-10
        };
        for (i, (got, want)) in req.out_vec.iter().zip(&want_tau).enumerate() {
            assert!(
                (got - want).abs() <= tol * want.abs().max(1.0),
                "{backend:?} id torque {i}: {got} vs {want}"
            );
        }

        // Forward dynamics: qdd carries τ, out_vec comes back as q̈. Feed
        // the torques just computed so fd must recover the original q̈.
        let mut fd_req = GradientRequest::for_kernel(n, KernelKind::ForwardDynamics);
        fill_case(&plan, 0, &mut fd_req);
        let want_qdd = fd_req.qdd.clone();
        fd_req.qdd.copy_from_slice(&want_tau);
        let fd_req = server.serve(key, fd_req, &slot).expect("fd round trip");
        for (i, (got, want)) in fd_req.out_vec.iter().zip(&want_qdd).enumerate() {
            assert!(
                (got - want).abs() <= 1e-8 * want.abs().max(1.0),
                "{backend:?} fd accel {i}: {got} vs {want}"
            );
        }

        // Gradient requests still work through the same server, and the
        // whole family cost exactly one plan build.
        let mut grad = GradientRequest::for_dof(n);
        fill_case(&plan, 1, &mut grad);
        let grad = server.serve(key, grad, &slot).expect("grad round trip");
        assert_eq!(grad.out.dqdd_dq.rows(), n);
        let stats = server.stats();
        assert_eq!(
            stats.plans_built, 1,
            "{backend:?}: all three kernel shards must share one plan"
        );
        assert_eq!(stats.completed, 3);
    }
}

#[test]
fn serve_round_trip_and_stats_observability() {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        backend: BackendKind::Accel,
        ..ServeConfig::default()
    });
    let key = server.register(&robots::iiwa14());
    let plan = server.plan(key).unwrap();
    let slot = ResponseSlot::new();
    let mut req = GradientRequest::for_dof(plan.dof());
    for turn in 0..5 {
        fill_case(&plan, turn, &mut req);
        let submitted = Instant::now();
        req = server.serve(key, req, &slot).expect("round trip");
        let woke = Instant::now();
        assert_eq!(req.out.dqdd_dq.rows(), plan.dof());
        // The shard's stamps cut the round trip into stages that add up
        // to it exactly.
        let stages = req
            .stages
            .split(submitted, woke)
            .expect("every stage stamped");
        assert_eq!(stages.iter().sum::<std::time::Duration>(), woke - submitted);
    }
    let stats = server.stats();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.completed, 5);
    // Single in-flight request per flush: every flush is a partial lane
    // group on any wide tier.
    assert_eq!(stats.flushes, 5);
    if plan.serve_width() > 1 {
        assert_eq!(stats.ragged_flushes, 5);
    }
    assert_eq!(stats.queue_high_water, 1);
}
