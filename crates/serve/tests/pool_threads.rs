//! The thread census of a server: one flush pool, whatever it serves.
//!
//! Kept as its own integration binary with a single test, so no other
//! test's server adds `serve-…` threads to the process while it counts.

#![cfg(target_os = "linux")]

use robo_dynamics::engine::KernelOutput;
use robo_dynamics::{mass_matrix_inverse, rnea};
use robo_model::robots;
use robo_serve::{GradientRequest, GradientServer, KernelKind, ResponseSlot, ServeConfig};
use robo_sim::engine::BackendKind;

/// This process's threads named `serve-…`, read from
/// `/proc/self/task/*/comm`.
fn serve_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("serve-"))
        .count()
}

#[test]
fn a_one_worker_server_runs_one_serve_thread_for_every_robot_and_kernel() {
    assert_eq!(serve_threads(), 0);
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    for robot in [robots::iiwa14(), robots::hyq()] {
        let key = server.register(&robot);
        let plan = server.plan(key).expect("registered");
        let n = plan.dof();
        let mut direct = plan.backend(BackendKind::Accel);
        let slot = ResponseSlot::new();
        for kernel in KernelKind::ALL {
            let mut req = GradientRequest::for_kernel(n, kernel);
            for i in 0..n {
                req.q[i] = 0.05 * i as f64 - 0.2;
                req.qd[i] = 0.1 - 0.02 * i as f64;
                req.qdd[i] = 0.03 * i as f64;
            }
            if kernel == KernelKind::ForwardDynamics {
                req.qdd = rnea(plan.model(), &req.q, &req.qd, &req.qdd).tau;
            }
            req.minv = mass_matrix_inverse(plan.model(), &req.q).expect("SPD");
            let mut want = KernelOutput::new();
            direct
                .run_into(kernel, &req.q, &req.qd, &req.qdd, &req.minv, &mut want)
                .expect("dimensions match");
            // Submit and poll, so the pool (not this thread) flushes: once
            // it answers, its worker has named itself.
            server.submit(key, req, &slot).expect("admitted");
            let got = loop {
                match slot.try_take() {
                    Some(got) => break got,
                    None => std::thread::yield_now(),
                }
            };
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            match kernel {
                KernelKind::Gradient => assert_eq!(got.out, want.grad),
                KernelKind::InverseDynamics => assert_eq!(bits(&got.out_vec), bits(&want.tau)),
                KernelKind::ForwardDynamics => assert_eq!(bits(&got.out_vec), bits(&want.qdd)),
            }
            assert_eq!(
                serve_threads(),
                1,
                "{kernel} on `{}`: six shards, one pool thread",
                robot.name()
            );
        }
    }
    assert_eq!(server.stats().completed, 6);
    drop(server);
    // A joined thread can linger in procfs for a moment after it exits.
    let gone = (0..1000).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(1));
        serve_threads() == 0
    });
    assert!(gone, "dropping the server joins its pool");
}
