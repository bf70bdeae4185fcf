//! A `serve` round trip on an idle shard wakes no pool worker.
//!
//! Kept as its own integration binary with a single test, so no other
//! test's server adds `serve-…` threads to the process while it watches
//! them.

#![cfg(target_os = "linux")]

use robo_dynamics::mass_matrix_inverse;
use robo_model::robots;
use robo_serve::{GradientRequest, GradientServer, ResponseSlot, ServeConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The procfs directory of this process's one `serve-…` thread.
fn pool_worker() -> PathBuf {
    let workers: Vec<PathBuf> = std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| {
            let path = task.ok()?.path();
            let comm = std::fs::read_to_string(path.join("comm")).ok()?;
            comm.starts_with("serve-").then_some(path)
        })
        .collect();
    assert_eq!(workers.len(), 1, "a one-worker server runs one pool thread");
    workers.into_iter().next().expect("one worker")
}

/// The thread's voluntary context switches (each park after a wake-up is
/// one) and its CPU time in clock ticks, from `status` and `stat`.
fn activity(task: &Path) -> (u64, u64) {
    let status = std::fs::read_to_string(task.join("status")).expect("status");
    let switches = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("voluntary_ctxt_switches");
    let stat = std::fs::read_to_string(task.join("stat")).expect("stat");
    // Fields after the parenthesised name: state is field 3, utime 14 and
    // stime 15.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 2..]
        .split_whitespace()
        .collect();
    let ticks =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    (switches, ticks)
}

#[test]
fn a_serve_round_trip_on_an_idle_shard_leaves_the_parked_worker_parked() {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let robot = robots::iiwa14();
    let key = server.register(&robot);
    let plan = server.plan(key).expect("registered");
    let n = plan.dof();
    let slot = ResponseSlot::new();
    let mut req = GradientRequest::for_dof(n);
    for i in 0..n {
        req.q[i] = 0.05 * i as f64 - 0.2;
        req.qd[i] = 0.1 - 0.02 * i as f64;
        req.qdd[i] = 0.03 * i as f64;
    }
    req.minv = mass_matrix_inverse(plan.model(), &req.q).expect("SPD");
    let want = {
        let mut direct = plan.backend(server.config().backend);
        let mut out = robo_dynamics::engine::GradientOutput::for_dof(n);
        direct
            .gradient_into(&req.q, &req.qd, &req.qdd, &req.minv, &mut out)
            .expect("dimensions match");
        out
    };
    // Warm up, then let the worker park.
    for _ in 0..16 {
        req = server.serve(key, req, &slot).expect("admitted");
    }
    std::thread::sleep(Duration::from_millis(50));
    let worker = pool_worker();
    let (switches, ticks) = activity(&worker);

    let rounds = 2000;
    for _ in 0..rounds {
        req = server.serve(key, req, &slot).expect("admitted");
    }
    assert_eq!(req.out, want, "every round trip is answered bitwise");
    let (switches_after, ticks_after) = activity(&worker);
    // A wake per request would add about one switch per round trip; allow
    // a few spurious ones.
    assert!(
        switches_after - switches <= 20,
        "the parked worker woke {} times in {rounds} round trips",
        switches_after - switches
    );
    assert!(
        ticks_after - ticks <= 1,
        "the parked worker burned {} ticks of CPU",
        ticks_after - ticks
    );
    let stats = server.stats();
    assert_eq!(stats.completed, 16 + rounds);
    assert_eq!(stats.flushes, 16 + rounds, "each waiter flushed its own");
}
