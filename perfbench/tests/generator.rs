//! The load generator is a pure function of the seed, and its Poisson
//! schedule offers the nominal rate.

use perfbench::gen::{cases, op_mix, poisson_schedule};
use robo_dynamics::engine::KernelKind;
use robo_dynamics::DynamicsModel;
use robo_model::robots;

#[test]
fn same_seed_same_schedule_inputs_and_mix() {
    let model = DynamicsModel::<f64>::new(&robots::iiwa14());
    for seed in [0, 1, 7, u64::MAX] {
        assert_eq!(
            poisson_schedule(seed, 40_000.0, 0.5),
            poisson_schedule(seed, 40_000.0, 0.5)
        );
        assert_eq!(cases(&model, seed, 0, 16), cases(&model, seed, 0, 16));
        assert_eq!(
            op_mix(seed, 4096, 2, 64, true),
            op_mix(seed, 4096, 2, 64, true)
        );
    }
}

#[test]
fn different_seeds_and_robots_give_different_work() {
    let model = DynamicsModel::<f64>::new(&robots::iiwa14());
    assert_ne!(
        poisson_schedule(1, 40_000.0, 0.1),
        poisson_schedule(2, 40_000.0, 0.1)
    );
    assert_ne!(cases(&model, 1, 0, 4), cases(&model, 2, 0, 4));
    assert_ne!(cases(&model, 1, 0, 4), cases(&model, 1, 1, 4));
    assert_ne!(op_mix(1, 256, 2, 64, true), op_mix(2, 256, 2, 64, true));
}

#[test]
fn poisson_mean_rate_is_within_one_percent_of_nominal() {
    for (seed, rate) in [(1, 40_000.0), (2, 40_000.0), (3, 10_000.0), (4, 10_000.0)] {
        let seconds = 10.0;
        let schedule = poisson_schedule(seed, rate, seconds);
        let measured = schedule.len() as f64 / seconds;
        assert!(
            (measured / rate - 1.0).abs() < 0.01,
            "seed {seed}: {measured} arrivals/s against {rate}"
        );
        assert!(schedule.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(schedule.last().is_some_and(|&t| t < 10_000_000_000));
    }
}

#[test]
fn kernel_mix_is_two_to_one_to_one_over_both_robots() {
    let ops = op_mix(9, 40_000, 2, 64, true);
    let share = |f: &dyn Fn(&perfbench::gen::Op) -> bool| {
        ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64
    };
    assert!((share(&|o| o.kernel == KernelKind::Gradient) - 0.50).abs() < 0.01);
    assert!((share(&|o| o.kernel == KernelKind::InverseDynamics) - 0.25).abs() < 0.01);
    assert!((share(&|o| o.kernel == KernelKind::ForwardDynamics) - 0.25).abs() < 0.01);
    assert!((share(&|o| o.robot == 0) - 0.50).abs() < 0.01);
    assert!(ops.iter().all(|o| o.case < 64));
    let plain = op_mix(9, 1000, 1, 64, false);
    assert!(plain
        .iter()
        .all(|o| o.kernel == KernelKind::Gradient && o.robot == 0));
}

#[test]
fn cases_are_consistent_dynamics() {
    let model = DynamicsModel::<f64>::new(&robots::hyq());
    for c in cases(&model, 3, 1, 8) {
        let qdd = robo_dynamics::forward_dynamics(&model, &c.q, &c.qd, &c.tau).expect("regular");
        assert_eq!(qdd, c.qdd);
        assert_eq!(c.third(KernelKind::ForwardDynamics), c.tau.as_slice());
        assert_eq!(c.third(KernelKind::Gradient), c.qdd.as_slice());
    }
}
