//! The engine layer's backends compared on identical per-call gradient
//! workloads, all through the `DynamicsBackend` trait — the backend
//! selection data behind README's Performance notes.
//!
//! `cpu` measures the analytical workspace kernels, `accel` the *software
//! simulation cost* of the compiled-netlist accelerator path (its modeled
//! hardware latency is a static cycle count, not this number), and `fd`
//! the finite-difference oracle. `trait_batch` drives the shared
//! `BatchEngine` through `gradient_batch_on_into` on warm forks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use robo_baselines::{random_inputs, GradientInput};
use robo_dynamics::batch::{BatchEngine, GradientState};
use robo_dynamics::engine::{
    gradient_batch_on_into, BatchOutput, DynamicsBackend, GradientOutput, WarmForks,
};
use robo_model::robots;
use robo_sim::{BackendKind, RobotPlan};
use std::hint::black_box;

fn states_of(inputs: &[GradientInput]) -> Vec<GradientState<'_, f64>> {
    inputs
        .iter()
        .map(|inp| GradientState {
            q: &inp.q,
            qd: &inp.qd,
            qdd: &inp.qdd,
            minv: &inp.minv,
        })
        .collect()
}

fn bench_single_call(c: &mut Criterion) {
    let robot = robots::iiwa14();
    let plan = RobotPlan::new(&robot);
    let input = &random_inputs(&robot, 1, 0xB0A)[0];

    let mut g = c.benchmark_group("engine_backends");
    for kind in BackendKind::ALL {
        let mut backend = plan.backend(kind);
        let mut out = GradientOutput::for_dof(plan.dof());
        g.bench_function(kind.as_str(), |b| {
            b.iter(|| {
                backend
                    .gradient_into(&input.q, &input.qd, &input.qdd, &input.minv, &mut out)
                    .expect("input matches plan");
                black_box(&out.dqdd_dq);
            });
        });
    }
    g.finish();
}

fn bench_trait_batch(c: &mut Criterion) {
    let robot = robots::iiwa14();
    let plan = RobotPlan::new(&robot);

    let mut g = c.benchmark_group("engine_backends_batch");
    for steps in [32usize, 128] {
        let inputs = random_inputs(&robot, steps, steps as u64);
        let states = states_of(&inputs);
        g.throughput(Throughput::Elements(steps as u64));
        let backend = plan.cpu_backend();
        let mut forks = WarmForks::new(BatchEngine::global(), || backend.fork());
        let mut out = BatchOutput::new();
        g.bench_with_input(
            BenchmarkId::new("cpu_trait_batch", steps),
            &states,
            |b, states| {
                b.iter(|| {
                    gradient_batch_on_into(&mut forks, states, &mut out)
                        .expect("inputs match plan");
                    black_box(&out);
                });
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_single_call, bench_trait_batch
}
criterion_main!(benches);
