//! Batch dynamics-gradient throughput: the three host execution strategies
//! this workspace layers on Algorithm 1, compared on identical trajectory
//! batches (T time steps, one gradient per step — the §6.3 workload).
//!
//! * `serial_alloc` — one allocating `dynamics_gradient_from_qdd` call per
//!   step (the seed's baseline path);
//! * `serial_workspace` — one reused `GradWorkspace` driven through
//!   `dynamics_gradient_into` (zero steady-state heap allocations);
//! * `batch_engine` — `gradient_batch_on_into` on the shared
//!   `BatchEngine`, one warm `CpuAnalytic` fork per participant (the
//!   paper's §6.1 thread-pool structure).
//!
//! Measured numbers are recorded in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use robo_baselines::{random_inputs, GradientInput};
use robo_dynamics::batch::{BatchEngine, GradientState};
use robo_dynamics::engine::{gradient_batch_on_into, BatchOutput, CpuAnalytic, WarmForks};
use robo_dynamics::{
    dynamics_gradient_from_qdd, dynamics_gradient_into, DynamicsModel, GradWorkspace,
};
use robo_model::robots;
use std::hint::black_box;
use std::sync::Arc;

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

fn bench_batch_gradient(c: &mut Criterion) {
    let robot = robots::iiwa14();
    let model = Arc::new(DynamicsModel::<f64>::new(&robot));
    let cpu = CpuAnalytic::with_model(Arc::clone(&model));
    let mut forks = WarmForks::new(BatchEngine::global(), || Box::new(cpu.clone()));
    let mut out = BatchOutput::new();

    let mut g = c.benchmark_group("batch_gradient_throughput");
    for steps in [32usize, 128] {
        let inputs = random_inputs(&robot, steps, steps as u64);
        let states = states_of(&inputs);
        g.throughput(Throughput::Elements(steps as u64));

        g.bench_with_input(
            BenchmarkId::new("serial_alloc", steps),
            &states,
            |b, states| {
                b.iter(|| {
                    for s in states {
                        black_box(dynamics_gradient_from_qdd(&model, s.q, s.qd, s.qdd, s.minv));
                    }
                });
            },
        );

        g.bench_with_input(
            BenchmarkId::new("serial_workspace", steps),
            &states,
            |b, states| {
                let mut ws = GradWorkspace::for_model(&model);
                b.iter(|| {
                    for s in states {
                        dynamics_gradient_into(&model, s.q, s.qd, s.qdd, s.minv, &mut ws);
                        black_box(&ws.dqdd_dq);
                    }
                });
            },
        );

        g.bench_with_input(
            BenchmarkId::new("batch_engine", steps),
            &states,
            |b, states| {
                b.iter(|| {
                    gradient_batch_on_into(&mut forks, states, &mut out)
                        .expect("inputs match the model");
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
    targets = bench_batch_gradient
}
criterion_main!(benches);
