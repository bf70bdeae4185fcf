//! Figure 13's measured column: multi-time-step gradient batches on the
//! CPU (thread pool), and the cost of evaluating the coprocessor and GPU
//! latency models (reported for transparency — the models themselves are
//! closed-form).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use robo_baselines::{random_inputs, CpuBaseline, GpuModel};
use robo_model::robots;
use robo_sim::CoprocessorSystem;
use robomorphic_core::GradientTemplate;
use std::hint::black_box;
use std::sync::Arc;

fn bench_cpu_batches(c: &mut Criterion) {
    let robot = robots::iiwa14();
    let mut cpu = CpuBaseline::new(&robot);
    let mut g = c.benchmark_group("fig13_cpu_batch");
    for steps in [10usize, 32, 128] {
        let inputs = Arc::new(random_inputs(&robot, steps, steps as u64));
        g.throughput(Throughput::Elements(steps as u64));
        g.bench_with_input(BenchmarkId::from_parameter(steps), &inputs, |b, inputs| {
            b.iter(|| black_box(cpu.compute_batch(Arc::clone(inputs))));
        });
    }
    g.finish();
}

fn bench_models(c: &mut Criterion) {
    let coproc =
        CoprocessorSystem::fpga_default(GradientTemplate::new().customize(&robots::iiwa14()));
    let gpu = GpuModel::rtx2080();
    let mut g = c.benchmark_group("fig13_models");
    g.bench_function("fpga_roundtrip_eval", |b| {
        b.iter(|| black_box(coproc.round_trip(black_box(128))));
    });
    g.bench_function("gpu_model_eval", |b| {
        b.iter(|| black_box(gpu.batch_latency_s(7, black_box(128))));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_cpu_batches, bench_models
}
criterion_main!(benches);
