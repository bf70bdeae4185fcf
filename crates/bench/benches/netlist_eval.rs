//! Netlist evaluation throughput: the interpreter vs the compiled tape,
//! on the iiwa-14 gradient netlists (every joint's superposed `X·`/`Xᵀ·`
//! unit — the exact circuits the simulator's serving path executes).
//!
//! * `interpreter` — string-keyed `Netlist::eval`: HashMap lookups, a
//!   fresh value vector, and per-call constant conversion (the reference
//!   oracle's cost);
//! * `interpreter_ref` — `Netlist::eval_ref`, the borrowed-output variant
//!   (removes the output-name clones, keeps the interpretive loop);
//! * `compiled` — `CompiledNetlist::eval_into` through a warm workspace:
//!   dense input slots, hoisted constants, a register-recycled flat tape,
//!   zero steady-state allocations.
//!
//! The single-thread lane sweep of one tape over a batch of states is
//! `lane_throughput`'s `tape_lanes4`.
//!
//! Measured numbers are recorded in EXPERIMENTS.md; the acceptance floor
//! for this PR is compiled ≥ 2× interpreter, single-threaded.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use robo_codegen::{
    generate_x_unit_with_mask, generate_xt_unit_with_mask, optimize, CompiledNetlist,
    EvalWorkspace, Netlist,
};
use robo_model::robots;
use robo_sparsity::superposition_pattern;
use std::collections::HashMap;
use std::hint::black_box;

/// One evaluation state per joint unit, deterministic.
fn states(n_units: usize, n_inputs: usize) -> Vec<Vec<f64>> {
    (0..n_units)
        .map(|u| {
            (0..n_inputs)
                .map(|i| 0.17 * (u * n_inputs + i) as f64 % 1.9 - 0.95)
                .collect()
        })
        .collect()
}

fn bench_netlist_eval(c: &mut Criterion) {
    let robot = robots::iiwa14();
    let sup = superposition_pattern(&robot);
    let units: Vec<Netlist> = (0..robot.dof())
        .flat_map(|j| {
            [
                generate_x_unit_with_mask(&robot, j, sup),
                generate_xt_unit_with_mask(&robot, j, sup),
            ]
        })
        .collect();
    let compiled: Vec<CompiledNetlist<f64>> = units
        .iter()
        .map(|u| CompiledNetlist::compile(&optimize(u)))
        .collect();
    let n_inputs = compiled[0].input_names().len();
    let vals = states(units.len(), n_inputs);
    let maps: Vec<HashMap<String, f64>> = compiled
        .iter()
        .zip(&vals)
        .map(|(c, v)| {
            c.input_names()
                .iter()
                .cloned()
                .zip(v.iter().copied())
                .collect()
        })
        .collect();

    let mut g = c.benchmark_group("netlist_eval");
    // One element = one full sweep over all 14 units.
    g.throughput(Throughput::Elements(units.len() as u64));

    g.bench_function(BenchmarkId::new("interpreter", "iiwa14"), |b| {
        b.iter(|| {
            for (unit, inputs) in units.iter().zip(&maps) {
                black_box(unit.eval(inputs).unwrap());
            }
        });
    });

    g.bench_function(BenchmarkId::new("interpreter_ref", "iiwa14"), |b| {
        b.iter(|| {
            for (unit, inputs) in units.iter().zip(&maps) {
                black_box(unit.eval_ref(inputs).unwrap());
            }
        });
    });

    g.bench_function(BenchmarkId::new("compiled", "iiwa14"), |b| {
        let mut ws = EvalWorkspace::new();
        let mut out = vec![0.0_f64; compiled[0].num_outputs()];
        b.iter(|| {
            for (tape, inputs) in compiled.iter().zip(&vals) {
                tape.eval_into(inputs, &mut ws, &mut out);
                black_box(&out);
            }
        });
    });

    g.finish();
}

/// `BENCH_QUICK=1` (CI smoke mode) shrinks sampling to a fraction of the
/// default; numbers are then indicative only.
fn config() -> Criterion {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0");
    if quick {
        Criterion::default()
            .sample_size(10)
            .measurement_time(std::time::Duration::from_millis(20))
    } else {
        Criterion::default().sample_size(50)
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_netlist_eval
}
criterion_main!(benches);
