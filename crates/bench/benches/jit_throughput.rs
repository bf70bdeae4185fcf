//! Register-allocating JIT vs the `match` interpreter.
//!
//! Every compiled `f64` tape runs a JIT-emitted function on x86-64
//! Linux AVX hosts: [`CompiledNetlist::compile`] lowers the fused tape
//! into one straight-line function that keeps values in `xmm` registers,
//! spills to its own stack frame, and reads its inputs and writes its
//! outputs in place — no dispatch, no calls, no register file. The
//! lowering preserves the interpreter's semantics exactly (two rounding
//! steps for fused opcodes, sign-bit negation, all reads before the one
//! write, fusion order), so the comparison is bit-identical by
//! construction and measures execution overhead alone.
//!
//! Two comparisons, all single-threaded, each on one tape through
//! `eval_into_regs_interp` (the oracle) and `eval_into_regs` (the
//! emitted function):
//!
//! * `tape_interp_scalar` vs `tape_jit_scalar` — the compiled iiwa
//!   full-pipeline X tape, per-state scalar evaluation. The speedup key
//!   `jit_vs_interp` is the one `ci/bench_baseline_10.json` gates.
//! * `family_interp_scalar` vs `family_jit_scalar` — the fused
//!   RNEA/FD/∇ID multifunction family tape, the largest tape in the
//!   workspace; `family_jit_vs_interp` is informational.
//!
//! Results (median ns per state), the speedup ratios, and the host
//! provenance block go to `BENCH_10.json` at the repository root
//! (override with `BENCH_OUT`). `BENCH_QUICK=1` shrinks the run for CI
//! and `BENCH_TRIALS=N` repeats it for the confidence-interval gate;
//! see [`robo_bench::harness`].
//!
//! On hosts without the JIT (non-x86-64, non-Linux) both sides run the
//! interpreter; the bench prints a warning and the ratios degrade to
//! ~1.0 — the gate only runs on the x86-64 CI runner.

use robo_bench::harness::{self, tape_states, time_median_ns_interleaved, BenchEnv};
use robo_bench::report::{speedup, BenchReport, HostInfo};
use robo_codegen::{generate_kernel_family, generate_x_pipeline, optimize, CompiledNetlist};
use robo_dynamics::engine::KernelKind;
use robo_model::robots;
use robo_sparsity::superposition_pattern;
use std::hint::black_box;

/// A per-state scalar sweep of `tape` over `states` as a timing closure
/// (each alternative owns its register file so the sweeps interleave).
fn scalar_sweep<'a>(
    tape: &'a CompiledNetlist<f64>,
    states: &'a [Vec<f64>],
    interp: bool,
) -> impl FnMut() + 'a {
    let mut regs = vec![0.0_f64; tape.num_regs()];
    let mut out = vec![0.0_f64; tape.num_outputs()];
    move || {
        for s in states {
            if interp {
                tape.eval_into_regs_interp(s, &mut regs, &mut out);
            } else {
                tape.eval_into_regs(s, &mut regs, &mut out);
            }
            black_box(&out);
        }
    }
}

fn run_once(env: &BenchEnv) -> BenchReport {
    let mut report = BenchReport::new();
    report.set_host(HostInfo::detect());

    let robot = robots::iiwa14();
    let sup = superposition_pattern(&robot);

    // The iiwa full-pipeline tape.
    let tape = CompiledNetlist::<f64>::compile(&optimize(&generate_x_pipeline(&robot, sup)));
    if tape.jit_report().is_none() {
        println!(
            "jit_throughput: WARNING: JIT unavailable on this host — \
             both sides run the interpreter"
        );
    }
    let states = tape_states(env.tape_batch, tape.input_names().len());

    // The fused multifunction family tape.
    let (family_netlist, _, _) = generate_kernel_family(&robot, sup, &KernelKind::ALL)
        .expect("distinct kernels never collide on output names");
    let family = CompiledNetlist::<f64>::compile(&family_netlist);
    let family_states = tape_states(env.tape_batch, family.input_names().len());

    // Interleaved A/B sweeps: dispatch differences on these tapes are
    // tens of ns/state, so back-to-back whole-path runs on a shared
    // 1-core runner would let machine drift masquerade as a speedup (or
    // eat a real one). Round-robin reps bias every path equally.
    let medians = time_median_ns_interleaved(
        env.reps,
        env.tape_batch,
        &mut [
            &mut scalar_sweep(&tape, &states, true),
            &mut scalar_sweep(&tape, &states, false),
        ],
    );
    let (tape_interp, tape_jit) = (medians[0], medians[1]);
    let medians = time_median_ns_interleaved(
        env.reps,
        env.tape_batch,
        &mut [
            &mut scalar_sweep(&family, &family_states, true),
            &mut scalar_sweep(&family, &family_states, false),
        ],
    );
    let (family_interp, family_jit) = (medians[0], medians[1]);

    report.record_median_ns("tape_interp_scalar", tape_interp);
    report.record_median_ns("tape_jit_scalar", tape_jit);
    report.record_median_ns("family_interp_scalar", family_interp);
    report.record_median_ns("family_jit_scalar", family_jit);
    report.record_speedup("jit_vs_interp", tape_interp / tape_jit);
    report.record_speedup("family_jit_vs_interp", family_interp / family_jit);

    match tape.jit_report() {
        Some(r) => println!(
            "jit_throughput: pipeline tape emitted: {} instrs, {} code bytes ({:.1} B/instr), \
             {} spills, {} reloads",
            r.instrs,
            r.code_bytes,
            r.bytes_per_instr(),
            r.spills,
            r.reloads
        ),
        None => println!("jit_throughput: pipeline tape runs the interpreter (no JIT)"),
    }
    for (name, ns) in [
        ("tape_interp_scalar", tape_interp),
        ("tape_jit_scalar", tape_jit),
        ("family_interp_scalar", family_interp),
        ("family_jit_scalar", family_jit),
    ] {
        println!("jit_throughput/{name:<24} median: {ns:10.1} ns/state");
    }
    for name in ["jit_vs_interp", "family_jit_vs_interp"] {
        let ratio = report.speedup_of(name).expect("just recorded");
        println!("jit_throughput/{name:<24} speedup: {}", speedup(ratio));
    }
    report
}

fn main() {
    let default = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_10.json");
    harness::run_trials(&default, run_once);
}
