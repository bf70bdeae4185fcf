//! End-to-end pipeline trace recorder: runs the whole serving stack for
//! the iiwa full-pipeline tape with the `robo-trace` collector installed
//! and writes the Chrome-trace JSON (open in Perfetto / `about:tracing`).
//!
//! ```text
//! trace_pipeline [--out <trace.json>]
//! ```
//!
//! The run covers every instrumented stage: plan build
//! (`plan.build`/`plan.customize`/`plan.widen`/`plan.model`/
//! `plan.sparsity`), netlist optimization (`netlist.optimize`), tape
//! compilation (`tape.compile`/`tape.lower`/`tape.fuse`/`tape.jit.emit`),
//! lane batch evaluation (`tape.eval`), the wide gradient backends
//! (`lane.marshal`/`grad.wide`/`accel.wide`/`lane.scatter`,
//! `grad.cpu.batch`/`grad.accel.batch`), thread fan-out
//! (`batch.fanout`/`batch.worker`), and a short iLQR solve
//! (`ilqr.backward`/`ilqr.forward`).
//!
//! Build with the recording path compiled in:
//! `cargo run --release -p robo-bench --features trace --bin trace_pipeline`.
//! Prints the per-span breakdown table and fails (exit 1) when fewer than
//! [`MIN_SPAN_KINDS`] distinct span kinds were recorded — the structural
//! check CI relies on. Exit 2 is a usage/environment error (e.g. the
//! `trace` feature was not enabled at build time).

use robo_bench::analyse::trace_table;
use robo_bench::harness::gradient_cases;
use robo_codegen::{generate_x_pipeline, optimize, BatchEvalWorkspace, CompiledNetlist};
use robo_dynamics::batch::{BatchEngine, GradientState};
use robo_dynamics::engine::{gradient_batch_on_into, BatchOutput, DynamicsBackend};
use robo_model::robots;
use robo_sim::engine::RobotPlan;
use robo_sparsity::superposition_pattern;
use robo_spatial::{ExecTier, Lanes, SERVE_LANES};
use robo_trace::HostInfo;
use robo_trajopt::{solve_with_backend, IlqrOptions, ReachingTask};

/// The acceptance floor: distinct span kinds one pipeline run must record.
const MIN_SPAN_KINDS: usize = 7;

fn fail(msg: &str) -> ! {
    eprintln!("trace_pipeline: {msg}");
    std::process::exit(2);
}

/// The traced workload. Sized so a full run stays under a second while
/// every stage appears several times in the trace.
fn run_pipeline() -> (usize, usize) {
    let batch = 64;
    let robot = robots::iiwa14();

    // Plan build: customize → widen → model → sparsity.
    let plan = RobotPlan::new(&robot);

    // Netlist → optimized → compiled tape (lower/fuse/schedule).
    let sup = superposition_pattern(&robot);
    let tape = CompiledNetlist::<f64>::compile(&optimize(&generate_x_pipeline(&robot, sup)));

    // Lane batch evaluation of the tape.
    let states = robo_bench::harness::tape_states(batch, tape.input_names().len());
    let state_refs: Vec<&[f64]> = states.iter().map(|s| s.as_slice()).collect();
    let mut ws = BatchEvalWorkspace::<Lanes<f64, SERVE_LANES>>::for_netlist(&tape);
    let mut out_flat = vec![0.0_f64; batch * tape.num_outputs()];
    for _ in 0..3 {
        ws.eval_batch_into(&tape, &state_refs, &mut out_flat);
    }

    // Wide gradient backends: CPU analytic and the simulated accelerator.
    let cases = gradient_cases(plan.model(), 12);
    let grad_states: Vec<GradientState<'_, f64>> = cases
        .iter()
        .map(|(q, qd, qdd, minv)| GradientState { q, qd, qdd, minv })
        .collect();
    let mut batch_out = BatchOutput::new();
    let mut cpu = plan.cpu_backend();
    cpu.gradient_batch_into(&grad_states, &mut batch_out)
        .expect("dimensions match");
    let mut accel = plan.accelerator_backend();
    accel
        .gradient_batch_into(&grad_states, &mut batch_out)
        .expect("dimensions match");

    // Thread fan-out through the shared engine.
    gradient_batch_on_into(&cpu, BatchEngine::global(), &grad_states, &mut batch_out)
        .expect("dimensions match");

    // A short iLQR solve: backward + forward passes per iteration.
    let task = ReachingTask::iiwa_reach();
    let opts = IlqrOptions {
        iterations: 2,
        ..IlqrOptions::default()
    };
    let result = solve_with_backend(&task, &opts, &cpu);
    (tape.num_outputs(), result.costs.len())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "TRACE_pipeline.json".to_owned();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args
                    .get(i)
                    .unwrap_or_else(|| fail("--out needs a path"))
                    .clone();
            }
            other => fail(&format!(
                "unknown argument `{other}`\nusage: trace_pipeline [--out <trace.json>]"
            )),
        }
        i += 1;
    }

    if !robo_trace::install() {
        fail(
            "the trace collector is unavailable — rebuild with the recording path \
             compiled in: cargo run --release -p robo-bench --features trace --bin trace_pipeline",
        );
    }
    run_pipeline();
    let mut trace = robo_trace::take().unwrap_or_else(|| fail("collector produced no trace"));

    trace.meta.extend(HostInfo::detect().trace_meta());
    trace
        .meta
        .push(("workload".to_owned(), "iiwa14 full pipeline".to_owned()));

    let kinds = trace.span_kinds();
    print!(
        "{}",
        trace_table(
            std::slice::from_ref(&trace),
            &format!("trace_pipeline: iiwa14, host tier {}", ExecTier::detect()),
        )
        .render()
    );
    println!(
        "trace_pipeline: {} events across {} span kinds on {} thread(s)",
        trace.events.len(),
        kinds.len(),
        trace.threads.len().max(1)
    );

    trace
        .write_chrome(&out)
        .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    println!("wrote {out}");

    if kinds.len() < MIN_SPAN_KINDS {
        eprintln!(
            "trace_pipeline: FAIL: only {} span kinds recorded (need ≥ {MIN_SPAN_KINDS}): {:?}",
            kinds.len(),
            kinds
        );
        std::process::exit(1);
    }
}
