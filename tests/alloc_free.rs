//! Proof that the workspace kernels hit zero steady-state heap traffic.
//!
//! A counting global allocator wraps the system allocator; after one
//! warm-up call sizes every buffer, repeated `rnea_into` /
//! `dynamics_gradient_into` / `compute_gradient_into` calls must perform
//! **zero** allocations — the property that makes the kernels safe for
//! real-time control loops (and honest stand-ins for the accelerator's
//! statically-provisioned registers).
//!
//! The counter sees every thread of the process, so this binary runs
//! without the libtest harness (`harness = false` in `Cargo.toml`): its
//! `main` runs the audit on the main thread, and no harness thread can
//! allocate while the counter is being watched. The only other threads
//! are the ones the audited code starts itself (the batch engine's
//! workers, a server's flush pool), whose allocations must count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use robomorphic::codegen::{generate_x_unit, optimize, CompiledNetlist, EvalWorkspace};
use robomorphic::dynamics::{
    aba_into, dynamics_gradient_into, forward_dynamics_into, mass_matrix_inverse, rnea, rnea_into,
    AbaWorkspace, DynamicsModel, FdWorkspace, GradWorkspace, RneaWorkspace,
};
use robomorphic::model::robots;
use robomorphic::serve::GradientRequest;
use robomorphic::sim::{AcceleratorSim, SimWorkspace};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to the system allocator — every contract
// (layout validity, pointer provenance) is forwarded unchanged; the
// counter increment has no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One serving-lane batch sweep over state-ref views (named so the
/// counted loops below read as what they measure).
fn compiled_batch_warm(
    compiled: &robomorphic::codegen::CompiledNetlist<f64>,
    ws: &mut robomorphic::codegen::BatchEvalWorkspace<
        robomorphic::spatial::Lanes<f64, { robomorphic::spatial::SERVE_LANES }>,
    >,
    states: &[&[f64]],
    out: &mut [f64],
) {
    ws.eval_batch_into(compiled, states, out);
}

/// Runs the audit and reports it in libtest's format, as the one test
/// of this binary.
fn main() {
    const NAME: &str = "workspace_kernels_are_allocation_free_after_warmup";
    if std::env::args().any(|arg| arg == "--list") {
        println!("{NAME}: test");
        return;
    }
    println!("\nrunning 1 test");
    workspace_kernels_are_allocation_free_after_warmup();
    println!(
        "test {NAME} ... ok\n\ntest result: ok. 1 passed; 0 failed; 0 ignored; 0 measured; \
         0 filtered out\n"
    );
}

fn workspace_kernels_are_allocation_free_after_warmup() {
    let robot = robots::iiwa14();
    let model = DynamicsModel::<f64>::new(&robot);
    let sim = AcceleratorSim::<f64>::new(&robot);
    let n = model.dof();
    let q: Vec<f64> = (0..n).map(|i| 0.1 * i as f64 - 0.3).collect();
    let qd: Vec<f64> = (0..n).map(|i| 0.05 * i as f64).collect();
    let qdd: Vec<f64> = (0..n).map(|i| 0.2 - 0.03 * i as f64).collect();
    let minv = mass_matrix_inverse(&model, &q).expect("SPD mass matrix");

    let mut rnea_ws = RneaWorkspace::<f64>::new();
    let mut grad_ws = GradWorkspace::<f64>::new();
    let mut sim_ws = SimWorkspace::<f64>::new();

    // Warm-up: the first call through each workspace may size buffers.
    rnea_into(&model, &q, &qd, &qdd, &mut rnea_ws);
    dynamics_gradient_into(&model, &q, &qd, &qdd, &minv, &mut grad_ws);
    sim.compute_gradient_into(&q, &qd, &qdd, &minv, &mut sim_ws);

    let before = allocations();
    for _ in 0..32 {
        rnea_into(&model, &q, &qd, &qdd, &mut rnea_ws);
    }
    assert_eq!(allocations(), before, "rnea_into allocated in steady state");

    let before = allocations();
    for _ in 0..32 {
        dynamics_gradient_into(&model, &q, &qd, &qdd, &minv, &mut grad_ws);
    }
    assert_eq!(
        allocations(),
        before,
        "dynamics_gradient_into allocated in steady state"
    );

    // The forward-dynamics members of the kernel family: the
    // articulated-body recursion and the M⁻¹(τ−C) composition both run
    // entirely through their workspaces once warm.
    let tau = rnea(&model, &q, &qd, &qdd).tau;
    let mut aba_ws = AbaWorkspace::<f64>::default();
    aba_into(&model, &q, &qd, &tau, &mut aba_ws);
    let before = allocations();
    for _ in 0..32 {
        aba_into(&model, &q, &qd, &tau, &mut aba_ws);
    }
    assert_eq!(allocations(), before, "aba_into allocated in steady state");

    let mut fd_ws = FdWorkspace::<f64>::default();
    let mut fd_qdd = vec![0.0_f64; n];
    forward_dynamics_into(&model, &q, &qd, &tau, &minv, &mut fd_ws, &mut fd_qdd);
    let before = allocations();
    for _ in 0..32 {
        forward_dynamics_into(&model, &q, &qd, &tau, &minv, &mut fd_ws, &mut fd_qdd);
    }
    assert_eq!(
        allocations(),
        before,
        "forward_dynamics_into allocated in steady state"
    );

    let before = allocations();
    for _ in 0..32 {
        sim.compute_gradient_into(&q, &qd, &qdd, &minv, &mut sim_ws);
    }
    assert_eq!(
        allocations(),
        before,
        "compute_gradient_into allocated in steady state"
    );

    // The compiled netlist evaluator: a warm EvalWorkspace makes
    // eval_into pure register traffic. (compute_gradient_into above
    // already exercises the compiled tapes inside the simulator, on
    // stack-allocated register files.) On x86-64 Linux the tape runs its
    // JIT-emitted function: emission allocates (the code buffer and its
    // mapping), but only inside compile and widen, outside every counted
    // region below.
    let compiled = CompiledNetlist::<f64>::compile(&optimize(&generate_x_unit(&robot, 1)));
    assert_eq!(
        compiled.jit_report().is_some(),
        cfg!(all(target_arch = "x86_64", target_os = "linux")),
        "JIT availability must match the platform"
    );
    let mut tape_ws = EvalWorkspace::for_netlist(&compiled);
    let inputs: Vec<f64> = (0..compiled.input_names().len())
        .map(|i| 0.2 * i as f64 - 0.5)
        .collect();
    let mut outputs = vec![0.0_f64; compiled.num_outputs()];
    compiled.eval_into(&inputs, &mut tape_ws, &mut outputs);
    let before = allocations();
    for _ in 0..64 {
        compiled.eval_into(&inputs, &mut tape_ws, &mut outputs);
    }
    assert_eq!(
        allocations(),
        before,
        "CompiledNetlist::eval_into allocated in steady state"
    );

    // The SoA batch tape path: with a warm BatchEvalWorkspace and a
    // caller-provided flat output buffer, eval_batch_into is pure lane
    // traffic — including the ragged scalar tail (7 states, W = 4).
    let batch_states: Vec<Vec<f64>> = (0..7)
        .map(|s| {
            (0..compiled.input_names().len())
                .map(|i| 0.11 * (s * 3 + i) as f64 - 0.4)
                .collect()
        })
        .collect();
    let mut batch_tape_ws = robomorphic::codegen::BatchEvalWorkspace::<
        robomorphic::spatial::Lanes<f64, 4>,
    >::for_netlist(&compiled);
    let mut batch_flat = vec![0.0_f64; batch_states.len() * compiled.num_outputs()];
    compiled.eval_batch_into(&batch_states, &mut batch_tape_ws, &mut batch_flat);
    let before = allocations();
    for _ in 0..64 {
        compiled.eval_batch_into(&batch_states, &mut batch_tape_ws, &mut batch_flat);
    }
    assert_eq!(
        allocations(),
        before,
        "CompiledNetlist::eval_batch_into allocated in steady state"
    );

    // The serving batch path over state-ref views, through the
    // workspace's own entry: just as allocation-free. The views are
    // borrows built outside the counted region.
    let batch_refs: Vec<&[f64]> = batch_states.iter().map(|s| s.as_slice()).collect();
    let mut serve_ws = robomorphic::codegen::BatchEvalWorkspace::for_netlist(&compiled);
    compiled_batch_warm(&compiled, &mut serve_ws, &batch_refs, &mut batch_flat);
    let before = allocations();
    for _ in 0..64 {
        compiled_batch_warm(&compiled, &mut serve_ws, &batch_refs, &mut batch_flat);
    }
    assert_eq!(
        allocations(),
        before,
        "BatchEvalWorkspace::eval_batch_into allocated in steady state"
    );

    // The engine layer on top: once a RobotPlan is built and a backend
    // warmed, trait-object gradient calls are pure workspace traffic too.
    // (FiniteDiff is exempt by design — the oracle allocates per call.)
    let plan = robomorphic::engine::RobotPlan::new(&robot);
    let mut out = robomorphic::engine::GradientOutput::for_dof(plan.dof());
    for kind in [
        robomorphic::engine::BackendKind::Cpu,
        robomorphic::engine::BackendKind::Accel,
    ] {
        let mut backend = plan.backend(kind);
        backend
            .gradient_into(&q, &qd, &qdd, &minv, &mut out)
            .expect("dimensions match the plan");
        let before = allocations();
        for _ in 0..32 {
            backend
                .gradient_into(&q, &qd, &qdd, &minv, &mut out)
                .expect("dimensions match the plan");
        }
        assert_eq!(
            allocations(),
            before,
            "`{kind}` backend allocated in steady state"
        );

        // The multifunction entry point: every kernel of the family
        // through the same warm backend stays allocation-free too (the
        // KernelOutput buffers size on the warm-up call).
        let mut kout = robomorphic::engine::KernelOutput::new();
        for kernel in [
            robomorphic::engine::KernelKind::InverseDynamics,
            robomorphic::engine::KernelKind::ForwardDynamics,
        ] {
            let third = if kernel == robomorphic::engine::KernelKind::ForwardDynamics {
                &tau
            } else {
                &qdd
            };
            backend
                .run_into(kernel, &q, &qd, third, &minv, &mut kout)
                .expect("dimensions match the plan");
            let before = allocations();
            for _ in 0..32 {
                backend
                    .run_into(kernel, &q, &qd, third, &minv, &mut kout)
                    .expect("dimensions match the plan");
            }
            assert_eq!(
                allocations(),
                before,
                "`{kind}` backend `{kernel}` kernel allocated in steady state"
            );
        }
    }

    // The wide SoA batch path: with a warm backend and a warm
    // BatchOutput, whole lane-grouped batches (full W-groups plus the
    // scalar tail) are allocation-free as well. The GradientState views
    // are built outside the counted region — they are borrows the caller
    // constructs once per batch. (FiniteDiff, an oracle, allocates per
    // state and is exempt.)
    let batch_cases: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = (0..7)
        .map(|k| {
            let q: Vec<f64> = (0..n).map(|i| 0.09 * (i + k) as f64 - 0.25).collect();
            let qd: Vec<f64> = (0..n).map(|i| 0.03 * i as f64 - 0.01 * k as f64).collect();
            let qdd: Vec<f64> = (0..n).map(|i| 0.15 - 0.02 * (i + k) as f64).collect();
            (q, qd, qdd)
        })
        .collect();
    let states: Vec<robomorphic::engine::GradientState<'_, f64>> = batch_cases
        .iter()
        .map(|(q, qd, qdd)| robomorphic::engine::GradientState {
            q,
            qd,
            qdd,
            minv: &minv,
        })
        .collect();
    let mut batch_out = robomorphic::engine::BatchOutput::new();
    for kind in [
        robomorphic::engine::BackendKind::Cpu,
        robomorphic::engine::BackendKind::Accel,
    ] {
        let mut backend = plan.backend(kind);
        backend
            .gradient_batch_into(&states, &mut batch_out)
            .expect("dimensions match the plan");
        let before = allocations();
        for _ in 0..16 {
            backend
                .gradient_batch_into(&states, &mut batch_out)
                .expect("dimensions match the plan");
        }
        assert_eq!(
            allocations(),
            before,
            "`{kind}` wide batch path allocated in steady state"
        );

        // The one compute entry, for every kernel of the family: a warm
        // backend and a warm batch output keep whole batches (lane groups
        // plus the scalar tail for the gradient, the scalar path for
        // id/fd) allocation-free.
        for kernel in robomorphic::engine::KernelKind::ALL {
            backend
                .run_batch_into(kernel, &states, &mut batch_out)
                .expect("dimensions match the plan");
            let before = allocations();
            for _ in 0..16 {
                backend
                    .run_batch_into(kernel, &states, &mut batch_out)
                    .expect("dimensions match the plan");
            }
            assert_eq!(
                allocations(),
                before,
                "`{kind}` run_batch_into `{kernel}` allocated in steady state"
            );
        }
    }

    // The engine's two-level path on warm forks: every participant's fork
    // and chunk output are built and sized once, so batches spread over
    // the caller and the shared engine's workers allocate nothing — from
    // the first call on, whichever worker joins. Only `out` is sized
    // up front (11 states: two full chunks plus a ragged one).
    let engine_states = [states.as_slice(), &states[..4]].concat();
    let engine = robomorphic::dynamics::batch::BatchEngine::global();
    // A thread's first steps allocate once (its thread-local destructor
    // registration), so every worker is made to start before counting:
    // each of `threads() + 1` participants holds one item at a barrier.
    let started = std::sync::Barrier::new(engine.threads() + 1);
    engine.for_each(engine.threads() + 1, |_, _| {
        started.wait();
    });
    for kind in [
        robomorphic::engine::BackendKind::Cpu,
        robomorphic::engine::BackendKind::Accel,
    ] {
        let mut forks = robomorphic::engine::WarmForks::new(engine, || plan.backend(kind));
        let mut engine_out = robomorphic::engine::BatchOutput::new();
        engine_out.reset(
            robomorphic::engine::KernelKind::Gradient,
            engine_states.len(),
            n,
        );
        let before = allocations();
        for _ in 0..32 {
            robomorphic::engine::gradient_batch_on_into(
                &mut forks,
                &engine_states,
                &mut engine_out,
            )
            .expect("dimensions match the plan");
        }
        assert_eq!(
            allocations(),
            before,
            "`{kind}` gradient_batch_on_into allocated on warm forks"
        );
    }

    // The serving tier end-to-end: once a morphology is registered (plan
    // build + shard build) and a few round trips have run, the whole
    // steady-state serving path — enqueue → ready list → coalesce →
    // flush → respond → wait, stage stamps included — is
    // allocation-free, *including* the response handoff: the filled
    // request buffer moves back through the reusable ResponseSlot by
    // value, no boxing. The allowed allocation points are all cold: pool
    // spawn, registration, slot creation, and first-flush output sizing.
    // (The pool's worker shares this global counter, so a hidden
    // per-flush or per-listing allocation on its side would trip the
    // assert just as well.)
    for kind in [
        robomorphic::engine::BackendKind::Cpu,
        robomorphic::engine::BackendKind::Accel,
    ] {
        let server =
            robomorphic::serve::GradientServer::with_config(robomorphic::serve::ServeConfig {
                workers: 1,
                backend: kind,
                ..Default::default()
            });
        let key = server.register(&robot);
        let slot = robomorphic::serve::ResponseSlot::new();
        let mut req = GradientRequest::for_dof(n);
        req.q.copy_from_slice(&q);
        req.qd.copy_from_slice(&qd);
        req.qdd.copy_from_slice(&qdd);
        req.minv = minv.clone();
        // A polled round trip is flushed by the pool's worker, a waited
        // one by this thread: the warm-up runs both, so the worker has
        // started (a new thread's first steps allocate) and run every step
        // of its loop before counting, and the counted loop covers both.
        let round_trips = |mut req: GradientRequest| {
            server.submit(key, req, &slot).expect("admitted");
            req = loop {
                match slot.try_take() {
                    Some(req) => break req,
                    None => std::thread::yield_now(),
                }
            };
            server.serve(key, req, &slot).expect("admitted")
        };
        for _ in 0..4 {
            req = round_trips(req);
        }
        let before = allocations();
        for _ in 0..16 {
            req = round_trips(req);
        }
        assert_eq!(
            allocations(),
            before,
            "`{kind}` serving round trip allocated in steady state"
        );
        // Shutdown (drain + pool join) happens outside the counted region
        // and may allocate freely.
        drop(server);
    }

    // Disabled tracing is allocation-free. Every counted loop above
    // already ran through span-instrumented code — this binary builds
    // with the workspace default `trace` feature, so the guards are
    // compiled in but no collector is installed — and stayed at zero.
    // Also prove the guards themselves are free standalone: a disabled
    // span is one relaxed atomic load, no TLS touch, no heap traffic.
    assert!(
        !robomorphic::trace::is_collecting(),
        "no collector may be installed during the allocation audit"
    );
    let before = allocations();
    for i in 0..256 {
        let _span = robomorphic::trace::span("alloc.probe");
        let _wide = robomorphic::trace::span_items("alloc.probe.items", i);
    }
    assert_eq!(
        allocations(),
        before,
        "disabled span guards allocated in steady state"
    );

    // Sanity: the counter itself is live (building a workspace allocates).
    let before = allocations();
    let fresh = GradWorkspace::<f64>::for_model(&model);
    assert!(allocations() > before, "allocation counter is not counting");
    drop(fresh);
}
