//! Trace-layer integration tests: the committed example trace stays a
//! valid Chrome-trace file with full pipeline coverage, and a live
//! recording of the plan→compile→eval→gradient path reproduces that
//! coverage end to end.

use robomorphic::trace::Trace;

/// Span kinds across plan-build → eval → backward that any full pipeline
/// trace must contain (the PR's acceptance floor is ≥ 7 distinct kinds;
/// these nine cover every stage family).
const REQUIRED_KINDS: [&str; 9] = [
    "plan.build",
    "netlist.optimize",
    "tape.compile",
    "tape.eval",
    "lane.marshal",
    "grad.wide",
    "grad.cpu.batch",
    "batch.fanout",
    "ilqr.backward",
];

/// The committed `ci/trace_example.json` (regenerate with
/// `cargo run --release -p robo-bench --features trace --bin
/// trace_pipeline -- --out ci/trace_example.json`) parses as valid
/// Chrome-trace JSON and keeps full span coverage.
#[test]
fn example_trace_is_valid_chrome_trace_with_full_coverage() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("ci/trace_example.json");
    let json = std::fs::read_to_string(&path).expect("ci/trace_example.json is committed");
    let trace = Trace::parse_chrome(&json).expect("example trace parses");

    let kinds = trace.span_kinds();
    assert!(
        kinds.len() >= 7,
        "example trace has only {} span kinds: {kinds:?}",
        kinds.len()
    );
    for required in REQUIRED_KINDS {
        assert!(
            kinds.iter().any(|k| k == required),
            "example trace is missing span kind `{required}` (has {kinds:?})"
        );
    }

    // Structural validity beyond parsing: every event has a registered
    // thread, non-negative times, and a dotted category prefix.
    assert!(!trace.threads.is_empty(), "no thread metadata");
    for e in &trace.events {
        assert!(
            trace.threads.iter().any(|(tid, _)| *tid == e.tid),
            "event `{}` on unregistered thread {}",
            e.name,
            e.tid
        );
        assert!(e.ts_us >= 0.0 && e.dur_us >= 0.0);
        assert!(
            e.name.contains('.'),
            "span `{}` has no category prefix",
            e.name
        );
    }
    // Host provenance rides along as trace metadata.
    for key in ["cpu_model", "rustc", "tier", "f64_lane_width"] {
        assert!(
            trace.meta.iter().any(|(k, _)| k == key),
            "example trace is missing `{key}` metadata"
        );
    }
}

/// Records the pipeline live and round-trips it through Chrome JSON.
/// Needs the `trace` feature (on by default); the single live test in
/// this binary, since the collector is process-global.
#[cfg(feature = "trace")]
#[test]
fn live_pipeline_trace_covers_the_span_taxonomy() {
    use robomorphic::codegen::{
        generate_x_pipeline, optimize, BatchEvalWorkspace, CompiledNetlist,
    };
    use robomorphic::engine::{BackendKind, GradientState, RobotPlan};
    use robomorphic::model::robots;
    use robomorphic::sparsity::superposition_pattern;
    use robomorphic::spatial::{Lanes, SERVE_LANES};

    assert!(robomorphic::trace::install(), "collector installs once");

    let robot = robots::iiwa14();
    let plan = RobotPlan::new(&robot);
    let sup = superposition_pattern(&robot);
    let tape = CompiledNetlist::<f64>::compile(&optimize(&generate_x_pipeline(&robot, sup)));

    let states: Vec<Vec<f64>> = (0..8)
        .map(|s| {
            (0..tape.input_names().len())
                .map(|i| 0.13 * (s * 5 + i) as f64 % 1.7 - 0.85)
                .collect()
        })
        .collect();
    let state_refs: Vec<&[f64]> = states.iter().map(|s| s.as_slice()).collect();
    let mut ws = BatchEvalWorkspace::<Lanes<f64, SERVE_LANES>>::for_netlist(&tape);
    let mut out = vec![0.0_f64; states.len() * tape.num_outputs()];
    ws.eval_batch_into(&tape, &state_refs, &mut out);

    let n = plan.dof();
    let q: Vec<f64> = (0..n).map(|i| 0.1 * i as f64 - 0.3).collect();
    let qd = vec![0.0; n];
    let qdd = vec![0.1; n];
    let minv = robomorphic::dynamics::mass_matrix_inverse(plan.model(), &q).expect("SPD");
    let cases: Vec<GradientState<'_, f64>> = (0..6)
        .map(|_| GradientState {
            q: &q,
            qd: &qd,
            qdd: &qdd,
            minv: &minv,
        })
        .collect();
    let mut batch_out = robomorphic::engine::BatchOutput::new();
    plan.backend(BackendKind::Cpu)
        .gradient_batch_into(&cases, &mut batch_out)
        .expect("dimensions match");

    let trace = robomorphic::trace::take().expect("collector was installed");
    assert!(robomorphic::trace::take().is_none(), "take() uninstalls");

    let kinds = trace.span_kinds();
    assert!(
        kinds.len() >= 7,
        "live trace has only {} span kinds: {kinds:?}",
        kinds.len()
    );
    for required in [
        "plan.build",
        "netlist.optimize",
        "tape.compile",
        "tape.eval",
        "lane.marshal",
        "grad.wide",
        "grad.cpu.batch",
    ] {
        assert!(
            kinds.iter().any(|k| k == required),
            "live trace is missing `{required}` (has {kinds:?})"
        );
    }

    // Round trip: what we emit is what a Chrome-trace consumer reads.
    let parsed = Trace::parse_chrome(&trace.to_chrome_json()).expect("own output parses");
    assert_eq!(parsed.span_kinds(), kinds);
    assert_eq!(parsed.events.len(), trace.events.len());
}
