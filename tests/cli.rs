//! Integration tests of the `robomorphic` CLI commands (exercised through
//! the library entry points the binary dispatches to).

use robomorphic::cli::{self, CliError};

#[test]
fn info_reports_morphology() {
    let out = cli::cmd_info("iiwa14").expect("builtin robot");
    assert!(out.contains("7 links, 1 limb(s)"));
    assert!(out.contains("13/36"));
    assert!(out.contains("superposition: 23/36"));
}

#[test]
fn customize_reports_design_points() {
    let out = cli::cmd_customize("iiwa14", None).expect("builtin robot");
    assert!(out.contains("34 cycles per gradient"));
    assert!(out.contains("71% of XCVU9P budget"));
}

#[test]
fn customize_emits_rtl() {
    let dir = std::env::temp_dir().join("robomorphic_cli_rtl_test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = cli::cmd_customize("iiwa14", Some(dir.to_str().unwrap())).expect("emits");
    assert!(out.contains("emitted 8 RTL files"));
    let top = std::fs::read_to_string(dir.join("grad_accel_top.v")).expect("top exists");
    assert!(top.contains("module grad_accel_iiwa14"));
    let unit = std::fs::read_to_string(dir.join("x_unit_joint1.v")).expect("unit exists");
    // Sparsity pruning leaves 13 of 36 DSP multipliers (§4); the netlist
    // optimizer's CSE then merges repeated entry subtrees down to 10.
    assert_eq!(unit.matches("// DSP multiplier").count(), 10);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn convert_round_trips_through_robo() {
    let dir = std::env::temp_dir().join("robomorphic_cli_convert_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dest = dir.join("hyq.robo");
    let out = cli::cmd_convert("hyq", dest.to_str().unwrap()).expect("converts");
    assert!(out.contains("12 links"));
    let info = cli::cmd_info(dest.to_str().unwrap()).expect("reads back");
    assert!(info.contains("4 limb(s)"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_validates_builtin() {
    let out = cli::cmd_check("iiwa14").expect("checks");
    assert!(out.contains("mass matrix positive definite at q = 0: ok"));
    assert!(out.contains("(ok)"));
    assert!(!out.contains("FAIL"));
}

#[test]
fn check_accepts_backend_flag() {
    // Every engine backend passes the spot-check on the same robot; the
    // report names the backend it ran.
    for backend in ["cpu", "accel", "fd"] {
        let out = cli::run(&[
            "check".to_owned(),
            "iiwa14".to_owned(),
            "--backend".to_owned(),
            backend.to_owned(),
        ])
        .expect("backend checks");
        assert!(out.contains(&format!("`{backend}` backend gradient")));
        assert!(out.contains("(ok)"));
        assert!(!out.contains("FAIL"));
    }
}

/// Needs the `trace` feature (on by default): the only test in this
/// binary that installs the process-global trace collector.
#[cfg(feature = "trace")]
#[test]
fn check_accepts_trace_flag() {
    let dir = std::env::temp_dir().join("robomorphic_cli_trace_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("check.json");
    let out = cli::run(&[
        "check".to_owned(),
        "iiwa14".to_owned(),
        "--trace".to_owned(),
        trace_path.to_str().unwrap().to_owned(),
    ])
    .expect("traced check");
    assert!(out.contains("wrote trace"));
    assert!(!out.contains("FAIL"));
    let json = std::fs::read_to_string(&trace_path).expect("trace file written");
    let trace = robomorphic::trace::Trace::parse_chrome(&json).expect("valid chrome trace");
    assert!(
        trace.span_kinds().len() >= 7,
        "check trace has only {} span kinds",
        trace.span_kinds().len()
    );
    assert!(trace.meta.iter().any(|(k, _)| k == "workload"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_rejects_unknown_flag_and_missing_value() {
    let err = cli::run(&[
        "check".to_owned(),
        "iiwa14".to_owned(),
        "--verbose".to_owned(),
    ])
    .expect_err("unknown flag");
    match err {
        CliError::Usage(msg) => assert!(msg.contains("unknown check flag `--verbose`")),
        other => panic!("expected usage error, got {other:?}"),
    }
    let err = cli::run(&[
        "check".to_owned(),
        "iiwa14".to_owned(),
        "--trace".to_owned(),
    ])
    .expect_err("missing value");
    match err {
        CliError::Usage(msg) => assert!(msg.contains("--trace needs a value")),
        other => panic!("expected usage error, got {other:?}"),
    }
}

#[test]
fn check_rejects_unknown_tier() {
    // The lane type is fixed at compile time: `--tier` is no longer a
    // flag, whatever its value.
    let err = cli::run(&[
        "check".to_owned(),
        "iiwa14".to_owned(),
        "--tier".to_owned(),
        "avx2".to_owned(),
    ])
    .expect_err("--tier is not a check flag");
    match err {
        CliError::Usage(msg) => assert!(msg.contains("unknown check flag `--tier`")),
        other => panic!("expected usage error, got {other:?}"),
    }
}

#[test]
fn check_rejects_unknown_backend() {
    let err = cli::run(&[
        "check".to_owned(),
        "iiwa14".to_owned(),
        "--backend".to_owned(),
        "gpu".to_owned(),
    ])
    .expect_err("unknown backend");
    match err {
        CliError::Usage(msg) => assert!(msg.contains("unknown backend `gpu`")),
        other => panic!("expected usage error, got {other:?}"),
    }
}

#[test]
fn urdf_sources_load() {
    let dir = std::env::temp_dir().join("robomorphic_cli_urdf_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let urdf = r#"<robot name="cli_test">
      <link name="base"/>
      <link name="arm"><inertial><origin xyz="0 0 0.1"/><mass value="1.5"/>
        <inertia ixx="0.01" iyy="0.01" izz="0.002"/></inertial></link>
      <joint name="j" type="revolute"><parent link="base"/><child link="arm"/>
        <origin xyz="0 0 0.2"/><axis xyz="0 0 1"/></joint>
    </robot>"#;
    let path = dir.join("arm.urdf");
    std::fs::write(&path, urdf).unwrap();
    let out = cli::cmd_info(path.to_str().unwrap()).expect("parses urdf");
    assert!(out.contains("cli_test"));
    assert!(out.contains("1 links"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_inputs_are_reported() {
    assert!(matches!(
        cli::load_robot("/nonexistent.robo"),
        Err(CliError::Load(_))
    ));
    assert!(matches!(
        cli::run(&["frobnicate".to_owned()]),
        Err(CliError::Usage(_))
    ));
    assert!(cli::usage().contains("robomorphic"));
}

#[test]
fn run_dispatches() {
    let out = cli::run(&["info".to_owned(), "atlas".to_owned()]).expect("dispatch works");
    assert!(out.contains("30 links"));
}

#[test]
fn serve_runs_a_closed_loop_load() {
    let args: Vec<String> = [
        "serve",
        "iiwa14",
        "--backend",
        "cpu",
        "--clients",
        "2",
        "--requests",
        "6",
    ]
    .map(str::to_owned)
    .into();
    let out = cli::run(&args).expect("serve runs");
    assert!(out.contains("serving `iiwa14` [grad kernel, cpu backend"));
    assert!(out.contains("2 client(s) x 6 round trip(s)"));
    assert!(out.contains("completed 12/12 (shed 0)"));
    assert!(out.contains("latency p50"));
    assert!(out.contains("throughput"));
}

#[test]
fn serve_rejects_bad_flags() {
    let run = |args: &[&str]| cli::run(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
    assert!(matches!(
        run(&["serve", "iiwa14", "--clients", "soon"]),
        Err(CliError::Usage(_))
    ));
    assert!(matches!(
        run(&["serve", "iiwa14", "--frobnicate"]),
        Err(CliError::Usage(_))
    ));
    assert!(matches!(
        run(&["serve", "--clients", "2"]),
        Err(CliError::Usage(_))
    ));
    // The batcher has no linger to tune.
    assert!(matches!(
        run(&["serve", "iiwa14", "--linger-us", "50"]),
        Err(CliError::Usage(_))
    ));
    assert!(cli::usage().contains("robomorphic serve"));
}
