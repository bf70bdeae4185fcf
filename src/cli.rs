//! Implementation of the `robomorphic` command-line tool.
//!
//! Kept as a library module so the commands are unit-testable; the binary
//! in `src/bin/robomorphic.rs` is a thin argument dispatcher. See each
//! command function for its report format.

use robo_codegen::{generate_top, generate_x_unit, lint, optimize, to_verilog, RtlFormat};
use robo_collision::CollisionTemplate;
use robo_model::{parse_robo, parse_urdf, RobotModel};
use robo_sparsity::{joint_reduction, superposition_pattern};
use robomorphic_core::{FpgaPlatform, GradientTemplate, KinematicsTemplate};
use std::fmt::Write as _;

/// Error from a CLI command.
#[derive(Debug)]
pub enum CliError {
    /// The robot description could not be read or parsed.
    Load(String),
    /// Output files could not be written.
    Io(std::io::Error),
    /// The command line itself was malformed.
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Load(m) => write!(f, "cannot load robot: {m}"),
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Usage(m) => write!(f, "usage error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Loads a robot description: built-in name (`iiwa14`, `hyq`, `atlas`),
/// `.robo` file, or `.urdf`/`.xml` file.
///
/// # Errors
///
/// Returns [`CliError::Load`] when the source cannot be read or parsed.
pub fn load_robot(source: &str) -> Result<RobotModel, CliError> {
    match source {
        "iiwa14" => return Ok(robo_model::robots::iiwa14()),
        "hyq" => return Ok(robo_model::robots::hyq()),
        "atlas" => return Ok(robo_model::robots::atlas()),
        _ => {}
    }
    let text =
        std::fs::read_to_string(source).map_err(|e| CliError::Load(format!("{source}: {e}")))?;
    if source.ends_with(".urdf") || source.ends_with(".xml") || text.trim_start().starts_with('<') {
        parse_urdf(&text).map_err(|e| CliError::Load(format!("{source}: {e}")))
    } else {
        parse_robo(&text).map_err(|e| CliError::Load(format!("{source}: {e}")))
    }
}

/// `robomorphic info <robot>` — morphology and sparsity summary.
///
/// # Errors
///
/// Propagates robot-loading failures.
pub fn cmd_info(source: &str) -> Result<String, CliError> {
    let robot = load_robot(source)?;
    let mut out = String::new();
    let _ = writeln!(out, "robot `{}`:", robot.name());
    let _ = writeln!(
        out,
        "  {} links, {} limb(s), longest limb {}, total mass {:.2} kg",
        robot.dof(),
        robot.limbs().len(),
        robot.max_limb_len(),
        robot.total_mass()
    );
    for (i, limb) in robot.limbs().iter().enumerate() {
        let names: Vec<&str> = limb
            .links
            .iter()
            .map(|l| robot.links()[*l].name.as_str())
            .collect();
        let _ = writeln!(out, "  limb {i}: {}", names.join(" -> "));
    }
    let _ = writeln!(out, "  joint transform sparsity (nonzeros / 36):");
    for i in 0..robot.dof() {
        let r = joint_reduction(&robot, i);
        let _ = writeln!(
            out,
            "    {:<16} {} ({:>2}/36, -{:.0}% muls)",
            robot.links()[i].name,
            robot.links()[i].joint.as_str(),
            r.nonzeros,
            r.mul_reduction_pct
        );
    }
    let sup = superposition_pattern(&robot);
    let _ = writeln!(out, "  superposition: {}/36 nonzeros\n{}", sup.count(), sup);
    Ok(out)
}

/// `robomorphic customize <robot> [--verilog-dir DIR]` — run the two-step
/// methodology and report (optionally emitting RTL).
///
/// # Errors
///
/// Propagates loading failures and RTL-output I/O errors.
pub fn cmd_customize(source: &str, verilog_dir: Option<&str>) -> Result<String, CliError> {
    let robot = load_robot(source)?;
    let accel = GradientTemplate::new().customize(&robot);
    let fpga = FpgaPlatform::xcvu9p();
    let r = accel.resources();

    let mut out = String::new();
    let _ = writeln!(out, "dynamics gradient accelerator for `{}`:", robot.name());
    let _ = writeln!(
        out,
        "  {} limb processor(s), {} datapaths, {} cycles per gradient",
        accel.params().l_limbs,
        accel
            .limb_plans()
            .iter()
            .map(|p| p.dq_datapaths + p.dqd_datapaths + 1)
            .sum::<usize>(),
        accel.schedule().single_latency_cycles()
    );
    let _ = writeln!(
        out,
        "  latency: {:.3} us @ 55.6 MHz (FPGA), {:.3} us @ 400 MHz (12 nm ASIC)",
        accel.single_latency_s(fpga.clock_hz) * 1e6,
        accel.single_latency_s(robomorphic_core::AsicPlatform::typical().clock_hz()) * 1e6
    );
    let _ = writeln!(
        out,
        "  resources: {} var muls / {} const muls / {} adders -> {} DSPs ({:.0}% of XCVU9P budget{})",
        r.var_muls,
        r.const_muls,
        r.adds,
        fpga.dsps_used(&r),
        fpga.dsp_utilization(&r) * 100.0,
        if fpga.fits(&r) { "" } else { "; DOES NOT FIT, target the ASIC" }
    );
    let fk = KinematicsTemplate::new().customize(&robot);
    let col = CollisionTemplate::new().customize(&robot);
    let _ = writeln!(
        out,
        "  companion kernels: FK {} cycles, collision {} pairs / {} cycles",
        fk.latency_cycles(),
        col.pairs,
        col.latency_cycles()
    );

    if let Some(dir) = verilog_dir {
        std::fs::create_dir_all(dir)?;
        let mut files = Vec::new();
        for j in 0..robot.dof() {
            let unit = optimize(&generate_x_unit(&robot, j));
            let v = to_verilog(&unit, RtlFormat::q16_16());
            lint(&v).map_err(CliError::Load)?;
            let path = format!("{dir}/x_unit_joint{j}.v");
            std::fs::write(&path, v)?;
            files.push(path);
        }
        let top = generate_top(&accel, RtlFormat::q16_16());
        let top_path = format!("{dir}/grad_accel_top.v");
        std::fs::write(&top_path, top.verilog)?;
        files.push(top_path);
        let _ = writeln!(out, "  emitted {} RTL files under {dir}/", files.len());
    }
    Ok(out)
}

/// `robomorphic convert <in> <out.robo>` — normalize any supported
/// description to the `.robo` format.
///
/// # Errors
///
/// Propagates loading and write failures.
pub fn cmd_convert(source: &str, dest: &str) -> Result<String, CliError> {
    let robot = load_robot(source)?;
    std::fs::write(dest, robo_model::to_robo(&robot))?;
    Ok(format!(
        "wrote `{}` ({} links) to {dest}\n",
        robot.name(),
        robot.dof()
    ))
}

/// `robomorphic check <robot> [--backend B] [--kernel K] [--trace F]` —
/// model validation plus a zero-config self-collision sanity check, then
/// a spot-check of one member of the multifunction kernel family through
/// the chosen [`DynamicsBackend`](robo_dynamics::engine::DynamicsBackend)
/// of a once-built [`robo_sim::RobotPlan`]: `grad` runs the gradient
/// against the finite-difference oracle, `id`/`fd` run the backend's
/// kernel against the CPU analytical reference (RNEA / ABA).
///
/// With `trace_out`, also records a `robo-trace` span trace of the whole
/// run (plan build through the spot-check) and writes it there as
/// Chrome-trace JSON, viewable in Perfetto or `about:tracing`.
///
/// # Errors
///
/// Propagates loading failures; returns [`CliError::Usage`] when tracing
/// was requested but the binary was built without the `trace` feature,
/// and [`CliError::Io`] when the trace file cannot be written.
pub fn cmd_check(
    source: &str,
    kind: robo_sim::BackendKind,
    kernel: robo_dynamics::engine::KernelKind,
    trace_out: Option<&str>,
) -> Result<String, CliError> {
    if trace_out.is_some() && !robo_trace::install() {
        return Err(CliError::Usage(
            "--trace needs the tracing collector, but this binary was built without \
             the `trace` cargo feature (it is on by default)"
                .to_owned(),
        ));
    }
    let mut out = check_body(source, kind, kernel);
    if let Some(path) = trace_out {
        let mut trace = robo_trace::take().expect("collector was installed above");
        // Propagate a load failure only after uninstalling the collector.
        let body = out?;
        trace
            .meta
            .extend(robo_trace::HostInfo::detect().trace_meta());
        trace
            .meta
            .push(("workload".to_owned(), format!("check {source}")));
        trace.write_chrome(path)?;
        let mut body = body;
        let _ = writeln!(
            body,
            "  wrote trace ({} spans, {} kinds) to {path}",
            trace.events.len(),
            trace.span_kinds().len()
        );
        out = Ok(body);
    }
    out
}

fn check_body(
    source: &str,
    kind: robo_sim::BackendKind,
    kernel: robo_dynamics::engine::KernelKind,
) -> Result<String, CliError> {
    let robot = load_robot(source)?;
    // Plan once: model, sparsity, customized design, compiled netlists.
    let plan = robo_sim::RobotPlan::new(&robot);
    let model: &robo_dynamics::DynamicsModel<f64> = plan.model();
    let n = robot.dof();
    let zero = vec![0.0; n];
    let mut out = String::new();
    let _ = writeln!(out, "checking `{}`:", robot.name());
    let _ = writeln!(
        out,
        "  lanes: {} f64 states per wide instruction (host tier {})",
        plan.serve_width(),
        plan.tier()
    );
    // The JIT line is load-bearing: CI greps for "jit: active" to fail
    // the build when a plan silently runs its X-unit tapes — scalar and
    // wide — on the interpreter.
    match plan.jit_report() {
        Some(report) => {
            let _ = writeln!(
                out,
                "  jit: active ({} instrs, {} code bytes = {:.1} B/instr, {} spills, {} reloads \
                 across the scalar and wide X-unit banks; {} executable mappings per plan)",
                report.instrs,
                report.code_bytes,
                report.bytes_per_instr(),
                report.spills,
                report.reloads,
                report.mappings
            );
        }
        None => {
            let _ = writeln!(
                out,
                "  jit: fell back (an X-unit tape runs the interpreter on this {} host)",
                plan.tier()
            );
        }
    }

    let mass_ok = robo_dynamics::mass_matrix(model, &zero).ldlt().is_ok();
    let _ = writeln!(
        out,
        "  mass matrix positive definite at q = 0: {}",
        if mass_ok { "ok" } else { "FAIL" }
    );
    let tau = robo_dynamics::bias_torques(model, &zero, &zero);
    let finite = tau.iter().all(|t| t.is_finite());
    let _ = writeln!(
        out,
        "  gravity torques finite: {} (max {:.2} Nm)",
        if finite { "ok" } else { "FAIL" },
        tau.iter().fold(0.0_f64, |a, b| a.max(b.abs()))
    );
    let cm = robo_collision::CollisionModel::from_robot(&robot, 0.05);
    let clearance = robo_collision::min_clearance(model, &cm, &zero);
    let _ = writeln!(
        out,
        "  self-clearance at q = 0: {:.3} m across {} pruned pairs{}",
        clearance,
        cm.pairs().len(),
        if clearance > 0.0 {
            ""
        } else {
            " (WARNING: zero pose self-collides)"
        }
    );
    // Kernel spot-check through the selected engine backend: the gradient
    // against the finite-difference oracle, `id`/`fd` against the CPU
    // analytical reference kernels (RNEA / ABA). The fd kernel gets the
    // torques RNEA produces for the sampled q̈, so it must recover that q̈
    // (up to cross-algorithm rounding: ABA / M⁻¹(τ−C) vs the reference).
    use robo_dynamics::engine::{KernelKind, KernelOutput};
    let input = &robo_baselines::random_inputs(&robot, 1, 0xC11)[0];
    let tau = robo_dynamics::rnea(model, &input.q, &input.qd, &input.qdd).tau;
    let third = match kernel {
        KernelKind::ForwardDynamics => &tau,
        KernelKind::Gradient | KernelKind::InverseDynamics => &input.qdd,
    };
    let mut kout = KernelOutput::new();
    plan.backend(kind)
        .run_into(kernel, &input.q, &input.qd, third, &input.minv, &mut kout)
        .expect("generated input matches the robot");
    let max_err = |got: &[f64], want: &[f64]| {
        got.iter()
            .zip(want)
            .fold(0.0_f64, |a, (g, w)| a.max((g - w).abs()))
    };
    let (what, err, tol) = match kernel {
        KernelKind::Gradient => {
            let fd = robo_dynamics::findiff::rnea_gradient_fd(
                model, &input.q, &input.qd, &input.qdd, 1e-6,
            );
            let err = kout.grad.dtau_dq.max_abs_diff(&fd.dtau_dq);
            ("gradient vs finite differences", err, 1e-3)
        }
        KernelKind::InverseDynamics => (
            "id kernel vs CPU RNEA reference",
            max_err(&kout.tau, &tau),
            1e-8,
        ),
        KernelKind::ForwardDynamics => (
            "fd kernel round-trips RNEA torques",
            max_err(&kout.qdd, &input.qdd),
            1e-6,
        ),
    };
    let _ = writeln!(
        out,
        "  `{kind}` backend {what}: {err:.2e} max abs error {}",
        if err < tol { "(ok)" } else { "(FAIL)" }
    );
    Ok(out)
}

/// `robomorphic serve <robot> [--backend B] [--kernel K] [--clients C]
/// [--requests N]` — spin up the in-process
/// kernel-serving tier and drive it with a closed-loop load generator:
/// `C` client threads each performing `N` submit→wait round trips of the
/// chosen family kernel through the morphology-keyed plan cache and
/// micro-batcher. Reports p50/p99 latency, throughput, and the
/// coalescing/backpressure counters.
///
/// # Errors
///
/// Propagates loading failures.
pub fn cmd_serve(
    source: &str,
    kind: robo_sim::BackendKind,
    kernel: robo_dynamics::engine::KernelKind,
    clients: usize,
    requests: usize,
) -> Result<String, CliError> {
    use robo_dynamics::engine::KernelKind;
    use robo_serve::{GradientRequest, GradientServer, ResponseSlot, ServeConfig};

    let robot = load_robot(source)?;
    let clients = clients.max(1);
    let requests = requests.max(1);
    let server = GradientServer::with_config(ServeConfig {
        backend: kind,
        queue_capacity: (4 * clients).max(64),
        ..ServeConfig::default()
    });
    let key = server.register(&robot);
    let plan = server.plan(key).expect("registered above");
    let inputs = robo_baselines::random_inputs(&robot, clients.max(4), 0x5E21);
    // The third request slot is kernel-dependent: q̈ for grad/id, τ for
    // fd (computed so the served q̈ round-trips the sampled one).
    let thirds: Vec<Vec<f64>> = inputs
        .iter()
        .map(|inp| match kernel {
            KernelKind::ForwardDynamics => {
                robo_dynamics::rnea(plan.model(), &inp.q, &inp.qd, &inp.qdd).tau
            }
            KernelKind::Gradient | KernelKind::InverseDynamics => inp.qdd.clone(),
        })
        .collect();

    let start = std::time::Instant::now();
    let mut latencies_ns: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = server.clone();
                let input = &inputs[c % inputs.len()];
                let third = &thirds[c % thirds.len()];
                let dof = plan.dof();
                s.spawn(move || {
                    let slot = ResponseSlot::new();
                    let mut req = GradientRequest::for_kernel(dof, kernel);
                    req.q.copy_from_slice(&input.q);
                    req.qd.copy_from_slice(&input.qd);
                    req.qdd.copy_from_slice(third);
                    req.minv = input.minv.clone();
                    let mut lat = Vec::with_capacity(requests);
                    let mut todo = requests;
                    while todo > 0 {
                        let t0 = std::time::Instant::now();
                        match server.serve(key, req, &slot) {
                            Ok(back) => {
                                lat.push(t0.elapsed().as_nanos() as u64);
                                req = back;
                                todo -= 1;
                            }
                            // Closed-loop clients cannot overrun the
                            // queue for long; retry on a shed.
                            Err(rejected) => req = rejected.req,
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("serve client"))
            .collect()
    });
    let wall = start.elapsed();
    let stats = server.stats();
    let workers = server.config().resolved_workers();
    drop(server);

    latencies_ns.sort_unstable();
    let pct = |p: f64| -> f64 {
        let idx = ((latencies_ns.len() - 1) as f64 * p).round() as usize;
        latencies_ns[idx] as f64 / 1_000.0
    };
    let total = clients * requests;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serving `{}` [{kernel} kernel, {kind} backend, width {}]:",
        robot.name(),
        plan.serve_width()
    );
    let _ = writeln!(
        out,
        "  {clients} client(s) x {requests} round trip(s), pool of {workers} worker(s)"
    );
    let _ = writeln!(
        out,
        "  completed {}/{total} (shed {}), {} flush(es) ({} ragged), queue high-water {}",
        stats.completed, stats.shed, stats.flushes, stats.ragged_flushes, stats.queue_high_water
    );
    let _ = writeln!(
        out,
        "  latency p50 {:.1} us, p99 {:.1} us; throughput {:.0} req/s",
        pct(0.50),
        pct(0.99),
        total as f64 / wall.as_secs_f64()
    );
    Ok(out)
}

/// The usage string.
pub fn usage() -> &'static str {
    "robomorphic — morphology-parameterized accelerator toolchain

USAGE:
    robomorphic info      <robot>                  morphology & sparsity summary
    robomorphic customize <robot> [--verilog-dir D] run the two-step methodology
    robomorphic convert   <robot> <out.robo>        normalize a description
    robomorphic check     <robot> [--backend B] [--kernel K] [--trace F]
                                                    validate model & dynamics
    robomorphic serve     <robot> [--backend B] [--kernel K]
                          [--clients C] [--requests N]
                                                    drive the kernel-serving
                                                    tier with a closed-loop
                                                    load generator

<robot> is a built-in name (iiwa14 | hyq | atlas), a .robo file, or a
.urdf/.xml file (supported subset; see robo-model docs).

--backend selects the engine backend for check's spot-check:
cpu (analytical kernels, default) | accel (simulated accelerator) |
fd (finite differences).

--kernel selects which member of the multifunction kernel family runs:
grad (dynamics gradient ∇ID, default) | id (inverse dynamics / RNEA) |
fd (forward dynamics, M⁻¹(τ−C) on the accelerator, ABA on the CPU).
check compares the chosen backend's kernel against the CPU reference;
serve routes every client request to that kernel's shard.

Wide batches run four states per instruction (Lanes<f64, 4>),
bit-identical to one-state calls. On x86-64 Linux every f64 tape, and
on AVX2 hosts every Lanes<f64, 4> tape, runs as one JIT-emitted native
function; check prints `jit: active` (with the executable mappings the
plan's X-unit banks occupy: one per simulator) or `jit: fell back` for
the plan's tapes.

--trace records a span trace of the whole check (plan build through the
gradient spot-check) and writes it to F as Chrome-trace JSON — open it in
Perfetto (ui.perfetto.dev) or chrome://tracing.

serve coalesces the clients' concurrent requests into wide lane-group
batches (an idle pool worker, or a waiting client with a free kit,
flushes whatever is queued at once; requests that arrive during a flush
share the next one) and reports p50/p99 latency, throughput, and the
coalescing/backpressure counters.
Defaults: --clients 4, --requests 64, --backend accel.
"
}

/// The command line of `check` and `serve`: the `<robot>` positional, the
/// flags both share (`--backend`, `--kernel`), and the command's own
/// valued flags.
struct Flags<'a> {
    source: &'a str,
    backend: robo_sim::BackendKind,
    kernel: robo_dynamics::engine::KernelKind,
    /// The command's own flags with their values, in order.
    extra: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Parses `cmd`'s arguments — `backend` is its default `--backend` —
    /// accepting the flags in `extra` beside the shared ones.
    fn parse(
        cmd: &str,
        rest: &'a [String],
        mut backend: robo_sim::BackendKind,
        extra: &[&str],
    ) -> Result<Self, CliError> {
        let mut kernel = robo_dynamics::engine::KernelKind::Gradient;
        let mut source = None;
        let mut values = Vec::new();
        let mut args = rest.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| CliError::Usage(format!("{arg} needs a value")))
            };
            match arg {
                "--backend" => backend = value()?.parse().map_err(CliError::Usage)?,
                "--kernel" => kernel = value()?.parse().map_err(CliError::Usage)?,
                flag if extra.contains(&flag) => values.push((flag, value()?)),
                flag if flag.starts_with("--") => {
                    return Err(CliError::Usage(format!("unknown {cmd} flag `{flag}`")));
                }
                s if source.is_none() => source = Some(s),
                other => {
                    return Err(CliError::Usage(format!("unexpected argument `{other}`")));
                }
            }
        }
        Ok(Self {
            source: source.ok_or_else(|| CliError::Usage(format!("{cmd} needs a <robot>")))?,
            backend,
            kernel,
            extra: values,
        })
    }

    /// The last value given for one of the command's own flags.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.extra
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| *v)
    }
}

/// Dispatches a command line (without the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown commands or missing arguments,
/// and propagates command failures.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match args {
        [cmd, source] if cmd == "info" => cmd_info(source),
        [cmd, source] if cmd == "customize" => cmd_customize(source, None),
        [cmd, source, flag, dir] if cmd == "customize" && flag == "--verilog-dir" => {
            cmd_customize(source, Some(dir))
        }
        [cmd, source, dest] if cmd == "convert" => cmd_convert(source, dest),
        [cmd, rest @ ..] if cmd == "check" && !rest.is_empty() => {
            let f = Flags::parse("check", rest, robo_sim::BackendKind::Cpu, &["--trace"])?;
            cmd_check(f.source, f.backend, f.kernel, f.value("--trace"))
        }
        [cmd, rest @ ..] if cmd == "serve" && !rest.is_empty() => {
            let f = Flags::parse(
                "serve",
                rest,
                robo_sim::BackendKind::Accel,
                &["--clients", "--requests"],
            )?;
            let count = |flag: &str, default: u64| -> Result<u64, CliError> {
                f.value(flag).map_or(Ok(default), |v| {
                    v.parse()
                        .map_err(|_| CliError::Usage(format!("{flag} needs a number, got `{v}`")))
                })
            };
            cmd_serve(
                f.source,
                f.backend,
                f.kernel,
                count("--clients", 4)? as usize,
                count("--requests", 64)? as usize,
            )
        }
        _ => Err(CliError::Usage(usage().to_owned())),
    }
}
