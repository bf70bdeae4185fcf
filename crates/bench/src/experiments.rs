//! One function per table/figure of the paper's evaluation. Each returns a
//! rendered report comparing the paper's numbers with this reproduction's.
//!
//! The `quick` flags shrink trial counts so the test suite stays fast; the
//! binaries run the full versions.

use crate::report::{speedup, us, Table};
use robo_baselines::{random_inputs, CpuBaseline, GpuModel};
use robo_dynamics::engine::{DynamicsBackend, GradientOutput};
use robo_fixed::{Fix12_4, Fix14_18, Fix14_6, Fix18_14, Fix32_16, Fix8_4};
use robo_model::{robots, RobotModel};
use robo_sim::{CoprocessorSystem, IoChannel};
use robo_spatial::Scalar;
use robo_trajopt::{
    solve, ControlRateModel, IlqrOptions, ReachingTask, ACTUATOR_RATE_HZ, MPC_MINIMUM_RATE_HZ,
    PAPER_OPT_ITERATIONS,
};
use robomorphic_core::{
    table2_rows, Accelerator, AsicPlatform, Folding, FpgaPlatform, GradientTemplate,
};

/// Fraction of per-time-step MPC work spent in the dynamics gradient
/// kernel, used by the control-rate model. The paper reports 30–90% across
/// implementations (§3); 45% makes Figure 4's thresholds and Figure 15's
/// Amdahl-limited gains mutually consistent.
pub const GRADIENT_FRACTION: f64 = 0.45;

fn iiwa_accelerator() -> Accelerator {
    GradientTemplate::new().customize(&robots::iiwa14())
}

fn measured_gradient_time(robot: &RobotModel, trials: usize) -> f64 {
    let mut cpu = CpuBaseline::new(robot);
    let input = &random_inputs(robot, 1, 0xFEED)[0];
    cpu.time_single(input, trials)
}

/// §4's worked example: the iiwa joint-2 transform sparsity and the
/// resulting multiplier/adder pruning.
pub fn sec4_sparsity_example() -> String {
    let robot = robots::iiwa14();
    let mut t = Table::new("§4 example: iiwa joint 1→2 transform sparsity")
        .headers(["quantity", "paper", "ours"]);
    let r = robo_sparsity::joint_reduction(&robot, 1);
    t.row([
        "populated elements".to_string(),
        "13 / 36".into(),
        format!("{} / 36", r.nonzeros),
    ]);
    t.row([
        "multiplier reduction".to_string(),
        "64%".into(),
        format!("{:.0}%", r.mul_reduction_pct),
    ]);
    t.row([
        "adder reduction".to_string(),
        "77%".into(),
        format!("{:.0}%", r.add_reduction_pct),
    ]);
    let mask = robo_sparsity::x_pattern(&robot, 1);
    format!("{}\njoint 2 structural pattern:\n{}", t.render(), mask)
}

/// Table 1: hardware system configurations (paper platforms vs our
/// substitutions).
pub fn table1_platforms() -> String {
    let mut t = Table::new("Table 1: hardware system configurations").headers([
        "platform",
        "paper",
        "this reproduction",
    ]);
    t.row([
        "CPU",
        "Intel i7-7700, 4 cores, 3.6 GHz",
        "host CPU, measured Rust implementation (thread pool)",
    ]);
    t.row([
        "GPU",
        "NVIDIA RTX 2080, 2944 CUDA cores (46 SMs), 1.7 GHz",
        "analytic latency model (46 SMs), calibrated once",
    ]);
    t.row([
        "FPGA",
        "Xilinx XCVU9P, 55.6 MHz, 6840 DSPs",
        "cycle-level simulator at 55.6 MHz, 6840-DSP budget",
    ]);
    let threads = CpuBaseline::new(&robots::iiwa14()).threads();
    t.note(format!("host CPU threads available here: {threads}"));
    t.render()
}

/// Figure 4: estimated control rates vs trajectory length for the three
/// robot classes, against the 250 Hz and 1 kHz thresholds.
pub fn fig04_control_rates(quick: bool) -> String {
    let trials = if quick { 200 } else { 5000 };
    let (manip, quad, humanoid) = robots::figure4_robots();
    let robots_list = [&manip, &quad, &humanoid];
    let models: Vec<ControlRateModel> = robots_list
        .iter()
        .map(|r| {
            ControlRateModel::new(
                PAPER_OPT_ITERATIONS,
                measured_gradient_time(r, trials),
                GRADIENT_FRACTION,
            )
        })
        .collect();

    let mut t = Table::new("Figure 4: control rates (Hz) vs trajectory time steps").headers([
        "time steps",
        "manipulator",
        "quadruped",
        "humanoid",
    ]);
    for steps in [10, 16, 25, 32, 50, 64, 80, 100, 128] {
        let mut row = vec![steps.to_string()];
        for m in &models {
            row.push(format!("{:.0}", m.control_rate_hz(steps)));
        }
        t.row(row);
    }
    for (robot, m) in robots_list.iter().zip(&models) {
        t.note(format!(
            "{}: gradient {} µs → 1 kHz up to {} steps, 250 Hz up to {} steps",
            robot.name(),
            us(m.gradient_time_s),
            m.max_timesteps_at(ACTUATOR_RATE_HZ),
            m.max_timesteps_at(MPC_MINIMUM_RATE_HZ),
        ));
    }
    t.note("paper (manipulator): 1 kHz under ~25 steps; 250 Hz up to ~80 steps");
    t.note("paper: the gap is worse for the quadruped and humanoid");
    t.render()
}

/// Figure 10: single-computation latency breakdown (ID / ∇ID / M⁻¹) for
/// CPU, GPU, and the FPGA accelerator.
pub fn fig10_single_latency(quick: bool) -> String {
    let trials = if quick { 200 } else { 10000 };
    let robot = robots::iiwa14();
    let cpu = CpuBaseline::new(&robot);
    let input = &random_inputs(&robot, 1, 0xF16)[0];
    let cpu_seg = cpu.time_segments(input, trials);
    let gpu_seg = GpuModel::rtx2080().single_segments(7);

    let accel = iiwa_accelerator();
    let fpga = FpgaPlatform::xcvu9p();
    let b = accel.schedule().breakdown();
    let cyc = |c: usize| c as f64 / fpga.clock_hz;
    let fpga_total = accel.single_latency_s(fpga.clock_hz);

    let mut t = Table::new("Figure 10: single dynamics gradient latency (µs)")
        .headers(["platform", "ID", "grad-ID", "Minv", "total", "vs FPGA"]);
    t.row([
        "CPU (measured)".to_string(),
        us(cpu_seg.id_s),
        us(cpu_seg.grad_s),
        us(cpu_seg.minv_s),
        us(cpu_seg.total()),
        speedup(cpu_seg.total() / fpga_total),
    ]);
    t.row([
        "GPU (modeled)".to_string(),
        us(gpu_seg.id_s),
        us(gpu_seg.grad_s),
        us(gpu_seg.minv_s),
        us(gpu_seg.total()),
        speedup(gpu_seg.total() / fpga_total),
    ]);
    t.row([
        "FPGA (simulated)".to_string(),
        us(cyc(b.id_cycles)),
        us(cyc(b.grad_cycles)),
        us(cyc(b.minv_cycles)),
        us(fpga_total),
        speedup(1.0),
    ]);
    t.note(format!(
        "FPGA: {} cycles at 55.6 MHz",
        accel.schedule().single_latency_cycles()
    ));
    t.note("paper: FPGA 8x faster than CPU and 86x faster than GPU");
    t.render()
}

/// Figure 11: operation counts of the transform matvec unit under the four
/// sparsity treatments.
pub fn fig11_sparsity_ops() -> String {
    let rep = robo_sparsity::fig11_report(&robots::iiwa14());
    let mut t = Table::new("Figure 11: transform matvec unit operations (iiwa)").headers([
        "configuration",
        "muls",
        "adds",
        "total",
    ]);
    t.row([
        "no sparsity (dense)".to_string(),
        rep.dense.muls.to_string(),
        rep.dense.adds.to_string(),
        rep.dense.total().to_string(),
    ]);
    t.row([
        "robot-agnostic".to_string(),
        rep.robot_agnostic.muls.to_string(),
        rep.robot_agnostic.adds.to_string(),
        rep.robot_agnostic.total().to_string(),
    ]);
    t.row([
        "robomorphic, superposition all joints (ours)".to_string(),
        rep.superposition.muls.to_string(),
        rep.superposition.adds.to_string(),
        rep.superposition.total().to_string(),
    ]);
    t.row([
        "robomorphic, average all joints (bound)".to_string(),
        format!("{:.1}", rep.average_muls),
        format!("{:.1}", rep.average_adds),
        format!("{:.1}", rep.average_muls + rep.average_adds),
    ]);
    t.note(format!(
        "robot-specific sparsity recovered by superposition: {:.1}% (paper: 33.3%)",
        rep.recovered_sparsity_fraction * 100.0
    ));
    t.render()
}

/// Figure 12: MPC cost convergence across numeric types, plus a direct
/// kernel-precision table showing where the floor lies.
pub fn fig12_precision(quick: bool) -> String {
    let mut task = ReachingTask::iiwa_reach();
    if quick {
        task.horizon = 10;
    }
    let opts = IlqrOptions {
        iterations: if quick { 6 } else { 12 },
        ..Default::default()
    };

    fn run<S: Scalar>(task: &ReachingTask, opts: &IlqrOptions) -> (String, Vec<f64>) {
        (S::name(), solve::<S>(task, opts).costs)
    }
    let runs = vec![
        run::<f32>(&task, &opts),
        run::<Fix32_16>(&task, &opts),
        run::<Fix14_18>(&task, &opts),
        run::<Fix18_14>(&task, &opts),
        run::<Fix14_6>(&task, &opts),
    ];

    let mut headers = vec!["iteration".to_string()];
    headers.extend(runs.iter().map(|(n, _)| n.clone()));
    let mut t =
        Table::new("Figure 12: optimization cost vs iteration by numeric type").headers(headers);
    let iters = runs[0].1.len();
    for i in 0..iters {
        let mut row = vec![i.to_string()];
        for (_, costs) in &runs {
            row.push(format!("{:.2}", costs[i]));
        }
        t.row(row);
    }
    t.note("paper: a range of fixed-point types converge like 32-bit float,");
    t.note("including the 20-bit Fixed{14,6}");

    // Companion table: raw kernel precision per type on the simulated
    // accelerator, via the engine layer's f64 boundary (the backend
    // marshals inputs to `S` and outputs back, as the hardware I/O does).
    let robot = robots::iiwa14();
    let input = &random_inputs(&robot, 1, 0xF12)[0];
    let reference = boundary_gradient(robo_sim::AcceleratorBackend::<f64>::new(&robot), input);
    let scale = reference.dqdd_dq.max_abs().max(1.0);
    fn kernel_err<S: Scalar>(
        robot: &RobotModel,
        input: &robo_baselines::GradientInput,
        reference: &GradientOutput,
        scale: f64,
    ) -> (String, f64) {
        let out = boundary_gradient(robo_sim::AcceleratorBackend::<S>::new(robot), input);
        let err = out.dqdd_dq.max_abs_diff(&reference.dqdd_dq) / scale;
        (S::name(), err)
    }
    let errors = vec![
        kernel_err::<f32>(&robot, input, &reference, scale),
        kernel_err::<Fix32_16>(&robot, input, &reference, scale),
        kernel_err::<Fix14_18>(&robot, input, &reference, scale),
        kernel_err::<Fix18_14>(&robot, input, &reference, scale),
        kernel_err::<Fix14_6>(&robot, input, &reference, scale),
        kernel_err::<Fix12_4>(&robot, input, &reference, scale),
        kernel_err::<Fix8_4>(&robot, input, &reference, scale),
    ];
    let mut e = Table::new("Figure 12 companion: simulated-accelerator kernel error vs f64")
        .headers(["numeric type", "max relative error"]);
    for (name, err) in errors {
        e.row([name, format!("{err:.2e}")]);
    }
    e.note("Fixed{12,4} and Fixed{8,4} sit below the useful precision floor");
    format!("{}\n{}", t.render(), e.render())
}

/// Figure 13: coprocessor round-trip latency (computation + I/O) for
/// batches of 10–128 gradient computations.
pub fn fig13_roundtrip(quick: bool) -> String {
    let trials = if quick { 5 } else { 100 };
    let robot = robots::iiwa14();
    let mut cpu = CpuBaseline::new(&robot);
    let gpu = GpuModel::rtx2080();
    let coproc = CoprocessorSystem::fpga_default(iiwa_accelerator());

    // The paper's CPU is a quad-core i7-7700. When this machine exposes
    // fewer cores, also report a 4-core-equivalent estimate: the measured
    // (serial) time divided across 4 cores, plus the thread-dispatch
    // overhead a real multi-core run pays ("thread and kernel launch
    // overheads flatten the scaling of both the CPU and GPU at low numbers
    // of time steps", §6.3).
    let host_threads = cpu.threads().max(1);
    let paper_cores = 4.0_f64;
    let dispatch_overhead_s = 12e-6;
    let mut t =
        Table::new("Figure 13: coprocessor round-trip latency (µs) vs time steps").headers([
            "steps",
            "CPU measured",
            "CPU 4-core est.",
            "GPU",
            "FPGA",
            "FPGA vs CPU4",
            "FPGA vs GPU",
        ]);
    for steps in [10, 16, 32, 64, 128] {
        // One gradient per time step of a rolled-out trajectory (§6.3).
        let inputs = std::sync::Arc::new(robo_baselines::trajectory_inputs(
            &robot,
            steps,
            0.01,
            steps as u64,
        ));
        let cpu_s = cpu.time_batch(&inputs, trials);
        let cpu4_s = cpu_s * host_threads as f64 / paper_cores + dispatch_overhead_s;
        let gpu_s = gpu.batch_latency_s(7, steps);
        let fpga_s = coproc.round_trip(steps).total_s;
        t.row([
            steps.to_string(),
            us(cpu_s),
            us(cpu4_s),
            us(gpu_s),
            us(fpga_s),
            speedup(cpu4_s / fpga_s),
            speedup(gpu_s / fpga_s),
        ]);
    }
    t.note(format!(
        "host exposes {host_threads} hardware thread(s); the 4-core column scales \
         the measured time to the paper's quad-core i7"
    ));
    t.note("paper: FPGA 2.2x-2.9x over CPU and 1.9x-5.5x over GPU;");
    t.note("CPU beats GPU below 64 steps, GPU overtakes at 64+");
    t.note(format!(
        "FPGA I/O: {} ({} B in / {} B out per step)",
        coproc.channel().name,
        coproc.input_bytes_per_step(),
        coproc.output_bytes_per_step()
    ));
    t.render()
}

/// Table 2: FPGA vs synthesized-ASIC clock, area, and power.
pub fn table2_asic() -> String {
    let rows = table2_rows(&iiwa_accelerator());
    let paper = [
        ("FPGA", "Typical", 14, 55.6, None, 9.572),
        ("Synthesized ASIC", "Slow", 12, 250.0, Some(1.627), 0.921),
        ("Synthesized ASIC", "Typical", 12, 400.0, Some(1.885), 1.095),
    ];
    let mut t = Table::new("Table 2: accelerator computational pipeline, FPGA vs ASIC").headers([
        "platform",
        "corner",
        "node",
        "clock MHz",
        "area mm² (paper/ours)",
        "power W (paper/ours)",
    ]);
    for (row, p) in rows.iter().zip(paper.iter()) {
        let area = match (p.4, row.area_mm2) {
            (Some(pa), Some(oa)) => format!("{pa:.3} / {oa:.3}"),
            _ => "n/a".into(),
        };
        t.row([
            row.platform.clone(),
            row.corner.clone(),
            format!("{} nm", row.node_nm),
            format!("{:.1}", row.max_clock_mhz),
            area,
            format!("{:.3} / {:.3}", p.5, row.power_w),
        ]);
    }
    t.note("ASIC area/power from the calibrated 12 nm cost model (see DESIGN.md)");
    t.render()
}

/// Figure 14: single-computation latency, FPGA vs ASIC corners.
pub fn fig14_asic_latency() -> String {
    let accel = iiwa_accelerator();
    let fpga = FpgaPlatform::xcvu9p();
    let fpga_s = accel.single_latency_s(fpga.clock_hz);
    let mut t = Table::new("Figure 14: single computation latency, FPGA vs ASIC").headers([
        "platform",
        "clock MHz",
        "latency µs",
        "speedup vs FPGA",
    ]);
    t.row([
        "FPGA".to_string(),
        format!("{:.1}", fpga.clock_hz / 1e6),
        us(fpga_s),
        speedup(1.0),
    ]);
    for (name, asic) in [
        ("ASIC (slow)", AsicPlatform::slow()),
        ("ASIC (typical)", AsicPlatform::typical()),
    ] {
        let s = accel.single_latency_s(asic.clock_hz());
        t.row([
            name.to_string(),
            format!("{:.0}", asic.clock_hz() / 1e6),
            us(s),
            speedup(fpga_s / s),
        ]);
    }
    t.note("paper: 4.5x (slow) to 7.2x (typical) speedup over the FPGA");
    t.render()
}

/// Figure 15: projected control-rate improvement with the accelerator.
pub fn fig15_projected_rates(quick: bool) -> String {
    let trials = if quick { 200 } else { 5000 };
    let robot = robots::iiwa14();
    let grad_cpu = measured_gradient_time(&robot, trials);
    let base = ControlRateModel::new(PAPER_OPT_ITERATIONS, grad_cpu, GRADIENT_FRACTION);

    let accel = iiwa_accelerator();
    let fpga_coproc = CoprocessorSystem::fpga_default(accel.clone());
    // The ASIC deploys as a system-on-chip: on-die link, negligible
    // per-call overhead (§6.4).
    let soc_channel = IoChannel {
        name: "on-chip".into(),
        bandwidth_bytes_per_s: 50e9,
        per_call_overhead_s: 0.5e-6,
    };
    let asic_slow = CoprocessorSystem::new(
        accel.clone(),
        AsicPlatform::slow().clock_hz(),
        soc_channel.clone(),
    );
    let asic_typ = CoprocessorSystem::new(accel, AsicPlatform::typical().clock_hz(), soc_channel);

    let mut t = Table::new("Figure 15: projected control rates (Hz) with the accelerator")
        .headers(["steps", "CPU baseline", "FPGA", "ASIC slow", "ASIC typical"]);
    let horizons = [10, 16, 25, 32, 50, 64, 80, 100, 115, 128];
    let accel_rate = |sys: &CoprocessorSystem, steps: usize| {
        let grad = sys.round_trip(steps).total_s / steps as f64;
        base.with_accelerated_gradient(grad).control_rate_hz(steps)
    };
    for steps in horizons {
        t.row([
            steps.to_string(),
            format!("{:.0}", base.control_rate_hz(steps)),
            format!("{:.0}", accel_rate(&fpga_coproc, steps)),
            format!("{:.0}", accel_rate(&asic_slow, steps)),
            format!("{:.0}", accel_rate(&asic_typ, steps)),
        ]);
    }
    // Horizon extension at 250 Hz, from the measured baseline and from a
    // paper-calibrated baseline (the paper's model implies a ~2.25 µs
    // gradient on its i7; our host differs, so both are reported).
    let fpga_grad_100 = fpga_coproc.round_trip(100).total_s / 100.0;
    let fpga_model = base.with_accelerated_gradient(fpga_grad_100);
    t.note(format!(
        "250 Hz horizon (measured CPU): baseline {} steps → FPGA {} steps",
        base.max_timesteps_at(MPC_MINIMUM_RATE_HZ),
        fpga_model.max_timesteps_at(MPC_MINIMUM_RATE_HZ),
    ));
    let paper_base = ControlRateModel::new(PAPER_OPT_ITERATIONS, 2.25e-6, GRADIENT_FRACTION);
    let paper_accel = paper_base.with_accelerated_gradient(fpga_grad_100);
    t.note(format!(
        "250 Hz horizon (paper-calibrated CPU): {} steps → {} steps (paper: ~80 → ~100-115)",
        paper_base.max_timesteps_at(MPC_MINIMUM_RATE_HZ),
        paper_accel.max_timesteps_at(MPC_MINIMUM_RATE_HZ),
    ));
    t.note("paper: ASIC corners show a narrow range");
    t.render()
}

/// §7: customizing the same template to other robot models (quadruped and
/// humanoid), demonstrating limb-parallel generalization.
pub fn sec7_other_robots() -> String {
    let template = GradientTemplate::new();
    let fpga = FpgaPlatform::xcvu9p();
    let mut t = Table::new("§7: the same template customized per robot").headers([
        "robot",
        "limbs L",
        "max links N",
        "datapaths",
        "latency cycles",
        "latency µs (FPGA)",
        "DSP util",
    ]);
    for robot in [
        robots::iiwa14(),
        robots::hyq(),
        robots::hyq_floating(),
        robots::atlas(),
    ] {
        let accel = template.customize(&robot);
        let datapaths: usize = accel
            .limb_plans()
            .iter()
            .map(|p| p.dq_datapaths + p.dqd_datapaths + 1)
            .sum();
        t.row([
            robot.name().to_string(),
            accel.params().l_limbs.to_string(),
            accel.params().n_links_max.to_string(),
            datapaths.to_string(),
            accel.schedule().single_latency_cycles().to_string(),
            us(accel.single_latency_s(fpga.clock_hz)),
            format!("{:.0}%", fpga.dsp_utilization(&accel.resources()) * 100.0),
        ]);
    }
    t.note("paper: HyQ gets 4 parallel limb processors with 3 datapaths each;");
    t.note("larger robots trade DSP budget for limb-level parallelism");

    let hyq = robots::hyq();
    let atlas = robots::atlas();
    let knee = robo_sparsity::x_pattern(&hyq, 2);
    let shoulder_idx = atlas
        .links()
        .iter()
        .position(|l| l.name == "r_arm_shx")
        .expect("atlas has a right shoulder");
    let shoulder = robo_sparsity::x_pattern(&atlas, shoulder_idx);
    format!(
        "{}\nHyQ left-front knee pattern ({} nnz):\n{}\nAtlas right shoulder pattern ({} nnz):\n{}",
        t.render(),
        knee.count(),
        knee,
        shoulder.count(),
        shoulder
    )
}

/// Ablation: the §5.2 folding levels (the design choice DESIGN.md calls
/// out), showing why the paper folds aggressively.
pub fn ablation_folding() -> String {
    let robot = robots::iiwa14();
    let fpga = FpgaPlatform::xcvu9p();
    let mut t = Table::new("Ablation: folding levels (iiwa accelerator)").headers([
        "configuration",
        "var muls",
        "DSPs",
        "DSP util",
        "fits?",
        "latency cycles",
    ]);
    let configs = [
        ("folded (paper design)", Folding::paper_default()),
        (
            "stage-folded only (chains unrolled)",
            Folding {
                fold_link_chains: false,
                fold_forward_stages: true,
                fuse_minv: true,
            },
        ),
        (
            "chain-folded only (stages unrolled)",
            Folding {
                fold_link_chains: true,
                fold_forward_stages: false,
                fuse_minv: true,
            },
        ),
        ("fully unfolded", Folding::unfolded()),
    ];
    for (name, folding) in configs {
        let accel = GradientTemplate::with_folding(folding).customize(&robot);
        let r = accel.resources();
        t.row([
            name.to_string(),
            r.var_muls.to_string(),
            fpga.dsps_used(&r).to_string(),
            format!("{:.0}%", fpga.dsp_utilization(&r) * 100.0),
            if fpga.fits(&r) { "yes" } else { "NO" }.to_string(),
            accel.schedule().single_latency_cycles().to_string(),
        ]);
    }
    t.note("paper: \"without aggressive folding ... impossible to implement\"");
    t.note("on the FPGA's limited DSP multipliers (§5.2)");
    t.render()
}

/// One gradient through a backend's `f64` engine boundary (the backend
/// marshals the input to its scalar type and the result back).
fn boundary_gradient(
    mut backend: impl DynamicsBackend,
    input: &robo_baselines::GradientInput,
) -> GradientOutput {
    let mut out = GradientOutput::new();
    backend
        .gradient_into(&input.q, &input.qd, &input.qdd, &input.minv, &mut out)
        .expect("input matches robot");
    out
}

/// Ablation: per-operation rounding vs wide (DSP-cascade) accumulation in
/// the fixed-point functional units.
pub fn ablation_accumulator() -> String {
    let robot = robots::iiwa14();
    let input = &random_inputs(&robot, 1, 0xACC)[0];
    let reference = boundary_gradient(robo_sim::AcceleratorBackend::<f64>::new(&robot), input);
    let scale = reference.dqdd_dq.max_abs().max(1.0);

    fn err_for<S: Scalar>(
        robot: &RobotModel,
        input: &robo_baselines::GradientInput,
        reference: &GradientOutput,
        scale: f64,
        accumulation: robo_sim::Accumulation,
    ) -> f64 {
        let sim = robo_sim::AcceleratorSim::<S>::with_accumulation(robot, accumulation);
        let out = boundary_gradient(robo_sim::AcceleratorBackend::from_sim(sim), input);
        out.dqdd_dq.max_abs_diff(&reference.dqdd_dq) / scale
    }

    let mut t = Table::new("Ablation: accumulator width in the fixed-point datapath").headers([
        "numeric type",
        "per-op rounding error",
        "wide-MAC error",
    ]);
    use robo_sim::Accumulation::{PerOperation, Wide};
    macro_rules! row {
        ($ty:ty) => {
            t.row([
                <$ty as Scalar>::name(),
                format!(
                    "{:.2e}",
                    err_for::<$ty>(&robot, input, &reference, scale, PerOperation)
                ),
                format!(
                    "{:.2e}",
                    err_for::<$ty>(&robot, input, &reference, scale, Wide)
                ),
            ]);
        };
    }
    row!(Fix32_16);
    row!(Fix14_18);
    row!(Fix14_6);
    t.note("wide accumulation models DSP-block MAC cascades (one rounding per");
    t.note("tree instead of one per product); only the X· transform units are");
    t.note("MAC trees, so end-to-end kernel error moves modestly — the per-unit");
    t.note("effect is isolated in robo-sim's xunit tests");
    t.render()
}

/// Scaling sweep: how the customized accelerator grows with the number of
/// links `N` (the §5.2 complexity analysis: O(N) latency, O(N²) work).
pub fn sweep_links() -> String {
    let fpga = FpgaPlatform::xcvu9p();
    let mut t = Table::new("Scaling: accelerator vs serial-chain length N").headers([
        "N",
        "latency cycles",
        "latency µs",
        "var muls",
        "DSP util",
        "throughput (grad/s)",
    ]);
    for n in [2usize, 3, 5, 7, 9, 12] {
        let robot = robots::serial_chain(n, robo_model::JointType::RevoluteZ);
        let accel = GradientTemplate::new().customize(&robot);
        let r = accel.resources();
        t.row([
            n.to_string(),
            accel.schedule().single_latency_cycles().to_string(),
            us(accel.single_latency_s(fpga.clock_hz)),
            r.var_muls.to_string(),
            format!("{:.0}%", fpga.dsp_utilization(&r) * 100.0),
            format!("{:.0}", accel.throughput_per_s(fpga.clock_hz)),
        ]);
    }
    t.note("latency grows O(N) (datapaths are parallel); multipliers grow");
    t.note("O(N) with chain folding — the total work O(N²) is folded in time");
    t.render()
}

/// Code generation statistics: the §7 automation path, per robot.
pub fn codegen_stats() -> String {
    use robo_codegen::{
        generate_top, generate_x_unit, lint, optimize_with_report, to_verilog, CompiledNetlist,
        RtlFormat,
    };
    let mut t = Table::new("Codegen: generated RTL per robot (§7 automation)").headers([
        "robot",
        "X-unit DSP muls (min..max, dense=36)",
        "opt: nodes pre->post",
        "tape: instrs pre->post fusion",
        "jit: code B (B/instr) / spills",
        "top-level instances",
        "verilog lint",
    ]);
    for robot in [robots::iiwa14(), robots::hyq(), robots::atlas()] {
        let mut lo = usize::MAX;
        let mut hi = 0;
        let mut nodes_before = 0;
        let mut nodes_after = 0;
        let mut tape_before = 0;
        let mut tape_after = 0;
        let mut jit = Some(robo_codegen::JitReport::default());
        let mut lint_ok = true;
        for j in 0..robot.dof() {
            let (opt, report) = optimize_with_report(&generate_x_unit(&robot, j));
            let compiled = CompiledNetlist::<f64>::compile(&opt);
            let report = report.with_fusion(compiled.fusion_counts());
            let muls = report.after.muls;
            lo = lo.min(muls);
            hi = hi.max(muls);
            nodes_before += report.nodes_before;
            nodes_after += report.nodes_after;
            tape_before += compiled.tape_len() + compiled.fusion_counts().total();
            tape_after += compiled.tape_len();
            jit = jit.zip(compiled.jit_report()).map(|(a, b)| a + b);
            lint_ok &= lint(&to_verilog(&opt, RtlFormat::q16_16())).is_ok();
        }
        let accel = GradientTemplate::new().customize(&robot);
        let top = generate_top(&accel, RtlFormat::q16_16());
        t.row([
            robot.name().to_string(),
            format!("{lo}..{hi}"),
            format!("{nodes_before}->{nodes_after}"),
            format!("{tape_before}->{tape_after}"),
            jit.map_or("n/a".to_string(), |r| {
                format!(
                    "{} ({:.1}) / {}",
                    r.code_bytes,
                    r.bytes_per_instr(),
                    r.spills
                )
            }),
            top.manifest.len().to_string(),
            if lint_ok { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    t.note("RTL is lowered from the *optimized* netlist (constant folding, CSE,");
    t.note("dead-node elimination); every generated netlist also *executes* and");
    t.note("matches the reference transform exactly (tested in robo-codegen)");
    t.note("tape column: peephole fusion (mul+add etc.) shrinking the compiled");
    t.note("register tape, two rounding steps preserved (bit-identical, not FMA)");
    t.note("jit column: machine-code bytes (per tape instruction) / frame spills the");
    t.note("register-allocating JIT emits at compile time across the robot's X-unit");
    t.note("f64 tapes (scalar VEX row; n/a when the host has no JIT backend)");
    t.note(format!(
        "wide batches: Lanes<S, {}> on every host (this one: {})",
        robo_spatial::SERVE_LANES,
        robo_spatial::ExecTier::detect(),
    ));
    let mut out = t.render();
    out.push('\n');
    out.push_str(&family_sharing_stats());
    out
}

/// Multifunction kernel family: shared-subexpression savings of the
/// merged RNEA / FD / ∇ID netlist vs three dedicated single-kernel
/// netlists, per robot (the Dadu-RBD-style datapath-sharing argument).
fn family_sharing_stats() -> String {
    use robo_codegen::generate_kernel_family;
    use robo_dynamics::engine::KernelKind;
    let mut t = Table::new("Codegen: multifunction kernel family sharing (id+fd+grad)").headers([
        "robot",
        "dedicated nodes",
        "merged nodes",
        "shared nodes",
        "dedicated DSP muls",
        "merged DSP muls",
        "shared DSP muls",
        "shared adds",
    ]);
    for robot in [robots::iiwa14(), robots::hyq(), robots::atlas()] {
        let mask = robo_sparsity::superposition_pattern(&robot);
        let (_, _, sharing) = generate_kernel_family(&robot, mask, &KernelKind::ALL)
            .expect("distinct kernels never collide on output names");
        t.row([
            robot.name().to_string(),
            sharing.dedicated_nodes().to_string(),
            sharing.merged_nodes.to_string(),
            sharing.shared_nodes().to_string(),
            sharing.dedicated_stats().muls.to_string(),
            sharing.merged.muls.to_string(),
            sharing.shared_dsp_muls().to_string(),
            sharing.shared_adds().to_string(),
        ]);
    }
    t.note("dedicated = the three kernels optimized as separate netlists;");
    t.note("merged = one netlist emitting all three kernels, optimized together");
    t.note("(shared trig inputs, X/Xᵀ banks and common subexpressions fuse);");
    t.note("shared = dedicated − merged, the circuit the kernels reuse");
    t.render()
}

/// §8-style workload characterization of the gradient kernel, from exact
/// operation counting.
pub fn sec8_workload() -> String {
    let mut t = Table::new("§8: dynamics gradient workload characterization").headers([
        "robot",
        "ID flops",
        "grad-ID flops",
        "Minv flops",
        "mul frac",
        "working set",
        "fits 32kB L1?",
        "ops/byte",
    ]);
    for robot in [robots::iiwa14(), robots::hyq(), robots::atlas()] {
        let w = robo_profile::kernel_workload(&robot);
        t.row([
            robot.name().to_string(),
            w.id_ops.flops().to_string(),
            w.grad_ops.flops().to_string(),
            w.minv_ops.flops().to_string(),
            format!("{:.0}%", w.total().mul_fraction() * 100.0),
            format!("{:.1} kB", w.working_set_bytes as f64 / 1024.0),
            if w.fits_cache(32 * 1024) { "yes" } else { "no" }.to_string(),
            format!("{:.1}", w.arithmetic_intensity()),
        ]);
    }
    t.note("paper (§8, citing the RBD-Benchmarks analysis): compute-bound,");
    t.note("<10% memory stalls, working set fits a 32 kB L1; counts here come");
    t.note("from running the real kernels over an op-counting scalar type");
    t.render()
}

/// §7's other-kernels claim: the methodology applied to collision checking
/// and forward kinematics, customized per robot.
pub fn sec7_other_kernels() -> String {
    use robo_collision::CollisionTemplate;
    use robomorphic_core::KinematicsTemplate;
    let mut t = Table::new("§7: other kernels under the same methodology").headers([
        "robot",
        "FK latency cyc",
        "FK var muls",
        "collision pairs",
        "collision latency cyc",
        "collision var muls",
    ]);
    for robot in [robots::iiwa14(), robots::hyq(), robots::atlas()] {
        let fk = KinematicsTemplate::new().customize(&robot);
        let col = CollisionTemplate::new().customize(&robot);
        t.row([
            robot.name().to_string(),
            fk.latency_cycles().to_string(),
            fk.resources().var_muls.to_string(),
            col.pairs.to_string(),
            col.latency_cycles().to_string(),
            col.var_muls().to_string(),
        ]);
    }
    t.note("collision pairs are morphology-pruned (graph distance ≤ 2 excluded),");
    t.note("so the parallel distance-unit count is read straight off the topology");
    t.render()
}

/// §6.4's system-on-chip projection: pipelines per die, aggregate
/// throughput, and power vs the FPGA.
pub fn sec64_soc() -> String {
    let accel = iiwa_accelerator();
    let r = accel.resources();
    let asic = AsicPlatform::typical();
    let fpga = FpgaPlatform::xcvu9p();
    let die_mm2 = 122.0; // Intel 14 nm quad-core SkyLake reference (§6.4)

    let pipelines = asic.pipelines_per_die(&r, die_mm2);
    let per_pipeline_tput = accel.throughput_per_s(asic.clock_hz());
    let mut t = Table::new("§6.4: system-on-chip projection (iiwa pipeline)")
        .headers(["quantity", "paper", "ours"]);
    t.row([
        "pipeline area (typical corner)".to_string(),
        "1.885 mm²".into(),
        format!("{:.3} mm²", asic.area_mm2(&r)),
    ]);
    t.row([
        "pipelines per 122 mm² die".to_string(),
        "~65x pipeline area".into(),
        pipelines.to_string(),
    ]);
    t.row([
        "aggregate throughput".to_string(),
        "-".into(),
        format!(
            "{:.1} M gradients/s ({} x {:.2} M)",
            pipelines as f64 * per_pipeline_tput / 1e6,
            pipelines,
            per_pipeline_tput / 1e6
        ),
    ]);
    t.row([
        "pipeline power vs FPGA".to_string(),
        "8.7x lower".into(),
        format!("{:.1}x lower", fpga.power_w / asic.power_w(&r)),
    ]);
    t.note("one FPGA fits a single pipeline (§6.3); the SoC projection is why");
    t.note("the paper argues for ASICs on multi-limb robots and batched MPC");
    t.render()
}

/// Runs every experiment, returning `(id, report)` pairs in paper order.
pub fn all(quick: bool) -> Vec<(&'static str, String)> {
    vec![
        ("fig04_control_rates", fig04_control_rates(quick)),
        ("sec4_sparsity_example", sec4_sparsity_example()),
        ("table1_platforms", table1_platforms()),
        ("fig10_single_latency", fig10_single_latency(quick)),
        ("fig11_sparsity_ops", fig11_sparsity_ops()),
        ("fig12_precision", fig12_precision(quick)),
        ("fig13_roundtrip", fig13_roundtrip(quick)),
        ("table2_asic", table2_asic()),
        ("fig14_asic_latency", fig14_asic_latency()),
        ("fig15_projected_rates", fig15_projected_rates(quick)),
        ("sec7_other_robots", sec7_other_robots()),
        ("ablation_folding", ablation_folding()),
        ("ablation_accumulator", ablation_accumulator()),
        ("sweep_links", sweep_links()),
        ("codegen_stats", codegen_stats()),
        ("sec8_workload", sec8_workload()),
        ("sec7_other_kernels", sec7_other_kernels()),
        ("sec64_soc", sec64_soc()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sec4_reports_paper_numbers() {
        let s = sec4_sparsity_example();
        assert!(s.contains("13 / 36"));
        assert!(s.contains("64%"));
        assert!(s.contains("77%"));
    }

    #[test]
    fn fig11_contains_all_configurations() {
        let s = fig11_sparsity_ops();
        assert!(s.contains("no sparsity"));
        assert!(s.contains("superposition"));
        assert!(s.contains("average"));
    }

    #[test]
    fn fig14_reports_paper_speedups() {
        let s = fig14_asic_latency();
        assert!(s.contains("4.5x"));
        assert!(s.contains("7.2x"));
    }

    #[test]
    fn table2_has_three_platforms() {
        let s = table2_asic();
        assert!(s.matches("ASIC").count() >= 2);
        assert!(s.contains("9.572"));
    }

    #[test]
    fn quick_experiments_all_render() {
        for (name, report) in all(true) {
            assert!(report.contains("=="), "experiment {name} produced no table");
            assert!(report.len() > 100, "experiment {name} suspiciously short");
        }
    }
}
