//! Hardware in the loop: closed-loop nonlinear MPC where the dynamics
//! gradient comes from the *simulated fixed-point accelerator* instead of
//! host software — the paper's deployment (Figure 9) exercised end to end.
//!
//! ```text
//! cargo run --release --example hardware_in_the_loop
//! ```
//!
//! Runs the same receding-horizon controller twice — once with the plan's
//! CPU analytic backend, once with the Q16.16 accelerator simulation —
//! swapping nothing but the [`DynamicsBackend`] handed to `run_mpc`. Also
//! accounts the accelerator's cycle budget for the whole run.

use robomorphic::core::FpgaPlatform;
use robomorphic::engine::{AcceleratorBackend, RobotPlan};
use robomorphic::fixed::Fix32_16;
use robomorphic::trajopt::{run_mpc, MpcConfig, ReachingTask};

fn main() {
    let task = ReachingTask::iiwa_reach();
    let config = MpcConfig {
        control_steps: 40,
        disturbance: 0.3, // unmodeled constant torque on every joint
        ..Default::default()
    };

    // Plan once per morphology; every backend below shares it or derives
    // from the same robot description.
    let plan = RobotPlan::new(&task.robot);

    // --- Software gradient (host f64) -------------------------------------
    let sw = run_mpc(&task, &config, &plan.cpu_backend());

    // --- Accelerator in the loop (Q16.16) ----------------------------------
    // The one-line swap: same trait, fixed-point datapath underneath.
    let hw_backend = AcceleratorBackend::<Fix32_16>::new(&task.robot);
    let hw = run_mpc(&task, &config, &hw_backend);

    println!(
        "closed-loop MPC on {} with a {} Nm unmodeled disturbance:",
        task.robot.name(),
        config.disturbance
    );
    println!("  step | err (software f64) | err (accelerator Q16.16)");
    for (i, (a, b)) in sw
        .tracking_errors
        .iter()
        .zip(hw.tracking_errors.iter())
        .enumerate()
        .step_by(5)
    {
        println!("  {i:>4} | {a:>18.4} | {b:>24.4}");
    }
    println!(
        "  final: software {:.4} rad vs accelerator {:.4} rad",
        sw.final_error(),
        hw.final_error()
    );

    let cycles_per_call = hw_backend.cycles_per_gradient();
    let fpga = FpgaPlatform::xcvu9p();
    let accel_time_ms = hw.gradient_calls as f64 * cycles_per_call as f64 / fpga.clock_hz * 1e3;
    println!(
        "\naccelerator accounting: {} kernel calls x {} cycles = {:.2} ms of FPGA time\n\
         across {:.1} ms of simulated robot motion (dt = {} s x {} steps)",
        hw.gradient_calls,
        cycles_per_call,
        accel_time_ms,
        task.dt * config.control_steps as f64 * 1e3,
        task.dt,
        config.control_steps
    );
    assert!(hw.final_error() < 2.0 * sw.final_error().max(0.02));
    println!("ok: fixed-point hardware in the loop tracks like the software baseline");
}
