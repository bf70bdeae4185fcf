//! # Robomorphic computing, in Rust
//!
//! A full reproduction of *"Robomorphic Computing: A Design Methodology for
//! Domain-Specific Accelerators Parameterized by Robot Morphology"*
//! (Neuman et al., ASPLOS 2021): a methodology that transforms robot
//! morphology — limbs, links, joint types — into a customized hardware
//! accelerator for the gradient of rigid body dynamics, the key kernel of
//! online nonlinear-MPC motion planning.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`spatial`] | `robo-spatial` | 6-D spatial algebra, small dense linear algebra, the [`Scalar`](spatial::Scalar) abstraction |
//! | [`fixed`] | `robo-fixed` | Q-format fixed-point arithmetic (the accelerator's Q16.16 and the Figure 12 sweep types) |
//! | [`model`] | `robo-model` | robot morphology: joints, links, kinematic trees, limb decomposition, built-in robots, the `.robo` format |
//! | [`dynamics`] | `robo-dynamics` | RNEA, CRBA, ABA, and the analytical dynamics gradient (Algorithm 1) |
//! | [`sparsity`] | `robo-sparsity` | morphology-derived matrix sparsity patterns and pruned operation counts |
//! | [`core`] | `robomorphic-core` | **the methodology**: parameterized hardware templates and per-robot customization |
//! | [`sim`] | `robo-sim` | cycle-level accelerator simulation and the coprocessor system model |
//! | [`baselines`] | `robo-baselines` | measured CPU baseline and the modeled GPU baseline |
//! | [`codegen`] | `robo-codegen` | executable netlists and Verilog emission for generated accelerators |
//! | [`profile`] | `robo-profile` | workload analysis via an operation-counting scalar |
//! | [`collision`] | `robo-collision` | capsule collision checking and its robomorphic template |
//! | [`trajopt`] | `robo-trajopt` | iLQR nonlinear MPC and the control-rate analysis |
//! | [`trace`] | `robo-trace` | pipeline span tracing emitting Chrome-trace JSON (recording gated behind the `trace` cargo feature, on by default) |
//! | [`engine`] | `robo-dynamics` + `robo-sim` | the plan-once/execute-many engine layer: [`RobotPlan`](engine::RobotPlan) and the [`DynamicsBackend`](engine::DynamicsBackend) trait every kernel consumer goes through |
//! | [`serve`] | `robo-serve` | the gradient-serving tier: [`GradientServer`](serve::GradientServer) with a morphology-keyed plan cache, per-shard dynamic micro-batching, and backpressure |
//!
//! # Quickstart
//!
//! ```
//! use robomorphic::core::{FpgaPlatform, GradientTemplate};
//! use robomorphic::model::robots;
//!
//! // Step 1: create the hardware template once per algorithm.
//! let template = GradientTemplate::new();
//!
//! // Step 2: set its parameters from a robot's morphology.
//! let accel = template.customize(&robots::iiwa14());
//!
//! // The customized design: 34 cycles per gradient at 55.6 MHz.
//! let fpga = FpgaPlatform::xcvu9p();
//! assert_eq!(accel.schedule().single_latency_cycles(), 34);
//! assert!(fpga.fits(&accel.resources()));
//! ```
//!
//! See `DESIGN.md` for the system inventory and the per-experiment index,
//! and `EXPERIMENTS.md` for paper-vs-measured results. Each table/figure of
//! the paper can be regenerated with
//! `cargo run -p robo-bench --release --bin <experiment>`.

#![warn(missing_docs)]

pub use robo_baselines as baselines;
pub use robo_codegen as codegen;
pub use robo_collision as collision;
pub use robo_dynamics as dynamics;
pub use robo_fixed as fixed;
pub use robo_model as model;
pub use robo_profile as profile;
pub use robo_serve as serve;
pub use robo_sim as sim;
pub use robo_sparsity as sparsity;
pub use robo_spatial as spatial;
pub use robo_trace as trace;
pub use robo_trajopt as trajopt;
pub use robomorphic_core as core;

/// The engine layer in one place: build a [`engine::RobotPlan`] once per
/// morphology, then hand out [`engine::DynamicsBackend`]s — CPU analytic,
/// simulated accelerator, or finite differences — to every consumer.
///
/// # Examples
///
/// ```
/// use robomorphic::engine::{BackendKind, DynamicsBackend, RobotPlan};
/// use robomorphic::model::robots;
///
/// let plan = RobotPlan::new(&robots::iiwa14());
/// let mut backend = plan.backend(BackendKind::Cpu);
/// assert_eq!(backend.dof(), 7);
/// ```
pub mod engine {
    pub use robo_dynamics::batch::GradientState;
    pub use robo_dynamics::engine::{
        gradient_batch_on_into, BatchOutput, CpuAnalytic, DynamicsBackend, EngineError, FiniteDiff,
        GradientBackend, GradientBatchOutput, GradientOutput, KernelKind, KernelOutput, WarmForks,
    };
    pub use robo_dynamics::MorphologyKey;
    pub use robo_sim::engine::{AcceleratorBackend, BackendKind, RobotPlan};
}

#[doc(hidden)]
pub mod cli;
