//! Cycle-level simulation of robomorphic accelerators and their
//! coprocessor deployment.
//!
//! This crate is the workspace's stand-in for the paper's Verilog/FPGA
//! artifact (see DESIGN.md's substitution table):
//!
//! * [`XUnit`] — the pruned transform matrix-vector functional unit, built
//!   from per-robot affine trig coefficients exactly as the hardware's
//!   constant-multiplier banks and pruned multiplier–adder trees are; by
//!   default it executes the optimized netlist compiled to a flat register
//!   tape (the same IR `robo-codegen` lowers to Verilog), with the
//!   coefficient path kept as a bit-identical reference oracle
//!   ([`XUnitBackend`]);
//! * [`AcceleratorSim`] — executes the full dynamics-gradient kernel
//!   (Algorithm 1) through those units in any scalar type (notably the
//!   accelerator's Q16.16 fixed point), with latency taken from the
//!   design's static cycle schedule;
//! * [`step_pipeline`] — a cycle-by-cycle, resource-constrained stepper of
//!   the folded pipeline whose emergent latency and initiation interval
//!   cross-check the closed-form schedule;
//! * [`CoprocessorSystem`] / [`IoChannel`] — the Figure 9 deployment model
//!   with PCIe transfer times pipelined against compute, producing the
//!   round-trip latencies of Figure 13.
//!
//! # Example
//!
//! ```
//! use robo_model::robots;
//! use robo_sim::{AcceleratorSim, CoprocessorSystem};
//! use robomorphic_core::GradientTemplate;
//!
//! let robot = robots::iiwa14();
//! let accel = GradientTemplate::new().customize(&robot);
//! let coproc = CoprocessorSystem::fpga_default(accel);
//! let rt = coproc.round_trip(32);
//! assert!(rt.total_s > 0.0);
//!
//! let sim = AcceleratorSim::<f64>::new(&robot);
//! assert_eq!(sim.dof(), 7);
//! ```

#![warn(missing_docs)]
// Index-based loops over fixed-size matrix dimensions are clearer than
// iterator chains in this numerical code.
#![allow(clippy::needless_range_loop)]

mod accel_sim;
mod coproc;
pub mod engine;
mod stepper;
mod xunit;

pub use accel_sim::{AcceleratorSim, SimOutput, SimWorkspace};
pub use coproc::{stream_batch, CoprocessorSystem, IoChannel, KernelInput, RoundTrip, StreamEvent};
pub use engine::{AcceleratorBackend, BackendKind, RobotPlan};
pub use stepper::{step_pipeline, CycleTrace, TraceEntry, Unit};
pub use xunit::{Accumulation, XUnit, XUnitBackend};
