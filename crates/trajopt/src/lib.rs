//! Nonlinear MPC substrate: trajectory optimization over the dynamics
//! gradient, and the control-rate analysis of Figures 4 and 15.
//!
//! * [`solve`] / [`ReachingTask`] — an iLQR optimizer whose dynamics
//!   gradient runs in any [`robo_spatial::Scalar`] (the accelerator's
//!   fixed point) while the solver shell stays in `f64`, reproducing the
//!   paper's Figure 12 numeric-type study;
//! * [`run_mpc`] / [`solve_with_backend`] — closed-loop receding-horizon
//!   MPC and single-trajectory optimization with the gradient kernel
//!   behind the engine layer's
//!   [`DynamicsBackend`](robo_dynamics::engine::DynamicsBackend) trait, so
//!   a simulated (or real) accelerator runs in the loop as a one-line
//!   backend swap;
//! * [`ControlRateModel`] — the analytical model converting per-step
//!   gradient cost into achievable MPC control rates against the 250 Hz /
//!   1 kHz thresholds (Figures 4 and 15).
//!
//! # Example
//!
//! ```
//! use robo_trajopt::{solve, IlqrOptions, ReachingTask};
//!
//! let mut task = ReachingTask::iiwa_reach();
//! task.horizon = 8; // keep the doctest quick
//! let result = solve::<f64>(&task, &IlqrOptions { iterations: 3, ..Default::default() });
//! assert!(result.final_cost() < result.costs[0]);
//! ```

#![warn(missing_docs)]
// Index-based loops over fixed-size matrix dimensions are clearer than
// iterator chains in this numerical code.
#![allow(clippy::needless_range_loop)]

mod ilqr;
mod mpc;
mod rate;

pub use ilqr::{solve, solve_with_backend, IlqrOptions, IlqrResult, ReachingTask};
pub use mpc::{run_mpc, MpcConfig, MpcResult};
pub use rate::{ControlRateModel, ACTUATOR_RATE_HZ, MPC_MINIMUM_RATE_HZ, PAPER_OPT_ITERATIONS};
