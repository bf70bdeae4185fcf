//! Baselines for the paper's evaluation: a *measured* CPU implementation
//! and a *modeled* GPU (see DESIGN.md's substitution table).
//!
//! * [`CpuBaseline`] — the dynamics-gradient kernel on the host CPU,
//!   parallelized across trajectory time steps through the shared
//!   [`robo_dynamics::batch::BatchEngine`] (persistent workers that join
//!   the caller in its batch, each participant on a warm backend fork
//!   built once), timed with `std::time::Instant` (the paper's
//!   Pinocchio-on-i7 counterpart);
//! * [`GpuModel`] — an analytic RTX 2080-class latency model encoding
//!   kernel-launch overhead, the serialized forward/backward sync chain,
//!   and SM-wave throughput;
//! * [`LatencySegments`] — Figure 10's ID / ∇ID / M⁻¹ breakdown, shared by
//!   all platforms.
//!
//! # Example
//!
//! ```
//! use robo_baselines::{random_inputs, CpuBaseline};
//! use robo_model::robots;
//!
//! let robot = robots::iiwa14();
//! let mut cpu = CpuBaseline::new(&robot);
//! let input = &robo_baselines::random_inputs(&robot, 1, 42)[0];
//! let grad = cpu.compute(input);
//! assert_eq!(grad.dqdd_dq.rows(), 7);
//! ```

#![warn(missing_docs)]

mod cpu;
mod gpu;

pub use cpu::{random_inputs, trajectory_inputs, CpuBaseline, GradientInput};
pub use gpu::GpuModel;

/// A single-computation latency broken into Algorithm 1's three steps,
/// as stacked in the paper's Figure 10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySegments {
    /// Step 1: inverse dynamics.
    pub id_s: f64,
    /// Step 2: ∇ inverse dynamics.
    pub grad_s: f64,
    /// Step 3: −M⁻¹ multiplication.
    pub minv_s: f64,
}

impl LatencySegments {
    /// Total latency.
    pub fn total(&self) -> f64 {
        self.id_s + self.grad_s + self.minv_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_total() {
        let s = LatencySegments {
            id_s: 1.0,
            grad_s: 2.0,
            minv_s: 3.0,
        };
        assert_eq!(s.total(), 6.0);
    }
}
