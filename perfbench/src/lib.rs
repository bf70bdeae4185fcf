//! The repository's end-to-end benchmark: one served request as the unit
//! of truth, timed end to end, checked bitwise against direct evaluation,
//! and broken down per layer in a traced run.
//! See `README.md` beside this crate for the workloads and metrics.

pub mod gen;
pub mod probes;
pub mod procfs;
pub mod serve;
pub mod spans;
pub mod stats;

/// What one timed phase of a workload did.
#[derive(Debug, Default)]
pub struct Tally {
    /// Per-op latency of every completed op, microseconds.
    pub lat_us: Vec<f64>,
    /// Duration of each accepted `GradientServer::submit` call.
    pub submit_us: Vec<f64>,
    /// From `submit` returning to the response being observed.
    pub wait_us: Vec<f64>,
    /// Open loop: how late the generator sent each op against its
    /// schedule.
    pub late_us: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops shed, refused, or answered wrongly.
    pub failed: u64,
    /// Ops whose output differed from the direct evaluation.
    pub wrong: u64,
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
}

impl Tally {
    /// Completed ops per wall second.
    pub fn throughput(&self) -> f64 {
        self.lat_us.len() as f64 / self.wall_s
    }
}
