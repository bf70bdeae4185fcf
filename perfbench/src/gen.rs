//! The seeded load generator's inputs: a small PRNG, the Poisson arrival
//! schedule, the per-robot evaluation points, and the per-op kernel mix.
//!
//! Everything here is a pure function of the `--seed` argument, so two
//! runs with one seed offer the server bit-identical work. Each stream
//! (schedule, inputs, mix) draws from its own generator, derived from the
//! seed with a fixed salt, so changing how many values one stream draws
//! never shifts another.

use robo_dynamics::engine::KernelKind;
use robo_dynamics::{forward_dynamics, mass_matrix_inverse, DynamicsModel};
use robo_spatial::MatN;

/// Salts separating the generator streams derived from one seed.
const SALT_SCHEDULE: u64 = 0x5c4e_d01e;
const SALT_INPUTS: u64 = 0x1a9d_0075;
const SALT_MIX: u64 = 0x0a11_0c8e;

/// SplitMix64: tiny, fast, and good enough for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of `seed`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn frac(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.frac()
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Send times, in nanoseconds from the start of the run, of a Poisson
/// arrival process at `rate_hz` over `duration_s` seconds.
pub fn poisson_schedule(seed: u64, rate_hz: f64, duration_s: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed, SALT_SCHEDULE);
    let end_ns = duration_s * 1e9;
    let mean_gap_ns = 1e9 / rate_hz;
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate_hz * duration_s * 1.05) as usize + 16);
    loop {
        // 1 - frac() lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.frac()).ln() * mean_gap_ns;
        if t >= end_ns {
            return out;
        }
        out.push(t as u64);
    }
}

/// One evaluation point for a robot: the state, the torques that produced
/// its accelerations, and `M⁻¹` — enough to feed every kernel of the
/// family (`grad`/`id` take `qdd` in the third slot, `fd` takes `tau`).
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Joint positions.
    pub q: Vec<f64>,
    /// Joint velocities.
    pub qd: Vec<f64>,
    /// Joint accelerations under `tau`.
    pub qdd: Vec<f64>,
    /// Applied joint torques.
    pub tau: Vec<f64>,
    /// Inverse mass matrix at `q`.
    pub minv: MatN<f64>,
}

impl Case {
    /// The kernel's third input slot.
    pub fn third(&self, kernel: KernelKind) -> &[f64] {
        match kernel {
            KernelKind::ForwardDynamics => &self.tau,
            KernelKind::InverseDynamics | KernelKind::Gradient => &self.qdd,
        }
    }
}

/// `count` seeded evaluation points for `model`; `robot` separates the
/// streams of different robots under one seed.
pub fn cases(model: &DynamicsModel<f64>, seed: u64, robot: u64, count: usize) -> Vec<Case> {
    let mut rng = Rng::new(
        seed ^ robot.wrapping_mul(0x2545_f491_4f6c_dd1d),
        SALT_INPUTS,
    );
    let n = model.dof();
    (0..count)
        .map(|_| {
            let q: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let qd: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let tau: Vec<f64> = (0..n).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let qdd = forward_dynamics(model, &q, &qd, &tau).expect("random posture is regular");
            let minv = mass_matrix_inverse(model, &q).expect("random posture is regular");
            Case {
                q,
                qd,
                qdd,
                tau,
                minv,
            }
        })
        .collect()
}

/// What one op asks for: which robot, which kernel, which of the robot's
/// cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into the workload's robots.
    pub robot: usize,
    /// The kernel of the family to run.
    pub kernel: KernelKind,
    /// Index into that robot's cases.
    pub case: usize,
}

/// A seeded op sequence of length `len` over `robots` robots (chosen
/// uniformly) and `cases` cases per robot. With `mixed`, the kernel is
/// `grad` half the time and `id`/`fd` a quarter each; otherwise every op
/// is `grad`.
pub fn op_mix(seed: u64, len: usize, robots: usize, cases: usize, mixed: bool) -> Vec<Op> {
    let mut rng = Rng::new(seed, SALT_MIX);
    (0..len)
        .map(|_| {
            let robot = rng.below(robots);
            let kernel = if mixed {
                match rng.below(4) {
                    0 | 1 => KernelKind::Gradient,
                    2 => KernelKind::InverseDynamics,
                    _ => KernelKind::ForwardDynamics,
                }
            } else {
                KernelKind::Gradient
            };
            Op {
                robot,
                kernel,
                case: rng.below(cases),
            }
        })
        .collect()
}
