//! Functional simulation of the customized accelerator.
//!
//! [`AcceleratorSim`] executes the dynamics-gradient kernel exactly as the
//! hardware is organized (Figure 8): an inverse-dynamics chain running one
//! link ahead, `2N` parallel derivative datapaths (∂/∂q and ∂/∂q̇ per
//! link), a backward pass with the `(∂X/∂q)ᵀ` seed, and the fused `−M⁻¹`
//! MAC stage — all arithmetic routed through the pruned [`XUnit`]
//! functional units in the accelerator's (fixed-point) scalar type, and all
//! timing taken from the design's static [`CycleSchedule`].
//!
//! [`CycleSchedule`]: robomorphic_core::CycleSchedule

use crate::xunit::XUnit;
use robo_model::RobotModel;
use robo_sparsity::superposition_pattern;
use robo_spatial::{Force, Lanes, MatN, Motion, Scalar, SpatialInertia};
use robomorphic_core::{Accelerator, GradientTemplate};

/// Output of one simulated gradient computation.
#[derive(Debug, Clone)]
pub struct SimOutput<S> {
    /// `∂τ/∂q` (step 2 output).
    pub dtau_dq: MatN<S>,
    /// `∂τ/∂q̇` (step 2 output).
    pub dtau_dqd: MatN<S>,
    /// `∂q̈/∂q = −M⁻¹ ∂τ/∂q` (step 3 output).
    pub dqdd_dq: MatN<S>,
    /// `∂q̈/∂q̇ = −M⁻¹ ∂τ/∂q̇` (step 3 output).
    pub dqdd_dqd: MatN<S>,
    /// Cycles consumed (static schedule; pipelining ignored, as in the
    /// paper's Figure 10 measurement).
    pub cycles: usize,
}

/// Reusable buffers for [`AcceleratorSim::compute_gradient_into`]:
/// the simulated on-chip state (link quantities, datapath registers) plus
/// the output matrices.
///
/// Constructing the workspace allocates; every subsequent
/// `compute_gradient_into` call through it (at the same or smaller degrees
/// of freedom) performs **zero heap allocations** — the software analogue
/// of the accelerator's statically-provisioned registers.
#[derive(Debug, Clone)]
pub struct SimWorkspace<S> {
    /// Output `∂τ/∂q`, valid after a call.
    pub dtau_dq: MatN<S>,
    /// Output `∂τ/∂q̇`, valid after a call.
    pub dtau_dqd: MatN<S>,
    /// Output `∂q̈/∂q`, valid after a call.
    pub dqdd_dq: MatN<S>,
    /// Output `∂q̈/∂q̇`, valid after a call.
    pub dqdd_dqd: MatN<S>,
    /// Output joint torques, valid after a
    /// [`AcceleratorSim::compute_rnea_into`] call (also holds the bias
    /// torques after [`AcceleratorSim::compute_fd_into`]).
    pub tau: Vec<S>,
    /// Output joint accelerations, valid after a
    /// [`AcceleratorSim::compute_fd_into`] call.
    pub qdd: Vec<S>,
    trig: Vec<(S, S)>,
    v: Vec<Motion<S>>,
    a: Vec<Motion<S>>,
    f: Vec<Force<S>>,
    zero_qdd: Vec<S>,
    dv_q: Vec<Motion<S>>,
    da_q: Vec<Motion<S>>,
    df_q: Vec<Force<S>>,
    dv_qd: Vec<Motion<S>>,
    da_qd: Vec<Motion<S>>,
    df_qd: Vec<Force<S>>,
}

impl<S: Scalar> Default for SimWorkspace<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scalar> SimWorkspace<S> {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            dtau_dq: MatN::zeros(0, 0),
            dtau_dqd: MatN::zeros(0, 0),
            dqdd_dq: MatN::zeros(0, 0),
            dqdd_dqd: MatN::zeros(0, 0),
            tau: Vec::new(),
            qdd: Vec::new(),
            trig: Vec::new(),
            v: Vec::new(),
            a: Vec::new(),
            f: Vec::new(),
            zero_qdd: Vec::new(),
            dv_q: Vec::new(),
            da_q: Vec::new(),
            df_q: Vec::new(),
            dv_qd: Vec::new(),
            da_qd: Vec::new(),
            df_qd: Vec::new(),
        }
    }

    /// A workspace pre-sized for `sim`, so even the first call through it
    /// is allocation-free.
    pub fn for_sim(sim: &AcceleratorSim<S>) -> Self {
        let n = sim.dof();
        Self {
            dtau_dq: MatN::zeros(n, n),
            dtau_dqd: MatN::zeros(n, n),
            dqdd_dq: MatN::zeros(n, n),
            dqdd_dqd: MatN::zeros(n, n),
            tau: vec![S::zero(); n],
            qdd: vec![S::zero(); n],
            trig: Vec::with_capacity(n),
            v: vec![Motion::zero(); n],
            a: vec![Motion::zero(); n],
            f: vec![Force::zero(); n],
            zero_qdd: vec![S::zero(); n],
            dv_q: vec![Motion::zero(); n],
            da_q: vec![Motion::zero(); n],
            df_q: vec![Force::zero(); n],
            dv_qd: vec![Motion::zero(); n],
            da_qd: vec![Motion::zero(); n],
            df_qd: vec![Force::zero(); n],
        }
    }

    /// Consumes the workspace, yielding the last call's output without
    /// copying. `cycles` is the value returned by that call.
    pub fn into_output(self, cycles: usize) -> SimOutput<S> {
        SimOutput {
            dtau_dq: self.dtau_dq,
            dtau_dqd: self.dtau_dqd,
            dqdd_dq: self.dqdd_dq,
            dqdd_dqd: self.dqdd_dqd,
            cycles,
        }
    }
}

/// A functional, cycle-accounted simulator of a robot-customized dynamics
/// gradient accelerator.
///
/// # Examples
///
/// ```
/// use robo_fixed::Fix32_16;
/// use robo_sim::AcceleratorSim;
/// use robo_model::robots;
/// use robo_spatial::{MatN, Scalar};
///
/// let robot = robots::iiwa14();
/// let sim = AcceleratorSim::<Fix32_16>::new(&robot);
/// let q = [0.1_f64; 7].map(Fix32_16::from_f64);
/// let zero = [0.0_f64; 7].map(Fix32_16::from_f64);
/// let minv = MatN::<Fix32_16>::identity(7);
/// let out = sim.compute_gradient(&q, &zero, &zero, &minv);
/// assert_eq!(out.cycles, 34);
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratorSim<S> {
    robot: RobotModel,
    design: Accelerator,
    x_units: Vec<XUnit<S>>,
    inertias: Vec<SpatialInertia<S>>,
    subspaces: Vec<Motion<S>>,
    parents: Vec<Option<usize>>,
    ancestor_mask: Vec<u64>,
    base_acceleration: Motion<S>,
}

impl<S: Scalar> AcceleratorSim<S> {
    /// Customizes the paper-default template for `robot` and builds its
    /// simulator (standard gravity).
    ///
    /// # Panics
    ///
    /// Panics if the robot has more than 64 links.
    pub fn new(robot: &RobotModel) -> Self {
        Self::with_design(robot, GradientTemplate::new().customize(robot))
    }

    /// Like [`AcceleratorSim::new`], but with the functional units'
    /// dot-product trees in the given accumulation mode (see
    /// [`crate::Accumulation`]).
    pub fn with_accumulation(robot: &RobotModel, accumulation: crate::Accumulation) -> Self {
        let mut sim = Self::new(robot);
        for unit in &mut sim.x_units {
            unit.set_accumulation(accumulation);
        }
        sim
    }

    /// Selects which evaluator executes the functional units' arithmetic
    /// (see [`crate::XUnitBackend`]). The default is the compiled netlist
    /// tape; results are bit-identical either way.
    pub fn set_backend(&mut self, backend: crate::XUnitBackend) {
        for unit in &mut self.x_units {
            unit.set_backend(backend);
        }
    }

    /// The JIT's emission report summed over every functional unit's
    /// compiled tapes; `None` when any of them runs the interpreter.
    pub fn jit_report(&self) -> Option<robo_codegen::JitReport> {
        self.x_units.iter().map(crate::XUnit::jit_report).sum()
    }

    /// Builds a simulator for an explicit customized design.
    ///
    /// # Panics
    ///
    /// Panics if the robot has more than 64 links.
    pub fn with_design(robot: &RobotModel, design: Accelerator) -> Self {
        let n = robot.dof();
        assert!(n <= 64, "robots with more than 64 links are not supported");
        let shared_mask = superposition_pattern(robot);
        let mut ancestor_mask = vec![0u64; n];
        for i in 0..n {
            let mut mask = 1u64 << i;
            if let Some(p) = robot.parent(i) {
                mask |= ancestor_mask[p];
            }
            ancestor_mask[i] = mask;
        }
        Self {
            robot: robot.clone(),
            design,
            x_units: (0..n)
                .map(|i| XUnit::with_mask(robot, i, shared_mask))
                .collect(),
            inertias: robot.links().iter().map(|l| l.inertia.cast()).collect(),
            subspaces: robot
                .links()
                .iter()
                .map(|l| l.joint.motion_subspace())
                .collect(),
            parents: (0..n).map(|i| robot.parent(i)).collect(),
            ancestor_mask,
            base_acceleration: Motion::new(
                robo_spatial::Vec3::zero(),
                robo_spatial::Vec3::new(
                    S::zero(),
                    S::zero(),
                    S::from_f64(robo_dynamics::STANDARD_GRAVITY),
                ),
            ),
        }
    }

    /// The underlying customized design (schedule, resources).
    pub fn design(&self) -> &Accelerator {
        &self.design
    }

    /// The source morphology the simulator was customized for.
    pub fn robot(&self) -> &RobotModel {
        &self.robot
    }

    /// Re-targets the simulator at the wide scalar `Lanes<S, W>` for the
    /// SoA serving path: the same customized design is rebuilt at the wide
    /// type, then every functional unit's accumulation mode and evaluator
    /// backend are carried over. All unit constants are derived from
    /// snapped `f64` probes through `S::from_f64` — a lane splat on
    /// `Lanes` — so one wide run is bit-identical, lane for lane, to `W`
    /// scalar runs through `self`.
    pub fn widen<const W: usize>(&self) -> AcceleratorSim<Lanes<S, W>> {
        self.cast_to::<Lanes<S, W>>()
    }

    /// Re-targets the simulator at any scalar type — the general form of
    /// [`AcceleratorSim::widen`], also used by the engine's backend core
    /// to rebuild the design at its lane type. All unit
    /// constants are derived from snapped `f64` probes through
    /// `T::from_f64`, so the cast is exact for every supported scalar.
    pub fn cast_to<T: Scalar>(&self) -> AcceleratorSim<T> {
        let mut cast = AcceleratorSim::<T>::with_design(&self.robot, self.design.clone());
        for (w, s) in cast.x_units.iter_mut().zip(&self.x_units) {
            w.set_accumulation(s.accumulation());
            w.set_backend(s.backend());
        }
        cast
    }

    /// Degrees of freedom.
    pub fn dof(&self) -> usize {
        self.parents.len()
    }

    #[inline]
    fn influences(&self, j: usize, i: usize) -> bool {
        self.ancestor_mask[i] & (1u64 << j) != 0
    }

    /// Runs one gradient computation through the accelerator: Algorithm 1
    /// with `q̈` and `M⁻¹` provided by the host (§5.1).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths or `minv` dimensions differ from the DoF.
    pub fn compute_gradient(&self, q: &[S], qd: &[S], qdd: &[S], minv: &MatN<S>) -> SimOutput<S> {
        let mut ws = SimWorkspace::for_sim(self);
        let cycles = self.compute_gradient_into(q, qd, qdd, minv, &mut ws);
        ws.into_output(cycles)
    }

    /// Like [`AcceleratorSim::compute_gradient`], but writing into a
    /// reusable [`SimWorkspace`] (zero heap allocations once the workspace
    /// is warm) and returning the cycle count. Results are bit-identical to
    /// the allocating path.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths or `minv` dimensions differ from the DoF.
    pub fn compute_gradient_into(
        &self,
        q: &[S],
        qd: &[S],
        qdd: &[S],
        minv: &MatN<S>,
        ws: &mut SimWorkspace<S>,
    ) -> usize {
        let n = self.dof();
        assert_eq!(q.len(), n, "q length mismatch");
        assert_eq!(qd.len(), n, "qd length mismatch");
        assert_eq!(qdd.len(), n, "qdd length mismatch");
        assert_eq!((minv.rows(), minv.cols()), (n, n), "minv shape mismatch");

        let SimWorkspace {
            dtau_dq,
            dtau_dqd,
            dqdd_dq,
            dqdd_dqd,
            tau,
            trig,
            v,
            a,
            f,
            dv_q,
            da_q,
            df_q,
            dv_qd,
            da_qd,
            df_qd,
            ..
        } = ws;

        // Host-cached trig inputs (§5.1: "the sin and cos of the link
        // position q ... can also be cached from an earlier stage").
        trig.clear();
        trig.extend((0..n).map(|i| self.x_units[i].inputs_for(q[i])));

        // --- ID chain (runs one link ahead of the datapaths) -------------
        self.id_sweep(qd, qdd, trig, v, a, f, tau);

        // --- ∇ID datapaths -------------------------------------------------
        dtau_dq.resize_zeroed(n, n);
        dtau_dqd.resize_zeroed(n, n);
        dv_q.clear();
        dv_q.resize(n, Motion::zero());
        da_q.clear();
        da_q.resize(n, Motion::zero());
        df_q.clear();
        df_q.resize(n, Force::zero());
        dv_qd.clear();
        dv_qd.resize(n, Motion::zero());
        da_qd.clear();
        da_qd.resize(n, Motion::zero());
        df_qd.clear();
        df_qd.resize(n, Force::zero());

        for j in 0..n {
            for slot in 0..n {
                dv_q[slot] = Motion::zero();
                da_q[slot] = Motion::zero();
                df_q[slot] = Force::zero();
                dv_qd[slot] = Motion::zero();
                da_qd[slot] = Motion::zero();
                df_qd[slot] = Force::zero();
            }

            for i in 0..n {
                if !self.influences(j, i) {
                    continue;
                }
                let (s_q, c_q) = trig[i];
                let xu = &self.x_units[i];
                let s = self.subspaces[i];
                let s_qd = s.scale(qd[i]);
                let parent = self.parents[i];

                let (mut dv_q_i, mut dv_qd_i, mut da_q_i, mut da_qd_i) = match parent {
                    Some(p) if self.influences(j, p) => (
                        xu.apply_motion(s_q, c_q, dv_q[p]),
                        xu.apply_motion(s_q, c_q, dv_qd[p]),
                        xu.apply_motion(s_q, c_q, da_q[p]),
                        xu.apply_motion(s_q, c_q, da_qd[p]),
                    ),
                    _ => (
                        Motion::zero(),
                        Motion::zero(),
                        Motion::zero(),
                        Motion::zero(),
                    ),
                };

                if i == j {
                    let v_parent = match parent {
                        Some(p) => v[p],
                        None => Motion::zero(),
                    };
                    let a_parent = match parent {
                        Some(p) => a[p],
                        None => self.base_acceleration,
                    };
                    let xv = xu.apply_motion(s_q, c_q, v_parent);
                    let xa = xu.apply_motion(s_q, c_q, a_parent);
                    dv_q_i -= s.cross_motion(xv);
                    da_q_i -= s.cross_motion(xa);
                    dv_qd_i += s;
                    da_qd_i += v[i].cross_motion(s);
                }

                da_q_i += dv_q_i.cross_motion(s_qd);
                da_qd_i += dv_qd_i.cross_motion(s_qd);

                let inertia = &self.inertias[i];
                let iv = inertia.apply(v[i]);
                df_q[i] = inertia.apply(da_q_i)
                    + dv_q_i.cross_force(iv)
                    + v[i].cross_force(inertia.apply(dv_q_i));
                df_qd[i] = inertia.apply(da_qd_i)
                    + dv_qd_i.cross_force(iv)
                    + v[i].cross_force(inertia.apply(dv_qd_i));

                dv_q[i] = dv_q_i;
                dv_qd[i] = dv_qd_i;
                da_q[i] = da_q_i;
                da_qd[i] = da_qd_i;
            }

            for i in (0..n).rev() {
                dtau_dq[(i, j)] = self.subspaces[i].dot(df_q[i]);
                dtau_dqd[(i, j)] = self.subspaces[i].dot(df_qd[i]);
                if let Some(p) = self.parents[i] {
                    let (s_q, c_q) = trig[i];
                    let xu = &self.x_units[i];
                    let mut dfp_q = xu.tr_apply_force(s_q, c_q, df_q[i]);
                    if i == j {
                        let seed = self.subspaces[i].cross_force(f[i]);
                        dfp_q += xu.tr_apply_force(s_q, c_q, seed);
                    }
                    let dfp_qd = xu.tr_apply_force(s_q, c_q, df_qd[i]);
                    df_q[p] += dfp_q;
                    df_qd[p] += dfp_qd;
                }
            }
        }

        // --- Fused −M⁻¹ MAC stage (step 3, two cycles) ---------------------
        dqdd_dq.resize_zeroed(n, n);
        dqdd_dqd.resize_zeroed(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc_q = S::zero();
                let mut acc_qd = S::zero();
                for k in 0..n {
                    acc_q += minv[(i, k)] * dtau_dq[(k, j)];
                    acc_qd += minv[(i, k)] * dtau_dqd[(k, j)];
                }
                dqdd_dq[(i, j)] = -acc_q;
                dqdd_dqd[(i, j)] = -acc_qd;
            }
        }

        self.design.schedule().single_latency_cycles()
    }

    /// The inverse-dynamics chain (RNEA) through the pruned functional
    /// units: forward sweep for link velocities/accelerations/forces, then
    /// the backward `Xᵀ` accumulation, extracting `τ_i = sᵢ·fᵢ` as each
    /// link's force becomes final. This is the stage every kernel in the
    /// multifunction family shares.
    #[allow(clippy::too_many_arguments)]
    fn id_sweep(
        &self,
        qd: &[S],
        qdd: &[S],
        trig: &[(S, S)],
        v: &mut Vec<Motion<S>>,
        a: &mut Vec<Motion<S>>,
        f: &mut Vec<Force<S>>,
        tau: &mut Vec<S>,
    ) {
        let n = self.dof();
        v.clear();
        v.resize(n, Motion::zero());
        a.clear();
        a.resize(n, Motion::zero());
        f.clear();
        f.resize(n, Force::zero());
        tau.clear();
        tau.resize(n, S::zero());
        for i in 0..n {
            let (s_q, c_q) = trig[i];
            let xu = &self.x_units[i];
            let s = self.subspaces[i];
            let s_qd = s.scale(qd[i]);
            let (vp, ap) = match self.parents[i] {
                Some(p) => (
                    xu.apply_motion(s_q, c_q, v[p]),
                    xu.apply_motion(s_q, c_q, a[p]),
                ),
                None => (
                    Motion::zero(),
                    xu.apply_motion(s_q, c_q, self.base_acceleration),
                ),
            };
            v[i] = vp + s_qd;
            a[i] = ap + s.scale(qdd[i]) + v[i].cross_motion(s_qd);
            f[i] = self.inertias[i].apply(a[i]) + v[i].cross_force(self.inertias[i].apply(v[i]));
        }
        // Reverse order makes `f[i]` final when link `i` is reached (every
        // child has a larger index), so the torque extraction can fuse into
        // the accumulation pass exactly as the hardware's backward stage
        // does.
        for i in (0..n).rev() {
            tau[i] = self.subspaces[i].dot(f[i]);
            if let Some(p) = self.parents[i] {
                let (s_q, c_q) = trig[i];
                let fp = self.x_units[i].tr_apply_force(s_q, c_q, f[i]);
                f[p] += fp;
            }
        }
    }

    /// Cycles for one inverse-dynamics pass through the chain: every link
    /// of the longest limb through the forward and backward stages, plus
    /// torso synchronization. (The full-gradient latency additionally pays
    /// the `2N` datapaths and the `−M⁻¹` stage.)
    fn id_chain_cycles(&self) -> usize {
        let s = self.design.schedule();
        s.n_links * (s.fwd_stage_cycles + s.bwd_cycles_per_link) + s.limb_sync_cycles
    }

    /// Runs the inverse-dynamics kernel (RNEA) on the accelerator:
    /// `τ = ID(q, q̇, q̈)` through the same pruned functional units the
    /// gradient uses, leaving the torques in `ws.tau` and returning the
    /// cycle count.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from the DoF.
    pub fn compute_rnea_into(
        &self,
        q: &[S],
        qd: &[S],
        qdd: &[S],
        ws: &mut SimWorkspace<S>,
    ) -> usize {
        let n = self.dof();
        assert_eq!(q.len(), n, "q length mismatch");
        assert_eq!(qd.len(), n, "qd length mismatch");
        assert_eq!(qdd.len(), n, "qdd length mismatch");
        let SimWorkspace {
            tau, trig, v, a, f, ..
        } = ws;
        trig.clear();
        trig.extend((0..n).map(|i| self.x_units[i].inputs_for(q[i])));
        self.id_sweep(qd, qdd, trig, v, a, f, tau);
        self.id_chain_cycles()
    }

    /// Runs the forward-dynamics kernel on the accelerator via the fused
    /// `M⁻¹` composition the family's datapath implements:
    /// `q̈ = M⁻¹(τ − C)` with the bias `C = ID(q, q̇, 0)` from the shared
    /// chain at zero acceleration, and `M⁻¹` provided by the host exactly
    /// as in the gradient's step 3 (§5.1). Leaves the accelerations in
    /// `ws.qdd` (and the bias torques in `ws.tau`) and returns the cycle
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths or `minv` dimensions differ from the DoF.
    pub fn compute_fd_into(
        &self,
        q: &[S],
        qd: &[S],
        tau: &[S],
        minv: &MatN<S>,
        ws: &mut SimWorkspace<S>,
    ) -> usize {
        let n = self.dof();
        assert_eq!(q.len(), n, "q length mismatch");
        assert_eq!(qd.len(), n, "qd length mismatch");
        assert_eq!(tau.len(), n, "tau length mismatch");
        assert_eq!((minv.rows(), minv.cols()), (n, n), "minv shape mismatch");
        let SimWorkspace {
            tau: bias,
            qdd,
            trig,
            v,
            a,
            f,
            zero_qdd,
            ..
        } = ws;
        trig.clear();
        trig.extend((0..n).map(|i| self.x_units[i].inputs_for(q[i])));
        zero_qdd.clear();
        zero_qdd.resize(n, S::zero());
        self.id_sweep(qd, zero_qdd, trig, v, a, f, bias);
        // The MAC stage: q̈_i = Σ_k M⁻¹_ik (τ_k − c_k).
        qdd.clear();
        qdd.resize(n, S::zero());
        for i in 0..n {
            let mut acc = S::zero();
            for k in 0..n {
                acc += minv[(i, k)] * (tau[k] - bias[k]);
            }
            qdd[i] = acc;
        }
        let s = self.design.schedule();
        self.id_chain_cycles() + s.minv_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robo_dynamics::{
        dynamics_gradient_from_qdd, forward_dynamics, mass_matrix_inverse, DynamicsModel,
    };
    use robo_fixed::Fix32_16;
    use robo_model::robots;

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    #[allow(clippy::type_complexity)]
    fn reference_case(
        robot: &robo_model::RobotModel,
        seed: u64,
    ) -> (
        Vec<f64>,
        Vec<f64>,
        Vec<f64>,
        MatN<f64>,
        robo_dynamics::DynamicsGradient<f64>,
    ) {
        let model = DynamicsModel::<f64>::new(robot);
        let n = model.dof();
        let mut s = seed;
        let q: Vec<f64> = (0..n).map(|_| lcg(&mut s)).collect();
        let qd: Vec<f64> = (0..n).map(|_| lcg(&mut s)).collect();
        let tau: Vec<f64> = (0..n).map(|_| 2.0 * lcg(&mut s)).collect();
        let qdd = forward_dynamics(&model, &q, &qd, &tau).unwrap();
        let minv = mass_matrix_inverse(&model, &q).unwrap();
        let grad = dynamics_gradient_from_qdd(&model, &q, &qd, &qdd, &minv);
        (q, qd, qdd, minv, grad)
    }

    #[test]
    fn f64_simulation_matches_reference_exactly() {
        // In f64 the simulated netlist is algebraically identical to the
        // reference implementation.
        for robot in [robots::iiwa14(), robots::hyq(), robots::atlas()] {
            let (q, qd, qdd, minv, reference) = reference_case(&robot, 42);
            let sim = AcceleratorSim::<f64>::new(&robot);
            let out = sim.compute_gradient(&q, &qd, &qdd, &minv);
            assert!(
                out.dtau_dq.max_abs_diff(&reference.id_gradient.dtau_dq) < 1e-10,
                "{}: ∂τ/∂q mismatch",
                robot.name()
            );
            assert!(out.dtau_dqd.max_abs_diff(&reference.id_gradient.dtau_dqd) < 1e-10);
            assert!(out.dqdd_dq.max_abs_diff(&reference.dqdd_dq) < 1e-9);
            assert!(out.dqdd_dqd.max_abs_diff(&reference.dqdd_dqd) < 1e-9);
        }
    }

    #[test]
    fn fixed_point_simulation_close_to_reference() {
        // Q16.16 arithmetic: errors bounded well below the levels that
        // affect optimization convergence (Figure 12's conclusion).
        let robot = robots::iiwa14();
        let (q, qd, qdd, minv, reference) = reference_case(&robot, 7);
        let sim = AcceleratorSim::<Fix32_16>::new(&robot);
        let to_fix =
            |v: &[f64]| -> Vec<Fix32_16> { v.iter().map(|x| Fix32_16::from_f64(*x)).collect() };
        let out = sim.compute_gradient(
            &to_fix(&q),
            &to_fix(&qd),
            &to_fix(&qdd),
            &minv.cast::<Fix32_16>(),
        );
        let scale = reference.dqdd_dq.max_abs().max(1.0);
        let err = out.dqdd_dq.cast::<f64>().max_abs_diff(&reference.dqdd_dq);
        assert!(
            err / scale < 5e-3,
            "relative fixed-point error {:.2e} too large",
            err / scale
        );
    }

    #[test]
    fn narrow_fixed_point_kernel_error_is_large() {
        // The precision floor: a 12-bit type that saturates on realistic
        // link forces produces gradients with order-of-magnitude errors,
        // while the paper's Q16.16 stays within a fraction of a percent.
        use robo_fixed::Fix8_4;
        let robot = robots::iiwa14();
        let (q, qd, qdd, minv, reference) = reference_case(&robot, 31);
        let scale = reference.dqdd_dq.max_abs().max(1.0);

        let to_s = |v: &[f64]| -> Vec<Fix8_4> { v.iter().map(|x| Fix8_4::from_f64(*x)).collect() };
        let narrow = AcceleratorSim::<Fix8_4>::new(&robot).compute_gradient(
            &to_s(&q),
            &to_s(&qd),
            &to_s(&qdd),
            &minv.cast::<Fix8_4>(),
        );
        let narrow_err = narrow
            .dqdd_dq
            .cast::<f64>()
            .max_abs_diff(&reference.dqdd_dq)
            / scale;

        let to_f =
            |v: &[f64]| -> Vec<Fix32_16> { v.iter().map(|x| Fix32_16::from_f64(*x)).collect() };
        let wide = AcceleratorSim::<Fix32_16>::new(&robot).compute_gradient(
            &to_f(&q),
            &to_f(&qd),
            &to_f(&qdd),
            &minv.cast::<Fix32_16>(),
        );
        let wide_err = wide.dqdd_dq.cast::<f64>().max_abs_diff(&reference.dqdd_dq) / scale;

        assert!(wide_err < 5e-3, "Q16.16 error {wide_err:.2e}");
        assert!(
            narrow_err > 20.0 * wide_err,
            "12-bit error {narrow_err:.2e} should dwarf Q16.16's {wide_err:.2e}"
        );
    }

    #[test]
    fn cycle_counts_by_robot() {
        // Latency grows O(N) in the longest limb, not total joints (§5.2).
        let iiwa = AcceleratorSim::<f64>::new(&robots::iiwa14());
        let hyq = AcceleratorSim::<f64>::new(&robots::hyq());
        let (q, qd, qdd, minv, _) = reference_case(&robots::iiwa14(), 3);
        let out = iiwa.compute_gradient(&q, &qd, &qdd, &minv);
        assert_eq!(out.cycles, 34);
        assert!(
            hyq.design().schedule().single_latency_cycles() < out.cycles,
            "quadruped has shorter limbs → fewer cycles"
        );
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        // The same workspace driven through several different states (and
        // even a different robot) must reproduce the allocating path bit
        // for bit — stale buffer contents may never leak into results.
        let mut ws = SimWorkspace::<f64>::new();
        for (robot, seed) in [
            (robots::iiwa14(), 1u64),
            (robots::hyq(), 2),
            (robots::iiwa14(), 3),
        ] {
            let (q, qd, qdd, minv, _) = reference_case(&robot, seed);
            let sim = AcceleratorSim::<f64>::new(&robot);
            let fresh = sim.compute_gradient(&q, &qd, &qdd, &minv);
            let cycles = sim.compute_gradient_into(&q, &qd, &qdd, &minv, &mut ws);
            assert_eq!(cycles, fresh.cycles);
            assert_eq!(ws.dtau_dq, fresh.dtau_dq, "{}", robot.name());
            assert_eq!(ws.dtau_dqd, fresh.dtau_dqd);
            assert_eq!(ws.dqdd_dq, fresh.dqdd_dq);
            assert_eq!(ws.dqdd_dqd, fresh.dqdd_dqd);
        }
    }

    #[test]
    fn widened_sim_lanes_match_scalar_bit_for_bit() {
        // The wide simulator must reproduce W independent scalar runs
        // exactly — the correctness contract of the SoA serving path.
        const W: usize = 4;
        let robot = robots::hyq();
        let sim = AcceleratorSim::<f64>::new(&robot);
        let wide = sim.widen::<W>();
        let n = sim.dof();
        let cases: Vec<_> = (0..W)
            .map(|k| reference_case(&robot, 100 + k as u64))
            .collect();

        let mut q_w = vec![Lanes::<f64, W>::splat(0.0); n];
        let mut qd_w = vec![Lanes::<f64, W>::splat(0.0); n];
        let mut qdd_w = vec![Lanes::<f64, W>::splat(0.0); n];
        let mut minv_w = MatN::<Lanes<f64, W>>::zeros(n, n);
        for (l, (q, qd, qdd, minv, _)) in cases.iter().enumerate() {
            for k in 0..n {
                q_w[k].set_lane(l, q[k]);
                qd_w[k].set_lane(l, qd[k]);
                qdd_w[k].set_lane(l, qdd[k]);
            }
            for r in 0..n {
                for c in 0..n {
                    minv_w[(r, c)].set_lane(l, minv[(r, c)]);
                }
            }
        }
        let out = wide.compute_gradient(&q_w, &qd_w, &qdd_w, &minv_w);
        for (l, (q, qd, qdd, minv, _)) in cases.iter().enumerate() {
            let scalar = sim.compute_gradient(q, qd, qdd, minv);
            assert_eq!(out.cycles, scalar.cycles);
            for r in 0..n {
                for c in 0..n {
                    assert_eq!(out.dtau_dq[(r, c)].lane(l), scalar.dtau_dq[(r, c)]);
                    assert_eq!(out.dtau_dqd[(r, c)].lane(l), scalar.dtau_dqd[(r, c)]);
                    assert_eq!(out.dqdd_dq[(r, c)].lane(l), scalar.dqdd_dq[(r, c)]);
                    assert_eq!(out.dqdd_dqd[(r, c)].lane(l), scalar.dqdd_dqd[(r, c)]);
                }
            }
        }
    }

    #[test]
    fn rnea_kernel_matches_reference() {
        for robot in [robots::iiwa14(), robots::hyq(), robots::atlas()] {
            let (q, qd, qdd, _, _) = reference_case(&robot, 11);
            let model = DynamicsModel::<f64>::new(&robot);
            let sim = AcceleratorSim::<f64>::new(&robot);
            let mut ws = SimWorkspace::for_sim(&sim);
            let cycles = sim.compute_rnea_into(&q, &qd, &qdd, &mut ws);
            // The ID chain alone is strictly cheaper than the full gradient.
            assert!(cycles > 0);
            assert!(cycles < sim.design().schedule().single_latency_cycles());
            let want = robo_dynamics::rnea(&model, &q, &qd, &qdd).tau;
            for i in 0..model.dof() {
                assert!(
                    (ws.tau[i] - want[i]).abs() < 1e-10,
                    "{} tau[{i}]: {} vs {}",
                    robot.name(),
                    ws.tau[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn fd_kernel_inverts_inverse_dynamics() {
        // Feed the accelerator's FD composition the torques that RNEA says
        // produce `qdd`; it must recover `qdd` — `M⁻¹(ID(q,q̇,q̈) − C) = q̈`
        // exactly in real arithmetic.
        for robot in [robots::iiwa14(), robots::hyq()] {
            let (q, qd, qdd, minv, _) = reference_case(&robot, 12);
            let model = DynamicsModel::<f64>::new(&robot);
            let tau = robo_dynamics::rnea(&model, &q, &qd, &qdd).tau;
            let sim = AcceleratorSim::<f64>::new(&robot);
            let mut ws = SimWorkspace::for_sim(&sim);
            let cycles = sim.compute_fd_into(&q, &qd, &tau, &minv, &mut ws);
            assert!(cycles < sim.design().schedule().single_latency_cycles());
            for i in 0..model.dof() {
                assert!(
                    (ws.qdd[i] - qdd[i]).abs() < 1e-8,
                    "{} qdd[{i}]: {} vs {}",
                    robot.name(),
                    ws.qdd[i],
                    qdd[i]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "minv shape mismatch")]
    fn wrong_minv_shape_panics() {
        let robot = robots::iiwa14();
        let sim = AcceleratorSim::<f64>::new(&robot);
        let z = vec![0.0; 7];
        let _ = sim.compute_gradient(&z, &z, &z, &MatN::identity(3));
    }
}
