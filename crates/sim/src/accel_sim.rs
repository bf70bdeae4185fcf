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
//! # Call plan
//!
//! A link's products go through its unit's banks together, as the
//! datapaths share one `X·` unit per link (§5.2): per link, the ID sweep
//! makes one forward-bank call (`v_λ`, `a_λ`) and one transposed-bank
//! call (`f`, and the ∂/∂q seed `S ×* f`); per column `j` and link `i`,
//! the ∇ID forward step makes one forward-bank call (∂v and ∂a, for ∂q
//! and ∂q̇) where `i` descends from `j` strictly — at `i == j` it reuses
//! the sweep's `X·v_λ` and `X·a_λ` — and the backward step one
//! transposed-bank call (`∂f` for ∂q and ∂q̇) per link with a parent. An
//! iiwa14 gradient makes 76 calls, a hyq gradient 128; `id` and `fd` make
//! the sweep's (13 on iiwa14). Every output is bit-identical to one
//! single-product call per product.
//!
//! [`CycleSchedule`]: robomorphic_core::CycleSchedule

use crate::xunit::{self, XUnit};
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
    swept: Vec<Swept<S>>,
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
            swept: Vec::new(),
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
            swept: vec![Swept::zero(); n],
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

/// What the ID sweep leaves per link for the ∇ID datapaths, so no column
/// computes it again.
#[derive(Debug, Clone, Copy)]
struct Swept<S> {
    /// `X·v_λ`; the root's is `X·0` (`−0` where an entry is negative),
    /// not the sweep's `0`.
    xv: Motion<S>,
    /// `X·a_λ`; the root's is `X·a_base`.
    xa: Motion<S>,
    /// `S·q̇`.
    sqd: Motion<S>,
    /// `I·v`.
    iv: Force<S>,
    /// `Xᵀ(S ×* f)`, the backward seed of column `i` (links with a
    /// parent, and only when the gradient asked for it).
    seed: Force<S>,
}

impl<S: Scalar> Swept<S> {
    fn zero() -> Self {
        Self {
            xv: Motion::zero(),
            xa: Motion::zero(),
            sqd: Motion::zero(),
            iv: Force::zero(),
            seed: Force::zero(),
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
    /// banks; `None` when any of them runs the interpreter. The units
    /// share one code mapping (`mappings` reads 1).
    pub fn jit_report(&self) -> Option<robo_codegen::JitReport> {
        self.x_units.iter().map(crate::XUnit::jit_report).sum()
    }

    /// Builds a simulator for an explicit customized design.
    ///
    /// # Panics
    ///
    /// Panics if the robot has more than 64 links.
    pub fn with_design(robot: &RobotModel, design: Accelerator) -> Self {
        assert!(
            robot.dof() <= 64,
            "robots with more than 64 links are not supported"
        );
        let mask = superposition_pattern(robot);
        let x_units = xunit::build_units(robot, (0..robot.dof()).map(|i| (i, mask)));
        Self::assemble(robot, design, x_units)
    }

    /// The simulator for `robot` around already-built functional units.
    fn assemble(robot: &RobotModel, design: Accelerator, x_units: Vec<XUnit<S>>) -> Self {
        let n = robot.dof();
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
            x_units,
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
    /// SoA serving path (see [`AcceleratorSim::cast_to`]). All unit
    /// constants are derived from snapped `f64` values through
    /// `S::from_f64` — a lane splat on `Lanes` — so one wide run is
    /// bit-identical, lane for lane, to `W` scalar runs through `self`.
    pub fn widen<const W: usize>(&self) -> AcceleratorSim<Lanes<S, W>> {
        self.cast_to::<Lanes<S, W>>()
    }

    /// Re-targets the simulator at any scalar type — the general form of
    /// [`AcceleratorSim::widen`], also used by the engine's backend core
    /// to carry the design to its lane type. Every functional unit is cast
    /// ([`XUnit::cast`]), not regenerated: its banks are re-emitted at `T`
    /// (all of them into one code mapping, as at build) and its constants
    /// converted from snapped `f64` values through `T::from_f64`, so the
    /// cast is exact for every supported scalar, and each unit keeps its
    /// accumulation mode and evaluator.
    pub fn cast_to<T: Scalar>(&self) -> AcceleratorSim<T> {
        let x_units = xunit::cast_units(&self.robot, self.x_units.iter().enumerate());
        AcceleratorSim::<T>::assemble(&self.robot, self.design.clone(), x_units)
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
            swept,
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
        self.id_sweep(qd, qdd, trig, v, a, f, tau, Some(swept));

        // --- ∇ID datapaths -------------------------------------------------
        // Every column writes the `dv`/`da` of the links it influences
        // before it reads them, and reads no other link's; only `df` is
        // read on every link.
        dtau_dq.resize_zeroed(n, n);
        dtau_dqd.resize_zeroed(n, n);
        dv_q.resize(n, Motion::zero());
        da_q.resize(n, Motion::zero());
        df_q.resize(n, Force::zero());
        dv_qd.resize(n, Motion::zero());
        da_qd.resize(n, Motion::zero());
        df_qd.resize(n, Force::zero());

        for j in 0..n {
            for i in 0..n {
                if !self.influences(j, i) {
                    df_q[i] = Force::zero();
                    df_qd[i] = Force::zero();
                    continue;
                }
                let s = self.subspaces[i];
                let link = &swept[i];
                let zero = Motion::zero();
                let (mut dv_q_i, mut dv_qd_i, mut da_q_i, mut da_qd_i) = match self.parents[i] {
                    // `j`'s parent is the one parent outside column `j`.
                    Some(p) if i != j => {
                        let (s_q, c_q) = trig[i];
                        let [dv, dvd, da, dad] = self.x_units[i].apply_motion4(
                            s_q,
                            c_q,
                            [dv_q[p], dv_qd[p], da_q[p], da_qd[p]],
                        );
                        (dv, dvd, da, dad)
                    }
                    _ => (zero, zero, zero, zero),
                };

                if i == j {
                    dv_q_i -= s.cross_motion(link.xv);
                    da_q_i -= s.cross_motion(link.xa);
                    dv_qd_i += s;
                    da_qd_i += v[i].cross_motion(s);
                }

                da_q_i += dv_q_i.cross_motion(link.sqd);
                da_qd_i += dv_qd_i.cross_motion(link.sqd);

                let inertia = &self.inertias[i];
                df_q[i] = inertia.apply(da_q_i)
                    + dv_q_i.cross_force(link.iv)
                    + v[i].cross_force(inertia.apply(dv_q_i));
                df_qd[i] = inertia.apply(da_qd_i)
                    + dv_qd_i.cross_force(link.iv)
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
                    let [mut dfp_q, dfp_qd] =
                        self.x_units[i].tr_apply_force2(s_q, c_q, [df_q[i], df_qd[i]]);
                    if i == j {
                        dfp_q += swept[i].seed;
                    }
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
    ///
    /// Each link makes one forward-bank call and, below the root, one
    /// transposed-bank call. For the gradient, `swept` keeps the products
    /// its datapaths reuse, and the transposed call also carries the
    /// column seed `Xᵀ(S ×* f)`; for `id` and `fd` that slot takes `+0`.
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
        mut swept: Option<&mut Vec<Swept<S>>>,
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
        if let Some(swept) = swept.as_deref_mut() {
            // Every entry the datapaths read is written below.
            swept.resize(n, Swept::zero());
        }
        let zero = Motion::zero();
        for i in 0..n {
            let (s_q, c_q) = trig[i];
            let s = self.subspaces[i];
            let sqd = s.scale(qd[i]);
            let (v_p, a_p) = match self.parents[i] {
                Some(p) => (v[p], a[p]),
                None => (zero, self.base_acceleration),
            };
            let [xv, xa, _, _] = self.x_units[i].apply_motion4(s_q, c_q, [v_p, a_p, zero, zero]);
            // The root's `v_λ` is 0 itself, not `X·0`.
            let vp = if self.parents[i].is_some() { xv } else { zero };
            v[i] = vp + sqd;
            a[i] = xa + s.scale(qdd[i]) + v[i].cross_motion(sqd);
            let inertia = &self.inertias[i];
            let iv = inertia.apply(v[i]);
            f[i] = inertia.apply(a[i]) + v[i].cross_force(iv);
            if let Some(swept) = swept.as_deref_mut() {
                let link = &mut swept[i];
                (link.xv, link.xa, link.sqd, link.iv) = (xv, xa, sqd, iv);
            }
        }
        // Reverse order makes `f[i]` final when link `i` is reached (every
        // child has a larger index), so the torque extraction can fuse into
        // the accumulation pass exactly as the hardware's backward stage
        // does.
        for i in (0..n).rev() {
            tau[i] = self.subspaces[i].dot(f[i]);
            if let Some(p) = self.parents[i] {
                let (s_q, c_q) = trig[i];
                let seed = match swept {
                    Some(_) => self.subspaces[i].cross_force(f[i]),
                    None => Force::zero(),
                };
                let [fp, seed] = self.x_units[i].tr_apply_force2(s_q, c_q, [f[i], seed]);
                if let Some(swept) = swept.as_deref_mut() {
                    swept[i].seed = seed;
                }
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
        self.id_sweep(qd, qdd, trig, v, a, f, tau, None);
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
        self.id_sweep(qd, zero_qdd, trig, v, a, f, bias, None);
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

    /// The gradient, RNEA and FD of `sim` as the simulator computed them
    /// before its units were banked: one unit call per product, every
    /// column recomputing the sweep's products. The oracle the banked
    /// call plan must match bit for bit.
    struct PerProduct<'a, S: Scalar>(&'a AcceleratorSim<S>);

    impl<S: Scalar> PerProduct<'_, S> {
        fn trig(&self, q: &[S]) -> Vec<(S, S)> {
            (0..q.len())
                .map(|i| self.0.x_units[i].inputs_for(q[i]))
                .collect()
        }

        /// `(v, a, f, τ)` of the ID chain.
        #[allow(clippy::type_complexity)]
        fn sweep(
            &self,
            q: &[S],
            qd: &[S],
            qdd: &[S],
        ) -> (Vec<Motion<S>>, Vec<Motion<S>>, Vec<Force<S>>, Vec<S>) {
            let sim = self.0;
            let n = sim.dof();
            let trig = self.trig(q);
            let (mut v, mut a) = (vec![Motion::zero(); n], vec![Motion::zero(); n]);
            let (mut f, mut tau) = (vec![Force::zero(); n], vec![S::zero(); n]);
            for i in 0..n {
                let (s_q, c_q) = trig[i];
                let xu = &sim.x_units[i];
                let s = sim.subspaces[i];
                let s_qd = s.scale(qd[i]);
                let (vp, ap) = match sim.parents[i] {
                    Some(p) => (
                        xu.apply_motion(s_q, c_q, v[p]),
                        xu.apply_motion(s_q, c_q, a[p]),
                    ),
                    None => (
                        Motion::zero(),
                        xu.apply_motion(s_q, c_q, sim.base_acceleration),
                    ),
                };
                v[i] = vp + s_qd;
                a[i] = ap + s.scale(qdd[i]) + v[i].cross_motion(s_qd);
                f[i] = sim.inertias[i].apply(a[i]) + v[i].cross_force(sim.inertias[i].apply(v[i]));
            }
            for i in (0..n).rev() {
                tau[i] = sim.subspaces[i].dot(f[i]);
                if let Some(p) = sim.parents[i] {
                    let (s_q, c_q) = trig[i];
                    let fp = sim.x_units[i].tr_apply_force(s_q, c_q, f[i]);
                    f[p] += fp;
                }
            }
            (v, a, f, tau)
        }

        fn fd(&self, q: &[S], qd: &[S], tau: &[S], minv: &MatN<S>) -> Vec<S> {
            let n = self.0.dof();
            let (_, _, _, bias) = self.sweep(q, qd, &vec![S::zero(); n]);
            (0..n)
                .map(|i| {
                    let mut acc = S::zero();
                    for k in 0..n {
                        acc += minv[(i, k)] * (tau[k] - bias[k]);
                    }
                    acc
                })
                .collect()
        }

        /// `[∂τ/∂q, ∂τ/∂q̇, ∂q̈/∂q, ∂q̈/∂q̇]`.
        fn grad(&self, q: &[S], qd: &[S], qdd: &[S], minv: &MatN<S>) -> [MatN<S>; 4] {
            let sim = self.0;
            let n = sim.dof();
            let trig = self.trig(q);
            let (v, a, f, _) = self.sweep(q, qd, qdd);
            let mut dtau_dq = MatN::zeros(n, n);
            let mut dtau_dqd = MatN::zeros(n, n);
            for j in 0..n {
                let mut dv_q = vec![Motion::zero(); n];
                let mut da_q = vec![Motion::zero(); n];
                let mut df_q = vec![Force::zero(); n];
                let mut dv_qd = vec![Motion::zero(); n];
                let mut da_qd = vec![Motion::zero(); n];
                let mut df_qd = vec![Force::zero(); n];
                for i in 0..n {
                    if !sim.influences(j, i) {
                        continue;
                    }
                    let (s_q, c_q) = trig[i];
                    let xu = &sim.x_units[i];
                    let s = sim.subspaces[i];
                    let s_qd = s.scale(qd[i]);
                    let parent = sim.parents[i];
                    let (mut dv_q_i, mut dv_qd_i, mut da_q_i, mut da_qd_i) = match parent {
                        Some(p) if sim.influences(j, p) => (
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
                        let v_parent = parent.map_or(Motion::zero(), |p| v[p]);
                        let a_parent = parent.map_or(sim.base_acceleration, |p| a[p]);
                        let xv = xu.apply_motion(s_q, c_q, v_parent);
                        let xa = xu.apply_motion(s_q, c_q, a_parent);
                        dv_q_i -= s.cross_motion(xv);
                        da_q_i -= s.cross_motion(xa);
                        dv_qd_i += s;
                        da_qd_i += v[i].cross_motion(s);
                    }
                    da_q_i += dv_q_i.cross_motion(s_qd);
                    da_qd_i += dv_qd_i.cross_motion(s_qd);
                    let inertia = &sim.inertias[i];
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
                    dtau_dq[(i, j)] = sim.subspaces[i].dot(df_q[i]);
                    dtau_dqd[(i, j)] = sim.subspaces[i].dot(df_qd[i]);
                    if let Some(p) = sim.parents[i] {
                        let (s_q, c_q) = trig[i];
                        let xu = &sim.x_units[i];
                        let mut dfp_q = xu.tr_apply_force(s_q, c_q, df_q[i]);
                        if i == j {
                            let seed = sim.subspaces[i].cross_force(f[i]);
                            dfp_q += xu.tr_apply_force(s_q, c_q, seed);
                        }
                        let dfp_qd = xu.tr_apply_force(s_q, c_q, df_qd[i]);
                        df_q[p] += dfp_q;
                        df_qd[p] += dfp_qd;
                    }
                }
            }
            let mut dqdd_dq = MatN::zeros(n, n);
            let mut dqdd_dqd = MatN::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    let (mut acc_q, mut acc_qd) = (S::zero(), S::zero());
                    for k in 0..n {
                        acc_q += minv[(i, k)] * dtau_dq[(k, j)];
                        acc_qd += minv[(i, k)] * dtau_dqd[(k, j)];
                    }
                    dqdd_dq[(i, j)] = -acc_q;
                    dqdd_dqd[(i, j)] = -acc_qd;
                }
            }
            [dtau_dq, dtau_dqd, dqdd_dq, dqdd_dqd]
        }
    }

    /// Random kernel inputs for `sim` drawn from `draw`, which mixes ±0
    /// into ordinary magnitudes.
    fn banked_matches_per_product<S: Scalar>(
        sim: &AcceleratorSim<S>,
        draw: &mut dyn FnMut() -> S,
        bits: &dyn Fn(S) -> Vec<u64>,
    ) {
        let n = sim.dof();
        let name = sim.robot().name().to_owned();
        let mut ws = SimWorkspace::for_sim(sim);
        let oracle = PerProduct(sim);
        let same = |got: &[S], want: &[S], what: &str| {
            for (k, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(bits(*g), bits(*w), "{name} {what}[{k}]");
            }
        };
        for _ in 0..4 {
            let vec_of = |draw: &mut dyn FnMut() -> S| (0..n).map(|_| draw()).collect::<Vec<S>>();
            let (q, qd, third) = (vec_of(draw), vec_of(draw), vec_of(draw));
            let mut minv = MatN::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    minv[(r, c)] = draw();
                }
            }
            sim.compute_gradient_into(&q, &qd, &third, &minv, &mut ws);
            let want = oracle.grad(&q, &qd, &third, &minv);
            let got = [&ws.dtau_dq, &ws.dtau_dqd, &ws.dqdd_dq, &ws.dqdd_dqd];
            for (what, (g, w)) in ["dtau_dq", "dtau_dqd", "dqdd_dq", "dqdd_dqd"]
                .iter()
                .zip(got.iter().zip(&want))
            {
                same(g.as_slice(), w.as_slice(), what);
            }
            sim.compute_rnea_into(&q, &qd, &third, &mut ws);
            same(&ws.tau, &oracle.sweep(&q, &qd, &third).3, "tau");
            sim.compute_fd_into(&q, &qd, &third, &minv, &mut ws);
            same(&ws.qdd, &oracle.fd(&q, &qd, &third, &minv), "qdd");
        }
    }

    #[test]
    fn call_plan_makes_one_bank_call_per_link_and_step() {
        use crate::xunit::BANK_CALLS;
        let calls = |run: &mut dyn FnMut()| {
            BANK_CALLS.with(|c| c.set(0));
            run();
            BANK_CALLS.with(core::cell::Cell::get)
        };
        // (robot, gradient calls, ID-sweep calls): the sweep makes one
        // forward call per link and one transposed call per link with a
        // parent; see the module docs for the ∇ID datapaths'.
        for (robot, grad, sweep) in [(robots::iiwa14(), 76, 13), (robots::hyq(), 128, 20)] {
            let (q, qd, qdd, minv, _) = reference_case(&robot, 7);
            let sim = AcceleratorSim::<f64>::new(&robot);
            let mut ws = SimWorkspace::for_sim(&sim);
            let name = robot.name();
            let got = calls(&mut || {
                sim.compute_gradient_into(&q, &qd, &qdd, &minv, &mut ws);
            });
            assert_eq!(got, grad, "{name} gradient");
            let got = calls(&mut || {
                sim.compute_rnea_into(&q, &qd, &qdd, &mut ws);
            });
            assert_eq!(got, sweep, "{name} rnea");
            let got = calls(&mut || {
                sim.compute_fd_into(&q, &qd, &qdd, &minv, &mut ws);
            });
            assert_eq!(got, sweep, "{name} fd");
        }
    }

    #[test]
    fn banked_call_plan_is_bit_identical_to_one_call_per_product() {
        use robo_spatial::Lanes;
        const PICKS: [f64; 6] = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0];
        for robot in [robots::iiwa14(), robots::hyq(), robots::atlas()] {
            let mut seed = 0x0bad_5eed;
            let mut x = move || {
                let u = lcg(&mut seed);
                let pick = ((u + 1.0) * 4.0) as usize;
                PICKS.get(pick).copied().unwrap_or(1.5 * lcg(&mut seed))
            };
            let sim = AcceleratorSim::<f64>::new(&robot);
            banked_matches_per_product(&sim, &mut || x(), &|v| vec![v.to_bits()]);
            let wide = sim.widen::<4>();
            banked_matches_per_product(&wide, &mut || Lanes::from_fn(|_| x()), &|v| {
                v.lanes().map(f64::to_bits).to_vec()
            });
            let fixed = AcceleratorSim::<Fix32_16>::new(&robot);
            banked_matches_per_product(&fixed, &mut || Fix32_16::from_f64(x()), &|v| {
                vec![v.raw() as u64]
            });
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
