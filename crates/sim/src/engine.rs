//! The sim-side half of the engine layer: the accelerator backend and the
//! per-robot [`RobotPlan`].
//!
//! `robo-dynamics::engine` defines the [`DynamicsBackend`] seam, the
//! [`BackendCore`] every analytic backend shares, and the host-side
//! backends; this module adds the piece only the simulator crate can
//! provide — the [`Datapath`] of the morphology-customized
//! [`AcceleratorSim`] (compiled netlists, pruned multiplier trees, static
//! cycle schedule) and the [`AcceleratorBackend`] over it — and ties
//! everything together in [`RobotPlan`]: *customize once per robot, hand
//! out backends many times* (the paper's §4–5 methodology as a software
//! object).

use crate::{AcceleratorSim, KernelInput, SimOutput, SimWorkspace};
use robo_codegen::JitReport;
use robo_dynamics::batch::GradientState;
use robo_dynamics::engine::{
    BackendCore, BatchOutput, CpuAnalytic, Datapath, DynamicsBackend, EngineError, FiniteDiff,
    KernelKind,
};
use robo_dynamics::{DynamicsModel, MorphologyKey};
use robo_model::RobotModel;
use robo_sparsity::{superposition_pattern, Mask6};
use robo_spatial::{ExecTier, MatN, Scalar};
use robomorphic_core::Accelerator;
use std::sync::Arc;

/// The simulated accelerator as a [`Datapath`]: RNEA, the fused
/// `M⁻¹(τ − C)` forward dynamics, and the gradient, all through the
/// pruned X-units.
impl<S: Scalar> Datapath for AcceleratorSim<S> {
    type Scalar = S;
    type At<T: Scalar> = AcceleratorSim<T>;
    type Workspace = SimWorkspace<S>;

    const BATCH_SPANS: [&'static str; 3] =
        ["kernel.accel.id", "kernel.accel.fd", "grad.accel.batch"];
    const LANE_SPAN: &'static str = "accel.wide";

    fn dof(&self) -> usize {
        AcceleratorSim::dof(self)
    }

    fn cast_to<T: Scalar>(&self) -> AcceleratorSim<T> {
        AcceleratorSim::cast_to(self)
    }

    fn workspace(&self) -> SimWorkspace<S> {
        SimWorkspace::for_sim(self)
    }

    fn eval(
        &self,
        kernel: KernelKind,
        q: &[S],
        qd: &[S],
        third: &[S],
        minv: &MatN<S>,
        ws: &mut SimWorkspace<S>,
    ) {
        let _cycles = match kernel {
            KernelKind::InverseDynamics => self.compute_rnea_into(q, qd, third, ws),
            KernelKind::ForwardDynamics => self.compute_fd_into(q, qd, third, minv, ws),
            KernelKind::Gradient => self.compute_gradient_into(q, qd, third, minv, ws),
        };
    }

    fn tau(ws: &SimWorkspace<S>) -> &[S] {
        &ws.tau
    }

    fn qdd(ws: &SimWorkspace<S>) -> &[S] {
        &ws.qdd
    }

    fn grad(ws: &SimWorkspace<S>) -> [&MatN<S>; 4] {
        [&ws.dqdd_dq, &ws.dqdd_dqd, &ws.dtau_dq, &ws.dtau_dqd]
    }
}

/// A [`DynamicsBackend`] executing on the simulated morphology-customized
/// accelerator, in the accelerator's scalar type `S` (`f64` for parity
/// studies, `Fix32_16` for the paper's Q16.16 datapath).
///
/// A thin wrapper over [`BackendCore`]. The simulator — holding the
/// customized design and every link unit's compiled netlist — is
/// `Arc`-shared, and so is its widened copy: [`DynamicsBackend::fork`]
/// gives each batch worker private warm [`SimWorkspace`]s over the *same*
/// netlists, exactly as parallel host threads would share one
/// memory-mapped accelerator (§6.3). The trait boundary is `f64`; inputs
/// are marshalled to `S` and outputs back, mirroring the coprocessor's
/// I/O conversion (§6.2).
#[derive(Debug)]
pub struct AcceleratorBackend<S: Scalar> {
    core: BackendCore<AcceleratorSim<S>>,
}

impl<S: Scalar> Clone for AcceleratorBackend<S> {
    /// A fork: the same shared simulators (scalar and wide), fresh warm
    /// workspaces.
    fn clone(&self) -> Self {
        Self {
            core: self.core.fork(),
        }
    }
}

impl<S: Scalar> AcceleratorBackend<S> {
    /// Customizes the paper-default template for `robot` and builds the
    /// backend over its simulator.
    ///
    /// # Panics
    ///
    /// Panics if the robot has more than 64 links.
    pub fn new(robot: &RobotModel) -> Self {
        Self::from_sim(AcceleratorSim::new(robot))
    }

    /// Wraps an explicitly configured simulator (custom design,
    /// accumulation mode, or evaluator backend).
    pub fn from_sim(sim: AcceleratorSim<S>) -> Self {
        Self::from_shared(Arc::new(sim))
    }

    /// Builds the backend over an already-shared simulator — the plan-once
    /// path: every fork and every consumer reuses the same compiled
    /// netlists. Widens the simulator once, to
    /// `Lanes<S, SERVE_LANES>`; forks share the result.
    pub fn from_shared(sim: Arc<AcceleratorSim<S>>) -> Self {
        Self {
            core: BackendCore::new(sim),
        }
    }

    /// The shared simulator.
    pub fn sim(&self) -> &Arc<AcceleratorSim<S>> {
        self.core.datapath()
    }

    /// Cycles one gradient takes on the design's static schedule
    /// (constant per design — Figure 10's latency measurement).
    pub fn cycles_per_gradient(&self) -> usize {
        self.sim().design().schedule().single_latency_cycles()
    }

    /// Runs a native-`S` gradient batch — the entry point for consumers
    /// that already hold accelerator-typed data (the coprocessor stream).
    /// It takes the same lane path as every `f64` batch: each supported
    /// scalar widens to `f64` exactly and narrows back bit-identically,
    /// so every output equals a direct scalar-simulator run on the same
    /// state. Outputs are appended in input order.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DimensionMismatch`] (before any output is
    /// appended) when any input's dimensions disagree with the plan's
    /// joint count.
    pub fn compute_batch(
        &mut self,
        inputs: &[KernelInput<S>],
        outputs: &mut Vec<SimOutput<S>>,
    ) -> Result<(), EngineError> {
        let widen = |v: &[S]| v.iter().map(|x| x.to_f64()).collect::<Vec<f64>>();
        let host: Vec<_> = inputs
            .iter()
            .map(|i| {
                (
                    widen(&i.q),
                    widen(&i.qd),
                    widen(&i.qdd),
                    i.minv.cast::<f64>(),
                )
            })
            .collect();
        let states: Vec<GradientState<'_, f64>> = host
            .iter()
            .map(|(q, qd, qdd, minv)| GradientState { q, qd, qdd, minv })
            .collect();
        let mut batch = BatchOutput::new();
        self.core
            .run_batch_into(KernelKind::Gradient, &states, &mut batch)?;
        let n = self.core.dof();
        let narrow = |flat: &[f64]| {
            let data: Vec<S> = flat.iter().map(|x| S::from_f64(*x)).collect();
            MatN::from_row_major(n, n, &data)
        };
        let cycles = self.cycles_per_gradient();
        outputs.extend((0..inputs.len()).map(|i| SimOutput {
            dtau_dq: narrow(batch.dtau_dq_at(i)),
            dtau_dqd: narrow(batch.dtau_dqd_at(i)),
            dqdd_dq: narrow(batch.dqdd_dq_at(i)),
            dqdd_dqd: narrow(batch.dqdd_dqd_at(i)),
            cycles,
        }));
        Ok(())
    }
}

impl<S: Scalar> DynamicsBackend for AcceleratorBackend<S> {
    fn name(&self) -> &'static str {
        "accel"
    }

    fn dof(&self) -> usize {
        self.core.dof()
    }

    fn fork(&self) -> Box<dyn DynamicsBackend + '_> {
        Box::new(self.clone())
    }

    fn serve_width(&self) -> usize {
        self.core.serve_width()
    }

    fn run_batch_into(
        &mut self,
        kernel: KernelKind,
        states: &[GradientState<'_, f64>],
        out: &mut BatchOutput,
    ) -> Result<(), EngineError> {
        self.core.run_batch_into(kernel, states, out)
    }
}

/// Which [`DynamicsBackend`] a consumer wants — the CLI's `--backend`
/// vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// [`CpuAnalytic`]: the host's analytical workspace kernels.
    #[default]
    Cpu,
    /// [`AcceleratorBackend`]: the simulated customized accelerator.
    Accel,
    /// [`FiniteDiff`]: the finite-difference oracle.
    FiniteDiff,
}

impl BackendKind {
    /// All kinds, in the CLI's listing order.
    pub const ALL: [Self; 3] = [Self::Cpu, Self::Accel, Self::FiniteDiff];

    /// The CLI spelling (`cpu`, `accel`, `fd`).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Cpu => "cpu",
            Self::Accel => "accel",
            Self::FiniteDiff => "fd",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cpu" => Ok(Self::Cpu),
            "accel" => Ok(Self::Accel),
            "fd" => Ok(Self::FiniteDiff),
            other => Err(format!(
                "unknown backend `{other}` (expected cpu, accel, or fd)"
            )),
        }
    }
}

/// Everything derived from one robot morphology, built once and executed
/// many times — the software mirror of the paper's design flow (Figure 5):
/// parameterize the template per robot, then reuse the resulting datapath
/// for every control iteration.
///
/// The plan holds the dynamics model, the morphology-derived superposition
/// sparsity mask, the customized accelerator design with its optimized,
/// compiled per-link netlists, and hands out [`DynamicsBackend`]s whose
/// warm workspaces execute over those `Arc`-shared artifacts. Cloning the
/// plan, forking a backend, or spreading work across [`BatchEngine`]
/// threads never re-derives any of it.
///
/// [`BatchEngine`]: robo_dynamics::batch::BatchEngine
///
/// # Examples
///
/// ```
/// use robo_model::robots;
/// use robo_sim::engine::{BackendKind, RobotPlan};
///
/// let plan = RobotPlan::new(&robots::iiwa14());
/// assert_eq!(plan.dof(), 7);
/// let mut backend = plan.backend(BackendKind::Accel);
/// assert_eq!(backend.name(), "accel");
/// ```
#[derive(Clone)]
pub struct RobotPlan {
    robot: RobotModel,
    model: Arc<DynamicsModel<f64>>,
    mask: Mask6,
    key: MorphologyKey,
    /// Prototype accelerator backend, widened once at plan build; every
    /// accelerator backend the plan hands out is a fork of it, sharing
    /// its scalar and wide simulators.
    accel: AcceleratorBackend<f64>,
}

impl std::fmt::Debug for RobotPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RobotPlan")
            .field("robot", &self.robot.name())
            .field("dof", &self.model.dof())
            .field("serve_width", &self.serve_width())
            .finish_non_exhaustive()
    }
}

impl RobotPlan {
    /// Builds the complete plan for `robot`: dynamics model, sparsity
    /// analysis, template customization, and netlist compilation all
    /// happen here, once.
    ///
    /// # Panics
    ///
    /// Panics if the robot has more than 64 links.
    pub fn new(robot: &RobotModel) -> Self {
        let _span = robo_trace::span("plan.build");
        let sim = {
            let _span = robo_trace::span("plan.customize");
            Arc::new(AcceleratorSim::new(robot))
        };
        let accel = {
            let _span = robo_trace::span("plan.widen");
            AcceleratorBackend::from_shared(sim)
        };
        let model = {
            let _span = robo_trace::span("plan.model");
            Arc::new(DynamicsModel::new(robot))
        };
        let mask = {
            let _span = robo_trace::span("plan.sparsity");
            superposition_pattern(robot)
        };
        let key = MorphologyKey::of_model(&model);
        Self {
            robot: robot.clone(),
            model,
            mask,
            key,
            accel,
        }
    }

    /// [`RobotPlan::new`]; the tier selects nothing, because the lane
    /// type is fixed at compile time.
    ///
    /// # Panics
    ///
    /// Panics if the robot has more than 64 links.
    pub fn with_tier(robot: &RobotModel, tier: ExecTier) -> Self {
        let _ = tier;
        Self::new(robot)
    }

    /// The host's SIMD tier ([`ExecTier::detect`]), as metadata.
    pub fn tier(&self) -> ExecTier {
        ExecTier::detect()
    }

    /// The JIT's emission report, summed over every X-unit tape
    /// the accelerator backends execute — the scalar simulator's and the
    /// widened one's. `None` when any of those tapes runs the interpreter
    /// instead (`Lanes<f64, 4>` has no inline lowering on this host, or
    /// the code buffer could not be mapped).
    pub fn jit_report(&self) -> Option<JitReport> {
        let wide = self.accel.core.wide_datapath().jit_report()?;
        Some(self.sim().jit_report()? + wide)
    }

    /// States evaluated per wide kernel instruction by the plan's
    /// backends: [`SERVE_LANES`](robo_spatial::SERVE_LANES).
    pub fn serve_width(&self) -> usize {
        self.accel.serve_width()
    }

    /// Live references sharing the plan's wide simulator — a diagnostic
    /// hook for the plan-once contract (backends and forks share the
    /// widened design; nothing re-widens it).
    pub fn wide_sim_refs(&self) -> usize {
        Arc::strong_count(self.accel.core.wide_datapath())
    }

    /// The source morphology.
    pub fn robot(&self) -> &RobotModel {
        &self.robot
    }

    /// The canonical [`MorphologyKey`] of the plan's robot, computed once
    /// at plan build — the identity plan caches key on.
    pub fn morphology_key(&self) -> MorphologyKey {
        self.key
    }

    /// The shared host dynamics model.
    pub fn model(&self) -> &Arc<DynamicsModel<f64>> {
        &self.model
    }

    /// The customized accelerator design (schedule, resources).
    pub fn design(&self) -> &Accelerator {
        self.sim().design()
    }

    /// The morphology-derived superposition sparsity mask shared by every
    /// link's transform unit (§4).
    pub fn superposition_mask(&self) -> Mask6 {
        self.mask
    }

    /// The shared accelerator simulator (compiled netlists included).
    pub fn sim(&self) -> &Arc<AcceleratorSim<f64>> {
        self.accel.sim()
    }

    /// Degrees of freedom.
    pub fn dof(&self) -> usize {
        self.model.dof()
    }

    /// A CPU analytical backend over the plan's shared model.
    pub fn cpu_backend(&self) -> CpuAnalytic<f64> {
        CpuAnalytic::with_model(Arc::clone(&self.model))
    }

    /// An accelerator backend over the plan's shared simulators (scalar
    /// and wide — nothing is re-customized or re-widened per backend).
    pub fn accelerator_backend(&self) -> AcceleratorBackend<f64> {
        self.accel.clone()
    }

    /// A finite-difference oracle over the plan's shared model.
    pub fn finite_diff_backend(&self) -> FiniteDiff {
        FiniteDiff::with_model(Arc::clone(&self.model))
    }

    /// A boxed backend of the requested kind — the CLI/`--backend` entry
    /// point. The returned [`DynamicsBackend`] runs every kernel of the
    /// family through [`DynamicsBackend::run_batch_into`].
    pub fn backend(&self, kind: BackendKind) -> Box<dyn DynamicsBackend> {
        match kind {
            BackendKind::Cpu => Box::new(self.cpu_backend()),
            BackendKind::Accel => Box::new(self.accelerator_backend()),
            BackendKind::FiniteDiff => Box::new(self.finite_diff_backend()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robo_dynamics::engine::{GradientOutput, KernelOutput};
    use robo_dynamics::{forward_dynamics, mass_matrix_inverse, DynamicsGradient};
    use robo_model::robots;

    fn grad_of(
        backend: &mut dyn DynamicsBackend,
        (q, qd, qdd, minv): &(Vec<f64>, Vec<f64>, Vec<f64>, MatN<f64>),
    ) -> DynamicsGradient<f64> {
        let mut out = GradientOutput::new();
        backend.gradient_into(q, qd, qdd, minv, &mut out).unwrap();
        out.into_dynamics_gradient()
    }

    fn case(plan: &RobotPlan) -> (Vec<f64>, Vec<f64>, Vec<f64>, MatN<f64>) {
        let n = plan.dof();
        let q: Vec<f64> = (0..n).map(|i| 0.1 * i as f64 - 0.2).collect();
        let qd: Vec<f64> = (0..n).map(|i| 0.05 * i as f64).collect();
        let tau = vec![0.4; n];
        let qdd = forward_dynamics(plan.model(), &q, &qd, &tau).unwrap();
        let minv = mass_matrix_inverse(plan.model(), &q).unwrap();
        (q, qd, qdd, minv)
    }

    #[test]
    fn plan_exposes_the_canonical_morphology_key() {
        let plan = RobotPlan::new(&robots::iiwa14());
        let direct = MorphologyKey::of_model(&DynamicsModel::<f64>::new(&robots::iiwa14()));
        assert_eq!(plan.morphology_key(), direct);
        assert_eq!(plan.clone().morphology_key(), direct);
        let other = RobotPlan::new(&robots::hyq());
        assert_ne!(plan.morphology_key(), other.morphology_key());
    }

    #[test]
    fn plan_shares_artifacts_across_backends() {
        let plan = RobotPlan::new(&robots::iiwa14());
        let model_count = Arc::strong_count(plan.model());
        let _cpu = plan.cpu_backend();
        let _fd = plan.finite_diff_backend();
        assert_eq!(Arc::strong_count(plan.model()), model_count + 2);
        let sim_count = Arc::strong_count(plan.sim());
        let wide_count = plan.wide_sim_refs();
        let accel = plan.accelerator_backend();
        let _fork = accel.clone();
        assert_eq!(Arc::strong_count(plan.sim()), sim_count + 2);
        // The wide simulator is widened once in the plan and shared by
        // every backend and fork — never rebuilt.
        assert_eq!(plan.wide_sim_refs(), wide_count + 2);
        assert_eq!(accel.serve_width(), plan.serve_width());
    }

    #[test]
    fn accel_wide_batch_into_bit_identical_to_serial() {
        // 7 states: one full lane group of 4 plus a ragged tail of 3.
        let plan = RobotPlan::new(&robots::iiwa14());
        let n = plan.dof();
        let cases: Vec<_> = (0..7)
            .map(|k| {
                let q: Vec<f64> = (0..n).map(|i| 0.07 * (i + k) as f64 - 0.2).collect();
                let qd: Vec<f64> = (0..n).map(|i| 0.03 * i as f64 - 0.01 * k as f64).collect();
                let tau = vec![0.3 + 0.1 * k as f64; n];
                let qdd = forward_dynamics(plan.model(), &q, &qd, &tau).unwrap();
                let minv = mass_matrix_inverse(plan.model(), &q).unwrap();
                (q, qd, qdd, minv)
            })
            .collect();
        let states: Vec<GradientState<'_, f64>> = cases
            .iter()
            .map(|(q, qd, qdd, minv)| GradientState { q, qd, qdd, minv })
            .collect();

        let mut wide = plan.accelerator_backend();
        let mut got = BatchOutput::new();
        wide.gradient_batch_into(&states, &mut got).unwrap();

        // Serial reference through the same backend's scalar path.
        let mut serial = plan.accelerator_backend();
        let mut scratch = GradientOutput::for_dof(n);
        let mut want = BatchOutput::new();
        want.reset(KernelKind::Gradient, states.len(), n);
        for (i, s) in states.iter().enumerate() {
            serial
                .gradient_into(s.q, s.qd, s.qdd, s.minv, &mut scratch)
                .unwrap();
            want.store(i, &scratch);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn native_compute_batch_matches_scalar_simulator() {
        // The native-S batch must be bit-identical to direct scalar
        // simulator runs — including in the accelerator's fixed-point
        // type.
        use robo_fixed::Fix32_16;
        let robot = robots::iiwa14();
        let plan = RobotPlan::new(&robot);
        let mut backend = AcceleratorBackend::<Fix32_16>::new(&robot);
        let n = plan.dof();
        // 6 inputs: one full lane group plus a tail of 2.
        let inputs: Vec<crate::KernelInput<Fix32_16>> = (0..6)
            .map(|k| {
                let (q, qd, qdd, minv) = {
                    let q: Vec<f64> = (0..n).map(|i| 0.1 * (i + k) as f64 - 0.3).collect();
                    let qd: Vec<f64> = (0..n).map(|i| 0.05 * i as f64).collect();
                    let tau = vec![0.5; n];
                    let qdd = forward_dynamics(plan.model(), &q, &qd, &tau).unwrap();
                    let minv = mass_matrix_inverse(plan.model(), &q).unwrap();
                    (q, qd, qdd, minv)
                };
                crate::KernelInput {
                    q: q.iter().map(|x| Fix32_16::from_f64(*x)).collect(),
                    qd: qd.iter().map(|x| Fix32_16::from_f64(*x)).collect(),
                    qdd: qdd.iter().map(|x| Fix32_16::from_f64(*x)).collect(),
                    minv: minv.cast(),
                }
            })
            .collect();

        let mut batched = Vec::new();
        backend.compute_batch(&inputs, &mut batched).unwrap();
        assert_eq!(batched.len(), inputs.len());
        for (inp, got) in inputs.iter().zip(&batched) {
            let want = backend
                .sim()
                .compute_gradient(&inp.q, &inp.qd, &inp.qdd, &inp.minv);
            assert_eq!(got.dtau_dq, want.dtau_dq);
            assert_eq!(got.dtau_dqd, want.dtau_dqd);
            assert_eq!(got.dqdd_dq, want.dqdd_dq);
            assert_eq!(got.dqdd_dqd, want.dqdd_dqd);
            assert_eq!(got.cycles, want.cycles);
        }
    }

    #[test]
    fn accel_backend_matches_raw_sim() {
        let plan = RobotPlan::new(&robots::iiwa14());
        let c = case(&plan);
        let got = grad_of(&mut plan.accelerator_backend(), &c);
        let want = plan.sim().compute_gradient(&c.0, &c.1, &c.2, &c.3);
        assert_eq!(got.dqdd_dq, want.dqdd_dq);
        assert_eq!(got.dqdd_dqd, want.dqdd_dqd);
        assert_eq!(got.id_gradient.dtau_dq, want.dtau_dq);
    }

    #[test]
    fn native_compute_reports_schedule_cycles() {
        let plan = RobotPlan::new(&robots::iiwa14());
        let (q, qd, qdd, minv) = case(&plan);
        let mut backend = plan.accelerator_backend();
        let mut out = Vec::new();
        let input = KernelInput { q, qd, qdd, minv };
        backend.compute_batch(&[input], &mut out).unwrap();
        assert_eq!(out[0].cycles, backend.cycles_per_gradient());
        assert_eq!(out[0].cycles, 34);
    }

    #[test]
    fn boxed_backends_agree_on_dof_and_reject_bad_dims() {
        let plan = RobotPlan::new(&robots::hyq());
        let (q, qd, qdd, minv) = case(&plan);
        for kind in BackendKind::ALL {
            let mut b = plan.backend(kind);
            assert_eq!(b.dof(), 12, "{kind}");
            assert_eq!(kind.as_str().parse::<BackendKind>().unwrap(), kind);
            let mut out = GradientOutput::new();
            let err = b
                .gradient_into(&q[..3], &qd, &qdd, &minv, &mut out)
                .unwrap_err();
            assert_eq!(
                err,
                EngineError::DimensionMismatch {
                    what: "q",
                    expected: 12,
                    got: 3
                }
            );
        }
        assert!("verilog".parse::<BackendKind>().is_err());
    }

    #[test]
    fn run_into_kernels_match_cpu_reference() {
        // The accelerator's multifunction entry point agrees with the CPU
        // analytic backend on every kernel of the family (1e-12 relative
        // for the reorder-sensitive paths, as in the parity suites).
        let plan = RobotPlan::new(&robots::iiwa14());
        let (q, qd, qdd, minv) = case(&plan);
        let tau = robo_dynamics::rnea(plan.model(), &q, &qd, &qdd).tau;
        let mut cpu = plan.backend(BackendKind::Cpu);
        let mut accel = plan.backend(BackendKind::Accel);
        for kernel in KernelKind::ALL {
            let third = if kernel == KernelKind::ForwardDynamics {
                &tau
            } else {
                &qdd
            };
            let (mut want, mut got) = (KernelOutput::new(), KernelOutput::new());
            cpu.run_into(kernel, &q, &qd, third, &minv, &mut want)
                .unwrap();
            accel
                .run_into(kernel, &q, &qd, third, &minv, &mut got)
                .unwrap();
            match kernel {
                KernelKind::InverseDynamics => {
                    for (g, w) in got.tau.iter().zip(&want.tau) {
                        assert!((g - w).abs() <= 1e-10 * w.abs().max(1.0), "{g} vs {w}");
                    }
                }
                KernelKind::ForwardDynamics => {
                    // CPU runs ABA; the accelerator runs M⁻¹(τ − C) — two
                    // algorithms, agreement bounded by M⁻¹ conditioning.
                    for (g, w) in got.qdd.iter().zip(&want.qdd) {
                        assert!((g - w).abs() <= 1e-8 * w.abs().max(1.0), "{g} vs {w}");
                    }
                }
                KernelKind::Gradient => {
                    let scale = want.grad.dqdd_dq.max_abs().max(1.0);
                    assert!(got.grad.dqdd_dq.max_abs_diff(&want.grad.dqdd_dq) / scale < 1e-12);
                }
            }
        }
    }

    #[test]
    fn gradient_backend_names_the_same_trait() {
        // Gradient-only consumers take the boxed backend unchanged: the
        // two trait names are one trait.
        use robo_dynamics::engine::GradientBackend;
        let plan = RobotPlan::new(&robots::iiwa14());
        let boxed: Box<dyn DynamicsBackend> = plan.backend(BackendKind::Accel);
        let mut gradient_only: Box<dyn GradientBackend> = boxed;
        assert!(grad_of(gradient_only.as_mut(), &case(&plan)).dqdd_dq.rows() == 7);
    }

    #[test]
    fn jit_report_covers_the_scalar_and_wide_xunit_tapes() {
        // `f64` and `Lanes<f64, 4>` both have an inline lowering on an
        // x86-64 Linux host with AVX2, so every plan emits — scalar and
        // wide tapes alike — with no opt-in.
        let emits = cfg!(all(target_arch = "x86_64", target_os = "linux"))
            && ExecTier::detect() == ExecTier::Avx2;
        let plan = RobotPlan::new(&robots::iiwa14());
        let Some(both) = plan.jit_report() else {
            assert!(!emits, "the plan fell back");
            return;
        };
        let scalar = plan.sim().jit_report().expect("scalar tapes emitted");
        assert!(both.instrs > scalar.instrs, "{both:?} vs {scalar:?}");
        assert!(both.code_bytes > scalar.code_bytes);
    }

    #[test]
    fn fixed_point_backend_marshals_at_boundary() {
        use robo_fixed::Fix32_16;
        let plan = RobotPlan::new(&robots::iiwa14());
        let c = case(&plan);
        let fx_grad = grad_of(&mut AcceleratorBackend::<Fix32_16>::new(plan.robot()), &c);
        let ref_grad = grad_of(&mut plan.accelerator_backend(), &c);
        // Q16.16 keeps ~4 fractional digits; the marshalled result must be
        // near the f64 reference but generally not equal.
        let scale = ref_grad.dqdd_dq.max_abs().max(1.0);
        assert!(fx_grad.dqdd_dq.max_abs_diff(&ref_grad.dqdd_dq) / scale < 1e-2);
    }
}
