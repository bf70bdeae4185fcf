//! The engine layer: *plan once, execute many*.
//!
//! The paper's methodology parameterizes a hardware template per robot
//! morphology once, then reuses the resulting datapath for every control
//! iteration (§4–5). This module is the software seam that mirrors that
//! discipline: every consumer of the kernel family — the iLQR / MPC
//! linearization, the CPU baseline, the coprocessor stream, the serving
//! tier, the experiment harness, the CLI — goes through one trait,
//! [`DynamicsBackend`], whose single compute entry
//! [`run_batch_into`](DynamicsBackend::run_batch_into) takes a
//! [`KernelKind`] tag, a batch of states, and one flat [`BatchOutput`]
//! (the Dadu-RBD shape: one multifunction pipeline, selected by a kernel
//! tag).
//!
//! Three backends implement the trait:
//!
//! * [`CpuAnalytic`] — the host's analytical workspace kernels, in any
//!   scalar type `S`;
//! * `AcceleratorBackend` (in `robo-sim`) — the morphology-customized
//!   accelerator simulation executing compiled netlists;
//! * [`FiniteDiff`] — a finite-difference oracle for validation.
//!
//! The first two are thin wrappers over one [`BackendCore`] driving a
//! [`Datapath`] (`DynamicsModel` or `AcceleratorSim`): the core owns the
//! `f64` ↔ `S` boundary casts (the hardware's I/O marshalling, §6.2), the
//! lane-group path that runs [`SERVE_LANES`] states per wide kernel
//! instruction, the ragged scalar tail, and the dispatch on the kernel
//! tag. Each backend owns its warm workspaces, so steady-state calls are
//! allocation-free; [`DynamicsBackend::fork`] hands each worker of the
//! shared [`BatchEngine`] a private instance over the same immutable plan.

use crate::batch::{BatchEngine, GradientState};
use crate::fd::{aba_into, AbaWorkspace};
use crate::rnea::rnea_into;
use crate::{
    dynamics_gradient_into, findiff, forward_dynamics, DynamicsGradient, DynamicsModel,
    GradWorkspace, InverseDynamicsGradient,
};
use robo_model::RobotModel;
use robo_spatial::{Lanes, MatN, Scalar, SERVE_LANES};
use std::cell::Cell;
use std::sync::Arc;

/// Error from an engine-boundary kernel call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An input's length (or matrix dimension) disagrees with the plan's
    /// joint count.
    DimensionMismatch {
        /// Which input was malformed (`"q"`, `"qd"`, `"qdd"`, `"minv"`).
        what: &'static str,
        /// The backend's joint count.
        expected: usize,
        /// The offending dimension.
        got: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DimensionMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "dimension mismatch: `{what}` has dimension {got}, backend expects {expected}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// The kernel-family axis: which rigid-body kernel a backend evaluates.
///
/// The source paper parameterizes one ∇ID datapath per robot; Dadu-RBD
/// shows the same morphology-pruned datapath profitably serves a *family*
/// of kernels on shared multifunctional pipelines. Every layer of this
/// stack — netlist generation (`generate_kernel_netlist` in
/// `robo-codegen`), the engine ([`DynamicsBackend::run_batch_into`]), the
/// plan (`RobotPlan` in `robo-sim`), serving (`GradientRequest` in
/// `robo-serve`), and the CLI (`--kernel`) — is parameterized by this
/// enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum KernelKind {
    /// RNEA: joint torques `τ(q, q̇, q̈)`.
    InverseDynamics,
    /// Forward dynamics: joint accelerations `q̈ = M⁻¹(τ − C(q, q̇))`.
    ForwardDynamics,
    /// The dynamics gradient `∂q̈/∂q`, `∂q̈/∂q̇` (plus the ∇ID stage) —
    /// the paper's original workload.
    #[default]
    Gradient,
}

impl KernelKind {
    /// Every kernel, in canonical order.
    pub const ALL: [Self; 3] = [Self::InverseDynamics, Self::ForwardDynamics, Self::Gradient];

    /// Stable short tag, used for CLI flags, shard naming, and netlist
    /// output namespacing.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::InverseDynamics => "id",
            Self::ForwardDynamics => "fd",
            Self::Gradient => "grad",
        }
    }

    /// Index into [`KernelKind::ALL`] (dense per-kernel tables).
    pub fn index(self) -> usize {
        match self {
            Self::InverseDynamics => 0,
            Self::ForwardDynamics => 1,
            Self::Gradient => 2,
        }
    }

    /// Whether [`BackendCore`] evaluates this kernel a lane group at a
    /// time. Only the gradient does: `id`/`fd` run the scalar path state
    /// by state until a measured change widens them (the ABA's
    /// positive-pivot assert inspects lane 0 only).
    pub fn runs_in_lanes(self) -> bool {
        self == Self::Gradient
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for KernelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "id" | "rnea" => Ok(Self::InverseDynamics),
            "fd" | "aba" => Ok(Self::ForwardDynamics),
            "grad" | "gradient" => Ok(Self::Gradient),
            other => Err(format!(
                "unknown kernel `{other}` (expected `id`, `fd`, or `grad`)"
            )),
        }
    }
}

/// Validates one evaluation point against a backend's joint count; every
/// [`DynamicsBackend::run_batch_into`] implementation calls this at entry.
///
/// # Errors
///
/// Returns [`EngineError::DimensionMismatch`] naming the first offending
/// input.
pub fn check_dims<S: Scalar>(
    dof: usize,
    q: &[S],
    qd: &[S],
    qdd: &[S],
    minv: &MatN<S>,
) -> Result<(), EngineError> {
    let checks: [(&'static str, usize); 5] = [
        ("q", q.len()),
        ("qd", qd.len()),
        ("qdd", qdd.len()),
        ("minv", minv.rows()),
        ("minv", minv.cols()),
    ];
    for (what, got) in checks {
        if got != dof {
            return Err(EngineError::DimensionMismatch {
                what,
                expected: dof,
                got,
            });
        }
    }
    Ok(())
}

/// The single-state gradient output: the four gradient matrices in host
/// `f64`, reusable across calls (warm buffers make repeated
/// `gradient_into` calls allocation-free).
#[derive(Debug, Clone, PartialEq)]
pub struct GradientOutput {
    /// `∂q̈/∂q` (Algorithm 1 output).
    pub dqdd_dq: MatN<f64>,
    /// `∂q̈/∂q̇` (Algorithm 1 output).
    pub dqdd_dqd: MatN<f64>,
    /// `∂τ/∂q` (step 2 intermediate).
    pub dtau_dq: MatN<f64>,
    /// `∂τ/∂q̇` (step 2 intermediate).
    pub dtau_dqd: MatN<f64>,
}

impl Default for GradientOutput {
    fn default() -> Self {
        Self::for_dof(0)
    }
}

impl GradientOutput {
    /// An empty output; buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// An output pre-sized for `dof` joints, so even the first call
    /// through it is allocation-free.
    pub fn for_dof(dof: usize) -> Self {
        Self {
            dqdd_dq: MatN::zeros(dof, dof),
            dqdd_dqd: MatN::zeros(dof, dof),
            dtau_dq: MatN::zeros(dof, dof),
            dtau_dqd: MatN::zeros(dof, dof),
        }
    }

    /// Converts into the crate's [`DynamicsGradient`] without copying.
    pub fn into_dynamics_gradient(self) -> DynamicsGradient<f64> {
        DynamicsGradient {
            dqdd_dq: self.dqdd_dq,
            dqdd_dqd: self.dqdd_dqd,
            id_gradient: InverseDynamicsGradient {
                dtau_dq: self.dtau_dq,
                dtau_dqd: self.dtau_dqd,
            },
        }
    }

    /// Clones into a [`DynamicsGradient`] (for batch collection).
    pub fn to_dynamics_gradient(&self) -> DynamicsGradient<f64> {
        self.clone().into_dynamics_gradient()
    }
}

/// Flat structure-of-arrays output for a whole batch of any kernel:
/// state-major, row-major within a state, so batch producers write (and
/// consumers like the iLQR linearization read) contiguous per-state
/// blocks with zero per-state allocation once warm.
///
/// Only the buffers of the batch's kernel are written (the rest keep
/// their contents): `tau` for [`KernelKind::InverseDynamics`], `qdd` for
/// [`KernelKind::ForwardDynamics`], the four gradient buffers for
/// [`KernelKind::Gradient`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchOutput {
    kernel: KernelKind,
    count: usize,
    dof: usize,
    /// `τ` for every state; state `i` owns `[i·dof, (i+1)·dof)`.
    pub tau: Vec<f64>,
    /// `q̈` for every state, same layout as `tau`.
    pub qdd: Vec<f64>,
    /// `∂q̈/∂q` for every state; state `i` owns `[i·dof², (i+1)·dof²)`,
    /// row-major within the block.
    pub dqdd_dq: Vec<f64>,
    /// `∂q̈/∂q̇`, same layout.
    pub dqdd_dqd: Vec<f64>,
    /// `∂τ/∂q`, same layout.
    pub dtau_dq: Vec<f64>,
    /// `∂τ/∂q̇`, same layout.
    pub dtau_dqd: Vec<f64>,
}

/// The gradient-only callers' name for [`BatchOutput`].
pub type GradientBatchOutput = BatchOutput;

impl BatchOutput {
    /// An empty output; [`BatchOutput::reset`] sizes it.
    pub const fn new() -> Self {
        Self {
            kernel: KernelKind::Gradient,
            count: 0,
            dof: 0,
            tau: Vec::new(),
            qdd: Vec::new(),
            dqdd_dq: Vec::new(),
            dqdd_dqd: Vec::new(),
            dtau_dq: Vec::new(),
            dtau_dqd: Vec::new(),
        }
    }

    /// Sizes `kernel`'s buffers for `count` states of `dof` joints.
    /// Shrinking or re-using at the same size never reallocates, so a
    /// warm output makes repeated batch calls allocation-free.
    pub fn reset(&mut self, kernel: KernelKind, count: usize, dof: usize) {
        self.kernel = kernel;
        self.count = count;
        self.dof = dof;
        match kernel {
            KernelKind::InverseDynamics => self.tau.resize(count * dof, 0.0),
            KernelKind::ForwardDynamics => self.qdd.resize(count * dof, 0.0),
            KernelKind::Gradient => {
                for buf in self.gradient_mut() {
                    buf.resize(count * dof * dof, 0.0);
                }
            }
        }
    }

    /// The kernel whose results the output currently holds.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// Number of states the output currently holds.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Joint count of every block.
    pub fn dof(&self) -> usize {
        self.dof
    }

    /// The four gradient buffers, in field order.
    fn gradient_mut(&mut self) -> [&mut Vec<f64>; 4] {
        [
            &mut self.dqdd_dq,
            &mut self.dqdd_dqd,
            &mut self.dtau_dq,
            &mut self.dtau_dqd,
        ]
    }

    fn block(&self, buf: &'static str, i: usize, len: usize) -> core::ops::Range<usize> {
        assert!(i < self.count, "state {i} out of range for {buf}");
        i * len..(i + 1) * len
    }

    /// State `i`'s `τ` (an inverse-dynamics batch).
    ///
    /// # Panics
    ///
    /// Panics if `i >= count()` (all six accessors).
    pub fn tau_at(&self, i: usize) -> &[f64] {
        &self.tau[self.block("tau", i, self.dof)]
    }

    /// State `i`'s `q̈` (a forward-dynamics batch).
    pub fn qdd_at(&self, i: usize) -> &[f64] {
        &self.qdd[self.block("qdd", i, self.dof)]
    }

    /// State `i`'s `∂q̈/∂q` block (row-major `dof × dof`).
    pub fn dqdd_dq_at(&self, i: usize) -> &[f64] {
        &self.dqdd_dq[self.block("dqdd_dq", i, self.dof * self.dof)]
    }

    /// State `i`'s `∂q̈/∂q̇` block.
    pub fn dqdd_dqd_at(&self, i: usize) -> &[f64] {
        &self.dqdd_dqd[self.block("dqdd_dqd", i, self.dof * self.dof)]
    }

    /// State `i`'s `∂τ/∂q` block.
    pub fn dtau_dq_at(&self, i: usize) -> &[f64] {
        &self.dtau_dq[self.block("dtau_dq", i, self.dof * self.dof)]
    }

    /// State `i`'s `∂τ/∂q̇` block.
    pub fn dtau_dqd_at(&self, i: usize) -> &[f64] {
        &self.dtau_dqd[self.block("dtau_dqd", i, self.dof * self.dof)]
    }

    /// Writes state `i`'s four gradient blocks from row-major sources in
    /// field order, each element through `f`. The one scatter loop behind
    /// the scalar path, the lane groups and [`BatchOutput::store`].
    fn put_gradient<T>(&mut self, i: usize, src: [&[T]; 4], f: impl Fn(&T) -> f64) {
        let range = self.block("gradient", i, self.dof * self.dof);
        for (buf, src) in self.gradient_mut().into_iter().zip(src) {
            debug_assert_eq!(src.len(), range.len(), "gradient block shape");
            for (dst, x) in buf[range.clone()].iter_mut().zip(src) {
                *dst = f(x);
            }
        }
    }

    /// Copies one dense [`GradientOutput`] into state `i`'s blocks.
    ///
    /// # Panics
    ///
    /// Panics if `i >= count()` or `out`'s matrices are not `dof × dof`.
    pub fn store(&mut self, i: usize, out: &GradientOutput) {
        let mats = [&out.dqdd_dq, &out.dqdd_dqd, &out.dtau_dq, &out.dtau_dqd];
        for m in mats {
            assert_eq!(
                (m.rows(), m.cols()),
                (self.dof, self.dof),
                "gradient block shape"
            );
        }
        self.put_gradient(i, mats.map(MatN::as_slice), |x| *x);
    }

    /// Copies state `i`'s gradient blocks into a dense output. Resizing
    /// at an unchanged size never reallocates, so warm buffers make this
    /// allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `i >= count()`.
    pub fn copy_gradient(&self, i: usize, out: &mut GradientOutput) {
        let n = self.dof;
        for (flat, mat) in [
            (self.dqdd_dq_at(i), &mut out.dqdd_dq),
            (self.dqdd_dqd_at(i), &mut out.dqdd_dqd),
            (self.dtau_dq_at(i), &mut out.dtau_dq),
            (self.dtau_dqd_at(i), &mut out.dtau_dqd),
        ] {
            mat.resize_zeroed(n, n);
            mat.as_mut_slice().copy_from_slice(flat);
        }
    }

    /// Copies state `i`'s results, whatever the batch's kernel, into
    /// single-state buffers: the gradient blocks into `grad`, or `τ` /
    /// `q̈` into `vector`. The other destination is left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `i >= count()`.
    pub fn copy_state(&self, i: usize, grad: &mut GradientOutput, vector: &mut Vec<f64>) {
        let src = match self.kernel {
            KernelKind::Gradient => return self.copy_gradient(i, grad),
            KernelKind::InverseDynamics => self.tau_at(i),
            KernelKind::ForwardDynamics => self.qdd_at(i),
        };
        vector.clear();
        vector.extend_from_slice(src);
    }

    /// Reassembles state `i`'s gradient blocks into an owned
    /// [`DynamicsGradient`] (for callers on the vector-of-gradients
    /// shape).
    ///
    /// # Panics
    ///
    /// Panics if `i >= count()`.
    pub fn gradient_at(&self, i: usize) -> DynamicsGradient<f64> {
        let mut out = GradientOutput::new();
        self.copy_gradient(i, &mut out);
        out.into_dynamics_gradient()
    }
}

/// Writes one state's vector result (`τ` or `q̈`) into its block of a flat
/// batch buffer.
fn put_row<S: Scalar>(buf: &mut [f64], i: usize, src: &[S]) {
    let n = src.len();
    for (dst, x) in buf[i * n..(i + 1) * n].iter_mut().zip(src) {
        *dst = x.to_f64();
    }
}

/// Single-state output buffer for [`DynamicsBackend::run_into`]: one field
/// family per [`KernelKind`], reusable across calls so warm kernel
/// evaluations are allocation-free. Only the fields of the requested
/// kernel are written: `tau` for [`KernelKind::InverseDynamics`], `qdd` for
/// [`KernelKind::ForwardDynamics`], `grad` for [`KernelKind::Gradient`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelOutput {
    /// Joint torques `τ` (inverse dynamics).
    pub tau: Vec<f64>,
    /// Joint accelerations `q̈` (forward dynamics).
    pub qdd: Vec<f64>,
    /// The four gradient matrices (gradient kernel).
    pub grad: GradientOutput,
}

impl KernelOutput {
    /// An empty buffer; the first call through a backend sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer pre-sized for `dof` joints, so even the first call is
    /// allocation-free.
    pub fn for_dof(dof: usize) -> Self {
        Self {
            tau: vec![0.0; dof],
            qdd: vec![0.0; dof],
            grad: GradientOutput::for_dof(dof),
        }
    }
}

/// A kernel-family provider behind the accelerator's exact interface
/// (Figure 9): given the host's `(q, q̇, third, M⁻¹)` for a batch of
/// states, fill in the tagged kernel's outputs.
///
/// The `third` input slot ([`GradientState::qdd`]) is kernel-dependent,
/// mirroring the accelerator's fixed input register file: it carries `q̈`
/// for [`KernelKind::InverseDynamics`] and [`KernelKind::Gradient`], and
/// `τ` for [`KernelKind::ForwardDynamics`]. `minv` is consumed by the FD
/// composition `q̈ = M⁻¹(τ − C)` and the gradient's step 3; the
/// inverse-dynamics kernel validates but ignores it (the datapath always
/// latches the full register file).
///
/// A backend implements one compute entry,
/// [`run_batch_into`](Self::run_batch_into); the single-state and
/// gradient-only forms are provided wrappers over it. Backends own their
/// warm workspaces (hence `&mut self`); sharing across the
/// [`BatchEngine`]'s workers goes through [`DynamicsBackend::fork`], which
/// hands each worker a private instance over the same immutable,
/// `Arc`-shared per-robot plan (see [`gradient_batch_on_into`]).
pub trait DynamicsBackend: Send + Sync {
    /// Short name for reports (`"cpu"`, `"accel"`, `"fd"`, …).
    fn name(&self) -> &'static str;

    /// The plan's joint count; inputs must match it.
    fn dof(&self) -> usize;

    /// A private instance for one batch worker, sharing this backend's
    /// immutable plan (model, netlists) but owning fresh workspaces.
    fn fork(&self) -> Box<dyn DynamicsBackend + '_>;

    /// States evaluated per wide kernel instruction by
    /// [`DynamicsBackend::run_batch_into`] for kernels that
    /// [run in lanes](KernelKind::runs_in_lanes) — 1 for serial backends
    /// (the default), [`SERVE_LANES`] for wide ones.
    fn serve_width(&self) -> usize {
        1
    }

    /// Evaluates `kernel` at every state into one flat output, resized to
    /// `states.len()` — the single compute entry. Allocation-free once
    /// `self` and `out` are warm (except [`FiniteDiff`], which is an
    /// oracle), with per-state results bit-identical to one-state calls.
    ///
    /// # Errors
    ///
    /// Returns the first malformed state's
    /// [`EngineError::DimensionMismatch`]; `out` contents are unspecified
    /// on error.
    fn run_batch_into(
        &mut self,
        kernel: KernelKind,
        states: &[GradientState<'_, f64>],
        out: &mut BatchOutput,
    ) -> Result<(), EngineError>;

    /// A gradient batch: [`DynamicsBackend::run_batch_into`] with
    /// [`KernelKind::Gradient`].
    ///
    /// # Errors
    ///
    /// As for [`DynamicsBackend::run_batch_into`].
    fn gradient_batch_into(
        &mut self,
        states: &[GradientState<'_, f64>],
        out: &mut BatchOutput,
    ) -> Result<(), EngineError> {
        self.run_batch_into(KernelKind::Gradient, states, out)
    }

    /// Computes one dynamics gradient (Algorithm 1 given host-computed
    /// `q̈` and `M⁻¹`) into `out`: a one-state gradient batch.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DimensionMismatch`] when any input dimension
    /// disagrees with [`DynamicsBackend::dof`].
    fn gradient_into(
        &mut self,
        q: &[f64],
        qd: &[f64],
        qdd: &[f64],
        minv: &MatN<f64>,
        out: &mut GradientOutput,
    ) -> Result<(), EngineError> {
        with_scratch(|batch| {
            self.gradient_batch_into(&[GradientState { q, qd, qdd, minv }], batch)?;
            batch.copy_gradient(0, out);
            Ok(())
        })
    }

    /// Evaluates `kernel` at one state, writing the kernel's fields of
    /// `out`: a one-state batch.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DimensionMismatch`] when any input dimension
    /// disagrees with [`DynamicsBackend::dof`].
    fn run_into(
        &mut self,
        kernel: KernelKind,
        q: &[f64],
        qd: &[f64],
        third: &[f64],
        minv: &MatN<f64>,
        out: &mut KernelOutput,
    ) -> Result<(), EngineError> {
        with_scratch(|batch| {
            let state = GradientState {
                q,
                qd,
                qdd: third,
                minv,
            };
            self.run_batch_into(kernel, &[state], batch)?;
            let vector = if kernel == KernelKind::ForwardDynamics {
                &mut out.qdd
            } else {
                &mut out.tau
            };
            batch.copy_state(0, &mut out.grad, vector);
            Ok(())
        })
    }
}

/// The gradient consumers' name for [`DynamicsBackend`]: one trait, two
/// names, so `&dyn GradientBackend` and `Box<dyn DynamicsBackend>` are the
/// same type.
pub use self::DynamicsBackend as GradientBackend;

/// Runs `f` on this thread's warm one-state batch — the scratch behind
/// the provided single-state wrappers, so they stay allocation-free once
/// warm without a buffer in every backend.
fn with_scratch<R>(f: impl FnOnce(&mut BatchOutput) -> R) -> R {
    thread_local! {
        static SCRATCH: Cell<BatchOutput> = const { Cell::new(BatchOutput::new()) };
    }
    // Taken rather than borrowed: a nested call (a decorator wrapping
    // another backend) gets a fresh scratch instead of a double borrow.
    let mut batch = SCRATCH.take();
    let result = f(&mut batch);
    SCRATCH.set(batch);
    result
}

/// Computes a gradient batch data-parallel on `engine` into a flat output
/// — two-level parallelism: workers claim chunks of whole lane groups
/// ([`DynamicsBackend::serve_width`] states each, at least ~4 states per
/// claim), and each chunk runs through a [`fork`](DynamicsBackend::fork)
/// of `backend` (the paper's §6.1 batch structure).
///
/// # Errors
///
/// Returns the first failing chunk's [`EngineError`]; `out` contents are
/// unspecified on error.
///
/// # Panics
///
/// Panics if a worker panicked while processing a chunk.
pub fn gradient_batch_on_into(
    backend: &dyn DynamicsBackend,
    engine: &BatchEngine,
    states: &[GradientState<'_, f64>],
    out: &mut BatchOutput,
) -> Result<(), EngineError> {
    let dof = backend.dof();
    // Whole lane groups per claimed chunk, topped up to at least ~4
    // states so narrow (or serial) widths don't pay a claim per state or
    // two.
    let w = backend.serve_width().max(1);
    let chunk_len = w * 4usize.div_ceil(w);
    let parts = engine.run_with_state(
        states.len().div_ceil(chunk_len),
        || backend.fork(),
        |backend, ci| {
            let lo = ci * chunk_len;
            let hi = usize::min(lo + chunk_len, states.len());
            let mut part = BatchOutput::new();
            backend
                .gradient_batch_into(&states[lo..hi], &mut part)
                .map(|()| part)
        },
    );
    out.reset(KernelKind::Gradient, states.len(), dof);
    let n2 = dof * dof;
    for (ci, part) in parts.into_iter().enumerate() {
        let mut part = part?;
        let lo = ci * chunk_len * n2;
        let hi = lo + part.count() * n2;
        for (dst, src) in out.gradient_mut().into_iter().zip(part.gradient_mut()) {
            dst[lo..hi].copy_from_slice(src);
        }
    }
    Ok(())
}

/// One morphology's kernel family at one scalar type: the datapath a
/// [`BackendCore`] drives. [`DynamicsModel`] (the host's analytical
/// kernels) and `AcceleratorSim` (the simulated accelerator, in
/// `robo-sim`) implement it.
pub trait Datapath: Send + Sync + 'static {
    /// The arithmetic type every kernel computes in.
    type Scalar: Scalar;
    /// This datapath rebuilt at another scalar type (the serving lane
    /// type, for the lane-group path).
    type At<T: Scalar>: Datapath<Scalar = T>;
    /// Warm evaluation buffers; they hold the last evaluation's outputs.
    type Workspace: Send + Sync;

    /// Trace span of one [`BackendCore::run_batch_into`] call, indexed by
    /// [`KernelKind::index`].
    const BATCH_SPANS: [&'static str; 3];
    /// Trace span of one lane group's kernel evaluation.
    const LANE_SPAN: &'static str;

    /// Joint count.
    fn dof(&self) -> usize;

    /// Rebuilds the datapath at scalar type `T`; every constant goes
    /// through `f64`, exact for every supported scalar.
    fn cast_to<T: Scalar>(&self) -> Self::At<T>;

    /// A workspace pre-sized for this datapath.
    fn workspace(&self) -> Self::Workspace;

    /// Evaluates `kernel` at one state (the `third` slot as for
    /// [`DynamicsBackend`]), leaving the outputs in `ws`.
    fn eval(
        &self,
        kernel: KernelKind,
        q: &[Self::Scalar],
        qd: &[Self::Scalar],
        third: &[Self::Scalar],
        minv: &MatN<Self::Scalar>,
        ws: &mut Self::Workspace,
    );

    /// `τ` from the last inverse-dynamics evaluation.
    fn tau(ws: &Self::Workspace) -> &[Self::Scalar];

    /// `q̈` from the last forward-dynamics evaluation.
    fn qdd(ws: &Self::Workspace) -> &[Self::Scalar];

    /// The last gradient evaluation's `[∂q̈/∂q, ∂q̈/∂q̇, ∂τ/∂q, ∂τ/∂q̇]`.
    fn grad(ws: &Self::Workspace) -> [&MatN<Self::Scalar>; 4];
}

/// The host's analytical kernels: RNEA via [`rnea_into`], FD via the O(n)
/// ABA ([`aba_into`]), and the gradient via [`dynamics_gradient_into`].
impl<S: Scalar> Datapath for DynamicsModel<S> {
    type Scalar = S;
    type At<T: Scalar> = DynamicsModel<T>;
    type Workspace = (GradWorkspace<S>, AbaWorkspace<S>);

    const BATCH_SPANS: [&'static str; 3] = ["kernel.cpu.id", "kernel.cpu.fd", "grad.cpu.batch"];
    const LANE_SPAN: &'static str = "grad.wide";

    fn dof(&self) -> usize {
        DynamicsModel::dof(self)
    }

    fn cast_to<T: Scalar>(&self) -> DynamicsModel<T> {
        DynamicsModel::cast_to(self)
    }

    fn workspace(&self) -> Self::Workspace {
        (
            GradWorkspace::for_model(self),
            AbaWorkspace::for_model(self),
        )
    }

    fn eval(
        &self,
        kernel: KernelKind,
        q: &[S],
        qd: &[S],
        third: &[S],
        minv: &MatN<S>,
        (grad, aba): &mut Self::Workspace,
    ) {
        match kernel {
            KernelKind::InverseDynamics => rnea_into(self, q, qd, third, &mut grad.rnea),
            KernelKind::ForwardDynamics => aba_into(self, q, qd, third, aba),
            KernelKind::Gradient => dynamics_gradient_into(self, q, qd, third, minv, grad),
        }
    }

    fn tau((grad, _): &Self::Workspace) -> &[S] {
        &grad.rnea.tau
    }

    fn qdd((_, aba): &Self::Workspace) -> &[S] {
        &aba.qdd
    }

    fn grad((grad, _): &Self::Workspace) -> [&MatN<S>; 4] {
        [&grad.dqdd_dq, &grad.dqdd_dqd, &grad.dtau_dq, &grad.dtau_dqd]
    }
}

/// Casts a borrowed `f64` slice into a warm scratch vector (identity for
/// `S = f64`) without allocating once the scratch has capacity.
fn cast_slice_into<S: Scalar>(src: &[f64], dst: &mut Vec<S>) {
    dst.clear();
    dst.extend(src.iter().map(|x| S::from_f64(*x)));
}

/// Casts a borrowed `f64` matrix into a warm scratch matrix.
fn cast_mat_into<S: Scalar>(src: &MatN<f64>, dst: &mut MatN<S>) {
    dst.resize_zeroed(src.rows(), src.cols());
    for (d, x) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d = S::from_f64(*x);
    }
}

/// A datapath rebuilt at the serving lane type `Lanes<S, SERVE_LANES>`.
type Wide<D> = <D as Datapath>::At<Lanes<<D as Datapath>::Scalar, SERVE_LANES>>;

/// The one backend core over a [`Datapath`]: the `f64` ↔ `S` boundary
/// casts, the lane-group path, the ragged scalar tail, and the dispatch on
/// [`KernelKind`]. [`CpuAnalytic`] and `AcceleratorBackend` are thin
/// wrappers over it.
///
/// The lane-group path runs the datapath rebuilt once at
/// `Lanes<D::Scalar, SERVE_LANES>`, `Arc`-shared by forks; lane for lane
/// it is bit-identical to the scalar path.
pub struct BackendCore<D: Datapath> {
    dp: Arc<D>,
    ws: D::Workspace,
    q: Vec<D::Scalar>,
    qd: Vec<D::Scalar>,
    third: Vec<D::Scalar>,
    minv: MatN<D::Scalar>,
    lanes: LaneGroup<D>,
}

impl<D: Datapath> core::fmt::Debug for BackendCore<D> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BackendCore")
            .field("scalar", &D::Scalar::name())
            .field("dof", &self.dp.dof())
            .field("serve_width", &SERVE_LANES)
            .finish_non_exhaustive()
    }
}

impl<D: Datapath> BackendCore<D> {
    /// Builds the core over a shared datapath, widening the datapath once
    /// for the lane-group path.
    pub fn new(dp: Arc<D>) -> Self {
        let lanes = LaneGroup::new(Arc::new(dp.cast_to()));
        Self::with_lanes(dp, lanes)
    }

    fn with_lanes(dp: Arc<D>, lanes: LaneGroup<D>) -> Self {
        let n = dp.dof();
        Self {
            ws: dp.workspace(),
            q: Vec::with_capacity(n),
            qd: Vec::with_capacity(n),
            third: Vec::with_capacity(n),
            minv: MatN::zeros(n, n),
            lanes,
            dp,
        }
    }

    /// A fresh-workspace instance sharing both datapaths (scalar and
    /// widened) — nothing is re-widened.
    pub fn fork(&self) -> Self {
        let lanes = LaneGroup::new(Arc::clone(&self.lanes.dp));
        Self::with_lanes(Arc::clone(&self.dp), lanes)
    }

    /// The shared scalar datapath.
    pub fn datapath(&self) -> &Arc<D> {
        &self.dp
    }

    /// The shared datapath the lane groups run, rebuilt at
    /// `Lanes<D::Scalar, SERVE_LANES>`.
    pub fn wide_datapath(&self) -> &Arc<D::At<Lanes<D::Scalar, SERVE_LANES>>> {
        &self.lanes.dp
    }

    /// Joint count.
    pub fn dof(&self) -> usize {
        self.dp.dof()
    }

    /// States per lane group: [`SERVE_LANES`].
    pub fn serve_width(&self) -> usize {
        SERVE_LANES
    }

    /// [`DynamicsBackend::run_batch_into`] for every core-backed backend:
    /// full lane groups of [`SERVE_LANES`] states run through one wide
    /// kernel evaluation each (for kernels that
    /// [run in lanes](KernelKind::runs_in_lanes)); every other state takes
    /// the scalar path, cast to `D::Scalar` at the boundary.
    ///
    /// # Errors
    ///
    /// Returns the first malformed state's [`EngineError`] before any
    /// output is written.
    pub fn run_batch_into(
        &mut self,
        kernel: KernelKind,
        states: &[GradientState<'_, f64>],
        out: &mut BatchOutput,
    ) -> Result<(), EngineError> {
        let _span = robo_trace::span_items(D::BATCH_SPANS[kernel.index()], states.len());
        let n = self.dp.dof();
        for s in states {
            check_dims(n, s.q, s.qd, s.qdd, s.minv)?;
        }
        out.reset(kernel, states.len(), n);
        let w = SERVE_LANES;
        let full = if kernel.runs_in_lanes() {
            states.len() / w
        } else {
            0
        };
        for g in 0..full {
            self.lanes
                .eval_group(&states[g * w..(g + 1) * w], out, g * w);
        }
        // The ragged tail (or the whole batch of a scalar kernel).
        for (i, s) in states.iter().enumerate().skip(full * w) {
            cast_slice_into(s.q, &mut self.q);
            cast_slice_into(s.qd, &mut self.qd);
            cast_slice_into(s.qdd, &mut self.third);
            // Inverse dynamics never reads M⁻¹, so its cast is skipped.
            if kernel != KernelKind::InverseDynamics {
                cast_mat_into(s.minv, &mut self.minv);
            }
            self.dp.eval(
                kernel,
                &self.q,
                &self.qd,
                &self.third,
                &self.minv,
                &mut self.ws,
            );
            match kernel {
                KernelKind::InverseDynamics => put_row(&mut out.tau, i, D::tau(&self.ws)),
                KernelKind::ForwardDynamics => put_row(&mut out.qdd, i, D::qdd(&self.ws)),
                KernelKind::Gradient => {
                    let g = D::grad(&self.ws).map(MatN::as_slice);
                    out.put_gradient(i, g, |x| x.to_f64());
                }
            }
        }
        Ok(())
    }
}

/// The lane-group path: the `Arc`-shared widened datapath plus
/// lane-transposed staging buffers.
struct LaneGroup<D: Datapath> {
    dp: Arc<Wide<D>>,
    ws: <Wide<D> as Datapath>::Workspace,
    q: Vec<Lanes<D::Scalar, SERVE_LANES>>,
    qd: Vec<Lanes<D::Scalar, SERVE_LANES>>,
    qdd: Vec<Lanes<D::Scalar, SERVE_LANES>>,
    minv: MatN<Lanes<D::Scalar, SERVE_LANES>>,
}

impl<D: Datapath> LaneGroup<D> {
    fn new(dp: Arc<Wide<D>>) -> Self {
        let n = dp.dof();
        let zero = Lanes::zero();
        Self {
            ws: dp.workspace(),
            q: vec![zero; n],
            qd: vec![zero; n],
            qdd: vec![zero; n],
            minv: MatN::zeros(n, n),
            dp,
        }
    }

    /// Runs the gradient over one full lane group
    /// (`states.len() == SERVE_LANES`), scattering per-state results into
    /// `out` at state indices `base..`.
    fn eval_group(
        &mut self,
        states: &[GradientState<'_, f64>],
        out: &mut BatchOutput,
        base: usize,
    ) {
        let w = SERVE_LANES;
        debug_assert_eq!(states.len(), w, "a lane group is exactly one width");
        let marshal = robo_trace::span_items("lane.marshal", w);
        for (l, s) in states.iter().enumerate() {
            let set = |dst: &mut [Lanes<D::Scalar, SERVE_LANES>], src: &[f64]| {
                for (v, x) in dst.iter_mut().zip(src) {
                    v.set_lane(l, D::Scalar::from_f64(*x));
                }
            };
            set(&mut self.q, s.q);
            set(&mut self.qd, s.qd);
            set(&mut self.qdd, s.qdd);
            set(self.minv.as_mut_slice(), s.minv.as_slice());
        }
        drop(marshal);
        let kernel = robo_trace::span_items(D::LANE_SPAN, w);
        self.dp.eval(
            KernelKind::Gradient,
            &self.q,
            &self.qd,
            &self.qdd,
            &self.minv,
            &mut self.ws,
        );
        drop(kernel);
        let _scatter = robo_trace::span_items("lane.scatter", w);
        let g = Wide::<D>::grad(&self.ws).map(MatN::as_slice);
        for l in 0..w {
            out.put_gradient(base + l, g, |x| x.lane(l).to_f64());
        }
    }
}

/// The host's analytical kernels behind the engine boundary, computing in
/// scalar type `S` — `f64` for the CPU baseline, or any `Fixed{i,f}` for
/// the paper's numeric-type study.
///
/// A thin wrapper over [`BackendCore`]: forks share the `Arc`-held
/// [`DynamicsModel`] and its widened copy; each fork owns warm workspaces
/// and cast scratch, so steady-state calls are allocation-free. For
/// `S = f64` the boundary casts are exact identities and results are
/// bit-identical to [`crate::dynamics_gradient_into`].
///
/// Gradient batches run whole lane groups at `Lanes<S, SERVE_LANES>`,
/// bit-identical to the scalar path.
///
/// # Examples
///
/// ```
/// use robo_dynamics::engine::{CpuAnalytic, DynamicsBackend, GradientOutput};
/// use robo_dynamics::{forward_dynamics, mass_matrix_inverse, DynamicsModel};
/// use robo_model::robots;
///
/// let robot = robots::iiwa14();
/// let model = DynamicsModel::<f64>::new(&robot);
/// let (q, qd, tau) = (vec![0.1; 7], vec![0.0; 7], vec![0.5; 7]);
/// let qdd = forward_dynamics(&model, &q, &qd, &tau).unwrap();
/// let minv = mass_matrix_inverse(&model, &q).unwrap();
///
/// let mut backend = CpuAnalytic::<f64>::new(&robot);
/// let mut out = GradientOutput::for_dof(7);
/// backend.gradient_into(&q, &qd, &qdd, &minv, &mut out).unwrap();
/// assert_eq!(out.dqdd_dq.rows(), 7);
/// ```
#[derive(Debug)]
pub struct CpuAnalytic<S: Scalar> {
    core: BackendCore<DynamicsModel<S>>,
}

impl<S: Scalar> Clone for CpuAnalytic<S> {
    fn clone(&self) -> Self {
        Self {
            core: self.core.fork(),
        }
    }
}

impl<S: Scalar> CpuAnalytic<S> {
    /// Builds the backend (and its dynamics model) for a robot.
    pub fn new(robot: &RobotModel) -> Self {
        Self::with_model(Arc::new(DynamicsModel::new(robot)))
    }

    /// Builds the backend over an existing shared model — the plan-once
    /// path: every fork and every consumer reuses the same `Arc`.
    pub fn with_model(model: Arc<DynamicsModel<S>>) -> Self {
        Self {
            core: BackendCore::new(model),
        }
    }

    /// The shared dynamics model.
    pub fn model(&self) -> &Arc<DynamicsModel<S>> {
        self.core.datapath()
    }
}

impl<S: Scalar> DynamicsBackend for CpuAnalytic<S> {
    fn name(&self) -> &'static str {
        "cpu"
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

/// The finite-difference oracle: central differences of the RNEA for the
/// step-2 gradient, then the exact `−M⁻¹` step 3. Used to validate the
/// analytical backends; allocates per call (it is a test oracle, not a
/// control-loop kernel).
#[derive(Debug, Clone)]
pub struct FiniteDiff {
    model: Arc<DynamicsModel<f64>>,
    step: f64,
}

impl FiniteDiff {
    /// Default central-difference step, stable for the built-in robots.
    pub const DEFAULT_STEP: f64 = 1e-6;

    /// Builds the oracle with the default step.
    pub fn new(robot: &RobotModel) -> Self {
        Self::with_model(Arc::new(DynamicsModel::new(robot)))
    }

    /// Builds the oracle over an existing shared model.
    pub fn with_model(model: Arc<DynamicsModel<f64>>) -> Self {
        Self {
            model,
            step: Self::DEFAULT_STEP,
        }
    }

    /// Overrides the central-difference step.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive.
    pub fn with_step(mut self, step: f64) -> Self {
        assert!(step > 0.0, "finite-difference step must be positive");
        self.step = step;
        self
    }
}

impl DynamicsBackend for FiniteDiff {
    fn name(&self) -> &'static str {
        "fd"
    }

    fn dof(&self) -> usize {
        self.model.dof()
    }

    fn fork(&self) -> Box<dyn DynamicsBackend + '_> {
        Box::new(self.clone())
    }

    /// The oracle routes, state by state: RNEA through the allocating
    /// reference kernel, FD through the *CRBA + LDLT* factorization
    /// (`forward_dynamics`) — a genuinely independent algorithm from the
    /// analytic backends' ABA and the accelerator's `M⁻¹(τ − C)`
    /// composition, which is what makes it a useful cross-check — and the
    /// gradient through central differences.
    fn run_batch_into(
        &mut self,
        kernel: KernelKind,
        states: &[GradientState<'_, f64>],
        out: &mut BatchOutput,
    ) -> Result<(), EngineError> {
        let n = self.dof();
        for s in states {
            check_dims(n, s.q, s.qd, s.qdd, s.minv)?;
        }
        out.reset(kernel, states.len(), n);
        for (i, s) in states.iter().enumerate() {
            match kernel {
                KernelKind::InverseDynamics => {
                    put_row(
                        &mut out.tau,
                        i,
                        &crate::rnea(&self.model, s.q, s.qd, s.qdd).tau,
                    );
                }
                KernelKind::ForwardDynamics => {
                    let qdd = forward_dynamics(&self.model, s.q, s.qd, s.qdd)
                        .expect("oracle forward dynamics requires an SPD mass matrix");
                    put_row(&mut out.qdd, i, &qdd);
                }
                KernelKind::Gradient => {
                    let id = findiff::rnea_gradient_fd(&self.model, s.q, s.qd, s.qdd, self.step);
                    let mut grad = GradientOutput {
                        dtau_dq: id.dtau_dq,
                        dtau_dqd: id.dtau_dqd,
                        ..GradientOutput::for_dof(n)
                    };
                    s.minv.neg_mul_mat_into(&grad.dtau_dq, &mut grad.dqdd_dq);
                    s.minv.neg_mul_mat_into(&grad.dtau_dqd, &mut grad.dqdd_dqd);
                    out.store(i, &grad);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dynamics_gradient_from_qdd, forward_dynamics, mass_matrix_inverse};
    use robo_model::robots;

    fn case(robot: &RobotModel, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>, MatN<f64>) {
        let model = DynamicsModel::<f64>::new(robot);
        let n = model.dof();
        let mut s = seed.max(1);
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let q: Vec<f64> = (0..n).map(|_| next()).collect();
        let qd: Vec<f64> = (0..n).map(|_| next()).collect();
        let tau: Vec<f64> = (0..n).map(|_| 2.0 * next()).collect();
        let qdd = forward_dynamics(&model, &q, &qd, &tau).unwrap();
        let minv = mass_matrix_inverse(&model, &q).unwrap();
        (q, qd, qdd, minv)
    }

    fn grad_of(
        backend: &mut dyn DynamicsBackend,
        (q, qd, qdd, minv): &(Vec<f64>, Vec<f64>, Vec<f64>, MatN<f64>),
    ) -> DynamicsGradient<f64> {
        let mut out = GradientOutput::new();
        backend.gradient_into(q, qd, qdd, minv, &mut out).unwrap();
        out.into_dynamics_gradient()
    }

    #[test]
    fn cpu_backend_is_bit_identical_to_direct_kernel() {
        let robot = robots::iiwa14();
        let c = case(&robot, 11);
        let got = grad_of(&mut CpuAnalytic::<f64>::new(&robot), &c);
        let model = DynamicsModel::<f64>::new(&robot);
        let want = dynamics_gradient_from_qdd(&model, &c.0, &c.1, &c.2, &c.3);
        assert_eq!(got.dqdd_dq, want.dqdd_dq);
        assert_eq!(got.dqdd_dqd, want.dqdd_dqd);
        assert_eq!(got.id_gradient.dtau_dq, want.id_gradient.dtau_dq);
    }

    #[test]
    fn fd_backend_close_to_analytic() {
        let robot = robots::hyq();
        let c = case(&robot, 23);
        let a = grad_of(&mut CpuAnalytic::<f64>::new(&robot), &c);
        let b = grad_of(&mut FiniteDiff::new(&robot), &c);
        let scale = a.dqdd_dq.max_abs().max(1.0);
        assert!(a.dqdd_dq.max_abs_diff(&b.dqdd_dq) / scale < 1e-4);
        assert!(a.dqdd_dqd.max_abs_diff(&b.dqdd_dqd) / scale < 1e-4);
    }

    #[test]
    fn dimension_mismatch_is_typed() {
        let robot = robots::iiwa14();
        let (q, qd, qdd, minv) = case(&robot, 3);
        let mut backend = CpuAnalytic::<f64>::new(&robot);
        let mut out = GradientOutput::new();
        let short = &q[..5];
        assert_eq!(
            backend.gradient_into(short, &qd, &qdd, &minv, &mut out),
            Err(EngineError::DimensionMismatch {
                what: "q",
                expected: 7,
                got: 5
            })
        );
        let bad_minv = MatN::<f64>::identity(3);
        let err = backend
            .gradient_into(&q, &qd, &qdd, &bad_minv, &mut out)
            .unwrap_err();
        assert!(err.to_string().contains("minv"));
    }

    #[test]
    fn engine_batch_matches_serial_through_trait() {
        let robot = robots::iiwa14();
        let cases: Vec<_> = (0..5).map(|k| case(&robot, 100 + k)).collect();
        let states: Vec<GradientState<'_, f64>> = cases
            .iter()
            .map(|(q, qd, qdd, minv)| GradientState { q, qd, qdd, minv })
            .collect();
        let backend = CpuAnalytic::<f64>::new(&robot);
        let mut batch = BatchOutput::new();
        gradient_batch_on_into(&backend, BatchEngine::global(), &states, &mut batch).unwrap();
        let mut serial = CpuAnalytic::<f64>::new(&robot);
        for (i, c) in cases.iter().enumerate() {
            let want = grad_of(&mut serial, c);
            let got = batch.gradient_at(i);
            assert_eq!(got.dqdd_dq, want.dqdd_dq);
            assert_eq!(got.dqdd_dqd, want.dqdd_dqd);
        }
    }

    #[test]
    fn wide_batch_into_is_bit_identical_to_serial() {
        let robot = robots::iiwa14();
        // 7 states: one full Lanes<_, 4> group plus a ragged tail of 3.
        let cases: Vec<_> = (0..7).map(|k| case(&robot, 400 + k)).collect();
        let states: Vec<GradientState<'_, f64>> = cases
            .iter()
            .map(|(q, qd, qdd, minv)| GradientState { q, qd, qdd, minv })
            .collect();
        let mut backend = CpuAnalytic::<f64>::new(&robot);
        let mut out = BatchOutput::new();
        backend.gradient_batch_into(&states, &mut out).unwrap();
        assert_eq!(out.count(), 7);
        assert_eq!(out.dof(), 7);
        let mut serial = CpuAnalytic::<f64>::new(&robot);
        for (i, c) in cases.iter().enumerate() {
            let want = grad_of(&mut serial, c);
            let got = out.gradient_at(i);
            assert_eq!(got.dqdd_dq, want.dqdd_dq, "state {i}");
            assert_eq!(got.dqdd_dqd, want.dqdd_dqd, "state {i}");
            assert_eq!(got.id_gradient.dtau_dq, want.id_gradient.dtau_dq);
            assert_eq!(got.id_gradient.dtau_dqd, want.id_gradient.dtau_dqd);
        }
    }

    #[test]
    fn engine_batch_into_matches_serial_batch_into() {
        let robot = robots::hyq();
        let cases: Vec<_> = (0..10).map(|k| case(&robot, 900 + k)).collect();
        let states: Vec<GradientState<'_, f64>> = cases
            .iter()
            .map(|(q, qd, qdd, minv)| GradientState { q, qd, qdd, minv })
            .collect();
        let backend = CpuAnalytic::<f64>::new(&robot);
        let engine = BatchEngine::new(3);
        let mut parallel = BatchOutput::new();
        gradient_batch_on_into(&backend, &engine, &states, &mut parallel).unwrap();
        let mut serial = BatchOutput::new();
        CpuAnalytic::<f64>::new(&robot)
            .gradient_batch_into(&states, &mut serial)
            .unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn finite_diff_batch_matches_its_single_calls() {
        let robot = robots::iiwa14();
        let cases: Vec<_> = (0..3).map(|k| case(&robot, 50 + k)).collect();
        let states: Vec<GradientState<'_, f64>> = cases
            .iter()
            .map(|(q, qd, qdd, minv)| GradientState { q, qd, qdd, minv })
            .collect();
        let mut fd = FiniteDiff::new(&robot);
        let mut out = BatchOutput::new();
        fd.gradient_batch_into(&states, &mut out).unwrap();
        for (i, c) in cases.iter().enumerate() {
            assert_eq!(out.gradient_at(i).dqdd_dq, grad_of(&mut fd, c).dqdd_dq);
        }
    }

    #[test]
    fn vector_kernels_fill_only_their_buffer() {
        let robot = robots::iiwa14();
        let cases: Vec<_> = (0..6).map(|k| case(&robot, 70 + k)).collect();
        let states: Vec<GradientState<'_, f64>> = cases
            .iter()
            .map(|(q, qd, qdd, minv)| GradientState { q, qd, qdd, minv })
            .collect();
        let mut cpu = CpuAnalytic::<f64>::new(&robot);
        let mut out = BatchOutput::new();
        cpu.run_batch_into(KernelKind::InverseDynamics, &states, &mut out)
            .unwrap();
        assert_eq!(
            (out.kernel(), out.tau.len(), out.qdd.len()),
            (KernelKind::InverseDynamics, 42, 0)
        );
        let model = DynamicsModel::<f64>::new(&robot);
        for (i, (q, qd, qdd, _)) in cases.iter().enumerate() {
            assert_eq!(
                out.tau_at(i),
                crate::rnea(&model, q, qd, qdd).tau.as_slice()
            );
        }
        let mut single = KernelOutput::new();
        let (q, qd, qdd, minv) = &cases[2];
        cpu.run_into(KernelKind::ForwardDynamics, q, qd, qdd, minv, &mut single)
            .unwrap();
        assert!(single.tau.is_empty() && single.qdd.len() == 7);
    }

    #[test]
    fn batch_into_propagates_dimension_errors() {
        let robot = robots::iiwa14();
        let (q, qd, qdd, minv) = case(&robot, 77);
        let bad = MatN::<f64>::identity(2);
        let states = [
            GradientState {
                q: &q,
                qd: &qd,
                qdd: &qdd,
                minv: &minv,
            },
            GradientState {
                q: &q,
                qd: &qd,
                qdd: &qdd,
                minv: &bad,
            },
        ];
        let mut backend = CpuAnalytic::<f64>::new(&robot);
        let mut out = BatchOutput::new();
        assert!(backend.gradient_batch_into(&states, &mut out).is_err());
        assert!(
            gradient_batch_on_into(&backend, BatchEngine::global(), &states, &mut out).is_err()
        );
        for kernel in KernelKind::ALL {
            assert!(backend.run_batch_into(kernel, &states, &mut out).is_err());
        }
    }

    #[test]
    fn forks_share_the_model() {
        let backend = CpuAnalytic::<f64>::new(&robots::iiwa14());
        let before = Arc::strong_count(backend.model());
        let fork = backend.fork();
        assert_eq!(Arc::strong_count(backend.model()), before + 1);
        assert_eq!(fork.dof(), 7);
    }
}
