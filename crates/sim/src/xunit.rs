//! The `X·` transform matrix-vector functional unit, as hardware would
//! build it.
//!
//! Every entry of the joint transform `ᵢX_λᵢ(q) = X_J(q)·X_T` is *affine in
//! the joint trigonometry*: `x_ij = α_ij·cos q + β_ij·sin q + γ_ij`, with
//! the coefficients fixed per robot (for prismatic joints the same form
//! holds with `sin q := q`, `cos q := 1`). The hardware unit therefore is:
//! a bank of constant multipliers forming the live entries from the
//! `sin`/`cos` inputs, feeding a pruned tree of variable multipliers and
//! adders (Figure 7). [`XUnit`] is exactly that structure: coefficients
//! extracted at customization time, dead entries pruned by the structural
//! mask, evaluation generic over the (fixed-point) scalar.
//!
//! Since the netlist pipeline landed, the unit carries *two* evaluators of
//! the same circuit ([`XUnitBackend`]): the optimized netlist compiled to
//! a flat register tape (the default serving path — the identical IR the
//! Verilog backend lowers), and the original coefficient arithmetic (the
//! reference oracle, and the model of wide MAC accumulation). The two are
//! bit-identical in every scalar type because fold-eligible coefficients
//! are snapped to exact 0/±1 on both sides.

use robo_codegen::{
    generate_x_unit_with_mask, generate_xt_unit_with_mask, optimize, snap, CompiledNetlist,
    JitReport,
};
use robo_model::{JointType, RobotModel};
use robo_sparsity::{x_pattern, Mask6};
use robo_spatial::{Force, Motion, Scalar};

/// How a functional unit's dot-product trees accumulate partial products.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Accumulation {
    /// Round after every multiply: discrete multiplier + adder-tree
    /// hardware (the conservative model, and the default).
    #[default]
    PerOperation,
    /// Accumulate full-width products and round once: DSP-block MAC
    /// cascades (e.g. DSP48's 48-bit accumulator).
    Wide,
}

/// Which evaluator executes a unit's arithmetic.
///
/// Both backends model the same pruned circuit and produce bit-identical
/// results (the parity suites assert this); they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum XUnitBackend {
    /// The optimized netlist compiled to a flat register tape
    /// ([`CompiledNetlist`]) — the same IR the Verilog backend lowers, and
    /// the fast path (the default).
    #[default]
    Compiled,
    /// Direct evaluation from the cached affine coefficients — the
    /// reference oracle, and the only model of
    /// [`Wide`](Accumulation::Wide) accumulation.
    Coefficients,
}

/// Register budget for the stack-allocated file a compiled tape runs in
/// where it has no emitted function (fixed point, `Lanes<f32, 4>`, hosts
/// without the JIT): the interpreter's register file. The widest built-in
/// unit (a superposed Atlas joint) needs well under this; construction
/// asserts the bound so evaluation never re-checks it.
const STACK_REGS: usize = 96;

/// Coefficients of one matrix entry: `α·cos + β·sin + γ`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct EntryCoeffs<S> {
    alpha: S,
    beta: S,
    gamma: S,
}

/// A pruned transform matrix-vector unit for one joint, evaluating
/// `X(q)·m` and `X(q)ᵀ·f` from cached `sin q` / `cos q` inputs.
#[derive(Debug, Clone)]
pub struct XUnit<S> {
    coeffs: [[EntryCoeffs<S>; 6]; 6],
    mask: Mask6,
    joint: JointType,
    accumulation: Accumulation,
    backend: XUnitBackend,
    /// Compiled forward tape (`X·v`), from the optimized netlist.
    fwd: CompiledNetlist<S>,
    /// Compiled transposed tape (`Xᵀ·f`).
    bwd: CompiledNetlist<S>,
}

impl<S: Scalar> XUnit<S> {
    /// Builds the unit for joint `i` of `robot`, pruned to the joint's own
    /// structural pattern.
    pub fn for_joint(robot: &RobotModel, i: usize) -> Self {
        Self::with_mask(robot, i, x_pattern(robot, i))
    }

    /// Builds the unit for joint `i` with an explicit (e.g. superposed)
    /// mask, as the paper's shared `X·` unit does (§6.2).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the joint's own pattern is not contained
    /// in `mask` (the unit would compute wrong results).
    pub fn with_mask(robot: &RobotModel, i: usize, mask: Mask6) -> Self {
        debug_assert!(
            x_pattern(robot, i).is_subset_of(&mask),
            "mask must cover joint {i}'s structural pattern"
        );
        let fwd = CompiledNetlist::compile(&optimize(&generate_x_unit_with_mask(robot, i, mask)));
        let bwd = CompiledNetlist::compile(&optimize(&generate_xt_unit_with_mask(robot, i, mask)));
        assert!(
            fwd.num_regs() <= STACK_REGS && bwd.num_regs() <= STACK_REGS,
            "compiled unit exceeds the stack register budget"
        );
        Self {
            coeffs: affine_coeffs(robot, i),
            mask,
            joint: robot.links()[i].joint,
            accumulation: Accumulation::PerOperation,
            backend: XUnitBackend::Compiled,
            fwd,
            bwd,
        }
    }

    /// This unit (joint `i` of `robot`, the robot it was built for) at
    /// scalar type `T`, without regenerating its netlists: the
    /// coefficients are re-derived from the same snapped probes and the
    /// two tapes are cast ([`CompiledNetlist::cast`]). Bit-identical to
    /// [`XUnit::with_mask`] at `T`; the accumulation mode and evaluator
    /// carry over.
    pub fn cast<T: Scalar>(&self, robot: &RobotModel, i: usize) -> XUnit<T> {
        XUnit {
            coeffs: affine_coeffs(robot, i),
            mask: self.mask,
            joint: self.joint,
            accumulation: self.accumulation,
            backend: self.backend,
            fwd: self.fwd.cast(),
            bwd: self.bwd.cast(),
        }
    }

    /// The structural mask this unit was pruned to.
    pub fn mask(&self) -> &Mask6 {
        &self.mask
    }

    /// Sets the accumulation mode of the dot-product trees.
    pub fn set_accumulation(&mut self, accumulation: Accumulation) {
        self.accumulation = accumulation;
    }

    /// The current accumulation mode.
    pub fn accumulation(&self) -> Accumulation {
        self.accumulation
    }

    /// Selects which evaluator runs the unit's arithmetic.
    pub fn set_backend(&mut self, backend: XUnitBackend) {
        self.backend = backend;
    }

    /// The currently selected evaluator.
    pub fn backend(&self) -> XUnitBackend {
        self.backend
    }

    /// The JIT's emission report summed over both compiled tapes; `None`
    /// unless both run emitted code.
    pub fn jit_report(&self) -> Option<JitReport> {
        Some(self.fwd.jit_report()? + self.bwd.jit_report()?)
    }

    /// The compiled tape models per-operation rounding only; wide MAC
    /// accumulation always takes the coefficient path.
    #[inline]
    fn use_compiled(&self) -> bool {
        self.backend == XUnitBackend::Compiled && self.accumulation == Accumulation::PerOperation
    }

    /// Runs one of the compiled tapes on the stack: inputs in netlist
    /// declaration order (`sin_q`, `cos_q`, `v0..v5`), outputs `o0..o5`.
    /// Where the tape has an emitted function this is one call that keeps
    /// the values in registers and reads and writes the two arrays in
    /// place; only the interpreter needs the stack register file.
    #[inline]
    fn run_compiled(&self, tape: &CompiledNetlist<S>, sin_q: S, cos_q: S, v: [S; 6]) -> [S; 6] {
        let inputs = [sin_q, cos_q, v[0], v[1], v[2], v[3], v[4], v[5]];
        let mut out = [S::zero(); 6];
        if !tape.eval_emitted(&inputs, &mut out) {
            let mut regs = [S::zero(); STACK_REGS];
            tape.eval_into_regs_interp(&inputs, &mut regs, &mut out);
        }
        out
    }

    /// Forms the live matrix entries from the trig inputs (the constant
    /// multiplier bank). For prismatic joints pass `sin_q = q`,
    /// `cos_q = 1`; [`XUnit::inputs_for`] does this.
    fn entries(&self, sin_q: S, cos_q: S) -> [[S; 6]; 6] {
        let mut out = [[S::zero(); 6]; 6];
        for r in 0..6 {
            for c in 0..6 {
                if self.mask.m[r][c] {
                    let k = &self.coeffs[r][c];
                    out[r][c] = k.alpha * cos_q + k.beta * sin_q + k.gamma;
                }
            }
        }
        out
    }

    /// The `(sin, cos)` input pair for joint position `q`, handling the
    /// prismatic convention.
    pub fn inputs_for(&self, q: S) -> (S, S) {
        if self.joint.is_revolute() {
            (q.sin(), q.cos())
        } else {
            (q, S::one())
        }
    }

    #[inline]
    fn row_dot(&self, pairs: &[(S, S)]) -> S {
        match self.accumulation {
            Accumulation::PerOperation => pairs.iter().fold(S::zero(), |acc, (a, b)| acc + *a * *b),
            Accumulation::Wide => S::dot_accumulate(pairs),
        }
    }

    /// Evaluates `X(q)·m` through the pruned tree. Heap-free: a row never
    /// has more than six live products, so the pair list lives on the
    /// stack (like the hardware's fixed wiring).
    pub fn apply_motion(&self, sin_q: S, cos_q: S, m: Motion<S>) -> Motion<S> {
        if self.use_compiled() {
            return Motion::from_array(self.run_compiled(&self.fwd, sin_q, cos_q, m.to_array()));
        }
        let x = self.entries(sin_q, cos_q);
        let v = m.to_array();
        let mut out = [S::zero(); 6];
        let mut pairs = [(S::zero(), S::zero()); 6];
        for r in 0..6 {
            let mut len = 0;
            for c in 0..6 {
                if self.mask.m[r][c] {
                    pairs[len] = (x[r][c], v[c]);
                    len += 1;
                }
            }
            out[r] = self.row_dot(&pairs[..len]);
        }
        Motion::from_array(out)
    }

    /// Evaluates the backward-pass operation `X(q)ᵀ·f` through the same
    /// (transposed) tree. Heap-free, like [`XUnit::apply_motion`].
    pub fn tr_apply_force(&self, sin_q: S, cos_q: S, f: Force<S>) -> Force<S> {
        if self.use_compiled() {
            return Force::from_array(self.run_compiled(&self.bwd, sin_q, cos_q, f.to_array()));
        }
        let x = self.entries(sin_q, cos_q);
        let v = f.to_array();
        let mut out = [S::zero(); 6];
        let mut pairs = [(S::zero(), S::zero()); 6];
        for c in 0..6 {
            let mut len = 0;
            for r in 0..6 {
                if self.mask.m[r][c] {
                    pairs[len] = (x[r][c], v[r]);
                    len += 1;
                }
            }
            out[c] = self.row_dot(&pairs[..len]);
        }
        Force::from_array(out)
    }
}

/// The affine decomposition of joint `i`'s transform, `X(s,c) = c·A +
/// s·B + C`, recovered from three algebraic probe evaluations (s, c
/// treated as independent). Coefficients are snapped exactly like the
/// netlist generator's, so both backends model the identical folded
/// circuit (trig residues like cos(π/2) ≈ 6e-17 are dead wires in
/// hardware).
fn affine_coeffs<S: Scalar>(robot: &RobotModel, i: usize) -> [[EntryCoeffs<S>; 6]; 6] {
    let probe = |s: f64, c: f64| robot.joint_transform_sincos::<f64>(i, s, c).to_mat6();
    let m00 = probe(0.0, 0.0); // C
    let m01 = probe(0.0, 1.0); // A + C
    let m10 = probe(1.0, 0.0); // B + C
    core::array::from_fn(|r| {
        core::array::from_fn(|c| EntryCoeffs {
            alpha: S::from_f64(snap(m01.m[r][c] - m00.m[r][c])),
            beta: S::from_f64(snap(m10.m[r][c] - m00.m[r][c])),
            gamma: S::from_f64(snap(m00.m[r][c])),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use robo_fixed::Fix32_16;
    use robo_model::robots;
    use robo_sparsity::superposition_pattern;

    fn rand_motion(seed: &mut u64) -> Motion<f64> {
        let mut next = || {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((*seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        Motion::from_array([next(), next(), next(), next(), next(), next()])
    }

    #[test]
    fn matches_reference_transform_f64() {
        let robot = robots::iiwa14();
        let mut seed = 4;
        for i in 0..7 {
            let unit = XUnit::<f64>::for_joint(&robot, i);
            for q in [0.0, 0.7, -1.9, 2.4] {
                let x_ref = robot.joint_transform::<f64>(i, q);
                let m = rand_motion(&mut seed);
                let (s, c) = unit.inputs_for(q);
                let got = unit.apply_motion(s, c, m);
                let want = x_ref.apply_motion(m);
                assert!(
                    (got - want).max_abs() < 1e-12,
                    "joint {i} q={q}: {got:?} vs {want:?}"
                );
                let f = Force::new(m.ang, m.lin);
                let got_f = unit.tr_apply_force(s, c, f);
                let want_f = x_ref.tr_apply_force(f);
                assert!((got_f - want_f).max_abs() < 1e-12);
            }
        }
    }

    #[test]
    fn superposition_mask_gives_same_results() {
        // The shared unit covers every joint's pattern, so results match the
        // per-joint units exactly.
        let robot = robots::iiwa14();
        let sup = superposition_pattern(&robot);
        let mut seed = 9;
        for i in 0..7 {
            let own = XUnit::<f64>::for_joint(&robot, i);
            let shared = XUnit::<f64>::with_mask(&robot, i, sup);
            let m = rand_motion(&mut seed);
            let (s, c) = own.inputs_for(1.1);
            assert!((own.apply_motion(s, c, m) - shared.apply_motion(s, c, m)).max_abs() < 1e-12);
        }
    }

    #[test]
    fn prismatic_affine_in_q() {
        let robot = robots::serial_chain(3, robo_model::JointType::PrismaticY);
        let unit = XUnit::<f64>::for_joint(&robot, 1);
        let mut seed = 14;
        let m = rand_motion(&mut seed);
        for q in [0.0, 0.4, -0.8] {
            let (s, c) = unit.inputs_for(q);
            assert_eq!((s, c), (q, 1.0));
            let want = robot.joint_transform::<f64>(1, q).apply_motion(m);
            assert!((unit.apply_motion(s, c, m) - want).max_abs() < 1e-12);
        }
    }

    #[test]
    fn wide_accumulation_never_worse_for_narrow_types() {
        // DSP-cascade accumulation rounds once per row instead of once per
        // product: for a 6-fractional-bit type the row error shrinks.
        use robo_fixed::Fix14_6;
        let robot = robots::iiwa14();
        let mut seed = 55;
        let mut err_per_op = 0.0_f64;
        let mut err_wide = 0.0_f64;
        // Accumulated over many samples: a single rounding per row beats a
        // rounding per product on average (individual rows can go either
        // way).
        for trial in 0..64 {
            for i in 0..7 {
                let mut unit = XUnit::<Fix14_6>::for_joint(&robot, i);
                let m = rand_motion(&mut seed).scale(3.0);
                let q = 0.17 * trial as f64 - 1.9;
                let want = robot.joint_transform::<f64>(i, q).apply_motion(m);
                let (s, c) = unit.inputs_for(Fix14_6::from_f64(q));
                let per_op = unit.apply_motion(s, c, m.cast()).cast::<f64>();
                unit.set_accumulation(Accumulation::Wide);
                let wide = unit.apply_motion(s, c, m.cast()).cast::<f64>();
                err_per_op += (per_op - want).max_abs();
                err_wide += (wide - want).max_abs();
            }
        }
        assert!(
            err_wide < err_per_op,
            "mean wide error {err_wide:.3e} should beat per-op {err_per_op:.3e}"
        );
    }

    #[test]
    fn accumulation_modes_identical_in_f64() {
        let robot = robots::iiwa14();
        let mut unit = XUnit::<f64>::for_joint(&robot, 3);
        let m = Motion::from_array([0.4, -0.2, 0.9, 0.1, -0.6, 0.3]);
        let (s, c) = unit.inputs_for(0.8);
        let a = unit.apply_motion(s, c, m);
        unit.set_accumulation(Accumulation::Wide);
        let b = unit.apply_motion(s, c, m);
        assert!((a - b).max_abs() < 1e-15);
    }

    #[test]
    fn backends_bit_identical_across_scalars() {
        // The tentpole invariant: the compiled tape and the coefficient
        // oracle are the same circuit. f64 compares with == (±0 counts as
        // equal); fixed point is exact bit equality.
        let mut seed = 77;
        for robot in [robots::iiwa14(), robots::hyq()] {
            let sup = superposition_pattern(&robot);
            for i in 0..robot.dof() {
                for unit in [
                    XUnit::<f64>::for_joint(&robot, i),
                    XUnit::<f64>::with_mask(&robot, i, sup),
                ] {
                    let mut oracle = unit.clone();
                    oracle.set_backend(XUnitBackend::Coefficients);
                    assert_eq!(unit.backend(), XUnitBackend::Compiled);
                    for q in [0.0, 0.9, -2.3] {
                        let m = rand_motion(&mut seed);
                        let (s, c) = unit.inputs_for(q);
                        assert_eq!(
                            unit.apply_motion(s, c, m).to_array(),
                            oracle.apply_motion(s, c, m).to_array(),
                            "{} joint {i} q={q}",
                            robot.name()
                        );
                        let f = Force::new(m.ang, m.lin);
                        assert_eq!(
                            unit.tr_apply_force(s, c, f).to_array(),
                            oracle.tr_apply_force(s, c, f).to_array(),
                            "{} joint {i} q={q} (transpose)",
                            robot.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cast_units_match_freshly_built_ones() {
        use robo_spatial::Lanes;
        let robot = robots::hyq();
        let sup = superposition_pattern(&robot);
        for i in 0..robot.dof() {
            let unit = XUnit::<f64>::with_mask(&robot, i, sup);
            let cast = unit.cast::<Lanes<f64, 4>>(&robot, i);
            let fresh = XUnit::<Lanes<f64, 4>>::with_mask(&robot, i, sup);
            for (c, f) in [(&cast.fwd, &fresh.fwd), (&cast.bwd, &fresh.bwd)] {
                assert_eq!(
                    (c.tape_len(), c.num_regs(), c.jit_report()),
                    (f.tape_len(), f.num_regs(), f.jit_report()),
                    "joint {i}"
                );
            }
            assert_eq!(cast.coeffs, fresh.coeffs, "joint {i}");
            let m = Motion::from_array([0.3, -1.2, 0.7, 2.0, -0.4, 1e-310]).cast::<Lanes<f64, 4>>();
            let (s, c) = cast.inputs_for(Lanes::splat(0.8));
            assert_eq!(
                cast.apply_motion(s, c, m).to_array(),
                fresh.apply_motion(s, c, m).to_array()
            );
        }
    }

    #[test]
    fn backends_bit_identical_in_fixed_point() {
        let robot = robots::iiwa14();
        let mut seed = 101;
        for i in 0..7 {
            let unit = XUnit::<Fix32_16>::for_joint(&robot, i);
            let mut oracle = unit.clone();
            oracle.set_backend(XUnitBackend::Coefficients);
            let m = rand_motion(&mut seed).cast::<Fix32_16>();
            let (s, c) = unit.inputs_for(Fix32_16::from_f64(0.6));
            assert_eq!(
                unit.apply_motion(s, c, m).to_array(),
                oracle.apply_motion(s, c, m).to_array(),
                "joint {i}"
            );
            let f = Force::new(m.ang, m.lin);
            assert_eq!(
                unit.tr_apply_force(s, c, f).to_array(),
                oracle.tr_apply_force(s, c, f).to_array(),
                "joint {i} (transpose)"
            );
        }
    }

    #[test]
    fn wide_accumulation_bypasses_compiled_tape() {
        // The compiled tape models per-operation rounding; in Wide mode the
        // unit must route through the coefficient path's dot_accumulate.
        use robo_fixed::Fix14_6;
        let robot = robots::iiwa14();
        let mut wide = XUnit::<Fix14_6>::for_joint(&robot, 2);
        wide.set_accumulation(Accumulation::Wide);
        let mut oracle = wide.clone();
        oracle.set_backend(XUnitBackend::Coefficients);
        let m = Motion::from_array([1.9, -0.7, 0.4, 2.2, -1.1, 0.6]).cast::<Fix14_6>();
        let (s, c) = wide.inputs_for(Fix14_6::from_f64(1.2));
        assert_eq!(
            wide.apply_motion(s, c, m).to_array(),
            oracle.apply_motion(s, c, m).to_array()
        );
    }

    #[test]
    fn fixed_point_unit_close_to_reference() {
        let robot = robots::iiwa14();
        let mut seed = 23;
        for i in 0..7 {
            let unit = XUnit::<Fix32_16>::for_joint(&robot, i);
            let q = 0.9_f64;
            let m = rand_motion(&mut seed);
            let (s, c) = unit.inputs_for(Fix32_16::from_f64(q));
            let got = unit.apply_motion(s, c, m.cast()).cast::<f64>();
            let want = robot.joint_transform::<f64>(i, q).apply_motion(m);
            assert!(
                (got - want).max_abs() < 1e-3,
                "joint {i}: fixed-point error too large"
            );
        }
    }
}
