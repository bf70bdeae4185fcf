//! [`Lanes`]: a portable wide scalar evaluating `W` independent states per
//! operation.
//!
//! The paper's accelerator wins partly by exploiting data-level parallelism
//! the CPU leaves idle; `Lanes<S, W>` recovers some of it in software.
//! Every generic kernel in this workspace — the RNEA and gradient workspace
//! kernels, the functional accelerator simulation, the compiled netlist
//! tapes — is written over [`Scalar`], so instantiating them at
//! `Lanes<S, W>` runs `W` states through the *same* instruction stream at
//! once, with elementwise inner loops the compiler autovectorizes (the
//! structure-of-arrays serving path GRiD applies to batched rigid-body
//! gradients).
//!
//! # Per-lane bit-identity
//!
//! A `Lanes<S, W>` computation is bit-identical, lane for lane, to `W`
//! independent scalar runs, because:
//!
//! * every arithmetic op and every overridden function (`abs`, `min`,
//!   `max`, `sqrt`, `sin`, `cos`, [`Scalar::dot_accumulate`]) is exactly
//!   elementwise;
//! * [`Scalar::from_f64`] splats, so plan constants (model inertias,
//!   netlist coefficient tables) are identical in every lane;
//! * comparisons ([`PartialOrd`]) use the *product order*: a lane-wise
//!   branch can only be taken when **all** lanes agree, and the few
//!   value-dependent branches in the kernels (the zero-skip in
//!   `MatN::mul_mat`) are no-ops for the lanes that would have skipped.
//!
//! The one intentional asymmetry: [`Scalar::to_f64`] returns lane 0 (a wide
//! value has no single `f64` reduction); batch plumbing reads lanes out
//! explicitly via [`Lanes::lane`].

use crate::scalar::Scalar;
use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The one serving width: every wide batch path runs
/// `Lanes<S, SERVE_LANES>` (`Lanes<f64, 4>` fills one AVX2 register and
/// keeps tail overhead low for the paper's trajectory batch sizes).
pub const SERVE_LANES: usize = 4;

/// A fixed-width bundle of `W` independent scalar values, itself a
/// [`Scalar`].
///
/// # Examples
///
/// ```
/// use robo_spatial::{Lanes, Scalar};
///
/// let a = Lanes::<f64, 4>::new([1.0, 2.0, 3.0, 4.0]);
/// let b = Lanes::<f64, 4>::splat(10.0);
/// let c = a * b + a;
/// assert_eq!(c.lane(2), 33.0);
/// ```
///
/// `repr(C, align(32))`: the lanes are contiguous from offset 0 and every
/// bundle starts on a 32-byte boundary, so `Lanes<f64, 4>` is exactly one
/// aligned `ymm` register. `robo-codegen`'s VEX.256 JIT row and its AVX2
/// batch transposes (aligned loads and stores) rely on that layout.
/// Bundles narrower than 32 bytes are padded up to it.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(32))]
pub struct Lanes<S, const W: usize>([S; W]);

impl<S: Scalar, const W: usize> Lanes<S, W> {
    /// Bundles `W` per-state values (lane `l` holds state `l`'s value).
    pub fn new(lanes: [S; W]) -> Self {
        Self(lanes)
    }

    /// Broadcasts one value into every lane — how plan constants enter the
    /// wide domain.
    pub fn splat(value: S) -> Self {
        Self([value; W])
    }

    /// Builds a bundle lane by lane.
    pub fn from_fn(f: impl FnMut(usize) -> S) -> Self {
        Self(core::array::from_fn(f))
    }

    /// The value in lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= W`.
    pub fn lane(&self, i: usize) -> S {
        self.0[i]
    }

    /// Overwrites lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= W`.
    pub fn set_lane(&mut self, i: usize, value: S) {
        self.0[i] = value;
    }

    /// All lanes, in order.
    pub fn lanes(&self) -> &[S; W] {
        &self.0
    }

    #[inline]
    fn map(self, f: impl Fn(S) -> S) -> Self {
        Self(core::array::from_fn(|i| f(self.0[i])))
    }

    #[inline]
    fn zip(self, rhs: Self, f: impl Fn(S, S) -> S) -> Self {
        Self(core::array::from_fn(|i| f(self.0[i], rhs.0[i])))
    }
}

impl<S: Scalar, const W: usize> Default for Lanes<S, W> {
    fn default() -> Self {
        Self::splat(S::default())
    }
}

impl<S: Scalar, const W: usize> fmt::Display for Lanes<S, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// The product order: `Less`/`Greater` only when every lane agrees (lanes
/// comparing `Equal` go along with either side), `None` when lanes
/// disagree. Value-dependent branches in generic code therefore fire only
/// when they would fire in every scalar run.
impl<S: Scalar, const W: usize> PartialOrd for Lanes<S, W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        let mut has_lt = false;
        let mut has_gt = false;
        for i in 0..W {
            match self.0[i].partial_cmp(&other.0[i])? {
                Ordering::Less => has_lt = true,
                Ordering::Greater => has_gt = true,
                Ordering::Equal => {}
            }
        }
        match (has_lt, has_gt) {
            (false, false) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (true, true) => None,
        }
    }
}

macro_rules! impl_lanes_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident) => {
        impl<S: Scalar, const W: usize> $trait for Lanes<S, W> {
            type Output = Self;

            #[inline]
            fn $method(self, rhs: Self) -> Self {
                self.zip(rhs, |a, b| a.$method(b))
            }
        }

        impl<S: Scalar, const W: usize> $assign_trait for Lanes<S, W> {
            #[inline]
            fn $assign_method(&mut self, rhs: Self) {
                *self = self.$method(rhs);
            }
        }
    };
}

impl_lanes_binop!(Add, add, AddAssign, add_assign);
impl_lanes_binop!(Sub, sub, SubAssign, sub_assign);
impl_lanes_binop!(Mul, mul, MulAssign, mul_assign);
impl_lanes_binop!(Div, div, DivAssign, div_assign);

impl<S: Scalar, const W: usize> Neg for Lanes<S, W> {
    type Output = Self;

    #[inline]
    fn neg(self) -> Self {
        self.map(|a| -a)
    }
}

impl<S: Scalar, const W: usize> Scalar for Lanes<S, W> {
    fn name() -> String {
        format!("Lanes<{}, {W}>", S::name())
    }

    #[inline]
    fn zero() -> Self {
        Self::splat(S::zero())
    }

    #[inline]
    fn one() -> Self {
        Self::splat(S::one())
    }

    /// Broadcasts, so constants cast at plan-build time are identical in
    /// every lane.
    #[inline]
    fn from_f64(value: f64) -> Self {
        Self::splat(S::from_f64(value))
    }

    /// Lane 0 — a wide value has no single `f64` reduction; batch plumbing
    /// extracts lanes explicitly.
    #[inline]
    fn to_f64(self) -> f64 {
        self.0[0].to_f64()
    }

    fn resolution() -> f64 {
        S::resolution()
    }

    #[inline]
    fn abs(self) -> Self {
        self.map(S::abs)
    }

    #[inline]
    fn max(self, other: Self) -> Self {
        self.zip(other, S::max)
    }

    #[inline]
    fn min(self, other: Self) -> Self {
        self.zip(other, S::min)
    }

    #[inline]
    fn sqrt(self) -> Self {
        self.map(S::sqrt)
    }

    #[inline]
    fn sin(self) -> Self {
        self.map(S::sin)
    }

    #[inline]
    fn cos(self) -> Self {
        self.map(S::cos)
    }

    fn is_valid(self) -> bool {
        self.0.iter().all(|v| v.is_valid())
    }

    /// Per-lane wide accumulation: lane `l` sees exactly the scalar type's
    /// [`Scalar::dot_accumulate`] over its own terms (one rounding for
    /// fixed point), keeping the `Wide` accumulation mode bit-identical to
    /// scalar runs.
    fn dot_accumulate(terms: &[(Self, Self)]) -> Self {
        Self(core::array::from_fn(|l| {
            S::dot_accumulate_from(terms.iter().map(|(a, b)| (a.0[l], b.0[l])))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_elementwise() {
        let a = Lanes::<f64, 4>::new([1.0, -2.0, 3.5, 0.0]);
        let b = Lanes::<f64, 4>::new([0.5, 4.0, -1.0, 2.0]);
        for i in 0..4 {
            assert_eq!((a + b).lane(i), a.lane(i) + b.lane(i));
            assert_eq!((a - b).lane(i), a.lane(i) - b.lane(i));
            assert_eq!((a * b).lane(i), a.lane(i) * b.lane(i));
            assert_eq!((a / b).lane(i), a.lane(i) / b.lane(i));
            assert_eq!((-a).lane(i), -a.lane(i));
            assert_eq!(a.abs().lane(i), a.lane(i).abs());
            assert_eq!(a.sin().lane(i), a.lane(i).sin());
        }
    }

    #[test]
    fn four_f64_lanes_are_one_aligned_ymm_register() {
        // The JIT's VEX.256 row scales displacements by 32 bytes and the
        // AVX2 transposes use aligned loads and stores on the register
        // file; both need exactly this layout.
        assert_eq!(core::mem::size_of::<Lanes<f64, 4>>(), 32);
        assert_eq!(core::mem::align_of::<Lanes<f64, 4>>(), 32);
    }

    #[test]
    fn from_f64_splats_and_to_f64_reads_lane_zero() {
        let x = Lanes::<f32, 8>::from_f64(0.3);
        assert!(x.lanes().iter().all(|v| *v == 0.3_f32));
        assert_eq!(x.to_f64(), f64::from(0.3_f32));
    }

    #[test]
    fn product_order_requires_agreement() {
        let lo = Lanes::<f64, 2>::new([1.0, 2.0]);
        let hi = Lanes::<f64, 2>::new([3.0, 4.0]);
        let mixed = Lanes::<f64, 2>::new([5.0, 0.0]);
        assert!(lo < hi);
        assert!(hi > lo);
        assert_eq!(lo.partial_cmp(&lo), Some(Ordering::Equal));
        assert_eq!(lo.partial_cmp(&mixed), None);
        // Equal lanes defer to the rest.
        let tied = Lanes::<f64, 2>::new([1.0, 3.0]);
        assert!(lo < tied);
    }

    #[test]
    fn nan_lanes_compare_as_none_and_invalidate() {
        let a = Lanes::<f64, 2>::new([1.0, f64::NAN]);
        let b = Lanes::<f64, 2>::splat(1.0);
        assert_eq!(a.partial_cmp(&b), None);
        assert!(!a.is_valid());
        assert!(b.is_valid());
    }

    #[test]
    fn dot_accumulate_matches_scalar_per_lane() {
        let terms: Vec<(Lanes<f64, 2>, Lanes<f64, 2>)> = (0..5)
            .map(|k| {
                let k = f64::from(k);
                (
                    Lanes::new([0.3 * k, -1.1 * k]),
                    Lanes::new([2.0 - k, 0.7 * k]),
                )
            })
            .collect();
        let wide = Lanes::dot_accumulate(&terms);
        for l in 0..2 {
            let scalar: Vec<(f64, f64)> =
                terms.iter().map(|(a, b)| (a.lane(l), b.lane(l))).collect();
            assert_eq!(wide.lane(l), f64::dot_accumulate(&scalar));
        }
    }
}
