//! The [`Scalar`] abstraction over arithmetic types.
//!
//! Everything in this workspace — spatial algebra, rigid body dynamics, the
//! simulated accelerator — is generic over a scalar type so that the same
//! algorithms can run in `f64` (reference), `f32`, or the Q-format
//! fixed-point types the hardware accelerator uses (see the `robo-fixed`
//! crate). This mirrors the paper's Figure 12 experiment, which compares
//! optimization convergence across numeric types.

use core::fmt::{Debug, Display};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An arithmetic scalar usable throughout the dynamics and accelerator code.
///
/// Implementations exist for [`f32`], [`f64`], and the fixed-point types in
/// `robo-fixed`. Transcendental functions default to a round trip through
/// `f64`; this is deliberate and faithful to the paper, where the `sin`/`cos`
/// of joint positions are *inputs* to the accelerator ("cached from an
/// earlier stage of the optimization algorithm", §5.1) rather than computed
/// in fixed point on the datapath.
///
/// # Examples
///
/// ```
/// use robo_spatial::Scalar;
///
/// fn hypot_sq<S: Scalar>(a: S, b: S) -> S {
///     a * a + b * b
/// }
///
/// assert_eq!(hypot_sq(3.0_f64, 4.0_f64), 25.0);
/// ```
pub trait Scalar:
    Copy
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Send
    + Sync
    + 'static
{
    /// Human-readable name of the numeric type, used in experiment reports
    /// (e.g. `"f32"`, `"Fixed{16,16}"`).
    fn name() -> String;

    /// The additive identity.
    fn zero() -> Self;

    /// The multiplicative identity.
    fn one() -> Self;

    /// Converts from `f64`, rounding to the nearest representable value.
    fn from_f64(value: f64) -> Self;

    /// Converts to `f64` exactly (all implementations are ≤ 64 bits wide).
    fn to_f64(self) -> f64;

    /// Smallest positive representable increment near 1.0, used by tests to
    /// scale error tolerances to the numeric type.
    fn resolution() -> f64;

    /// Absolute value.
    fn abs(self) -> Self {
        if self < Self::zero() {
            -self
        } else {
            self
        }
    }

    /// The larger of `self` and `other`.
    fn max(self, other: Self) -> Self {
        if self < other {
            other
        } else {
            self
        }
    }

    /// The smaller of `self` and `other`.
    fn min(self, other: Self) -> Self {
        if other < self {
            other
        } else {
            self
        }
    }

    /// Square root. Defaults to a round trip through `f64`.
    fn sqrt(self) -> Self {
        Self::from_f64(self.to_f64().sqrt())
    }

    /// Sine. Defaults to a round trip through `f64` (see trait docs).
    fn sin(self) -> Self {
        Self::from_f64(self.to_f64().sin())
    }

    /// Cosine. Defaults to a round trip through `f64` (see trait docs).
    fn cos(self) -> Self {
        Self::from_f64(self.to_f64().cos())
    }

    /// Whether the value is finite and arithmetic on it has not overflowed.
    ///
    /// Fixed-point types return `false` once a computation has saturated;
    /// floats return [`f64::is_finite`].
    fn is_valid(self) -> bool {
        self.to_f64().is_finite()
    }

    /// Sum of products `Σ aᵢ·bᵢ` with a *wide accumulator*.
    ///
    /// The default rounds after every multiply (`fold` of `*` and `+`) —
    /// the behavior of discrete multiplier/adder trees. Fixed-point types
    /// override [`Scalar::dot_accumulate_from`] to accumulate the
    /// full-width products and round once, modeling a DSP-block MAC cascade
    /// (e.g. the 48-bit accumulators of Xilinx DSP48 slices) — the same dot
    /// product, one rounding error instead of `n`.
    fn dot_accumulate(terms: &[(Self, Self)]) -> Self {
        Self::dot_accumulate_from(terms.iter().copied())
    }

    /// Iterator form of [`Scalar::dot_accumulate`] — the override point for
    /// types with a genuinely wide accumulator. The iterator form lets
    /// wide-lane wrappers feed one lane's terms through without building a
    /// per-lane slice.
    fn dot_accumulate_from(terms: impl Iterator<Item = (Self, Self)>) -> Self {
        terms.fold(Self::zero(), |acc, (a, b)| acc + a * b)
    }
}

macro_rules! impl_scalar_float {
    ($t:ty, $name:literal, $res:expr) => {
        impl Scalar for $t {
            fn name() -> String {
                $name.to_owned()
            }

            #[inline]
            fn zero() -> Self {
                0.0
            }

            #[inline]
            fn one() -> Self {
                1.0
            }

            #[inline]
            fn from_f64(value: f64) -> Self {
                value as $t
            }

            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }

            fn resolution() -> f64 {
                $res
            }

            #[inline]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }

            #[inline]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }

            #[inline]
            fn sin(self) -> Self {
                <$t>::sin(self)
            }

            #[inline]
            fn cos(self) -> Self {
                <$t>::cos(self)
            }

            #[inline]
            fn is_valid(self) -> bool {
                self.is_finite()
            }
        }
    };
}

impl_scalar_float!(f32, "f32", f32::EPSILON as f64);
impl_scalar_float!(f64, "f64", f64::EPSILON);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_identities() {
        assert_eq!(f64::zero(), 0.0);
        assert_eq!(f64::one(), 1.0);
        assert_eq!(<f32 as Scalar>::name(), "f32");
        assert_eq!(<f64 as Scalar>::name(), "f64");
    }

    #[test]
    fn conversion_round_trip() {
        let x = 1.25_f64;
        assert_eq!(f32::from_f64(x).to_f64(), 1.25);
        assert_eq!(f64::from_f64(x).to_f64(), 1.25);
    }

    #[test]
    fn default_abs_min_max() {
        assert_eq!(Scalar::abs(-2.0_f64), 2.0);
        assert_eq!(Scalar::max(1.0_f64, 2.0), 2.0);
        assert_eq!(Scalar::min(1.0_f64, 2.0), 1.0);
    }

    #[test]
    fn trig_matches_std() {
        let x = 0.7_f64;
        assert!((Scalar::sin(x) - x.sin()).abs() < 1e-15);
        assert!((Scalar::cos(x) - x.cos()).abs() < 1e-15);
    }

    #[test]
    fn validity() {
        assert!(1.0_f64.is_valid());
        assert!(!f64::NAN.is_valid());
        assert!(!f32::INFINITY.is_valid());
    }
}
