//! [`WideScalar`]: the common surface of every wide (multi-state) scalar.
//!
//! PR 5's serving paths were hard-wired to the portable
//! [`Lanes<S, 4>`](crate::Lanes); this trait is what lets the portable and
//! native SIMD tiers share one code path. Anything that lane-transposes a
//! batch — the compiled-tape batch evaluator, the engine's lane-group
//! path, the accelerator's streaming interface — is written
//! against `V: WideScalar<Elem = S>` and receives the concrete lane type
//! for the active [`ExecTier`](crate::ExecTier) through
//! [`Scalar::dispatch_wide`](crate::Scalar::dispatch_wide).
//!
//! The trait deliberately adds *nothing* numerical: arithmetic comes from
//! the [`Scalar`] supertrait, and every implementor promises per-lane
//! bit-identity with scalar execution (see the `lanes` and `simd` module
//! docs for why that holds).

use crate::scalar::Scalar;
use crate::Lanes;

/// A [`Scalar`] that evaluates `WIDTH` independent per-state values of an
/// element scalar type per operation.
///
/// Implementors: the portable [`Lanes<S, W>`] (any element type, any
/// width) and the native SIMD lane types in the `simd` module (f64/f32
/// only). Fixed-point element types always ride `Lanes` — the Q16.16
/// datapath has no native vector unit on commodity CPUs, and portable
/// lane arithmetic already models the accelerator exactly.
///
/// # Examples
///
/// ```
/// use robo_spatial::{Lanes, Scalar, WideScalar};
///
/// fn sum_lanes<V: WideScalar>(v: V) -> f64 {
///     (0..V::WIDTH).map(|l| v.lane(l).to_f64()).sum()
/// }
///
/// assert_eq!(sum_lanes(Lanes::<f64, 4>::splat(1.5)), 6.0);
/// ```
pub trait WideScalar: Scalar {
    /// The per-lane element type.
    type Elem: Scalar;

    /// Number of independent lanes evaluated per operation.
    const WIDTH: usize;

    /// Broadcasts one element into every lane.
    fn splat(value: Self::Elem) -> Self;

    /// The value in lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= Self::WIDTH`.
    fn lane(&self, i: usize) -> Self::Elem;

    /// Overwrites lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= Self::WIDTH`.
    fn set_lane(&mut self, i: usize, value: Self::Elem);
}

impl<S: Scalar, const W: usize> WideScalar for Lanes<S, W> {
    type Elem = S;

    const WIDTH: usize = W;

    #[inline]
    fn splat(value: S) -> Self {
        Lanes::splat(value)
    }

    #[inline]
    fn lane(&self, i: usize) -> S {
        Lanes::lane(self, i)
    }

    #[inline]
    fn set_lane(&mut self, i: usize, value: S) {
        Lanes::set_lane(self, i, value);
    }
}

/// A visitor handed to [`Scalar::dispatch_wide`](crate::Scalar::dispatch_wide).
///
/// Tier dispatch has to turn a *runtime* [`ExecTier`](crate::ExecTier)
/// value into a *compile-time* wide type; the classic visitor shape does
/// that without boxing: the caller implements `WideVisit` for a small
/// struct carrying its arguments, and `dispatch_wide` calls
/// [`WideVisit::visit`] instantiated at the tier's lane type.
///
/// # Examples
///
/// ```
/// use robo_spatial::{ExecTier, Scalar, WideScalar, WideVisit};
///
/// struct WidthOf;
/// impl<S: Scalar> WideVisit<S> for WidthOf {
///     type Out = usize;
///     fn visit<V: WideScalar<Elem = S>>(self) -> usize {
///         V::WIDTH
///     }
/// }
///
/// // Portable tier always serves the default 4-lane bundle.
/// assert_eq!(f64::dispatch_wide(ExecTier::Portable, WidthOf), 4);
/// ```
pub trait WideVisit<S: Scalar> {
    /// The dispatch result, returned unchanged from [`WideVisit::visit`].
    type Out;

    /// Runs the visitor's body at a concrete wide lane type.
    fn visit<V: WideScalar<Elem = S>>(self) -> Self::Out;
}

/// Visitor returning the dispatched type's lane width — keeps
/// `Scalar::preferred_lanes` and `Scalar::dispatch_wide` consistent by
/// construction.
pub(crate) struct WidthOf;

impl<S: Scalar> WideVisit<S> for WidthOf {
    type Out = usize;

    fn visit<V: WideScalar<Elem = S>>(self) -> usize {
        V::WIDTH
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecTier;

    #[test]
    fn lanes_implements_wide_scalar() {
        let mut v = <Lanes<f64, 4> as WideScalar>::splat(2.0);
        assert_eq!(<Lanes<f64, 4> as WideScalar>::WIDTH, 4);
        WideScalar::set_lane(&mut v, 2, 7.5);
        assert_eq!(WideScalar::lane(&v, 2), 7.5);
        assert_eq!(WideScalar::lane(&v, 0), 2.0);
    }

    struct NameOf;
    impl<S: Scalar> WideVisit<S> for NameOf {
        type Out = (String, usize);
        fn visit<V: WideScalar<Elem = S>>(self) -> (String, usize) {
            (V::name(), V::WIDTH)
        }
    }

    #[test]
    fn portable_dispatch_serves_lanes() {
        let (name, width) = f64::dispatch_wide(ExecTier::Portable, NameOf);
        assert_eq!(width, 4);
        assert!(name.contains("Lanes"), "portable tier must serve Lanes");
    }

    #[test]
    fn preferred_width_matches_dispatch() {
        for tier in ExecTier::ALL {
            let (_, width) = f64::dispatch_wide(tier, NameOf);
            assert_eq!(width, f64::preferred_lanes(tier));
            let (_, width) = f32::dispatch_wide(tier, NameOf);
            assert_eq!(width, f32::preferred_lanes(tier));
        }
    }
}
