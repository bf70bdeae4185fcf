//! [`WideScalar`]: the lane surface the generic batch code is written
//! against.
//!
//! Anything that lane-transposes a batch — the compiled-tape batch
//! evaluator, the engine's lane-group path — reads and writes lanes
//! through this trait. The one implementor is the portable
//! [`Lanes<S, W>`](crate::Lanes); the served width is
//! [`SERVE_LANES`](crate::SERVE_LANES).
//!
//! The trait deliberately adds *nothing* numerical: arithmetic comes from
//! the [`Scalar`] supertrait, and `Lanes` is bit-identical, lane for
//! lane, to scalar execution (see the `lanes` module docs).

use crate::scalar::Scalar;
use crate::Lanes;

/// A [`Scalar`] that evaluates `WIDTH` independent per-state values of an
/// element scalar type per operation.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_implements_wide_scalar() {
        let mut v = <Lanes<f64, 4> as WideScalar>::splat(2.0);
        assert_eq!(<Lanes<f64, 4> as WideScalar>::WIDTH, 4);
        WideScalar::set_lane(&mut v, 2, 7.5);
        assert_eq!(WideScalar::lane(&v, 2), 7.5);
        assert_eq!(WideScalar::lane(&v, 0), 2.0);
    }
}
