//! Native SIMD lane types behind the same [`Scalar`] trait.
//!
//! The portable [`Lanes<S, W>`](crate::Lanes) fallback relies on the
//! compiler autovectorizing its elementwise inner loops; the types in
//! this module issue real `core::arch` vector instructions instead, one
//! per architecture tier (see [`ExecTier`](crate::ExecTier)):
//!
//! * x86-64 [`F64x2`] / [`F32x4`] — 128-bit SSE/SSE2 vectors. SSE2 is
//!   part of the x86-64 baseline ABI, so these inline into *every*
//!   generic kernel without runtime checks.
//! * x86-64 [`F64x4`] / [`F32x8`] — 32-byte-aligned lane bundles sized
//!   for 256-bit AVX2 registers. Their `Scalar` arithmetic is portable
//!   (AVX2 code cannot be inlined into unattributed callers, so intrinsic
//!   operators would *slow down* generic kernels); the AVX2 wins come
//!   from `robo-codegen`'s template JIT, which lowers compiled tapes over
//!   these bundles to VEX.256 `ymm` arithmetic on AVX2 hosts, and from
//!   its AVX2 batch transposes. The alignment and the distinct `TypeId`
//!   are what these wrappers contribute.
//! * AArch64 [`F64x2`] / [`F32x4`] — 128-bit NEON vectors (baseline on
//!   AArch64).
//!
//! # Bit-identity, and why FMA is refused
//!
//! Every type here keeps the `Lanes` contract: a wide computation is
//! bit-identical, lane for lane, to `WIDTH` independent scalar runs.
//! That holds because each operation is *exactly* the scalar operation,
//! elementwise:
//!
//! * `+ - * / sqrt` vector instructions are IEEE-754 correctly rounded,
//!   the same operation the scalar ALU performs per lane;
//! * `neg`/`abs` are exact sign-bit manipulations, matching `-x` and
//!   `f64::abs` (NaNs included);
//! * `min`/`max` are implemented as compare-and-blend sequences that
//!   replicate the [`Scalar`] *default* branches (`if self < other …`)
//!   per lane — **not** `minpd`/`maxpd`, whose NaN and `±0.0` semantics
//!   differ from the scalar defaults;
//! * `sin`/`cos` fall back to per-lane scalar calls;
//! * comparisons use the same product order as `Lanes`, so
//!   value-dependent branches in generic code fire only when every lane
//!   agrees.
//!
//! Fused multiply-add instructions are never emitted, even on hosts with
//! FMA units: the compiled tape's fused ops (`MulAdd` and friends) are
//! *dispatch* fusions that preserve both rounding steps, and contracting
//! them to one rounding would silently diverge from the scalar oracle.
//! Bit-identity across tiers is what lets the test suite compare any
//! tier against plain scalar runs with `to_bits()` equality.

#![allow(clippy::needless_range_loop)]

use crate::scalar::Scalar;
use crate::wide::WideScalar;
use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Structural boilerplate shared by every native lane type: constructors
/// and lane accessors, `Default`, `Display`, the product-order
/// `PartialOrd`, assign-op forwarding, and the `WideScalar` impl.
macro_rules! wide_struct_common {
    ($t:ident, $elem:ty, $w:expr) => {
        impl $t {
            /// Bundles `WIDTH` per-state values (lane `l` holds state
            /// `l`'s value).
            pub fn new(lanes: [$elem; $w]) -> Self {
                Self(lanes)
            }

            /// Broadcasts one value into every lane.
            pub fn splat(value: $elem) -> Self {
                Self([value; $w])
            }

            /// The value in lane `i`.
            ///
            /// # Panics
            ///
            /// Panics if `i >= WIDTH`.
            pub fn lane(&self, i: usize) -> $elem {
                self.0[i]
            }

            /// Overwrites lane `i`.
            ///
            /// # Panics
            ///
            /// Panics if `i >= WIDTH`.
            pub fn set_lane(&mut self, i: usize, value: $elem) {
                self.0[i] = value;
            }

            /// All lanes, in order.
            pub fn lanes(&self) -> &[$elem; $w] {
                &self.0
            }

            #[inline]
            #[allow(dead_code)]
            fn map(self, f: impl Fn($elem) -> $elem) -> Self {
                Self(core::array::from_fn(|i| f(self.0[i])))
            }

            #[inline]
            #[allow(dead_code)]
            fn zip(self, rhs: Self, f: impl Fn($elem, $elem) -> $elem) -> Self {
                Self(core::array::from_fn(|i| f(self.0[i], rhs.0[i])))
            }
        }

        impl Default for $t {
            fn default() -> Self {
                Self::splat(<$elem>::default())
            }
        }

        impl fmt::Display for $t {
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

        /// The product order, exactly as on `Lanes`: `Less`/`Greater`
        /// only when every lane agrees, `None` when lanes disagree.
        impl PartialOrd for $t {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                let mut has_lt = false;
                let mut has_gt = false;
                for i in 0..$w {
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

        impl AddAssign for $t {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }

        impl SubAssign for $t {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }

        impl MulAssign for $t {
            #[inline]
            fn mul_assign(&mut self, rhs: Self) {
                *self = *self * rhs;
            }
        }

        impl DivAssign for $t {
            #[inline]
            fn div_assign(&mut self, rhs: Self) {
                *self = *self / rhs;
            }
        }

        impl WideScalar for $t {
            type Elem = $elem;

            const WIDTH: usize = $w;

            #[inline]
            fn splat(value: $elem) -> Self {
                $t::splat(value)
            }

            #[inline]
            fn lane(&self, i: usize) -> $elem {
                $t::lane(self, i)
            }

            #[inline]
            fn set_lane(&mut self, i: usize, value: $elem) {
                $t::set_lane(self, i, value);
            }
        }
    };
}

/// The `Scalar` impl shared by every native lane type. The caller must
/// supply `abs`, `min`, `max`, and `sqrt` (intrinsic or per-lane) —
/// leaving the trait defaults would be *wrong* for a wide type (the
/// defaults branch on the product order and `sqrt` would splat lane 0).
macro_rules! wide_scalar_common {
    ($t:ident, $elem:ty, $w:expr, $name:literal, $($rest:item)*) => {
        impl Scalar for $t {
            fn name() -> String {
                $name.to_owned()
            }

            #[inline]
            fn zero() -> Self {
                Self::splat(<$elem as Scalar>::zero())
            }

            #[inline]
            fn one() -> Self {
                Self::splat(<$elem as Scalar>::one())
            }

            /// Broadcasts, so constants cast at plan-build time are
            /// identical in every lane.
            #[inline]
            fn from_f64(value: f64) -> Self {
                Self::splat(<$elem as Scalar>::from_f64(value))
            }

            /// Lane 0 — a wide value has no single `f64` reduction.
            #[inline]
            fn to_f64(self) -> f64 {
                self.0[0].to_f64()
            }

            fn resolution() -> f64 {
                <$elem as Scalar>::resolution()
            }

            #[inline]
            fn sin(self) -> Self {
                self.map(<$elem as Scalar>::sin)
            }

            #[inline]
            fn cos(self) -> Self {
                self.map(<$elem as Scalar>::cos)
            }

            fn is_valid(self) -> bool {
                self.0.iter().all(|v| v.is_valid())
            }

            /// Per-lane wide accumulation, keeping parity with the
            /// element type's accumulator model.
            fn dot_accumulate(terms: &[(Self, Self)]) -> Self {
                Self(core::array::from_fn(|l| {
                    <$elem as Scalar>::dot_accumulate_from(
                        terms.iter().map(|(a, b)| (a.0[l], b.0[l])),
                    )
                }))
            }

            $($rest)*
        }
    };
}

/// Portable per-lane `abs`/`min`/`max`/`sqrt` items, for lane types whose
/// arithmetic is portable (the AVX2-width bundles) — passed into
/// [`wide_scalar_common!`].
macro_rules! portable_lane_fns {
    ($t:ident, $elem:ty, $w:expr, $name:literal) => {
        wide_scalar_common! {
            $t, $elem, $w, $name,
            #[inline]
            fn abs(self) -> Self {
                self.map(<$elem as Scalar>::abs)
            }
            #[inline]
            fn max(self, other: Self) -> Self {
                self.zip(other, <$elem as Scalar>::max)
            }
            #[inline]
            fn min(self, other: Self) -> Self {
                self.zip(other, <$elem as Scalar>::min)
            }
            #[inline]
            fn sqrt(self) -> Self {
                self.map(<$elem as Scalar>::sqrt)
            }
        }
    };
}

/// Portable elementwise operator impls (for the AVX2-width bundles — see
/// the module docs for why their operators are *not* intrinsics).
macro_rules! portable_ops {
    ($t:ident) => {
        impl Add for $t {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                self.zip(rhs, |a, b| a + b)
            }
        }
        impl Sub for $t {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                self.zip(rhs, |a, b| a - b)
            }
        }
        impl Mul for $t {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                self.zip(rhs, |a, b| a * b)
            }
        }
        impl Div for $t {
            type Output = Self;
            #[inline]
            fn div(self, rhs: Self) -> Self {
                self.zip(rhs, |a, b| a / b)
            }
        }
        impl Neg for $t {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                self.map(|a| -a)
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// Two `f64` lanes in one 128-bit SSE2 register.
    ///
    /// SSE2 is part of the x86-64 baseline ABI, so the intrinsic
    /// operators below are sound on every x86-64 host and inline into
    /// unattributed generic code.
    #[derive(Clone, Copy, Debug, PartialEq)]
    #[repr(C, align(16))]
    pub struct F64x2(pub(crate) [f64; 2]);

    /// Four `f32` lanes in one 128-bit SSE register.
    #[derive(Clone, Copy, Debug, PartialEq)]
    #[repr(C, align(16))]
    pub struct F32x4(pub(crate) [f32; 4]);

    /// Four `f64` lanes, 32-byte aligned for 256-bit AVX2 loads.
    ///
    /// Arithmetic is portable (see the module docs); `robo-codegen`'s
    /// JIT-emitted tapes are what touch these with `ymm` instructions.
    #[derive(Clone, Copy, Debug, PartialEq)]
    #[repr(C, align(32))]
    pub struct F64x4(pub(crate) [f64; 4]);

    /// Eight `f32` lanes, 32-byte aligned for 256-bit AVX2 loads.
    #[derive(Clone, Copy, Debug, PartialEq)]
    #[repr(C, align(32))]
    pub struct F32x8(pub(crate) [f32; 8]);

    wide_struct_common!(F64x2, f64, 2);
    wide_struct_common!(F32x4, f32, 4);
    wide_struct_common!(F64x4, f64, 4);
    wide_struct_common!(F32x8, f32, 8);

    impl F64x2 {
        #[inline(always)]
        fn v(self) -> __m128d {
            // SAFETY: `sse2` is statically enabled on every x86-64
            // target, and `self.0` is a valid, 16-byte-aligned
            // (`repr(align(16))`) array of two `f64`s — exactly the
            // memory `_mm_load_pd` reads.
            unsafe { _mm_load_pd(self.0.as_ptr()) }
        }

        #[inline(always)]
        fn from_v(v: __m128d) -> Self {
            let mut out = Self([0.0; 2]);
            // SAFETY: `sse2` is statically enabled on every x86-64
            // target; `out.0` is valid and 16-byte aligned for a
            // two-`f64` store.
            unsafe { _mm_store_pd(out.0.as_mut_ptr(), v) };
            out
        }
    }

    impl F32x4 {
        #[inline(always)]
        fn v(self) -> __m128 {
            // SAFETY: `sse` is statically enabled on every x86-64
            // target; `self.0` is a valid, 16-byte-aligned array of four
            // `f32`s — exactly the memory `_mm_load_ps` reads.
            unsafe { _mm_load_ps(self.0.as_ptr()) }
        }

        #[inline(always)]
        fn from_v(v: __m128) -> Self {
            let mut out = Self([0.0; 4]);
            // SAFETY: `sse` is statically enabled on every x86-64
            // target; `out.0` is valid and 16-byte aligned for a
            // four-`f32` store.
            unsafe { _mm_store_ps(out.0.as_mut_ptr(), v) };
            out
        }
    }

    /// One intrinsic binary operator. Each intrinsic is a pure
    /// register-to-register elementwise IEEE-754 operation — never an
    /// FMA — so each lane computes exactly what the scalar op computes.
    macro_rules! sse_binop {
        ($t:ident, $trait:ident, $method:ident, $intr:ident) => {
            impl $trait for $t {
                type Output = Self;

                #[inline(always)]
                fn $method(self, rhs: Self) -> Self {
                    // SAFETY: `sse`/`sse2` are statically enabled on
                    // every x86-64 target, so the required target
                    // feature is always present.
                    Self::from_v(unsafe { $intr(self.v(), rhs.v()) })
                }
            }
        };
    }

    sse_binop!(F64x2, Add, add, _mm_add_pd);
    sse_binop!(F64x2, Sub, sub, _mm_sub_pd);
    sse_binop!(F64x2, Mul, mul, _mm_mul_pd);
    sse_binop!(F64x2, Div, div, _mm_div_pd);
    sse_binop!(F32x4, Add, add, _mm_add_ps);
    sse_binop!(F32x4, Sub, sub, _mm_sub_ps);
    sse_binop!(F32x4, Mul, mul, _mm_mul_ps);
    sse_binop!(F32x4, Div, div, _mm_div_ps);

    impl Neg for F64x2 {
        type Output = Self;

        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: `sse2` is statically enabled on every x86-64
            // target. XOR with the sign mask is the exact IEEE sign flip
            // that scalar `-x` performs per lane (NaNs included).
            Self::from_v(unsafe { _mm_xor_pd(self.v(), _mm_set1_pd(-0.0)) })
        }
    }

    impl Neg for F32x4 {
        type Output = Self;

        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: `sse` is statically enabled on every x86-64
            // target. XOR with the sign mask is the exact IEEE sign flip
            // that scalar `-x` performs per lane (NaNs included).
            Self::from_v(unsafe { _mm_xor_ps(self.v(), _mm_set1_ps(-0.0)) })
        }
    }

    wide_scalar_common! {
        F64x2, f64, 2, "F64x2(sse2)",
        #[inline(always)]
        fn abs(self) -> Self {
            // SAFETY: `sse2` is statically enabled on every x86-64
            // target. ANDNOT with the sign mask clears the sign bit,
            // exactly `f64::abs` per lane (NaNs included).
            Self::from_v(unsafe { _mm_andnot_pd(_mm_set1_pd(-0.0), self.v()) })
        }
        #[inline(always)]
        fn max(self, other: Self) -> Self {
            // Per-lane `if self < other { other } else { self }` via
            // compare-and-blend — NOT `maxpd`, whose NaN/±0.0 semantics
            // differ from the Scalar default this must reproduce.
            // SAFETY: `sse2` is statically enabled on every x86-64
            // target; all four intrinsics are elementwise bitwise ops.
            unsafe {
                let (a, b) = (self.v(), other.v());
                let lt = _mm_cmplt_pd(a, b);
                Self::from_v(_mm_or_pd(_mm_and_pd(lt, b), _mm_andnot_pd(lt, a)))
            }
        }
        #[inline(always)]
        fn min(self, other: Self) -> Self {
            // Per-lane `if other < self { other } else { self }`.
            // SAFETY: as for `max` above.
            unsafe {
                let (a, b) = (self.v(), other.v());
                let lt = _mm_cmplt_pd(b, a);
                Self::from_v(_mm_or_pd(_mm_and_pd(lt, b), _mm_andnot_pd(lt, a)))
            }
        }
        #[inline(always)]
        fn sqrt(self) -> Self {
            // SAFETY: `sse2` is statically enabled on every x86-64
            // target. `sqrtpd` is IEEE correctly rounded — the same
            // operation `f64::sqrt` lowers to, per lane.
            Self::from_v(unsafe { _mm_sqrt_pd(self.v()) })
        }
    }

    wide_scalar_common! {
        F32x4, f32, 4, "F32x4(sse)",
        #[inline(always)]
        fn abs(self) -> Self {
            // SAFETY: `sse` is statically enabled on every x86-64
            // target. ANDNOT with the sign mask clears the sign bit,
            // exactly `f32::abs` per lane (NaNs included).
            Self::from_v(unsafe { _mm_andnot_ps(_mm_set1_ps(-0.0), self.v()) })
        }
        #[inline(always)]
        fn max(self, other: Self) -> Self {
            // Per-lane `if self < other { other } else { self }` via
            // compare-and-blend (see `F64x2::max`).
            // SAFETY: `sse` is statically enabled on every x86-64
            // target; all four intrinsics are elementwise bitwise ops.
            unsafe {
                let (a, b) = (self.v(), other.v());
                let lt = _mm_cmplt_ps(a, b);
                Self::from_v(_mm_or_ps(_mm_and_ps(lt, b), _mm_andnot_ps(lt, a)))
            }
        }
        #[inline(always)]
        fn min(self, other: Self) -> Self {
            // Per-lane `if other < self { other } else { self }`.
            // SAFETY: as for `max` above.
            unsafe {
                let (a, b) = (self.v(), other.v());
                let lt = _mm_cmplt_ps(b, a);
                Self::from_v(_mm_or_ps(_mm_and_ps(lt, b), _mm_andnot_ps(lt, a)))
            }
        }
        #[inline(always)]
        fn sqrt(self) -> Self {
            // SAFETY: `sse` is statically enabled on every x86-64
            // target. `sqrtps` is IEEE correctly rounded — the same
            // operation `f32::sqrt` lowers to, per lane.
            Self::from_v(unsafe { _mm_sqrt_ps(self.v()) })
        }
    }

    portable_ops!(F64x4);
    portable_ops!(F32x8);
    portable_lane_fns!(F64x4, f64, 4, "F64x4(avx2)");
    portable_lane_fns!(F32x8, f32, 8, "F32x8(avx2)");
}

#[cfg(target_arch = "x86_64")]
pub use x86::{F32x4, F32x8, F64x2, F64x4};

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::*;
    use core::arch::aarch64::*;

    /// Two `f64` lanes in one 128-bit NEON register (NEON is part of the
    /// AArch64 baseline, so these intrinsics are sound on every AArch64
    /// host and inline into unattributed generic code).
    #[derive(Clone, Copy, Debug, PartialEq)]
    #[repr(C, align(16))]
    pub struct F64x2(pub(crate) [f64; 2]);

    /// Four `f32` lanes in one 128-bit NEON register.
    #[derive(Clone, Copy, Debug, PartialEq)]
    #[repr(C, align(16))]
    pub struct F32x4(pub(crate) [f32; 4]);

    wide_struct_common!(F64x2, f64, 2);
    wide_struct_common!(F32x4, f32, 4);

    impl F64x2 {
        #[inline(always)]
        fn v(self) -> float64x2_t {
            // SAFETY: `neon` is statically enabled on every AArch64
            // target; `self.0` is a valid array of two `f64`s, exactly
            // the memory `vld1q_f64` reads.
            unsafe { vld1q_f64(self.0.as_ptr()) }
        }

        #[inline(always)]
        fn from_v(v: float64x2_t) -> Self {
            let mut out = Self([0.0; 2]);
            // SAFETY: `neon` is statically enabled on every AArch64
            // target; `out.0` is valid for a two-`f64` store.
            unsafe { vst1q_f64(out.0.as_mut_ptr(), v) };
            out
        }
    }

    impl F32x4 {
        #[inline(always)]
        fn v(self) -> float32x4_t {
            // SAFETY: `neon` is statically enabled on every AArch64
            // target; `self.0` is a valid array of four `f32`s, exactly
            // the memory `vld1q_f32` reads.
            unsafe { vld1q_f32(self.0.as_ptr()) }
        }

        #[inline(always)]
        fn from_v(v: float32x4_t) -> Self {
            let mut out = Self([0.0; 4]);
            // SAFETY: `neon` is statically enabled on every AArch64
            // target; `out.0` is valid for a four-`f32` store.
            unsafe { vst1q_f32(out.0.as_mut_ptr(), v) };
            out
        }
    }

    /// One intrinsic binary operator; each is a pure elementwise
    /// IEEE-754 operation (never an FMA).
    macro_rules! neon_binop {
        ($t:ident, $trait:ident, $method:ident, $intr:ident) => {
            impl $trait for $t {
                type Output = Self;

                #[inline(always)]
                fn $method(self, rhs: Self) -> Self {
                    // SAFETY: `neon` is statically enabled on every
                    // AArch64 target, so the required target feature is
                    // always present.
                    Self::from_v(unsafe { $intr(self.v(), rhs.v()) })
                }
            }
        };
    }

    neon_binop!(F64x2, Add, add, vaddq_f64);
    neon_binop!(F64x2, Sub, sub, vsubq_f64);
    neon_binop!(F64x2, Mul, mul, vmulq_f64);
    neon_binop!(F64x2, Div, div, vdivq_f64);
    neon_binop!(F32x4, Add, add, vaddq_f32);
    neon_binop!(F32x4, Sub, sub, vsubq_f32);
    neon_binop!(F32x4, Mul, mul, vmulq_f32);
    neon_binop!(F32x4, Div, div, vdivq_f32);

    impl Neg for F64x2 {
        type Output = Self;

        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: `neon` is statically enabled on every AArch64
            // target. FNEG is the exact IEEE sign flip that scalar `-x`
            // performs per lane (NaNs included).
            Self::from_v(unsafe { vnegq_f64(self.v()) })
        }
    }

    impl Neg for F32x4 {
        type Output = Self;

        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: `neon` is statically enabled on every AArch64
            // target. FNEG is the exact IEEE sign flip that scalar `-x`
            // performs per lane (NaNs included).
            Self::from_v(unsafe { vnegq_f32(self.v()) })
        }
    }

    // `abs`/`min`/`max`/`sqrt` stay per-lane portable on NEON: the
    // vector min/max instructions have IEEE minNum/maxNum NaN semantics
    // that differ from the Scalar defaults, and per-lane calls keep the
    // (CI-uncovered) AArch64 path trivially bit-identical.
    portable_lane_fns!(F64x2, f64, 2, "F64x2(neon)");
    portable_lane_fns!(F32x4, f32, 4, "F32x4(neon)");
}

#[cfg(target_arch = "aarch64")]
pub use neon::{F32x4, F64x2};

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;

    /// Tricky values: signed zeros, NaN, infinities, subnormals, and
    /// ordinary magnitudes that exercise rounding.
    const CASES: [f64; 10] = [
        0.0,
        -0.0,
        1.0,
        -3.5,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        0.1,
        -1.0e300,
    ];

    fn b(x: f64) -> u64 {
        x.to_bits()
    }

    #[test]
    fn f64x2_ops_match_scalar_bitwise() {
        for &x in &CASES {
            for &y in &CASES {
                let a = F64x2::new([x, y]);
                let c = F64x2::new([y, x]);
                for l in 0..2 {
                    let (sa, sc) = (a.lane(l), c.lane(l));
                    assert_eq!(b((a + c).lane(l)), b(sa + sc));
                    assert_eq!(b((a - c).lane(l)), b(sa - sc));
                    assert_eq!(b((a * c).lane(l)), b(sa * sc));
                    assert_eq!(b((a / c).lane(l)), b(sa / sc));
                    assert_eq!(b((-a).lane(l)), b(-sa));
                    assert_eq!(b(a.abs().lane(l)), b(sa.abs()));
                    assert_eq!(b(Scalar::max(a, c).lane(l)), b(Scalar::max(sa, sc)));
                    assert_eq!(b(Scalar::min(a, c).lane(l)), b(Scalar::min(sa, sc)));
                }
            }
        }
    }

    #[test]
    fn f64x2_sqrt_matches_scalar_bitwise() {
        for &x in &CASES {
            if x.is_nan() || x < 0.0 {
                // NaN payloads of invalid sqrt operands are not pinned
                // by IEEE; the kernels never take sqrt of negatives.
                continue;
            }
            let a = F64x2::splat(x);
            assert_eq!(b(Scalar::sqrt(a).lane(0)), b(x.sqrt()));
            assert_eq!(b(Scalar::sqrt(a).lane(1)), b(x.sqrt()));
        }
    }

    #[test]
    fn f32x4_ops_match_scalar_bitwise() {
        let cases: Vec<f32> = CASES.iter().map(|&x| x as f32).collect();
        for &x in &cases {
            for &y in &cases {
                let a = F32x4::new([x, y, -x, y + 1.0]);
                let c = F32x4::new([y, x, y - 2.0, -x]);
                for l in 0..4 {
                    let (sa, sc) = (a.lane(l), c.lane(l));
                    assert_eq!(b(f64::from((a + c).lane(l))), b(f64::from(sa + sc)));
                    assert_eq!(b(f64::from((a * c).lane(l))), b(f64::from(sa * sc)));
                    assert_eq!(b(f64::from((a / c).lane(l))), b(f64::from(sa / sc)));
                    assert_eq!(b(f64::from((-a).lane(l))), b(f64::from(-sa)));
                    assert_eq!(b(f64::from(a.abs().lane(l))), b(f64::from(sa.abs())));
                    assert_eq!(
                        b(f64::from(Scalar::max(a, c).lane(l))),
                        b(f64::from(Scalar::max(sa, sc)))
                    );
                    assert_eq!(
                        b(f64::from(Scalar::min(a, c).lane(l))),
                        b(f64::from(Scalar::min(sa, sc)))
                    );
                }
            }
        }
    }

    #[test]
    fn min_max_keep_scalar_branch_semantics_not_native_minpd() {
        // The Scalar default `max` returns `self` when the comparison is
        // false — so max(NaN, 1.0) is NaN, while `maxpd` would give 1.0.
        let nan = F64x2::splat(f64::NAN);
        let one = F64x2::splat(1.0);
        assert!(Scalar::max(nan, one).lane(0).is_nan());
        assert!(Scalar::min(nan, one).lane(0).is_nan());
        assert_eq!(b(Scalar::max(one, nan).lane(0)), b(1.0));
        // Signed zeros: -0.0 < 0.0 is false, so max(-0.0, 0.0) = -0.0.
        let pz = F64x2::splat(0.0);
        let nz = F64x2::splat(-0.0);
        assert_eq!(b(Scalar::max(nz, pz).lane(0)), b(-0.0));
        assert_eq!(b(Scalar::min(pz, nz).lane(0)), b(0.0));
    }

    #[test]
    fn avx2_width_bundles_are_elementwise_and_aligned() {
        assert_eq!(core::mem::align_of::<F64x4>(), 32);
        assert_eq!(core::mem::align_of::<F32x8>(), 32);
        let a = F64x4::new([1.0, -2.0, 3.5, 0.0]);
        let c = F64x4::new([0.5, 4.0, -1.0, 2.0]);
        for l in 0..4 {
            assert_eq!(b((a + c).lane(l)), b(a.lane(l) + c.lane(l)));
            assert_eq!(b((a - c).lane(l)), b(a.lane(l) - c.lane(l)));
            assert_eq!(b((a * c).lane(l)), b(a.lane(l) * c.lane(l)));
            assert_eq!(b((a / c).lane(l)), b(a.lane(l) / c.lane(l)));
            assert_eq!(b((-a).lane(l)), b(-a.lane(l)));
        }
    }

    #[test]
    fn product_order_and_splat_match_lanes_semantics() {
        let lo = F64x2::new([1.0, 2.0]);
        let hi = F64x2::new([3.0, 4.0]);
        let mixed = F64x2::new([5.0, 0.0]);
        assert!(lo < hi);
        assert_eq!(lo.partial_cmp(&mixed), None);
        assert_eq!(F64x2::from_f64(0.3).lane(1), 0.3);
        assert_eq!(F64x2::from_f64(0.3).to_f64(), 0.3);
        assert!(!F64x2::new([1.0, f64::NAN]).is_valid());
    }

    #[test]
    fn dot_accumulate_matches_scalar_per_lane() {
        let terms: Vec<(F64x2, F64x2)> = (0..5)
            .map(|k| {
                let k = f64::from(k);
                (
                    F64x2::new([0.3 * k, -1.1 * k]),
                    F64x2::new([2.0 - k, 0.7 * k]),
                )
            })
            .collect();
        let wide = F64x2::dot_accumulate(&terms);
        for l in 0..2 {
            let scalar: Vec<(f64, f64)> =
                terms.iter().map(|(a, b)| (a.lane(l), b.lane(l))).collect();
            assert_eq!(b(wide.lane(l)), b(f64::dot_accumulate(&scalar)));
        }
    }
}
