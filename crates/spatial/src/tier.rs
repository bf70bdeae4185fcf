//! [`ExecTier`]: the SIMD tier the host CPU reports, as metadata.
//!
//! Nothing selects a lane type at run time: every wide path is
//! [`Lanes<S, SERVE_LANES>`](crate::Lanes), fixed at compile time as the
//! paper fixes an accelerator's datapath width at design time. The tier
//! names what the host's vector unit is, so traces and bench reports can
//! say which machine their numbers came from (on x86-64, whether the
//! template JIT's VEX.256 row for `Lanes<f64, 4>` is available).

use core::fmt;

/// The host's SIMD tier, reported in trace and bench provenance blocks.
///
/// # Examples
///
/// ```
/// use robo_spatial::ExecTier;
///
/// assert_eq!(ExecTier::detect(), ExecTier::detect());
/// assert_ne!(ExecTier::detect().to_string(), "jit");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecTier {
    /// No vector unit the workspace knows of.
    Portable,
    /// x86-64 without AVX2 (SSE2 is part of the x86-64 baseline).
    Sse2,
    /// x86-64 with AVX2.
    Avx2,
    /// AArch64 (NEON is part of the AArch64 baseline).
    Neon,
    /// Never detected; kept only because the benchmark's probes still
    /// compare against it.
    Jit,
}

impl ExecTier {
    /// Probes the host CPU: [`ExecTier::Avx2`] or [`ExecTier::Sse2`] on
    /// x86-64, [`ExecTier::Neon`] on AArch64, [`ExecTier::Portable`]
    /// elsewhere.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                ExecTier::Avx2
            } else {
                ExecTier::Sse2
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            ExecTier::Neon
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            ExecTier::Portable
        }
    }
}

impl fmt::Display for ExecTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExecTier::Portable => "portable",
            ExecTier::Sse2 => "sse2",
            ExecTier::Avx2 => "avx2",
            ExecTier::Neon => "neon",
            ExecTier::Jit => "jit",
        })
    }
}
