//! [`ExecTier`]: runtime-detected SIMD execution tiers.
//!
//! The paper's accelerator is specialized at *design* time; the software
//! serving paths in this workspace are specialized at *run* time instead,
//! by probing the host CPU once and routing every wide batch path through
//! the fastest native lane type the host supports. `ExecTier` names the
//! tiers; [`Scalar::dispatch_wide`](crate::Scalar::dispatch_wide) maps a
//! tier to a concrete wide scalar type per element type.
//!
//! Every tier is *bit-identical* to scalar execution (see the `simd`
//! module docs), so tier selection is purely a throughput decision — a
//! host without vector features silently serves the portable
//! [`Lanes`](crate::Lanes) fallback and produces the same bits.

use core::fmt;
use core::str::FromStr;

/// A SIMD execution tier, detected at runtime or forced by the caller.
///
/// Tier selection never changes results: all tiers are bit-identical to
/// scalar execution, so forcing a tier the host cannot accelerate (or
/// that does not exist on the target architecture) silently degrades to
/// portable lane arithmetic at the same width.
///
/// # Examples
///
/// ```
/// use robo_spatial::ExecTier;
///
/// let tier = ExecTier::detect();
/// assert!(ExecTier::ALL.contains(&tier));
/// assert_eq!("auto".parse::<ExecTier>().unwrap(), tier);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecTier {
    /// Portable `Lanes<S, W>` arithmetic — the universal fallback, relying
    /// on autovectorization only. Always available.
    Portable,
    /// x86-64 128-bit vectors (SSE2 is part of the x86-64 baseline, so
    /// this tier is available on every x86-64 host).
    Sse2,
    /// x86-64 256-bit vectors, used when the host reports AVX2 support.
    Avx2,
    /// AArch64 128-bit vectors (NEON is part of the AArch64 baseline).
    Neon,
    /// An alias for [`ExecTier::detect`], kept for source compatibility
    /// only (no tier name parses to it): [`ExecTier::clamp_to_host`] maps
    /// it to the detected tier. The template JIT is not a tier: every
    /// compiled tape whose lane type has an inline lowering runs emitted
    /// code at every tier.
    Jit,
}

impl ExecTier {
    /// Every tier, in ascending width order, for CLI help and reports
    /// (the [`ExecTier::Jit`] alias is not a tier of its own).
    pub const ALL: [ExecTier; 4] = [
        ExecTier::Portable,
        ExecTier::Sse2,
        ExecTier::Avx2,
        ExecTier::Neon,
    ];

    /// Probes the host CPU and returns the widest supported tier.
    ///
    /// x86-64 hosts report [`ExecTier::Avx2`] when the CPU advertises
    /// AVX2 and [`ExecTier::Sse2`] otherwise; AArch64 hosts report
    /// [`ExecTier::Neon`]; everything else gets [`ExecTier::Portable`].
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

    /// Whether this tier can actually run natively on the current host.
    ///
    /// [`ExecTier::Portable`] is always supported; the native tiers
    /// require the matching architecture (and, for AVX2, the runtime
    /// feature bit).
    pub fn supported_on_host(self) -> bool {
        match self {
            ExecTier::Portable => true,
            ExecTier::Sse2 => cfg!(target_arch = "x86_64"),
            ExecTier::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            ExecTier::Neon => cfg!(target_arch = "aarch64"),
            // An alias, never a tier of its own: it clamps to `detect()`.
            ExecTier::Jit => false,
        }
    }

    /// This tier if the host supports it, otherwise the next-widest tier
    /// that the host does support; the [`ExecTier::Jit`] alias maps to
    /// [`ExecTier::detect`].
    ///
    /// Used by plan constructors so that an explicitly requested tier
    /// (e.g. `--tier avx2` from the CLI) degrades gracefully instead of
    /// erroring on hosts without the feature.
    pub fn clamp_to_host(self) -> Self {
        if self.supported_on_host() {
            return self;
        }
        match self {
            ExecTier::Jit => ExecTier::detect(),
            ExecTier::Avx2 if ExecTier::Sse2.supported_on_host() => ExecTier::Sse2,
            _ => ExecTier::Portable,
        }
    }

    /// The `f64` SIMD lane width this tier serves wide batches at: the
    /// width [`Scalar::dispatch_wide`](crate::Scalar::dispatch_wide)
    /// selects for `f64` (AVX2 `F64x4` → 4, SSE2/NEON 128-bit → 2, the
    /// portable fallback → [`SERVE_LANES`](crate::SERVE_LANES)).
    ///
    /// Recorded as trace/report lane metadata so artifacts state the
    /// width their throughput numbers were measured at.
    pub fn f64_lane_width(self) -> usize {
        match self {
            ExecTier::Portable => crate::SERVE_LANES,
            ExecTier::Sse2 | ExecTier::Neon => 2,
            ExecTier::Avx2 => 4,
            ExecTier::Jit => ExecTier::detect().f64_lane_width(),
        }
    }

    /// The lower-case tier name used by the CLI and bench reports.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecTier::Portable => "portable",
            ExecTier::Sse2 => "sse2",
            ExecTier::Avx2 => "avx2",
            ExecTier::Neon => "neon",
            ExecTier::Jit => "jit",
        }
    }
}

impl fmt::Display for ExecTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error from parsing an [`ExecTier`] name: the input was not one of the
/// valid tier names. [`Display`](fmt::Display) lists every accepted name
/// so CLI surfaces can show it verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTierError {
    input: String,
}

impl ParseTierError {
    /// The unrecognized tier name, exactly as given.
    pub fn input(&self) -> &str {
        &self.input
    }

    /// Every name [`ExecTier::from_str`] accepts, in help order.
    pub fn valid_names() -> impl Iterator<Item = &'static str> {
        ["auto"]
            .into_iter()
            .chain(ExecTier::ALL.map(ExecTier::as_str))
    }
}

impl fmt::Display for ParseTierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown execution tier `{}` (expected ", self.input)?;
        for (i, name) in Self::valid_names().enumerate() {
            if i > 0 {
                f.write_str(" | ")?;
            }
            f.write_str(name)?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for ParseTierError {}

impl FromStr for ExecTier {
    type Err = ParseTierError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "portable" => Ok(ExecTier::Portable),
            "sse2" => Ok(ExecTier::Sse2),
            "avx2" => Ok(ExecTier::Avx2),
            "neon" => Ok(ExecTier::Neon),
            "auto" => Ok(ExecTier::detect()),
            other => Err(ParseTierError {
                input: other.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_supported_and_stable() {
        let tier = ExecTier::detect();
        assert!(tier.supported_on_host());
        assert_eq!(tier, ExecTier::detect());
        assert_eq!(tier.clamp_to_host(), tier);
    }

    #[test]
    fn round_trips_through_strings() {
        for tier in ExecTier::ALL {
            assert_eq!(tier.as_str().parse::<ExecTier>(), Ok(tier));
            assert_eq!(tier.to_string(), tier.as_str());
        }
        assert_eq!("auto".parse::<ExecTier>(), Ok(ExecTier::detect()));
        assert!("avx512".parse::<ExecTier>().is_err());
    }

    #[test]
    fn clamping_always_lands_on_a_supported_tier() {
        for tier in ExecTier::ALL {
            assert!(tier.clamp_to_host().supported_on_host());
        }
    }

    #[test]
    fn portable_is_always_supported() {
        assert!(ExecTier::Portable.supported_on_host());
    }

    #[test]
    fn detect_never_returns_the_jit_alias() {
        // `auto` must keep resolving to a plain SIMD tier so trace
        // metadata and defaults stay stable.
        assert_ne!(ExecTier::detect(), ExecTier::Jit);
    }

    #[test]
    fn jit_is_an_alias_for_the_detected_tier() {
        assert_eq!(ExecTier::Jit.clamp_to_host(), ExecTier::detect());
        assert!(!ExecTier::ALL.contains(&ExecTier::Jit));
        assert!("jit".parse::<ExecTier>().is_err());
        assert_eq!(
            ExecTier::Jit.f64_lane_width(),
            ExecTier::detect().f64_lane_width()
        );
    }

    #[test]
    fn unknown_tier_error_lists_the_valid_names() {
        let err = "avx512".parse::<ExecTier>().unwrap_err();
        assert_eq!(err.input(), "avx512");
        assert_eq!(
            err.to_string(),
            "unknown execution tier `avx512` (expected auto | portable | sse2 | avx2 | neon)"
        );
        // Every advertised name actually parses.
        for name in ParseTierError::valid_names() {
            assert!(name.parse::<ExecTier>().is_ok(), "`{name}` must parse");
        }
    }
}
