//! Host provenance shared by trace files and bench reports.

/// Host provenance for a trace or benchmark report: what machine and
/// compiler the numbers came from. Absolute timings are machine-specific,
/// so the CI regression guard compares machine-relative speedup ratios —
/// but the host block makes any cross-machine comparison explicit in the
/// artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// CPU model string (from `/proc/cpuinfo` on Linux, else `unknown`).
    pub cpu_model: String,
    /// Comma-separated SIMD feature/tier summary (e.g. `sse2,avx2`).
    pub features: String,
    /// Available hardware parallelism (logical cores).
    pub cores: usize,
    /// `rustc --version` of the compiler that built the artifact.
    pub rustc: String,
    /// The host's SIMD tier ([`ExecTier`](robo_spatial::ExecTier)).
    pub tier: String,
}

impl HostInfo {
    /// Probes the current host.
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let mut features = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            features.push("sse2");
            if std::arch::is_x86_feature_detected!("avx2") {
                features.push("avx2");
            }
            if std::arch::is_x86_feature_detected!("fma") {
                // Present on the host, but never used by the kernels —
                // two-rounding semantics are part of the bit-identity
                // contract.
                features.push("fma(unused)");
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            features.push("neon");
        }
        Self {
            cpu_model,
            features: features.join(","),
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: env!("ROBO_TRACE_RUSTC").to_owned(),
            tier: robo_spatial::ExecTier::detect().to_string(),
        }
    }

    /// The provenance as `otherData` key/value pairs for a
    /// [`Trace`](crate::Trace), including the f64 lane width every wide
    /// path serves at ([`SERVE_LANES`](robo_spatial::SERVE_LANES)).
    pub fn trace_meta(&self) -> Vec<(String, String)> {
        let width = robo_spatial::SERVE_LANES;
        vec![
            ("cpu_model".to_owned(), self.cpu_model.clone()),
            ("features".to_owned(), self.features.clone()),
            ("cores".to_owned(), self.cores.to_string()),
            ("rustc".to_owned(), self.rustc.clone()),
            ("tier".to_owned(), self.tier.clone()),
            ("f64_lane_width".to_owned(), width.to_string()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_detection_populates_every_field() {
        let h = HostInfo::detect();
        assert!(!h.cpu_model.is_empty());
        assert!(h.cores >= 1);
        assert!(h.rustc.contains("rustc") || h.rustc == "unknown");
        assert_eq!(h.tier, robo_spatial::ExecTier::detect().to_string());
    }

    #[test]
    fn trace_meta_carries_tier_and_lane_width() {
        let meta = HostInfo::detect().trace_meta();
        let get = |k: &str| {
            meta.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .expect("key present")
        };
        assert_eq!(get("tier"), robo_spatial::ExecTier::detect().to_string());
        let width: usize = get("f64_lane_width").parse().unwrap();
        assert_eq!(width, robo_spatial::SERVE_LANES);
    }
}
