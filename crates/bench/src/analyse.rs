//! Statistics for the perf-study harness: per-key medians with bootstrap
//! confidence intervals over N trials, report tables (text + markdown),
//! and the one CI regression gate.
//!
//! Two input kinds feed the `analyse` binary:
//!
//! * [`BenchReport`] JSON artifacts (`BENCH_*.json`, one per trial) — the
//!   per-bench medians and machine-relative speedup ratios;
//! * Chrome-trace JSON files written by `robo-trace` — every span
//!   instance becomes a duration sample for its span kind.
//!
//! The gate compares speedup ratios and latency percentiles (and, on
//! request, every median — only meaningful same-machine) against a
//! baseline report. Every key must pass three rules at once:
//!
//! * the **band**: the median across trials stays within
//!   [`GateConfig::band`] (default 30%) of the baseline;
//! * the **interval**: with at least [`GateConfig::min_trials`] samples,
//!   the whole bootstrap confidence interval must not clear the baseline
//!   by more than [`GateConfig::ci_slack`] (default 10%);
//! * the **floor**: a speedup the baseline records as a win (≥
//!   [`GateConfig::floor`], default 1.0) must stay one in the median —
//!   "the optimized path silently became the slow path" fails even
//!   against a generous baseline.
//!
//! A gated baseline key that no trial reports fails too, by name:
//! deleting or renaming a bench key must not silently un-gate it.

use crate::report::{is_latency_key, latency_stem, median, BenchReport, Table};
use crate::report::{LATENCY_P50_SUFFIX, LATENCY_P99_SUFFIX};
use robo_trace::Trace;

/// Summary of one sample set: the median and a bootstrap percentile
/// confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Sample count.
    pub n: usize,
    /// Sample median.
    pub median: f64,
    /// Lower edge of the 95% bootstrap CI (equals the median for n = 1).
    pub lo: f64,
    /// Upper edge of the 95% bootstrap CI.
    pub hi: f64,
}

/// Bootstrap resamples drawn per CI. 200 keeps the percentile edges
/// stable to well under the jitter the gate tolerates.
const BOOTSTRAP_RESAMPLES: usize = 200;

/// SplitMix64: a tiny deterministic generator (fixed seed, so analyse
/// output is reproducible run to run — the workspace has no rand crate).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Stats {
    /// Computes the median and a 95% bootstrap percentile CI of the
    /// medians of `BOOTSTRAP_RESAMPLES` (200) resamples.
    ///
    /// A single sample gets a degenerate interval (`lo == hi == median`):
    /// one observation carries no spread information, which is why the
    /// gate's interval rule waits for [`GateConfig::min_trials`] samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "stats of no samples");
        let mut sorted = samples.to_vec();
        let med = median(&mut sorted);
        if samples.len() == 1 {
            return Self {
                n: 1,
                median: med,
                lo: med,
                hi: med,
            };
        }
        let mut rng = 0x5EED_BEEF_CAFE_F00D_u64;
        let mut meds = Vec::with_capacity(BOOTSTRAP_RESAMPLES);
        let mut resample = vec![0.0; samples.len()];
        for _ in 0..BOOTSTRAP_RESAMPLES {
            for slot in resample.iter_mut() {
                *slot = samples[(splitmix64(&mut rng) % samples.len() as u64) as usize];
            }
            meds.push(median(&mut resample));
        }
        meds.sort_by(|a, b| a.partial_cmp(b).expect("comparable samples"));
        // 95% percentile interval: the 2.5th and 97.5th percentiles.
        let lo = meds[(BOOTSTRAP_RESAMPLES as f64 * 0.025) as usize];
        let hi = meds[((BOOTSTRAP_RESAMPLES as f64 * 0.975) as usize).min(meds.len() - 1)];
        Self {
            n: samples.len(),
            median: med,
            lo,
            hi,
        }
    }

    fn interval(&self) -> String {
        if self.n == 1 {
            "—".to_owned()
        } else {
            format!("[{:.3}, {:.3}]", self.lo, self.hi)
        }
    }
}

/// Per-key sample sets accumulated across trial files.
#[derive(Debug, Clone, Default)]
pub struct KeyedSamples {
    entries: Vec<(String, Vec<f64>)>,
}

impl KeyedSamples {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one observation for `key` (insertion order of first
    /// appearance is preserved).
    pub fn push(&mut self, key: &str, value: f64) {
        match self.entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => v.push(value),
            None => self.entries.push((key.to_owned(), vec![value])),
        }
    }

    /// The samples recorded for `key`.
    pub fn get(&self, key: &str) -> Option<&[f64]> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
    }

    /// All keys with their [`Stats`], in first-appearance order.
    pub fn stats(&self) -> Vec<(String, Stats)> {
        self.entries
            .iter()
            .map(|(k, v)| (k.clone(), Stats::from_samples(v)))
            .collect()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Splits N trial reports into per-key median and speedup sample sets.
pub fn bench_samples(trials: &[BenchReport]) -> (KeyedSamples, KeyedSamples) {
    let mut medians = KeyedSamples::new();
    let mut speedups = KeyedSamples::new();
    for r in trials {
        for (k, v) in r.medians() {
            medians.push(k, *v);
        }
        for (k, v) in r.speedups() {
            speedups.push(k, *v);
        }
    }
    (medians, speedups)
}

/// Flattens traces into per-span-kind duration samples (µs): every span
/// instance across every file is one sample.
pub fn trace_samples(traces: &[Trace]) -> KeyedSamples {
    let mut out = KeyedSamples::new();
    for t in traces {
        for (name, durs) in t.durations_us_by_name() {
            for d in durs {
                out.push(&name, d);
            }
        }
    }
    out
}

/// Gate policy: how current trials compare against the committed
/// baseline (see the [module docs](self) for the three rules).
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Largest relative move of the median in the bad direction: a
    /// speedup must stay ≥ baseline × (1 − band), a latency ≤ baseline ×
    /// (1 + band). Wide, because shared runners jitter.
    pub band: f64,
    /// Relative slack the whole confidence interval must clear before a
    /// key counts as regressed (machine drift allowance). Much tighter
    /// than the band — the spread information is in the interval.
    pub ci_slack: f64,
    /// Minimum samples per key before the interval rule applies.
    pub min_trials: usize,
    /// Speedups the baseline records at or above this value (wins) must
    /// keep a median at or above it.
    pub floor: f64,
}

impl GateConfig {
    /// Default band: 30%.
    pub const DEFAULT_BAND: f64 = 0.30;

    /// Default CI slack: 10%.
    pub const DEFAULT_CI_SLACK: f64 = 0.10;

    /// Default trials needed for the interval rule (the CI bench jobs run
    /// exactly this many).
    pub const DEFAULT_MIN_TRIALS: usize = 3;

    /// Default floor for speedups that were wins in the baseline.
    pub const DEFAULT_FLOOR: f64 = 1.0;
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            band: Self::DEFAULT_BAND,
            ci_slack: Self::DEFAULT_CI_SLACK,
            min_trials: Self::DEFAULT_MIN_TRIALS,
            floor: Self::DEFAULT_FLOOR,
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Speedup ratios: bigger is better, regressions fall below baseline.
    HigherIsBetter,
    /// Median times: smaller is better, regressions rise above baseline.
    LowerIsBetter,
}

fn gate_key(
    name: &str,
    base: f64,
    samples: &[f64],
    direction: Direction,
    config: GateConfig,
    failures: &mut Vec<String>,
) {
    let stats = Stats::from_samples(samples);
    // Signed relative move in the bad direction: positive is worse.
    let worse = |v: f64| match direction {
        Direction::HigherIsBetter => (base - v) / base,
        Direction::LowerIsBetter => (v - base) / base,
    };
    // The interval's edge nearest the baseline: the whole CI is at least
    // this much worse.
    let ci_edge = match direction {
        Direction::HigherIsBetter => stats.hi,
        Direction::LowerIsBetter => stats.lo,
    };
    let (what, unit) = match direction {
        Direction::HigherIsBetter => ("speedup", "x"),
        Direction::LowerIsBetter => ("median", " ns"),
    };
    let trials = if stats.n >= config.min_trials {
        format!("95% CI {} of {} trials", stats.interval(), stats.n)
    } else {
        format!("{} trial(s)", stats.n)
    };
    if worse(stats.median) > config.band {
        failures.push(format!(
            "{what} `{name}` regressed: median {:.3}{unit} vs baseline {base:.3}{unit}, \
             beyond the {:.0}% band ({trials})",
            stats.median,
            config.band * 100.0
        ));
    } else if stats.n >= config.min_trials && worse(ci_edge) > config.ci_slack {
        failures.push(format!(
            "{what} `{name}` regressed: median {:.3}{unit} vs baseline {base:.3}{unit}, \
             whole CI beyond the {:.0}% slack ({trials})",
            stats.median,
            config.ci_slack * 100.0
        ));
    } else if direction == Direction::HigherIsBetter
        && base >= config.floor
        && stats.median < config.floor
    {
        failures.push(format!(
            "speedup `{name}` fell below the floor: median {:.3}x < {:.3}x \
             (baseline {base:.3}x was a win; the optimized path lost to its fallback)",
            stats.median, config.floor
        ));
    }
}

/// The failure for a gated baseline key that no trial reports.
fn missing_key(what: &str, name: &str) -> String {
    format!(
        "{what} `{name}` has no trial sample: the baseline gates it but no trial \
         reports it (retire it from the baseline if the bench no longer measures it)"
    )
}

/// Gates current trial speedups against the baseline report's ratios.
///
/// Every non-zero baseline key must be reported by at least one trial —
/// a missing one fails by name — while trial keys the baseline lacks
/// never gate, so adding benches never trips the gate. Zero-valued
/// baseline entries are skipped (a zero-time span yields meaningless
/// ratios).
pub fn gate_speedups(
    baseline: &BenchReport,
    trials: &[BenchReport],
    config: GateConfig,
) -> Vec<String> {
    let (_, speedups) = bench_samples(trials);
    let mut failures = Vec::new();
    for (name, base) in baseline.speedups() {
        if *base == 0.0 {
            continue;
        }
        match speedups.get(name) {
            Some(samples) => gate_key(
                name,
                *base,
                samples,
                Direction::HigherIsBetter,
                config,
                &mut failures,
            ),
            None => failures.push(missing_key("speedup", name)),
        }
    }
    failures
}

/// Gates current trial medians (nanoseconds, lower is better) against the
/// baseline report's medians, for every key `keep` accepts; a kept
/// baseline key no trial reports fails by name.
fn gate_medians_where(
    baseline: &BenchReport,
    trials: &[BenchReport],
    config: GateConfig,
    keep: impl Fn(&str) -> bool,
) -> Vec<String> {
    let (medians, _) = bench_samples(trials);
    let mut failures = Vec::new();
    for (name, base) in baseline.medians() {
        if *base == 0.0 || !keep(name) {
            continue;
        }
        match medians.get(name) {
            Some(samples) => gate_key(
                name,
                *base,
                samples,
                Direction::LowerIsBetter,
                config,
                &mut failures,
            ),
            None => failures.push(missing_key("median", name)),
        }
    }
    failures
}

/// Gates every current trial median (nanoseconds, lower is better)
/// against the baseline report's medians.
///
/// Medians are machine-specific, so this is only meaningful when both
/// sides ran on the same machine — the disabled-vs-absent tracing delta
/// in CI, where baseline and current come from the same job. Zero-valued
/// baseline medians are skipped.
pub fn gate_medians(
    baseline: &BenchReport,
    trials: &[BenchReport],
    config: GateConfig,
) -> Vec<String> {
    gate_medians_where(baseline, trials, config, |_| true)
}

/// Gates the latency percentiles (`*_p50_ns` / `*_p99_ns` medians from
/// the serving load generator), lower is better. Part of the default
/// gate: a baseline carries latency keys only when it was produced on the
/// machine class the gate runs on.
pub fn gate_latency(
    baseline: &BenchReport,
    trials: &[BenchReport],
    config: GateConfig,
) -> Vec<String> {
    gate_medians_where(baseline, trials, config, is_latency_key)
}

/// Renders the per-key median/CI table for N bench trial reports.
/// Latency percentiles (`*_p50_ns`/`*_p99_ns`) are left to
/// [`latency_table`], which pairs them into columns.
pub fn bench_table(trials: &[BenchReport], title: &str) -> Table {
    let (medians, speedups) = bench_samples(trials);
    let mut t = Table::new(title).headers(["metric", "key", "trials", "median", "95% CI"]);
    for (name, s) in medians.stats() {
        if is_latency_key(&name) {
            continue;
        }
        t.row([
            "median_ns".to_owned(),
            name,
            s.n.to_string(),
            format!("{:.1}", s.median),
            s.interval(),
        ]);
    }
    for (name, s) in speedups.stats() {
        t.row([
            "speedup".to_owned(),
            name,
            s.n.to_string(),
            format!("{:.3}x", s.median),
            s.interval(),
        ]);
    }
    t.note(format!("{} trial file(s)", trials.len()));
    t
}

/// Renders the p50/p99 latency table for N bench trial reports: every
/// sweep point that recorded `<stem>_p50_ns` / `<stem>_p99_ns` medians
/// becomes one row with both percentiles (in µs) and their bootstrap CIs
/// side by side. Returns `None` when no trial carries latency keys.
pub fn latency_table(trials: &[BenchReport], title: &str) -> Option<Table> {
    let (medians, _) = bench_samples(trials);
    let mut stems: Vec<String> = Vec::new();
    for (name, _) in medians.stats() {
        if let Some(stem) = latency_stem(&name) {
            if !stems.iter().any(|s| s == stem) {
                stems.push(stem.to_owned());
            }
        }
    }
    if stems.is_empty() {
        return None;
    }
    let us = |ns: f64| format!("{:.1}", ns / 1e3);
    let mut t = Table::new(title).headers([
        "sweep point",
        "trials",
        "p50 µs",
        "p50 95% CI",
        "p99 µs",
        "p99 95% CI",
    ]);
    for stem in stems {
        let p50 = medians
            .get(&format!("{stem}{LATENCY_P50_SUFFIX}"))
            .map(Stats::from_samples);
        let p99 = medians
            .get(&format!("{stem}{LATENCY_P99_SUFFIX}"))
            .map(Stats::from_samples);
        let trials_cell = p50
            .or(p99)
            .map_or_else(|| "0".to_owned(), |s| s.n.to_string());
        let cell = |s: Option<Stats>| match s {
            Some(s) if s.n > 1 => (us(s.median), format!("[{}, {}]", us(s.lo), us(s.hi))),
            Some(s) => (us(s.median), "—".to_owned()),
            None => ("—".to_owned(), "—".to_owned()),
        };
        let (p50_med, p50_ci) = cell(p50);
        let (p99_med, p99_ci) = cell(p99);
        t.row([stem, trials_cell, p50_med, p50_ci, p99_med, p99_ci]);
    }
    t.note("per-request latency percentiles from the serving load generator; lower is better");
    Some(t)
}

/// Renders the per-span-kind table for N trace files: instance count,
/// total wall time, and the median/CI of individual span durations.
pub fn trace_table(traces: &[Trace], title: &str) -> Table {
    let samples = trace_samples(traces);
    let mut t = Table::new(title).headers(["span", "count", "total µs", "median µs", "95% CI"]);
    for (name, durs) in samples.entries.iter() {
        let s = Stats::from_samples(durs);
        let total: f64 = durs.iter().sum();
        t.row([
            name.clone(),
            durs.len().to_string(),
            format!("{total:.1}"),
            format!("{:.3}", s.median),
            s.interval(),
        ]);
    }
    t.note(format!("{} trace file(s)", traces.len()));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use robo_trace::SpanEvent;

    fn report(medians: &[(&str, f64)], speedups: &[(&str, f64)]) -> BenchReport {
        let mut r = BenchReport::new();
        for (k, v) in medians {
            r.record_median_ns(*k, *v);
        }
        for (k, v) in speedups {
            r.record_speedup(*k, *v);
        }
        r
    }

    #[test]
    fn stats_on_known_distributions() {
        // Constant data: zero spread, degenerate CI.
        let s = Stats::from_samples(&[5.0, 5.0, 5.0, 5.0, 5.0]);
        assert_eq!((s.median, s.lo, s.hi), (5.0, 5.0, 5.0));
        // A symmetric set: the median is exact, the CI brackets it and
        // stays inside the sample range.
        let s = Stats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.median, 3.0);
        assert!(s.lo >= 1.0 && s.lo <= s.median);
        assert!(s.hi <= 5.0 && s.hi >= s.median);
        // Single sample: median, degenerate interval, n = 1.
        let s = Stats::from_samples(&[7.5]);
        assert_eq!((s.n, s.lo, s.hi), (1, 7.5, 7.5));
        // Zero-time spans are legal samples.
        let s = Stats::from_samples(&[0.0, 0.0, 0.0]);
        assert_eq!((s.median, s.lo, s.hi), (0.0, 0.0, 0.0));
    }

    #[test]
    fn bootstrap_is_deterministic() {
        let data = [3.0, 1.0, 4.0, 1.5, 9.2, 2.6];
        assert_eq!(Stats::from_samples(&data), Stats::from_samples(&data));
    }

    #[test]
    fn gate_passes_matching_trials_and_fails_injected_slowdown() {
        let base = report(&[], &[("wide_vs_scalar", 2.0)]);
        let good: Vec<BenchReport> = (0..3)
            .map(|i| report(&[], &[("wide_vs_scalar", 1.95 + 0.05 * i as f64)]))
            .collect();
        assert!(gate_speedups(&base, &good, GateConfig::default()).is_empty());

        // The injected slowdown this PR must demonstrate: every trial's
        // ratio collapses, the whole CI sits far below baseline → exit 1.
        let slow: Vec<BenchReport> = (0..3)
            .map(|i| report(&[], &[("wide_vs_scalar", 0.9 + 0.01 * i as f64)]))
            .collect();
        let failures = gate_speedups(&base, &slow, GateConfig::default());
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("wide_vs_scalar"));
        assert!(failures[0].contains("regressed"));

        // The same injection in one combined report beside an unchanged
        // key: the band catches it without an interval, and only it.
        let base = report(&[], &[("wide_vs_scalar", 2.0), ("jit_vs_interp", 1.5)]);
        let one = [report(
            &[],
            &[("wide_vs_scalar", 0.9), ("jit_vs_interp", 1.5)],
        )];
        let failures = gate_speedups(&base, &one, GateConfig::default());
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("wide_vs_scalar"));
    }

    #[test]
    fn interval_rule_tolerates_one_noisy_trial() {
        // The worst trial sits 40% under the baseline, but the median
        // stays inside the band and one good trial keeps the CI
        // overlapping the baseline: the gate passes where a band check on
        // the worst trial alone would fail.
        let base = report(&[], &[("wide_vs_scalar", 2.0)]);
        let noisy = [1.2, 1.6, 2.1].map(|v| report(&[], &[("wide_vs_scalar", v)]));
        assert!(gate_speedups(&base, &noisy, GateConfig::default()).is_empty());
    }

    #[test]
    fn single_trial_falls_back_to_the_band() {
        let base = report(&[], &[("wide_vs_scalar", 2.0)]);
        // 25% drop: inside the 30% band → pass.
        let ok = [report(&[], &[("wide_vs_scalar", 1.5)])];
        assert!(gate_speedups(&base, &ok, GateConfig::default()).is_empty());
        // 40% drop: outside the band → fail, message names the band mode.
        let bad = [report(&[], &[("wide_vs_scalar", 1.2)])];
        let failures = gate_speedups(&base, &bad, GateConfig::default());
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("band"));
    }

    #[test]
    fn band_gates_the_median_even_when_the_interval_overlaps() {
        // {0.5, 0.6, 0.95} × baseline: one good trial keeps the CI's upper
        // edge within the 10% slack, but the median sits 40% under the
        // baseline — outside the band.
        let base = report(&[], &[("wide_vs_scalar", 2.0)]);
        let trials = [1.0, 1.2, 1.9].map(|v| report(&[], &[("wide_vs_scalar", v)]));
        let failures = gate_speedups(&base, &trials, GateConfig::default());
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("30% band"), "{failures:?}");
    }

    #[test]
    fn jitter_within_the_band_passes_but_the_floor_still_gates() {
        let base = report(&[], &[("wide_vs_scalar", 1.35)]);
        // 1.35 → 1.05 is a 22% drop: inside the 30% band, above the floor.
        let jitter = [report(&[], &[("wide_vs_scalar", 1.05)])];
        assert!(gate_speedups(&base, &jitter, GateConfig::default()).is_empty());
        // 1.35 → 0.97 is still inside the band but the optimized path now
        // loses to its fallback: the floor catches it.
        let lost = [report(&[], &[("wide_vs_scalar", 0.97)])];
        let failures = gate_speedups(&base, &lost, GateConfig::default());
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("floor"));
    }

    #[test]
    fn floor_rule_gates_in_interval_mode_too() {
        let base = report(&[], &[("wide_vs_scalar", 1.1)]);
        // Drops under 1.0 but within 10% slack of baseline at the CI edge:
        // the floor still catches the win turning into a loss.
        let lost = [0.98, 0.99, 1.0].map(|v| report(&[], &[("wide_vs_scalar", v)]));
        let failures = gate_speedups(&base, &lost, GateConfig::default());
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("floor"));
    }

    #[test]
    fn zero_and_new_keys_never_gate() {
        let base = report(&[("zero_bench", 0.0)], &[("zero_ratio", 0.0)]);
        let cur = [report(&[("other", 5.0)], &[("brand_new", 0.1)])];
        assert!(gate_speedups(&base, &cur, GateConfig::default()).is_empty());
        assert!(gate_medians(&base, &cur, GateConfig::default()).is_empty());
    }

    #[test]
    fn a_gated_key_no_trial_reports_fails_by_name() {
        // A bench key deleted (or renamed) while its baseline still gates
        // it must fail, not silently un-gate.
        let base = report(
            &[("serve_iiwa14_c1_p99_ns", 90_000.0), ("plain_bench", 10.0)],
            &[("removed_ratio", 1.5), ("kept_ratio", 2.0)],
        );
        let cur = [report(&[("plain_bench", 10.0)], &[("kept_ratio", 2.0)])];
        let failures = gate_speedups(&base, &cur, GateConfig::default());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("`removed_ratio`"));
        assert!(failures[0].contains("no trial sample"));
        let failures = gate_latency(&base, &cur, GateConfig::default());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("`serve_iiwa14_c1_p99_ns`"));
    }

    #[test]
    fn median_gate_is_lower_is_better() {
        let base = report(&[("tape_native", 100.0)], &[]);
        let faster = [90.0, 95.0, 92.0].map(|v| report(&[("tape_native", v)], &[]));
        assert!(gate_medians(&base, &faster, GateConfig::default()).is_empty());
        let slower = [150.0, 155.0, 149.0].map(|v| report(&[("tape_native", v)], &[]));
        let failures = gate_medians(&base, &slower, GateConfig::default());
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("tape_native"));
    }

    #[test]
    fn latency_keys_render_paired_and_leave_the_bench_table() {
        let trials: Vec<BenchReport> = [
            (41_000.0, 88_000.0),
            (43_000.0, 91_000.0),
            (42_000.0, 90_000.0),
        ]
        .map(|(p50, p99)| {
            report(
                &[
                    ("serve_iiwa14_c4_p50_ns", p50),
                    ("serve_iiwa14_c4_p99_ns", p99),
                    ("tape_native", 100.0),
                ],
                &[],
            )
        })
        .into();
        let lat = latency_table(&trials, "latency").expect("latency keys present");
        let text = lat.render();
        assert!(text.contains("serve_iiwa14_c4"));
        // Rendered in µs: 42_000 ns → 42.0, 90_000 ns → 90.0.
        assert!(text.contains("42.0"));
        assert!(text.contains("90.0"));
        assert!(text.contains("p99"));
        assert!(!text.contains("_p50_ns"), "suffix folded into columns");

        // The plain bench table keeps non-latency medians only.
        let bench = bench_table(&trials, "bench").render();
        assert!(bench.contains("tape_native"));
        assert!(!bench.contains("serve_iiwa14_c4"));

        // No latency keys → no table.
        assert!(latency_table(&[report(&[("x", 1.0)], &[])], "t").is_none());
    }

    #[test]
    fn latency_table_tolerates_a_missing_percentile() {
        let trials = [report(&[("serve_hyq_c1_p50_ns", 10_000.0)], &[])];
        let text = latency_table(&trials, "partial")
            .expect("p50 present")
            .render();
        assert!(text.contains("serve_hyq_c1"));
        assert!(text.contains("10.0"));
        assert!(text.contains("—"), "missing p99 renders as a dash");
    }

    #[test]
    fn latency_medians_gate_lower_is_better() {
        // Same-machine gate: tail latency doubling must fail the gate.
        let base = report(&[("serve_iiwa14_c4_p99_ns", 90_000.0)], &[]);
        let good =
            [88_000.0, 91_000.0, 90_000.0].map(|v| report(&[("serve_iiwa14_c4_p99_ns", v)], &[]));
        assert!(gate_medians(&base, &good, GateConfig::default()).is_empty());
        let slow = [180_000.0, 185_000.0, 179_000.0]
            .map(|v| report(&[("serve_iiwa14_c4_p99_ns", v)], &[]));
        let failures = gate_medians(&base, &slow, GateConfig::default());
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("serve_iiwa14_c4_p99_ns"));
    }

    #[test]
    fn latency_gate_skips_plain_medians() {
        // The default gate's median half: latency keys only. Tripling a
        // plain (machine-specific) median never gates; a latency key in
        // the band passes, and a doubled one fails.
        let base = report(
            &[("some_bench", 123.4), ("serve_iiwa14_c4_p99_ns", 90_000.0)],
            &[],
        );
        let ok = [report(
            &[("some_bench", 370.2), ("serve_iiwa14_c4_p99_ns", 100_000.0)],
            &[],
        )];
        assert!(gate_latency(&base, &ok, GateConfig::default()).is_empty());
        let slow = [report(&[("serve_iiwa14_c4_p99_ns", 180_000.0)], &[])];
        let failures = gate_latency(&base, &slow, GateConfig::default());
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("median `serve_iiwa14_c4_p99_ns` regressed"));
    }

    #[test]
    fn tables_render_bench_and_trace_inputs() {
        let trials = [
            report(&[("tape_native", 100.0)], &[("native_vs_portable4", 1.5)]),
            report(&[("tape_native", 110.0)], &[("native_vs_portable4", 1.6)]),
            report(&[("tape_native", 105.0)], &[("native_vs_portable4", 1.55)]),
        ];
        let text = bench_table(&trials, "demo").render();
        assert!(text.contains("tape_native"));
        assert!(text.contains("1.550x"));
        assert!(text.contains("95% CI"));

        let trace = Trace {
            events: vec![
                SpanEvent {
                    name: "tape.eval".into(),
                    cat: "tape".into(),
                    ts_us: 0.0,
                    dur_us: 10.0,
                    tid: 1,
                    items: Some(64),
                },
                SpanEvent {
                    name: "tape.eval".into(),
                    cat: "tape".into(),
                    ts_us: 20.0,
                    dur_us: 12.0,
                    tid: 1,
                    items: Some(64),
                },
            ],
            threads: vec![(1, "main".into())],
            meta: Vec::new(),
        };
        let text = trace_table(&[trace], "spans").render();
        assert!(text.contains("tape.eval"));
        assert!(text.contains("22.0"));
    }
}
