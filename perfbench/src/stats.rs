//! Order statistics over latency samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by nearest rank; sorts in
/// place. Returns 0 for an empty sample.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    samples[((samples.len() - 1) as f64 * q).round() as usize]
}

/// Ops per window for a `q`-quantile: 1000 for tail quantiles, the fewest
/// whose p99 has ten samples beyond it; 100 for the median and below.
pub fn window_for(q: f64) -> usize {
    if q > 0.5 {
        1000
    } else {
        100
    }
}

/// Splits `samples` (in the order the ops completed) into consecutive
/// windows of `window` ops, applies `f` to each, and returns the
/// `across`-quantile of the results. A sample of fewer than two windows
/// is taken whole.
///
/// On a shared host, stalls of a few milliseconds delay every op in
/// flight and the backlog behind them; how many a run happens to meet
/// would otherwise decide a pooled tail. A stall moves only the windows it
/// hits, while a change to the program that slows most windows moves the
/// figure.
pub fn across_windows(
    samples: &[f64],
    window: usize,
    across: f64,
    f: impl Fn(&mut [f64]) -> f64,
) -> f64 {
    let windows = (samples.len() / window.max(1)).max(1);
    let len = samples.len() / windows;
    let mut per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * len
            };
            f(&mut samples[w * len..end].to_vec())
        })
        .collect();
    quantile(&mut per_window, across)
}

/// Which per-window figure a windowed `q`-quantile reports, lowest
/// latency first: the median window for the median and below; the lower
/// quartile for tail quantiles. A 1000-op window of one closed-loop client
/// spans a third of a second, and on a host stalling tens of times a
/// second most such windows hold ten stalled ops — enough to set their
/// p99 — so the median window's p99 would count the host's stalls. A
/// tail the program adds in more than three windows in four still moves
/// the lower quartile.
pub fn across_for(q: f64) -> f64 {
    if q > 0.5 {
        0.25
    } else {
        0.5
    }
}

/// The `q`-quantile of steady-state ops: the [`across_for`]`(q)`-quantile,
/// over windows of [`window_for`]`(q)` ops, of each window's
/// `q`-quantile.
pub fn windowed_quantile(samples: &[f64], q: f64) -> f64 {
    across_windows(samples, window_for(q), across_for(q), |w| quantile(w, q))
}

/// The mean of steady-state ops: the median, over windows of
/// [`window_for`]`(0.5)` ops, of each window's mean.
pub fn windowed_mean(samples: &[f64]) -> f64 {
    across_windows(samples, window_for(0.5), 0.5, |w| {
        w.iter().sum::<f64>() / w.len().max(1) as f64
    })
}

/// The median of `samples`; sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}
