//! The order statistics and per-layer self time the benchmark reports.

use perfbench::spans::{layer_of, self_time_us, LAYERS};
use perfbench::stats::{quantile, window_for, windowed_quantile};
use robo_trace::{SpanEvent, Trace};

#[test]
fn quantile_is_nearest_rank() {
    let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(quantile(&mut v, 0.5), 51.0);
    assert_eq!(quantile(&mut v, 0.99), 99.0);
    assert_eq!(quantile(&mut [], 0.5), 0.0);
}

/// 20 p99 windows of a steady program: latencies 100..=109 us.
fn steady() -> Vec<f64> {
    (0..20 * window_for(0.99))
        .map(|i| 100.0 + (i % 10) as f64)
        .collect()
}

/// Adds a 5 ms stall to `ops` ops at the start of each of the p99
/// windows in `windows`.
fn stall(samples: &mut [f64], windows: impl Iterator<Item = usize>, ops: usize) {
    for w in windows {
        let start = w * window_for(0.99);
        for x in &mut samples[start..start + ops] {
            *x += 5_000.0;
        }
    }
}

#[test]
fn a_stalled_window_does_not_move_the_windowed_figures() {
    let window = window_for(0.99);
    assert!(window_for(0.5) < window);
    let steady = steady();
    let (p50, p99) = (
        windowed_quantile(&steady, 0.5),
        windowed_quantile(&steady, 0.99),
    );
    let mut stalled = steady.clone();
    stall(&mut stalled, 3..4, window);
    assert_eq!(windowed_quantile(&stalled, 0.5), p50);
    assert_eq!(windowed_quantile(&stalled, 0.99), p99);
    // A slower program moves every window, and the figures with them.
    let slower: Vec<f64> = steady.iter().map(|x| x * 1.2).collect();
    assert!(windowed_quantile(&slower, 0.5) > p50 * 1.19);
    assert!(windowed_quantile(&slower, 0.99) > p99 * 1.19);
    // Under two windows' worth, the whole sample is one window.
    let mut short: Vec<f64> = (1..=1500).map(f64::from).collect();
    assert_eq!(windowed_quantile(&short, 0.99), quantile(&mut short, 0.99));
}

#[test]
fn tail_stalls_in_most_windows_move_p99_but_not_p50() {
    let steady = steady();
    let (p50, p99) = (
        windowed_quantile(&steady, 0.5),
        windowed_quantile(&steady, 0.99),
    );
    // A stall that hits 2% of the ops in 16 of 20 windows: a slow flush
    // every so often, not a host hiccup.
    let mut tail = steady.clone();
    stall(&mut tail, 0..16, 20);
    assert!(windowed_quantile(&tail, 0.99) > p99 + 4_000.0);
    assert_eq!(windowed_quantile(&tail, 0.5), p50);
    // In half the windows or fewer, it does not.
    let mut half = steady.clone();
    stall(&mut half, (0..20).step_by(2), 20);
    assert_eq!(windowed_quantile(&half, 0.99), p99);
}

fn event(name: &str, tid: u64, ts_us: f64, dur_us: f64) -> SpanEvent {
    SpanEvent {
        name: name.to_owned(),
        cat: name.split('.').next().unwrap_or(name).to_owned(),
        ts_us,
        dur_us,
        tid,
        items: None,
    }
}

#[test]
fn self_time_subtracts_nested_children_on_the_same_thread() {
    let mut trace = Trace::new();
    trace.events = vec![
        event("bench.submit", 1, 0.0, 10.0),
        event("serve.enqueue", 1, 2.0, 5.0),
        // Another thread's span is never a child of thread 1's.
        event("serve.flush", 2, 1.0, 20.0),
        event("grad.accel.batch", 2, 2.0, 15.0),
        event("accel.wide", 2, 3.0, 6.0),
        event("tape.eval", 2, 4.0, 1.0),
    ];
    let by_layer = self_time_us(&trace);
    let at = |l: &str| by_layer[LAYERS.iter().position(|x| *x == l).expect("layer")];
    assert_eq!(at("client"), 5.0);
    assert_eq!(at("serve"), 5.0 + 5.0);
    assert_eq!(at("sim"), 9.0 + 5.0);
    assert_eq!(at("codegen"), 1.0);
    assert_eq!(at("dynamics"), 0.0);
}

#[test]
fn spans_map_to_their_crate() {
    let layer = |n| layer_of(n).map(|i| LAYERS[i]);
    assert_eq!(layer("grad.cpu.batch"), Some("dynamics"));
    assert_eq!(layer("grad.accel.batch"), Some("sim"));
    assert_eq!(layer("kernel.accel.id"), Some("sim"));
    assert_eq!(layer("batch.worker"), Some("dynamics"));
    assert_eq!(layer("unknown.span"), None);
}
