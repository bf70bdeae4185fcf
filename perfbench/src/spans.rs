//! Self time per layer from a `robo-trace` recording.
//!
//! A span's self time is its duration minus the part of it its child
//! spans (same thread, nested inside it) cover. Each span is charged to
//! the layer — the crate — its name belongs to, so the sum over layers is
//! the traced time of every thread, with no interval counted twice.

use robo_trace::Trace;

/// The layers self time is reported for, in output order.
pub const LAYERS: [&str; 5] = ["client", "serve", "sim", "codegen", "dynamics"];

/// The layer a span name belongs to. Benchmark-side spans (`bench.*`)
/// are the client's; `lane.*` is charged to `sim` because the workloads
/// serve through the accelerator backend, whose wide path owns them.
pub fn layer_of(name: &str) -> Option<usize> {
    let cat = name.split('.').next().unwrap_or(name);
    let layer = match cat {
        "bench" => "client",
        "serve" => "serve",
        "accel" | "lane" | "plan" => "sim",
        "grad" | "kernel" if name.contains(".accel") => "sim",
        "tape" | "netlist" => "codegen",
        "grad" | "kernel" | "batch" => "dynamics",
        _ => return None,
    };
    LAYERS.iter().position(|l| *l == layer)
}

/// Total self time per layer (indexed like [`LAYERS`]), in microseconds.
pub fn self_time_us(trace: &Trace) -> [f64; LAYERS.len()] {
    let mut out = [0.0; LAYERS.len()];
    let mut by_thread: Vec<(u64, f64, f64, usize)> = trace
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| (e.tid, e.ts_us, e.ts_us + e.dur_us, i))
        .collect();
    // Per thread, by start; a parent (longer) span sorts before a child
    // that starts at the same instant.
    by_thread.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then(a.1.total_cmp(&b.1))
            .then(b.2.total_cmp(&a.2))
    });
    let mut self_us: Vec<f64> = trace.events.iter().map(|e| e.dur_us).collect();
    // Open spans on the current thread: (end, event index).
    let mut stack: Vec<(f64, usize)> = Vec::new();
    let mut tid = None;
    for &(t, start, end, i) in &by_thread {
        if tid != Some(t) {
            stack.clear();
            tid = Some(t);
        }
        while stack.last().is_some_and(|&(open_end, _)| open_end <= start) {
            stack.pop();
        }
        if let Some(&(_, parent)) = stack.last() {
            self_us[parent] -= end.min(stack.last().expect("non-empty").0) - start;
        }
        stack.push((end, i));
    }
    for (e, s) in trace.events.iter().zip(&self_us) {
        if let Some(l) = layer_of(&e.name) {
            out[l] += s.max(0.0);
        }
    }
    out
}
