//! Trace-level observability for the robomorphic pipeline.
//!
//! Every perf claim in this workspace (compiled tapes, SoA lanes, the
//! JIT) ultimately rests on *where cycles go* — and the paper's
//! methodology itself starts from workload analysis (§5.1). This crate is
//! the measuring instrument: a lightweight RAII span layer instrumenting
//! the end-to-end pipeline (plan build, netlist optimize/fuse/schedule,
//! tape lowering, AoS↔SoA lane marshalling, lane-batched tape eval, the
//! iLQR backward pass, batch fan-out), emitting [Chrome-trace JSON]
//! viewable in Perfetto or `chrome://tracing`.
//!
//! [Chrome-trace JSON]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! # Cost model
//!
//! Three states, two switches:
//!
//! * **absent** — the `enabled` cargo feature is off (the default).
//!   [`span`] returns a zero-sized guard and compiles to nothing;
//!   instrumented hot paths are bit-for-bit the uninstrumented code.
//! * **disabled** — `enabled` is compiled in but no collector is
//!   installed. Each span costs one relaxed atomic load and performs
//!   **zero** heap allocations (proven by `tests/alloc_free.rs`).
//! * **collecting** — [`install`] has been called. Span ends take a
//!   global lock and push a small POD record; buffer growth may allocate.
//!   Spans are placed at batch/phase granularity, never per lane element,
//!   so collection overhead stays well under 1% of traced work.
//!
//! # Example
//!
//! ```
//! let _outer = robo_trace::span("plan.build");
//! {
//!     let _inner = robo_trace::span_items("tape.eval", 64);
//!     // … work …
//! }
//! // With the `enabled` feature and an installed collector, both spans
//! // land in the trace returned by `robo_trace::take()`.
//! ```

#![warn(missing_docs)]

mod chrome;
mod host;

pub use chrome::{SpanEvent, Trace};
pub use host::HostInfo;

#[cfg(feature = "enabled")]
mod record {
    use crate::chrome::{SpanEvent, Trace};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    /// Fast-path switch read by every span start: true only between
    /// [`install`] and [`take`].
    static COLLECTING: AtomicBool = AtomicBool::new(false);
    static STATE: Mutex<Option<State>> = Mutex::new(None);
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);

    std::thread_local! {
        /// Small dense per-thread id. A plain `u64` has no destructor, so
        /// first use on a thread does not allocate.
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }

    /// POD span record: no owned strings, so pushing one is a single
    /// `Vec` write (plus amortized growth).
    struct RawEvent {
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        tid: u64,
        items: Option<u64>,
    }

    struct State {
        epoch: Instant,
        events: Vec<RawEvent>,
        threads: Vec<(u64, String)>,
    }

    fn lock() -> std::sync::MutexGuard<'static, Option<State>> {
        STATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Installs a fresh collector; subsequent spans record into it.
    ///
    /// Returns false (and leaves the existing collector untouched) if one
    /// is already installed — collection is process-global, so nested
    /// installs would interleave unrelated traces.
    pub fn install() -> bool {
        let mut guard = lock();
        if guard.is_some() {
            return false;
        }
        *guard = Some(State {
            epoch: Instant::now(),
            events: Vec::with_capacity(4096),
            threads: Vec::new(),
        });
        COLLECTING.store(true, Ordering::SeqCst);
        true
    }

    /// Stops collecting and returns the recorded trace (`None` if no
    /// collector was installed).
    pub fn take() -> Option<Trace> {
        COLLECTING.store(false, Ordering::SeqCst);
        let state = lock().take()?;
        let mut trace = Trace::new();
        trace.threads = state.threads;
        trace.events = state
            .events
            .iter()
            .map(|e| SpanEvent {
                name: e.name.to_owned(),
                cat: e.name.split('.').next().unwrap_or("span").to_owned(),
                ts_us: e.start_ns as f64 / 1_000.0,
                dur_us: e.dur_ns as f64 / 1_000.0,
                tid: e.tid,
                items: e.items,
            })
            .collect();
        Some(trace)
    }

    /// Whether a collector is currently installed.
    pub fn is_collecting() -> bool {
        COLLECTING.load(Ordering::Relaxed)
    }

    /// RAII guard: records one complete span from creation to drop.
    #[must_use = "a span guard measures until it is dropped"]
    pub struct SpanGuard {
        live: Option<Live>,
    }

    struct Live {
        name: &'static str,
        start: Instant,
        items: Option<u64>,
    }

    #[inline]
    fn start(name: &'static str, items: Option<u64>) -> SpanGuard {
        if !COLLECTING.load(Ordering::Relaxed) {
            return SpanGuard { live: None };
        }
        SpanGuard {
            live: Some(Live {
                name,
                start: Instant::now(),
                items,
            }),
        }
    }

    /// Opens a span; it completes (and is recorded) when the returned
    /// guard drops. When no collector is installed this is one relaxed
    /// atomic load and no allocation.
    #[inline]
    pub fn span(name: &'static str) -> SpanGuard {
        start(name, None)
    }

    /// [`span`], annotated with the number of items the span processes
    /// (batch size, lane-group width, …) so per-item costs can be
    /// recovered from the trace.
    #[inline]
    pub fn span_items(name: &'static str, items: usize) -> SpanGuard {
        start(name, Some(items as u64))
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let Some(live) = self.live.take() else { return };
            let end = Instant::now();
            let tid = TID.with(|t| *t);
            let mut guard = lock();
            // take() may have raced the span end: drop the record.
            let Some(state) = guard.as_mut() else { return };
            if !state.threads.iter().any(|(t, _)| *t == tid) {
                let name = std::thread::current()
                    .name()
                    .map(str::to_owned)
                    .unwrap_or_else(|| format!("thread-{tid}"));
                state.threads.push((tid, name));
            }
            let start_ns = live.start.saturating_duration_since(state.epoch).as_nanos() as u64;
            let dur_ns = end.saturating_duration_since(live.start).as_nanos() as u64;
            state.events.push(RawEvent {
                name: live.name,
                start_ns,
                dur_ns,
                tid,
                items: live.items,
            });
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod record {
    use crate::chrome::Trace;

    /// No-op without the `enabled` feature: recording is compiled out.
    #[inline(always)]
    pub fn install() -> bool {
        false
    }

    /// No-op without the `enabled` feature: there is never a trace.
    #[inline(always)]
    pub fn take() -> Option<Trace> {
        None
    }

    /// Always false without the `enabled` feature.
    #[inline(always)]
    pub fn is_collecting() -> bool {
        false
    }

    /// Zero-sized stand-in: constructing and dropping it is a no-op the
    /// optimizer deletes entirely.
    #[must_use = "a span guard measures until it is dropped"]
    pub struct SpanGuard {
        _priv: (),
    }

    /// No-op without the `enabled` feature.
    #[inline(always)]
    pub fn span(_name: &'static str) -> SpanGuard {
        SpanGuard { _priv: () }
    }

    /// No-op without the `enabled` feature.
    #[inline(always)]
    pub fn span_items(_name: &'static str, _items: usize) -> SpanGuard {
        SpanGuard { _priv: () }
    }
}

pub use record::{install, is_collecting, span, span_items, take, SpanGuard};

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The collector is process-global; tests that install one are
    /// serialized through this lock so `cargo test` parallelism cannot
    /// interleave them.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_record_only_while_collecting() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        drop(span("ignored.before"));
        assert!(install());
        assert!(is_collecting());
        assert!(!install(), "second install must not clobber the first");
        {
            let _outer = span("plan.build");
            let _inner = span_items("tape.eval", 64);
        }
        let trace = take().expect("collector was installed");
        assert!(!is_collecting());
        assert!(take().is_none());
        drop(span("ignored.after"));
        assert_eq!(trace.span_kinds(), vec!["plan.build", "tape.eval"]);
        let eval = trace
            .events
            .iter()
            .find(|e| e.name == "tape.eval")
            .expect("recorded");
        assert_eq!(eval.items, Some(64));
        assert_eq!(eval.cat, "tape");
        // The inner span completes (drops) before the outer one.
        assert!(trace.events[0].name == "tape.eval");
        assert_eq!(trace.threads.len(), 1);
    }

    #[test]
    fn worker_threads_get_their_own_lane() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        assert!(install());
        {
            let _main = span("batch.fanout");
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| drop(span("batch.worker")));
                }
            });
        }
        let trace = take().expect("collector was installed");
        let worker_tids: std::collections::BTreeSet<u64> = trace
            .events
            .iter()
            .filter(|e| e.name == "batch.worker")
            .map(|e| e.tid)
            .collect();
        assert_eq!(worker_tids.len(), 2);
        assert_eq!(trace.threads.len(), 3);
    }
}
