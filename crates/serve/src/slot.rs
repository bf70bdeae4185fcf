//! Caller-owned request buffers and the reusable completion slot that
//! hands them back — the serving tier's allocation-free response path.

use crate::shard::Shard;
use robo_dynamics::engine::{GradientOutput, KernelKind};
use robo_spatial::MatN;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

/// One kernel evaluation point plus its output buffers, owned by the
/// client and lent to the server for the duration of a request.
///
/// The same buffer carries the inputs in (`q`, `q̇`, the kernel's third
/// operand, `M⁻¹` — the accelerator interface of the paper's Figure 9) and
/// the response out. [`ResponseSlot::wait`] returns it on completion, so a
/// steady-state client reuses one buffer forever and the request/response
/// round trip never allocates.
///
/// The `kernel` tag selects which member of the multifunction family the
/// server runs — requests are coalesced per (morphology, kernel). The
/// gradient kernel fills [`GradientRequest::out`]; the vector-valued
/// kernels (`id`, `fd`) fill [`GradientRequest::out_vec`].
#[derive(Debug, Clone)]
pub struct GradientRequest {
    /// Which kernel of the family to run (default:
    /// [`KernelKind::Gradient`]).
    pub kernel: KernelKind,
    /// Joint positions (length = plan dof).
    pub q: Vec<f64>,
    /// Joint velocities.
    pub qd: Vec<f64>,
    /// The kernel's third input: joint accelerations `q̈` for the `grad`
    /// and `id` kernels, applied torques `τ` for `fd` (the field keeps its
    /// historical name; the family interface calls this the "third" slot).
    pub qdd: Vec<f64>,
    /// Inverse mass matrix at `q` (consumed by `grad` and `fd`; validated
    /// but unused for `id`).
    pub minv: MatN<f64>,
    /// The gradient response: filled by the micro-batcher before the slot
    /// signals (untouched for `id`/`fd` requests).
    pub out: GradientOutput,
    /// The vector response: `τ` for `id`, `q̈` for `fd` (untouched for
    /// `grad` requests).
    pub out_vec: Vec<f64>,
    /// Where the last round trip spent its time: stamped by the shard
    /// (admission resets it), read by the client once
    /// [`ResponseSlot::wait`] returns the buffer.
    pub stages: ServeStages,
}

impl GradientRequest {
    /// A zeroed gradient-kernel request pre-sized for `dof` joints, so
    /// first use through a warm server is already allocation-free.
    pub fn for_dof(dof: usize) -> Self {
        Self::for_kernel(dof, KernelKind::Gradient)
    }

    /// A zeroed request for any kernel of the family, pre-sized for `dof`
    /// joints.
    pub fn for_kernel(dof: usize, kernel: KernelKind) -> Self {
        Self {
            kernel,
            q: vec![0.0; dof],
            qd: vec![0.0; dof],
            qdd: vec![0.0; dof],
            minv: MatN::zeros(dof, dof),
            out: GradientOutput::for_dof(dof),
            out_vec: vec![0.0; dof],
            stages: ServeStages::default(),
        }
    }
}

/// The instants a shard stamps on a request as it crosses the serving
/// tier. With the client's own two stamps — before `submit`, after
/// `wait` returns — they cut one round trip into the five stages of
/// [`ServeStages::NAMES`]; see [`ServeStages::split`].
///
/// A batch is flushed by a pool worker or by a client blocked in
/// [`ResponseSlot::wait`] (see there); the stamps mean the same either
/// way. Queue runs from admission until *whichever thread flushes* drains
/// the request, and wake from the fulfil until `wait` returns. When the
/// client flushed its own batch, both ends of its wake stage are on its
/// own thread and queue includes no thread wake-up, so the two fall to
/// about a microsecond each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStages {
    /// Admitted: validated and pushed onto the shard's queue.
    pub enqueued: Option<Instant>,
    /// Drained from the queue into a batch by the thread that flushes it
    /// (one stamp per batch).
    pub dequeued: Option<Instant>,
    /// The batch's `run_batch_into` returned (one stamp per batch).
    pub computed: Option<Instant>,
    /// Response copied out, just before the slot is fulfilled.
    pub fulfilled: Option<Instant>,
}

impl ServeStages {
    /// The five stages [`split`](Self::split) returns, in order: submit →
    /// admission, queue wait, batch compute, response copy-out, and
    /// wake (fulfil → `wait` returns).
    pub const NAMES: [&'static str; 5] = ["admit", "queue", "compute", "respond", "wake"];

    /// Cuts the round trip from `submitted` to `woke` at the shard's four
    /// stamps. The stages telescope over the same instants, so they sum
    /// to exactly `woke − submitted`. `None` if a stamp is missing or out
    /// of order.
    pub fn split(&self, submitted: Instant, woke: Instant) -> Option<[Duration; 5]> {
        let marks = [
            submitted,
            self.enqueued?,
            self.dequeued?,
            self.computed?,
            self.fulfilled?,
            woke,
        ];
        let mut stages = [Duration::ZERO; 5];
        for (stage, pair) in stages.iter_mut().zip(marks.windows(2)) {
            *stage = pair[1].checked_duration_since(pair[0])?;
        }
        Some(stages)
    }
}

/// Completion states of a slot. `Done` carries the request buffer on its
/// way back to the client.
// `Done` holds the buffer by value deliberately: indirection would cost
// an allocation per response on the steady-state round trip.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum SlotState {
    /// No request in flight; the slot may be submitted.
    Idle,
    /// Submitted and queued or flushing on the named shard; a waiter may
    /// be parked on the cv. The handle is weak because the shard's queue
    /// holds the slot: a strong one would make a reference cycle.
    Pending(Weak<Shard>),
    /// The response is ready for [`ResponseSlot::wait`] to collect.
    Done(GradientRequest),
}

/// Shared core of a [`ResponseSlot`]: the server keeps an `Arc` to it for
/// the lifetime of the in-flight request.
#[derive(Debug)]
pub(crate) struct SlotInner {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl SlotInner {
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Idle → Pending on `shard`; false if a request is already in flight
    /// (the submission is refused with `ServeError::SlotBusy`).
    pub(crate) fn begin(&self, shard: Weak<Shard>) -> bool {
        let mut st = self.lock();
        if matches!(*st, SlotState::Idle) {
            *st = SlotState::Pending(shard);
            true
        } else {
            false
        }
    }

    /// Pending → Idle, on admission failure after `begin`.
    pub(crate) fn cancel(&self) {
        let mut st = self.lock();
        debug_assert!(matches!(*st, SlotState::Pending(_)));
        *st = SlotState::Idle;
    }

    /// Pending → Done: the flushing thread hands the filled buffer back
    /// and wakes the waiter. No allocation — the buffer moves by value.
    pub(crate) fn fulfil(&self, req: GradientRequest) {
        let mut st = self.lock();
        debug_assert!(matches!(*st, SlotState::Pending(_)));
        *st = SlotState::Done(req);
        drop(st);
        self.cv.notify_all();
    }
}

/// A reusable one-shot completion handle: submit with it, [`wait`] on it,
/// get the request buffer back, repeat.
///
/// One slot serves one in-flight request at a time (a second submit on a
/// busy slot is refused with
/// [`ServeError::SlotBusy`](crate::ServeError::SlotBusy)); a client that
/// wants pipelining holds several slots.
///
/// [`wait`]: ResponseSlot::wait
#[derive(Debug)]
pub struct ResponseSlot {
    pub(crate) inner: Arc<SlotInner>,
}

impl ResponseSlot {
    /// A fresh idle slot.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(SlotInner {
                state: Mutex::new(SlotState::Idle),
                cv: Condvar::new(),
            }),
        }
    }

    /// Whether a request is currently in flight on this slot.
    pub fn is_pending(&self) -> bool {
        matches!(*self.inner.lock(), SlotState::Pending(_))
    }

    /// Blocks until the in-flight request completes and returns its
    /// buffer (outputs filled), resetting the slot to idle.
    ///
    /// A blocked caller may run its own batch. If the request is still
    /// queued and one of the shard's flush kits is free, the caller takes
    /// the kit and flushes on its own thread, as a pool worker would: it
    /// drains up to a batch of queued requests and flushes them,
    /// completing every slot in the batch, its own included. A lone
    /// request then pays no cross-thread wake. With every kit in use the
    /// caller parks until the flush that answers it, by the pool or by
    /// another waiter; the kit count keeps bounding the shard's
    /// concurrent flushes. A caller that must not compute polls
    /// [`try_take`](Self::try_take) instead, which never flushes.
    ///
    /// # Panics
    ///
    /// Panics if called with no request in flight — that is a client
    /// protocol bug, not a runtime condition.
    ///
    /// A backend panic during a flush this caller runs surfaces here, in
    /// the caller. As with a panic on a pool worker, the other requests
    /// of that batch are then never answered and that flush's kit is
    /// lost. The shard keeps serving with the kits it has left.
    pub fn wait(&self) -> GradientRequest {
        let mut st = self.inner.lock();
        // Cleared once an attempt to flush finds nothing to do: from then
        // on the caller only parks.
        let mut flush = true;
        loop {
            match &*st {
                SlotState::Done(_) => {
                    let SlotState::Done(req) = std::mem::replace(&mut *st, SlotState::Idle) else {
                        unreachable!("matched Done above");
                    };
                    return req;
                }
                SlotState::Pending(shard) => {
                    if flush {
                        if let Some(shard) = shard.upgrade() {
                            drop(st);
                            flush = shard.flush_for_waiter(&self.inner);
                            // Re-read the state: the request may have been
                            // answered meanwhile, by this thread or another.
                            st = self.inner.lock();
                            continue;
                        }
                    }
                    st = self.inner.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                }
                SlotState::Idle => panic!("ResponseSlot::wait with no request in flight"),
            }
        }
    }

    /// Non-blocking variant of [`wait`](Self::wait): returns the buffer if
    /// the response is ready, `None` while pending or idle.
    pub fn try_take(&self) -> Option<GradientRequest> {
        let mut st = self.inner.lock();
        if matches!(*st, SlotState::Done(_)) {
            let SlotState::Done(req) = std::mem::replace(&mut *st, SlotState::Idle) else {
                unreachable!("matched Done above");
            };
            Some(req)
        } else {
            None
        }
    }
}

impl Default for ResponseSlot {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_round_trip_and_reuse() {
        let slot = ResponseSlot::new();
        assert!(!slot.is_pending());
        assert!(slot.try_take().is_none());
        for turn in 0..3 {
            assert!(slot.inner.begin(Weak::new()));
            assert!(slot.is_pending());
            assert!(
                !slot.inner.begin(Weak::new()),
                "busy slot must refuse a second begin"
            );
            let mut req = GradientRequest::for_dof(2);
            req.q[0] = turn as f64;
            slot.inner.fulfil(req);
            let back = slot.wait();
            assert_eq!(back.q[0], turn as f64);
            assert!(!slot.is_pending());
        }
    }

    #[test]
    fn cancel_returns_slot_to_idle() {
        let slot = ResponseSlot::new();
        assert!(slot.inner.begin(Weak::new()));
        slot.inner.cancel();
        assert!(!slot.is_pending());
        assert!(slot.inner.begin(Weak::new()));
        slot.inner.fulfil(GradientRequest::for_dof(1));
        assert!(slot.try_take().is_some());
    }

    #[test]
    fn wait_crosses_threads() {
        let slot = ResponseSlot::new();
        assert!(slot.inner.begin(Weak::new()));
        let inner = Arc::clone(&slot.inner);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            inner.fulfil(GradientRequest::for_dof(3));
        });
        let req = slot.wait();
        assert_eq!(req.q.len(), 3);
        t.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "no request in flight")]
    fn wait_on_idle_slot_panics() {
        ResponseSlot::new().wait();
    }
}
