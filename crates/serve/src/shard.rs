//! Per-morphology shard: bounded admission queue, dynamic micro-batcher
//! workers, and the flush/respond hot path.

use crate::error::{Rejected, ServeError};
use crate::slot::{GradientRequest, ResponseSlot, SlotInner};
use crate::ServeConfig;
use robo_dynamics::batch::GradientState;
use robo_dynamics::engine::{check_dims, BatchOutput, DynamicsBackend, KernelKind};
use robo_sim::engine::{BackendKind, RobotPlan};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Monotonic shard counters (all relaxed: they are observability, not
/// synchronization).
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) flushes: AtomicU64,
    pub(crate) ragged_flushes: AtomicU64,
    pub(crate) high_water: AtomicU64,
}

/// One admitted request waiting for a worker.
struct Pending {
    req: GradientRequest,
    slot: Arc<SlotInner>,
    enqueued: Instant,
}

struct Queue {
    pending: VecDeque<Pending>,
    shutdown: bool,
}

/// One (morphology, kernel) serving queue: the shared plan, the kernel of
/// the multifunction family this queue runs, the bounded queue the
/// micro-batcher coalesces from, and the worker threads that drain it.
pub(crate) struct Shard {
    plan: Arc<RobotPlan>,
    kernel: KernelKind,
    kind: BackendKind,
    capacity: usize,
    max_batch: usize,
    linger: Duration,
    queue: Mutex<Queue>,
    work_cv: Condvar,
    pub(crate) stats: ShardStats,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Shard {
    /// Builds the shard for one kernel of the family and spawns its worker
    /// threads.
    pub(crate) fn spawn(plan: Arc<RobotPlan>, kernel: KernelKind, cfg: &ServeConfig) -> Arc<Self> {
        let shard = Arc::new(Self {
            max_batch: cfg.max_batch(plan.serve_width()),
            capacity: cfg.queue_capacity.max(1),
            linger: cfg.max_linger,
            kernel,
            kind: cfg.backend,
            queue: Mutex::new(Queue {
                pending: VecDeque::with_capacity(cfg.queue_capacity.max(1)),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            stats: ShardStats::default(),
            workers: Mutex::new(Vec::new()),
            plan,
        });
        let key = shard.plan.morphology_key();
        let handles: Vec<_> = (0..cfg.resolved_workers())
            .map(|w| {
                let shard = Arc::clone(&shard);
                std::thread::Builder::new()
                    .name(format!("serve-{key}-{kernel}-{w}"))
                    .spawn(move || worker_loop(&shard))
                    .expect("spawn serve worker")
            })
            .collect();
        *shard.workers.lock().unwrap_or_else(|p| p.into_inner()) = handles;
        shard
    }

    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admission: validate, mark the slot pending, and queue — or shed
    /// with a typed error, handing the buffer back untouched.
    // By-value buffer return on rejection keeps the shed path
    // allocation-free; see `GradientServer::submit`.
    #[allow(clippy::result_large_err)]
    pub(crate) fn enqueue(
        &self,
        req: GradientRequest,
        slot: &ResponseSlot,
    ) -> Result<(), Rejected> {
        let _span = robo_trace::span("serve.enqueue");
        debug_assert_eq!(
            req.kernel, self.kernel,
            "request routed to wrong kernel shard"
        );
        if let Err(e) = check_dims(self.plan.dof(), &req.q, &req.qd, &req.qdd, &req.minv) {
            return Err(Rejected {
                error: ServeError::Dimension(e),
                req,
            });
        }
        if !slot.inner.begin() {
            return Err(Rejected {
                error: ServeError::SlotBusy,
                req,
            });
        }
        let mut q = self.lock_queue();
        if q.shutdown {
            drop(q);
            slot.inner.cancel();
            return Err(Rejected {
                error: ServeError::ShuttingDown,
                req,
            });
        }
        if q.pending.len() >= self.capacity {
            let depth = q.pending.len();
            drop(q);
            slot.inner.cancel();
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected {
                error: ServeError::Overloaded {
                    depth,
                    capacity: self.capacity,
                },
                req,
            });
        }
        q.pending.push_back(Pending {
            req,
            slot: Arc::clone(&slot.inner),
            enqueued: Instant::now(),
        });
        let depth = q.pending.len() as u64;
        drop(q);
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.stats.high_water.fetch_max(depth, Ordering::Relaxed);
        self.work_cv.notify_one();
        Ok(())
    }

    /// Marks the shard draining: no new admissions, workers flush what is
    /// queued and exit. Every already-accepted request is still answered.
    pub(crate) fn begin_shutdown(&self) {
        self.lock_queue().shutdown = true;
        self.work_cv.notify_all();
    }

    /// Joins the worker threads (call after [`Shard::begin_shutdown`]).
    pub(crate) fn join_workers(&self) {
        let handles = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|p| p.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }

    /// The coalescing policy: blocks until there is a batch worth
    /// flushing, drains up to `max_batch` requests into `local`, and
    /// returns false once the shard is shut down *and* drained.
    ///
    /// A batch is worth flushing when it is full (`max_batch` queued),
    /// when the oldest request has lingered past the deadline (a ragged,
    /// partial-lane flush buys latency), or when the shard is draining.
    fn collect(&self, local: &mut Vec<Pending>) -> bool {
        let mut q = self.lock_queue();
        loop {
            if q.pending.is_empty() {
                if q.shutdown {
                    return false;
                }
                q = self.work_cv.wait(q).unwrap_or_else(|p| p.into_inner());
                continue;
            }
            let now = Instant::now();
            let deadline = q.pending.front().expect("non-empty").enqueued + self.linger;
            if q.shutdown || q.pending.len() >= self.max_batch || now >= deadline {
                let n = q.pending.len().min(self.max_batch);
                let _span = robo_trace::span_items("serve.coalesce", n);
                local.extend(q.pending.drain(..n));
                return true;
            }
            let (guard, _) = self
                .work_cv
                .wait_timeout(q, deadline.saturating_duration_since(now))
                .unwrap_or_else(|p| p.into_inner());
            q = guard;
        }
    }

    /// Executes one coalesced batch on the worker's warm backend and
    /// completes every slot. Alloc-free once warm: the lane-view vector is
    /// recycled across flushes and outputs land in the callers' buffers.
    ///
    /// One `run_batch_into` call evaluates the shard's kernel over the
    /// whole batch — the engine alone decides which kernels run in lane
    /// groups — and each request gets its state's block back.
    fn flush(
        &self,
        backend: &mut dyn DynamicsBackend,
        local: &mut Vec<Pending>,
        states_buf: &mut Vec<GradientState<'static, f64>>,
        batch: &mut BatchOutput,
    ) {
        let n = local.len();
        let result = {
            let _span = robo_trace::span_items("serve.flush", n);
            let mut states = recycle_states(std::mem::take(states_buf));
            states.extend(local.iter().map(|p| GradientState {
                q: &p.req.q,
                qd: &p.req.qd,
                qdd: &p.req.qdd,
                minv: &p.req.minv,
            }));
            let result = backend.run_batch_into(self.kernel, &states, batch);
            *states_buf = park_states(states);
            result
        };
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        if self.kernel.runs_in_lanes() && !n.is_multiple_of(self.plan.serve_width().max(1)) {
            self.stats.ragged_flushes.fetch_add(1, Ordering::Relaxed);
        }
        let _span = robo_trace::span_items("serve.respond", n);
        for (i, mut p) in local.drain(..).enumerate() {
            // Dimensions were validated against this plan at admission, so
            // the batch call cannot fail; if it somehow did, the slot is
            // still completed (buffer returned untouched) rather than
            // stranding a parked client.
            if result.is_ok() {
                batch.copy_state(i, &mut p.req.out, &mut p.req.out_vec);
            }
            // Count before waking the client, so a stats snapshot taken
            // right after a wait() returns already sees the completion.
            self.stats.completed.fetch_add(1, Ordering::Relaxed);
            p.slot.fulfil(p.req);
        }
    }
}

/// Worker thread body: a private warm backend plus recycled scratch, fed
/// by [`Shard::collect`] until shutdown drains the queue.
fn worker_loop(shard: &Shard) {
    let mut backend = shard.plan.backend(shard.kind);
    let mut local: Vec<Pending> = Vec::with_capacity(shard.max_batch);
    let mut states: Vec<GradientState<'static, f64>> = Vec::with_capacity(shard.max_batch);
    let mut batch = BatchOutput::new();
    while shard.collect(&mut local) {
        shard.flush(backend.as_mut(), &mut local, &mut states, &mut batch);
    }
}

/// Reclaims the parked lane-view vector's allocation under a fresh borrow
/// lifetime, so per-flush `GradientState` views never allocate.
fn recycle_states<'a>(v: Vec<GradientState<'static, f64>>) -> Vec<GradientState<'a, f64>> {
    debug_assert!(v.is_empty(), "parked state vectors are always empty");
    let mut v = std::mem::ManuallyDrop::new(v);
    let (ptr, cap) = (v.as_mut_ptr(), v.capacity());
    // SAFETY: the vector is empty, so only its allocation is reused.
    // `GradientState<'static, f64>` and `GradientState<'a, f64>` differ
    // only in lifetime — identical layout and allocator — so rebuilding a
    // zero-length vector over the same allocation is valid.
    unsafe { Vec::from_raw_parts(ptr.cast(), 0, cap) }
}

/// Parks a drained lane-view vector between flushes by erasing its borrow
/// lifetime (inverse of [`recycle_states`]).
fn park_states(mut v: Vec<GradientState<'_, f64>>) -> Vec<GradientState<'static, f64>> {
    v.clear();
    let mut v = std::mem::ManuallyDrop::new(v);
    let (ptr, cap) = (v.as_mut_ptr(), v.capacity());
    // SAFETY: cleared above, so no element (and no borrow) survives; as in
    // `recycle_states`, only the layout-identical allocation crosses the
    // lifetime change.
    unsafe { Vec::from_raw_parts(ptr.cast(), 0, cap) }
}
