//! Per-morphology shard: bounded admission queue, work-conserving
//! micro-batcher workers, and the flush/respond hot path that a worker or
//! a blocked waiter runs.

use crate::error::{Rejected, ServeError};
use crate::slot::{GradientRequest, ResponseSlot, ServeStages, SlotInner};
use crate::ServeConfig;
use robo_dynamics::batch::GradientState;
use robo_dynamics::engine::{check_dims, BatchOutput, DynamicsBackend, KernelKind};
use robo_sim::engine::{BackendKind, RobotPlan};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

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

/// One admitted request waiting for a flush.
struct Pending {
    req: GradientRequest,
    slot: Arc<SlotInner>,
}

struct Queue {
    pending: VecDeque<Pending>,
    shutdown: bool,
    /// Workers parked in [`Shard::collect`]. Admission wakes one only if
    /// some are: a busy worker comes back for the queue on its own. A
    /// blocked waiter flushes only if some are
    /// ([`Shard::flush_for_waiter`]).
    idle: usize,
}

/// A warm backend plus the recycled scratch one flush needs. Each worker
/// owns one and the shard keeps one spare for blocked waiters. Every kit
/// is sized for a full batch when it is built, so its first flush is
/// already allocation-free, whichever thread runs it.
struct FlushKit {
    backend: Box<dyn DynamicsBackend>,
    local: Vec<Pending>,
    states: Vec<GradientState<'static, f64>>,
    batch: BatchOutput,
}

impl FlushKit {
    fn new(plan: &RobotPlan, kind: BackendKind, kernel: KernelKind, max_batch: usize) -> Self {
        let mut batch = BatchOutput::new();
        batch.reset(kernel, max_batch, plan.dof());
        Self {
            backend: plan.backend(kind),
            local: Vec::with_capacity(max_batch),
            states: Vec::with_capacity(max_batch),
            batch,
        }
    }
}

/// One (morphology, kernel) serving queue: the shared plan, the kernel of
/// the multifunction family this queue runs, the bounded queue the
/// micro-batcher coalesces from, the worker threads that drain it, and
/// the spare flush kit a blocked waiter drains it with.
pub(crate) struct Shard {
    plan: Arc<RobotPlan>,
    kernel: KernelKind,
    kind: BackendKind,
    capacity: usize,
    max_batch: usize,
    queue: Mutex<Queue>,
    work_cv: Condvar,
    /// The kit of [`Shard::flush_for_waiter`]: one waiter flushes at a
    /// time, and a panic in its flush poisons the kit for good.
    spare: Mutex<FlushKit>,
    pub(crate) stats: ShardStats,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Shard {
    /// Builds the shard for one kernel of the family, with no worker
    /// threads yet (the unit tests drive `collect`/`flush` by hand).
    fn new(plan: Arc<RobotPlan>, kernel: KernelKind, cfg: &ServeConfig) -> Self {
        let max_batch = cfg.max_batch(plan.serve_width());
        Self {
            max_batch,
            capacity: cfg.queue_capacity.max(1),
            kernel,
            kind: cfg.backend,
            queue: Mutex::new(Queue {
                pending: VecDeque::with_capacity(cfg.queue_capacity.max(1)),
                shutdown: false,
                idle: 0,
            }),
            work_cv: Condvar::new(),
            spare: Mutex::new(FlushKit::new(&plan, cfg.backend, kernel, max_batch)),
            stats: ShardStats::default(),
            workers: Mutex::new(Vec::new()),
            plan,
        }
    }

    /// A fresh kit for this shard's kernel and backend.
    fn kit(&self) -> FlushKit {
        FlushKit::new(&self.plan, self.kind, self.kernel, self.max_batch)
    }

    /// Builds the shard for one kernel of the family and spawns its worker
    /// threads.
    pub(crate) fn spawn(plan: Arc<RobotPlan>, kernel: KernelKind, cfg: &ServeConfig) -> Arc<Self> {
        let shard = Arc::new(Self::new(plan, kernel, cfg));
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
        self: &Arc<Self>,
        mut req: GradientRequest,
        slot: &ResponseSlot,
    ) -> Result<(), Rejected> {
        let _span = robo_trace::span("serve.enqueue");
        debug_assert_eq!(
            req.kernel, self.kernel,
            "request routed to wrong kernel shard"
        );
        if let Err(error) = check_dims(self.plan.dof(), &req.q, &req.qd, &req.qdd, &req.minv)
            .map_err(ServeError::Dimension)
            .and_then(|()| check_finite(&req))
        {
            return Err(Rejected { error, req });
        }
        if !slot.inner.begin(Arc::downgrade(self)) {
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
        req.stages = ServeStages {
            enqueued: Some(Instant::now()),
            ..ServeStages::default()
        };
        q.pending.push_back(Pending {
            req,
            slot: Arc::clone(&slot.inner),
        });
        let depth = q.pending.len() as u64;
        let wake = q.idle > 0;
        drop(q);
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.stats.high_water.fetch_max(depth, Ordering::Relaxed);
        if wake {
            self.work_cv.notify_one();
        }
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

    /// The work-conserving batch policy: blocks only while the queue is
    /// empty, then drains up to `max_batch` requests into `local` at once
    /// and stamps them dequeued. Returns false once the shard is shut
    /// down *and* drained.
    ///
    /// There is no deadline to wait out: batches grow from the requests
    /// that queue while a flush runs, so a busy shard still fills lane
    /// groups and an idle one answers a lone request straight away.
    fn collect(&self, local: &mut Vec<Pending>) -> bool {
        let mut q = self.lock_queue();
        while q.pending.is_empty() {
            if q.shutdown {
                return false;
            }
            q.idle += 1;
            q = self.work_cv.wait(q).unwrap_or_else(|p| p.into_inner());
            q.idle -= 1;
        }
        self.drain(q, local);
        true
    }

    /// Moves up to `max_batch` queued requests into `local`, releases the
    /// queue, and stamps them dequeued.
    fn drain(&self, mut q: MutexGuard<'_, Queue>, local: &mut Vec<Pending>) {
        let n = q.pending.len().min(self.max_batch);
        let _span = robo_trace::span_items("serve.coalesce", n);
        local.extend(q.pending.drain(..n));
        drop(q);
        let dequeued = Some(Instant::now());
        for p in local.iter_mut() {
            p.req.stages.dequeued = dequeued;
        }
    }

    /// A client blocked on `slot` stands in for a parked worker: if its
    /// request is still queued and a worker is parked, which would
    /// otherwise have to be woken, the caller drains the front batch and
    /// flushes it on its own thread with the spare kit. Returns whether
    /// it flushed. The batch need not hold the caller's own request, if
    /// more than `max_batch` are queued ahead of it.
    ///
    /// Does nothing while every worker is busy, so a busy shard keeps its
    /// configured flush concurrency, and nothing while the spare kit is in
    /// use by another waiter or poisoned by a panic in an earlier waiter's
    /// flush. The workers serve the request then.
    pub(crate) fn flush_for_waiter(&self, slot: &Arc<SlotInner>) -> bool {
        // `WouldBlock` (another waiter is flushing) and `Poisoned` (a
        // waiter's flush panicked) both leave the flush to the workers.
        let Ok(mut kit) = self.spare.try_lock() else {
            return false;
        };
        let q = self.lock_queue();
        if q.idle == 0 || !q.pending.iter().any(|p| Arc::ptr_eq(&p.slot, slot)) {
            return false;
        }
        self.drain(q, &mut kit.local);
        self.flush(&mut kit);
        true
    }

    /// Executes one coalesced batch (drained into `kit.local`) on the
    /// kit's warm backend and completes every slot. Alloc-free once the
    /// kit is built: the lane-view vector is recycled across flushes and
    /// outputs land in the callers' buffers.
    ///
    /// One `run_batch_into` call evaluates the shard's kernel over the
    /// whole batch — the engine alone decides which kernels run in lane
    /// groups — and each request gets its state's block back.
    fn flush(&self, kit: &mut FlushKit) {
        let FlushKit {
            backend,
            local,
            states: states_buf,
            batch,
        } = kit;
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
        let computed = Some(Instant::now());
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
            p.req.stages.computed = computed;
            p.req.stages.fulfilled = Some(Instant::now());
            p.slot.fulfil(p.req);
        }
    }
}

/// Refuses NaN and infinite inputs at admission, naming the first
/// offending field.
fn check_finite(req: &GradientRequest) -> Result<(), ServeError> {
    let fields: [(&'static str, &[f64]); 4] = [
        ("q", &req.q),
        ("qd", &req.qd),
        ("qdd", &req.qdd),
        ("minv", req.minv.as_slice()),
    ];
    match fields
        .iter()
        .find(|(_, v)| v.iter().any(|x| !x.is_finite()))
    {
        Some(&(what, _)) => Err(ServeError::NonFinite { what }),
        None => Ok(()),
    }
}

/// Worker thread body: a private flush kit, fed by [`Shard::collect`]
/// until shutdown drains the queue.
fn worker_loop(shard: &Shard) {
    let mut kit = shard.kit();
    while shard.collect(&mut kit.local) {
        shard.flush(&mut kit);
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

#[cfg(test)]
mod tests {
    //! The batch policy, driven by hand on a shard with no worker
    //! threads: every assertion is deterministic. Tests of the waiter's
    //! flush set `Queue::idle` by hand to stand for a parked worker.

    use super::*;
    use robo_dynamics::engine::KernelOutput;
    use robo_dynamics::{mass_matrix_inverse, rnea};
    use robo_model::robots;
    use std::time::Duration;

    fn shard(kernel: KernelKind, cfg: &ServeConfig) -> Arc<Shard> {
        Arc::new(Shard::new(
            Arc::new(RobotPlan::new(&robots::iiwa14())),
            kernel,
            cfg,
        ))
    }

    /// A request for evaluation point `k`; `fd`'s third slot carries
    /// the torques that reproduce a small `q̈`.
    fn request(plan: &RobotPlan, kernel: KernelKind, k: usize) -> GradientRequest {
        let n = plan.dof();
        let mut req = GradientRequest::for_kernel(n, kernel);
        for i in 0..n {
            req.q[i] = 0.07 * (i + k) as f64 - 0.2;
            req.qd[i] = 0.03 * i as f64 - 0.01 * k as f64;
            req.qdd[i] = 0.1 - 0.02 * (i + 2 * k) as f64;
        }
        if kernel == KernelKind::ForwardDynamics {
            req.qdd = rnea(plan.model(), &req.q, &req.qd, &req.qdd).tau;
        }
        req.minv = mass_matrix_inverse(plan.model(), &req.q).unwrap();
        req
    }

    /// Enqueues points `0..count`, one fresh slot each.
    fn fill(shard: &Arc<Shard>, count: usize) -> Vec<ResponseSlot> {
        (0..count)
            .map(|k| {
                let slot = ResponseSlot::new();
                let req = request(&shard.plan, shard.kernel, k);
                shard.enqueue(req, &slot).expect("under capacity");
                slot
            })
            .collect()
    }

    /// Asserts `got` holds the bitwise answer of a direct `run_into` on
    /// point `k`.
    fn assert_bitwise(shard: &Shard, k: usize, got: &GradientRequest) {
        let req = request(&shard.plan, shard.kernel, k);
        let mut want = KernelOutput::new();
        shard
            .plan
            .backend(shard.kind)
            .run_into(
                shard.kernel,
                &req.q,
                &req.qd,
                &req.qdd,
                &req.minv,
                &mut want,
            )
            .unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match shard.kernel {
            KernelKind::Gradient => assert_eq!(got.out, want.grad, "response {k}"),
            KernelKind::InverseDynamics => {
                assert_eq!(bits(&got.out_vec), bits(&want.tau), "response {k}")
            }
            KernelKind::ForwardDynamics => {
                assert_eq!(bits(&got.out_vec), bits(&want.qdd), "response {k}")
            }
        }
    }

    /// Asserts each slot holds the bitwise answer for point `k`.
    fn assert_answered(shard: &Shard, slots: &[ResponseSlot]) {
        for (k, slot) in slots.iter().enumerate() {
            assert_bitwise(shard, k, &slot.try_take().expect("answered"));
        }
    }

    /// Runs `slot.wait()` on a thread of its own and returns what it
    /// returned. The bound turns a waiter that parks with no worker to
    /// wake it into a failure instead of a hang.
    fn wait_on_own_thread(slot: ResponseSlot) -> GradientRequest {
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || tx.send(slot.wait()).expect("the test listens"));
        let got = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("with a worker parked, the waiter answers itself");
        waiter.join().expect("the waiter thread");
        got
    }

    fn flushes(shard: &Shard) -> u64 {
        shard.stats.flushes.load(Ordering::Relaxed)
    }

    #[test]
    fn a_lone_request_is_collected_without_waiting() {
        // No worker and no other thread: a batcher that waited for a
        // deadline or a fuller batch would stall (or hang) right here.
        let shard = shard(KernelKind::Gradient, &ServeConfig::default());
        let _slots = fill(&shard, 1);
        let mut local = Vec::new();
        assert!(shard.collect(&mut local));
        assert_eq!(local.len(), 1);
        let st = local[0].req.stages;
        assert!(st.enqueued.unwrap() <= st.dequeued.unwrap());
        assert_eq!((st.computed, st.fulfilled), (None, None));
    }

    #[test]
    fn one_collect_takes_exactly_max_batch() {
        let shard = shard(KernelKind::Gradient, &ServeConfig::default());
        let max_batch = shard.max_batch;
        let _slots = fill(&shard, max_batch + 3);
        let mut local = Vec::new();
        assert!(shard.collect(&mut local));
        assert_eq!(local.len(), max_batch);
        local.clear();
        assert!(shard.collect(&mut local));
        assert_eq!(local.len(), 3, "the rest go in the next batch");
    }

    #[test]
    fn one_flush_of_id_and_fd_is_bitwise_equal_to_run_into() {
        for kind in [BackendKind::Cpu, BackendKind::Accel] {
            for kernel in [KernelKind::InverseDynamics, KernelKind::ForwardDynamics] {
                for extra in 0..3 {
                    let cfg = ServeConfig {
                        backend: kind,
                        ..ServeConfig::default()
                    };
                    let shard = shard(kernel, &cfg);
                    let count = 2 * shard.plan.serve_width() + extra;
                    assert!(count <= shard.max_batch);
                    let slots = fill(&shard, count);
                    let mut kit = shard.kit();
                    assert!(shard.collect(&mut kit.local));
                    assert_eq!(kit.local.len(), count);
                    shard.flush(&mut kit);
                    assert_eq!(flushes(&shard), 1);
                    assert_answered(&shard, &slots);
                }
            }
        }
    }

    #[test]
    fn overload_sheds_typed_and_drain_answers_the_admitted() {
        let capacity = 4;
        let cfg = ServeConfig {
            queue_capacity: capacity,
            backend: BackendKind::Cpu,
            ..ServeConfig::default()
        };
        let shard = shard(KernelKind::Gradient, &cfg);
        let slots = fill(&shard, capacity);
        let extra = ResponseSlot::new();
        let req = request(&shard.plan, shard.kernel, capacity);
        let sent = req.q.clone();
        let rejected = shard.enqueue(req, &extra).expect_err("queue is full");
        assert_eq!(
            rejected.error,
            ServeError::Overloaded {
                depth: capacity,
                capacity
            }
        );
        assert_eq!(rejected.req.q, sent, "the shed buffer comes back untouched");
        assert!(!extra.is_pending());
        assert_eq!(shard.stats.shed.load(Ordering::Relaxed), 1);
        assert_eq!(
            shard.stats.high_water.load(Ordering::Relaxed),
            capacity as u64
        );

        // Drain on this thread, as a worker does after shutdown.
        shard.begin_shutdown();
        worker_loop(&shard);
        assert_eq!(
            shard.stats.completed.load(Ordering::Relaxed),
            capacity as u64
        );
        assert_answered(&shard, &slots);
    }

    #[test]
    fn a_waiter_flushes_its_own_request_in_place_of_a_parked_worker() {
        for kind in [BackendKind::Cpu, BackendKind::Accel] {
            let cfg = ServeConfig {
                backend: kind,
                ..ServeConfig::default()
            };
            let shard = shard(KernelKind::Gradient, &cfg);
            shard.lock_queue().idle = 1;
            let slot = ResponseSlot::new();
            let submitted = Instant::now();
            shard
                .enqueue(request(&shard.plan, shard.kernel, 0), &slot)
                .expect("under capacity");
            // No worker thread exists: only the waiter can flush.
            let got = wait_on_own_thread(slot);
            let woke = Instant::now();
            assert_eq!(flushes(&shard), 1);
            assert_eq!(shard.stats.completed.load(Ordering::Relaxed), 1);
            assert_bitwise(&shard, 0, &got);
            let stages = got
                .stages
                .split(submitted, woke)
                .expect("every stage stamped in order");
            assert_eq!(stages.iter().sum::<Duration>(), woke - submitted);
        }
    }

    #[test]
    fn a_waiter_leaves_a_shard_with_no_parked_worker_alone() {
        let shard = shard(KernelKind::Gradient, &ServeConfig::default());
        let slots = fill(&shard, 1);
        assert_eq!(shard.lock_queue().idle, 0);
        assert!(!shard.flush_for_waiter(&slots[0].inner));
        assert_eq!(flushes(&shard), 0);
        assert_eq!(shard.lock_queue().pending.len(), 1, "still queued");
        assert!(slots[0].is_pending());
    }

    #[test]
    fn a_waiter_behind_a_full_batch_flushes_it_then_its_own() {
        let shard = shard(KernelKind::Gradient, &ServeConfig::default());
        shard.lock_queue().idle = 1;
        let max_batch = shard.max_batch;
        let mut slots = fill(&shard, max_batch + 1);
        let mine = slots.pop().expect("the last request is the waiter's");
        let got = wait_on_own_thread(mine);
        assert_eq!(flushes(&shard), 2, "the front batch, then the waiter's");
        assert_bitwise(&shard, max_batch, &got);
        assert_answered(&shard, &slots);
        assert!(shard.lock_queue().pending.is_empty());
    }

    #[test]
    fn a_poisoned_spare_kit_leaves_the_flush_to_the_workers() {
        let shard = shard(KernelKind::Gradient, &ServeConfig::default());
        let poisoner = Arc::clone(&shard);
        std::thread::spawn(move || {
            let _kit = poisoner.spare.lock();
            panic!("a backend panic inside a waiter-run flush");
        })
        .join()
        .expect_err("the flush panicked");
        assert!(shard.spare.is_poisoned());

        shard.lock_queue().idle = 1;
        let slots = fill(&shard, 1);
        assert!(
            !shard.flush_for_waiter(&slots[0].inner),
            "a poisoned kit is unavailable"
        );
        assert_eq!(flushes(&shard), 0);
        assert!(slots[0].is_pending());

        // The workers keep serving: drain on this thread as one does.
        shard.lock_queue().idle = 0;
        shard.begin_shutdown();
        worker_loop(&shard);
        assert_answered(&shard, &slots);
    }
}
