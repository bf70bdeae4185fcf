//! Per-(morphology, kernel) shard: bounded admission queue, the warm
//! flush kits, and the take–flush–return path that a pool worker or a
//! blocked waiter runs.

use crate::error::{Rejected, ServeError};
use crate::pool::Pool;
use crate::slot::{GradientRequest, ResponseSlot, ServeStages, SlotInner};
use crate::ServeConfig;
use robo_dynamics::batch::GradientState;
use robo_dynamics::engine::{check_dims, BatchOutput, DynamicsBackend, KernelKind};
use robo_sim::engine::{BackendKind, RobotPlan};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
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

/// Who flushes a newly admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Listing {
    /// The pool: admission lists the shard and wakes a parked worker.
    Wake,
    /// The submitting client, which waits next: admission leaves the
    /// ready list alone, and the waiter flushes with a free kit or parks
    /// until a kit holder lists the shard.
    Waiter,
}

/// One admitted request waiting for a flush.
struct Pending {
    req: GradientRequest,
    slot: Arc<SlotInner>,
}

struct Queue {
    pending: VecDeque<Pending>,
    /// The free flush kits, one per pool worker when none is out. A
    /// flusher takes one with its batch and gives it back after the
    /// flush, so the kit count alone bounds the shard's concurrent
    /// flushes.
    kits: Vec<FlushKit>,
    /// On the pool's ready list, or popped from it and not yet visited.
    listed: bool,
    shutdown: bool,
}

/// A warm backend plus the recycled scratch one flush needs. Every kit
/// is sized for a full batch when its shard is built, so its first flush
/// is already allocation-free, whichever thread runs it.
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
/// micro-batcher coalesces from and the kits it flushes with, and the
/// server's pool that flushes it.
pub(crate) struct Shard {
    plan: Arc<RobotPlan>,
    kernel: KernelKind,
    capacity: usize,
    max_batch: usize,
    pool: Arc<Pool>,
    queue: Mutex<Queue>,
    pub(crate) stats: ShardStats,
}

impl Shard {
    /// Builds the shard for one kernel of the family on `pool`, with one
    /// warm kit per pool worker and a reserved ready-list slot.
    pub(crate) fn new(
        plan: Arc<RobotPlan>,
        kernel: KernelKind,
        cfg: &ServeConfig,
        pool: &Arc<Pool>,
    ) -> Arc<Self> {
        let max_batch = cfg.max_batch(plan.serve_width());
        let kits = (0..cfg.resolved_workers())
            .map(|_| FlushKit::new(&plan, cfg.backend, kernel, max_batch))
            .collect();
        pool.reserve();
        Arc::new(Self {
            max_batch,
            capacity: cfg.queue_capacity.max(1),
            kernel,
            pool: Arc::clone(pool),
            queue: Mutex::new(Queue {
                pending: VecDeque::with_capacity(cfg.queue_capacity.max(1)),
                kits,
                listed: false,
                shutdown: false,
            }),
            stats: ShardStats::default(),
            plan,
        })
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
        listing: Listing,
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
        match listing {
            Listing::Wake => self.list(q),
            Listing::Waiter => drop(q),
        }
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.stats.high_water.fetch_max(depth, Ordering::Relaxed);
        Ok(())
    }

    /// Refuses new admissions. Every already-accepted request is still
    /// answered: by the pool, which drains its ready list before it
    /// stops, or by the flushers holding the kits ([`Shard::give_back`]).
    pub(crate) fn begin_shutdown(&self) {
        self.lock_queue().shutdown = true;
    }

    /// Puts the shard on the pool's ready list if work is queued, a kit
    /// is free and it is not listed yet; then releases the queue and
    /// wakes a parked pool worker if one is. A shard with no free kit
    /// stays off the list: the kits' holders list it when they give them
    /// back. Listing happens under the queue lock, so a shard that
    /// refuses admissions is never listed after the pool stops.
    fn list(self: &Arc<Self>, mut q: MutexGuard<'_, Queue>) {
        let ready = !q.listed && !q.shutdown && !q.pending.is_empty() && !q.kits.is_empty();
        let wake = ready && {
            q.listed = true;
            self.pool.push(Arc::clone(self))
        };
        drop(q);
        if wake {
            self.pool.wake();
        }
    }

    /// A pool worker's turn on a shard it took from the ready list.
    pub(crate) fn visit(self: &Arc<Self>) {
        let mut q = self.lock_queue();
        q.listed = false;
        self.flush_front(q);
    }

    /// A client blocked on `slot` flushes when its request is still
    /// queued and a kit is free: it drains the front batch and flushes it
    /// on its own thread, like any other flusher. Returns whether it
    /// flushed. The batch need not hold the caller's own request, if more
    /// than `max_batch` are queued ahead of it. With no free kit, the
    /// request is left to the pool: the kits' holders list the shard when
    /// they give them back.
    pub(crate) fn flush_for_waiter(self: &Arc<Self>, slot: &Arc<SlotInner>) -> bool {
        let q = self.lock_queue();
        if !q.pending.iter().any(|p| Arc::ptr_eq(&p.slot, slot)) {
            return false;
        }
        self.flush_front(q)
    }

    /// The one take–flush–return path of every flusher: takes a free kit
    /// and up to `max_batch` queued requests, lists the shard again if
    /// work and another kit are left, flushes, and gives the kit back.
    /// Returns false, touching nothing, if nothing is queued or no kit is
    /// free.
    fn flush_front(self: &Arc<Self>, mut q: MutexGuard<'_, Queue>) -> bool {
        if q.pending.is_empty() {
            return false;
        }
        let Some(mut kit) = q.kits.pop() else {
            return false;
        };
        self.drain(&mut q, &mut kit.local);
        self.list(q);
        self.flush(&mut kit);
        self.give_back(kit);
        true
    }

    /// Returns a kit after its flush and lists the shard if work is left.
    /// While the shard refuses admissions the pool may already have
    /// stopped, so the holder flushes what is left itself instead: every
    /// admitted request is answered even when blocked clients hold every
    /// kit as the pool stops.
    fn give_back(self: &Arc<Self>, mut kit: FlushKit) {
        let mut q = self.lock_queue();
        while q.shutdown && !q.pending.is_empty() {
            self.drain(&mut q, &mut kit.local);
            drop(q);
            self.flush(&mut kit);
            q = self.lock_queue();
        }
        q.kits.push(kit);
        self.list(q);
    }

    /// Moves up to `max_batch` queued requests into `local`.
    fn drain(&self, q: &mut Queue, local: &mut Vec<Pending>) {
        let n = q.pending.len().min(self.max_batch);
        let _span = robo_trace::span_items("serve.coalesce", n);
        local.extend(q.pending.drain(..n));
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
        let dequeued = Some(Instant::now());
        for p in local.iter_mut() {
            p.req.stages.dequeued = dequeued;
        }
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
    //! The batch policy, driven by hand on shards of a pool with no
    //! threads: every assertion is deterministic. Each test stops its pool
    //! first, so `Pool::next` returns `None` instead of blocking once the
    //! ready list is empty, and `work` (the pool workers' body) drains the
    //! list on the test thread.

    use super::*;
    use crate::pool::work;
    use robo_dynamics::engine::{EngineError, KernelOutput};
    use robo_dynamics::{mass_matrix_inverse, rnea};
    use robo_model::robots;
    use std::time::Duration;

    /// A stopped pool with no threads.
    fn pool() -> Arc<Pool> {
        let pool = Pool::new();
        pool.stop();
        pool
    }

    fn shard_on(pool: &Arc<Pool>, kernel: KernelKind, cfg: &ServeConfig) -> Arc<Shard> {
        Shard::new(
            Arc::new(RobotPlan::new(&robots::iiwa14())),
            kernel,
            cfg,
            pool,
        )
    }

    fn one_kit(backend: BackendKind) -> ServeConfig {
        ServeConfig {
            workers: 1,
            backend,
            ..ServeConfig::default()
        }
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
                shard
                    .enqueue(req, &slot, Listing::Wake)
                    .expect("under capacity");
                slot
            })
            .collect()
    }

    /// Asserts `got` holds the bitwise answer of a direct `run_into` on
    /// point `k` with a `kind` backend.
    fn assert_bitwise(shard: &Shard, kind: BackendKind, k: usize, got: &GradientRequest) {
        let req = request(&shard.plan, shard.kernel, k);
        let mut want = KernelOutput::new();
        shard
            .plan
            .backend(kind)
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
    fn assert_answered(shard: &Shard, kind: BackendKind, slots: &[ResponseSlot]) {
        for (k, slot) in slots.iter().enumerate() {
            assert_bitwise(shard, kind, k, &slot.try_take().expect("answered"));
        }
    }

    /// Runs `slot.wait()` on a thread of its own and returns what it
    /// returned. The bound turns a waiter that parks with nothing to
    /// serve it into a failure instead of a hang.
    fn wait_on_own_thread(slot: ResponseSlot) -> GradientRequest {
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || tx.send(slot.wait()).expect("the test listens"));
        let got = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("with a kit free, the waiter answers itself");
        waiter.join().expect("the waiter thread");
        got
    }

    fn flushes(shard: &Shard) -> u64 {
        shard.stats.flushes.load(Ordering::Relaxed)
    }

    /// Whether `pool`'s next ready shard is `shard`.
    fn next_is(pool: &Pool, shard: &Arc<Shard>) -> bool {
        pool.next().is_some_and(|s| Arc::ptr_eq(&s, shard))
    }

    /// A backend whose every batch panics, standing in for a backend bug.
    struct Panicking;

    impl DynamicsBackend for Panicking {
        fn name(&self) -> &'static str {
            "panicking"
        }

        fn dof(&self) -> usize {
            7
        }

        fn fork(&self) -> Box<dyn DynamicsBackend + '_> {
            Box::new(Panicking)
        }

        fn run_batch_into(
            &mut self,
            _: KernelKind,
            _: &[GradientState<'_, f64>],
            _: &mut BatchOutput,
        ) -> Result<(), EngineError> {
            panic!("a backend bug inside a flush")
        }
    }

    fn panicking_kit() -> FlushKit {
        FlushKit {
            backend: Box::new(Panicking),
            local: Vec::new(),
            states: Vec::new(),
            batch: BatchOutput::new(),
        }
    }

    #[test]
    fn a_lone_request_is_flushed_without_waiting() {
        // One pool visit and no other thread: a batcher that waited for
        // a deadline or a fuller batch would stall (or hang) right here.
        let pool = pool();
        let shard = shard_on(&pool, KernelKind::Gradient, &ServeConfig::default());
        let slots = fill(&shard, 1);
        let next = pool
            .next()
            .expect("queued work and a free kit list the shard");
        assert!(Arc::ptr_eq(&next, &shard));
        next.visit();
        assert_eq!(flushes(&shard), 1);
        let got = slots[0].try_take().expect("answered");
        let st = got.stages;
        assert!(st.enqueued.unwrap() <= st.dequeued.unwrap());
        assert!(st.dequeued.unwrap() <= st.computed.unwrap());
        assert!(st.computed.unwrap() <= st.fulfilled.unwrap());
        assert_bitwise(&shard, BackendKind::Accel, 0, &got);
        assert!(pool.next().is_none(), "nothing is left to list");
    }

    #[test]
    fn a_shard_with_work_left_goes_back_on_the_ready_list_and_shards_take_turns() {
        let pool = pool();
        let cfg = one_kit(BackendKind::Accel);
        let grad = shard_on(&pool, KernelKind::Gradient, &cfg);
        let id = shard_on(&pool, KernelKind::InverseDynamics, &cfg);
        let max_batch = grad.max_batch;
        let grad_slots = fill(&grad, max_batch + 3);
        let id_slots = fill(&id, 1);

        assert!(next_is(&pool, &grad));
        grad.visit();
        assert_eq!(flushes(&grad), 1, "one flush takes exactly max_batch");
        // The rest of `grad` queued behind `id`, which listed meanwhile.
        assert!(next_is(&pool, &id));
        id.visit();
        assert!(next_is(&pool, &grad));
        grad.visit();
        assert_eq!(flushes(&grad), 2, "the rest go in the next batch");
        assert!(pool.next().is_none());
        assert_answered(&grad, BackendKind::Accel, &grad_slots);
        assert_answered(&id, BackendKind::Accel, &id_slots);
    }

    #[test]
    fn one_flush_of_id_and_fd_is_bitwise_equal_to_run_into() {
        for kind in [BackendKind::Cpu, BackendKind::Accel] {
            for kernel in [KernelKind::InverseDynamics, KernelKind::ForwardDynamics] {
                for extra in 0..3 {
                    let pool = pool();
                    let shard = shard_on(&pool, kernel, &one_kit(kind));
                    let count = 2 * shard.plan.serve_width() + extra;
                    assert!(count <= shard.max_batch);
                    let slots = fill(&shard, count);
                    work(&pool);
                    assert_eq!(flushes(&shard), 1);
                    assert_answered(&shard, kind, &slots);
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
        let pool = pool();
        let shard = shard_on(&pool, KernelKind::Gradient, &cfg);
        let slots = fill(&shard, capacity);
        let extra = ResponseSlot::new();
        let req = request(&shard.plan, shard.kernel, capacity);
        let sent = req.q.clone();
        let rejected = shard
            .enqueue(req, &extra, Listing::Wake)
            .expect_err("queue is full");
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

        // Drain on this thread, as the pool does after shutdown.
        shard.begin_shutdown();
        work(&pool);
        assert_eq!(
            shard.stats.completed.load(Ordering::Relaxed),
            capacity as u64
        );
        assert_answered(&shard, BackendKind::Cpu, &slots);
    }

    #[test]
    fn a_waiter_flushes_its_own_request_when_a_kit_is_free() {
        for kind in [BackendKind::Cpu, BackendKind::Accel] {
            let shard = shard_on(&pool(), KernelKind::Gradient, &one_kit(kind));
            let slot = ResponseSlot::new();
            let submitted = Instant::now();
            shard
                .enqueue(request(&shard.plan, shard.kernel, 0), &slot, Listing::Wake)
                .expect("under capacity");
            // No pool thread exists: only the waiter can flush.
            let got = wait_on_own_thread(slot);
            let woke = Instant::now();
            assert_eq!(flushes(&shard), 1);
            assert_eq!(shard.stats.completed.load(Ordering::Relaxed), 1);
            assert_bitwise(&shard, kind, 0, &got);
            let stages = got
                .stages
                .split(submitted, woke)
                .expect("every stage stamped in order");
            assert_eq!(stages.iter().sum::<Duration>(), woke - submitted);
        }
    }

    #[test]
    fn a_blocked_client_with_no_free_kit_leaves_its_request_to_the_pool() {
        let pool = pool();
        let shard = shard_on(&pool, KernelKind::Gradient, &one_kit(BackendKind::Accel));
        // The only kit is out, as with a flusher mid-flush.
        let kit = shard.lock_queue().kits.pop().expect("one kit per worker");
        let slots = fill(&shard, 1);
        assert!(
            pool.next().is_none(),
            "no free kit: the shard is not listed"
        );
        assert!(!shard.flush_for_waiter(&slots[0].inner));
        assert_eq!(flushes(&shard), 0);
        assert_eq!(shard.lock_queue().pending.len(), 1, "still queued");
        assert!(slots[0].is_pending());

        // The holder gives the kit back and lists the shard for the pool.
        shard.give_back(kit);
        assert!(next_is(&pool, &shard));
        shard.visit();
        assert_answered(&shard, BackendKind::Accel, &slots);
    }

    #[test]
    fn a_waiter_admission_lists_nothing_and_a_kit_holder_lists_it_later() {
        let pool = pool();
        let shard = shard_on(&pool, KernelKind::Gradient, &one_kit(BackendKind::Accel));
        let slot = ResponseSlot::new();
        let req = request(&shard.plan, shard.kernel, 0);
        shard
            .enqueue(req, &slot, Listing::Waiter)
            .expect("admitted");
        assert!(
            pool.next().is_none(),
            "a kit is free, yet nothing is listed"
        );
        assert!(!shard.lock_queue().listed);
        // The waiter flushes its own request with the free kit.
        let got = wait_on_own_thread(slot);
        assert_bitwise(&shard, BackendKind::Accel, 0, &got);
        assert_eq!(flushes(&shard), 1);

        // With the kit out, a waiter's request stays unlisted until the
        // holder gives the kit back.
        let kit = shard.lock_queue().kits.pop().expect("one kit per worker");
        let slot = ResponseSlot::new();
        let req = request(&shard.plan, shard.kernel, 0);
        shard
            .enqueue(req, &slot, Listing::Waiter)
            .expect("admitted");
        assert!(!shard.flush_for_waiter(&slot.inner), "no free kit");
        assert!(pool.next().is_none());
        shard.give_back(kit);
        assert!(next_is(&pool, &shard));
        shard.visit();
        assert_answered(&shard, BackendKind::Accel, &[slot]);
    }

    #[test]
    fn a_waiter_behind_a_full_batch_flushes_it_then_its_own() {
        let shard = shard_on(&pool(), KernelKind::Gradient, &ServeConfig::default());
        let max_batch = shard.max_batch;
        let mut slots = fill(&shard, max_batch + 1);
        let mine = slots.pop().expect("the last request is the waiter's");
        let got = wait_on_own_thread(mine);
        assert_eq!(flushes(&shard), 2, "the front batch, then the waiter's");
        assert_bitwise(&shard, BackendKind::Accel, max_batch, &got);
        assert_answered(&shard, BackendKind::Accel, &slots);
        assert!(shard.lock_queue().pending.is_empty());
    }

    #[test]
    fn shutdown_with_every_kit_held_still_answers_every_request() {
        let pool = pool();
        let cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let shard = shard_on(&pool, KernelKind::Gradient, &cfg);
        // Blocked clients hold both kits, mid-flush, as the pool stops.
        let held: Vec<FlushKit> = std::mem::take(&mut shard.lock_queue().kits);
        assert_eq!(held.len(), 2);
        let slots = fill(&shard, shard.max_batch + 2);
        shard.begin_shutdown();
        work(&pool);
        assert_eq!(flushes(&shard), 0, "the pool found nothing listed");

        // The first holder to give its kit back flushes what is left.
        for kit in held {
            shard.give_back(kit);
        }
        assert_eq!(flushes(&shard), 2);
        assert_answered(&shard, BackendKind::Accel, &slots);
        assert_eq!(shard.lock_queue().kits.len(), 2);
    }

    #[test]
    fn a_panicking_backend_leaves_another_shard_served_by_the_same_pool() {
        let pool = pool();
        let cfg = one_kit(BackendKind::Cpu);
        let broken = shard_on(&pool, KernelKind::Gradient, &cfg);
        let healthy = shard_on(&pool, KernelKind::InverseDynamics, &cfg);
        broken.lock_queue().kits[0] = panicking_kit();
        let lost = fill(&broken, 1);
        let slots = fill(&healthy, 1);

        // The worker body catches the panic and goes on to the next shard.
        work(&pool);
        assert_eq!(flushes(&broken), 0);
        assert!(lost[0].is_pending(), "the panicked batch is not answered");
        assert!(broken.lock_queue().kits.is_empty(), "its kit is dropped");
        assert_answered(&healthy, BackendKind::Cpu, &slots);

        let slots = fill(&healthy, 1);
        work(&pool);
        assert_answered(&healthy, BackendKind::Cpu, &slots);
    }

    #[test]
    fn a_waiter_flush_that_panics_loses_only_its_kit() {
        let cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let shard = shard_on(&pool(), KernelKind::Gradient, &cfg);
        // A flusher takes the last kit first.
        *shard.lock_queue().kits.last_mut().expect("two kits") = panicking_kit();
        let lost = fill(&shard, 1).pop().expect("one slot");
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let waiter = std::thread::spawn(move || {
            let _unwinds_with_the_waiter = tx;
            lost.wait()
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(60)),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected),
            "the waiter flushes and its flush panics"
        );
        waiter.join().expect_err("the panic surfaces in the waiter");
        assert_eq!(shard.lock_queue().kits.len(), 1, "only its kit is gone");

        // The next waiter flushes with the kit that is left.
        let slot = ResponseSlot::new();
        shard
            .enqueue(request(&shard.plan, shard.kernel, 0), &slot, Listing::Wake)
            .expect("under capacity");
        assert_bitwise(&shard, BackendKind::Accel, 0, &wait_on_own_thread(slot));
    }
}
