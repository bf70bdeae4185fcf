//! The shared batch engine: a persistent thread pool with per-worker
//! workspaces.
//!
//! The paper's CPU baseline "was parallelized across the trajectory time
//! steps using a thread pool so that the overheads of creating and joining
//! threads did not impact the timing of the region of interest" (§6.1).
//! [`ThreadPool`] is that pool: workers live for the pool's lifetime and
//! pull batch indices from a shared atomic counter, so uneven item costs
//! balance out.
//!
//! [`BatchEngine`] layers the workspace discipline of this crate on top:
//! [`BatchEngine::run_with_state`] gives every participating worker its own
//! mutable state (typically a [`GradWorkspace`] or an accelerator-simulator
//! clone) built once per batch, so the steady-state per-item work is
//! allocation-free while items stay data-parallel. Every batch-shaped
//! consumer in the workspace — the CPU baseline, the coprocessor
//! round-trip, the iLQR backward-pass linearization — routes through the
//! process-wide [`BatchEngine::global`] instance.

use crate::{
    dynamics_gradient_into, DynamicsGradient, DynamicsModel, GradWorkspace, InverseDynamicsGradient,
};
use robo_spatial::{MatN, Scalar};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

enum Message {
    Run(Job),
    Shutdown,
}

/// A fixed-size pool of persistent worker threads.
///
/// Dropping the pool sends every worker a shutdown message and joins the
/// threads, so no worker outlives the pool.
///
/// # Examples
///
/// ```
/// use robo_dynamics::batch::ThreadPool;
///
/// let pool = ThreadPool::new(4);
/// let out = pool.run(100, |i| i * i);
/// assert_eq!(out[9], 81);
/// ```
#[derive(Debug)]
pub struct ThreadPool {
    workers: Vec<JoinHandle<()>>,
    sender: mpsc::Sender<Message>,
}

/// Raw pointer to a result slot, sendable across the worker boundary. Each
/// index is claimed by exactly one worker via the shared atomic counter, so
/// writes through it never alias.
struct SendPtr<T>(*mut Option<T>);

// SAFETY: the pointer is only ever written through `SendPtr::write`, whose
// contract (each slot claimed by exactly one worker, buffer outliving all
// writers) makes cross-thread transfer of the raw pointer sound; `T: Send`
// carries the payload's own requirement.
unsafe impl<T: Send> Send for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Writes `value` into slot `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds and claimed by exactly one caller, and the
    /// backing buffer must stay untouched until all writers are done.
    unsafe fn write(&self, i: usize, value: T) {
        *self.0.add(i) = Some(value);
    }
}

/// Signals batch completion when dropped — even when the job panics — so
/// the dispatching thread can never deadlock waiting for a dead job. The
/// notification happens while the mutex is held: the dispatcher may
/// invalidate the `(Mutex, Condvar)` pair the moment it observes the final
/// count, so notifying after unlocking could touch a freed condvar.
struct DoneGuard<'a>(&'a (Mutex<usize>, Condvar));

impl Drop for DoneGuard<'_> {
    fn drop(&mut self) {
        let (lock, cv) = self.0;
        let mut finished = lock.lock().expect("done counter poisoned");
        *finished += 1;
        cv.notify_all();
    }
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "thread pool needs at least one worker");
        let (sender, receiver) = mpsc::channel::<Message>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|_| {
                let rx = Arc::clone(&receiver);
                std::thread::spawn(move || loop {
                    let msg = {
                        let guard = rx.lock().expect("pool receiver poisoned");
                        guard.recv()
                    };
                    match msg {
                        Ok(Message::Run(job)) => {
                            // A panicking job must not kill the worker: the
                            // batch outcome is reported through the result
                            // slots (a missing result panics the caller),
                            // and the pool stays usable.
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                        Ok(Message::Shutdown) | Err(_) => break,
                    }
                })
            })
            .collect();
        Self { workers, sender }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn with_default_size() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::new(n)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f(0..count)` across the pool and returns the results in index
    /// order. The closure may borrow from the caller's stack — dispatch is
    /// scoped: this call does not return until every participating worker
    /// has finished.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked while processing an item.
    pub fn run<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_with_state(count, || (), move |(), i| f(i))
    }

    /// Like [`ThreadPool::run`], but every participating worker first
    /// builds a private mutable state with `init` (once per worker per
    /// batch) and threads it through its items — the mechanism behind
    /// reusable per-worker workspaces.
    ///
    /// Work is distributed dynamically through an atomic counter, so
    /// uneven item costs balance out.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked while processing an item.
    pub fn run_with_state<W, T, I, F>(&self, count: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, usize) -> T + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let _span = robo_trace::span_items("batch.fanout", count);
        let mut results: Vec<Option<T>> = (0..count).map(|_| None).collect();
        let next = AtomicUsize::new(0);
        let done = (Mutex::new(0usize), Condvar::new());

        let workers = self.workers.len().min(count);
        let base = results.as_mut_ptr();
        for _ in 0..workers {
            let slots = SendPtr(base);
            let (next, done, init, f) = (&next, &done, &init, &f);
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                // Declared first so it drops last: the worker's state (and
                // any borrow it holds) is torn down before completion is
                // signalled and the dispatcher's stack frame can unwind.
                let _guard = DoneGuard(done);
                let _span = robo_trace::span("batch.worker");
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let value = f(&mut state, i);
                    // SAFETY: `i < count` and each index is claimed exactly
                    // once; the dispatcher does not touch `results` until
                    // all workers signalled completion.
                    unsafe { slots.write(i, value) };
                }
            });
            // SAFETY: the job is erased to 'static to travel through the
            // channel, but this function blocks until every dispatched job
            // has run to completion (DoneGuard fires even on panic), so the
            // borrowed environment strictly outlives the job.
            let job: Job = unsafe { std::mem::transmute(job) };
            self.sender
                .send(Message::Run(job))
                .expect("pool workers gone");
        }

        let (lock, cv) = &done;
        let mut finished = lock.lock().expect("done counter poisoned");
        while *finished < workers {
            finished = cv.wait(finished).expect("done counter poisoned");
        }
        drop(finished);

        results
            .into_iter()
            .map(|x| x.expect("worker panicked before storing a result"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        for _ in &self.workers {
            let _ = self.sender.send(Message::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A borrowed view of one evaluation point, as consumed by
/// [`BatchEngine::dynamics_gradient_batch`] and, for every kernel of the
/// family, by the engine's `DynamicsBackend::run_batch_into`.
#[derive(Debug, Clone, Copy)]
pub struct GradientState<'a, S> {
    /// Joint positions.
    pub q: &'a [S],
    /// Joint velocities.
    pub qd: &'a [S],
    /// The kernel's third input: the joint accelerations `q̈` the
    /// gradient (or inverse dynamics) is taken about, or the applied
    /// torques `τ` for forward dynamics.
    pub qdd: &'a [S],
    /// The mass-matrix inverse `M⁻¹` (host-computed, §5.1).
    pub minv: &'a MatN<S>,
}

/// The shared batch-evaluation engine: a [`ThreadPool`] plus the
/// per-worker-workspace convention.
///
/// # Examples
///
/// ```
/// use robo_dynamics::batch::BatchEngine;
///
/// let engine = BatchEngine::new(2);
/// let squares = engine.run(8, |i| i * i);
/// assert_eq!(squares[7], 49);
/// ```
#[derive(Debug)]
pub struct BatchEngine {
    pool: ThreadPool,
}

impl BatchEngine {
    /// An engine with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        Self {
            pool: ThreadPool::new(threads),
        }
    }

    /// An engine sized to the machine's available parallelism.
    pub fn with_default_size() -> Self {
        Self {
            pool: ThreadPool::with_default_size(),
        }
    }

    /// The process-wide shared engine, created on first use and sized to
    /// the machine's available parallelism. All library consumers (CPU
    /// baseline, coprocessor streaming, trajectory optimization) share it,
    /// so the process runs one pool rather than one per subsystem.
    pub fn global() -> &'static BatchEngine {
        static GLOBAL: OnceLock<BatchEngine> = OnceLock::new();
        GLOBAL.get_or_init(BatchEngine::with_default_size)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The underlying pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Runs a stateless batch; see [`ThreadPool::run`].
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked while processing an item.
    pub fn run<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.pool.run(count, f)
    }

    /// Runs a batch with per-worker state; see
    /// [`ThreadPool::run_with_state`]. `init` runs once per participating
    /// worker per batch, so per-item costs are amortized across the batch.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked while processing an item.
    pub fn run_with_state<W, T, I, F>(&self, count: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, usize) -> T + Sync,
    {
        self.pool.run_with_state(count, init, f)
    }

    /// Evaluates the dynamics-gradient kernel (Algorithm 1) for a batch of
    /// states in parallel, one reusable [`GradWorkspace`] per worker —
    /// the paper's §6.1 batch structure with allocation-free per-item work.
    ///
    /// # Panics
    ///
    /// Panics if any state's dimensions differ from `model.dof()`.
    pub fn dynamics_gradient_batch<S: Scalar>(
        &self,
        model: &DynamicsModel<S>,
        states: &[GradientState<'_, S>],
    ) -> Vec<DynamicsGradient<S>> {
        self.run_with_state(
            states.len(),
            || GradWorkspace::for_model(model),
            |ws, i| {
                let s = &states[i];
                dynamics_gradient_into(model, s.q, s.qd, s.qdd, s.minv, ws);
                DynamicsGradient {
                    dqdd_dq: ws.dqdd_dq.clone(),
                    dqdd_dqd: ws.dqdd_dqd.clone(),
                    id_gradient: InverseDynamicsGradient {
                        dtau_dq: ws.dtau_dq.clone(),
                        dtau_dqd: ws.dtau_dqd.clone(),
                    },
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics_gradient_from_qdd;
    use crate::mass_matrix;
    use robo_model::robots;

    #[test]
    fn computes_in_order() {
        let pool = ThreadPool::new(3);
        let out = pool.run(50, |i| 2 * i);
        assert_eq!(out.len(), 50);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2 * i);
        }
    }

    #[test]
    fn empty_batch() {
        let pool = ThreadPool::new(2);
        let out: Vec<usize> = pool.run(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn batch_smaller_than_pool() {
        let pool = ThreadPool::new(8);
        let out = pool.run(3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn reusable_across_batches() {
        let pool = ThreadPool::new(4);
        for round in 0..5 {
            let out = pool.run(16, |i| i * round);
            assert_eq!(out[3], 3 * round);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn scoped_run_borrows_caller_data() {
        let pool = ThreadPool::new(4);
        let data: Vec<usize> = (0..64).collect();
        let out = pool.run(data.len(), |i| data[i] * 3);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 3 * i);
        }
    }

    #[test]
    fn run_with_state_inits_once_per_participating_worker() {
        let pool = ThreadPool::new(4);
        let inits = AtomicUsize::new(0);
        let out = pool.run_with_state(
            100,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |count, i| {
                *count += 1;
                i
            },
        );
        assert_eq!(out.len(), 100);
        assert_eq!(inits.load(Ordering::SeqCst), 4);

        // A single-item batch engages exactly one worker.
        inits.store(0, Ordering::SeqCst);
        let out = pool.run_with_state(
            1,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
            },
            |(), i| i,
        );
        assert_eq!(out, vec![0]);
        assert_eq!(inits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn empty_batch_with_state_skips_init() {
        let pool = ThreadPool::new(2);
        let inits = AtomicUsize::new(0);
        let out: Vec<usize> = pool.run_with_state(
            0,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
            },
            |(), i| i,
        );
        assert!(out.is_empty());
        assert_eq!(inits.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn drop_sends_shutdown_and_joins_all_workers() {
        let pool = ThreadPool::new(4);
        let sender = pool.sender.clone();
        let _ = pool.run(8, |i| i);
        drop(pool);
        // Drop joined every worker, so the worker-held receiver is gone and
        // the channel reports disconnection. (If any worker were still
        // alive, join() inside drop would have blocked instead.)
        assert!(sender.send(Message::Shutdown).is_err());
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = ThreadPool::new(2);
        let batch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(8, |i| {
                assert!(i != 3, "injected failure");
                i
            })
        }));
        assert!(batch.is_err(), "missing result must surface as a panic");
        // The workers caught the panic and are still serving.
        let out = pool.run(4, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn engine_gradient_batch_matches_serial() {
        let robot = robots::iiwa14();
        let model = DynamicsModel::<f64>::new(&robot);
        let n = model.dof();
        type OwnedState = (Vec<f64>, Vec<f64>, Vec<f64>, MatN<f64>);
        let states: Vec<OwnedState> = (0..6)
            .map(|k| {
                let q: Vec<f64> = (0..n).map(|i| 0.1 * (i + k) as f64).collect();
                let qd: Vec<f64> = (0..n).map(|i| 0.05 * (i as f64) - 0.1).collect();
                let qdd = vec![0.2; n];
                let minv = mass_matrix(&model, &q).inverse_spd().unwrap();
                (q, qd, qdd, minv)
            })
            .collect();
        let views: Vec<GradientState<'_, f64>> = states
            .iter()
            .map(|(q, qd, qdd, minv)| GradientState { q, qd, qdd, minv })
            .collect();
        let engine = BatchEngine::new(3);
        let batch = engine.dynamics_gradient_batch(&model, &views);
        for (out, (q, qd, qdd, minv)) in batch.iter().zip(states.iter()) {
            let serial = dynamics_gradient_from_qdd(&model, q, qd, qdd, minv);
            assert_eq!(out.dqdd_dq, serial.dqdd_dq);
            assert_eq!(out.dqdd_dqd, serial.dqdd_dqd);
        }
    }

    #[test]
    fn global_engine_is_shared() {
        let a = BatchEngine::global() as *const _;
        let b = BatchEngine::global() as *const _;
        assert_eq!(a, b);
        assert!(BatchEngine::global().threads() >= 1);
    }
}
