//! The shared batch engine: persistent worker threads that join the
//! caller in its own batch.
//!
//! The paper's CPU baseline "was parallelized across the trajectory time
//! steps using a thread pool so that the overheads of creating and joining
//! threads did not impact the timing of the region of interest" (§6.1).
//! [`BatchEngine`] is that pool, with the caller as one more participant:
//! it starts on its batch at once, a parked worker joins only while items
//! are left, everyone claims items from one shared counter (so uneven
//! item costs balance out), and the caller waits only for the workers
//! that joined. [`BatchEngine::for_each`] names each call's participant,
//! so consumers keep one warm state per participant across batches — the
//! engine layer's `WarmForks` holds one backend fork each. The CPU
//! baseline, the coprocessor stream and the iLQR linearization all run on
//! the process-wide [`BatchEngine::global`] instance.

use robo_spatial::MatN;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A batch's job: `job(participant, item)`.
type Job<'a> = dyn Fn(usize, usize) + Sync + 'a;

/// The live batch, kept under the pool's mutex.
struct Batch {
    /// The caller's job, its lifetime erased (see [`BatchEngine::for_each`]).
    job: &'static Job<'static>,
    count: usize,
    /// Workers that joined; the `k`-th to join is participant `k`.
    joined: usize,
    /// Joined workers that have left.
    left: usize,
    /// The first panic of a worker's share, for the caller to resume.
    panic: Option<Box<dyn Any + Send>>,
}

#[derive(Default)]
struct State {
    batch: Option<Batch>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// The live batch's claim counter, beside the mutex so a claim takes
    /// no lock. It is reset under the mutex when a batch opens, and only
    /// the batch's participants advance it.
    next: AtomicUsize,
    /// Parked workers wait here for a batch or shutdown.
    work: Condvar,
    /// A closing caller waits here for its joined workers to leave.
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // No code that can panic runs under the lock.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs the live batch's items as `participant` until none is left.
    fn claim(&self, job: &Job<'_>, participant: usize, count: usize) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return;
            }
            job(participant, i);
        }
    }
}

/// Closes the caller's batch when dropped, on return and on unwind alike:
/// no worker joins after it, and it returns only once every joined worker
/// has left, handing back a worker's panic.
struct Close<'a> {
    shared: &'a Shared,
    count: usize,
    panic: &'a mut Option<Box<dyn Any + Send>>,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        // On unwind items may be left: exhaust them, so no worker joins
        // and the joined ones stop after their current item.
        self.shared.next.fetch_max(self.count, Ordering::Relaxed);
        let mut state = self.shared.lock();
        while state.batch.as_ref().is_some_and(|b| b.left < b.joined) {
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *self.panic = state.batch.take().and_then(|b| b.panic);
    }
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.lock();
    while !state.shutdown {
        let open = state.batch.as_mut();
        let Some(batch) = open.filter(|b| shared.next.load(Ordering::Relaxed) < b.count) else {
            state = shared
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        batch.joined += 1;
        let (job, participant, count) = (batch.job, batch.joined, batch.count);
        drop(state);
        // A panicking share must not kill the worker: the caller resumes
        // the panic, and the pool stays usable.
        let share = panic::catch_unwind(AssertUnwindSafe(|| {
            let _span = robo_trace::span("batch.worker");
            shared.claim(job, participant, count);
        }));
        state = shared.lock();
        if let Some(batch) = state.batch.as_mut() {
            batch.left += 1;
            if let Err(payload) = share {
                batch.panic.get_or_insert(payload);
            }
            if batch.left == batch.joined {
                shared.done.notify_one();
            }
        }
    }
}

/// A borrowed view of one evaluation point, as consumed, for every kernel
/// of the family, by the engine's `DynamicsBackend::run_batch_into`.
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

/// The shared batch-evaluation engine: a fixed set of persistent worker
/// threads that join the caller's batches.
///
/// One batch is live in the pool at a time. A caller that finds the pool
/// busy — another thread's batch, or a job calling the engine again — runs
/// its batch alone, so the engine never deadlocks. Dropping the engine
/// joins every worker.
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
pub struct BatchEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for BatchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEngine")
            .field("threads", &self.threads())
            .finish()
    }
}

impl BatchEngine {
    /// An engine with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "batch engine needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::default(),
            next: AtomicUsize::new(0),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("batch-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn batch worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// The process-wide shared engine, created on first use with one
    /// worker per hardware thread, so the process runs one pool rather
    /// than one per subsystem.
    pub fn global() -> &'static BatchEngine {
        static GLOBAL: OnceLock<BatchEngine> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            BatchEngine::new(std::thread::available_parallelism().map_or(4, |n| n.get()))
        })
    }

    /// Number of worker threads; a batch has up to `threads() + 1`
    /// participants, the caller included.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f(0..count)` on the caller and the pool and returns the
    /// results in index order; see [`BatchEngine::for_each`].
    ///
    /// # Panics
    ///
    /// Resumes the panic of any item's `f`.
    pub fn run<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let unpoisoned = "no code panics under a slot lock";
        self.for_each(count, |_, i| {
            let value = f(i);
            *slots[i].lock().expect(unpoisoned) = Some(value);
        });
        let slot = |s: Mutex<Option<T>>| s.into_inner().expect(unpoisoned).expect("every item ran");
        slots.into_iter().map(slot).collect()
    }

    /// Calls `f(participant, i)` once for every `i` in `0..count`. The
    /// caller is participant 0 and starts at once; a parked worker joins
    /// while items are left, as participant `1..=threads()`. No two calls
    /// that can overlap share a participant, so `participant` can index
    /// per-participant state that the caller builds once. Items are
    /// claimed one at a time from a shared counter. A one-item batch, or
    /// one that finds the pool busy, runs on the caller alone.
    ///
    /// `f` may borrow from the caller's stack: this call neither returns
    /// nor unwinds until every joined worker has left the batch.
    ///
    /// # Panics
    ///
    /// Resumes the panic of a worker's share once the batch has ended.
    pub fn for_each<F>(&self, count: usize, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if count == 0 {
            return;
        }
        let _span = robo_trace::span_items("batch.fanout", count);
        let job: &Job<'_> = &f;
        // SAFETY: only the lifetime is erased. A worker calls `job` only
        // between joining the batch and leaving it, and `Close` — dropped
        // before `f`, on return and on unwind alike — waits until every
        // joined worker has left and takes the batch, with `job`, back out
        // of the pool before this frame can end.
        let job = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        let mut state = self.shared.lock();
        if count == 1 || state.batch.is_some() {
            drop(state);
            (0..count).for_each(|i| f(0, i));
            return;
        }
        // Nobody claims from the counter now: the last batch's caller
        // waited for each of its joined workers before retiring it.
        self.shared.next.store(0, Ordering::Relaxed);
        state.batch = Some(Batch {
            job,
            count,
            joined: 0,
            left: 0,
            panic: None,
        });
        drop(state);
        for _ in 0..self.threads().min(count - 1) {
            self.shared.work.notify_one();
        }
        let mut worker_panic = None;
        {
            let _close = Close {
                shared: &self.shared,
                count,
                panic: &mut worker_panic,
            };
            self.shared.claim(job, 0, count);
        }
        if let Some(payload) = worker_panic {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for BatchEngine {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            // A worker catches every panic of its shares, so it only
            // returns.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// How long a blocking step may take before the test fails.
    const BOUND: Duration = Duration::from_secs(10);

    /// Runs `f` on a helper thread and fails, instead of hanging, if it
    /// does not finish within [`BOUND`].
    fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(BOUND).expect("the batch did not finish")
    }

    /// The message of a panic payload.
    fn message(payload: Box<dyn Any + Send>) -> String {
        match payload.downcast::<&str>() {
            Ok(s) => s.to_string(),
            Err(p) => p
                .downcast::<String>()
                .map_or_else(|_| String::new(), |s| *s),
        }
    }

    /// A two-item batch on `engine` whose caller's share waits for a
    /// worker's: it ends only if a worker joins.
    fn joins(engine: &BatchEngine) {
        let barrier = Barrier::new(2);
        engine.for_each(2, |_, _| {
            barrier.wait();
        });
    }

    #[test]
    fn computes_in_order() {
        let engine = BatchEngine::new(3);
        let out = engine.run(50, |i| 2 * i);
        assert_eq!(out, (0..50).map(|i| 2 * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_touches_no_worker() {
        let engine = BatchEngine::new(2);
        let out: Vec<usize> = engine.run(0, |_| unreachable!("no item to run"));
        assert!(out.is_empty());
        assert!(engine.shared.lock().batch.is_none());
    }

    #[test]
    fn one_item_batch_runs_on_the_caller() {
        let engine = BatchEngine::new(2);
        let me = std::thread::current().id();
        let out: Vec<ThreadId> = engine.run(1, |_| std::thread::current().id());
        assert_eq!(out, vec![me]);
    }

    #[test]
    fn batch_smaller_than_pool() {
        let engine = BatchEngine::new(8);
        assert_eq!(engine.run(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn reusable_across_batches() {
        let engine = BatchEngine::new(4);
        for round in 0..5 {
            let out = engine.run(16, |i| i * round);
            assert_eq!(out[3], 3 * round);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let _ = BatchEngine::new(0);
    }

    #[test]
    fn scoped_run_borrows_caller_data() {
        let engine = BatchEngine::new(4);
        let data: Vec<usize> = (0..64).collect();
        let out = engine.run(data.len(), |i| data[i] * 3);
        assert_eq!(out, (0..64).map(|i| 3 * i).collect::<Vec<_>>());
    }

    #[test]
    fn a_worker_joins_the_callers_batch() {
        // The caller's share waits on a 2-party barrier: the batch ends
        // only because the one worker joined and took the other item.
        let engine = Arc::new(BatchEngine::new(1));
        bounded(move || joins(&engine));
    }

    #[test]
    fn every_item_runs_once_on_a_participant_in_range() {
        let engine = BatchEngine::new(3);
        let seen: Vec<Mutex<Vec<usize>>> = (0..=3).map(|_| Mutex::new(Vec::new())).collect();
        engine.for_each(200, |p, i| seen[p].lock().unwrap().push(i));
        let mut all: Vec<usize> = seen
            .into_iter()
            .flat_map(|s| s.into_inner().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn a_caller_panic_unwinds_after_its_joined_worker_left() {
        let engine = Arc::new(BatchEngine::new(1));
        let (joined_tx, joined_rx) = mpsc::channel::<()>();
        let (returned_tx, returned_rx) = mpsc::channel::<()>();
        let (verdict_tx, verdict_rx) = mpsc::channel::<bool>();
        let (joined_rx, returned_rx) = (Mutex::new(joined_rx), Mutex::new(returned_rx));
        let caller = Arc::clone(&engine);
        let batch = bounded(move || {
            panic::catch_unwind(AssertUnwindSafe(|| {
                caller.for_each(2, |p, _| {
                    if p == 0 {
                        let joined = joined_rx.lock().unwrap().recv_timeout(BOUND);
                        joined.expect("the worker joined");
                        panic!("caller share");
                    }
                    joined_tx.send(()).unwrap();
                    // Had the caller unwound past the batch, the test
                    // thread would now signal in time.
                    let returned = returned_rx.lock().unwrap();
                    let returned = returned.recv_timeout(Duration::from_millis(200));
                    verdict_tx.send(returned.is_ok()).unwrap();
                });
            }))
            .map_err(message)
        });
        let _ = returned_tx.send(());
        assert_eq!(batch, Err("caller share".to_owned()));
        let early = verdict_rx.recv_timeout(BOUND).expect("the worker left");
        assert!(!early, "the caller unwound before its joined worker left");
        // The engine serves the next batch, and its worker still joins.
        assert_eq!(engine.run(8, |i| i), (0..8).collect::<Vec<_>>());
        bounded(move || joins(&engine));
    }

    #[test]
    fn a_worker_panic_surfaces_in_the_caller() {
        let engine = Arc::new(BatchEngine::new(1));
        let caller = Arc::clone(&engine);
        let batch = bounded(move || {
            let (tx, rx) = mpsc::channel::<()>();
            let rx = Mutex::new(rx);
            panic::catch_unwind(AssertUnwindSafe(|| {
                caller.for_each(2, |p, _| {
                    if p == 0 {
                        // Wait for the worker, so it takes an item.
                        let _ = rx.lock().unwrap().recv_timeout(BOUND);
                    } else {
                        let _ = tx.send(());
                        panic!("worker share");
                    }
                });
            }))
            .map_err(message)
        });
        assert_eq!(batch, Err("worker share".to_owned()));
        assert_eq!(engine.run(8, |i| i + 1), (1..9).collect::<Vec<_>>());
        bounded(move || joins(&engine));
    }

    #[test]
    fn concurrent_callers_get_their_results_in_order() {
        let engine = Arc::new(BatchEngine::new(2));
        let all_in_order = bounded(move || {
            let callers: Vec<_> = (0..4)
                .map(|k| {
                    let engine = Arc::clone(&engine);
                    std::thread::spawn(move || {
                        let want: Vec<usize> = (0..64).map(|i| i * k).collect();
                        (0..50).all(|_| engine.run(64, |i| i * k) == want)
                    })
                })
                .collect();
            callers
                .into_iter()
                .all(|c| c.join().expect("caller thread"))
        });
        assert!(all_in_order);
    }

    #[test]
    fn a_job_that_calls_the_engine_again_gets_its_results_in_order() {
        let engine = Arc::new(BatchEngine::new(2));
        let out = bounded(move || engine.run(16, |i| engine.run(8, |j| 8 * i + j)));
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..128).collect::<Vec<_>>());
    }

    #[test]
    fn drop_joins_every_worker() {
        let engine = BatchEngine::new(4);
        let _ = engine.run(8, |i| i);
        let shared = Arc::downgrade(&engine.shared);
        drop(engine);
        // Each worker owns a handle to the shared state until its thread
        // ends; after the joins none is left.
        assert!(shared.upgrade().is_none());
    }

    #[test]
    fn global_engine_is_shared() {
        let a = BatchEngine::global() as *const _;
        let b = BatchEngine::global() as *const _;
        assert_eq!(a, b);
        assert!(BatchEngine::global().threads() >= 1);
    }
}
