//! The server's one flush pool: `workers` threads that take the next
//! shard with queued work from a ready list.

use crate::shard::Shard;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

#[derive(Default)]
struct State {
    /// Shards with queued work and a free kit, in the order they became
    /// ready. A shard is on it at most once (see [`Shard::list`]).
    ready: VecDeque<Arc<Shard>>,
    /// Shards built on this pool: the ready list's reserved length.
    shards: usize,
    /// Workers parked in [`Pool::next`]. Listing a shard wakes one only
    /// if some are: a busy worker comes back for the list on its own.
    idle: usize,
    stop: bool,
}

/// The ready list the pool's workers take shards from.
pub(crate) struct Pool {
    state: Mutex<State>,
    work: Condvar,
}

impl Pool {
    /// A pool with an empty ready list and no threads: the server spawns
    /// them ([`work`]); the unit tests drive `work` by hand.
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::default(),
            work: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // No code that can panic runs under the lock.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Reserves a ready-list slot for one more shard, so listing never
    /// allocates.
    pub(crate) fn reserve(&self) {
        let mut s = self.lock();
        s.shards += 1;
        let extra = s.shards - s.ready.len();
        s.ready.reserve(extra);
    }

    /// Appends `shard` to the ready list; returns whether a worker is
    /// parked, to be woken with [`Pool::wake`] once the caller has
    /// released its own lock.
    pub(crate) fn push(&self, shard: Arc<Shard>) -> bool {
        let mut s = self.lock();
        s.ready.push_back(shard);
        s.idle > 0
    }

    pub(crate) fn wake(&self) {
        self.work.notify_one();
    }

    /// The next ready shard, blocking while the list is empty; `None`
    /// once the pool is stopped and the list is drained.
    pub(crate) fn next(&self) -> Option<Arc<Shard>> {
        let mut s = self.lock();
        loop {
            if let Some(shard) = s.ready.pop_front() {
                return Some(shard);
            }
            if s.stop {
                return None;
            }
            s.idle += 1;
            s = self.work.wait(s).unwrap_or_else(|p| p.into_inner());
            s.idle -= 1;
        }
    }

    /// Lets the workers exit once the ready list is drained. Call after
    /// every shard refuses admissions, so nothing is listed afterwards.
    pub(crate) fn stop(&self) {
        self.lock().stop = true;
        self.work.notify_all();
    }
}

/// A pool worker's body: flushes ready shards until the pool stops.
///
/// A backend panic ends only the flush it hit: that flush's kit and batch
/// are dropped, and the worker goes on serving every other shard.
pub(crate) fn work(pool: &Pool) {
    while let Some(shard) = pool.next() {
        let _ = panic::catch_unwind(AssertUnwindSafe(|| shard.visit()));
    }
}
