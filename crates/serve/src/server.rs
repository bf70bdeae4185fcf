//! The server facade: registration, submission, stats, and graceful
//! shutdown.

use crate::cache::{MorphShards, PlanCache};
use crate::error::{Rejected, ServeError};
use crate::pool::{self, Pool};
use crate::shard::Listing;
use crate::slot::{GradientRequest, ResponseSlot};
use crate::ServeConfig;
use robo_dynamics::engine::KernelKind;
use robo_dynamics::{DynamicsModel, MorphologyKey};
use robo_model::RobotModel;
use robo_sim::engine::RobotPlan;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Aggregated serving counters across every shard (see the field docs for
/// which stage each counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Plans actually built — stays at one per morphology no matter how
    /// many concurrent cold requests raced.
    pub plans_built: u64,
    /// Requests admitted past backpressure.
    pub submitted: u64,
    /// Requests answered (every admitted request is, even through
    /// shutdown drain).
    pub completed: u64,
    /// Requests shed with [`ServeError::Overloaded`].
    pub shed: u64,
    /// Micro-batcher flushes executed, by pool workers and by blocked
    /// waiters alike.
    pub flushes: u64,
    /// Flushes of a kernel that runs in lane groups whose batch was not a
    /// whole number of them (a pool worker or a blocked waiter flushed
    /// what was queued before a lane group filled).
    pub ragged_flushes: u64,
    /// Deepest any shard queue has been — the backpressure observable to
    /// alert on before shedding starts.
    pub queue_high_water: u64,
}

impl ServeStats {
    /// What happened between `before` (an earlier snapshot of the same
    /// server) and `self`: every counter is the difference, and
    /// `queue_high_water` keeps the current mark, which is a maximum, not
    /// a count.
    ///
    /// # Panics
    ///
    /// Panics if a counter of `before` exceeds `self`'s (the snapshots
    /// are out of order or from different servers).
    pub fn since(&self, before: &ServeStats) -> ServeStats {
        ServeStats {
            plans_built: self.plans_built - before.plans_built,
            submitted: self.submitted - before.submitted,
            completed: self.completed - before.completed,
            shed: self.shed - before.shed,
            flushes: self.flushes - before.flushes,
            ragged_flushes: self.ragged_flushes - before.ragged_flushes,
            queue_high_water: self.queue_high_water,
        }
    }
}

struct ServerInner {
    config: ServeConfig,
    cache: PlanCache,
    pool: Arc<Pool>,
    workers: Vec<JoinHandle<()>>,
}

impl Drop for ServerInner {
    fn drop(&mut self) {
        // Graceful shutdown: every shard refuses admissions first, so
        // nothing is listed once the pool stops; the pool then drains its
        // ready list and its workers are joined.
        for s in self.cache.shards() {
            s.begin_shutdown();
        }
        self.pool.stop();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The gradient-serving front end (see the [crate docs](crate) for the
/// architecture). Cheap to clone — clones share the plan cache, shards
/// and pool; the last clone dropped drains the shards and joins the
/// pool's workers.
#[derive(Clone)]
pub struct GradientServer {
    inner: Arc<ServerInner>,
}

impl GradientServer {
    /// A server with [`ServeConfig::default`] tuning.
    pub fn new() -> Self {
        Self::with_config(ServeConfig::default())
    }

    /// A server with explicit tuning. Spawns its flush pool:
    /// [`ServeConfig::resolved_workers`] threads named `serve-<i>`.
    pub fn with_config(config: ServeConfig) -> Self {
        let pool = Pool::new();
        let workers = (0..config.resolved_workers())
            .map(|i| {
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("serve-{i}"))
                    .spawn(move || pool::work(&pool))
                    .expect("spawn serve pool worker")
            })
            .collect();
        Self {
            inner: Arc::new(ServerInner {
                config,
                cache: PlanCache::new(),
                pool,
                workers,
            }),
        }
    }

    /// The server's tuning.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// Ensures a plan exists for `robot`'s morphology and returns its
    /// key. The first call per morphology builds the plan (once — shards
    /// for every kernel of the family share it); concurrent first calls
    /// coalesce onto exactly one build; later calls are a cache hit.
    ///
    /// The gradient shard is built eagerly (it is the historical default
    /// workload); `id`/`fd` shards are built lazily on first submission.
    pub fn register(&self, robot: &RobotModel) -> MorphologyKey {
        let _span = robo_trace::span("serve.register");
        let key = MorphologyKey::of_model(&DynamicsModel::new(robot));
        let morph = self.inner.cache.get_or_build(key, || {
            Arc::new(MorphShards::new(Arc::new(RobotPlan::new(robot))))
        });
        debug_assert_eq!(morph.plan().morphology_key(), key);
        let _ = morph.shard(KernelKind::Gradient, &self.inner.config, &self.inner.pool);
        key
    }

    /// The cached plan for a registered morphology — clients use it to
    /// size request buffers ([`RobotPlan::dof`]) and compute `M⁻¹` against
    /// the shared model.
    pub fn plan(&self, key: MorphologyKey) -> Option<Arc<RobotPlan>> {
        self.inner.cache.get(key).map(|m| Arc::clone(m.plan()))
    }

    /// Submits one kernel request for morphology `key`, routed to the
    /// (morphology, kernel) shard named by [`GradientRequest::kernel`]
    /// (building that shard on first use). On admission the micro-batcher
    /// takes over and `slot` completes once the coalesced batch flushes,
    /// on a pool worker or on a client blocked in [`ResponseSlot::wait`]; on
    /// rejection the buffer comes back in [`Rejected`] with a typed
    /// [`ServeError`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownMorphology`] (not registered),
    /// [`ServeError::Dimension`] (buffer sizes vs. plan dof),
    /// [`ServeError::NonFinite`] (a NaN or infinite input),
    /// [`ServeError::SlotBusy`] (slot already in flight),
    /// [`ServeError::Overloaded`] (bounded queue full — backpressure),
    /// [`ServeError::ShuttingDown`] (server draining).
    // The rejected buffer rides back by value so the caller can resubmit
    // without reallocating; boxing it would put an allocation on the
    // shed path.
    #[allow(clippy::result_large_err)]
    pub fn submit(
        &self,
        key: MorphologyKey,
        req: GradientRequest,
        slot: &ResponseSlot,
    ) -> Result<(), Rejected> {
        self.admit(key, req, slot, Listing::Wake)
    }

    /// Convenience round trip: [`submit`](Self::submit) then
    /// [`ResponseSlot::wait`], without waking the pool.
    ///
    /// The caller is about to wait, so admission neither lists the shard
    /// nor wakes a pool worker: if a flush kit is free when the caller
    /// starts waiting, the caller runs the batch itself (see
    /// [`ResponseSlot::wait`]). With every kit in use it parks, and the
    /// kits' holders list the shard when they give their kits back (during
    /// shutdown they flush what is left themselves). A lone request thus
    /// wakes no other thread. A caller that must not compute submits and
    /// polls [`ResponseSlot::try_take`] instead.
    ///
    /// # Errors
    ///
    /// As for [`submit`](Self::submit).
    #[allow(clippy::result_large_err)]
    pub fn serve(
        &self,
        key: MorphologyKey,
        req: GradientRequest,
        slot: &ResponseSlot,
    ) -> Result<GradientRequest, Rejected> {
        self.admit(key, req, slot, Listing::Waiter)?;
        Ok(slot.wait())
    }

    /// Routes `req` to its shard and queues it; `listing` says who flushes.
    #[allow(clippy::result_large_err)]
    fn admit(
        &self,
        key: MorphologyKey,
        req: GradientRequest,
        slot: &ResponseSlot,
        listing: Listing,
    ) -> Result<(), Rejected> {
        let Some(morph) = self.inner.cache.get(key) else {
            return Err(Rejected {
                error: ServeError::UnknownMorphology(key),
                req,
            });
        };
        let shard = morph.shard(req.kernel, &self.inner.config, &self.inner.pool);
        shard.enqueue(req, slot, listing)
    }

    /// Aggregated counters across all shards.
    pub fn stats(&self) -> ServeStats {
        let mut stats = ServeStats {
            plans_built: self.inner.cache.plans_built() as u64,
            ..ServeStats::default()
        };
        for shard in self.inner.cache.shards() {
            let s = &shard.stats;
            stats.submitted += s.submitted.load(Ordering::Relaxed);
            stats.completed += s.completed.load(Ordering::Relaxed);
            stats.shed += s.shed.load(Ordering::Relaxed);
            stats.flushes += s.flushes.load(Ordering::Relaxed);
            stats.ragged_flushes += s.ragged_flushes.load(Ordering::Relaxed);
            stats.queue_high_water = stats
                .queue_high_water
                .max(s.high_water.load(Ordering::Relaxed));
        }
        stats
    }
}

impl Default for GradientServer {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for GradientServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GradientServer")
            .field("config", &self.inner.config)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_since_subtracts_counters_and_keeps_the_high_water_mark() {
        let before = ServeStats {
            plans_built: 1,
            submitted: 10,
            completed: 9,
            shed: 2,
            flushes: 4,
            ragged_flushes: 3,
            queue_high_water: 7,
        };
        let now = ServeStats {
            plans_built: 2,
            submitted: 25,
            completed: 25,
            shed: 2,
            flushes: 9,
            ragged_flushes: 5,
            queue_high_water: 6,
        };
        let want = ServeStats {
            plans_built: 1,
            submitted: 15,
            completed: 16,
            shed: 0,
            flushes: 5,
            ragged_flushes: 2,
            queue_high_water: 6,
        };
        assert_eq!(now.since(&before), want);
        assert_eq!(now.since(&ServeStats::default()), now);
        assert_eq!(now.since(&now).submitted, 0);
    }
}
