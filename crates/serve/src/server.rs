//! The server facade: registration, submission, stats, and graceful
//! shutdown.

use crate::cache::{MorphShards, PlanCache};
use crate::error::{Rejected, ServeError};
use crate::slot::{GradientRequest, ResponseSlot};
use crate::ServeConfig;
use robo_dynamics::engine::KernelKind;
use robo_dynamics::{DynamicsModel, MorphologyKey};
use robo_model::RobotModel;
use robo_sim::engine::RobotPlan;
use std::sync::atomic::Ordering;
use std::sync::Arc;

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
    /// Micro-batcher flushes executed.
    pub flushes: u64,
    /// Flushes of a kernel that runs in lane groups whose batch was not a
    /// whole number of them (linger deadline or drain fired before the
    /// batch filled).
    pub ragged_flushes: u64,
    /// Deepest any shard queue has been — the backpressure observable to
    /// alert on before shedding starts.
    pub queue_high_water: u64,
}

struct ServerInner {
    config: ServeConfig,
    cache: PlanCache,
}

impl Drop for ServerInner {
    fn drop(&mut self) {
        // Graceful shutdown: mark every shard draining first (so all
        // workers start flushing concurrently), then join.
        let shards = self.cache.shards();
        for s in &shards {
            s.begin_shutdown();
        }
        for s in &shards {
            s.join_workers();
        }
    }
}

/// The gradient-serving front end (see the [crate docs](crate) for the
/// architecture). Cheap to clone — clones share the plan cache and
/// shards; the last clone dropped drains and joins the workers.
#[derive(Clone)]
pub struct GradientServer {
    inner: Arc<ServerInner>,
}

impl GradientServer {
    /// A server with [`ServeConfig::default`] tuning.
    pub fn new() -> Self {
        Self::with_config(ServeConfig::default())
    }

    /// A server with explicit tuning.
    pub fn with_config(config: ServeConfig) -> Self {
        Self {
            inner: Arc::new(ServerInner {
                config,
                cache: PlanCache::new(),
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
    /// The gradient shard is warmed eagerly (it is the historical default
    /// workload); `id`/`fd` shards spawn lazily on first submission.
    pub fn register(&self, robot: &RobotModel) -> MorphologyKey {
        let _span = robo_trace::span("serve.register");
        let key = MorphologyKey::of_model(&DynamicsModel::new(robot));
        let morph = self.inner.cache.get_or_build(key, || {
            Arc::new(MorphShards::new(Arc::new(RobotPlan::new(robot))))
        });
        debug_assert_eq!(morph.plan().morphology_key(), key);
        let _ = morph.shard(KernelKind::Gradient, &self.inner.config);
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
    /// (spawning that shard on first use). On admission the micro-batcher
    /// takes over and `slot` completes once the coalesced batch flushes;
    /// on rejection the buffer comes back in [`Rejected`] with a typed
    /// [`ServeError`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownMorphology`] (not registered),
    /// [`ServeError::Dimension`] (buffer sizes vs. plan dof),
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
        let Some(morph) = self.inner.cache.get(key) else {
            return Err(Rejected {
                error: ServeError::UnknownMorphology(key),
                req,
            });
        };
        let shard = morph.shard(req.kernel, &self.inner.config);
        shard.enqueue(req, slot)
    }

    /// Convenience round trip: [`submit`](Self::submit) then
    /// [`ResponseSlot::wait`].
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
        self.submit(key, req, slot)?;
        Ok(slot.wait())
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
