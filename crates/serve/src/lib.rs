//! The kernel-serving tier: many concurrent clients, saturated lanes.
//!
//! Everything below this crate evaluates the dynamics kernel family fast
//! *given a batch*: [`RobotPlan`] compiles the morphology once, the wide
//! backends evaluate `serve_width` states per kernel instruction, and
//! [`BatchEngine`] fans lane-groups across cores. What none of that
//! answers is where the batch comes from. Real serving load is the
//! opposite shape — thousands of independent clients each asking for *one*
//! evaluation at a time — and evaluated one-by-one the wide path never
//! fills a lane.
//!
//! [`GradientServer`] is the front end that turns that request stream back
//! into the shape the engine layer is fast at:
//!
//! ```text
//!   clients                GradientServer                    engine layer
//!  ────────   submit()   ┌───────────────────────────────┐
//!   c0 ──────────────────▶ plan cache (MorphologyKey →   │
//!   c1 ──────────────────▶   plan + per-kernel shards;   │
//!   c2 ──────────────────▶   one build per robot)        │
//!  ────────              │        │                      │
//!                        │        ▼ (morphology, kernel) │
//!                        │  bounded queue ──▶ coalescer ──▶ lane-groups of
//!                        │  (admission      (flush on      serve_width ×
//!                        │   control,        batch-full    worker threads
//!                        │   Overloaded      or linger     via the family
//!                        │   shed)           deadline)     backend
//!                        └───────────────────────────────┘
//!   c0 ◀───────────────── ResponseSlot::wait() ◀────────── serve.respond
//! ```
//!
//! * **Plan cache** — requests carry a [`MorphologyKey`] (a canonical
//!   digest of the robot's structure). The first request for a morphology
//!   builds its [`RobotPlan`] — exactly once, shared by every kernel of
//!   the multifunction family; N simultaneous cold requests coalesce onto
//!   **one** build. Everyone else gets the cached `Arc`.
//! * **Per-(morphology, kernel) shards** — each request names a
//!   [`KernelKind`] (`grad`, `id`, or `fd`) and is routed to that
//!   kernel's own queue and workers, so gradient batches coalesce wide
//!   while the latency-bound vector kernels drain without disturbing
//!   them. The gradient shard is warmed at registration; `id`/`fd`
//!   shards spawn lazily on first submission.
//! * **Dynamic micro-batcher** — each shard owns a bounded queue and
//!   worker threads. A worker drains up to `max_batch` requests at a time,
//!   flushing when a batch fills **or** when the oldest queued request has
//!   lingered past the configurable deadline — so a lone request still
//!   sees bounded latency (a ragged, partial-lane flush) while bursts ride
//!   full lanes. Every flush is one kernel-tagged `run_batch_into` call;
//!   the engine decides which kernels run in lane groups.
//! * **Backpressure** — the queue is bounded; when it is full, submission
//!   fails fast with [`ServeError::Overloaded`] and hands the request
//!   buffer back ([`Rejected`]) instead of queueing unbounded work. A
//!   queue-depth high-water mark is tracked in [`ServeStats`].
//! * **Graceful shutdown** — dropping the server marks every shard
//!   draining, workers flush whatever is queued (every accepted request is
//!   answered), and threads are joined.
//!
//! The hot path is allocation-free once warm (see `tests/alloc_free.rs`):
//! request and response travel through caller-owned, reusable
//! [`GradientRequest`] buffers handed back by [`ResponseSlot::wait`], so
//! steady-state serving does not touch the allocator. The allowed
//! allocation points are all cold: plan build, shard/worker spawn, slot
//! creation, and first-use buffer sizing.
//!
//! # Example
//!
//! ```
//! use robo_model::robots;
//! use robo_serve::{GradientRequest, GradientServer, ResponseSlot};
//!
//! let server = GradientServer::new();
//! let key = server.register(&robots::iiwa14());
//! let plan = server.plan(key).expect("registered");
//! let n = plan.dof();
//!
//! // A reusable request buffer and completion slot per client.
//! let mut req = GradientRequest::for_dof(n);
//! let slot = ResponseSlot::new();
//! req.q.copy_from_slice(&[0.1, -0.3, 0.5, 0.7, -0.2, 0.4, 0.0]);
//! // qd/qdd stay zero; M⁻¹ at q:
//! req.minv = robo_dynamics::mass_matrix_inverse(plan.model(), &req.q).unwrap();
//!
//! server.submit(key, req, &slot).expect("admitted");
//! let req = slot.wait(); // blocks until the micro-batcher responds
//! assert_eq!(req.out.dqdd_dq.rows(), n);
//! ```
//!
//! [`RobotPlan`]: robo_sim::engine::RobotPlan
//! [`BatchEngine`]: robo_dynamics::batch::BatchEngine

#![warn(missing_docs)]

mod cache;
mod error;
mod server;
mod shard;
mod slot;

pub use error::{Rejected, ServeError};
pub use robo_dynamics::engine::KernelKind;
pub use robo_dynamics::MorphologyKey;
pub use server::{GradientServer, ServeStats};
pub use slot::{GradientRequest, ResponseSlot};

use robo_sim::engine::BackendKind;
use robo_spatial::ExecTier;
use std::time::Duration;

/// Tuning knobs for a [`GradientServer`].
///
/// The defaults target the serving sweet spot: accelerator backend,
/// lane-group batches of `4 × serve_width`, and a
/// 200 µs linger — short against control-loop periods, long against
/// kernel evaluation, so concurrent clients coalesce without a lone
/// client stalling.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Micro-batcher worker threads per morphology shard. `0` (the
    /// default) auto-sizes to the host parallelism, capped at 4.
    pub workers: usize,
    /// Bounded queue depth per shard; submissions beyond it shed with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Batch-full threshold, in lane groups: a worker flushes once
    /// `lane_groups_per_flush × serve_width` requests are queued. `0`
    /// disables coalescing entirely (naive one-request-one-gradient
    /// dispatch — the load-generator baseline).
    pub lane_groups_per_flush: usize,
    /// Maximum time the oldest queued request may linger before a worker
    /// flushes a partial (ragged) batch.
    pub max_linger: Duration,
    /// Engine backend each worker serves through.
    pub backend: BackendKind,
    /// Selects nothing: every plan serves `Lanes<f64, SERVE_LANES>`,
    /// fixed at compile time. Kept only because the benchmark's harness
    /// still reads it.
    pub tier: Option<ExecTier>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 256,
            lane_groups_per_flush: 4,
            max_linger: Duration::from_micros(200),
            backend: BackendKind::Accel,
            tier: None,
        }
    }
}

impl ServeConfig {
    /// The worker-thread count a shard actually spawns (resolves the
    /// `0 = auto` default against host parallelism).
    pub fn resolved_workers(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
    }

    /// The batch-full threshold in requests for a plan serving
    /// `serve_width` states per wide instruction.
    pub fn max_batch(&self, serve_width: usize) -> usize {
        if self.lane_groups_per_flush == 0 {
            1
        } else {
            self.lane_groups_per_flush * serve_width.max(1)
        }
    }
}
