//! Typed serving failures, and the [`Rejected`] envelope that hands the
//! caller's request buffer back on the shed path.

use crate::slot::GradientRequest;
use robo_dynamics::engine::EngineError;
use robo_dynamics::MorphologyKey;

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No plan is registered under this key; call
    /// [`GradientServer::register`](crate::GradientServer::register) first.
    UnknownMorphology(MorphologyKey),
    /// Admission control: the shard's bounded queue is full. Shed the
    /// request (or retry after backoff) — queueing unbounded work would
    /// only convert overload into unbounded latency.
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
        /// The shard's configured queue capacity.
        capacity: usize,
    },
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// The [`ResponseSlot`](crate::ResponseSlot) already has a request in
    /// flight; wait on it before reusing the slot.
    SlotBusy,
    /// The request's dimensions do not match the plan's joint count.
    Dimension(EngineError),
    /// An input entry is NaN or infinite. Refused at admission: a kernel
    /// fed one can fail mid-batch (the ABA's positive-pivot assert) and
    /// take its batch-mates down with it.
    NonFinite {
        /// The offending input: `q`, `qd`, `qdd` or `minv`.
        what: &'static str,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownMorphology(key) => {
                write!(f, "no plan registered for morphology {key}")
            }
            Self::Overloaded { depth, capacity } => write!(
                f,
                "shard overloaded: queue depth {depth} at capacity {capacity}"
            ),
            Self::ShuttingDown => write!(f, "server is shutting down"),
            Self::SlotBusy => write!(f, "response slot already has a request in flight"),
            Self::Dimension(e) => write!(f, "request rejected: {e}"),
            Self::NonFinite { what } => {
                write!(f, "request rejected: non-finite entry in `{what}`")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Dimension(e) => Some(e),
            _ => None,
        }
    }
}

/// A submission the server refused, carrying the request buffer back so
/// the caller can reuse it (nothing is dropped or reallocated on the shed
/// path).
#[derive(Debug)]
pub struct Rejected {
    /// Why admission failed.
    pub error: ServeError,
    /// The untouched request buffer, returned to the caller.
    pub req: GradientRequest,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for Rejected {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}
