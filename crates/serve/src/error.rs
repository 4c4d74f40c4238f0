//! Serving-runtime errors.

use std::fmt;

use gesto_cep::CepError;
use gesto_learn::LearnError;

/// Errors of the serving runtime.
#[derive(Debug)]
pub enum ServeError {
    /// Query parsing/compilation/deployment failed.
    Cep(CepError),
    /// Learning a gesture from samples failed.
    Learn(LearnError),
    /// A shard refused the batch: admitting it would exceed the shard's
    /// memory budget ([`crate::ServerConfig::shard_memory_budget`] —
    /// enforced under **every** backpressure policy; refusing beats an
    /// OOM kill).
    QueueFull {
        /// Shard that refused the batch.
        shard: usize,
    },
    /// The server is shut down (worker threads are gone).
    Shutdown,
    /// The durable control plane failed: the journal could not be
    /// appended, a checkpoint could not be written, or recovery found
    /// state it cannot restore.
    Durability(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Cep(e) => write!(f, "query error: {e}"),
            ServeError::Learn(e) => write!(f, "learning failed: {e}"),
            ServeError::QueueFull { shard } => {
                write!(f, "shard {shard} ingest queue is full")
            }
            ServeError::Shutdown => write!(f, "server is shut down"),
            ServeError::Durability(m) => write!(f, "durability error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Cep(e) => Some(e),
            ServeError::Learn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CepError> for ServeError {
    fn from(e: CepError) -> Self {
        ServeError::Cep(e)
    }
}

impl From<LearnError> for ServeError {
    fn from(e: LearnError) -> Self {
        ServeError::Learn(e)
    }
}
