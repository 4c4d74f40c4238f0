//! Server configuration.

use std::path::PathBuf;

/// What `push_batch` does when a shard's ingest queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the caller until the shard catches up. No frame is ever
    /// lost; producer threads absorb the slowdown.
    #[default]
    Block,
    /// Enqueue the new batch and shed the oldest still-queued batch on
    /// that shard. Latency stays bounded; stale frames are sacrificed
    /// first (the right trade for live gesture streams).
    DropOldest,
}

/// Configuration of a [`crate::Server`].
///
/// ```
/// use gesto_serve::{BackpressurePolicy, ServerConfig};
///
/// let config = ServerConfig::new()
///     .with_shards(4)
///     .with_queue_capacity(256)
///     .with_backpressure(BackpressurePolicy::DropOldest);
/// assert_eq!(config.effective_shards(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker shards (detection threads). `0` means one per available
    /// CPU core.
    pub shards: usize,
    /// Maximum queued frame batches per shard before the backpressure
    /// policy kicks in (a soft bound under concurrent producers). The
    /// server reads it through [`Self::effective_queue_capacity`], so
    /// `0` behaves as `1`.
    pub queue_capacity: usize,
    /// Full-queue behaviour.
    pub backpressure: BackpressurePolicy,
    /// Minimum batch size (frames per push) for the columnar path:
    /// one structure-of-arrays block per batch (straight from the
    /// skeleton frames) and the NFA's vectorized predicate pre-pass
    /// over its float lanes.
    ///
    /// The block kernels pay a fixed mask-setup cost per batch, so tiny
    /// batches lose to scalar evaluation (0.3–1.0× at batch 1,
    /// 4.5–8.8× at batch 16; `gesto-cep`'s `kernel_speed` test prints
    /// the table). The shard worker
    /// therefore picks scalar vs columnar **per pushed batch**: a batch
    /// shorter than this threshold evaluates predicates tuple-at-a-time,
    /// a batch at or above it builds the block and runs the vectorized
    /// pre-pass. Detections are bit-identical either way. This is the
    /// only dial: `0` makes every batch columnar, `usize::MAX` none. See
    /// `docs/ARCHITECTURE.md` ("Adaptive scalar-vs-columnar choice")
    /// for how the default was picked.
    pub columnar_min_batch: usize,
    /// Pin each shard worker to a dedicated CPU core (Linux only;
    /// ignored elsewhere and on single-core hosts).
    ///
    /// The placement policy ([`crate::affinity::placement`]) spreads
    /// shards over every core of the process but core 0; nothing else
    /// is pinned, so the network I/O thread(s) may still share a
    /// shard's core. Which core each shard landed on (or `-1` for
    /// unpinned) is exported as `gesto_shard_pinned_core{shard}`.
    pub pin_shards: bool,
    /// Durable control plane: the directory holding the write-ahead
    /// journal segments (`wal-*.log`) and checkpoints (`ckpt-*.ckpt`),
    /// created on start if missing. Every control op (teach, deploy,
    /// undeploy) is journaled and `fdatasync`ed before it returns —
    /// never frames, so the data path pays nothing — and a checkpoint
    /// is taken every 16 journaled ops, keeping the two newest. A
    /// restart restores store + deployed plans from it. `None` (the
    /// default) keeps the control plane in-memory only. See
    /// `docs/DURABILITY.md` for the on-disk formats and recovery.
    pub durability: Option<PathBuf>,
    /// Per-shard memory budget in bytes (`0` = unlimited), covering the
    /// queued batches awaiting the worker plus the resident NFA
    /// run-slab/arena state of the shard's sessions. A push that would
    /// exceed it is refused with [`crate::ServeError::QueueFull`]
    /// regardless of backpressure policy (admission control: refuse
    /// work before it can OOM the process) and counted as
    /// `gesto_admission_rejected_total{reason="memory"}`.
    pub shard_memory_budget: usize,
    /// Staleness deadline in milliseconds (`0` = disabled). Under
    /// [`BackpressurePolicy::DropOldest`], a queued batch older than
    /// this when the worker dequeues it is dropped *before* NFA
    /// stepping — matching a gesture against frames this old is wasted
    /// work for a live stream. Counted as
    /// `gesto_admission_rejected_total{reason="stale"}`.
    pub max_batch_age_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 0,
            queue_capacity: 1024,
            backpressure: BackpressurePolicy::default(),
            columnar_min_batch: 8,
            pin_shards: false,
            durability: None,
            shard_memory_budget: 0,
            max_batch_age_ms: 0,
        }
    }
}

impl ServerConfig {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the shard count (`0` = one per CPU core).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-shard queue capacity (`0` behaves as `1`, see
    /// [`Self::effective_queue_capacity`]).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the full-queue behaviour.
    pub fn with_backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.backpressure = policy;
        self
    }

    /// Enables core pinning for shard workers (off by default; no-op on
    /// non-Linux targets and single-core hosts).
    pub fn with_pin_shards(mut self, on: bool) -> Self {
        self.pin_shards = on;
        self
    }

    /// Sets the per-shard memory budget in bytes (`0` = unlimited).
    pub fn with_shard_memory_budget(mut self, bytes: usize) -> Self {
        self.shard_memory_budget = bytes;
        self
    }

    /// Sets the staleness deadline for queued batches in milliseconds
    /// (`0` disables staleness shedding; only acts under
    /// [`BackpressurePolicy::DropOldest`]).
    pub fn with_max_batch_age_ms(mut self, ms: u64) -> Self {
        self.max_batch_age_ms = ms;
        self
    }

    /// Enables the durable control plane under `dir` (see
    /// [`Self::durability`]).
    pub fn with_durability(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durability = Some(dir.into());
        self
    }

    /// Resolved shard count: the configured value, or one shard per
    /// available CPU core when unset.
    pub fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Resolved per-shard queue capacity: the configured value, at least
    /// 1 (a capacity of 0 would park a blocking producer forever). The
    /// field is public, so the clamp lives where the value is read —
    /// queue gates, the overload state machine — and not in the setter.
    pub fn effective_queue_capacity(&self) -> usize {
        self.queue_capacity.max(1)
    }
}
