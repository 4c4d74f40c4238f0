//! Process-global telemetry statics for the NFA runtime and the
//! predicate kernel.
//!
//! The NFA hot path has no natural place to thread a registry handle
//! through — runtimes are created per (session, query) deep inside the
//! shard workers — so the counters live here as `const`-initialised
//! statics and `gesto-serve` exports them by `'static` reference
//! ([`gesto_telemetry::Registry::register_sharded_counter_ref`],
//! [`register_sharded_gauge_ref`](gesto_telemetry::Registry::register_sharded_gauge_ref)
//! and [`register_histogram_ref`](gesto_telemetry::Registry::register_histogram_ref)).
//! Updates are relaxed atomic adds; nothing here allocates or locks.
//!
//! Because the statics are process-global they aggregate across every
//! engine and runtime in the process. That is the operational view an
//! operator wants from `/metrics`; per-query breakdowns remain available
//! through [`crate::Engine::stats_all`].

use gesto_telemetry::{Histogram, ShardedCounter, ShardedGauge, SharedSampler};

/// Live NFA runs across all runtimes in the process.
///
/// All the counters and gauges in this module are the *sharded*
/// instrument variants: every shard worker bumps them on every batch,
/// and with plain single-atomic instruments those updates would
/// false-share one cache line across all cores (measurable once shard
/// workers are pinned to distinct cores). Sharded instruments pay the
/// fan-in at scrape time instead.
pub static NFA_RUNS_ACTIVE: ShardedGauge = ShardedGauge::new();

/// Runs seeded (started) by a step-1 match.
pub static NFA_RUNS_SEEDED_TOTAL: ShardedCounter = ShardedCounter::new();

/// Runs discarded because their `within` window expired.
pub static NFA_RUNS_EXPIRED_TOTAL: ShardedCounter = ShardedCounter::new();

/// Runs shed by the `max_runs` overload guard.
pub static NFA_RUNS_SHED_TOTAL: ShardedCounter = ShardedCounter::new();

/// Completed pattern matches (detections) emitted.
pub static NFA_MATCHES_TOTAL: ShardedCounter = ShardedCounter::new();

/// Rows the NFA stepping loops actually visited (candidate rows; every
/// row on the scalar path). Against [`KERNEL_BLOCK_ROWS_TOTAL`] — rows
/// presented to the kernels — this is the match side's useful work per
/// attempt.
pub static NFA_ROWS_STEPPED_TOTAL: ShardedCounter = ShardedCounter::new();

/// Runs dropped because an older (under `select last`, a newer) run
/// that the same row moved into the same step shares their future.
pub static NFA_RUNS_MERGED_TOTAL: ShardedCounter = ShardedCounter::new();

/// Event-arena compactions performed by the NFA runtimes.
pub static NFA_ARENA_COMPACTIONS_TOTAL: ShardedCounter = ShardedCounter::new();

/// Predicate-kernel block evaluations (one per step per block).
pub static KERNEL_BLOCK_EVALS_TOTAL: ShardedCounter = ShardedCounter::new();

/// Step-predicate block evaluations the lane bounds decided with no
/// row pass (also counted in [`KERNEL_BLOCK_EVALS_TOTAL`] and
/// [`KERNEL_BLOCK_ROWS_TOTAL`]).
pub static KERNEL_BOUNDS_DECIDED_TOTAL: ShardedCounter = ShardedCounter::new();

/// Rows presented to the vectorized predicate kernel.
pub static KERNEL_BLOCK_ROWS_TOTAL: ShardedCounter = ShardedCounter::new();

/// Rows the kernel could not decide vectorized and deferred to the
/// scalar evaluator (missing columns, unsupported expressions).
pub static KERNEL_SCALAR_FALLBACK_TOTAL: ShardedCounter = ShardedCounter::new();

/// Sampled duration of the per-block predicate pre-pass, in
/// nanoseconds. Exported by `gesto-serve` into the shared
/// `gesto_stage_duration_ns{stage="kernel"}` family.
pub static KERNEL_STAGE_NS: Histogram = Histogram::new();

/// 1-in-N sampler gating [`KERNEL_STAGE_NS`] timing so the steady-state
/// pre-pass pays one atomic add, not two clock reads.
pub static KERNEL_SAMPLER: SharedSampler = SharedSampler::new(64);
