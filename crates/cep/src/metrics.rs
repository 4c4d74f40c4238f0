//! Process-global telemetry statics for the NFA runtime and the
//! predicate kernel.
//!
//! The NFA hot path has no natural place to thread a registry handle
//! through — runtimes are created per (session, query) deep inside the
//! shard workers — so the counters live here as `const`-initialised
//! [`Global`]s, each declared with its exported name and help, and
//! [`export`] publishes them all in a registry (`gesto-serve` calls it
//! for each server). Updates are relaxed atomic adds; nothing here
//! allocates or locks.
//!
//! Because the statics are process-global they aggregate across every
//! engine and runtime in the process. That is the operational view an
//! operator wants from `/metrics`; per-query breakdowns remain available
//! through [`crate::Engine::stats_all`].

use gesto_telemetry::{Global, Histogram, Registry, ShardedCounter, ShardedGauge, SharedSampler};

/// The family of sampled pipeline-stage timers. The kernel pre-pass
/// adds its `stage="kernel"` series here ([`KERNEL_STAGE_NS`]);
/// `gesto-serve` adds the other stages to the same family.
pub const STAGE_NAME: &str = "gesto_stage_duration_ns";

/// Help text of the [`STAGE_NAME`] family.
pub const STAGE_HELP: &str =
    "Sampled duration of one pipeline stage for one batch, in nanoseconds \
     (1-in-64 sampled)";

/// A sharded counter named `name`, with no labels.
const fn counter(name: &'static str, help: &'static str) -> Global<ShardedCounter> {
    Global::new(name, help, &[], ShardedCounter::new())
}

/// Live NFA runs across all runtimes in the process.
///
/// All the counters and gauges in this module are the *sharded*
/// instrument variants: every shard worker bumps them on every batch,
/// and with plain single-atomic instruments those updates would
/// false-share one cache line across all cores (measurable once shard
/// workers are pinned to distinct cores). Sharded instruments pay the
/// fan-in at scrape time instead.
pub static NFA_RUNS_ACTIVE: Global<ShardedGauge> = Global::new(
    "gesto_nfa_runs_active",
    "Live (partial-match) NFA runs across all sessions",
    &[],
    ShardedGauge::new(),
);

/// Runs seeded (started) by a step-1 match.
pub static NFA_RUNS_SEEDED_TOTAL: Global<ShardedCounter> = counter(
    "gesto_nfa_runs_seeded_total",
    "NFA runs started by a first-step match",
);

/// Runs discarded because their `within` window expired.
pub static NFA_RUNS_EXPIRED_TOTAL: Global<ShardedCounter> = counter(
    "gesto_nfa_runs_expired_total",
    "NFA runs discarded because a within-window expired",
);

/// Runs shed by the `max_runs` overload guard.
pub static NFA_RUNS_SHED_TOTAL: Global<ShardedCounter> = counter(
    "gesto_nfa_runs_shed_total",
    "NFA runs shed by the max_runs overload guard",
);

/// Completed pattern matches (detections) emitted.
pub static NFA_MATCHES_TOTAL: Global<ShardedCounter> = counter(
    "gesto_nfa_matches_total",
    "Completed pattern matches emitted by the NFA",
);

/// Rows the NFA stepping loops actually visited (candidate rows; every
/// row on the scalar path). Against [`KERNEL_BLOCK_ROWS_TOTAL`] — rows
/// presented to the kernels — this is the match side's useful work per
/// attempt.
pub static NFA_ROWS_STEPPED_TOTAL: Global<ShardedCounter> = counter(
    "gesto_nfa_rows_stepped_total",
    "Rows the NFA stepping loops visited (candidate rows; compare \
     gesto_kernel_block_rows_total, the rows presented to the kernels)",
);

/// Runs dropped because an older (under `select last`, a newer) run
/// that the same row moved into the same step shares their future.
pub static NFA_RUNS_MERGED_TOTAL: Global<ShardedCounter> = counter(
    "gesto_nfa_runs_merged_total",
    "NFA runs dropped because a run the same row moved into the same step shares their future",
);

/// Event-arena compactions performed by the NFA runtimes.
pub static NFA_ARENA_COMPACTIONS_TOTAL: Global<ShardedCounter> = counter(
    "gesto_nfa_arena_compactions_total",
    "Event-arena compactions performed by NFA runtimes",
);

/// Predicate-kernel block evaluations (one per step per block).
pub static KERNEL_BLOCK_EVALS_TOTAL: Global<ShardedCounter> = counter(
    "gesto_kernel_block_evals_total",
    "Vectorized predicate evaluations (one per hot step per block)",
);

/// Step-predicate block evaluations the lane bounds decided with no
/// row pass (also counted in [`KERNEL_BLOCK_EVALS_TOTAL`] and
/// [`KERNEL_BLOCK_ROWS_TOTAL`]).
pub static KERNEL_BOUNDS_DECIDED_TOTAL: Global<ShardedCounter> = counter(
    "gesto_kernel_bounds_decided_total",
    "Vectorized predicate evaluations decided from lane bounds with no row pass",
);

/// Rows presented to the vectorized predicate kernel.
pub static KERNEL_BLOCK_ROWS_TOTAL: Global<ShardedCounter> = counter(
    "gesto_kernel_block_rows_total",
    "Rows presented to the vectorized predicate kernel",
);

/// Rows the kernel could not decide vectorized and deferred to the
/// scalar evaluator (missing columns, unsupported expressions).
pub static KERNEL_SCALAR_FALLBACK_TOTAL: Global<ShardedCounter> = counter(
    "gesto_kernel_scalar_fallback_total",
    "Rows the kernel left undecided and deferred to the scalar evaluator",
);

/// Sampled time of one stepped plan call's block evaluations, in
/// nanoseconds — the heats before the stepping loop and those made
/// mid-batch, summed and recorded once: the `stage="kernel"` series of
/// [`STAGE_NAME`].
pub static KERNEL_STAGE_NS: Global<Histogram> = Global::new(
    STAGE_NAME,
    STAGE_HELP,
    &[("stage", "kernel")],
    Histogram::new(),
);

/// 1-in-N sampler gating [`KERNEL_STAGE_NS`] timing so the steady-state
/// pre-pass pays a thread-local decrement, not two clock reads.
pub static KERNEL_SAMPLER: SharedSampler = SharedSampler::new(64, &KERNEL_TICK);

thread_local! {
    /// [`KERNEL_SAMPLER`]'s countdown on each thread.
    static KERNEL_TICK: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Publishes every instrument of this module in `registry` (idempotent,
/// like [`Registry::export`]).
pub fn export(registry: &Registry) {
    registry.export(&NFA_RUNS_ACTIVE);
    registry.export(&NFA_RUNS_SEEDED_TOTAL);
    registry.export(&NFA_RUNS_EXPIRED_TOTAL);
    registry.export(&NFA_RUNS_SHED_TOTAL);
    registry.export(&NFA_RUNS_MERGED_TOTAL);
    registry.export(&NFA_MATCHES_TOTAL);
    registry.export(&NFA_ROWS_STEPPED_TOTAL);
    registry.export(&NFA_ARENA_COMPACTIONS_TOTAL);
    registry.export(&KERNEL_BLOCK_EVALS_TOTAL);
    registry.export(&KERNEL_BOUNDS_DECIDED_TOTAL);
    registry.export(&KERNEL_BLOCK_ROWS_TOTAL);
    registry.export(&KERNEL_SCALAR_FALLBACK_TOTAL);
    registry.export(&KERNEL_STAGE_NS);
}
