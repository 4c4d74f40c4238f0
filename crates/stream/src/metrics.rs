//! Process-global telemetry statics for the columnar substrate.
//!
//! Like `gesto_cep::metrics`, these are `const`-initialised
//! [`Global`]s, each declared with its exported name and help, updated
//! with relaxed atomic adds from the hot path and published by
//! [`export`] — the block builders are shared by every session and have
//! no registry handle to thread through.

use gesto_telemetry::{Global, Registry, ShardedCounter};

/// Columnar frame blocks materialised ([`crate::ColumnBlock::begin`] /
/// `begin_filtered` calls).
///
/// Sharded variants: every shard worker builds blocks on every batch,
/// so a single-atomic counter would false-share one cache line across
/// all pinned cores (see `gesto_cep::metrics`).
pub static BLOCKS_BUILT_TOTAL: Global<ShardedCounter> = Global::new(
    "gesto_blocks_built_total",
    "Columnar frame blocks materialised",
    &[],
    ShardedCounter::new(),
);

/// Rows materialised across all built blocks.
pub static BLOCK_ROWS_BUILT_TOTAL: Global<ShardedCounter> = Global::new(
    "gesto_block_rows_built_total",
    "Rows materialised across all built blocks",
    &[],
    ShardedCounter::new(),
);

/// Every tuple, counted when it is built: a raw or scalar-batch view
/// tuple, and a deferred view row some consumer read, or a kept one
/// read at last (`rows` module docs). Per frame, it is the tuples a
/// frame costs.
pub static TUPLES_BUILT_TOTAL: Global<ShardedCounter> = Global::new(
    "gesto_tuples_built_total",
    "Every tuple, counted when built; ÷ gesto_shard_frames_total = tuples per frame",
    &[],
    ShardedCounter::new(),
);

/// Publishes every instrument of this module in `registry` (idempotent,
/// like [`Registry::export`]).
pub fn export(registry: &Registry) {
    registry.export(&BLOCKS_BUILT_TOTAL);
    registry.export(&BLOCK_ROWS_BUILT_TOTAL);
    registry.export(&TUPLES_BUILT_TOTAL);
}
