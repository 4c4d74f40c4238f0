//! Process-global telemetry statics for the columnar substrate.
//!
//! Like `gesto_cep::metrics`, these are `const`-initialised statics
//! updated with relaxed atomic adds from the hot path and exported by
//! `'static` reference from `gesto-serve`'s registry — the block
//! builders are shared by every session and have no registry handle to
//! thread through.

use gesto_telemetry::ShardedCounter;

/// Columnar frame blocks materialised ([`crate::ColumnBlock::begin`] /
/// `begin_filtered` calls).
///
/// Sharded variants: every shard worker builds blocks on every batch,
/// so a single-atomic counter would false-share one cache line across
/// all pinned cores (see `gesto_cep::metrics`).
pub static BLOCKS_BUILT_TOTAL: ShardedCounter = ShardedCounter::new();

/// Rows materialised across all built blocks.
pub static BLOCK_ROWS_BUILT_TOTAL: ShardedCounter = ShardedCounter::new();

/// Every tuple built: a raw or scalar-batch view tuple, and a deferred
/// view row some consumer read (counted when the row is spent, at the
/// next batch or `lend`). Per frame, it is the tuples a frame costs.
pub static TUPLES_BUILT_TOTAL: ShardedCounter = ShardedCounter::new();
