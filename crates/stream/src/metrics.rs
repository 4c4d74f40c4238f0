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

/// Tuples overwritten in place — the slot's previous tuple was uniquely
/// owned, so no allocation: base tuples by
/// `gesto_kinect::KinectSlots::tuple_into` in the shard worker's scratch,
/// view outputs of scalar batches through [`crate::Emit::overwrite`].
/// The previous tuple is whatever the last batch left there, another
/// session's included. Counted per batch and added once.
pub static TUPLES_RECYCLED_TOTAL: ShardedCounter = ShardedCounter::new();

/// Every other tuple built: a fresh raw or view tuple where none could be
/// overwritten, and a deferred view row some consumer read (counted when
/// the row is spent, at the next batch or `lend`). `(built + recycled)`
/// per frame is the tuples a frame costs.
pub static TUPLES_BUILT_TOTAL: ShardedCounter = ShardedCounter::new();
