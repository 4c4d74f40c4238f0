//! # gesto-db — the gesture database
//!
//! Storage layer of the reproduction of *Beier et al., "Learning Event
//! Patterns for Gesture Detection"* (EDBT 2014): recorded samples,
//! learned gesture definitions and generated query texts, with
//! CRC-checked snapshots and the paper's semicolon-CSV sample format
//! (Fig. 1).
//!
//! ```
//! use gesto_db::GestureStore;
//! use gesto_learn::{GestureSample, PathPoint};
//!
//! let store = GestureStore::new();
//! let sample = GestureSample { points: vec![PathPoint::new(0, vec![0.0, 0.0, 0.0])] };
//! assert_eq!(store.add_sample("swipe", sample), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod csv;
mod error;
mod store;

pub use csv::{export_sample, import_sample};
pub use error::DbError;
pub use store::{GestureRecord, GestureStore, StoreSnapshot, SNAPSHOT_VERSION};
