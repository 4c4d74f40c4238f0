//! Built-in stream operators.

mod map;

pub use map::MapOp;
