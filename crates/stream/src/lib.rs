//! # gesto-stream — the data-stream substrate
//!
//! Minimal data-stream management core in the spirit of the AnduIN engine
//! used by *Beier et al., "Learning Event Patterns for Gesture Detection"*
//! (EDBT 2014): dynamically typed tuples with shared schemas, a catalog of
//! named streams and declarative views, and [`SharedViews`] — the
//! per-session runtime that evaluates every needed view once per batch
//! and hands the outputs (row tuples plus their [`ColumnBlock`]) to any
//! number of consumers.
//!
//! A view is one push-based [`Operator`] per catalog entry; the coordinate
//! transformation of the paper's §3.2 is such an operator, registered as
//! the view `kinect_t`. There is no operator-pipeline runtime here: the
//! CEP engine (`gesto-cep`) steps its NFAs directly over `SharedViews`'
//! batch outputs, which is the only tuple→detection path.
//!
//! ```
//! use std::sync::Arc;
//! use gesto_stream::ops::MapOp;
//! use gesto_stream::{Catalog, SchemaBuilder, SharedViews, Tuple, Value, ViewDef};
//!
//! let schema = SchemaBuilder::new("s").timestamp("ts").float("x").build().unwrap();
//! let catalog = Catalog::new();
//! catalog.register_stream(schema.clone()).unwrap();
//! let out = schema.clone();
//! catalog
//!     .register_view(ViewDef {
//!         name: "doubled".into(),
//!         input: "s".into(),
//!         schema: schema.clone(),
//!         factory: Arc::new(move || {
//!             let out = out.clone();
//!             Box::new(MapOp::new("double", out.clone(), move |t: &Tuple| {
//!                 let ts = t.get(0)?.clone();
//!                 Some(Tuple::new_unchecked(out.clone(), vec![ts, Value::Float(t.f64("x")? * 2.0)]))
//!             }))
//!         }),
//!     })
//!     .unwrap();
//!
//! let mut views = SharedViews::new(&catalog);
//! views.set_needed(["doubled"]);
//! let t = Tuple::new(schema, vec![Value::Timestamp(0), Value::Float(4.2)]).unwrap();
//! views.begin_batch("s", std::slice::from_ref(&t));
//! let slot = views.slot_of("doubled").unwrap();
//! assert_eq!(views.rows(slot).get(0).f64("x"), Some(8.4));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod block;
mod catalog;
mod error;
pub mod metrics;
mod operator;
pub mod ops;
mod rows;
mod schema;
mod shared;
pub mod time;
mod tuple;
mod value;
pub mod wire;

pub use block::{BitMask, ColumnBlock, FloatLane};
pub use catalog::{Catalog, ViewDef, ViewFactory};
pub use error::StreamError;
pub use operator::{run_operator, BoxedOperator, Emit, Operator, RowBatch};
pub use rows::{KeptRow, RowPayload, RowSource, ViewRows};
pub use schema::{Field, Schema, SchemaBuilder, SchemaRef};
pub use shared::{BatchBuffers, SharedViews};
pub use time::{FrameClock, StreamTime, KINECT_FRAME_MS, KINECT_HZ};
pub use tuple::{tuple_from_pairs, Tuple};
pub use value::{Value, ValueType};
