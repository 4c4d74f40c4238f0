//! # gesto-cep — complex event processing for gesture detection
//!
//! The CEP engine of the reproduction of *Beier et al., "Learning Event
//! Patterns for Gesture Detection"* (EDBT 2014): a query language in the
//! paper's dialect (Fig. 1), an expression evaluator with user-defined
//! scalar functions, an NFA-based matcher with `within` time constraints
//! and `select`/`consume` policies, and a runtime engine that deploys,
//! replaces and undeploys queries on live streams.
//!
//! There is one tuple→detection path: a batch of base-stream tuples goes
//! through the session's `gesto_stream::SharedViews` (each needed view
//! evaluated once), every deployed [`PlanInstance`] steps its NFA over the
//! shared outputs ([`PlanInstance::push_batch_shared`]), and the NFA has
//! one stepping entry point ([`NfaRuntime::advance_block_into`]; a single
//! tuple is a one-tuple batch, the scalar path is `block = None`).
//! [`Engine`] is that path behind locks for one session; `gesto-serve`'s
//! shard worker is the same path per session. The seed's per-route path
//! survives only as the test oracle [`fixtures::PerRouteReference`].
//!
//! ```
//! use std::sync::Arc;
//! use gesto_stream::{Catalog, SchemaBuilder, Tuple, Value};
//! use gesto_cep::Engine;
//!
//! let mut catalog = Catalog::new();
//! let schema = SchemaBuilder::new("kinect").timestamp("ts").float("x").build().unwrap();
//! catalog.register_stream(schema.clone()).unwrap();
//!
//! let engine = Engine::new(Arc::new(catalog));
//! engine.deploy_text(
//!     r#"SELECT "swipe" MATCHING kinect(x < 10) -> kinect(x > 90) within 1 seconds;"#,
//! ).unwrap();
//!
//! let t0 = Tuple::new(schema.clone(), vec![Value::Timestamp(0), Value::Float(0.0)]).unwrap();
//! let t1 = Tuple::new(schema, vec![Value::Timestamp(500), Value::Float(100.0)]).unwrap();
//! assert!(engine.push("kinect", &t0).unwrap().is_empty());
//! assert_eq!(engine.push("kinect", &t1).unwrap()[0].gesture, "swipe");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod detection;
mod engine;
mod error;
pub mod expr;
pub mod fixtures;
mod lexer;
pub mod metrics;
mod nfa;
mod parser;
mod pattern;
mod plan;

pub use detection::Detection;
pub use engine::{DetectionListener, Engine, QueryStats};
pub use error::CepError;
pub use expr::{BinOp, Expr, FunctionRegistry, UnaryOp};
pub use nfa::{
    MatchScratch, MatchView, NfaProgram, NfaRuntime, SchemaResolver, SingleSchema, TimeConstraint,
    DEFAULT_MAX_RUNS,
};
pub use parser::{parse_expr, parse_pattern, parse_query};
pub use pattern::{ConsumePolicy, EventPattern, Pattern, Query, SelectPolicy, SequencePattern};
pub use plan::{
    compiled_plan_count, sync_block_columns, sync_shared_views, PlanInstance, QueryPlan, RouteSpec,
};
