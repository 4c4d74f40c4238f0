//! # gesto-transform — user-invariant coordinates for gesture queries
//!
//! Implements §3.2 of *Beier et al., "Learning Event Patterns for Gesture
//! Detection"* (EDBT 2014): the single-pass data transformation that makes
//! gesture patterns position-, orientation- and scale-invariant, exposed
//! as the declarative `kinect_t` view, plus the Roll-Pitch-Yaw angle
//! operators registered as CEP scalar functions.
//!
//! ```
//! use gesto_transform::{standard_catalog, KINECT_T};
//!
//! let catalog = standard_catalog();
//! assert!(catalog.schema_of(KINECT_T).is_ok());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod rpy;
mod transform;
mod view;

pub use rpy::{pitch_deg, register_rpy, roll_deg, yaw_deg};
pub use transform::{Basis, TransformConfig, Transformer};
pub use view::{kinect_t_schema, register_kinect_t, standard_catalog, KINECT_T};
