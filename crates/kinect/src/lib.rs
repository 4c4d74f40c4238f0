//! # gesto-kinect — a deterministic Kinect skeleton-stream simulator
//!
//! Hardware substitution for the Microsoft Kinect + OpenNI stack used by
//! *Beier et al., "Learning Event Patterns for Gesture Detection"* (EDBT
//! 2014): a parameterised body model, a library of gesture trajectories
//! (including the paper's Fig. 1 swipe and Fig. 2 circle), and a
//! [`Performer`] that renders gestures into 30 Hz skeleton-joint streams
//! for personas of different heights, positions, orientations, tempi and
//! sensor-noise levels.
//!
//! ```
//! use gesto_kinect::{gestures, Performer, Persona, kinect_schema, frames_to_tuples};
//!
//! let mut performer = Performer::new(Persona::reference(), 0);
//! let frames = performer.render(&gestures::swipe_right());
//! let tuples = frames_to_tuples(&frames, &kinect_schema());
//! assert!(tuples.len() > 20); // ~0.9 s at 30 Hz
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod body;
pub mod fig1;
pub mod gestures;
mod joints;
mod performer;
mod stream;
mod trajectory;
mod vec3;

pub use body::{BodyModel, REFERENCE_FOREARM_MM, REFERENCE_HEIGHT_MM};
pub use gestures::GestureSpec;
pub use joints::{Joint, SkeletonFrame, ALL_JOINTS, JOINT_COUNT};
pub use performer::{NoiseModel, Performer, Persona};
pub use stream::{
    frame_to_tuple, frames_to_tuples, kinect_schema, schema_named, tuple_to_frame, KinectSlots,
    KINECT_STREAM,
};
pub use trajectory::{min_jerk, PathSpec, TimeProfile};
pub use vec3::Vec3;
