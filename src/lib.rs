//! # gesto — learning event patterns for gesture detection
//!
//! A Rust reproduction of *Beier, Alaqraa, Lai, Sattler: "Learning Event
//! Patterns for Gesture Detection"* (EDBT 2014): a complex-event-
//! processing engine with a declarative gesture query language, a
//! user-invariant coordinate transformation, and — the paper's
//! contribution — a learning pipeline that mines CEP detection queries
//! from a handful of recorded gesture samples.
//!
//! The workspace crates are re-exported here:
//!
//! - [`stream`] — push-based data-stream substrate (tuples, operators,
//!   views);
//! - [`cep`] — query language, NFA pattern matching, runtime engine;
//! - [`kinect`] — deterministic Kinect skeleton simulator (the hardware
//!   substitution);
//! - [`transform`] — the `kinect_t` position/orientation/scale
//!   normalisation (§3.2);
//! - [`learn`] — distance-based sampling, window merging, validation and
//!   query generation (§3.3);
//! - [`db`] — the gesture database;
//! - [`durability`] — crash-safe persistence primitives (write-ahead
//!   journal, atomic checkpoints) behind the server's durable control
//!   plane;
//! - [`control`] — motion detection, control gestures and the
//!   interactive session workflow (§3.1);
//! - [`serve`] — the sharded multi-session serving runtime: worker
//!   shards, compile-once shared query plans, batched ingestion with
//!   backpressure, per-shard metrics ([`GestureSystem::into_server`] is
//!   the upgrade path from one user to thousands of sessions).
//!
//! ## Quickstart
//!
//! ```
//! use gesto::GestureSystem;
//! use gesto::kinect::{gestures, NoiseModel, Performer, Persona};
//!
//! let system = GestureSystem::new();
//!
//! // Record three samples of a swipe with a noisy simulated user…
//! let persona = Persona::reference().with_noise(NoiseModel::realistic());
//! let samples: Vec<_> = (0..3)
//!     .map(|seed| {
//!         let mut p = Performer::new(persona.clone().with_seed(seed), 0);
//!         p.render(&gestures::swipe_right())
//!     })
//!     .collect();
//!
//! // …learn + deploy the detection query…
//! let def = system.teach("swipe_right", &samples).unwrap();
//! assert!(def.pose_count() >= 3);
//!
//! // …and detect the gesture live on a fresh performance.
//! let mut p = Performer::new(persona.with_seed(99), 0);
//! let detections = system.run_frames(&p.render(&gestures::swipe_right())).unwrap();
//! assert!(detections.iter().any(|d| d.gesture == "swipe_right"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::Arc;

pub use gesto_cep as cep;
pub use gesto_control as control;
pub use gesto_db as db;
pub use gesto_durability as durability;
pub use gesto_kinect as kinect;
pub use gesto_learn as learn;
pub use gesto_serve as serve;
pub use gesto_stream as stream;
pub use gesto_transform as transform;

use cep::{CepError, Detection, Engine, QueryStats};
use db::GestureStore;
use kinect::{frame_to_tuple, frames_to_tuples, kinect_schema, SkeletonFrame, KINECT_STREAM};
use learn::{GestureDefinition, LearnError, LearnerConfig};
use serve::{Server, ServerConfig};
use stream::{Catalog, SchemaRef};

/// One-stop system object: catalog + CEP engine + gesture store, with the
/// `kinect` stream, the `kinect_t` view and the RPY operators registered.
pub struct GestureSystem {
    catalog: Arc<Catalog>,
    engine: Arc<Engine>,
    store: Arc<GestureStore>,
    schema: SchemaRef,
}

impl Default for GestureSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl GestureSystem {
    /// Builds a ready-to-use system.
    pub fn new() -> Self {
        let catalog = transform::standard_catalog();
        let engine = Arc::new(Engine::new(catalog.clone()));
        transform::register_rpy(engine.functions());
        Self {
            catalog,
            engine,
            store: Arc::new(GestureStore::new()),
            schema: kinect_schema(),
        }
    }

    /// The stream/view catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The CEP engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The gesture database.
    pub fn store(&self) -> &Arc<GestureStore> {
        &self.store
    }

    /// Learns a gesture from raw camera-frame samples (applies the
    /// `kinect_t` transformation internally), stores the definition and
    /// generated query, and deploys it. Returns the definition.
    pub fn teach(
        &self,
        name: &str,
        samples: &[Vec<SkeletonFrame>],
    ) -> Result<GestureDefinition, TeachError> {
        self.teach_with(name, samples, LearnerConfig::default())
    }

    /// [`Self::teach`] with a custom learner configuration.
    pub fn teach_with(
        &self,
        name: &str,
        samples: &[Vec<SkeletonFrame>],
        config: LearnerConfig,
    ) -> Result<GestureDefinition, TeachError> {
        let (def, query) = control::learn_into_store(&self.store, name, samples, config)?;
        self.engine.replace(query)?;
        Ok(def)
    }

    /// Removes a learned gesture from the engine and the store.
    pub fn forget(&self, name: &str) -> Result<(), CepError> {
        self.engine.undeploy(name)?;
        self.store.remove(name);
        Ok(())
    }

    /// Pushes one raw camera frame; returns detections.
    pub fn push_frame(&self, frame: &SkeletonFrame) -> Result<Vec<Detection>, CepError> {
        let tuple = frame_to_tuple(frame, &self.schema);
        self.engine.push(KINECT_STREAM, &tuple)
    }

    /// Pushes a frame batch; returns all detections. Batched end to end:
    /// one tuple conversion per frame, one shared view evaluation per
    /// tuple, engine locks amortised over the whole batch.
    pub fn run_frames(&self, frames: &[SkeletonFrame]) -> Result<Vec<Detection>, CepError> {
        let tuples = frames_to_tuples(frames, &self.schema);
        self.engine.push_batch(KINECT_STREAM, &tuples)
    }

    /// Runtime statistics of every deployed gesture query, sorted by
    /// name — engine observability without reaching through [`Self::engine`].
    pub fn stats(&self) -> Vec<QueryStats> {
        self.engine.stats_all()
    }

    /// Names of the deployed gesture queries (sorted).
    pub fn deployed(&self) -> Vec<String> {
        self.engine.deployed()
    }

    /// Upgrades this single-user system into a sharded multi-session
    /// [`Server`]: the catalog, function registry and gesture store carry
    /// over, and every currently deployed query moves in as a shared
    /// plan **without recompiling**.
    pub fn into_server(self, config: ServerConfig) -> Result<Server, serve::ServeError> {
        let plans = self.engine.deployed_plans();
        let server = Server::try_with_parts(
            config,
            self.catalog,
            self.engine.functions().clone(),
            self.store,
        )?;
        for plan in plans {
            server.deploy_plan(plan)?;
        }
        Ok(server)
    }
}

/// Errors of [`GestureSystem::teach`].
#[derive(Debug)]
pub enum TeachError {
    /// Learning failed.
    Learn(LearnError),
    /// Deployment failed.
    Cep(CepError),
}

impl std::fmt::Display for TeachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeachError::Learn(e) => write!(f, "learning failed: {e}"),
            TeachError::Cep(e) => write!(f, "deployment failed: {e}"),
        }
    }
}

impl std::error::Error for TeachError {}

impl From<LearnError> for TeachError {
    fn from(e: LearnError) -> Self {
        TeachError::Learn(e)
    }
}

impl From<CepError> for TeachError {
    fn from(e: CepError) -> Self {
        TeachError::Cep(e)
    }
}
