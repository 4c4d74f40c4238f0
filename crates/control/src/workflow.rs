//! The end-to-end interactive learning workflow (Fig. 2).
//!
//! Wires the pieces of the paper's architecture together: the raw sensor
//! stream feeds the CEP engine (control gestures + already-deployed
//! gesture queries), the motion detector and the session state machine;
//! recorded samples flow through the transformation into the learner and
//! the gesture database; finalisation generates the query and deploys it
//! into the engine at runtime.

use std::sync::Arc;

use gesto_cep::{CepError, Engine};
use gesto_db::GestureStore;
use gesto_kinect::{frame_to_tuple, kinect_schema, SkeletonFrame, KINECT_STREAM};
use gesto_learn::query_gen::{generate_query, QueryStyle};
use gesto_learn::{
    GestureDefinition, GestureSample, LearnError, Learner, LearnerConfig, MergeWarning,
};
use gesto_stream::SchemaRef;
use gesto_transform::{TransformConfig, Transformer};

use crate::control_gestures::{control_queries, FINISH_CONTROL, WAVE_CONTROL};
use crate::motion::{MotionConfig, MotionDetector};
use crate::session::{ControlSignals, Session, SessionEvent, SessionState};

/// Workflow-level events (superset of session events).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowEvent {
    /// A session-protocol event occurred.
    Session(SessionEvent),
    /// A recorded sample went through the learner.
    SampleLearned {
        /// Samples learned so far.
        count: usize,
        /// Warnings from the merge step (outliers etc.).
        warnings: Vec<MergeWarning>,
    },
    /// The gesture was finalised, stored and deployed.
    GestureDeployed {
        /// Gesture name.
        name: String,
        /// Number of poses in the learned pattern.
        poses: usize,
        /// The generated query text.
        query_text: String,
    },
    /// A non-control gesture was detected (testing phase feedback).
    Detected {
        /// Gesture name.
        name: String,
        /// Detection timestamp.
        ts: i64,
    },
}

/// Errors of the workflow layer.
#[derive(Debug)]
pub enum WorkflowError {
    /// CEP engine failure.
    Cep(CepError),
    /// Learner failure.
    Learn(LearnError),
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::Cep(e) => write!(f, "engine error: {e}"),
            WorkflowError::Learn(e) => write!(f, "learning error: {e}"),
        }
    }
}

impl std::error::Error for WorkflowError {}

impl From<CepError> for WorkflowError {
    fn from(e: CepError) -> Self {
        WorkflowError::Cep(e)
    }
}

impl From<LearnError> for WorkflowError {
    fn from(e: LearnError) -> Self {
        WorkflowError::Learn(e)
    }
}

/// Interactive learning workflow for one new gesture.
pub struct Workflow {
    engine: Arc<Engine>,
    store: Arc<GestureStore>,
    schema: SchemaRef,
    gesture_name: String,
    learner: Learner,
    transformer: Transformer,
    motion: MotionDetector,
    session: Session,
}

impl Workflow {
    /// Creates a workflow learning `gesture_name`; deploys the control
    /// gesture queries into `engine` (idempotent: re-deploys replace).
    pub fn new(
        engine: Arc<Engine>,
        store: Arc<GestureStore>,
        gesture_name: impl Into<String>,
        config: LearnerConfig,
    ) -> Result<Self, WorkflowError> {
        let (wave, finish) = control_queries().map_err(WorkflowError::Learn)?;
        engine.replace(wave)?;
        engine.replace(finish)?;
        Ok(Self {
            engine,
            store,
            schema: kinect_schema(),
            gesture_name: gesture_name.into(),
            learner: Learner::new(config),
            transformer: Transformer::new(TransformConfig::default()),
            motion: MotionDetector::new(MotionConfig::default()),
            session: Session::new(),
        })
    }

    /// The session state.
    pub fn state(&self) -> SessionState {
        self.session.state()
    }

    /// The engine this workflow deploys into.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Samples learned so far.
    pub fn sample_count(&self) -> usize {
        self.learner.sample_count()
    }

    /// Feeds one raw camera frame through the whole workflow.
    pub fn push_frame(
        &mut self,
        frame: &SkeletonFrame,
    ) -> Result<Vec<WorkflowEvent>, WorkflowError> {
        let mut events = Vec::new();

        // 1. CEP engine: control gestures + deployed gesture queries.
        let tuple = frame_to_tuple(frame, &self.schema);
        let detections = self.engine.push(KINECT_STREAM, &tuple)?;
        let mut signals = ControlSignals::default();
        for d in &detections {
            match d.gesture.as_str() {
                WAVE_CONTROL => signals.wave = true,
                FINISH_CONTROL => signals.finish = true,
                other => events.push(WorkflowEvent::Detected {
                    name: other.to_owned(),
                    ts: d.ts,
                }),
            }
        }

        // 2. Motion + session protocol.
        let motion = self.motion.push(frame);
        for ev in self.session.step(frame, motion, signals) {
            match &ev {
                SessionEvent::SampleRecorded(frames) => {
                    events.push(WorkflowEvent::Session(ev.clone()));
                    self.learn_sample(frames, &mut events)?;
                }
                SessionEvent::Finished { .. } => {
                    events.push(WorkflowEvent::Session(ev.clone()));
                    if self.learner.sample_count() > 0 {
                        let deployed = self.finalize()?;
                        events.push(WorkflowEvent::GestureDeployed {
                            name: deployed.0,
                            poses: deployed.1,
                            query_text: deployed.2,
                        });
                    }
                }
                _ => events.push(WorkflowEvent::Session(ev.clone())),
            }
        }
        Ok(events)
    }

    fn learn_sample(
        &mut self,
        frames: &[SkeletonFrame],
        events: &mut Vec<WorkflowEvent>,
    ) -> Result<(), WorkflowError> {
        // Transform into the user-invariant space.
        let transformed: Vec<SkeletonFrame> = frames
            .iter()
            .filter_map(|f| self.transformer.transform_frame(f))
            .collect();
        let warnings = self.learner.add_sample_frames(&transformed)?;
        let sample = GestureSample::from_frames(&transformed, &self.learner.config().joints);
        self.store.add_sample(&self.gesture_name, sample);
        events.push(WorkflowEvent::SampleLearned {
            count: self.learner.sample_count(),
            warnings,
        });
        Ok(())
    }

    /// Finalises the learner into a definition, stores it, generates the
    /// query and replaces it in the engine. Returns
    /// `(name, poses, query text)`.
    pub fn finalize(&mut self) -> Result<(String, usize, String), WorkflowError> {
        let def: GestureDefinition = self.learner.finalize(&self.gesture_name)?;
        let poses = def.pose_count();
        let query = generate_query(&def, QueryStyle::TransformedView);
        let text = query.to_query_text();
        self.store
            .put_definition(def)
            .map_err(|e| WorkflowError::Learn(LearnError::Invalid(e.to_string())))?;
        self.store.put_query_text(&self.gesture_name, &text);
        self.engine.replace(query)?;
        Ok((self.gesture_name.clone(), poses, text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesto_kinect::{gestures, NoiseModel, Performer, Persona};
    use gesto_transform::standard_catalog;

    /// Scripts a full §3.1 session: k × (wave → settle at start → perform
    /// gesture → hold) followed by a two-hand swipe.
    fn scripted_session(k: usize) -> (Arc<Engine>, Arc<GestureStore>, Vec<WorkflowEvent>) {
        let engine = Arc::new(Engine::new(standard_catalog()));
        let store = Arc::new(GestureStore::new());
        let mut wf = Workflow::new(
            engine.clone(),
            store.clone(),
            "swipe_right",
            LearnerConfig::default(),
        )
        .unwrap();

        let persona = Persona::reference().with_noise(NoiseModel::realistic());
        let mut perf = Performer::new(persona, 0);
        let mut frames: Vec<SkeletonFrame> = Vec::new();
        for _ in 0..k {
            frames.extend(perf.render(&gestures::wave()));
            frames.extend(perf.render_idle(400));
            frames.extend(perf.render_padded(&gestures::swipe_right(), 900, 900));
        }
        frames.extend(perf.render_idle(400));
        frames.extend(perf.render(&gestures::two_hand_swipe()));
        frames.extend(perf.render_idle(600));

        let mut events = Vec::new();
        for f in &frames {
            events.extend(wf.push_frame(f).unwrap());
        }
        (engine, store, events)
    }

    #[test]
    fn full_session_learns_and_deploys() {
        let (engine, store, events) = scripted_session(4);
        let recorded = events
            .iter()
            .filter(|e| matches!(e, WorkflowEvent::Session(SessionEvent::SampleRecorded(_))))
            .count();
        assert_eq!(recorded, 4, "four samples recorded: {events:?}");
        let learned = events
            .iter()
            .filter(|e| matches!(e, WorkflowEvent::SampleLearned { .. }))
            .count();
        assert_eq!(learned, 4);
        assert!(
            events.iter().any(|e| matches!(
                e,
                WorkflowEvent::GestureDeployed { name, .. } if name == "swipe_right"
            )),
            "{events:?}"
        );

        // Store has samples + definition + query.
        let rec = store.get("swipe_right").unwrap();
        assert_eq!(rec.samples.len(), 4);
        assert!(rec.definition.is_some());
        assert!(rec
            .query_text
            .as_deref()
            .unwrap_or("")
            .contains("SELECT \"swipe_right\""));

        // Engine now detects the freshly learned gesture live. Human
        // performance variability means a 4-sample model is good but not
        // perfect (the paper's "3-5 samples" gives "acceptable" results):
        // require most fresh repetitions to be detected.
        let mut hits = 0;
        for seed in [500u64, 501, 502] {
            engine.reset_runs();
            let mut perf = Performer::new(
                Persona::reference()
                    .with_noise(NoiseModel::realistic())
                    .with_seed(seed),
                0,
            );
            let tuples = gesto_kinect::frames_to_tuples(
                &perf.render(&gestures::swipe_right()),
                &kinect_schema(),
            );
            let ds = engine.push_batch(KINECT_STREAM, &tuples).unwrap();
            if ds.iter().any(|d| d.gesture == "swipe_right") {
                hits += 1;
            }
        }
        assert!(
            hits >= 2,
            "at least 2 of 3 fresh repetitions detected, got {hits}"
        );
    }

    #[test]
    fn finalize_without_samples_is_error() {
        let engine = Arc::new(Engine::new(standard_catalog()));
        let store = Arc::new(GestureStore::new());
        let mut wf = Workflow::new(engine, store, "g", LearnerConfig::default()).unwrap();
        assert!(matches!(
            wf.finalize(),
            Err(WorkflowError::Learn(LearnError::NoSamples))
        ));
    }

    #[test]
    fn single_sample_session() {
        let (_, store, events) = scripted_session(1);
        assert!(events
            .iter()
            .any(|e| matches!(e, WorkflowEvent::GestureDeployed { .. })));
        assert_eq!(store.get("swipe_right").unwrap().samples.len(), 1);
    }
}
