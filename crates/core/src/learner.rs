//! The incremental gesture learner: samples in, gesture definition out.
//!
//! Orchestrates the §3.3 pipeline: per-sample distance-based sampling
//! (§3.3.1) → incremental window merging (§3.3.2) → generalisation
//! (width scaling/flooring) → a [`GestureDefinition`] ready for query
//! generation (§3.3.4). "Usually, 3-5 samples are sufficient to achieve
//! acceptable results."

use gesto_kinect::SkeletonFrame;

use crate::config::{LearnerConfig, WithinPolicy};
use crate::merging::{MergeState, MergeWarning};
use crate::model::{GestureDefinition, GestureSample};
use crate::sampling::sample_path;

/// Errors of the learning pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum LearnError {
    /// The sample contained no usable points (all dropouts / empty).
    EmptySample,
    /// Finalisation was requested before any sample was merged.
    NoSamples,
    /// The produced definition failed validation.
    Invalid(String),
}

impl std::fmt::Display for LearnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LearnError::EmptySample => f.write_str("sample contains no usable points"),
            LearnError::NoSamples => f.write_str("no samples recorded yet"),
            LearnError::Invalid(m) => write!(f, "invalid gesture definition: {m}"),
        }
    }
}

impl std::error::Error for LearnError {}

/// The incremental learner for one gesture.
pub struct Learner {
    config: LearnerConfig,
    merge: MergeState,
    warnings: Vec<MergeWarning>,
}

impl Learner {
    /// Creates a learner.
    pub fn new(config: LearnerConfig) -> Self {
        let merge = MergeState::new(config.merge);
        Self {
            config,
            merge,
            warnings: Vec::new(),
        }
    }

    /// Creates a learner with the default configuration.
    pub fn with_defaults() -> Self {
        Self::new(LearnerConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &LearnerConfig {
        &self.config
    }

    /// Samples merged so far.
    pub fn sample_count(&self) -> usize {
        self.merge.sample_count()
    }

    /// All warnings raised so far (incremental feedback for the GUI).
    pub fn warnings(&self) -> &[MergeWarning] {
        &self.warnings
    }

    /// Current pose windows (before generalisation).
    pub fn windows(&self) -> &[crate::window::PoseWindow] {
        self.merge.windows()
    }

    /// Adds one recorded sample from skeleton frames.
    pub fn add_sample_frames(
        &mut self,
        frames: &[SkeletonFrame],
    ) -> Result<Vec<MergeWarning>, LearnError> {
        let sample = GestureSample::from_frames(frames, &self.config.joints);
        self.add_sample(&sample)
    }

    /// Adds one recorded sample.
    pub fn add_sample(&mut self, sample: &GestureSample) -> Result<Vec<MergeWarning>, LearnError> {
        if sample.is_empty() {
            return Err(LearnError::EmptySample);
        }
        let characteristic = sample_path(&sample.points, self.config.sampling);
        if characteristic.is_empty() {
            return Err(LearnError::EmptySample);
        }
        let warnings = self.merge.add_sample(&characteristic);
        self.warnings.extend(warnings.iter().cloned());
        Ok(warnings)
    }

    /// Finalises the learning process into a gesture definition named
    /// `name`, applying the generalisation step.
    pub fn finalize(&self, name: impl Into<String>) -> Result<GestureDefinition, LearnError> {
        if self.merge.sample_count() == 0 {
            return Err(LearnError::NoSamples);
        }
        let mut poses = self.merge.windows().to_vec();
        for w in &mut poses {
            w.scale_widths(self.config.width_scale);
            w.floor_widths(self.config.min_width_mm);
        }
        let within_ms = match self.config.within {
            WithinPolicy::FixedMs(ms) => vec![ms; poses.len().saturating_sub(1)],
            WithinPolicy::Adaptive { slack, floor_ms } => self
                .merge
                .max_transition_ms()
                .iter()
                .map(|&ms| (((ms as f64) * slack).round() as i64).max(floor_ms))
                .collect(),
        };
        let dims = self.config.joints.dims();
        let def = GestureDefinition {
            name: name.into(),
            joints: self.config.joints.clone(),
            poses,
            within_ms,
            active_dims: vec![true; dims],
            sample_count: self.merge.sample_count(),
        };
        def.validate().map_err(LearnError::Invalid)?;
        Ok(def)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::JointSet;
    use gesto_kinect::{gestures, Joint, NoiseModel, Performer, Persona};
    use gesto_transform::{TransformConfig, Transformer};

    /// Renders a gesture for a persona and transforms it into the
    /// user-invariant space the learner consumes.
    fn transformed_frames(persona: Persona, seed: u64) -> Vec<SkeletonFrame> {
        let mut perf = Performer::new(persona.with_seed(seed), 0);
        let frames = perf.render(&gestures::swipe_right());
        let mut tr = Transformer::new(TransformConfig::default());
        frames
            .iter()
            .filter_map(|f| tr.transform_frame(f))
            .collect()
    }

    #[test]
    fn learns_swipe_from_three_samples() {
        let mut learner = Learner::with_defaults();
        for seed in 0..3 {
            let frames = transformed_frames(
                Persona::reference().with_noise(NoiseModel::realistic()),
                seed,
            );
            learner.add_sample_frames(&frames).unwrap();
        }
        assert_eq!(learner.sample_count(), 3);
        let def = learner.finalize("swipe_right").unwrap();
        assert!(
            def.pose_count() >= 3,
            "swipe has >= 3 poses, got {}",
            def.pose_count()
        );
        assert!(
            def.pose_count() <= 8,
            "not overfitted: {}",
            def.pose_count()
        );
        assert_eq!(def.sample_count, 3);

        // First pose near the spec start (0, 150, -120), last near the end.
        let first = &def.poses[0];
        assert!((first.center[0] - 0.0).abs() < 60.0, "{:?}", first.center);
        assert!((first.center[1] - 150.0).abs() < 60.0);
        let last = def.poses.last().unwrap();
        assert!((last.center[0] - 800.0).abs() < 80.0, "{:?}", last.center);

        // Generalisation floor: every half-width >= 50mm.
        for p in &def.poses {
            for w in &p.width {
                assert!(*w >= 50.0);
            }
        }
        // Adaptive within: at least the 1s floor.
        assert!(def.within_ms.iter().all(|&w| w >= 1000));
    }

    #[test]
    fn windows_contain_noisy_repetitions() {
        // Sensor noise only: this test checks that jitter is absorbed by
        // the generalised windows (performance variability is measured
        // statistically in experiment C1 instead).
        let mut learner = Learner::with_defaults();
        for seed in 0..5 {
            let frames = transformed_frames(
                Persona::reference().with_noise(NoiseModel::sensor_only()),
                seed,
            );
            learner.add_sample_frames(&frames).unwrap();
        }
        let def = learner.finalize("swipe").unwrap();
        // A fresh (unseen) noisy repetition: its resampled characteristic
        // path must fall inside the generalised windows at the pose
        // positions.
        let fresh = transformed_frames(
            Persona::reference().with_noise(NoiseModel::sensor_only()),
            99,
        );
        let sample = GestureSample::from_frames(&fresh, &JointSet::right_hand());
        let pts = crate::merging::resample_to(
            &crate::sampling::sample_path(&sample.points, LearnerConfig::default().sampling),
            def.pose_count(),
            crate::metric::Metric::Euclidean,
        );
        let mut inside = 0;
        for (w, p) in def.poses.iter().zip(&pts) {
            if w.contains(&p.feat) {
                inside += 1;
            }
        }
        assert!(
            inside * 10 >= def.pose_count() * 8,
            "at least 80% of poses covered: {inside}/{}",
            def.pose_count()
        );
    }

    #[test]
    fn empty_sample_rejected() {
        let mut learner = Learner::with_defaults();
        assert_eq!(
            learner.add_sample(&GestureSample::default()),
            Err(LearnError::EmptySample)
        );
        // Frames that never track the right hand are as good as empty.
        let frames = vec![SkeletonFrame::empty(0, 1); 10];
        assert_eq!(
            learner.add_sample_frames(&frames),
            Err(LearnError::EmptySample)
        );
    }

    #[test]
    fn finalize_without_samples_fails() {
        let learner = Learner::with_defaults();
        assert_eq!(learner.finalize("g").unwrap_err(), LearnError::NoSamples);
    }

    #[test]
    fn fixed_within_policy() {
        let mut learner = Learner::new(LearnerConfig {
            within: WithinPolicy::FixedMs(1000),
            ..LearnerConfig::default()
        });
        learner
            .add_sample_frames(&transformed_frames(Persona::reference(), 0))
            .unwrap();
        let def = learner.finalize("g").unwrap();
        assert!(def.within_ms.iter().all(|&w| w == 1000));
        assert_eq!(def.within_ms.len(), def.pose_count() - 1);
    }

    #[test]
    fn single_sample_is_enough_to_finalize() {
        let mut learner = Learner::with_defaults();
        learner
            .add_sample_frames(&transformed_frames(Persona::reference(), 0))
            .unwrap();
        let def = learner.finalize("one-shot").unwrap();
        assert!(def.validate().is_ok());
        assert_eq!(def.sample_count, 1);
    }

    #[test]
    fn outlier_sample_reports_warning() {
        // Train on swipes, then add a circle as "sample" of the same
        // gesture — the deviation warning of §3.3.2 must fire.
        let mut learner = Learner::with_defaults();
        learner
            .add_sample_frames(&transformed_frames(Persona::reference(), 0))
            .unwrap();
        let mut perf = Performer::new(Persona::reference(), 0);
        let circle_frames = perf.render(&gestures::circle());
        let mut tr = Transformer::new(TransformConfig::default());
        let circle_t: Vec<SkeletonFrame> = circle_frames
            .iter()
            .filter_map(|f| tr.transform_frame(f))
            .collect();
        let warns = learner.add_sample_frames(&circle_t).unwrap();
        assert!(
            warns
                .iter()
                .any(|w| matches!(w, MergeWarning::Outlier { .. })),
            "circle-as-swipe must warn: {warns:?}"
        );
        assert!(!learner.warnings().is_empty());
    }

    #[test]
    fn multi_joint_learning() {
        let mut learner = Learner::new(LearnerConfig {
            joints: JointSet::both_hands(),
            ..LearnerConfig::default()
        });
        let mut perf = Performer::new(Persona::reference(), 0);
        let frames = perf.render(&gestures::two_hand_swipe());
        let mut tr = Transformer::new(TransformConfig::default());
        let t_frames: Vec<SkeletonFrame> = frames
            .iter()
            .filter_map(|f| tr.transform_frame(f))
            .collect();
        learner.add_sample_frames(&t_frames).unwrap();
        let def = learner.finalize("two_hand_swipe").unwrap();
        assert_eq!(def.joints.joints(), &[Joint::RightHand, Joint::LeftHand]);
        assert_eq!(def.poses[0].dims(), 6);
        // Right hand moves right (+x), left hand moves left (-x).
        let first = &def.poses[0];
        let last = def.poses.last().unwrap();
        assert!(
            last.center[0] > first.center[0] + 300.0,
            "right hand moved right"
        );
        assert!(
            last.center[3] < first.center[3] - 300.0,
            "left hand moved left"
        );
    }
}
