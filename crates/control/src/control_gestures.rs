//! The pre-defined control gestures of §3.1.
//!
//! "We make use of pre-defined, but configurable gestures to control the
//! learning tool itself": a *wave* starts recording a sample, a
//! *two-hand swipe* finalises the learning process. True to the paper's
//! spirit, the control gestures are themselves *learned* — at startup the
//! simulator performs each control gesture a few times and the standard
//! learning pipeline mines their detection queries.

use gesto_cep::Query;
use gesto_kinect::{gestures, GestureSpec, NoiseModel, Performer, Persona, SkeletonFrame};
use gesto_learn::query_gen::{generate_query, QueryStyle};
use gesto_learn::{JointSet, LearnError, Learner, LearnerConfig};
use gesto_transform::{TransformConfig, Transformer};

/// Reserved name of the "start recording" control gesture.
pub const WAVE_CONTROL: &str = "__control_wave";

/// Reserved name of the "finalise learning" control gesture.
pub const FINISH_CONTROL: &str = "__control_finish";

/// True for names reserved by the controller.
pub fn is_control_name(name: &str) -> bool {
    name.starts_with("__control_")
}

/// Learns one control gesture from `samples` simulated repetitions.
fn learn_control(
    spec: &GestureSpec,
    name: &str,
    joints: JointSet,
    samples: usize,
) -> Result<gesto_learn::GestureDefinition, LearnError> {
    let mut learner = Learner::new(LearnerConfig {
        joints,
        // Control gestures should be easy to hit: generous windows.
        width_scale: 1.6,
        min_width_mm: 110.0,
        ..LearnerConfig::default()
    });
    for seed in 0..samples as u64 {
        let persona = Persona::reference()
            .with_noise(NoiseModel::realistic())
            .with_seed(1000 + seed);
        let mut perf = Performer::new(persona, 0);
        let frames = perf.render(spec);
        let mut tr = Transformer::new(TransformConfig::default());
        let transformed: Vec<SkeletonFrame> = frames
            .iter()
            .filter_map(|f| tr.transform_frame(f))
            .collect();
        learner.add_sample_frames(&transformed)?;
    }
    learner.finalize(name)
}

/// Learns and returns the control-gesture queries `(wave, finish)`.
pub fn control_queries() -> Result<(Query, Query), LearnError> {
    let wave_def = learn_control(&gestures::wave(), WAVE_CONTROL, JointSet::right_hand(), 5)?;
    let finish_def = learn_control(
        &gestures::two_hand_swipe(),
        FINISH_CONTROL,
        JointSet::both_hands(),
        5,
    )?;
    Ok((
        generate_query(&wave_def, QueryStyle::TransformedView),
        generate_query(&finish_def, QueryStyle::TransformedView),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesto_cep::Engine;
    use gesto_kinect::{frames_to_tuples, kinect_schema, KINECT_STREAM};
    use gesto_transform::standard_catalog;

    #[test]
    fn control_names_reserved() {
        assert!(is_control_name(WAVE_CONTROL));
        assert!(is_control_name(FINISH_CONTROL));
        assert!(!is_control_name("swipe_right"));
    }

    #[test]
    fn control_queries_learnable_and_deployable() {
        let (wave, finish) = control_queries().unwrap();
        assert_eq!(wave.name, WAVE_CONTROL);
        assert_eq!(finish.name, FINISH_CONTROL);
        let engine = Engine::new(standard_catalog());
        engine.deploy(wave).unwrap();
        engine.deploy(finish).unwrap();
    }

    #[test]
    fn wave_detected_finish_not_confused() {
        let (wave, finish) = control_queries().unwrap();
        let engine = Engine::new(standard_catalog());
        engine.deploy(wave).unwrap();
        engine.deploy(finish).unwrap();
        let schema = kinect_schema();

        // A fresh noisy wave fires the wave control only.
        let mut perf = Performer::new(
            Persona::reference()
                .with_noise(NoiseModel::realistic())
                .with_seed(77),
            0,
        );
        let tuples = frames_to_tuples(&perf.render(&gestures::wave()), &schema);
        let ds = engine.push_batch(KINECT_STREAM, &tuples).unwrap();
        assert!(
            ds.iter().any(|d| d.gesture == WAVE_CONTROL),
            "wave must be detected: {ds:?}"
        );
        assert!(
            ds.iter().all(|d| d.gesture != FINISH_CONTROL),
            "wave must not fire finish"
        );

        // And a two-hand swipe fires finish.
        engine.reset_runs();
        let mut perf = Performer::new(
            Persona::reference()
                .with_noise(NoiseModel::realistic())
                .with_seed(78),
            0,
        );
        let tuples = frames_to_tuples(&perf.render(&gestures::two_hand_swipe()), &schema);
        let ds = engine.push_batch(KINECT_STREAM, &tuples).unwrap();
        assert!(
            ds.iter().any(|d| d.gesture == FINISH_CONTROL),
            "finish must be detected: {ds:?}"
        );
    }
}
