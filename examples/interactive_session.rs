//! The full interactive learning session of §3.1 (Fig. 2), headless.
//!
//! A simulated user controls the learning tool with control gestures:
//! wave → settle at the start pose → perform the gesture → hold still
//! (three times), then a two-hand swipe finalises; the learned query is
//! deployed at runtime and immediately tested.
//!
//! ```sh
//! cargo run --example interactive_session
//! ```

use std::sync::Arc;

use gesto::cep::Engine;
use gesto::control::{SessionEvent, Workflow, WorkflowEvent};
use gesto::db::GestureStore;
use gesto::kinect::{
    frames_to_tuples, gestures, kinect_schema, NoiseModel, Performer, Persona, KINECT_STREAM,
};
use gesto::learn::LearnerConfig;
use gesto::transform::standard_catalog;

fn main() {
    let engine = Arc::new(Engine::new(standard_catalog()));
    let store = Arc::new(GestureStore::new());
    let mut workflow = Workflow::new(
        engine.clone(),
        store.clone(),
        "circle",
        LearnerConfig::default(),
    )
    .expect("control gestures learnable");

    println!("== interactive session: teaching 'circle' ==");
    println!("(wave = record a sample, two-hand swipe = finish)\n");

    // Script the user's behaviour.
    let persona = Persona::reference().with_noise(NoiseModel::realistic());
    let mut performer = Performer::new(persona, 0);
    let mut frames = Vec::new();
    for _ in 0..3 {
        frames.extend(performer.render(&gestures::wave()));
        frames.extend(performer.render_idle(400));
        frames.extend(performer.render_padded(&gestures::circle(), 900, 900));
    }
    frames.extend(performer.render_idle(400));
    frames.extend(performer.render(&gestures::two_hand_swipe()));
    frames.extend(performer.render_idle(600));

    // Feed the stream and narrate the events.
    for frame in &frames {
        for event in workflow.push_frame(frame).expect("workflow ok") {
            let t = frame.ts as f64 / 1000.0;
            match event {
                WorkflowEvent::Session(SessionEvent::RecordingRequested) => {
                    println!("[{t:6.2}s] wave detected — move to the start pose")
                }
                WorkflowEvent::Session(SessionEvent::Armed) => {
                    println!("[{t:6.2}s] holding still — recording arms")
                }
                WorkflowEvent::Session(SessionEvent::RecordingStarted) => {
                    println!("[{t:6.2}s] movement — recording")
                }
                WorkflowEvent::Session(SessionEvent::SampleRecorded(fs)) => {
                    println!("[{t:6.2}s] sample complete ({} frames)", fs.len())
                }
                WorkflowEvent::SampleLearned { count, warnings } => {
                    println!(
                        "[{t:6.2}s]   merged into model (sample {count}, {} warnings)",
                        warnings.len()
                    )
                }
                WorkflowEvent::Session(SessionEvent::Finished { samples }) => {
                    println!("[{t:6.2}s] two-hand swipe — finalising after {samples} samples")
                }
                WorkflowEvent::GestureDeployed { name, poses, .. } => {
                    println!("[{t:6.2}s] '{name}' learned ({poses} poses) and deployed")
                }
                WorkflowEvent::Detected { name, ts } => {
                    println!("[{t:6.2}s] detection: {name} at {ts} ms")
                }
            }
        }
    }

    // Show the stored artefacts.
    let record = store.get("circle").expect("stored");
    println!("\n== gesture database ==");
    println!("  samples stored : {}", record.samples.len());
    println!(
        "  definition     : {} poses",
        record
            .definition
            .as_ref()
            .map(|d| d.pose_count())
            .unwrap_or(0)
    );
    println!(
        "\n== generated query ==\n{}",
        record.query_text.as_deref().unwrap_or("<none>")
    );

    // Testing phase: a fresh circle fires the new query.
    println!("== testing phase ==");
    engine.reset_runs();
    let mut tester = Performer::new(
        Persona::reference()
            .with_noise(NoiseModel::realistic())
            .with_seed(321),
        0,
    );
    let tuples = frames_to_tuples(&tester.render(&gestures::circle()), &kinect_schema());
    let detections = engine
        .push_batch(KINECT_STREAM, &tuples)
        .expect("stream ok");
    println!(
        "  fresh circle performance: {}",
        if detections.iter().any(|d| d.gesture == "circle") {
            "detected"
        } else {
            "NOT detected"
        }
    );
}
