//! E2 — Fig. 2: the end-to-end interactive learning workflow, timed per
//! stage. A scripted user waves, records three circle samples, finalises
//! with a two-hand swipe; the mined query is deployed and tested.

use std::sync::Arc;
use std::time::Instant;

use gesto_bench::Table;
use gesto_cep::Engine;
use gesto_control::{SessionEvent, Workflow, WorkflowEvent};
use gesto_db::GestureStore;
use gesto_kinect::{
    frames_to_tuples, gestures, kinect_schema, NoiseModel, Performer, Persona, KINECT_STREAM,
};
use gesto_learn::LearnerConfig;
use gesto_transform::standard_catalog;

fn main() {
    println!("E2 / Fig. 2 — interactive learning workflow (scripted user)");
    println!("============================================================\n");

    let engine = Arc::new(Engine::new(standard_catalog()));
    let store = Arc::new(GestureStore::new());
    let t0 = Instant::now();
    let mut workflow = Workflow::new(
        engine.clone(),
        store.clone(),
        "circle",
        LearnerConfig::default(),
    )
    .expect("control gestures learnable");
    println!(
        "setup: control gestures (wave, two-hand swipe) learned + deployed in {:.0} ms\n",
        t0.elapsed().as_secs_f64() * 1000.0
    );

    // Script: 3 × (wave → settle → circle → hold), then finish.
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

    println!(
        "stream: {} frames ({:.1} s of 30 Hz sensor data)\n",
        frames.len(),
        frames.last().map(|f| f.ts as f64 / 1000.0).unwrap_or(0.0)
    );

    let mut table = Table::new(&["stream time", "event"]);
    let wall = Instant::now();
    for frame in &frames {
        for event in workflow.push_frame(frame).expect("workflow ok") {
            let t = format!("{:6.2} s", frame.ts as f64 / 1000.0);
            let what = match event {
                WorkflowEvent::Session(SessionEvent::RecordingRequested) => {
                    "wave detected -> recording requested".to_string()
                }
                WorkflowEvent::Session(SessionEvent::Armed) => {
                    "start pose held -> armed".to_string()
                }
                WorkflowEvent::Session(SessionEvent::RecordingStarted) => {
                    "movement -> recording".to_string()
                }
                WorkflowEvent::Session(SessionEvent::SampleRecorded(fs)) => {
                    format!("sample recorded ({} frames)", fs.len())
                }
                WorkflowEvent::SampleLearned { count, warnings } => {
                    format!(
                        "merged into model (sample {count}, {} warnings)",
                        warnings.len()
                    )
                }
                WorkflowEvent::Session(SessionEvent::Finished { samples }) => {
                    format!("two-hand swipe -> finalising ({samples} samples)")
                }
                WorkflowEvent::GestureDeployed { name, poses, .. } => {
                    format!("'{name}' deployed ({poses} poses)")
                }
                WorkflowEvent::Detected { name, .. } => format!("detection: {name}"),
            };
            table.row(&[t, what]);
        }
    }
    table.print();
    println!(
        "\nwhole session processed in {:.0} ms wall-clock ({}x faster than real time)\n",
        wall.elapsed().as_secs_f64() * 1000.0,
        (frames.len() as f64 / 30.0 / wall.elapsed().as_secs_f64()).round()
    );

    // Testing phase.
    println!("testing phase: 5 fresh circle performances + 5 swipes (must stay silent)");
    let mut table = Table::new(&["trial", "performed", "detected"]);
    for i in 0..5u64 {
        engine.reset_runs();
        let mut p = Performer::new(
            Persona::reference()
                .with_noise(NoiseModel::realistic())
                .with_seed(900 + i),
            0,
        );
        let tuples = frames_to_tuples(&p.render(&gestures::circle()), &kinect_schema());
        let ds = engine.push_batch(KINECT_STREAM, &tuples).unwrap();
        let hit = ds.iter().any(|d| d.gesture == "circle");
        table.row(&[format!("{}", i + 1), "circle".into(), format!("{hit}")]);
    }
    for i in 0..5u64 {
        engine.reset_runs();
        let mut p = Performer::new(
            Persona::reference()
                .with_noise(NoiseModel::realistic())
                .with_seed(950 + i),
            0,
        );
        let tuples = frames_to_tuples(&p.render(&gestures::swipe_right()), &kinect_schema());
        let ds = engine.push_batch(KINECT_STREAM, &tuples).unwrap();
        let fired = ds.iter().any(|d| d.gesture == "circle");
        table.row(&[
            format!("{}", i + 6),
            "swipe_right".into(),
            format!("{fired}"),
        ]);
    }
    table.print();
}
