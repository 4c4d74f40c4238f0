//! E1 — Fig. 1: learn `swipe_right` from the paper's embedded sensor
//! trace, print the generated query next to the paper's window table, and
//! verify detection of the original movement.

use std::sync::Arc;

use gesto_bench::Table;
use gesto_cep::Engine;
use gesto_kinect::{fig1, kinect_schema, KINECT_STREAM};
use gesto_learn::query_gen::{generate_query, generate_query_text, QueryStyle};
use gesto_learn::{Learner, LearnerConfig};
use gesto_stream::Catalog;
use gesto_transform::{TransformConfig, Transformer};

/// The window centres printed in the paper's Fig. 1.
const PAPER_WINDOWS: [[f64; 3]; 3] = [
    [0.0, 150.0, -120.0],
    [400.0, 150.0, -420.0],
    [800.0, 150.0, -120.0],
];

fn main() {
    println!("E1 / Fig. 1 — swipe_right from the paper's sensor trace");
    println!("========================================================\n");
    println!("input: the 19-reading Kinect trace printed in Fig. 1 (30 Hz)\n");

    // Learn in the raw torso-relative space of the Fig. 1 query.
    let frames = fig1::frames(0);
    let mut tr = Transformer::new(TransformConfig::torso_only());
    let transformed: Vec<_> = frames
        .iter()
        .filter_map(|f| tr.transform_frame(f))
        .collect();
    let mut learner = Learner::new(LearnerConfig::fig1());
    learner
        .add_sample_frames(&transformed)
        .expect("trace sample");
    let def = learner.finalize("swipe_right").expect("finalizable");

    // Learned windows vs the paper's idealised ones.
    let mut table = Table::new(&[
        "pose",
        "paper center (x,y,z)",
        "learned center (x,y,z)",
        "learned half-width",
    ]);
    for (i, pose) in def.poses.iter().enumerate() {
        let paper = PAPER_WINDOWS
            .get(i)
            .map(|c| format!("({:.0}, {:.0}, {:.0})", c[0], c[1], c[2]))
            .unwrap_or_else(|| "—".into());
        table.row(&[
            format!("{}", i + 1),
            paper,
            format!(
                "({:.0}, {:.0}, {:.0})",
                pose.center[0], pose.center[1], pose.center[2]
            ),
            format!(
                "({:.0}, {:.0}, {:.0})",
                pose.width[0], pose.width[1], pose.width[2]
            ),
        ]);
    }
    table.print();
    println!(
        "\n(paper idealises the windows on a grid; the trace itself starts at\n\
         x ≈ −84 and ends at x ≈ +731 relative to the torso, which the learned\n\
         centres reproduce; the paper's fixed ±50 width corresponds to our\n\
         min_width floor)\n"
    );

    // The generated query, paper format.
    println!("generated query (paper's Fig. 1 dialect):\n");
    println!(
        "{}",
        generate_query_text(&def, QueryStyle::RawTorsoRelative)
    );

    // Detection check on the original trace.
    let mut catalog = Catalog::new();
    catalog.register_stream(kinect_schema()).unwrap();
    let engine = Engine::new(Arc::new(catalog));
    engine
        .deploy(generate_query(&def, QueryStyle::RawTorsoRelative))
        .unwrap();
    let detections = engine
        .push_batch(KINECT_STREAM, &fig1::tuples(0, &kinect_schema()))
        .unwrap();
    println!(
        "replaying the trace through the engine: {} detection(s) of \"swipe_right\"",
        detections
            .iter()
            .filter(|d| d.gesture == "swipe_right")
            .count()
    );

    // Negative control: reversed movement.
    let mut rev = fig1::frames(0);
    rev.reverse();
    for (i, f) in rev.iter_mut().enumerate() {
        f.ts = i as i64 * 33;
    }
    let tuples: Vec<_> = rev
        .iter()
        .map(|f| gesto_kinect::frame_to_tuple(f, &kinect_schema()))
        .collect();
    engine.reset_runs();
    let reversed = engine.push_batch(KINECT_STREAM, &tuples).unwrap();
    println!(
        "replaying the trace REVERSED (a swipe left): {} detection(s)",
        reversed.len()
    );
}
