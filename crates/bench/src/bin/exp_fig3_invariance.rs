//! E3 — Fig. 3: the data transformation's invariances, measured.
//!
//! Detection rate of a learned swipe under user translation, rotation and
//! body-height variation, with the transformation ON vs OFF (ablation:
//! queries learned and evaluated on torso-offset-only coordinates).

use gesto_bench::{pct, perform, Table};
use gesto_cep::Engine;
use gesto_kinect::{
    frames_to_tuples, gestures, kinect_schema, NoiseModel, Persona, SkeletonFrame, KINECT_STREAM,
};
use gesto_learn::query_gen::{generate_query_on, QueryStyle};
use gesto_learn::{Learner, LearnerConfig};
use gesto_stream::Catalog;
use gesto_transform::{register_kinect_t, TransformConfig, Transformer};
use std::sync::Arc;

const TRIALS: usize = 8;

/// Builds an engine whose `kinect_t` view uses `config` (full transform
/// or ablated), with a swipe learned under the same config deployed.
fn build(config: TransformConfig) -> Engine {
    // Learn with this transform.
    let persona = Persona::reference().with_noise(NoiseModel::realistic());
    let mut learner = Learner::new(LearnerConfig::default());
    for seed in 0..4u64 {
        let frames = perform(&gestures::swipe_right(), &persona, seed);
        let mut tr = Transformer::new(config);
        let transformed: Vec<SkeletonFrame> = frames
            .iter()
            .filter_map(|f| tr.transform_frame(f))
            .collect();
        learner.add_sample_frames(&transformed).expect("sample");
    }
    let def = learner.finalize("swipe_right").expect("finalizable");

    // Catalog with the matching view.
    let mut catalog = Catalog::new();
    catalog.register_stream(kinect_schema()).unwrap();
    register_kinect_t(&mut catalog, config).unwrap();
    let engine = Engine::new(Arc::new(catalog));
    engine
        .deploy(generate_query_on(
            &def,
            QueryStyle::TransformedView,
            "kinect_t",
        ))
        .unwrap();
    engine
}

fn rate(engine: &Engine, persona: &Persona, seed_base: u64) -> String {
    let mut hits = 0;
    for i in 0..TRIALS as u64 {
        let frames = perform(&gestures::swipe_right(), persona, seed_base + i);
        let tuples = frames_to_tuples(&frames, &kinect_schema());
        let ds = engine.push_batch(KINECT_STREAM, &tuples).unwrap();
        if ds.iter().any(|d| d.gesture == "swipe_right") {
            hits += 1;
        }
        engine.reset_runs();
    }
    pct(hits, TRIALS)
}

fn main() {
    println!("E3 / Fig. 3 — invariance of the kinect_t transformation");
    println!("=========================================================\n");
    println!("detection rate over {TRIALS} noisy trials per condition;");
    println!("'full' = translation + rotation + scaling (paper §3.2),");
    println!("'ablated' = torso-centred only (no rotation, no scaling)\n");

    let full = build(TransformConfig::default());
    let ablated = build(TransformConfig::torso_only());

    let base = Persona::reference().with_noise(NoiseModel::realistic());
    let conditions: Vec<(String, Persona)> = vec![
        ("baseline (reference user)".into(), base.clone()),
        (
            "translated +1.0 m lateral".into(),
            base.clone().at(1000.0, 2000.0),
        ),
        (
            "translated 1.4 m depth".into(),
            base.clone().at(0.0, 3400.0),
        ),
        ("rotated -35 deg".into(), base.clone().rotated(-0.61)),
        ("rotated +60 deg".into(), base.clone().rotated(1.05)),
        (
            "height 1.10 m (child)".into(),
            base.clone().with_height(1100.0),
        ),
        ("height 1.45 m".into(), base.clone().with_height(1450.0)),
        ("height 2.00 m".into(), base.clone().with_height(2000.0)),
        (
            "child + moved + rotated".into(),
            base.with_height(1200.0).at(700.0, 2800.0).rotated(0.5),
        ),
    ];

    let mut table = Table::new(&["condition", "full transform", "ablated (no rot/scale)"]);
    for (i, (label, persona)) in conditions.iter().enumerate() {
        table.row(&[
            label.clone(),
            rate(&full, persona, 3000 + 100 * i as u64),
            rate(&ablated, persona, 3000 + 100 * i as u64),
        ]);
    }
    table.print();

    println!("\nexpected shape (paper §3.2): the full transform detects every");
    println!("condition; the ablated variant only survives pure translation.");
}
