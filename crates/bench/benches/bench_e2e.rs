//! Criterion: end-to-end system costs — learning a gesture and running a
//! realistic multi-gesture detection stream.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gesto_bench::{learn_gesture, perform, transform_frames};
use gesto_cep::Engine;
use gesto_kinect::{frames_to_tuples, gestures, kinect_schema, NoiseModel, Persona, KINECT_STREAM};
use gesto_learn::query_gen::{generate_query, QueryStyle};
use gesto_learn::{Learner, LearnerConfig};
use gesto_transform::standard_catalog;

fn bench_learning_pipeline(c: &mut Criterion) {
    let persona = Persona::reference().with_noise(NoiseModel::realistic());
    let samples: Vec<_> = (0..4u64)
        .map(|seed| transform_frames(&perform(&gestures::swipe_right(), &persona, seed)))
        .collect();
    c.bench_function("e2e/learn_4_samples", |b| {
        b.iter(|| {
            let mut learner = Learner::new(LearnerConfig::default());
            for s in &samples {
                learner.add_sample_frames(s).unwrap();
            }
            learner.finalize("swipe_right").unwrap()
        })
    });
}

fn bench_detection_stream(c: &mut Criterion) {
    // Five learned gestures, 20 s of mixed movement.
    let engine = Engine::new(standard_catalog());
    for spec in [
        gestures::swipe_right(),
        gestures::swipe_up(),
        gestures::push(),
        gestures::circle(),
        gestures::zigzag(),
    ] {
        let def = learn_gesture(&spec, 3, 0, LearnerConfig::default());
        engine
            .deploy(generate_query(&def, QueryStyle::TransformedView))
            .unwrap();
    }
    let persona = Persona::reference().with_noise(NoiseModel::realistic());
    let mut performer = gesto_kinect::Performer::new(persona, 0);
    let mut frames = Vec::new();
    for _ in 0..2 {
        for spec in [
            gestures::swipe_right(),
            gestures::circle(),
            gestures::push(),
        ] {
            frames.extend(performer.render_padded(&spec, 300, 300));
        }
    }
    let tuples = frames_to_tuples(&frames, &kinect_schema());

    let mut group = c.benchmark_group("e2e");
    group.throughput(Throughput::Elements(tuples.len() as u64));
    group.bench_function("detect_5_gestures_stream", |b| {
        b.iter(|| {
            let n = engine.push_batch(KINECT_STREAM, &tuples).unwrap().len();
            engine.reset_runs();
            n
        })
    });
    group.finish();
}

criterion_group!(benches, bench_learning_pipeline, bench_detection_stream);
criterion_main!(benches);
