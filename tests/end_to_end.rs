//! Integration: teach → deploy → detect across the whole stack.

use gesto::kinect::{gestures, GestureSpec, NoiseModel, Performer, Persona, SkeletonFrame};
use gesto::GestureSystem;

fn record(spec: &GestureSpec, persona: &Persona, seed: u64) -> Vec<SkeletonFrame> {
    let mut p = Performer::new(persona.clone().with_seed(seed), 0);
    p.render(spec)
}

fn noisy() -> Persona {
    Persona::reference().with_noise(NoiseModel::realistic())
}

fn teach(system: &GestureSystem, spec: &GestureSpec, k: usize) {
    let persona = noisy();
    let samples: Vec<_> = (0..k as u64).map(|s| record(spec, &persona, s)).collect();
    system.teach(&spec.name, &samples).expect("teachable");
}

#[test]
fn teach_and_detect_one_gesture() {
    let system = GestureSystem::new();
    teach(&system, &gestures::swipe_right(), 5);
    assert_eq!(system.engine().deployed(), vec!["swipe_right"]);

    // Human performance variability means not every repetition lands in
    // the learned windows; most must, and never more than once per
    // performance (select first consume all).
    let mut hits = 0;
    for seed in 77..81u64 {
        let frames = record(&gestures::swipe_right(), &noisy(), seed);
        let ds = system.run_frames(&frames).unwrap();
        let n = ds.iter().filter(|d| d.gesture == "swipe_right").count();
        assert!(n <= 1, "at most one detection per performance: {ds:?}");
        hits += n;
        system.engine().reset_runs();
    }
    assert!(
        hits >= 3,
        "at least 3 of 4 repetitions detected, got {hits}"
    );
}

#[test]
fn detection_is_user_invariant() {
    let system = GestureSystem::new();
    teach(&system, &gestures::swipe_right(), 5);

    let variants = [
        noisy().with_height(1150.0),
        noisy().with_height(2000.0).at(-700.0, 3000.0),
        noisy().rotated(0.7),
        noisy().with_tempo(1.4),
    ];
    for (i, persona) in variants.into_iter().enumerate() {
        let mut hits = 0;
        for t in 0..3u64 {
            let frames = record(&gestures::swipe_right(), &persona, 100 + 10 * i as u64 + t);
            let ds = system.run_frames(&frames).unwrap();
            if ds.iter().any(|d| d.gesture == "swipe_right") {
                hits += 1;
            }
            system.engine().reset_runs();
        }
        assert!(
            hits >= 2,
            "variant {i}: at least 2 of 3 detected, got {hits}"
        );
    }
}

#[test]
fn gestures_do_not_cross_fire() {
    let system = GestureSystem::new();
    teach(&system, &gestures::swipe_right(), 3);
    teach(&system, &gestures::swipe_up(), 3);
    teach(&system, &gestures::push(), 3);

    // Performing swipe_up must fire swipe_up and not the others.
    let frames = record(&gestures::swipe_up(), &noisy(), 55);
    let ds = system.run_frames(&frames).unwrap();
    assert!(ds.iter().any(|d| d.gesture == "swipe_up"));
    assert!(
        !ds.iter().any(|d| d.gesture == "swipe_right"),
        "swipe_right fired during swipe_up: {ds:?}"
    );
}

#[test]
fn multiple_repetitions_yield_multiple_detections() {
    let system = GestureSystem::new();
    teach(&system, &gestures::push(), 3);

    // Three consecutive performances in one stream.
    let persona = noisy().with_seed(9);
    let mut performer = Performer::new(persona, 0);
    let mut frames = Vec::new();
    for _ in 0..3 {
        frames.extend(performer.render_padded(&gestures::push(), 300, 300));
    }
    let ds = system.run_frames(&frames).unwrap();
    let hits = ds.iter().filter(|d| d.gesture == "push").count();
    assert!(
        hits >= 3,
        "three pushes -> at least 3 detections, got {hits}"
    );
}

#[test]
fn forget_removes_gesture() {
    let system = GestureSystem::new();
    teach(&system, &gestures::pull(), 2);
    assert_eq!(system.engine().len(), 1);
    system.forget("pull").unwrap();
    assert!(system.engine().is_empty());
    assert!(system.store().get("pull").is_none());
    let ds = system
        .run_frames(&record(&gestures::pull(), &noisy(), 3))
        .unwrap();
    assert!(ds.is_empty());
}

#[test]
fn reteaching_replaces_query() {
    let system = GestureSystem::new();
    teach(&system, &gestures::circle(), 2);
    let before = system.store().definition("circle").unwrap();
    // Re-teach with more samples: definition replaced, engine still has
    // exactly one query.
    teach(&system, &gestures::circle(), 5);
    let after = system.store().definition("circle").unwrap();
    assert_eq!(system.engine().len(), 1);
    assert_eq!(after.sample_count, 5);
    assert!(after.sample_count != before.sample_count);
}

#[test]
fn store_persistence_roundtrip_redeploys() {
    let system = GestureSystem::new();
    teach(&system, &gestures::swipe_left(), 3);

    let json = serde_json::to_string(&system.store().snapshot()).unwrap();

    // A fresh system restores the store and redeploys from stored queries.
    let system2 = GestureSystem::new();
    let store = gesto::db::GestureStore::new();
    store.restore(serde_json::from_str(&json).unwrap()).unwrap();
    for name in store.names() {
        let rec = store.get(&name).unwrap();
        let text = rec.query_text.expect("query stored");
        let query = gesto::cep::parse_query(&text).expect("stored query parses");
        system2.engine().deploy(query).unwrap();
    }
    let frames = record(&gestures::swipe_left(), &noisy(), 31);
    let ds = system2.run_frames(&frames).unwrap();
    assert!(
        ds.iter().any(|d| d.gesture == "swipe_left"),
        "redeployed query detects"
    );
}

#[test]
fn tracking_dropouts_do_not_break_detection() {
    let system = GestureSystem::new();
    teach(&system, &gestures::swipe_right(), 4);
    let persona = noisy()
        .with_noise(NoiseModel {
            dropout_prob: 0.02,
            ..NoiseModel::realistic()
        })
        .with_seed(8);
    let frames = record(&gestures::swipe_right(), &persona, 8);
    let ds = system.run_frames(&frames).unwrap();
    assert!(
        ds.iter().any(|d| d.gesture == "swipe_right"),
        "2% dropouts must not break detection"
    );
}

#[test]
fn detection_reports_duration_and_events() {
    let system = GestureSystem::new();
    teach(&system, &gestures::swipe_right(), 5);
    // Scan a few fresh repetitions for a detection, then inspect it.
    let d = (12..18u64)
        .find_map(|seed| {
            let frames = record(&gestures::swipe_right(), &noisy(), seed);
            let ds = system.run_frames(&frames).unwrap();
            system.engine().reset_runs();
            ds.into_iter().find(|d| d.gesture == "swipe_right")
        })
        .expect("at least one repetition detected");
    assert!(
        d.duration_ms() > 100,
        "swipe takes time: {}",
        d.duration_ms()
    );
    assert!(d.duration_ms() < 3000);
    assert!(d.events.len() >= 3, "one event tuple per pose");
    assert!(d.started_at < d.ts);
}
