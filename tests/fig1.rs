//! Integration: the paper's Fig. 1 — learn `swipe_right` from the
//! embedded real sensor trace and verify the generated query detects the
//! original movement.

use std::sync::Arc;

use gesto::cep::{parse_query, Engine};
use gesto::kinect::{fig1, kinect_schema, KINECT_STREAM};
use gesto::learn::query_gen::{generate_query, generate_query_text, QueryStyle};
use gesto::learn::{GestureSample, JointSet, Learner, LearnerConfig};
use gesto::stream::Catalog;
use gesto::transform::{TransformConfig, Transformer};

/// Learns from the Fig. 1 trace in the raw torso-relative space the
/// paper's example query uses.
fn learn_fig1() -> gesto::learn::GestureDefinition {
    let frames = fig1::frames(0);
    // Fig. 1 operates on torso-relative raw coordinates (§2, before the
    // kinect_t view of §3.2): transform with translation only.
    let mut tr = Transformer::new(TransformConfig::torso_only());
    let transformed: Vec<_> = frames
        .iter()
        .filter_map(|f| tr.transform_frame(f))
        .collect();
    assert_eq!(transformed.len(), 19);

    let mut learner = Learner::new(LearnerConfig::fig1());
    learner.add_sample_frames(&transformed).unwrap();
    learner.finalize("swipe_right").unwrap()
}

#[test]
fn trace_learns_a_short_pose_sequence() {
    let def = learn_fig1();
    assert!(
        (3..=6).contains(&def.pose_count()),
        "19 readings compress to a few poses, got {}",
        def.pose_count()
    );
    assert_eq!(def.sample_count, 1);
}

#[test]
fn learned_centres_follow_the_paper_shape() {
    let def = learn_fig1();
    let first = &def.poses[0];
    let last = def.poses.last().unwrap();
    // Paper idealises the windows at x = 0 / 400 / 800. The real trace
    // starts slightly left of the torso and ends slightly beyond 800;
    // the learned sequence must reproduce that left-to-right sweep.
    assert!(
        first.center[0] < 100.0,
        "first pose near the torso: {:?}",
        first.center
    );
    assert!(
        last.center[0] > 650.0,
        "last pose far right: {:?}",
        last.center
    );
    // Monotone x.
    for w in def.poses.windows(2) {
        assert!(w[1].center[0] > w[0].center[0]);
    }
    // Mid-gesture z dips towards the camera (paper: −420 vs −120).
    let min_z = def
        .poses
        .iter()
        .map(|p| p.center[2])
        .fold(f64::MAX, f64::min);
    assert!(min_z < -250.0, "mid pose bows forward: {min_z}");
}

#[test]
fn generated_query_matches_paper_format() {
    let def = learn_fig1();
    let text = generate_query_text(&def, QueryStyle::RawTorsoRelative);
    assert!(text.starts_with("SELECT \"swipe_right\""), "{text}");
    assert!(text.contains("MATCHING"), "{text}");
    assert!(text.contains("abs(rHand_x - torso_x"), "{text}");
    assert!(
        text.contains("within 1 seconds select first consume all"),
        "{text}"
    );
    assert!(parse_query(&text).is_ok(), "generated text parses");
}

#[test]
fn generated_query_detects_the_original_trace() {
    let def = learn_fig1();
    // Deploy over the raw kinect stream (predicates subtract torso
    // inline, as in the paper's Fig. 1 query).
    let mut catalog = Catalog::new();
    catalog.register_stream(kinect_schema()).unwrap();
    let engine = Engine::new(Arc::new(catalog));
    engine
        .deploy(generate_query(&def, QueryStyle::RawTorsoRelative))
        .unwrap();

    let tuples = fig1::tuples(0, &kinect_schema());
    let ds = engine.push_batch(KINECT_STREAM, &tuples).unwrap();
    assert_eq!(
        ds.iter().filter(|d| d.gesture == "swipe_right").count(),
        1,
        "the trace itself must be detected exactly once"
    );
}

#[test]
fn reversed_trace_is_not_detected() {
    let def = learn_fig1();
    let mut catalog = Catalog::new();
    catalog.register_stream(kinect_schema()).unwrap();
    let engine = Engine::new(Arc::new(catalog));
    engine
        .deploy(generate_query(&def, QueryStyle::RawTorsoRelative))
        .unwrap();

    // Same poses in reverse order (a swipe_left) must not fire.
    let mut frames = fig1::frames(0);
    frames.reverse();
    for (i, f) in frames.iter_mut().enumerate() {
        f.ts = i as i64 * 33;
    }
    let tuples: Vec<_> = frames
        .iter()
        .map(|f| gesto::kinect::frame_to_tuple(f, &kinect_schema()))
        .collect();
    let ds = engine.push_batch(KINECT_STREAM, &tuples).unwrap();
    assert!(ds.is_empty(), "reversed movement detected: {ds:?}");
}

#[test]
fn trace_roundtrips_through_csv() {
    // The Fig. 1 trace can be exported/imported in the paper's semicolon
    // format.
    let js = JointSet::right_hand();
    let frames = fig1::frames(0);
    let mut tr = Transformer::new(TransformConfig::torso_only());
    let transformed: Vec<_> = frames
        .iter()
        .filter_map(|f| tr.transform_frame(f))
        .collect();
    let sample = GestureSample::from_frames(&transformed, &js);
    let names: Vec<String> = (0..3).map(|d| js.dim_name(d)).collect();
    let csv = gesto::db::export_sample(&sample, &names);
    let back = gesto::db::import_sample(&csv, 3).unwrap();
    assert_eq!(back.points.len(), sample.points.len());
    for (a, b) in sample.points.iter().zip(&back.points) {
        assert_eq!(a.ts, b.ts);
        for (x, y) in a.feat.iter().zip(&b.feat) {
            assert!((x - y).abs() < 0.01, "2-decimal CSV precision");
        }
    }
}
