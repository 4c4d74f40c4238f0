//! C4 — detection effort (§2/§3.3.3): match-operator cost as the number
//! of deployed queries and the pattern length grow, plus the effect of
//! the window-merging optimisation.

use std::time::Instant;

use gesto_bench::{learn_gesture, perform, Table};
use gesto_cep::Engine;
use gesto_kinect::{frames_to_tuples, gestures, kinect_schema, NoiseModel, Persona, KINECT_STREAM};
use gesto_learn::query_gen::{generate_query, QueryStyle};
use gesto_learn::sampling::{CentroidMode, Strategy};
use gesto_learn::validate::merge_adjacent_windows;
use gesto_learn::{LearnerConfig, Metric, Threshold};
use gesto_stream::Tuple;
use gesto_transform::standard_catalog;

/// Measures sustained throughput (tuples/s) of `engine` over `tuples`.
fn throughput(engine: &Engine, tuples: &[Tuple], repeats: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..repeats {
        engine.push_batch(KINECT_STREAM, tuples).expect("stream ok");
    }
    (tuples.len() * repeats) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    println!("C4 — detection effort: engine scalability");
    println!("===========================================\n");
    let persona = Persona::reference().with_noise(NoiseModel::realistic());
    let schema = kinect_schema();

    // Workload: 10 s of mixed movement.
    let mut frames = Vec::new();
    let mut performer = gesto_kinect::Performer::new(persona.clone(), 0);
    for spec in [
        gestures::swipe_right(),
        gestures::circle(),
        gestures::push(),
    ] {
        frames.extend(performer.render_padded(&spec, 300, 300));
    }
    let tuples = frames_to_tuples(&frames, &schema);
    println!(
        "workload: {} frames of mixed movement, replayed repeatedly\n",
        tuples.len()
    );

    // (a) throughput vs number of deployed queries.
    println!("(a) throughput vs deployed queries");
    let mut table = Table::new(&["queries", "tuples/s", "x real-time (30 Hz)"]);
    let base_specs = [
        gestures::swipe_right(),
        gestures::swipe_left(),
        gestures::swipe_up(),
        gestures::swipe_down(),
        gestures::push(),
        gestures::pull(),
        gestures::circle(),
        gestures::wave(),
        gestures::raise_both_hands(),
        gestures::zigzag(),
    ];
    for n in [1usize, 2, 4, 8, 16, 32] {
        let engine = Engine::new(standard_catalog());
        for i in 0..n {
            let spec = &base_specs[i % base_specs.len()];
            let mut def = learn_gesture(spec, 2, 20_000 + i as u64, LearnerConfig::default());
            def.name = format!("{}_{i}", spec.name);
            engine
                .deploy(generate_query(&def, QueryStyle::TransformedView))
                .unwrap();
        }
        let tps = throughput(&engine, &tuples, 3);
        table.row(&[
            format!("{n}"),
            format!("{tps:.0}"),
            format!("{:.0}x", tps / 30.0),
        ]);
    }
    table.print();

    // (b) throughput vs pattern length (pose count).
    println!("\n(b) throughput vs pattern length (single query)");
    let mut table = Table::new(&["poses", "predicates", "tuples/s"]);
    for fraction in [0.5, 0.22, 0.1, 0.05, 0.02] {
        let def = learn_gesture(
            &gestures::zigzag(),
            2,
            21_000,
            LearnerConfig {
                sampling: Strategy::DistanceBased {
                    metric: Metric::Euclidean,
                    threshold: Threshold::RelativePathFraction(fraction),
                    centroid: CentroidMode::Reference,
                },
                ..LearnerConfig::default()
            },
        );
        let engine = Engine::new(standard_catalog());
        engine
            .deploy(generate_query(&def, QueryStyle::TransformedView))
            .unwrap();
        let tps = throughput(&engine, &tuples, 3);
        table.row(&[
            format!("{}", def.pose_count()),
            format!("{}", def.predicate_count()),
            format!("{tps:.0}"),
        ]);
    }
    table.print();

    // (c) window-merging optimisation ablation.
    println!("\n(c) §3.3.3 window merging: cost before/after");
    let def = learn_gesture(
        &gestures::circle(),
        3,
        22_000,
        LearnerConfig {
            sampling: Strategy::DistanceBased {
                metric: Metric::Euclidean,
                threshold: Threshold::RelativePathFraction(0.06),
                centroid: CentroidMode::Reference,
            },
            ..LearnerConfig::default()
        },
    );
    let mut table = Table::new(&["variant", "poses", "tuples/s", "still detects"]);
    for (label, merged) in [("as learned", false), ("after merge pass", true)] {
        let mut d = def.clone();
        if merged {
            merge_adjacent_windows(&mut d, 2.0);
        }
        let engine = Engine::new(standard_catalog());
        engine
            .deploy(generate_query(&d, QueryStyle::TransformedView))
            .unwrap();
        let tps = throughput(&engine, &tuples, 3);
        // Correctness: a fresh circle still detected?
        engine.reset_runs();
        let check = frames_to_tuples(&perform(&gestures::circle(), &persona, 777), &schema);
        let ok = engine
            .push_batch(KINECT_STREAM, &check)
            .unwrap()
            .iter()
            .any(|x| x.gesture == d.name);
        table.row(&[
            label.to_string(),
            format!("{}", d.pose_count()),
            format!("{tps:.0}"),
            format!("{ok}"),
        ]);
    }
    table.print();
}
