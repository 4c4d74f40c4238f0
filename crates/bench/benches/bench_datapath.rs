//! Criterion: the frame data path — seed per-route transformation vs the
//! transform-once shared-view path, at 1 / 4 / 16 deployed gestures.
//!
//! The per-route path instantiates one private `kinect_t` chain per
//! deployed plan (`fixtures::PerRouteReference`, the seed semantics kept
//! as the equivalence suite's oracle); the shared path evaluates the view
//! once per frame and fans the output to every plan
//! (`Engine::push_batch`). The gap between the two at N gestures is
//! exactly the redundancy the shared path removes.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gesto_bench::learn_gesture;
use gesto_cep::fixtures::PerRouteReference;
use gesto_cep::{Engine, QueryPlan};
use gesto_kinect::{frames_to_tuples, gestures, kinect_schema, Performer, Persona, KINECT_STREAM};
use gesto_learn::query_gen::{generate_query, QueryStyle};
use gesto_learn::LearnerConfig;
use gesto_stream::Tuple;
use gesto_transform::standard_catalog;

const FRAMES: usize = 240;
const GESTURE_COUNTS: [usize; 3] = [1, 4, 16];

fn workload() -> Vec<Tuple> {
    let mut p = Performer::new(Persona::reference(), 0);
    let mut frames = Vec::with_capacity(FRAMES + 64);
    while frames.len() < FRAMES {
        frames.extend(p.render_padded(&gestures::swipe_right(), 200, 400));
    }
    frames.truncate(FRAMES);
    frames_to_tuples(&frames, &kinect_schema())
}

/// N distinct-named variants of the learned transformed-view query (the
/// multi-tenant shape: many gestures, all over `kinect_t`).
fn query_variants(n: usize) -> Vec<gesto_cep::Query> {
    let def = learn_gesture(&gestures::swipe_right(), 3, 0, LearnerConfig::default());
    let base = generate_query(&def, QueryStyle::TransformedView);
    (0..n)
        .map(|i| {
            let mut q = base.clone();
            q.name = format!("{}_{i}", q.name);
            q
        })
        .collect()
}

fn bench_datapath(c: &mut Criterion) {
    let tuples = workload();
    let mut group = c.benchmark_group("datapath/per_frame");
    group.throughput(Throughput::Elements(tuples.len() as u64));

    for n in GESTURE_COUNTS {
        let catalog = standard_catalog();
        let funcs = {
            let e = Engine::new(catalog.clone());
            gesto_transform::register_rpy(e.functions());
            e.functions().clone()
        };
        let plans: Vec<Arc<QueryPlan>> = query_variants(n)
            .into_iter()
            .map(|q| QueryPlan::compile(q, catalog.as_ref(), &funcs).unwrap())
            .collect();

        // Seed semantics: every plan runs its own private view chain.
        group.bench_function(BenchmarkId::new("per_route", n), |b| {
            let mut instances: Vec<_> = plans.iter().map(PerRouteReference::new).collect();
            let mut out = Vec::new();
            b.iter(|| {
                for t in &tuples {
                    for inst in &mut instances {
                        inst.push(KINECT_STREAM, t, &mut out).unwrap();
                    }
                }
                out.clear();
            })
        });

        // Transform-once: shared views + batched engine dispatch.
        group.bench_function(BenchmarkId::new("transform_once", n), |b| {
            let engine = Engine::with_functions(catalog.clone(), funcs.clone());
            for p in &plans {
                engine.deploy_plan(p.clone()).unwrap();
            }
            let mut out = Vec::new();
            b.iter(|| {
                engine
                    .push_batch_into(KINECT_STREAM, &tuples, &mut out)
                    .unwrap();
                out.clear();
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_datapath);
criterion_main!(benches);
