//! Criterion: the frame data path — seed per-route transformation vs the
//! transform-once shared-view path, at 1 / 4 / 16 deployed gestures.
//!
//! The per-route path instantiates one private `kinect_t` chain per
//! deployed plan (`fixtures::PerRouteReference`, the seed semantics kept
//! as the equivalence suite's oracle); the shared path evaluates the view
//! once per frame and fans the output to every plan
//! (`Engine::push_batch`). The gap between the two at N gestures is
//! exactly the redundancy the shared path removes.
//!
//! After the criterion groups it prints a `front_path` table, timed by
//! hand because its unit is ns per tuple / per frame: what building a
//! kinect tuple costs, what `SharedViews::begin_batch` costs on a block
//! batch when no `kinect_t` row is read (the rows stay deferred), when
//! every row is kept (`RowSource::keep`: a handle, no tuple, as a run
//! interns a row) and when every row is materialised into a tuple, and
//! what it costs
//! round-robin over 512 sessions (30-frame batches, the shard's shape on
//! `inproc_512x4`) when every session keeps its own batch buffers — the
//! shard cycles through 512 cold sets — against one set lent to each
//! session in turn (`SharedViews::lend` / `reclaim`), which stays in
//! cache — fed the batch's tuples (built beforehand: add a tuple per
//! frame for what the shard used to pay) or its skeleton frames
//! (`begin_batch_rows`, what the shard does now).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gesto_bench::learn_gesture;
use gesto_cep::fixtures::PerRouteReference;
use gesto_cep::{Engine, QueryPlan};
use gesto_kinect::{
    frames_to_tuples, gestures, kinect_schema, KinectSlots, Performer, Persona, SkeletonFrame,
    KINECT_STREAM,
};
use gesto_learn::query_gen::{generate_query, QueryStyle};
use gesto_learn::LearnerConfig;
use gesto_stream::{BatchBuffers, RowBatch, RowSource, SharedViews, Tuple, ViewRows};
use gesto_transform::{standard_catalog, KINECT_T};

const FRAMES: usize = 240;
const GESTURE_COUNTS: [usize; 3] = [1, 4, 16];

fn frames() -> Vec<SkeletonFrame> {
    let mut p = Performer::new(Persona::reference(), 0);
    let mut frames = Vec::with_capacity(FRAMES + 64);
    while frames.len() < FRAMES {
        frames.extend(p.render_padded(&gestures::swipe_right(), 200, 400));
    }
    frames.truncate(FRAMES);
    frames
}

fn workload() -> Vec<Tuple> {
    frames_to_tuples(&frames(), &kinect_schema())
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

/// Mean ns per element of `pass`, which handles `elements` of them per
/// call, over `passes` calls after one untimed.
fn ns_per_element(elements: usize, passes: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let t0 = Instant::now();
    for _ in 0..passes {
        pass();
    }
    t0.elapsed().as_nanos() as f64 / (passes * elements) as f64
}

/// Best of five [`ns_per_element`] tries of 400 passes.
fn best_ns_per_element(elements: usize, mut pass: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| ns_per_element(elements, 400, &mut pass))
        .fold(f64::INFINITY, f64::min)
}

/// The `front_path` table (see the module doc).
fn front_path(_: &mut Criterion) {
    let frames = frames();
    let schema = kinect_schema();
    let slots = KinectSlots::resolve(&schema, "");
    let n = frames.len();

    let fresh = best_ns_per_element(n, || {
        for f in &frames {
            black_box(slots.tuple(black_box(f), &schema));
        }
    });
    let tuples: Vec<Tuple> = frames_to_tuples(&frames, &schema);

    // The view block restricted to the lanes a deployed gesture reads
    // (here the right hand's), as the shard declares them.
    let catalog = standard_catalog();
    let out_schema = gesto_transform::kinect_t_schema();
    let rhand: Vec<usize> = ["rHand_x", "rHand_y", "rHand_z"]
        .iter()
        .map(|c| out_schema.index_of(c).expect("kinect layout"))
        .collect();
    let begin_batch = |read: &dyn Fn(ViewRows<'_>)| {
        let mut views = SharedViews::new(&catalog);
        views.set_needed([KINECT_T]);
        views.clear_block_columns();
        views.add_view_block_columns(KINECT_T, &rhand);
        let slot = views.slot_of(KINECT_T).expect("standard catalog");
        best_ns_per_element(n, || {
            views.begin_batch(KINECT_STREAM, &tuples);
            read(views.rows(slot));
        })
    };
    let none_kept = begin_batch(&|_| {});
    let all_kept = begin_batch(&|rows| (0..rows.len()).for_each(|r| drop(black_box(rows.keep(r)))));
    let all_built = begin_batch(&|rows| rows.iter().for_each(|t| _ = black_box(t)));

    // The shard's shape: many sessions, one 30-frame batch each in
    // turn. The two set-ups are timed try by try in alternation, so a
    // slow spell of the host hits both.
    const SESSIONS: usize = 512;
    const BATCH: usize = 30;
    let sessions = || -> Vec<SharedViews> {
        (0..SESSIONS)
            .map(|_| {
                let mut views = SharedViews::new(&catalog);
                views.set_needed([KINECT_T]);
                views.clear_block_columns();
                views.add_view_block_columns(KINECT_T, &rhand);
                views
            })
            .collect()
    };
    let (mut own, mut borrowers) = (sessions(), sessions());
    let mut bufs = BatchBuffers::default();
    let batch: Vec<SkeletonFrame> = frames[..BATCH].to_vec();
    let rows = RowBatch::of(&batch, &schema);
    let (mut per_session, mut lent, mut frame_fed) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        per_session = per_session.min(ns_per_element(SESSIONS * BATCH, 20, || {
            for views in &mut own {
                views.begin_batch(KINECT_STREAM, &tuples[..BATCH]);
            }
        }));
        lent = lent.min(ns_per_element(SESSIONS * BATCH, 20, || {
            for views in &mut borrowers {
                views.lend(std::mem::take(&mut bufs));
                views.begin_batch(KINECT_STREAM, &tuples[..BATCH]);
                bufs = views.reclaim();
            }
        }));
        frame_fed = frame_fed.min(ns_per_element(SESSIONS * BATCH, 20, || {
            for views in &mut borrowers {
                views.lend(std::mem::take(&mut bufs));
                views.begin_batch_rows(KINECT_STREAM, &rows, &[]);
                bufs = views.reclaim();
            }
        }));
    }

    println!("front_path                                     ns/tuple");
    println!("  KinectSlots::tuple                          {fresh:>9.1}");
    println!("front_path                                     ns/frame");
    println!("  block batch, no row kept                    {none_kept:>9.1}");
    println!("  block batch, every row kept                 {all_kept:>9.1}");
    println!("  block batch, every row materialised         {all_built:>9.1}");
    println!("  begin_batch, 512 sessions x 30, own buffers {per_session:>9.1}");
    println!("  begin_batch, 512 sessions x 30, one lent set{lent:>9.1}");
    println!("  begin_batch_rows (frames), same lent set    {frame_fed:>9.1}");
}

criterion_group!(benches, bench_datapath, front_path);
criterion_main!(benches);
